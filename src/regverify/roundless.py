"""Decision procedures for roundless protocols.

Four routes: a bounded exhaustive search realizing the short-witness
argument (every reachable presence pattern has a witness of at most 4|Q|
abstract steps, so breadth-first search to depth 4|Q| is complete), a
saturation fixpoint for uninitialized coverability, a breadth-first search
over first-write prefixes for coverability with fixed register count, and
the one-register DNF decision via covset/cocovset pruning.

The last three, and the fold of a one-register protocol's initial phase,
share one forward closure, ``_closure``, over a set of opened
(first-written) registers: a write fires on an opened register; a read of
d0 fires on a register not yet opened; a read of any other symbol fires on
an opened register once some write of that symbol to that register has
both its source and its destination in the set.

No route rescans a transition list for one read.  ``_index`` lists the
writes (or reads) of each (register, symbol) once: ``_closure`` tests a
read only against the writes of its own (register, symbol), from one index
per transition list (per query in ``fixed-r``, per pruning step in the
one-register loop, built at the first lookup elsewhere); cocovset's
backward phases walk, per symbol, only that symbol's reads and writes.
Closures still run in passes over the whole list, so saturation's
``iterations`` counts the same passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constraints import ClauseDecomposition, dnf_clauses, negated_states
from .errors import NotUninitialized, WrongRegisterCount
from .model import (D0, READ, ROUNDLESS, WRITE, Protocol, Transition,
                    is_uninitialized)
from .oracle import bfs, compile_constraint, packed
from .verdict import NEGATIVE, POSITIVE, Verdict


def witness_bound(p: Protocol) -> int:
    """Maximum abstract witness length the bounded search must consider."""
    return 4 * p.num_states


def solve_prp_bounded(p: Protocol, phi) -> Verdict:
    """Decide PRP by breadth-first search to depth 4|Q|, which is complete.

    Runs the oracle's search loop on its packed step table and compiled
    constraint without its caps, so a positive carries the oracle's shortest
    witness, at most 4|Q| steps long.  Both start with every initial state
    the constraint does not negate populated and desert only from states it
    negates: a witness as short as any exists there (the lemma in
    ``oracle``'s docstring), so the depth cut stays complete.
    ``stats["nodes"]`` counts the configurations discovered.
    """
    if p.flavor != ROUNDLESS:
        raise ValueError("solve_prp_bounded needs a roundless protocol")
    bound = witness_bound(p)
    rs = bfs(*packed(p, negated=negated_states(phi)),
             sat=compile_constraint(p, phi), max_depth=bound)
    stats = {"nodes": len(rs.links), "bound": bound}
    if rs.hit_code is None:
        return Verdict(NEGATIVE, "bounded", None, stats)
    return Verdict(POSITIVE, "bounded", rs.witness(), stats)


def _index(transitions, kind: str) -> dict:
    """The transitions of ``kind`` on each (register, symbol), as (source,
    dest) pairs in transition order."""
    out: dict = {}
    for t in transitions:
        a = t.action
        if a.kind == kind:
            out.setdefault((a.reg, a.symbol), []).append((t.source, t.dest))
    return out


def _closure(S, transitions, opened, writes=None) -> tuple[set, int]:
    """Least superset of ``S`` closed under firing ``transitions`` into it.

    From a source in the set, a write fires on a register in ``opened``, a
    read of d0 on a register not in ``opened``, and a read of another symbol
    on a register in ``opened`` once some write of that symbol to that
    register has both its source and its destination in the set.  That write
    is looked up in ``writes``, ``_index(transitions, WRITE)``: a caller that
    closes many sets over one transition list builds it once and passes it;
    otherwise it is built here, at the first lookup.  Also returns the number
    of passes over ``transitions``; the last adds nothing.
    """
    S = set(S)
    passes = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        for t in transitions:
            if t.source not in S or t.dest in S:
                continue
            a = t.action
            if a.kind == WRITE:
                fires = a.reg in opened
            elif a.symbol == D0:
                fires = a.reg not in opened
            elif a.reg not in opened:
                continue
            else:
                if writes is None:
                    writes = _index(transitions, WRITE)
                fires = any(s in S and d in S
                            for s, d in writes.get((a.reg, a.symbol), ()))
            if fires:
                S.add(t.dest)
                changed = True
    return S, passes


@dataclass
class SaturationState:
    """Grow-only saturation record: the covered states."""

    covered: set = field(default_factory=set)
    iterations: int = 0


def saturate_uninitialized(p: Protocol) -> SaturationState:
    """Fixpoint of the uninitialized coverability rules.

    From the initial states, a write transition always extends coverage; a
    read extends coverage once its symbol can be written to that register
    from covered states.  This is ``_closure`` with every register opened.
    """
    covered, passes = _closure(p.initial_states, p.transitions,
                               range(p.register_count))
    return SaturationState(covered, iterations=passes)


def solve_cover_uninitialized(p: Protocol, target: int) -> Verdict:
    """Saturation decision for uninitialized coverability; exact."""
    if p.flavor != ROUNDLESS:
        raise ValueError("needs a roundless protocol")
    if not is_uninitialized(p):
        raise NotUninitialized("protocol reads the initial symbol")
    st = saturate_uninitialized(p)
    answer = POSITIVE if target in st.covered else NEGATIVE
    return Verdict(answer, "saturation", None,
                   {"covered": sorted(p.state_names[q] for q in st.covered),
                    "iterations": st.iterations})


def solve_cover_fixed_r(p: Protocol, target: int) -> Verdict:
    """Coverability by a breadth-first search over first-write prefixes.

    A first-write order lists distinct registers in the order in which they
    irreversibly lose the initial symbol.  Level m of the search holds
    length-m prefixes in lexicographic order; each is extended by every
    unopened register in register order, so prefixes come shortest first,
    lexicographic within a length.  A child is closed only if its last
    register can be written from its parent's closed set; it closes under
    ``_closure`` from that set with the child's registers opened.  The first
    closed set that holds ``target`` wins.  Exact for any register count.

    A child whose closed set is a subset of an earlier child's over the
    same set of opened registers is dropped (an antichain per register set,
    grow-only).  Lemma: for a fixed opened set, ``_closure`` is monotone in
    its start set, and so is the test that a register can be written.  So
    if prefix pi is dominated by an earlier pi' over the same registers,
    then for every suffix s, pi s is closed only if pi' s is, and covers no
    more than it; pi' s also comes earlier.  Verdict and ``stats["order"]``
    are those of trying every order.  The worst case is still exponential
    in the register count.  ``stats["orders_tried"]`` counts the prefixes
    closed, the empty one included.  The closures of non-empty prefixes look
    writes up in one index, built once per query.
    """
    if p.flavor != ROUNDLESS:
        raise ValueError("needs a roundless protocol")
    S, _ = _closure(p.initial_states, p.transitions, ())
    level = [((), S)]
    tried = 1
    if target in S:
        return Verdict(POSITIVE, "fixed-r", None,
                       {"order": [], "orders_tried": tried})
    writes = _index(p.transitions, WRITE)
    writers = [set() for _ in range(p.register_count)]
    for (reg, _), pairs in writes.items():
        writers[reg].update(src for src, _ in pairs)
    while level:
        kept: dict = {}  # frozenset of opened registers -> kept closed sets
        nxt = []
        for prefix, S in level:
            for j in range(p.register_count):
                if j in prefix or writers[j].isdisjoint(S):
                    continue
                child = prefix + (j,)
                C, _ = _closure(S, p.transitions, child, writes)
                tried += 1
                if target in C:
                    return Verdict(POSITIVE, "fixed-r", None,
                                   {"order": [r + 1 for r in child],
                                    "orders_tried": tried})
                rivals = kept.setdefault(frozenset(child), [])
                if not any(C <= R for R in rivals):
                    rivals.append(C)
                    nxt.append((child, C))
        level = nxt
    return Verdict(NEGATIVE, "fixed-r", None, {"orders_tried": tried})


def reduce_initialized_to_uninit_r1(p: Protocol) -> Protocol:
    """Fold the initial-value phase of a one-register protocol away.

    States reachable through read-initial chains (``_closure`` with no
    register opened) become initial, and the read-initial transitions
    disappear; presence reachability answers coincide for every constraint.
    """
    if p.flavor != ROUNDLESS:
        raise ValueError("needs a roundless protocol")
    if p.register_count != 1:
        raise WrongRegisterCount("reduction needs exactly one register")
    closure, _ = _closure(p.initial_states, p.transitions, ())
    keep = tuple(t for t in p.transitions
                 if not (t.action.kind == READ and t.action.symbol == D0))
    return Protocol(flavor=ROUNDLESS, state_names=p.state_names,
                    initial_states=frozenset(closure),
                    register_count=1, symbol_names=p.symbol_names,
                    transitions=keep)


# --- one-register DNF decision ------------------------------------------------

def _alive_transitions(p: Protocol, alive: set) -> list[Transition]:
    return [t for t in p.transitions if t.source in alive and t.dest in alive]


def compute_cov_set(p: Protocol, alive: set | None = None) -> set:
    """The unique maximal jointly-coverable state set (uninitialized, r=1)."""
    if p.register_count != 1:
        raise WrongRegisterCount("covset needs exactly one register")
    if not is_uninitialized(p):
        raise NotUninitialized("covset needs an uninitialized protocol")
    if alive is None:
        alive = set(range(p.num_states))
    S, _ = _closure(p.initial_states & alive, _alive_transitions(p, alive),
                    (0,))
    return S


def _previous_symbol(reads: dict, writes: dict, S: set,
                     symbols) -> set | None:
    """One backward phase: saturate with reads, then demand a writer.

    ``reads`` and ``writes`` are ``_index`` of a one-register protocol's
    transitions for READ and WRITE, so symbol a walks only its own reads to
    saturate and only its own writes to find a writer.  Iterates every
    candidate symbol, accumulating each success; None when no symbol admits
    a writer into its read-closure.
    """
    found = False
    S = set(S)
    for a in symbols:
        a_writes = writes.get((0, a))
        if not a_writes:
            continue  # no writer, whatever the read-closure
        a_reads = reads.get((0, a), ())
        T = set(S)
        changed = True
        while changed:
            changed = False
            for src, dst in a_reads:
                if dst in T and src not in T:
                    T.add(src)
                    changed = True
        writers = {src for src, dst in a_writes if dst in T}
        if writers:
            S = T | writers
            found = True
    return S if found else None


def compute_cocov_set(p: Protocol, clause: ClauseDecomposition,
                      alive: set | None = None) -> set:
    """Maximal backward-coverable set for one clause (uninitialized, r=1).

    The reads and the writes of each symbol are listed once per call, for
    every backward phase.
    """
    if p.register_count != 1:
        raise WrongRegisterCount("cocovset needs exactly one register")
    if not is_uninitialized(p):
        raise NotUninitialized("cocovset needs an uninitialized protocol")
    if alive is None:
        alive = set(range(p.num_states))
    trans = _alive_transitions(p, alive)
    return _cocov_set(p, clause, alive, _index(trans, READ),
                      _index(trans, WRITE))


def _cocov_set(p: Protocol, clause: ClauseDecomposition, alive: set,
               reads: dict, writes: dict) -> set:
    """``compute_cocov_set`` without its checks, on the indexes of the
    transitions inside ``alive``."""
    first = _previous_symbol(reads, writes, alive - clause.q_minus,
                             sorted(clause.d_ok[0]))
    if first is None:
        return set()
    S = first
    writable = range(1, p.num_symbols)
    while True:
        nxt = _previous_symbol(reads, writes, S, writable)
        if nxt is None or nxt == S:
            break
        S = nxt
    return S


def _clause_route(pu: Protocol, dec: ClauseDecomposition) -> str | None:
    """Whether one clause accepts on the uninitialized protocol, and how.

    ``pu`` comes from ``reduce_initialized_to_uninit_r1``, so it has one
    register and reads no d0: the preconditions of covset and cocovset hold
    for the whole query, and the loop runs their bodies unchecked, on one
    write index per pruning step.
    """
    if not dec.satisfiable:
        return None
    base = pu.initial_states - dec.q_minus
    if D0 in dec.d_ok[0] and dec.q_plus <= base and base:
        return "initial"
    alive = set(range(pu.num_states))
    while alive:
        trans = _alive_transitions(pu, alive)
        writes = _index(trans, WRITE)
        cov, _ = _closure(pu.initial_states & alive, trans, (0,), writes)
        cocov = _cocov_set(pu, dec, alive, _index(trans, READ), writes)
        new_alive = alive & cov & cocov
        if new_alive == alive:
            break
        alive = new_alive
    if alive and dec.q_plus <= alive:
        return "fixpoint"
    return None


def solve_dnfprp_one_register(p: Protocol, phi) -> Verdict:
    """Polynomial-time DNF presence reachability for one register.

    Reduces to the uninitialized case, then per clause prunes the state set
    to the intersection of forward- and backward-coverable sets until stable;
    a clause accepts when its required states survive a nonempty fixpoint.
    Zero-step witnesses (initial configurations already satisfying a clause)
    are checked before the fixpoint, which only reasons about executions
    containing a write.
    """
    if p.flavor != ROUNDLESS:
        raise ValueError("needs a roundless protocol")
    if p.register_count != 1:
        raise WrongRegisterCount("one-register route needs r = 1")
    decs = dnf_clauses(p, phi)  # raises NotDNF on bad input
    pu = reduce_initialized_to_uninit_r1(p)
    stats = {"clauses": len(decs)}
    for dec in decs:
        route = _clause_route(pu, dec)
        if route is not None:
            return Verdict(POSITIVE, "one-reg", None,
                           dict(stats, route=route))
    return Verdict(NEGATIVE, "one-reg", None, stats)
