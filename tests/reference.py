"""Reference implementations that the library's faster versions must match."""

import itertools

from regverify.constraints import (And, Exists, Not, Or, _collect_leaves,
                                   closed_atoms_of, forcing_literal_sets,
                                   ground, substitute_atoms)
from regverify.errors import CapExceeded
from regverify.model import D0, READ, WRITE, Protocol
from regverify.oracle import ReachSet
from regverify.roundless import _closure
from regverify.verdict import NEGATIVE, POSITIVE, Verdict


def eval_with_assignment(node, assign: dict) -> bool:
    """Truth of a formula once every leaf under And/Or/Not has a value."""
    if node in assign:  # leaves may themselves be compound closed subtrees
        return assign[node]
    if isinstance(node, And):
        return all(eval_with_assignment(x, assign) for x in node.children)
    if isinstance(node, Or):
        return any(eval_with_assignment(x, assign) for x in node.children)
    if isinstance(node, Not):
        return not eval_with_assignment(node.child, assign)
    raise KeyError(f"unassigned leaf {node!r}")


def truth_table_prime_implicants(node, is_leaf) -> list[dict]:
    """``constraints.prime_implicants`` by trying every partial assignment.

    Candidates are produced by ascending size, ties in leaf declaration
    order, then True before False; supersets of an already-found implicant
    are skipped.  Exponential in the number of leaves.
    """
    leaves: list = []
    _collect_leaves(node, is_leaf, leaves)
    n = len(leaves)
    found: list[dict] = []
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            chosen = [leaves[i] for i in combo]
            for bits in itertools.product((True, False), repeat=r):
                partial = dict(zip(chosen, bits))
                if any(all(l in partial and partial[l] == v
                           for l, v in f.items()) for f in found):
                    continue
                rest = [l for l in leaves if l not in partial]
                if all(eval_with_assignment(node, {**partial,
                                                   **dict(zip(rest, bits2))})
                       for bits2 in itertools.product((True, False),
                                                      repeat=len(rest))):
                    found.append(partial)
    return found


def full_quantified_entries(apc, value: bool) -> list[tuple]:
    """``constraints._quantified_entries`` by trying every truth assignment
    of the constant-round atoms, in order, True first.

    Guesses whose residual no literal set can force come out with the role
    "dead"; the library drops them.  Exponential in the number of atoms.
    """
    if isinstance(apc, Exists):
        role = "E" if value else "U"
    else:
        role = "U" if value else "E"
    body = apc.prop if value else Not(apc.prop)
    catoms = closed_atoms_of(body)
    out = []
    for bits in itertools.product((True, False), repeat=len(catoms)):
        assign = dict(zip(catoms, bits))
        lits = frozenset(ground(a, v, None)
                         for a, v in assign.items())
        residual = substitute_atoms(body, assign)
        forcing = forcing_literal_sets(residual)
        if not forcing:
            out.append((lits, "dead", None))
        elif forcing == [{}]:
            out.append((lits, "none", None))
        else:
            out.append((lits, role, residual))
    return out


def bfs(starts, successors, space_cap: float = float("inf"),
        max_depth: int | None = None) -> ReachSet:
    """``oracle.bfs`` over explicit configurations and a successor function.

    ``successors(c)`` yields ``(move, successor)`` pairs.  Each level's
    configurations are expanded in discovery order, each by its successors
    in the order given; configurations at depth ``max_depth`` are not
    expanded, and discovering more than ``space_cap``, starts included,
    raises ``CapExceeded``.
    """
    rs = ReachSet(lambda c: c)
    links = rs.links

    def discover(pairs) -> list:
        """The configurations of ``(c, link)`` pairs first seen, in order."""
        new = []
        for c, link in pairs:
            if c not in links:
                if len(links) >= space_cap:
                    raise CapExceeded(
                        f"reach set exceeds {space_cap} configurations")
                links[c] = link
                new.append(c)
        return new

    level = discover((c, None) for c in starts)
    depth = 0
    while level and depth != max_depth:
        depth += 1
        level = discover((succ, (c, move)) for c in level
                         for move, succ in successors(c))
    return rs


def first_write_orders(p: Protocol):
    """All first-write orders, shortest first, lexicographic within a length.

    Each is a tuple of distinct 0-based register ids, in the order in which
    the registers irreversibly lose the initial symbol.
    """
    for m in range(p.register_count + 1):
        yield from itertools.permutations(range(p.register_count), m)


def saturate_phases(p: Protocol, order: tuple,
                    phases: dict | None = None) -> set:
    """Phase-wise saturation along one first-write order.

    Phase i is ``_closure`` with the first i registers of the order opened;
    an order is abandoned once the next register cannot be written from the
    covered set.  ``phases`` maps each opened prefix to its closed set, or to
    None when its last register cannot be written; the orders of one query
    share it, so that each prefix is closed once.
    """
    if phases is None:
        phases = {}
    S = set(p.initial_states)
    for i in range(len(order) + 1):
        prefix = order[:i]
        if prefix not in phases:
            feasible = i == 0 or any(
                t.action.kind == WRITE and t.action.reg == order[i - 1]
                and t.source in S for t in p.transitions)
            phases[prefix] = (_closure(S, p.transitions, prefix)[0]
                              if feasible else None)
        if phases[prefix] is None:
            break  # order infeasible beyond the previous phase
        S = phases[prefix]
    return S


def fixed_r_exhaustive(p: Protocol, target: int) -> Verdict:
    """``roundless.solve_cover_fixed_r`` by trying every first-write order.

    Orders are tried shortest first, and the first that covers ``target``
    wins.  ``stats["orders_tried"]`` counts the orders tried and
    ``stats["prefixes_closed"]`` the prefixes closed, the empty one
    included.  Factorial in the register count.
    """
    tried = 0
    phases: dict = {}
    for order in first_write_orders(p):
        tried += 1
        if target in saturate_phases(p, order, phases):
            break
    else:
        order = None
    stats = {"orders_tried": tried, "prefixes_closed": sum(
        S is not None for S in phases.values())}
    if order is None:
        return Verdict(NEGATIVE, "fixed-r", None, stats)
    return Verdict(POSITIVE, "fixed-r", None,
                   dict(stats, order=[j + 1 for j in order]))


def rescanning_closure(S, transitions, opened) -> tuple[set, int]:
    """``roundless._closure`` without its write index: each read of a non-d0
    symbol rescans every transition for a writer.  Returns the closed set
    and the number of passes over ``transitions``."""
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
            else:
                fires = a.reg in opened and any(
                    w.action.kind == WRITE and w.action.reg == a.reg
                    and w.action.symbol == a.symbol
                    and w.source in S and w.dest in S for w in transitions)
            if fires:
                S.add(t.dest)
                changed = True
    return S, passes


def rescanning_previous_symbol(trans, S: set, symbols) -> set | None:
    """``roundless._previous_symbol`` over the whole transition list: each
    symbol rescans every transition to saturate and to find a writer."""
    found = False
    S = set(S)
    for a in symbols:
        T = set(S)
        changed = True
        while changed:
            changed = False
            for t in trans:
                if (t.action.kind == READ and t.action.symbol == a
                        and t.dest in T and t.source not in T):
                    T.add(t.source)
                    changed = True
        writers = {t.source for t in trans
                   if t.action.kind == WRITE and t.action.symbol == a
                   and t.dest in T}
        if writers:
            S = T | writers
            found = True
    return S if found else None


def alive_transitions(p: Protocol, alive: set) -> list:
    """The transitions with both ends in ``alive``."""
    return [t for t in p.transitions if t.source in alive and t.dest in alive]


def rescanning_cov_set(p: Protocol, alive: set) -> set:
    """``roundless.compute_cov_set`` on ``rescanning_closure``."""
    return rescanning_closure(p.initial_states & alive,
                              alive_transitions(p, alive), (0,))[0]


def rescanning_cocov_set(p: Protocol, clause, alive: set) -> set:
    """``roundless.compute_cocov_set`` on ``rescanning_previous_symbol``."""
    trans = alive_transitions(p, alive)
    S = rescanning_previous_symbol(trans, alive - clause.q_minus,
                                   sorted(clause.d_ok[0]))
    if S is None:
        return set()
    while True:
        nxt = rescanning_previous_symbol(trans, S, range(1, p.num_symbols))
        if nxt is None or nxt == S:
            return S
        S = nxt
