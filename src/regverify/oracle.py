"""Brute-force ground truth at desk scale.

Exhaustive abstract reachability, breadth-first with parent links so that
shortest witnesses fall out, for roundless protocols and for round-based
protocols truncated at a round cap.  Every specialized solver is validated
against these sets; they are not a scalable model checker and refuse
instances beyond their caps.  The oracle stops at the first configuration
that satisfies the constraint, so its space cap bounds the configurations
discovered before a verdict, not the whole reach set.

Both flavors run one packed step relation: a roundless protocol is the
round-0 case of a round window.  The roundless ``bounded`` solver runs this
same search, cut at depth 4|Q| and without caps, so its agreement with the
oracle does not check the step relation; the tests check that relation
against ``semantics.abstract_successors`` and ``abstract_step``, and every
witness is replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constraints import eval_roundbased, eval_roundless, max_constant
from .errors import CapExceeded
from .model import INC, READ, ROUNDBASED, ROUNDLESS, WRITE, Protocol
from .semantics import (ABSTRACT, AbstractConfig, Execution, Move,
                        initial_supports, replay)
from .verdict import NEGATIVE, POSITIVE, Verdict

DEFAULT_STATE_CAP = 12
DEFAULT_SPACE_CAP = 200_000


@dataclass
class ReachSet:
    """Abstract reach set with parent links for witness extraction."""

    # config -> (pred, Move) | None, in breadth-first discovery order
    parents: dict = field(default_factory=dict)
    hit: AbstractConfig | None = None  # first member satisfying the predicate

    @property
    def members(self):
        return self.parents.keys()

    @property
    def order(self) -> list:
        return list(self.parents)

    def witness(self, config: AbstractConfig) -> Execution:
        moves: list[Move] = []
        cur = config
        while True:
            link = self.parents[cur]
            if link is None:
                break
            cur, move = link
            moves.append(move)
        moves.reverse()
        return Execution(cur, tuple(moves))


def bfs(starts, successors, decode, space_cap: float = float("inf"),
        sat=None, max_depth: int | None = None) -> ReachSet:
    """Breadth-first search over configuration codes, one level at a time.

    ``starts`` yields the initial codes, ``successors(code)`` yields
    ``(move, code)`` pairs and ``decode`` turns a code into its
    configuration.  Each code is decoded once, when first discovered, so
    that ``sat`` can stop the search at the first hit.  Configurations at
    depth ``max_depth`` are discovered but not expanded.
    """
    rs = ReachSet()
    configs: dict = {}  # discovered code -> decoded configuration
    frontier: list = []  # codes discovered at the current depth

    def discover(code, link) -> bool:
        c = configs[code] = decode(code)
        rs.parents[c] = link
        frontier.append(code)
        if sat is not None and sat(c):
            rs.hit = c
            return True
        return False

    for code in starts:
        if code not in configs and discover(code, None):
            return rs
    depth = 0
    while frontier and depth != max_depth:
        depth += 1
        level, frontier = frontier, []  # discover() appends to the new list
        for code in level:
            cur = configs[code]
            for move, succ in successors(code):
                if succ in configs:
                    continue
                if len(configs) >= space_cap:
                    raise CapExceeded(
                        f"reach set exceeds {space_cap} configurations")
                if discover(succ, (cur, move)):
                    return rs
    return rs


def packed(p: Protocol, max_round: int = 0):
    """``(starts, successors, decode)`` for ``bfs`` on packed integer codes.

    A code holds one symbol field per (round, register) in its low bits and
    one population bit per (round, state) above them, for rounds 0 to
    ``max_round`` of a round-based protocol; a roundless one has round 0
    only.  Successors come per transition and round, keep variant first,
    then desert, as in ``semantics.abstract_successors``: an increment at
    ``max_round`` and a read below round 0 are not generated.
    """
    rb = p.flavor == ROUNDBASED
    if max_round < 0:
        raise ValueError(f"round cap {max_round} is negative")
    rounds, nq, nr = max_round + 1 if rb else 1, p.num_states, p.register_count
    sym_bits = max(1, (p.num_symbols - 1).bit_length())
    sym_mask = (1 << sym_bits) - 1
    pop_shift = rounds * nr * sym_bits
    locs = [(q, r) if rb else q for r in range(rounds) for q in range(nq)]
    keys = [(r, j) for r in range(rounds) for j in range(nr)]
    pop = lambda q, r: 1 << (pop_shift + r * nq + q)
    slot = lambda r, j: (r * nr + j) * sym_bits

    def table():
        for t in p.transitions:
            a, depth = t.action, t.action.depth or 0
            for r in range(rounds):
                if r < depth or a.kind == INC and r == max_round:
                    continue
                test = want = put = 0
                keep = -1
                if a.kind == READ:
                    at = slot(r - depth, a.reg)
                    test, want = sym_mask << at, a.symbol << at
                elif a.kind == WRITE:
                    at = slot(r, a.reg)
                    keep, put = ~(sym_mask << at), a.symbol << at
                rnd = r if rb else None
                yield (pop(t.source, r), pop(t.dest, r + (a.kind == INC)),
                       test, want, keep, put,
                       Move(t, rnd, False), Move(t, rnd, True))

    ops = []  # built at the first expansion: many searches hit at a start

    def successors(code: int):
        if not ops:
            ops.extend(table())
        for src, dst, test, want, keep, put, stay, desert in ops:
            if code & src and code & test == want:
                base = code & keep | put
                yield stay, base | dst
                yield desert, base & ~src | dst

    def decode(code: int) -> AbstractConfig:
        bits = bin(code >> pop_shift)[:1:-1]
        where = frozenset(locs[i] for i, b in enumerate(bits) if b == "1")
        syms = ((code >> (i * sym_bits)) & sym_mask for i in range(len(keys)))
        if not rb:
            return AbstractConfig(where, tuple(syms))
        return AbstractConfig(where, frozenset(
            (k, s) for k, s in zip(keys, syms) if s))

    # lazy: a search that hits early never encodes the remaining supports
    starts = (sum(pop(q, 0) for q in support)
              for support in initial_supports(p))
    return starts, successors, decode


def reach(p: Protocol, max_round: int = 0,
          state_cap: int = DEFAULT_STATE_CAP,
          space_cap: int = DEFAULT_SPACE_CAP, sat=None) -> ReachSet:
    """Abstract reach set from every initial configuration, by moves with
    effect on rounds <= ``max_round`` for a round-based protocol.

    Without ``sat`` the set is complete.  With it, breadth-first search
    stops at the first configuration satisfying ``sat`` and records it as
    ``hit``; the set then holds the configurations discovered so far.
    """
    if p.num_states > state_cap:
        raise CapExceeded(f"|Q| = {p.num_states} exceeds cap {state_cap}")
    if p.flavor == ROUNDLESS and \
            p.num_symbols ** p.register_count > space_cap:
        raise CapExceeded("register valuation space exceeds cap")
    return bfs(*packed(p, max_round), space_cap, sat)


def default_round_cap(p: Protocol, psi) -> int:
    """Heuristic oracle round cap: (v+1) * (M+2) + 2 for constraint constant M.

    Deep enough for every desk-scale example; nothing deeper is claimed.
    """
    return (int(p.visibility or 0) + 1) * (max_constant(psi) + 2) + 2


def oracle_prp(p: Protocol, constraint, max_round: int | None = None,
               state_cap: int = DEFAULT_STATE_CAP,
               space_cap: int = DEFAULT_SPACE_CAP) -> Verdict:
    """Decide a presence reachability instance by exhaustive search.

    The constraint is checked on each configuration as breadth-first search
    first discovers it, and the search stops at the first hit, so positives
    carry a shortest witness, replayed and re-evaluated before it is
    returned.  ``space_cap`` bounds the configurations discovered before a
    verdict: a positive is exact whenever its first hit lies within the cap,
    while a negative explores the whole reach set and raises ``CapExceeded``
    past it.  ``stats["members"]`` counts the configurations discovered,
    which for a positive is not the whole reach set.

    For round-based protocols the verdict is relative to executions whose
    moves affect rounds <= max_round only (positives are exact; a negative
    means no witness within the cap).
    """
    if p.flavor == ROUNDLESS:
        max_round = 0
        sat = lambda c: eval_roundless(c, constraint)
    else:
        if max_round is None:
            max_round = default_round_cap(p, constraint)
        bound = max_round + 1  # increments at max_round-1 touch max_round
        sat = lambda c: eval_roundbased(p, c, constraint, active_bound=bound)
    rs = reach(p, max_round, state_cap, space_cap, sat)
    stats = {"members": len(rs.members)}
    if p.flavor == ROUNDBASED:
        stats["max_round"] = max_round
    if rs.hit is None:
        return Verdict(NEGATIVE, "oracle", None, stats)
    wit = rs.witness(rs.hit)
    final = replay(p, wit, ABSTRACT)
    if final != rs.hit or not sat(final):
        raise AssertionError("oracle witness failed validation")
    return Verdict(POSITIVE, "oracle", wit, stats)
