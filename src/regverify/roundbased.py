"""Round-based presence reachability: a round window or a round-by-round search.

A protocol whose control graph, read from the initial states with guards
ignored, has no cycle through an increment keeps every process at round B or
below, B the most increments on a path from an initial state
(``_round_bound``).  Such a protocol is a roundless one over Q x [0, B] with
(B+1)·r registers: the oracle's packed step table at B is its complete
step relation, since no increment is generated at round B, and the compiled
constraint reads every round past B as the empty tail.  These protocols are
searched breadth-first on that window, one tick per discovered
configuration, and a positive carries a shortest witness: this is
``oracle.search`` with the budget as its space cap.  The window never uses
the constraint's candidate obligation sets.

A protocol with no round bound first takes the same window at round cap 1,
with a twentieth of the budget.  Its executions are exactly those of the
protocol that stay within rounds 0 and 1, so a hit is a real run and a
positive with the window's shortest witness; a miss decides nothing.

The constraint is decomposed into candidate obligation sets only after a
window that ran out of budget or a capped window that missed: a constraint
with no candidate, or whose candidates all contradict themselves or have a
universal false on the empty tail (``_refuted``, below), is then negative
with the window's work, with no footprint search.  Otherwise a bounded
protocol, whose window ran out, answers "unknown".

An unbounded protocol then takes the round-by-round procedure, with the
budget the capped window left.  It guesses, per round k, a bridge
footprint on rounds [k-v, k] extending the carried footprint, updates the
obligation sets (universal propositions checked every round, existentials
fired at a guessed round, ground literals checked when their round comes),
and stops as soon as the remaining obligations hold on the untouched
tail.  A node keeps its footprint as the step sequence alone, with rounds
counted from the bridge's top round: every bridge starts at the initial
configuration on its window, which ``footprints.extend_footprint`` builds.
It keeps its ground literals as their bit tests in ``oracle.layout(p, 0)``,
compiled once per root branch, with rounds counted from k: moving to
round k+1 shifts each test down by one round's block.

Here every guess point is branch-enumerated depth-first: candidate obligation
sets, the populated initial set (which holds every initial state the
candidate's obligations do not negate, by ``oracle.search``'s cut), bridge
footprints (restricted to interleavings normal-form executions produce,
deserting only from states the obligations negate), universal literal sets
and existential firing rounds.  A branch is dropped when ``oracle._join``,
the one contradiction rule, folds its ground literals' tests to false, and so
is a candidate whose tests it folds with every forcing set of a universal at
a round where that set's literals meet the candidate's.  Visited nodes
(round capped at v+1, footprint, obligations) are memoized, which makes
the state space finite; a work budget caps the search, returning
"unknown" rather than ever a wrong answer.  Each node's
``extend_footprint`` stream is shared within the query and read lazily:
the budget counts only the query's own work, whatever ran before it.  On
acceptance the chain's bridge steps are spliced into one execution, in
time linear in the chain (``_glue_chain``), and the witness is replayed
and checked against the constraint.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .constraints import (ApcCandidate, decompose_apcs, ground,
                          negated_states, prime_implicants)
from .errors import CapExceeded, Incompatible
from .footprints import default_step_cap, extend_footprint
from .model import INC, ROUNDBASED, Protocol
from .oracle import _compiled, _join, _probe, layout, search, validated
from .semantics import AbstractConfig, Execution, Move, initial_supports
from .verdict import NEGATIVE, POSITIVE, UNKNOWN, Verdict

DEFAULT_BUDGET = 3_000_000


def _tests(p: Protocol, lits: frozenset) -> frozenset:
    """Ground literals as their bit tests ``(mask, want, eq, False)`` in
    ``layout(p, 0)``."""
    return frozenset(_compiled(x, layout(p, 0)) for x in lits)


def _literal_options(p: Protocol, prop, memo: dict) -> tuple:
    """Minimal forcing literal sets, as bit tests (``_tests``), with rounds
    as offsets from the bound var.

    The proposition's atoms all carry the variable (constant atoms were
    pre-resolved during decomposition), so options at round k are the base
    options shifted by k blocks.  ``memo`` maps propositions to their
    options for one query, so nothing is kept between queries.
    """
    if prop not in memo:
        memo[prop] = tuple(_tests(p, frozenset(
            ground(a, v, 0) for a, v in assign.items()))
            for assign in prime_implicants(prop))
    return memo[prop]


def _holds(opts: tuple):
    """A proposition as the disjunction of its forcing sets' tests.  On a
    code it is exact: a code fixes every atom, and a formula holds on a
    full assignment exactly when one of its prime implicants does."""
    return _join(False, [_join(True, opt) for opt in opts])


class _Node(NamedTuple):
    """A search node at round k, capped at v+1.  Its carried steps count
    rounds from k-1, the top round of the bridge they came from; its
    literals from k."""

    k: int
    carried: tuple            # visible steps of the last bridge
    exist: frozenset          # pending existential propositions
    closed: frozenset         # pending ground literals' tests, rounds >= 0


def _onestep_branches(p: Protocol, uni_opts: list, exist: frozenset,
                      closed: frozenset, options: dict):
    """All (remaining existentials, literals) choices at a node's round,
    with rounds counted from it.

    Universal propositions contribute one forcing literal set each, of
    their options ``uni_opts`` (choice branched); each pending existential
    either fires here with a forcing literal set or stays pending.  Choices
    whose literals' tests ``_join`` folds to false are dropped.
    """
    ex_list = sorted(exist, key=repr)
    ex_choice_lists = []
    for e in ex_list:
        fire_opts = [(True, lits) for lits in _literal_options(p, e, options)]
        ex_choice_lists.append(fire_opts + [(False, frozenset())])
    for uni_pick in itertools.product(*uni_opts):
        for ex_pick in itertools.product(*ex_choice_lists):
            additions = frozenset().union(*uni_pick) if uni_pick else \
                frozenset()
            remaining = set(exist)
            for e, (fired, lits) in zip(ex_list, ex_pick):
                if fired:
                    additions = additions | lits
                    remaining.discard(e)
            closed2 = closed | additions
            if _join(True, closed2) is not False:
                yield frozenset(remaining), closed2


def _refuted(p: Protocol, cand: ApcCandidate, options: dict) -> bool:
    """Whether no configuration meets the candidate's obligations because
    ``_join`` folds its ground literals' tests to false, a universal is
    false on the empty tail (code 0), or, at some round k, ``_join`` folds
    the literals with each forcing literal set of some universal to false.

    A universal holds at every round, the rounds past a finite execution's
    top included, where the configuration is the empty tail.  Where it
    holds one of its minimal forcing sets does, so the search would drop
    each such branch when it reaches that round; this drops the candidate
    before its first round.  Literals contradict only within one round, so
    the rounds k tried are 0 up to the top ground literal's round: at a
    round where no forcing set's literal falls on a ground literal's round,
    a universal folds to false only if each of its forcing sets contradicts
    itself, and then it is false on the empty tail, tested first.
    """
    closed = _tests(p, cand.closed)
    opts = [_literal_options(p, u, options) for u in cand.universal]
    if _join(True, closed) is False or not all(
            _probe(_holds(o))(0) for o in opts):
        return True
    block = layout(p, 0)[2](1, 0)
    top = max((m.bit_length() for m, *_ in closed), default=0)
    for o in opts:
        for n in range(0, top, block):
            if all(_join(True, [*closed, *((m << n, w << n, eq, s)
                                           for m, w, eq, s in opt)]) is False
                   for opt in o):
                return True
    return False


def solve_prp_roundbased(p: Protocol, psi,
                         budget: int | None = None) -> Verdict:
    """Decide round-based presence reachability.

    A protocol with a static round bound takes the round window at the
    bound, with the whole budget; a protocol with none first takes the
    round window at cap 1, with a twentieth of it.  Either window's hit is
    a positive, and a bounded window that ends without one is a negative.
    Otherwise, after a bounded window that ran out of budget or a capped
    window that missed or ran out, the constraint is decomposed into
    candidate obligation sets: if none survives ``_refuted`` the answer is
    negative with the window's work, route ``refuted``; otherwise an
    unbounded protocol goes on to the footprint search with the budget
    left, and a bounded one answers "unknown".  ``stats["route"]`` names
    the route that decided: ``round-window``, ``capped-window``,
    ``refuted`` or ``footprints``.  One work budget (``DEFAULT_BUDGET``
    unless given) covers the whole query, and ``stats["ticks"]`` counts
    the window's configurations as well as the footprint search's ticks.
    Running out answers "unknown", never a wrong answer.  A negative means
    the searched space was exhausted or every candidate was refuted.
    Positive verdicts carry a witness execution, replayed and checked
    against the constraint.
    """
    if p.flavor != ROUNDBASED:
        raise Incompatible("rb-search decides round-based protocols only")
    if budget is None:
        budget = DEFAULT_BUDGET
    options: dict = {}  # literal options of this query's propositions
    bound = _round_bound(p)
    window = _round_window(p, psi, bound,
                           budget if bound is not None else budget // 20)
    if window.answer == POSITIVE or (
            window.answer == NEGATIVE and bound is not None):
        return window
    cands = [c for c in decompose_apcs(psi) if not _refuted(p, c, options)]
    if not cands:
        return Verdict(NEGATIVE, "rb-search", None,
                       {**window.stats, "route": "refuted"})
    if bound is not None:
        return window
    spent = window.stats["ticks"]
    found = _footprint_search(p, psi, cands, budget - spent, options)
    found.stats["ticks"] += spent
    return found


def _round_bound(p: Protocol) -> int | None:
    """The most increments on a control path from an initial state, or None
    when a cycle through the states such paths reach passes an increment.

    Guards are ignored, so no process of any execution ever leaves the
    rounds up to the bound.  Longest paths by Bellman-style relaxation: with
    no such cycle they settle within |Q| passes, and with one they never do.
    """
    best = dict.fromkeys(p.initial_states, 0)
    for _ in range(p.num_states + 1):
        changed = False
        for t in p.transitions:
            if t.source in best:
                n = best[t.source] + (t.action.kind == INC)
                if n > best.get(t.dest, -1):
                    best[t.dest] = n
                    changed = True
        if not changed:
            return max(best.values(), default=0)
    return None


def _round_window(p: Protocol, psi, bound: int | None,
                  budget: int) -> Verdict:
    """``oracle.search`` on the packed round window at the round bound, or
    at round cap 1 when ``bound`` is None, with ``budget`` configurations.

    At the bound the window holds every execution, so a miss is a negative
    (route ``round-window``).  At cap 1 it holds exactly the executions
    that stay within rounds 0 and 1: no increment is generated at round 1,
    and the compiled constraint reads every later round as the empty tail,
    as such an execution leaves it.  So a hit is a real run, a positive
    (route ``capped-window``), and a miss decides nothing.  Each discovered
    configuration costs one tick; past the budget the answer is "unknown".
    A positive carries the search's shortest witness.
    """
    cap, route = (1, "capped-window") if bound is None else \
        (bound, "round-window")
    # as the search ran out: the budget's configurations held, one more found
    stats = {"ticks": budget + 1, "nodes": budget, "route": route,
             "round_bound": bound}
    try:
        found, wit = search(p, psi, cap, budget)
    except CapExceeded:
        return Verdict(UNKNOWN, "rb-search", None, stats)
    stats["ticks"] = stats["nodes"] = found
    return Verdict(NEGATIVE if wit is None else POSITIVE, "rb-search", wit,
                   stats)


def _footprint_search(p: Protocol, psi, cands: list, budget: int,
                      options: dict) -> Verdict:
    """The round-by-round footprint search under one work budget.

    ``cands`` are the candidate obligation sets of ``psi`` left after
    ``_refuted``, and ``options`` the query's memo of literal options.
    Root branches (candidate, populated initial set) spend the budget in
    order, and the first branch that runs out ends the search with
    "unknown".  A positive splices the accepted footprint chain into a
    witness.

    Each candidate searches with N, the states its obligations negate: it
    starts with every initial state outside N populated and deserts only
    from N (``extend_footprint(..., negated=N)``).  This is complete: by the
    cut in ``oracle.search``'s docstring, applied to the obligations'
    conjunction, an execution that meets them has a twin that does too,
    with such a start and deserts; normalizing the twin, as the bridge
    footprints presuppose, only drops steps and turns deserts into keeps.

    A node's round is capped at v+1, where round 0 has left the window,
    so the node is its own visited key.  Its capped round and carried
    steps, with N and, while k <= v, the initial set, key its
    ``extend_footprint`` stream, which runs at the true round of the first
    node that reaches the key; later rounds share it.  The true round is
    the chain's length, which ``_glue_chain`` also reads.
    """
    v = max(p.visibility or 0, 1)
    block = layout(p, 0)[2](1, 0)
    step_cap = default_step_cap(p)
    work = {"ticks": 0, "nodes": 0, "route": "footprints"}
    # (capped round, carried steps, initial set while k <= v, N) -> (edges
    # read so far, the live extend_footprint stream), for this query's root
    # branches
    streams: dict = {}

    def tick(n: int = 1):
        work["ticks"] += n
        if work["ticks"] > budget:
            raise CapExceeded(f"search exceeds {budget} ticks")

    def expand(uni_opts: list, init_set: frozenset, negated: frozenset,
               node: _Node, k: int):
        """Children of a search node at true round k: (bridge steps, next
        node), the node None on acceptance.  The root branch's context
        (universal options, initial set, N) comes first, for binding.

        Per-branch obligations are computed once per node; per edge only
        the current round's literal test and the stop test remain, each a
        ``_probe`` of ``_join``ed bit tests.  The literal test reads round
        k of the edge's last code, and the stop test its round-(k+1)
        block, where ``extend_footprint`` leaves the destinations of the
        deserting increments at round k.  Stored edges are replayed at one
        tick each, and the stream is advanced only past their end.
        """
        # the last code counts rounds from the window's lowest, max(k - v, 0)
        up = min(k, v) * block
        # (remaining E, test of the round-k literals on the edge's last
        # code or None, pending literals counted from k+1, stop test on the
        # last code shifted down to round k+1, or None)
        branches = []
        for remaining_exist, closed2 in _onestep_branches(
                p, uni_opts, node.exist, node.closed, options):
            now = [(m << up, w << up, eq, s) for m, w, eq, s in closed2
                   if not m >> block]
            test = _probe(_join(True, now)) if now else None
            pending = frozenset((m >> block, w >> block, eq, s)
                                for m, w, eq, s in closed2 if m >> block)
            stop = None
            if not remaining_exist:
                # may the execution stop at round k, leaving later rounds
                # untouched?  The pending literals and the universals, each
                # the disjunction of its forcing sets, rounds counted from
                # k+1, on the last code's blocks from round k+1 up:
                # deserting increments may already populate round k+1,
                # everything beyond is empty and registers above round k
                # are initial.  Universals are checked at round k+1 only:
                # from round k+2 on every round reads the empty tail, where
                # each universal holds, or _refuted would have dropped the
                # candidate
                stop = _probe(_join(True, [*pending, *map(_holds, uni_opts)]))
            branches.append((remaining_exist, test, pending, stop))
        if not branches:
            return
        key = (node.k, node.carried, init_set if k <= v else None, negated)
        if key not in streams:
            streams[key] = ([], extend_footprint(
                p, node.carried, init_set, k, step_cap, tick, negated))
        edges, stream = streams[key]
        for i in itertools.count():
            if i < len(edges):
                tick()
            else:
                nxt = next(stream, None)
                if nxt is None:
                    return
                edges.append(nxt)
            steps, last, vis = edges[i]
            tick(len(branches))
            for remaining_exist, test, pending, stop in branches:
                if test is not None and not test(last):
                    continue
                if stop is not None and stop(last >> up + block):
                    yield steps, None
                    continue
                yield steps, _Node(min(k + 1, v + 1), vis, remaining_exist,
                                   pending)

    # root branches: obligation candidate x populated initial states
    for cand in cands:
        negated = frozenset().union(*map(
            negated_states, cand.closed | cand.existential | cand.universal))
        # each universal's forcing-set options, looked up once per candidate
        uni_opts = [_literal_options(p, u, options)
                    for u in sorted(cand.universal, key=repr)]
        root = _Node(0, (), cand.existential, _tests(p, cand.closed))
        for init_set in initial_supports(p, negated):
            grow = functools.partial(expand, uni_opts, init_set, negated)
            visited: set = set()
            stack = [grow(root, 0)]  # each entry: a node's children
            chain: list[tuple] = []  # each round's bridge steps, rounds from it
            work["nodes"] += 1
            try:
                while stack:
                    for steps, child in stack[-1]:
                        if child is None:  # accepted at this round
                            hit = _glue_chain([*chain, steps], init_set)
                            validated(p, psi, hit)
                            return Verdict(POSITIVE, "rb-search", hit,
                                           dict(work))
                        if child not in visited:
                            visited.add(child)
                            work["nodes"] += 1
                            chain.append(steps)
                            stack.append(grow(child, len(chain)))
                            break
                    else:
                        stack.pop()
                        del chain[-1:]  # the root has no bridge to drop
            except CapExceeded:
                return Verdict(UNKNOWN, "rb-search", None, dict(work))
    return Verdict(NEGATIVE, "rb-search", None, dict(work))


def _glue_chain(chain: list[tuple], init_set: frozenset) -> Execution:
    """Splice the accepted chain of bridge steps into one execution.

    Bridge k's steps, rounds counted from k, are the previous bridge's
    visible steps, in order, plus new ones: moves at round k and
    non-deserting increments from round k-1.  Bridge 0 has only new steps.
    Each new step goes into the execution just before the next replayed
    step, matched by value, or at the end when none follows.

    By induction on k, the execution is valid and its trace on the window
    [k-v, k] is bridge k.  Between two replayed steps, it holds only steps
    the previous bridge did not make visible: they are confined to rounds
    below k-v, and need nothing from rounds k-v and above.  A new step
    neither reads nor changes rounds below k-v: it acts on rounds k-1 and
    k, reads at most v rounds down, and a round-(k-1) one does not desert.
    So it commutes past them, and it finds the window as the bridge left
    it.  The start is the initial configuration on ``init_set``, every
    register at d0, as each bridge's start is on its window.
    """
    moves: list[Move] = []
    for k, steps in enumerate(chain):
        prev, moves, new, i = moves, [], [], 0
        for m in steps:
            m = Move(m.trans, m.rnd + k, m.desert)
            if m.rnd == k or (m.rnd == k - 1 and not m.desert
                              and m.trans.action.kind == INC):
                new.append(m)
                continue
            while prev[i] != m:
                moves.append(prev[i])
                i += 1
            moves += new
            moves.append(m)
            new, i = [], i + 1
        moves += prev[i:] + new
    start = AbstractConfig(frozenset((q, 0) for q in init_set), frozenset())
    return Execution(start, tuple(moves))
