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
compiled once per query, with rounds counted from k: moving to round k+1
shifts each test down by one round's block.

Here every guess point is branch-enumerated depth-first: candidate obligation
sets, the populated initial set (which holds every initial state the
candidate's obligations do not negate, by ``oracle.search``'s cut), bridge
footprints (restricted to interleavings normal-form executions produce,
deserting only from states the obligations negate), universal literal sets
and existential firing rounds.  A branch is dropped when ``oracle._join``,
the one contradiction rule, folds its ground literals' tests to false, and so
is a candidate whose tests it folds with every forcing set of a universal at
a round where that set's literals meet the candidate's.  Visited (footprint,
obligations) signatures, with where round 0 sits in the window, are
memoized, which makes the state space finite; a work budget caps the
search, returning "unknown" rather than ever a wrong answer.
Bridge-footprint edges are memoized per query and enumerated lazily: the
budget counts only the query's own work, whatever ran before it.  On
acceptance the chain's bridge steps are spliced into one execution, in
time linear in the chain (``_glue_chain``), and the witness is replayed
and checked against the constraint.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .constraints import (ApcCandidate, decompose_apcs, forcing_literal_sets,
                          ground, negated_states)
from .errors import CapExceeded
from .footprints import default_step_cap, extend_footprint
from .model import INC, ROUNDBASED, Protocol
from .oracle import _compiled, _join, _probe, layout, search, validated
from .semantics import AbstractConfig, Execution, Move, initial_supports
from .verdict import NEGATIVE, POSITIVE, UNKNOWN, Verdict

DEFAULT_BUDGET = 3_000_000


def _tests(p: Protocol, lits: frozenset, memo: dict) -> frozenset:
    """Ground literals as their bit tests ``(mask, want, eq, False)`` in
    ``layout(p, 0)``, compiled once per query in ``memo``."""
    if lits not in memo:
        memo[lits] = frozenset(_compiled(x, layout(p, 0)) for x in lits)
    return memo[lits]


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
            ground(a, v, 0) for a, v in assign.items()), memo)
            for assign in forcing_literal_sets(prop))
    return memo[prop]


def _holds(opts: tuple):
    """A proposition as the disjunction of its forcing sets' tests.  On a
    code it is exact: a code fixes every atom, and a formula holds on a
    full assignment exactly when one of its prime implicants does."""
    return _join(False, [_join(True, opt) for opt in opts])


class _Node(NamedTuple):
    """A search node at round k.  Its carried steps count rounds from k-1,
    the top round of the bridge they came from; its literals from k."""

    k: int
    carried: tuple            # visible steps of the last bridge
    exist: frozenset          # pending existential propositions
    closed: frozenset         # pending ground literals' tests, rounds >= 0


def _onestep_branches(p: Protocol, universal: frozenset, exist: frozenset,
                      closed: frozenset, options: dict):
    """All (remaining existentials, literals) choices at a node's round,
    with rounds counted from it.

    Universal propositions contribute one forcing literal set each (choice
    branched); each pending existential either fires here with a forcing
    literal set or stays pending.  Choices whose literals' tests ``_join``
    folds to false are dropped.
    """
    uni_choice_lists = []
    for u in sorted(universal, key=repr):
        opts = _literal_options(p, u, options)
        if not opts:
            return  # this universal cannot hold at round k on any branch
        uni_choice_lists.append(opts)
    ex_list = sorted(exist, key=repr)
    ex_choice_lists = []
    for e in ex_list:
        fire_opts = [(True, lits) for lits in _literal_options(p, e, options)]
        ex_choice_lists.append(fire_opts + [(False, frozenset())])
    for uni_pick in itertools.product(*uni_choice_lists):
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
    the rounds k tried are those that put a forcing set's literal, at round
    k + o, on a ground literal's round r: k = r - o >= 0.
    """
    closed = _tests(p, cand.closed, options)
    opts = [_literal_options(p, u, options) for u in cand.universal]
    if _join(True, closed) is False or not all(
            _probe(_holds(o))(0) for o in opts):
        return True
    block = layout(p, 0)[2](1, 0)
    rounds = {(m.bit_length() - 1) // block for m, *_ in closed}
    for o in opts:
        ks = {r - (m.bit_length() - 1) // block
              for r in rounds for opt in o for m, *_ in opt}
        for n in (k * block for k in ks if k >= 0):
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
        raise ValueError("solve_prp_roundbased needs a round-based protocol")
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
    """
    v = max(p.visibility or 0, 1)
    work = {"ticks": 0, "nodes": 0, "route": "footprints"}
    edge_memo: dict = {}  # shared by the root branches of this query only

    def tick(n: int = 1):
        work["ticks"] += n
        if work["ticks"] > budget:
            raise CapExceeded(f"search exceeds {budget} ticks")

    # root branches: obligation candidate x populated initial states
    for cand in cands:
        negated = frozenset().union(*map(
            negated_states, cand.closed | cand.existential | cand.universal))
        for init_set in initial_supports(p, negated):
            try:
                hit = _search(p, cand, init_set, v, tick, work, edge_memo,
                              negated, options)
            except CapExceeded:
                return Verdict(UNKNOWN, "rb-search", None, dict(work))
            if hit is not None:
                validated(p, psi, hit)
                return Verdict(POSITIVE, "rb-search", hit, dict(work))
    return Verdict(NEGATIVE, "rb-search", None, dict(work))


def _search(p: Protocol, cand: ApcCandidate, init_set: frozenset,
            v: int, tick, work, edge_memo: dict,
            negated: frozenset, options: dict) -> Execution | None:
    universal = cand.universal
    root = _Node(0, (), cand.existential, _tests(p, cand.closed, options))
    visited: set = set()
    # each stack entry: (node, iterator over (steps, sig, child or None))
    stack = [(root, _expand(p, root, universal, init_set, v, tick,
                            edge_memo, negated, options))]
    chain: list[tuple] = []  # each round's bridge steps, rounds from it
    work["nodes"] += 1
    while stack:
        node, it = stack[-1]
        advanced = False
        for steps, sig, child in it:
            if child is None:  # accepted at this round
                chain.append(steps)
                return _glue_chain(chain, init_set)
            if sig in visited:
                continue
            visited.add(sig)
            work["nodes"] += 1
            chain.append(steps)
            stack.append((child, _expand(p, child, universal, init_set, v,
                                         tick, edge_memo, negated, options)))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if chain:
                chain.pop()
    return None


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


def _edges_for(p: Protocol, node: _Node, init_set: frozenset, v: int,
               tick, negated: frozenset, memo: dict):
    """Extension edges for a node's carried steps, memoized per query.

    Edges depend on the carried steps, on the candidate's negated states
    and on where round 0 sits in the window (with the initial set while it
    is there), so one query's nodes share them through ``memo``: key ->
    (edges read so far, the live ``extend_footprint`` stream, which charges
    the query's ``tick``).  Stored edges are replayed at one tick each, and the stream is advanced
    only past their end.  Yields (steps, packed last local configuration,
    visible steps), rounds counted from the node's round.
    """
    k = node.k
    key = (min(k, v + 1), init_set if k <= v else None, negated,
           node.carried)
    if key not in memo:
        memo[key] = ([], extend_footprint(
            p, node.carried, init_set, k, default_step_cap(p), tick,
            negated=negated))
    edges, stream = memo[key]
    for i in itertools.count():
        if i < len(edges):
            tick()
        else:
            nxt = next(stream, None)
            if nxt is None:
                return
            edges.append(nxt)
        yield edges[i]


def _expand(p: Protocol, node: _Node, universal: frozenset,
            init_set: frozenset, v: int, tick, edge_memo: dict,
            negated: frozenset, options: dict):
    """Children of a search node: (bridge steps, sig, next node or None).

    None as the node signals acceptance with those steps.  Per-branch
    obligations are computed once per node; per edge only the current
    round's literal test and the stop test remain, each a ``_probe`` of
    ``_join``ed bit tests.  The literal test reads round k of the edge's
    last code, and the stop test its round-(k+1) block, where
    ``extend_footprint`` leaves the destinations of the deserting
    increments at round k.
    """
    k = node.k
    block = layout(p, 0)[2](1, 0)
    # the last code counts rounds from the window's lowest, max(k - v, 0)
    up = min(k, v) * block

    # branch precomputation: (remaining E, test of the round-k literals on
    # the edge's last code or None, pending literals counted from k+1, stop
    # test on the last code shifted down to round k+1, or None)
    branches = []
    for remaining_exist, closed2 in _onestep_branches(
            p, universal, node.exist, node.closed, options):
        now = [(m << up, w << up, eq, s) for m, w, eq, s in closed2
               if not m >> block]
        test = _probe(_join(True, now)) if now else None
        pending = frozenset((m >> block, w >> block, eq, s)
                            for m, w, eq, s in closed2 if m >> block)
        stop = None
        if not remaining_exist:
            # may the execution stop at round k, leaving later rounds
            # untouched?  The pending literals and the universals, each the
            # disjunction of its forcing sets, rounds counted from k+1, on
            # the last code's blocks from round k+1 up: deserting increments
            # may already populate round k+1, everything beyond is empty and
            # registers above round k are initial.  Universals are checked
            # at round k+1 only: from round k+2 on every round reads the
            # empty tail, where each universal holds, or _refuted would have
            # dropped the candidate
            stop = _probe(_join(True, [*pending, *(
                _holds(_literal_options(p, u, options)) for u in universal)]))
        branches.append((remaining_exist, test, pending, stop))
    if not branches:
        return

    sig_round = min(k + 1, v + 1)
    n_branches = len(branches)
    for steps, last, vis in _edges_for(p, node, init_set, v, tick, negated,
                                       edge_memo):
        tick(n_branches)
        for remaining_exist, test, pending, stop in branches:
            if test is not None and not test(last):
                continue
            if stop is not None and stop(last >> up + block):
                yield steps, None, None
                continue
            sig = (sig_round, vis, remaining_exist, pending)
            yield steps, sig, _Node(k + 1, vis, remaining_exist, pending)
