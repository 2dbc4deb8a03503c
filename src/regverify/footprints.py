"""Bridge footprints for the round-based search.

A footprint is the stutter-free trace an execution leaves on a window of
rounds.  The round-by-round search of ``roundbased`` guesses one per round
k, a bridge on [k-v, k], and ``extend_footprint`` lists them: it replays
the steps carried from round k-1's bridge and interleaves new ones,
stepping one code of the oracle's packed layout (``oracle.layout``) as
``oracle.bfs`` does, with a marks code and a trailing-step mask beside it.
Moves outside the window are relaxed: an increment entering from just
below the window needs no populated source, and reads from below the
window carry no register condition.  The paper's general construction,
gluing any sliding chain of window footprints, is in ``tests/lemmas.py``;
the search splices its own chain (``roundbased._glue_chain``).
"""

from __future__ import annotations

from .errors import ReplayFailure
from .model import INC, READ, WRITE, Protocol
from .oracle import layout
from .semantics import Move


def default_step_cap(p: Protocol) -> int:
    """Bridge length cap from the normal-form bound: (v+1)|Q|(2v+5)."""
    v = max(p.visibility or 0, 1)
    return (v + 1) * p.num_states * (2 * v + 5)


def extend_footprint(p: Protocol, carried: tuple, initial_set, k: int,
                     step_cap: int, tick, negated):
    """The footprints on [k-v, k] from the initial configuration on that
    window projecting down to the carried steps on [k-v, k-1] (the visible
    steps of round k-1's bridge), whose rounds count from k-1.

    That start is the initial set at round 0 when the window holds round 0,
    and nothing else, every register at d0.  It is every bridge's start, by
    induction from the empty footprint below round 0: round k-1's bridge
    started at the initial configuration on [k-v-1, k-1], so the carried
    steps start at its restriction to [k-v, k-1], and round k holds what
    the initial configuration puts there.

    New steps are moves at round k and non-deserting increments arriving
    from round k-1, restricted to interleavings a normal-form execution can
    produce: no repopulating a deserted location, and an unjustified write
    is never overwritten.  ``tick(n)`` charges the enumeration's work: one
    for the start and one per step placed.  As in ``oracle.packed``, only a
    move whose source is in the set of states ``negated`` may desert.

    One schedule per class: steps confined to the bottom round (invisible
    one window up) are deferred maximally, so that a visible move never
    directly follows a private one it does not depend on.  The projections
    onto [k-v+1, k] are then exactly those of all schedules, which
    ``tests/reference.py``'s ``bridge_footprints`` lists.

    Precondition: the carried steps are the visible steps of a bridge this
    function yielded for round k-1, as in a chain of bridges, which is all
    the search passes.  A carried step whose source is in the window then
    finds it populated; this is not checked.  On such a tuple the stream,
    ticks included and rounds counted from k, is the same at every round
    from v+1 on at which a chain carries it, so the search shares the
    stream of the first such round that reaches it with the later ones.

    Yields (steps, last local configuration, visible steps), both step
    tuples with rounds counted from k: the visible steps are what round k+1
    carries, unshifted.  The last configuration is one code of
    ``oracle.layout(p, v + 1)`` with rounds counted from the window's
    lowest round, ``max(k-v, 0)``: the window, and above it round k+1's
    population, the destinations of the deserting increments at round k
    (all of them visible), with every register there initial.

    The walk steps one code of that layout, population and registers
    together, as ``oracle.bfs`` does: each move compiles to a read test
    ``code & mask == want`` and an update ``code & keep | add``, and a code
    it leaves unchanged is a stutter.  ``marks`` holds the deserted
    locations' bits and the pending (unjustified) writes' fields; ``trail``
    is None after a visible step, else what the trailing private step set
    that a later one may depend on: its write field, or its destination if
    it is an increment at the bottom round.  Only a deserting increment
    reaches round k+1, and no step has its source there, so a step
    populates a location exactly when its bit is clear.  A bit leaves the
    population only by a desert, which marks it deserted, so a location
    once populated and now empty is deserted.
    """
    v = max(p.visibility or 0, 1)
    # steps confined to the round just below the carried-on window are the
    # schedule-private ones; when that round is negative nothing is private
    bottom = k - v
    base = max(k - v, 0)
    _, loc, slot, sym_mask = layout(p, v + 1)
    # round 0 is in the window while k <= v, at its lowest round
    code0 = sum(loc(q, 0) for q in initial_set) if k <= v else 0

    def compile_move(m: Move, advance: int):
        a = m.trans.action
        rnd = m.rnd + k
        in_src = base <= rnd <= k
        src = loc(m.trans.source, rnd - base) if in_src else 0
        dst = loc(m.trans.dest, rnd + (a.kind == INC) - base)
        mask = want = field = add = 0
        if a.kind == READ and in_src:
            target = rnd - a.depth
            if target < 0:
                return None  # statically disabled
            if target >= base:
                at = slot(target - base, a.reg)
                mask, want = sym_mask << at, a.symbol << at
        elif a.kind == WRITE and in_src:
            at = slot(rnd - base, a.reg)
            field, add = sym_mask << at, a.symbol << at
        dsrc = src if m.desert else 0
        if bottom < 0:
            private = False  # 0/False static, None dynamic (inc at bottom)
        elif a.kind == INC:
            private = True if rnd < bottom else (None if rnd == bottom
                                                 else False)
        else:
            private = rnd == bottom
        return (m, advance, src, dst, mask, want, ~(field | dsrc), add | dst,
                field, dsrc, private)

    new_ops = []
    for t in p.transitions:
        may_desert = t.source in negated
        if t.action.kind == INC:
            cand = [Move(t, 0, True)] if may_desert else []
            if k >= 1:
                cand.append(Move(t, -1, False))
        else:
            cand = [Move(t, 0, False)]
            if may_desert:
                cand.append(Move(t, 0, True))
        new_ops += filter(None, (compile_move(m, 0) for m in cand))
    tau_ops = [compile_move(Move(m.trans, m.rnd - 1, m.desert), 1)
               for m in carried]
    if None in tau_ops:
        raise ReplayFailure("carried footprint step statically disabled")
    tau_len = len(tau_ops)

    srcs = sum({op[2] for op in new_ops})  # what the fresh options depend on
    new_ops_by_pop: dict[int, list] = {}
    steps: list[Move] = []
    vis: list[Move] = []

    def options(pos: int, code: int):
        """An iterator over the next step's options, empty at the cap."""
        if len(steps) >= step_cap:
            return iter(())
        pop = code & srcs
        cached = new_ops_by_pop.get(pop)
        if cached is None:
            cached = [op for op in new_ops if not op[2] or pop & op[2]]
            new_ops_by_pop[pop] = cached
        return iter([tau_ops[pos], *cached] if pos < tau_len else cached)

    # one frame per placed step: (the state after it, whether it is
    # visible, the next step's options); the state is (code, pos, marks,
    # trail)
    frames = [((code0, 0, 0, None), False, options(0, code0))]
    pending_ticks = 1
    if tau_len == 0:
        tick(pending_ticks)
        pending_ticks = 0
        yield (), code0, ()
    while frames:
        (code, pos, marks, trail), _, opts = frames[-1]
        for (m, advance, _, dst, mask, want, keep, add, field, dsrc,
             private) in opts:
            # sources are populated: the fresh-move list is filtered against
            # this population, and carried steps from a chain replay (the
            # docstring's precondition)
            dyn_inc = private is None
            if dyn_inc:  # increment at the bottom round
                private = bool(code & dst)
            # a visible step follows a private one only if it depends on
            # it: it reads the private write's field (at the bottom round,
            # so only a read of that round can) or deserts the location a
            # bottom-round increment populated
            if trail is not None and not private and not (
                    dyn_inc or (mask | dsrc) & trail):
                continue  # non-canonical schedule; its twin is emitted
            if code & mask != want:
                continue
            # the source is cleared before the destination is set: a
            # deserting self-loop keeps its location populated
            code2 = code & keep | add
            populates = not code & dst
            if code2 == code or populates and marks & dst or marks & field:
                # a stutter, repopulating a deserted location, or
                # overwriting an unjustified write
                continue
            # a read justifies the field it reads, and a write that neither
            # populates nor deserts is pending until one does
            marks2 = marks & ~mask | dsrc
            if not (populates or dsrc):
                marks2 |= field
            steps.append(m)
            if private:
                trail2 = dst if dyn_inc else field
            else:
                vis.append(m)
                trail2 = None
            pos += advance
            frames.append(((code2, pos, marks2, trail2), not private,
                           options(pos, code2)))
            pending_ticks += 1
            if pos == tau_len:
                tick(pending_ticks)
                pending_ticks = 0
                yield tuple(steps), code2, tuple(vis)
            elif pending_ticks >= 512:
                tick(pending_ticks)
                pending_ticks = 0
            break
        else:
            _, visible, _ = frames.pop()
            if frames:
                steps.pop()
                if visible:
                    vis.pop()
            elif pending_ticks:
                tick(pending_ticks)
