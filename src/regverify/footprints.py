"""Bridge footprints for the round-based search.

A footprint is the stutter-free trace an execution leaves on a window of
rounds.  The round-by-round search of ``roundbased`` guesses one per round
k, a bridge on [k-v, k], and ``extend_footprint`` lists them: it replays
the steps carried from round k-1's bridge and interleaves new ones, on
codes of the oracle's packed layout (``oracle.layout``).  Moves outside
the window are relaxed: an increment entering from just below the window
needs no populated source, and reads from below the window carry no
register condition.  The paper's general construction, gluing any sliding
chain of window footprints, is in ``tests/lemmas.py``; the search splices
its own chain (``roundbased._glue_chain``).
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

    The inner loop runs on packed integers in that layout: the population,
    round k+1 included, and the register bank as its symbol fields, with
    the deserted locations and the pending (unjustified) writes as masks.
    Only a deserting increment reaches round k+1, and no step has its
    source there, so a step populates a location exactly when its bit is
    clear.  A bit leaves the population only by a desert, which marks it
    deserted, so a location once populated and now empty is deserted.
    """
    v = max(p.visibility or 0, 1)
    # steps confined to the round just below the carried-on window are the
    # schedule-private ones; when that round is negative nothing is private
    bottom = k - v
    base = max(k - v, 0)
    _, loc, slot, sym_mask = layout(p, v + 1)
    pop0 = 0
    if k <= v:  # round 0 is in the window, at its lowest round
        for q in initial_set:
            pop0 |= loc(q, 0)

    def compile_move(m: Move, advance: int):
        a = m.trans.action
        rnd = m.rnd + k
        in_src = base <= rnd <= k
        src_bit = loc(m.trans.source, rnd - base) if in_src else 0
        dst_bit = loc(m.trans.dest, rnd + (a.kind == INC) - base)
        read_shift = -1
        read_sym = 0
        dep_read = -1
        if a.kind == READ and in_src:
            target = rnd - a.depth
            if target < 0:
                return None  # statically disabled
            if target >= base:
                read_shift = slot(target - base, a.reg)
                read_sym = a.symbol
                if target == bottom:
                    dep_read = read_shift
        write_shift = -1
        write_sym = 0
        if a.kind == WRITE and in_src:
            write_shift = slot(rnd - base, a.reg)
            write_sym = a.symbol
        desert = m.desert and in_src
        if bottom < 0:
            private = False  # 0/False static, None dynamic (inc at bottom)
        elif a.kind == INC:
            private = True if rnd < bottom else (None if rnd == bottom
                                                 else False)
        else:
            private = rnd == bottom
        return (m, advance, src_bit, dst_bit, read_shift, read_sym,
                write_shift, write_sym, desert, private, dep_read)

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
        for m in cand:
            op = compile_move(m, 0)
            if op is not None:
                new_ops.append(op)
    tau_ops = []
    for m in carried:
        op = compile_move(Move(m.trans, m.rnd - 1, m.desert), 1)
        if op is None:
            raise ReplayFailure("carried footprint step statically disabled")
        tau_ops.append(op)
    tau_len = len(tau_ops)

    new_ops_by_pop: dict[int, list] = {}
    steps: list[Move] = []
    vis: list[Move] = []

    def options(pos: int, pop: int):
        """An iterator over the next step's options, empty at the cap."""
        if len(steps) >= step_cap:
            return iter(())
        cached = new_ops_by_pop.get(pop)
        if cached is None:
            cached = [op for op in new_ops if not op[2] or pop & op[2]]
            new_ops_by_pop[pop] = cached
        return iter([tau_ops[pos], *cached] if pos < tau_len else cached)

    # one frame per placed step: (the state after it, whether it is
    # visible, the next step's options).  The state is (pop, regs, pos,
    # deserted, pending, lp_write, lp_dst); lp_write is -1 when the last
    # step was visible, otherwise the write field shift of the trailing
    # private step (-2 when it wrote nothing); lp_dst is the destination
    # bit of a trailing private increment, or 0
    frames = [((pop0, 0, 0, 0, 0, -1, 0), False, options(0, pop0))]
    pending_ticks = 1
    if tau_len == 0:
        tick(pending_ticks)
        pending_ticks = 0
        yield (), pop0, ()
    while frames:
        (pop, regs, pos, deserted, pending, lp_write, lp_dst), _, opts = \
            frames[-1]
        for (m, advance, src_bit, dst_bit, read_shift, read_sym, write_shift,
             write_sym, desert, private, dep_read) in opts:
            # sources are populated: the fresh-move list is filtered against
            # this population, and carried steps from a chain replay (the
            # docstring's precondition)
            dyn_inc = private is None
            if dyn_inc:  # increment at the bottom round
                private = bool(pop & dst_bit)
            if lp_write != -1 and not private and not (
                    dyn_inc or dep_read == lp_write
                    or (lp_dst and desert and src_bit == lp_dst)):
                continue  # non-canonical schedule; its twin is emitted
            if read_shift >= 0 and \
                    (regs >> read_shift) & sym_mask != read_sym:
                continue
            # clear the source before setting the destination: a deserting
            # self-loop keeps its location populated
            pop2 = (pop & ~src_bit if desert else pop) | dst_bit
            regs2 = regs
            if write_shift >= 0:
                regs2 = (regs & ~(sym_mask << write_shift)) | (
                    write_sym << write_shift)
            if pop2 == pop and regs2 == regs:
                continue  # stutter: invisible inside the window
            populates = not pop & dst_bit
            if populates and deserted & dst_bit:
                continue  # repopulation after desertion
            deserted2 = deserted | src_bit if desert else deserted
            pending2 = pending
            if write_shift >= 0:
                wbit = 1 << write_shift
                if pending & wbit:
                    continue  # overwriting an unjustified write
                if not (populates or desert):
                    pending2 = pending | wbit
            if read_shift >= 0:
                pending2 = pending2 & ~(1 << read_shift)
            steps.append(m)
            if not private:
                vis.append(m)
                lp2 = -1
                lp2_dst = 0
            else:
                lp2 = write_shift if write_shift >= 0 else -2
                # a privately-placed increment stays private only while
                # its destination is populated; deserters of it depend
                lp2_dst = dst_bit if dyn_inc else 0
            pos += advance
            frames.append(((pop2, regs2, pos, deserted2, pending2, lp2,
                            lp2_dst), not private, options(pos, pop2)))
            pending_ticks += 1
            if pos == tau_len:
                tick(pending_ticks)
                pending_ticks = 0
                yield tuple(steps), pop2 | regs2, tuple(vis)
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
