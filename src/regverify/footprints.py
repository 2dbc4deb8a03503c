"""Footprint algebra for round-based protocols.

A local configuration restricts an abstract configuration to a window of
rounds; a footprint is the stutter-free trace an execution leaves on such a
window.  Moves outside the window are relaxed: an increment entering from
just below the window needs no populated source, and reads from below the
window carry no register condition.

The gluing construction rebuilds one execution from a chain of over-lapping
window footprints (windows sliding up one round at a time, consecutive
footprints agreeing on their overlap, windows at least as wide as the
visibility range).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (InconsistentProjections, NotEnabled, ReplayFailure,
                     WindowNotContained)
from .model import D0, INC, READ, ROUNDBASED, WRITE, Protocol
from .oracle import layout
from .semantics import (ABSTRACT, AbstractConfig, Execution, Move,
                        replay_configs)


@dataclass(frozen=True)
class LocalConfig:
    lo: int  # window is [max(lo, 0), hi]; lo may be negative
    hi: int
    pop: frozenset   # (state, round) with round inside the window
    regs: frozenset  # ((round, reg), symbol != d0) inside the window

    def reg_value(self, key) -> int:
        for k, val in self.regs:
            if k == key:
                return val
        return D0

    def restrict(self, lo: int, hi: int) -> "LocalConfig":
        lo_eff = max(lo, 0)
        return LocalConfig(
            lo, hi,
            frozenset(x for x in self.pop if lo_eff <= x[1] <= hi),
            frozenset(e for e in self.regs if lo_eff <= e[0][0] <= hi))


@dataclass(frozen=True)
class Footprint:
    start: LocalConfig
    steps: tuple[Move, ...]

    @property
    def lo(self) -> int:
        return self.start.lo

    @property
    def hi(self) -> int:
        return self.start.hi


def local_step(p: Protocol, lc: LocalConfig, m: Move) -> LocalConfig:
    """Successor of a local configuration under the relaxed step relation.

    Returns the (possibly unchanged) configuration; raises NotEnabled when an
    in-window precondition fails.  Effects outside the window are dropped.
    """
    a = m.trans.action
    rnd = m.rnd
    lo_eff = lc.lo if lc.lo > 0 else 0
    hi = lc.hi
    src = (m.trans.source, rnd)
    inc = a.kind == INC
    dst_round = rnd + 1 if inc else rnd
    dst = (m.trans.dest, dst_round)
    in_window_src = lo_eff <= rnd <= hi
    if in_window_src:
        if src not in lc.pop:
            raise NotEnabled(f"source {src} empty in window")
        if a.kind == READ:
            target = rnd - a.depth
            if target < 0:
                raise NotEnabled(f"depth underflow at round {rnd}")
            if target >= lo_eff and lc.reg_value((target, a.reg)) != a.symbol:
                raise NotEnabled(f"register mismatch at round {target}")
    pop = lc.pop
    if m.desert and in_window_src:
        pop = pop - {src}
    if lo_eff <= dst_round <= hi:
        pop = pop | {dst}
    regs = lc.regs
    if a.kind == WRITE and in_window_src:
        key = (rnd, a.reg)
        regs = frozenset(e for e in regs if e[0] != key)
        if a.symbol != D0:
            regs = regs | {(key, a.symbol)}
    return LocalConfig(lc.lo, lc.hi, pop, regs)


def footprint_configs(p: Protocol, fp: Footprint) -> list[LocalConfig]:
    """Replay a footprint; every step must change the local configuration."""
    out = [fp.start]
    for i, m in enumerate(fp.steps):
        try:
            nxt = local_step(p, out[-1], m)
        except NotEnabled as e:
            raise ReplayFailure(f"footprint step {i} not enabled: {e.reason}")
        if nxt == out[-1]:
            raise ReplayFailure(f"footprint step {i} stutters")
        out.append(nxt)
    return out


def execution_to_footprint(p: Protocol, exec: Execution) -> Footprint:
    """View an abstract execution as a footprint on a window covering it."""
    configs = replay_configs(p, exec, ABSTRACT)
    hi = 0
    for c in configs:
        for _, k in c.pop:
            hi = max(hi, k)
        for (k, _), _ in c.regs:
            hi = max(hi, k)
    start = LocalConfig(0, hi, exec.start.pop, exec.start.regs)
    steps = []
    cur = start
    for i, m in enumerate(exec.moves):
        nxt = LocalConfig(0, hi, configs[i + 1].pop, configs[i + 1].regs)
        if nxt != cur:
            steps.append(m)
            cur = nxt
    return Footprint(start, tuple(steps))


def project_footprint(p: Protocol, src, j: int, k: int) -> Footprint:
    """Restrict a footprint (or an abstract execution) to rounds [j, k].

    Each configuration is replaced by its restriction, then steps that no
    longer change anything are merged away.
    """
    if isinstance(src, Execution):
        src = execution_to_footprint(p, src)
        lo2, hi2 = min(src.lo, j), max(src.hi, k)
        if (lo2, hi2) != (src.lo, src.hi):
            src = Footprint(LocalConfig(lo2, hi2, src.start.pop,
                                        src.start.regs), src.steps)
    if not (src.lo <= j and k <= src.hi):
        raise WindowNotContained(
            f"[{j}, {k}] not inside [{src.lo}, {src.hi}]")
    configs = footprint_configs(p, src)
    start = configs[0].restrict(j, k)
    steps = []
    cur = start
    for i, m in enumerate(src.steps):
        nxt = configs[i + 1].restrict(j, k)
        if nxt != cur:
            steps.append(m)
            cur = nxt
    return Footprint(start, tuple(steps))


def footprint_to_execution(p: Protocol, fp: Footprint) -> Execution:
    """Read a window-covering footprint (lo <= 0) back as an execution."""
    if max(fp.lo, 0) != 0:
        raise WindowNotContained("footprint window must reach round 0")
    start = AbstractConfig(fp.start.pop, fp.start.regs)
    exec = Execution(start, fp.steps)
    try:
        replay_configs(p, exec, ABSTRACT)
    except NotEnabled as e:
        raise ReplayFailure(f"glued execution does not replay: {e}")
    return exec


def merge_pair(p: Protocol, fm: Footprint, fp: Footprint,
               visibility: int) -> Footprint:
    """Merge footprints on [a, b] and [a+1, b+1] into one on [a, b+1].

    Requires window width >= visibility and agreeing projections on the
    common rounds [a+1, b].  Steps visible on the overlap anchor the merge;
    between two anchors the lower footprint's private steps (round a only)
    commute before the upper one's (round b+1 only).
    """
    if fm.lo + 1 != fp.lo or fm.hi + 1 != fp.hi:
        raise InconsistentProjections(
            f"windows [{fm.lo},{fm.hi}] and [{fp.lo},{fp.hi}] do not slide")
    if fm.hi - fm.lo < visibility:
        raise InconsistentProjections(
            f"window width {fm.hi - fm.lo} below visibility {visibility}")
    com_lo, com_hi = fp.lo, fm.hi
    com_m = project_footprint(p, fm, com_lo, com_hi)
    com_p = project_footprint(p, fp, com_lo, com_hi)
    if com_m != com_p:
        raise InconsistentProjections(
            "overlapping projections disagree on the common window")

    def segments(fpr: Footprint):
        configs = footprint_configs(p, fpr)
        segs: list[list[Move]] = [[]]
        cur = configs[0].restrict(com_lo, com_hi)
        for i, m in enumerate(fpr.steps):
            nxt = configs[i + 1].restrict(com_lo, com_hi)
            if nxt != cur:
                segs.append([])
                cur = nxt
            else:
                segs[-1].append(m)
        return segs

    segs_m = segments(fm)
    segs_p = segments(fp)
    anchors = com_m.steps
    assert len(segs_m) == len(segs_p) == len(anchors) + 1
    steps: list[Move] = []
    for i in range(len(anchors) + 1):
        steps.extend(segs_m[i])
        steps.extend(segs_p[i])
        if i < len(anchors):
            steps.append(anchors[i])
    start = LocalConfig(fm.lo, fp.hi,
                        fm.start.pop | fp.start.pop,
                        fm.start.regs | fp.start.regs)
    merged = Footprint(start, tuple(steps))
    try:
        footprint_configs(p, merged)
    except ReplayFailure as e:
        raise InconsistentProjections(f"merged footprint invalid: {e}")
    return merged


def merge_chain(p: Protocol, fps: list[Footprint],
                visibility: int) -> Footprint:
    """Fold a sliding chain of footprints into one wide footprint."""
    cur = list(fps)
    if not cur:
        raise InconsistentProjections("nothing to merge")
    while len(cur) > 1:
        cur = [merge_pair(p, cur[i], cur[i + 1], visibility)
               for i in range(len(cur) - 1)]
    return cur[0]


def combine_footprints(p: Protocol, taus: list[Footprint],
                       bridges: list[Footprint]) -> Execution:
    """Glue per-round footprints into one execution.

    ``taus[k]`` lives on rounds [k-v+1, k], ``bridges[k]`` on [k-v+1, k+1],
    with the bridge projecting to ``taus[k]`` below and ``taus[k+1]`` above
    (v is the visibility range, at least 1 for windowing purposes).  The
    result projects back to every ``taus[k]`` exactly.
    """
    if p.flavor != ROUNDBASED:
        raise InconsistentProjections("gluing needs a round-based protocol")
    v = max(p.visibility or 0, 1)
    K = len(taus) - 1
    if len(bridges) != K:
        raise InconsistentProjections(
            f"need {K} bridging footprints, got {len(bridges)}")
    for k, tau in enumerate(taus):
        if (tau.lo, tau.hi) != (k - v + 1, k):
            raise InconsistentProjections(
                f"footprint {k} has window [{tau.lo},{tau.hi}], "
                f"expected [{k - v + 1},{k}]")
    for k, br in enumerate(bridges):
        if (br.lo, br.hi) != (k - v + 1, k + 1):
            raise InconsistentProjections(
                f"bridge {k} has window [{br.lo},{br.hi}], "
                f"expected [{k - v + 1},{k + 1}]")
        if project_footprint(p, br, k - v + 1, k) != taus[k]:
            raise InconsistentProjections(
                f"bridge {k} does not project to footprint {k}")
        if project_footprint(p, br, k - v + 2, k + 1) != taus[k + 1]:
            raise InconsistentProjections(
                f"bridge {k} does not project to footprint {k + 1}")
    merged = taus[0] if K == 0 else merge_chain(p, bridges, v)
    exec = footprint_to_execution(p, merged)
    for k, tau in enumerate(taus):
        if project_footprint(p, exec, k - v + 1, k) != tau:
            raise InconsistentProjections(
                f"glued execution does not project to footprint {k}")
    return exec


# --- bridge footprint enumeration ------------------------------------------------

def default_step_cap(p: Protocol) -> int:
    """Footprint length cap from the normal-form bound: (v+1)|Q|(2v+5)."""
    v = max(p.visibility or 0, 1)
    return (v + 1) * p.num_states * (2 * v + 5)


def bridge_start(initial_set, lo: int, hi: int) -> LocalConfig:
    """The initial configuration restricted to rounds [lo, hi].

    Every bridge footprint of the round-by-round search starts here: by
    induction from the empty footprint below round 0, each carried start is
    the initial one, the initial set at round 0 and every register at d0.
    """
    pop = frozenset((q, 0) for q in initial_set) if lo <= 0 <= hi else \
        frozenset()
    return LocalConfig(lo, hi, pop, frozenset())


def extend_footprint(p: Protocol, carried: tuple, initial_set, k: int,
                     step_cap: int, tick, canonical: bool = True,
                     negated=None):
    """All footprints on [k-v, k] from ``bridge_start`` projecting down to
    the carried steps on [k-v, k-1], whose rounds count from k-1.

    New steps are moves at round k and non-deserting increments arriving
    from round k-1, restricted to interleavings a normal-form execution can
    produce: no repopulating a deserted location, non-deserting
    reads/increments must populate a location never populated before, and
    an unjustified write is never overwritten.  ``tick(n)`` charges the
    enumeration's work: one for the start and one per step placed.  As in
    ``oracle.packed``, with a set of states ``negated`` only a move whose
    source is in it may desert; with None every source may.

    With ``canonical``, carried steps confined to the bottom round (invisible
    one window up) are deferred maximally: a visible move never directly
    follows a private one it does not depend on.  Each schedule class then
    appears once, always with the same projection onto [k-v+1, k].

    Yields (steps, last local configuration, visible steps), both step
    tuples with rounds counted from k: the visible steps are what round k+1
    carries, unshifted.  The last configuration is one code of
    ``oracle.layout(p, v)`` with rounds counted from the window's lowest
    round, ``max(k-v, 0)``.

    The inner loop runs on packed integers in that layout: population and
    ever-populated / deserted / pending-write flags as bitmasks over window
    locations, the register bank as its symbol fields.
    """
    v = max(p.visibility or 0, 1)
    # steps confined to the round just below the carried-on window are the
    # schedule-private ones; when that round is negative nothing is private
    bottom = k - v
    base = max(k - v, 0)
    _, loc, slot, sym_mask = layout(p, v)
    pop0 = 0
    for q, r in bridge_start(initial_set, k - v, k).pop:
        pop0 |= loc(q, r - base)

    def compile_move(m: Move, advance: int):
        a = m.trans.action
        rnd = m.rnd + k
        in_src = base <= rnd <= k
        src_bit = loc(m.trans.source, rnd - base) if in_src else 0
        dst_round = rnd + 1 if a.kind == INC else rnd
        dst_bit = (loc(m.trans.dest, dst_round - base)
                   if base <= dst_round <= k else 0)
        guard_dst_bit = (loc(m.trans.dest, dst_round - base)
                         if base <= dst_round <= k + 1 else 0)
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
        if not canonical or bottom < 0:
            private = False  # 0/False static, None dynamic (inc at bottom)
        elif a.kind == INC:
            private = True if rnd < bottom else (None if rnd == bottom
                                                 else False)
        else:
            private = rnd == bottom
        dep_always = rnd == bottom
        nondesert_popcheck = a.kind in (READ, INC) and not m.desert
        return (m, advance, src_bit, dst_bit, guard_dst_bit, read_shift,
                read_sym, write_shift, write_sym, desert, private,
                dep_always, dep_read, nondesert_popcheck)

    new_ops = []
    for t in p.transitions:
        may_desert = negated is None or t.source in negated
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

    guard0 = (pop0, 0, 0)  # ever populated, ever deserted, pending writes
    new_ops_by_pop: dict[int, list] = {}

    # one explicit frame per emitted step:
    # [pop, regs, popnext, pos, guard, lp_write, option index, pushed_vis]
    # lp_write: -1 when the last step was visible; otherwise the write
    # field shift of the trailing private step (-2 when it wrote nothing)
    steps: list[Move] = []
    vis: list[Move] = []

    def option_list(pos: int, pop: int) -> list:
        cached = new_ops_by_pop.get(pop)
        if cached is None:
            cached = [op for op in new_ops if not op[2] or pop & op[2]]
            new_ops_by_pop[pop] = cached
        if pos < tau_len:
            return [tau_ops[pos]] + cached
        return cached

    frames = [[pop0, 0, 0, 0, guard0, -1,
               option_list(0, pop0), 0, False, 0]]
    pending_ticks = 1
    if tau_len == 0:
        tick(pending_ticks)
        pending_ticks = 0
        yield (), pop0, ()
    while frames:
        frame = frames[-1]
        pop, regs, popnext, pos, guard, lp_write = frame[:6]
        lp_dst = frame[9]
        options = frame[6]
        n = len(options) if len(steps) < step_cap else 0
        i = frame[7]
        child = None
        while i < n:
            op = options[i]
            i += 1
            # sources are guaranteed populated: carried steps replay and
            # the fresh-move list is filtered against this population
            private = op[10]
            dyn_inc = private is None
            if dyn_inc:  # increment at the bottom round
                private = bool(pop & op[3])
            if lp_write != -1 and not private and not (
                    op[11] or op[12] == lp_write
                    or (lp_dst and op[9] and op[2] == lp_dst)):
                continue  # non-canonical schedule; its twin is emitted
            read_shift = op[5]
            if read_shift >= 0 and \
                    (regs >> read_shift) & sym_mask != op[6]:
                continue
            (m, advance, src_bit, dst_bit, guard_dst_bit, read_shift,
             read_sym, write_shift, write_sym, desert, _private,
             dep_always, dep_read, nondesert_popcheck) = op
            pop2 = pop
            popnext2 = popnext
            if desert:
                pop2 &= ~src_bit
            if dst_bit:
                pop2 |= dst_bit
            elif guard_dst_bit and desert:
                popnext2 |= guard_dst_bit
            regs2 = regs
            if write_shift >= 0:
                regs2 = (regs & ~(sym_mask << write_shift)) | (
                    write_sym << write_shift)
            if pop2 == pop and regs2 == regs:
                continue  # stutter: invisible inside the window
            popever, desertever, pending = guard
            if dst_bit:
                now = pop & dst_bit
            elif guard_dst_bit:
                now = popnext & guard_dst_bit
            else:
                now = 1
            populates = not now
            if populates:
                if desertever & guard_dst_bit:
                    continue  # repopulation after desertion
                if nondesert_popcheck and popever & guard_dst_bit:
                    continue  # must cover a fresh location
                popever = popever | guard_dst_bit
            if desert:
                desertever = desertever | src_bit
            if write_shift >= 0:
                wbit = 1 << write_shift
                if pending & wbit:
                    continue  # overwriting an unjustified write
                if not (populates or desert):
                    pending = pending | wbit
            if read_shift >= 0:
                pending = pending & ~(1 << read_shift)
            g2 = (popever, desertever, pending)
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
            child = [pop2, regs2, popnext2, pos + advance, g2, lp2,
                     option_list(pos + advance, pop2), 0, not private,
                     lp2_dst]
            break
        frame[7] = i
        if child is None:
            frames.pop()
            if frames:
                steps.pop()
                if frame[8]:
                    vis.pop()
            elif pending_ticks:
                tick(pending_ticks)
                pending_ticks = 0
            continue
        frames.append(child)
        pending_ticks += 1
        if child[3] == tau_len:
            tick(pending_ticks)
            pending_ticks = 0
            yield tuple(steps), child[0] | child[1], tuple(vis)
        elif pending_ticks >= 512:
            tick(pending_ticks)
            pending_ticks = 0

