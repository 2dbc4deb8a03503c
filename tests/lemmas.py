"""Constructions from the paper's proofs that no route or CLI verb runs.

They check the lemmas the solvers rely on: the normal form of round-based
executions and its per-round step bound, the gluing of a sliding chain of
window footprints into one execution (which ``roundbased._glue_chain``
specializes to a splice of the chain its search accepts), the copycat
construction and the realization of abstract executions by concrete ones,
the COVER-to-TARGET joker reduction, and the reading of a DNF clause as
final-configuration obligations.
"""

from dataclasses import dataclass

from regverify.constraints import (ClauseDecomposition, _collect_leaves,
                                   _is_quantifier_or_atom)
from regverify.errors import (EmptySupport, NotEnabled, NotInitialState,
                              RegverifyError, ReplayFailure)
from regverify.model import (D0, INC, READ, ROUNDBASED, ROUNDLESS, WRITE,
                             Action, Protocol, Transition)
from regverify.semantics import (ABSTRACT, CONCRETE, AbstractConfig,
                                 ConcreteConfig, Execution, Move,
                                 concrete_step, move_dest, move_source,
                                 mset_add, mset_count, multiset, reg_get,
                                 replay, replay_configs)


class TargetNotPopulated(RegverifyError):
    """Copycat extension target is absent from the final configuration."""


class WindowNotContained(RegverifyError):
    """Footprint projection target window is not inside the source window."""


class InconsistentProjections(RegverifyError):
    """Footprints cannot be glued: overlapping projections disagree."""


# --- execution normal form ------------------------------------------------------

def _reads_key(m: Move):
    a = m.trans.action
    if a.kind != READ:
        return None
    return (m.rnd - a.depth, a.reg)


def _writes_key(m: Move):
    a = m.trans.action
    if a.kind != WRITE:
        return None
    return (m.rnd, a.reg)


def normalize_execution(p: Protocol, exec: Execution) -> Execution:
    """Rewrite an abstract execution into normal form.

    Iteratively: drop non-deserting reads/increments that change nothing,
    drop non-deserting writes that neither populate nor are ever read before
    being overwritten (final register values stay), and make non-deserting
    any desertion whose location is populated again later.  Start and end
    configurations are preserved.
    """
    moves = list(exec.moves)
    while True:
        configs = replay_configs(p, Execution(exec.start, tuple(moves)),
                                 ABSTRACT)
        action = None
        for i, m in enumerate(moves):
            kind = m.trans.action.kind
            src = (m.trans.source, m.rnd)
            if m.desert:
                if any(src in configs[j].pop
                       for j in range(i + 1, len(configs))):
                    action = ("flip", i)
                    break
                continue
            if configs[i + 1] == configs[i]:
                action = ("drop", i)
                break
            if kind == WRITE and configs[i + 1].pop == configs[i].pop:
                key = (m.rnd, m.trans.action.reg)
                needed = False
                overwritten = False
                for j in range(i + 1, len(moves)):
                    if _reads_key(moves[j]) == key:
                        needed = True
                        break
                    if _writes_key(moves[j]) == key:
                        overwritten = True
                        break
                if not needed and overwritten:
                    action = ("drop", i)
                    break
        if action is None:
            final = replay_configs(p, Execution(exec.start, tuple(moves)),
                                   ABSTRACT)[-1]
            orig = replay_configs(p, exec, ABSTRACT)[-1]
            if final != orig:
                raise ReplayFailure("normalization changed the endpoint")
            return Execution(exec.start, tuple(moves))
        op, i = action
        if op == "drop":
            del moves[i]
        else:
            moves[i] = Move(moves[i].trans, moves[i].rnd, False)


def normal_form_violations(p: Protocol, exec: Execution) -> list[str]:
    """Check the three per-step normal-form conditions; empty when normal.

    A step passes when it deserts its source, populates a never-before
    populated location, or writes a symbol that is read before the next
    write to the same register (or is that register's final value).
    """
    configs = replay_configs(p, exec, ABSTRACT)
    out = []
    ever: set = set(exec.start.pop)
    for i, m in enumerate(exec.moves):
        a = m.trans.action
        dst_round = m.rnd + 1 if a.kind == INC else m.rnd
        dst = (m.trans.dest, dst_round)
        ok = False
        if m.desert:
            ok = True
        elif dst not in ever:
            ok = True
        elif a.kind == WRITE:
            key = (m.rnd, a.reg)
            later_write = False
            for j in range(i + 1, len(exec.moves)):
                if _reads_key(exec.moves[j]) == key:
                    ok = True
                    break
                if _writes_key(exec.moves[j]) == key:
                    later_write = True
                    break
            if not later_write and not ok:
                ok = True  # final value of the register
        if not ok:
            out.append(f"step {i} ({a.kind} at round {m.rnd}) is not justified")
        if dst not in configs[i].pop:
            ever.add(dst)
    return out


def per_round_step_counts(exec: Execution) -> dict[int, int]:
    counts: dict[int, int] = {}
    for m in exec.moves:
        counts[m.rnd] = counts.get(m.rnd, 0) + 1
    return counts


def normal_form_round_bound(p: Protocol) -> int:
    """Per-round step bound for normal-form executions: |Q| * (2v + 5)."""
    return p.num_states * (2 * (p.visibility or 0) + 5)


def locations_deserted_more_than_once(p: Protocol, exec: Execution) -> list:
    seen: dict = {}
    for m in exec.moves:
        if m.desert:
            src = (m.trans.source, m.rnd)
            seen[src] = seen.get(src, 0) + 1
    return [loc for loc, n in seen.items() if n > 1]


# --- footprints and gluing -------------------------------------------------------
#
# A local configuration restricts an abstract configuration to a window of
# rounds; a footprint is the stutter-free trace an execution leaves on such a
# window.  Moves outside the window are relaxed: an increment entering from
# just below the window needs no populated source, and reads from below the
# window carry no register condition.  The gluing construction rebuilds one
# execution from a chain of over-lapping window footprints (windows sliding
# up one round at a time, consecutive footprints agreeing on their overlap,
# windows at least as wide as the visibility range).

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


def bridge_start(initial_set, lo: int, hi: int) -> LocalConfig:
    """The initial configuration restricted to rounds [lo, hi].

    Every bridge footprint of the round-by-round search starts here: by
    induction from the empty footprint below round 0, each carried start is
    the initial one, the initial set at round 0 and every register at d0.
    """
    pop = frozenset((q, 0) for q in initial_set) if lo <= 0 <= hi else \
        frozenset()
    return LocalConfig(lo, hi, pop, frozenset())


def glue_bridge_chain(p: Protocol, chain: list[tuple],
                      init_set) -> Execution:
    """Glue a chain of bridge steps accepted by the round-by-round search.

    ``chain[k]`` is round k's bridge on [k-v, k], rounds counted from k, as
    ``footprints.extend_footprint`` yields it.  The bridges are read as
    absolute footprints from ``bridge_start``, projected to the sliding
    windows, and glued by ``combine_footprints``.
    """
    v = max(p.visibility or 0, 1)
    fps = [Footprint(bridge_start(init_set, k - v, k),
                     tuple(Move(m.trans, m.rnd + k, m.desert) for m in steps))
           for k, steps in enumerate(chain)]
    taus = [project_footprint(p, T, k - v + 1, k) for k, T in enumerate(fps)]
    bridges = [project_footprint(p, fps[k + 1], k - v + 1, k + 1)
               for k in range(len(fps) - 1)]
    return combine_footprints(p, taus, bridges)


# --- copycat and realization ------------------------------------------------------

def concrete_initial(p: Protocol, counts: dict) -> ConcreteConfig:
    """Concrete initial configuration from a state -> multiplicity map."""
    if not counts or all(n == 0 for n in counts.values()):
        raise EmptySupport("at least one process required")
    bad = set(counts) - p.initial_states
    if bad:
        raise NotInitialState(f"not initial: {sorted(bad)}")
    pop = tuple(sorted(((q, 0), n) for q, n in counts.items() if n > 0))
    return ConcreteConfig(pop, frozenset())


def copycat_extend(p: Protocol, exec: Execution, target) -> Execution:
    """Add one process retracing another's path to ``target``.

    ``exec`` is concrete and the location ``target`` must be populated in
    its final configuration.  The result replays from the start population
    plus one process on some initial support member, and ends at the final
    population plus one process on ``target`` with identical register
    values.
    """
    configs = replay_configs(p, exec, CONCRETE)
    if mset_count(configs[-1].pop, target) == 0:
        raise TargetNotPopulated(f"{target} not populated at the end")
    tracked = target
    dup = [False] * len(exec.moves)
    for i in reversed(range(len(exec.moves))):
        m = exec.moves[i]
        if tracked == move_dest(m):
            dup[i] = True
            tracked = move_source(m)
    new_start = ConcreteConfig(mset_add(exec.start.pop, tracked, +1),
                               exec.start.regs)
    moves: list[Move] = []
    for i, m in enumerate(exec.moves):
        moves.append(m)
        if dup[i]:
            moves.append(m)
    return Execution(new_start, tuple(moves))


def abstract_to_concrete(p: Protocol, exec: Execution) -> Execution:
    """Realize an abstract execution concretely.

    Processes are duplicated (via the copycat construction) only when a
    non-deserting step would otherwise drain a support member that the
    abstract configuration keeps populated; deserting steps move every
    process off the source.
    """
    try:
        replay(p, exec, ABSTRACT)
    except NotEnabled as e:
        raise ReplayFailure(f"abstract execution does not replay: {e}")
    start_elems = sorted(exec.start.pop)
    cur_start = ConcreteConfig(multiset(start_elems), exec.start.regs)
    cur_moves: list[Move] = []
    cur = cur_start
    for m in exec.moves:
        src = move_source(m)
        if m.desert:
            for _ in range(mset_count(cur.pop, src)):
                cur_moves.append(m)
                cur = concrete_step(p, cur, m)
        else:
            if mset_count(cur.pop, src) == 1:
                ext = copycat_extend(p, Execution(cur_start, tuple(cur_moves)),
                                     src)
                cur_start = ext.start
                cur_moves = list(ext.moves)
                cur = replay(p, Execution(cur_start, tuple(cur_moves)),
                             CONCRETE)
            cur_moves.append(m)
            cur = concrete_step(p, cur, m)
    return Execution(cur_start, tuple(cur_moves))


# --- reductions and constraint readings ------------------------------------------

def reduce_cover_to_target(p: Protocol, error: int) -> tuple[Protocol, int]:
    """Joker reduction: coverability of ``error`` becomes synchronization.

    Adds a fresh joker symbol, a write-joker self-loop on the error state and
    a read-joker edge from every state to it, so that once the error state is
    reached everybody can be pulled in.
    """
    if p.flavor != ROUNDLESS:
        raise ValueError("needs a roundless protocol")
    joker = "joker"
    while joker in p.symbol_names:
        joker += "_"
    symbols = p.symbol_names + (joker,)
    jid = len(symbols) - 1
    extra = [Transition(error, Action(WRITE, reg=0, symbol=jid), error)]
    for q in range(p.num_states):
        extra.append(Transition(q, Action(READ, reg=0, symbol=jid), error))
    p2 = Protocol(flavor=ROUNDLESS, state_names=p.state_names,
                  initial_states=p.initial_states,
                  register_count=p.register_count, symbol_names=symbols,
                  transitions=p.transitions + tuple(extra))
    return p2, error


def apc_leaves(psi) -> list:
    """The leaves of ``decompose_apcs``: quantifiers, and the atoms outside
    them, in declaration order."""
    out: list = []
    _collect_leaves(psi, _is_quantifier_or_atom, out)
    return out


def clause_holds(dec: ClauseDecomposition, c: AbstractConfig) -> bool:
    """Whether a roundless configuration meets a clause."""
    S = {q for q, _ in c.pop}
    return (dec.q_plus <= S
            and not (dec.q_minus & S)
            and all(reg_get(c.regs, (0, j)) in ok
                    for j, ok in enumerate(dec.d_ok)))
