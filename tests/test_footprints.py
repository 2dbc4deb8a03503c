"""Footprint algebra tests: local steps, projections, gluing, normal form."""

import itertools
import math
import random

import pytest

from regverify import roundbased
from regverify.constraints import parse_round_constraint
from regverify.errors import NotEnabled, ReplayFailure
from regverify.footprints import extend_footprint
from regverify.model import INC, READ, parse_protocol
from regverify.oracle import layout
from regverify.reductions import builtin_examples
from regverify.semantics import (ABSTRACT, Execution, Move,
                                 initial_configuration, replay, write_trace)

from generators import random_rb_constraint, random_rb_protocol
from lemmas import (Footprint, InconsistentProjections, LocalConfig,
                    WindowNotContained, bridge_start, combine_footprints,
                    footprint_configs, glue_bridge_chain, local_step,
                    locations_deserted_more_than_once, normal_form_round_bound,
                    normal_form_violations, normalize_execution,
                    per_round_step_counts, project_footprint)
from reference import bridge_footprints, footprint_verdict, packed_window

PROTOCOLS, CONSTRAINTS = builtin_examples()
FIG4 = PROTOCOLS["fig4"]


def fig4_trans(src, kind, dest, symbol=None):
    for t in FIG4.transitions:
        if (FIG4.state_names[t.source] == src and t.action.kind == kind
                and FIG4.state_names[t.dest] == dest
                and (symbol is None
                     or FIG4.symbol_names[t.action.symbol] == symbol)):
            return t
    raise LookupError((src, kind, dest, symbol))


def psi3_witness_execution() -> Execution:
    """Send a process to (E,2): write a at rounds 0 and 1, then b at round 1."""
    inc = fig4_trans("q0", "inc", "q0")
    wa = fig4_trans("q0", "write", "A", "a")
    rd0 = fig4_trans("A", "read", "B", "d0")
    ra = fig4_trans("B", "read", "C", "a")
    wb = fig4_trans("C", "write", "q0", "b")
    rb = fig4_trans("q0", "read", "D", "b")
    rdd = fig4_trans("D", "read", "E", "d0")
    moves = (
        Move(inc, 0, False),      # spawn (q0,1)
        Move(wa, 1, False),       # reg1 := a
        Move(rd0, 1, True),       # (A,1) reads d0 from round 0 -> (B,1)
        Move(wa, 0, False),       # reg0 := a
        Move(ra, 1, True),        # (B,1) reads a from round 0 -> (C,1)
        Move(wb, 1, True),        # (C,1) writes b -> back to (q0,1)
        Move(inc, 1, True),       # (q0,1) -> (q0,2)
        Move(rb, 2, True),        # (q0,2) reads b from round 1 -> (D,2)
        Move(rdd, 2, True),       # (D,2) reads d0 from round 2 -> (E,2)
    )
    return Execution(initial_configuration(FIG4, {FIG4.state_id("q0")}), moves)


def test_psi3_witness_replays():
    final = replay(FIG4, psi3_witness_execution(), ABSTRACT)
    assert (FIG4.state_id("E"), 2) in final.pop


def test_local_step_increment_from_below_window():
    inc = fig4_trans("q0", "inc", "q0")
    lc = LocalConfig(1, 2, frozenset(), frozenset())
    out = local_step(FIG4, lc, Move(inc, 0, True))
    assert out.pop == {(FIG4.state_id("q0"), 1)}


def test_local_step_out_of_window_is_identity():
    wa = fig4_trans("q0", "write", "A", "a")
    lc = LocalConfig(1, 2, frozenset({(FIG4.state_id("q0"), 1)}), frozenset())
    assert local_step(FIG4, lc, Move(wa, 5, False)) == lc


def test_local_step_read_below_window_unconditional():
    # a round-1 process reads from round 0, which is outside [1, 2]
    ra = fig4_trans("B", "read", "C", "a")
    lc = LocalConfig(1, 2, frozenset({(FIG4.state_id("B"), 1)}), frozenset())
    out = local_step(FIG4, lc, Move(ra, 1, False))
    assert (FIG4.state_id("C"), 1) in out.pop


def test_local_step_in_window_preconditions():
    ra = fig4_trans("B", "read", "C", "a")
    lc = LocalConfig(0, 1, frozenset({(FIG4.state_id("B"), 1)}), frozenset())
    with pytest.raises(NotEnabled, match="register"):
        local_step(FIG4, lc, Move(ra, 1, False))  # round-0 register holds d0


def test_project_execution_counts_distinct_projections():
    exec_ = psi3_witness_execution()
    fp = project_footprint(FIG4, exec_, 0, 3)
    # all nine steps change something on rounds 0..3
    assert len(fp.steps) == 9
    fp00 = project_footprint(FIG4, exec_, 0, 0)
    # only the round-0 write and the round-0 increment... the non-deserting
    # increment leaves round 0 unchanged, so the write alone remains
    kinds = [(m.trans.action.kind, m.rnd) for m in fp00.steps]
    assert kinds == [("write", 0)]


def test_projection_idempotent():
    exec_ = psi3_witness_execution()
    wide = project_footprint(FIG4, exec_, 0, 2)
    narrow_direct = project_footprint(FIG4, exec_, 1, 2)
    narrow_via = project_footprint(FIG4, wide, 1, 2)
    assert narrow_direct == narrow_via
    assert project_footprint(FIG4, narrow_via, 1, 2) == narrow_via


def test_projection_window_not_contained():
    fp = project_footprint(FIG4, psi3_witness_execution(), 1, 2)
    with pytest.raises(WindowNotContained):
        project_footprint(FIG4, fp, 0, 2)


from generators import random_rb_execution as random_execution


def test_gluing_round_trip_psi3_witness():
    exec_ = psi3_witness_execution()
    v = FIG4.visibility
    K = 3
    taus = [project_footprint(FIG4, exec_, k - v + 1, k)
            for k in range(K + 1)]
    bridges = [project_footprint(FIG4, exec_, k - v + 1, k + 1)
               for k in range(K)]
    glued = combine_footprints(FIG4, taus, bridges)
    for k in range(K + 1):
        assert project_footprint(FIG4, glued, k - v + 1, k) == taus[k]


def test_gluing_rejects_inconsistent_bridge():
    exec_ = psi3_witness_execution()
    v = FIG4.visibility
    K = 2
    taus = [project_footprint(FIG4, exec_, k - v + 1, k)
            for k in range(K + 1)]
    bridges = [project_footprint(FIG4, exec_, k - v + 1, k + 1)
               for k in range(K)]
    bridges[1] = Footprint(bridges[1].start, ())  # forget all steps
    with pytest.raises(InconsistentProjections):
        combine_footprints(FIG4, taus, bridges)


def test_gluing_k0_single_footprint():
    wa = fig4_trans("q0", "write", "A", "a")
    exec_ = Execution(initial_configuration(FIG4, {FIG4.state_id("q0")}),
                      (Move(wa, 0, False),))
    taus = [project_footprint(FIG4, exec_, 0, 0)]
    glued = combine_footprints(FIG4, taus, [])
    assert replay(FIG4, glued, ABSTRACT) == replay(FIG4, exec_, ABSTRACT)


def test_gluing_random_round_trip():
    rng = random.Random(77)
    v = FIG4.visibility
    done = 0
    for _ in range(60):
        exec_ = random_execution(rng, FIG4)
        exec_ = normalize_execution(FIG4, exec_)
        K = 3
        taus = [project_footprint(FIG4, exec_, k - v + 1, k)
                for k in range(K + 1)]
        bridges = [project_footprint(FIG4, exec_, k - v + 1, k + 1)
                   for k in range(K)]
        glued = combine_footprints(FIG4, taus, bridges)
        for k in range(K + 1):
            assert project_footprint(FIG4, glued, k - v + 1, k) == taus[k]
        done += 1
    assert done == 60


def rb_questions(case: str):
    """(protocol, constraint, budget) for one sample of accepted chains.

    Among the chains accepted on seeds 200000-202999 and 300000-301999,
    only those of 201490, 202899 and 301153 have a bridge that places a
    new step before a replayed one, so the samples add them.
    """
    if case == "psi3":
        yield FIG4, parse_round_constraint(CONSTRAINTS["psi3"].text,
                                           FIG4), roundbased.DEFAULT_BUDGET
        return
    seeds, kw, budget = {
        "default": ([*range(200_000, 200_400), 201_490, 202_899], {},
                    250_000),
        "wide": ([*range(300_000, 300_200), 301_153],
                 dict(max_states=5, visibility_max=3, max_trans=9), 30_000),
    }[case]
    for seed in seeds:
        rng = random.Random(seed)
        p = random_rb_protocol(rng, **kw)
        yield p, random_rb_constraint(rng, p), budget


def new_before_replayed(chain) -> bool:
    """Whether a bridge of the chain places a new step (round 0, or a
    non-deserting increment from round -1) before a replayed one."""
    for steps in chain:
        new = [m.rnd == 0 or (m.rnd == -1 and not m.desert
                              and m.trans.action.kind == INC)
               for m in steps]
        if any(not b and any(new[:i]) for i, b in enumerate(new)):
            return True
    return False


@pytest.mark.parametrize("case, chains, interleaved", [
    ("psi3", 1, 1), ("default", 125, 2), ("wide", 65, 1)])
def test_splice_equals_general_gluing_on_accepted_chains(case, chains,
                                                          interleaved,
                                                          monkeypatch):
    # every chain rb-search accepts, spliced by _glue_chain, is glued the
    # same by the paper's construction, step for step
    accepted = []
    splice = roundbased._glue_chain

    def recording(chain, init_set):
        accepted.append((chain, init_set, splice(chain, init_set)))
        return accepted[-1][2]

    monkeypatch.setattr(roundbased, "_glue_chain", recording)
    glued = mixed = 0
    for p, psi, budget in rb_questions(case):
        if roundbased._round_bound(p) is not None:
            continue  # the round window decides it, with no chain
        accepted.clear()
        # the footprint search alone: the capped window would decide some
        # of these positives first
        footprint_verdict(p, psi, budget)
        for chain, init_set, got in accepted:
            want = glue_bridge_chain(p, chain, init_set)
            assert write_trace(p, got, ABSTRACT) == \
                write_trace(p, want, ABSTRACT)
            assert got == want
            glued += 1
            mixed += new_before_replayed(chain)
    assert glued == chains
    assert mixed == interleaved


def test_normalize_removes_redundant_read():
    inc = fig4_trans("q0", "inc", "q0")
    wa = fig4_trans("q0", "write", "A", "a")
    rd0 = fig4_trans("A", "read", "B", "d0")
    start = initial_configuration(FIG4, {FIG4.state_id("q0")})
    moves = (Move(inc, 0, False), Move(wa, 1, False), Move(rd0, 1, False),
             Move(rd0, 1, False))  # second read covers nothing new
    exec_ = Execution(start, moves)
    out = normalize_execution(FIG4, exec_)
    assert len(out.moves) == 3
    assert replay(FIG4, out, ABSTRACT) == replay(FIG4, exec_, ABSTRACT)


def test_normalize_removes_unread_write():
    wa = fig4_trans("q0", "write", "A", "a")
    wb = fig4_trans("C", "write", "q0", "b")
    inc = fig4_trans("q0", "inc", "q0")
    rd0 = fig4_trans("A", "read", "B", "d0")
    ra = fig4_trans("B", "read", "C", "a")
    start = initial_configuration(FIG4, {FIG4.state_id("q0")})
    # reach (C,1), then write b twice: the first write populates q0 afresh,
    # the second populates nothing, is never read, and is overwritten later
    moves = (Move(inc, 0, False), Move(wa, 1, False), Move(rd0, 1, False),
             Move(wa, 0, False), Move(ra, 1, False),
             Move(wb, 1, False),   # populates (q0,1)? it is still there: no
             Move(wb, 1, False),   # removable: unread, overwritten
             Move(wb, 1, True))    # final write fixes the register
    exec_ = Execution(start, moves)
    out = normalize_execution(FIG4, exec_)
    assert replay(FIG4, out, ABSTRACT) == replay(FIG4, exec_, ABSTRACT)
    assert len(out.moves) < len(moves)
    assert normal_form_violations(FIG4, out) == []


def test_normalize_random_executions():
    rng = random.Random(99)
    bound = normal_form_round_bound(FIG4)
    for _ in range(50):
        exec_ = random_execution(rng, FIG4)
        out = normalize_execution(FIG4, exec_)
        assert replay(FIG4, out, ABSTRACT) == replay(FIG4, exec_, ABSTRACT)
        assert normal_form_violations(FIG4, out) == []
        assert locations_deserted_more_than_once(FIG4, out) == []
        assert all(n <= bound for n in per_round_step_counts(out).values())


def shifted(steps, delta: int) -> tuple:
    return tuple(Move(m.trans, m.rnd + delta, m.desert) for m in steps)


def no_tick(n: int) -> None:
    pass


def extensions(p, tau: Footprint, init, k: int, step_cap: int):
    """``extend_footprint`` on an absolute carried footprint on [k-v, k-1],
    with every state negated, so that every source may desert.

    Yields (bridge footprint on [k-v, k], last code, visible footprint on
    [k-v+1, k]), all with absolute rounds.
    """
    v = max(p.visibility or 0, 1)
    assert tau.start == bridge_start(init, k - v, k - 1)
    for steps, last, vis in extend_footprint(
            p, shifted(tau.steps, 1 - k), init, k, step_cap, no_tick,
            frozenset(range(p.num_states))):
        yield (Footprint(bridge_start(init, k - v, k), shifted(steps, k)),
               last,
               Footprint(bridge_start(init, k - v + 1, k), shifted(vis, k)))


def full_extensions(p, tau: Footprint, init, k: int, step_cap: int):
    """``reference.bridge_footprints`` as ``extensions`` takes and yields
    its bridges: every schedule, as footprints on [k-v, k]."""
    v = max(p.visibility or 0, 1)
    assert tau.start == bridge_start(init, k - v, k - 1)
    for steps, _ in bridge_footprints(p, shifted(tau.steps, 1 - k), init, k,
                                      step_cap,
                                      frozenset(range(p.num_states))):
        yield Footprint(bridge_start(init, k - v, k), shifted(steps, k))


def test_enumerate_bridge_contains_write_then_increment():
    q0, every = FIG4.state_id("q0"), frozenset(range(FIG4.num_states))
    for stream in (
            (s for s, _, _ in extend_footprint(FIG4, (), {q0}, 0, 3, no_tick,
                                               every)),
            (s for s, _ in bridge_footprints(FIG4, (), {q0}, 0, 3, every))):
        assert [("write", False), ("inc", True)] in (
            [(m.trans.action.kind, m.desert) for m in steps]
            for steps in stream)


READ_X = parse_protocol(
    "flavor: roundbased\nstates: a b\ninitial: a\nregisters: 1\n"
    "alphabet: d0 x\nvisibility: 1\ntransitions:\n"
    "  a write(1, x) a\n  a read(0, 1, x) b\n")


def test_enumerate_bridge_empty_when_projection_impossible():
    # at round 1 the carried steps sit on round 0, which no new step can
    # write: a carried read of x needs a carried write of x before it
    write, read = (Move(t, 0, False) for t in READ_X.transitions)
    init = READ_X.initial_states
    every = frozenset(range(READ_X.num_states))
    for carried, possible in [((read,), False), ((write, read), True)]:
        for got in (
                [s for s, _, _ in extend_footprint(READ_X, carried, init, 1,
                                                   2, no_tick, every)],
                [s for s, _ in bridge_footprints(READ_X, carried, init, 1, 2,
                                                 every)]):
            assert bool(got) == possible
            assert all(steps[:len(carried)] == shifted(carried, -1)
                       for steps in got)


def test_enumerate_bridge_cap_zero_keeps_stepless_extension():
    q0, every = FIG4.state_id("q0"), frozenset(range(FIG4.num_states))
    fps = list(extend_footprint(FIG4, (), {q0}, 1, 0, no_tick, every))
    assert len(fps) == 1
    steps, last, vis = fps[0]
    assert steps == vis == ()
    assert packed_window(FIG4, 1)[2](last).pop == {(q0, 0)}
    assert [(steps, lc.pop) for steps, lc in bridge_footprints(
        FIG4, (), {q0}, 1, 0, every)] == [((), {(q0, 0)})]


def test_canonical_and_full_enumerations_project_identically():
    # the canonical stream must cover exactly the carried projections of
    # the reference's bridges, which are all schedules
    q0 = FIG4.state_id("q0")
    tau0 = Footprint(bridge_start({q0}, -1, -1), ())
    full0 = list(full_extensions(FIG4, tau0, {q0}, 0, 4))
    taus = {project_footprint(FIG4, fp, 0, 0) for fp in full0}
    taus2 = set()
    for tau in sorted(taus, key=lambda f: len(f.steps)):
        full = {project_footprint(FIG4, fp, 1, 1)
                for fp in full_extensions(FIG4, tau, {q0}, 1, 6)}
        canon = set()
        for fp, _, vis in extensions(FIG4, tau, {q0}, 1, 6):
            canon.add(vis)
            assert project_footprint(FIG4, fp, 1, 1) == vis
        assert canon == full
        taus2 |= canon
    # one level deeper: windows now straddle rounds [1, 2]
    for tau in sorted(taus2, key=lambda f: (len(f.steps), repr(f)))[:12]:
        full = {project_footprint(FIG4, fp, 2, 2)
                for fp in full_extensions(FIG4, tau, {q0}, 2, 6)}
        canon = {vis for _, _, vis in extensions(FIG4, tau, {q0}, 2, 6)}
        assert canon == full


TWO_REGS = parse_protocol(
    "flavor: roundbased\nstates: a b c\ninitial: a\nregisters: 2\n"
    "alphabet: d0 x y\nvisibility: 1\ntransitions:\n"
    "  a write(1, x) b\n  b write(2, y) c\n  c inc a\n"
    "  a read(-1, 2, y) c\n  b inc b\n")


def round_above(vis_steps, k: int) -> set:
    """Round k+1's population after a bridge at round k: the destinations
    of its deserting increments at round k, all of them visible."""
    return {m.trans.dest for m in vis_steps
            if m.trans.action.kind == INC and m.rnd == k and m.desert}


@pytest.mark.parametrize("case", ["fig4", "two-regs", 3, 11, 13, 35,
                                  "deep-1", "deep-10", "deep-16", "deep-37"])
def test_last_code_decodes_to_final_local_configuration(case):
    # extend_footprint's last code is an oracle.layout(p, v + 1) code whose
    # rounds count from the window's lowest round max(k - v, 0): the window,
    # then round k+1, populated by the deserting increments at round k.
    # The deep cases have visibility 2 or 3 and reads of depth 2 or more,
    # and k runs to v + 1, where the window has left round 0
    if case == "fig4":
        p, init = FIG4, {FIG4.state_id("q0")}
    elif case == "two-regs":
        p, init = TWO_REGS, TWO_REGS.initial_states
    elif isinstance(case, str) and case.startswith("deep-"):
        p = random_rb_protocol(random.Random(int(case[5:])),
                               visibility_max=3, max_trans=8)
        init = p.initial_states
        assert p.visibility >= 2 and any(
            t.action.kind == READ and t.action.depth >= 2
            for t in p.transitions)
    else:
        p = random_rb_protocol(random.Random(case))
        init = p.initial_states
    v = max(p.visibility or 0, 1)
    decode = packed_window(p, v + 1)[2]
    taus = [Footprint(bridge_start(init, -v, -1), ())]
    seen = 0
    for k in range(max(3, v + 2)):
        base = max(k - v, 0)
        carried = []
        for tau in taus:
            for fp, last, vis in extensions(p, tau, init, k, 6):
                final = footprint_configs(p, fp)[-1]
                got = decode(last)
                assert got.pop == {(q, r - base) for q, r in final.pop} | {
                    (q, k + 1 - base) for q in round_above(vis.steps, k)}
                assert got.regs == {((r - base, j), s)
                                    for (r, j), s in final.regs}
                carried.append(vis)
                seen += 1
        taus = carried[:8]
    assert seen > 6


def test_last_code_holds_round_above_window():
    # the round-based search's stop test reads round k+1 off the last code:
    # exactly the deserting increments' destinations, no register field
    seen = above = 0
    for seed in range(40):
        p = random_rb_protocol(random.Random(seed))
        v = max(p.visibility or 0, 1)
        _, pop, slot, _ = layout(p, 0)
        # every state may desert on even seeds, all but state 0 on odd ones
        negated = frozenset(range(seed % 2, p.num_states))
        carried_list = [()]
        for k in range(4):
            up = (k - max(k - v, 0) + 1) * slot(1, 0)
            nxt = []
            for carried in carried_list:
                for _, last, vis in itertools.islice(extend_footprint(
                        p, carried, p.initial_states, k, 6, no_tick,
                        negated), 300):
                    want = sum(pop(q, 0) for q in round_above(vis, 0))
                    assert last >> up == want, (seed, k, vis)
                    seen += 1
                    above += want != 0
                    if len(nxt) < 4 and vis not in nxt:
                        nxt.append(vis)
            carried_list = nxt or [()]
    assert seen > 5000 and above > 2000


def counted_stream(p, carried, k: int, step_cap: int, negated):
    """``extend_footprint``'s whole stream at round k, and its ticks."""
    ticks = []
    stream = list(extend_footprint(p, carried, p.initial_states, k,
                                   step_cap, ticks.append, negated))
    return stream, sum(ticks)


# at round 1 with v = 1: the carried increment a -> a from round 0, and
# fresh, the same increment, one a -> d, and reads a -> s1..s5 at round 1
TICKS = parse_protocol(
    "flavor: roundbased\nstates: a d s1 s2 s3 s4 s5\ninitial: a\n"
    "registers: 1\nalphabet: d0\nvisibility: 1\ntransitions:\n"
    "  a inc a\n  a inc d\n"
    + "".join(f"  a read(0, 1, d0) s{i}\n" for i in range(1, 6)))


def test_ticks_charge_each_placement_before_its_bridge_or_in_512s():
    # one tick for the start and one per step placed, charged before each
    # yield, every 512 placements and at the end
    carried = (Move(TICKS.transitions[0], 0, False),)
    events = []  # charges, and None for each yield
    for _ in extend_footprint(TICKS, carried, TICKS.initial_states, 1, 20,
                              events.append, frozenset()):
        events.append(None)
    charges = [n for n in events if n is not None]
    assert all(0 < n <= 512 for n in charges)
    assert all(n == 512 for n, nxt in zip(events, events[1:])
               if n is not None and nxt is not None)
    # placements in depth-first order, the carried step tried first: the
    # carried step, then every sequence of distinct fresh steps after it,
    # each a bridge (f(6) placements); the fresh a -> a, after which the
    # carried step is a stutter and never replays (f(6), no bridge); a -> d,
    # then the carried step and the reads after it (f(5), each a bridge);
    # the fresh a -> a again (f(5), no bridge).  f(n) counts the sequences
    # of distinct picks out of n, the empty one included
    f5, f6 = (sum(math.perm(n, j) for j in range(n + 1)) for n in (5, 6))
    placed = [*range(1, f6 + 1), *range(2 * f6 + 2, 2 * f6 + f5 + 2)]
    total, sums = 0, []  # the charges so far at each yield
    for n in events:
        if n is None:
            sums.append(total)
        else:
            total += n
    assert sums == [1 + n for n in placed]
    assert total == 1 + 2 * f6 + 1 + 2 * f5
    assert placed[f6] - placed[f6 - 1] > 512  # no bridge for that long


def test_bridges_past_the_window_of_round_0_do_not_depend_on_the_round():
    # rb-search keys a node's stream by its round capped at v + 1: from
    # round v + 1 on, a carried tuple that a chain of bridges yields has the
    # same stream, ticks included, at every round, rounds counted from it
    checked = wide = 0
    for seed in range(60):
        rng = random.Random(seed)
        p = random_rb_protocol(rng, visibility_max=3, max_trans=8)
        v = max(p.visibility or 0, 1)
        negated = frozenset(range(seed % 2, p.num_states))
        layer = [()]
        for k in range(v + 3):
            nxt = []
            for carried in layer:
                got = counted_stream(p, carried, k, 5, negated)
                if k >= v + 1:
                    assert counted_stream(p, carried, k + 1, 5,
                                          negated) == got, (seed, k)
                    checked += 1
                    wide += v >= 2 and bool(got[0])
                nxt += [vis for _, _, vis in got[0]]
            layer = list(dict.fromkeys(nxt))[:4]
    assert checked > 300 and wide > 150  # wide: v >= 2, some bridge


def test_a_carried_tuple_no_chain_yields_may_depend_on_the_round():
    # a depth-2 read at round k - 2 reads below round 0 at k = 3, and below
    # the window from k = 4 on: rb-search's stream key, its round capped at
    # v + 1, relies on no chain carrying such a read into round v + 1
    p = parse_protocol(
        "flavor: roundbased\nstates: q0 q1\ninitial: q0\nregisters: 1\n"
        "alphabet: d0\nvisibility: 2\ntransitions:\n"
        "  q0 read(-2, 1, d0) q1\n")
    carried = (Move(p.transitions[0], -1, False),)
    every = frozenset(range(p.num_states))
    with pytest.raises(ReplayFailure, match="statically disabled"):
        counted_stream(p, carried, 3, 5, every)
    stream = counted_stream(p, carried, 4, 5, every)
    assert len(stream[0]) == 1
    assert counted_stream(p, carried, 5, 5, every) == stream


def test_canonical_stream_projects_as_every_schedule_on_random_protocols():
    # the canonical deferral drops schedules, never a projection: at each
    # round of a chain, the visible steps of extend_footprint's bridges are
    # the projections onto [k-v+1, k] of all the reference's bridges
    checked = 0
    for seed in range(40):
        p = random_rb_protocol(random.Random(seed), visibility_max=3,
                               max_trans=8)
        v, init = max(p.visibility or 0, 1), p.initial_states
        negated = frozenset(range(seed % 2, p.num_states))
        layer = [()]
        for k in range(v + 2):
            nxt = []
            for carried in layer:
                canon = [vis for _, _, vis in extend_footprint(
                    p, carried, init, k, 4, no_tick, negated)]
                full = {project_footprint(p, Footprint(
                    bridge_start(init, k - v, k), shifted(steps, k)),
                    k - v + 1, k).steps for steps, _ in bridge_footprints(
                        p, carried, init, k, 4, negated)}
                assert {shifted(vis, k) for vis in canon} == full, (seed, k)
                checked += len(full)
                nxt += canon
            layer = list(dict.fromkeys(nxt))[:4]
    assert checked > 3000
