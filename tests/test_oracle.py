"""Brute-force reach set and oracle decision tests."""

import random

import pytest

from generators import (random_constraint, random_protocol,
                        random_rb_constraint, random_rb_protocol)
from regverify import oracle
from regverify.constraints import (cover_constraint, eval_roundbased,
                                   eval_roundless, parse_round_constraint,
                                   parse_roundless_constraint,
                                   target_constraint)
from regverify.errors import CapExceeded
from regverify.model import parse_protocol
from regverify.oracle import (bfs, compile_constraint, default_round_cap,
                              oracle_prp, packed, reach)
from regverify.reductions import builtin_examples
from regverify.semantics import (ABSTRACT, AbstractConfig, abstract_step,
                                 abstract_successors, initial_configuration,
                                 initial_supports, replay, replay_configs)

PROTOCOLS, CONSTRAINTS = builtin_examples()
FIG1 = PROTOCOLS["fig1"]
FIG1_BLUE = PROTOCOLS["fig1_blue"]
FIG1_RED = PROTOCOLS["fig1_red"]
FIG4 = PROTOCOLS["fig4"]


def test_fig1_reach_contains_qf_c_a():
    rs = reach(FIG1)
    want = AbstractConfig(frozenset({FIG1.state_id("qf"), FIG1.state_id("C")}),
                          (FIG1.symbol_id("a"),))
    assert want in rs.members


def test_blue_variant_never_covers_qf():
    rs = reach(FIG1_BLUE)
    qf = FIG1_BLUE.state_id("qf")
    assert all(qf not in c.pop for c in rs.members)


def test_no_transition_protocol_reach():
    p = parse_protocol("flavor: roundless\nstates: q0\ninitial: q0\n"
                       "registers: 1\nalphabet: d0\ntransitions:\n")
    rs = reach(p)
    assert rs.members == {AbstractConfig(frozenset({0}), (0,))}


def test_reach_is_a_fixed_point():
    rs = reach(FIG1)
    for c in rs.members:
        for _, succ in abstract_successors(FIG1, c):
            assert succ in rs.members


def _assert_closed_with_sound_parents(p, rs, window=None):
    """Every member's successors are members, and every parent link is one
    step of the reference relation from an earlier member."""
    position = {c: i for i, c in enumerate(rs.order)}
    for c in rs.members:
        for _, succ in abstract_successors(p, c, window):
            assert succ in rs.members
        link = rs.parents[c]
        if link is not None:
            pred, move = link
            assert position[pred] < position[c]
            assert abstract_step(p, pred, move) == c


@pytest.mark.parametrize("seed", [None] + list(range(300_000, 300_020)))
def test_packed_reach_matches_reference_step(seed):
    p = FIG1 if seed is None else random_protocol(random.Random(seed))
    _assert_closed_with_sound_parents(p, reach(p))


def _depths(rs):
    """Breadth-first depth of each member, from its parent links."""
    depth = {}
    for c in rs.order:
        link = rs.parents[c]
        depth[c] = 0 if link is None else depth[link[0]] + 1
    return depth


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", [None, "fig4", 300_002, 300_008, 300_011,
                                  300_019])
def test_depth_bound_keeps_the_levels_within_it(seed, k):
    if seed == "fig4":
        p, cap = FIG4, 2
    else:
        p = FIG1 if seed is None else random_protocol(random.Random(seed))
        cap = 0
    full = reach(p, cap)
    depth = _depths(full)
    cut = bfs(*packed(p, cap), max_depth=k)
    assert cut.order == [c for c in full.order if depth[c] <= k]
    assert all(cut.parents[c] == full.parents[c] for c in cut.order)
    if max(depth.values()) > k:
        assert len(cut.order) < len(full.order)


def test_roundbased_capped_reach_matches_reference_step():
    _assert_closed_with_sound_parents(
        FIG4, reach(FIG4, 2), window=(0, 2))


def _reference_reach(p, max_round, space_cap):
    """The reach set over ``abstract_successors`` and its frozensets."""
    starts = (initial_configuration(p, support)
              for support in initial_supports(p))
    return bfs(starts, lambda c: abstract_successors(p, c, (0, max_round)),
               lambda c: c, space_cap)


@pytest.mark.parametrize("seed", [None] + list(range(300_000, 300_100)))
def test_packed_round_window_matches_reference_reach(seed):
    # same members in the same order with the same parents, at every round
    # cap; a pair the reference refuses at the space cap is skipped
    if seed is None:
        cases = [(FIG4, 2)]
    else:
        p = random_rb_protocol(random.Random(seed))
        cases = [(p, k) for k in range(4)]
    for p, k in cases:
        try:
            want = _reference_reach(p, k, 2000)
        except CapExceeded:
            continue
        got = reach(p, k, space_cap=2000)
        assert list(got.parents.items()) == list(want.parents.items()), k


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        reach(FIG1, state_cap=3)


def test_oracle_prp_golden_roundless():
    cover = parse_roundless_constraint(CONSTRAINTS["cover_qf"].text, FIG1)
    assert oracle_prp(FIG1, cover).answer == "positive"
    phi = parse_roundless_constraint(CONSTRAINTS["ex26_phi"].text, FIG1)
    assert oracle_prp(FIG1, phi).answer == "negative"
    target = parse_roundless_constraint(CONSTRAINTS["target_qf"].text,
                                        FIG1_RED)
    assert oracle_prp(FIG1_RED, target).answer == "positive"


def test_oracle_witness_replays_and_satisfies():
    cover = parse_roundless_constraint(CONSTRAINTS["cover_qf"].text, FIG1)
    v = oracle_prp(FIG1, cover)
    final = replay(FIG1, v.witness, ABSTRACT)
    assert eval_roundless(final, cover)


def test_fig4_qf_not_covered_within_two_rounds():
    # the K=3 reach set also avoids qf but runs minutes at desk scale;
    # the round-based solver covers the unbounded claim exactly
    rs = reach(FIG4, 2)
    qf = FIG4.state_id("qf")
    assert all(all(q != qf for q, _ in c.pop) for c in rs.members)


def test_fig4_witness_shape_at_k2():
    rs = reach(FIG4, 2)
    E = FIG4.state_id("E")
    b, d0 = FIG4.symbol_id("b"), FIG4.symbol_id("d0")
    good = [c for c in rs.members
            if (E, 2) in c.pop
            and all(sym in (b, d0) for (k, _), sym in c.regs if k >= 1)]
    assert good


def test_round_cap_zero_with_only_increments():
    p = parse_protocol("flavor: roundbased\nstates: q0\ninitial: q0\n"
                       "registers: 1\nalphabet: d0\nvisibility: 0\n"
                       "transitions:\n  q0 inc q0\n")
    rs = reach(p, 0)
    assert rs.members == {AbstractConfig(frozenset({(0, 0)}), frozenset())}


def test_negative_round_cap_is_refused():
    # the window has no round -1; the code would have no room for a start
    with pytest.raises(ValueError):
        reach(FIG4, -1)


def test_round_cap_monotonicity():
    prev = None
    for k in range(0, 3):
        members = reach(FIG4, k).members
        if prev is not None:
            assert prev <= members
        prev = members


def test_oracle_prp_roundbased_golden():
    psi1 = parse_round_constraint(CONSTRAINTS["psi1"].text, FIG4)
    psi2 = parse_round_constraint(CONSTRAINTS["psi2"].text, FIG4)
    psi3 = parse_round_constraint(CONSTRAINTS["psi3"].text, FIG4)
    assert oracle_prp(FIG4, psi1, max_round=2).answer == "negative"
    assert oracle_prp(FIG4, psi2, max_round=2).answer == "negative"
    v = oracle_prp(FIG4, psi3, max_round=2)
    assert v.answer == "positive"
    final = replay(FIG4, v.witness, ABSTRACT)
    assert eval_roundbased(FIG4, final, psi3, active_bound=3)


def test_default_round_cap_formula():
    psi3 = parse_round_constraint(CONSTRAINTS["psi3"].text, FIG4)
    # (v+1) * (M+2) + 2 with v = 1, M = 2
    assert default_round_cap(FIG4, psi3) == 10


# --- the oracle stops at the first hit in BFS order ---------------------------

def _first_hit(rs, sat):
    return next((c for c in rs.order if sat(c)), None)


def _assert_matches_full_scan(v, rs, sat):
    hit = _first_hit(rs, sat)
    if hit is None:
        assert v.answer == "negative" and v.witness is None
    else:
        assert v.answer == "positive"
        assert v.witness == rs.witness(hit)


def test_positive_decided_when_full_reach_set_exceeds_cap():
    psi3 = parse_round_constraint(CONSTRAINTS["psi3"].text, FIG4)
    sat = lambda c: eval_roundbased(FIG4, c, psi3, active_bound=3)
    full = reach(FIG4, 2)
    hit = _first_hit(full, sat)
    cap = full.order.index(hit) + 1  # the hit is the last member in the cap
    assert cap < len(full.members)
    v = oracle_prp(FIG4, psi3, max_round=2, space_cap=cap)
    assert v.answer == "positive"
    assert v.witness == full.witness(hit)
    assert v.stats["members"] == cap
    with pytest.raises(CapExceeded):
        oracle_prp(FIG4, psi3, max_round=2, space_cap=cap - 1)


def test_criterion_2_seed_refused_before_is_decided():
    # seed 200096's reach set within its round cap has ~56k configurations,
    # past criterion 2's space cap; its first hit is the sixth discovered
    rng = random.Random(200_096)
    p = random_rb_protocol(rng)
    psi = random_rb_constraint(rng, p)
    K = default_round_cap(p, psi)
    v = oracle_prp(p, psi, max_round=K, space_cap=40_000)
    assert v.answer == "positive"
    final = replay(p, v.witness, ABSTRACT)
    assert eval_roundbased(p, final, psi, active_bound=K + 1)


@pytest.mark.parametrize("seed", range(100_000, 100_020))
def test_roundless_oracle_matches_full_scan(seed):
    rng = random.Random(seed)
    p = random_protocol(rng)
    rs = reach(p)
    for phi in (random_constraint(rng, p),
                cover_constraint(p, rng.randrange(p.num_states))):
        _assert_matches_full_scan(oracle_prp(p, phi), rs,
                                  lambda c: eval_roundless(c, phi))


@pytest.mark.parametrize("seed", [200_001, 200_011, 200_015, 200_035,
                                  200_103, 200_111, 200_217, 200_258])
def test_roundbased_oracle_matches_full_scan(seed):
    rng = random.Random(seed)
    p = random_rb_protocol(rng)
    psi = random_rb_constraint(rng, p)
    K = default_round_cap(p, psi)
    rs = reach(p, K)
    _assert_matches_full_scan(
        oracle_prp(p, psi, max_round=K), rs,
        lambda c: eval_roundbased(p, c, psi, active_bound=K + 1))


def test_negative_past_cap_still_refused():
    psi1 = parse_round_constraint(CONSTRAINTS["psi1"].text, FIG4)
    n = len(reach(FIG4, 2).members)
    assert oracle_prp(FIG4, psi1, max_round=2,
                      space_cap=n).answer == "negative"
    with pytest.raises(CapExceeded):
        oracle_prp(FIG4, psi1, max_round=2, space_cap=n - 1)
    phi = parse_roundless_constraint(CONSTRAINTS["ex26_phi"].text, FIG1)
    with pytest.raises(CapExceeded):
        oracle_prp(FIG1, phi, space_cap=len(reach(FIG1).members) - 1)


# --- the compiled constraint, and decoding only what is read ------------------

def _assert_probe_matches(p, psi, k, rs, check):
    """The constraint compiled for round cap ``k`` agrees with the reference
    evaluator on every member of the reach set."""
    probe = compile_constraint(p, psi, k)
    for code in rs.links:
        assert bool(probe(code)) == check(rs.config(code)), code


@pytest.mark.parametrize("seed", range(100_000, 100_040))
def test_roundless_probe_matches_eval_roundless(seed):
    rng = random.Random(seed)
    p = random_protocol(rng)
    rs = reach(p)
    q = rng.randrange(p.num_states)
    for phi in (random_constraint(rng, p), random_constraint(rng, p),
                cover_constraint(p, q), target_constraint(p, q)):
        _assert_probe_matches(p, phi, 0, rs, lambda c: eval_roundless(c, phi))


@pytest.mark.parametrize("seed", [None] + list(range(200_000, 200_060)))
def test_roundbased_probe_matches_eval_roundbased(seed):
    # at each round cap the quantifiers range past the window, where the
    # probe reads the shifted code as empty; FIG4 runs psi1-psi3
    if seed is None:
        p = FIG4
        psis = [parse_round_constraint(CONSTRAINTS[n].text, FIG4)
                for n in ("psi1", "psi2", "psi3")]
    else:
        rng = random.Random(seed)
        p = random_rb_protocol(rng)
        psis = [random_rb_constraint(rng, p) for _ in range(3)]
    for k in range(4):
        try:
            rs = reach(p, k, space_cap=4000)  # FIG4 has 3647 at round cap 2
        except CapExceeded:
            continue
        for psi in psis:
            _assert_probe_matches(
                p, psi, k, rs,
                lambda c: eval_roundbased(p, c, psi, active_bound=k + 1))


def _counting_packed(decoded):
    """``packed``, with each decoded code appended to ``decoded``."""
    def counting(p, max_round=0):
        starts, successors, decode = packed(p, max_round)

        def counted(code):
            decoded.append(code)
            return decode(code)
        return starts, successors, counted
    return counting


@pytest.mark.parametrize("proto, name, k", [
    ("fig1", "cover_qf", None), ("fig1", "ex26_phi", None),
    ("fig1_red", "target_qf", None), ("fig4", "psi3", 2), ("fig4", "psi1", 2),
    ("fig4", "psi2", 2)])
def test_search_decodes_only_the_witness_path(monkeypatch, proto, name, k):
    p = PROTOCOLS[proto]
    decoded = []
    monkeypatch.setattr(oracle, "packed", _counting_packed(decoded))
    parse = parse_round_constraint if k is not None \
        else parse_roundless_constraint
    psi = parse(CONSTRAINTS[name].text, p)
    v = oracle_prp(p, psi, max_round=k)
    if v.answer == "negative":
        assert decoded == []
        rs = reach(p, k or 0)
        assert decoded == []
        assert len(rs.members) == len(rs.links) == len(decoded)
        return
    _, _, decode = packed(p, k or 0)
    assert len(set(decoded)) == len(decoded) <= len(v.witness.moves) + 1
    path = replay_configs(p, v.witness, ABSTRACT)
    assert all(decode(code) in path for code in decoded)
