"""Brute-force reach set and oracle decision tests."""

import collections
import random

import pytest

import reference
from reference import (abstract_successors, compile_constraint,
                       compiled_on_nnf, members, order, packed_bfs,
                       packed_window, parents, reach, roundless_config,
                       witness_to)
from generators import (random_constraint, random_protocol,
                        random_rb_constraint, random_rb_protocol)
from lemmas import replay_configs
from regverify import oracle
from regverify.constraints import (FALSE, ROUND0, TRUE, And, Exists, Forall,
                                   Not, Or, PopAt, cover_constraint,
                                   eval_roundbased,
                                   eval_roundless, negated_states,
                                   parse_round_constraint,
                                   parse_roundless_constraint,
                                   target_constraint)
from regverify.errors import CapExceeded, NotEnabled, ReplayFailure
from regverify.model import INC, format_action, parse_protocol
from regverify.oracle import default_round_cap, oracle_prp
from regverify.reductions import builtin_examples
from regverify.roundbased import _round_window, solve_prp_roundbased
from regverify.roundless import solve_prp_bounded
from regverify.semantics import (ABSTRACT, AbstractConfig, Move,
                                 abstract_step, initial_configuration,
                                 initial_supports, replay)

PROTOCOLS, CONSTRAINTS = builtin_examples()
FIG1 = PROTOCOLS["fig1"]
FIG1_BLUE = PROTOCOLS["fig1_blue"]
FIG1_RED = PROTOCOLS["fig1_red"]
FIG4 = PROTOCOLS["fig4"]


def test_fig1_reach_contains_qf_c_a():
    rs = reach(FIG1)
    want = roundless_config({FIG1.state_id("qf"), FIG1.state_id("C")},
                            (FIG1.symbol_id("a"),))
    assert want in members(rs)


def test_blue_variant_never_covers_qf():
    rs = reach(FIG1_BLUE)
    qf = FIG1_BLUE.state_id("qf")
    assert all((qf, 0) not in c.pop for c in members(rs))


def test_no_transition_protocol_reach():
    p = parse_protocol("flavor: roundless\nstates: q0\ninitial: q0\n"
                       "registers: 1\nalphabet: d0\ntransitions:\n")
    rs = reach(p)
    assert members(rs) == {roundless_config({0}, (0,))}


@pytest.mark.parametrize("text", ["true", "(not (pop a))"])
def test_no_initial_state_negative_with_no_configuration(text):
    # no start at all, not an empty one, whichever states are negated
    p = parse_protocol("flavor: roundless\nstates: a b\ninitial:\n"
                       "registers: 1\nalphabet: d0 x\n"
                       "transitions:\n  a write(1, x) b\n")
    phi = parse_roundless_constraint(text, p)
    v = oracle_prp(p, phi)
    assert (v.answer, v.stats) == ("negative", {"members": 0})
    b = solve_prp_bounded(p, phi)
    assert (b.answer, b.stats["nodes"]) == ("negative", 0)


def test_reach_is_a_fixed_point():
    seen = members(reach(FIG1))
    for c in seen:
        for _, succ in abstract_successors(FIG1, c):
            assert succ in seen


def _assert_closed_with_sound_parents(p, rs, window=None):
    """Every member's successors are members, and every parent link is one
    step of the reference relation from an earlier member."""
    links = parents(rs)
    position = {c: i for i, c in enumerate(links)}
    for c, link in links.items():
        for _, succ in abstract_successors(p, c, window):
            assert succ in links
        if link is not None:
            pred, move = link
            assert position[pred] < position[c]
            assert abstract_step(p, pred, move) == c


def _reference_reach(p, max_round=0, space_cap=float("inf"),
                     negated=None):
    """The reach set over ``abstract_successors`` and its frozensets, by the
    reference search.  With a set ``negated``, it starts only from the
    supports holding every initial state outside it, and deserts only from
    states in it."""
    fixed = frozenset() if negated is None else p.initial_states - negated
    starts = (initial_configuration(p, support)
              for support in initial_supports(p, p.initial_states)
              if support >= fixed)

    def successors(c):
        return [(m, succ) for m, succ in
                abstract_successors(p, c, (0, max_round))
                if not (m.desert and negated is not None
                        and m.trans.source not in negated)]
    return reference.bfs(starts, successors, space_cap)


def _assert_matches_reference(p, max_round, space_cap=float("inf")):
    """The packed search has the reference's members in the same order with
    the same parents: exhaustive, with no state negated, and with every
    other state negated.  A variant the reference refuses at the space cap
    is skipped."""
    for negated in (None, frozenset(), frozenset(range(0, p.num_states, 2))):
        try:
            want = _reference_reach(p, max_round, space_cap, negated)
        except CapExceeded:
            continue
        got = packed_bfs(*packed_window(p, max_round, negated), space_cap)
        assert list(parents(got).items()) == list(parents(want).items()), \
            (max_round, negated)


@pytest.mark.parametrize("seed", [None] + list(range(300_000, 300_020)))
def test_packed_reach_matches_reference_step(seed):
    p = FIG1 if seed is None else random_protocol(random.Random(seed))
    _assert_closed_with_sound_parents(p, reach(p))
    _assert_matches_reference(p, 0)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", [None, "fig4", 300_002, 300_008, 300_011,
                                  300_019])
def test_depth_bound_keeps_the_levels_within_it(seed, k):
    # the full search discovers level by level: a member's level is its
    # distance from a start by the reference step relation, the levels
    # never decrease along the discovery order, and each parent is one
    # level up; a search stopped by its first member at level k discovers
    # the order up to that member
    if seed == "fig4":
        p, cap = FIG4, 2
    else:
        p = FIG1 if seed is None else random_protocol(random.Random(seed))
        cap = 0
    links = parents(reach(p, cap))
    depth = {c: 0 for c, link in links.items() if link is None}
    level = list(depth)
    while level:
        nxt = []
        for c in level:
            for _, succ in abstract_successors(p, c, (0, cap)):
                if succ not in depth:
                    depth[succ] = depth[c] + 1
                    nxt.append(succ)
        level = nxt
    assert depth.keys() == links.keys()
    depths = [depth[c] for c in links]
    assert depths == sorted(depths)
    assert all(depth[link[0]] == depth[c] - 1
               for c, link in links.items() if link is not None)
    starts, table, decode = packed_window(p, cap)
    stopped = packed_bfs(starts, table, decode,
                         sat=lambda code: depth[decode(code)] == k)
    n = depths.index(k) + 1 if k in depths else len(depths)
    assert list(parents(stopped).items()) == list(links.items())[:n]
    assert stopped.hit == (list(links)[n - 1] if k in depths else None)


def test_roundbased_capped_reach_matches_reference_step():
    _assert_closed_with_sound_parents(
        FIG4, reach(FIG4, 2), window=(0, 2))


@pytest.mark.parametrize("seed", [None] + list(range(300_000, 300_100)))
def test_packed_round_window_matches_reference_reach(seed):
    # at every round cap; FIG4 has 3647 configurations at round cap 2
    if seed is None:
        cases = [(FIG4, 2, 4000)]
    else:
        p = random_rb_protocol(random.Random(seed))
        cases = [(p, k, 2000) for k in range(4)]
    for p, k, space_cap in cases:
        _assert_matches_reference(p, k, space_cap)


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
    assert all(all(q != qf for q, _ in c.pop) for c in members(rs))


def test_fig4_witness_shape_at_k2():
    rs = reach(FIG4, 2)
    E = FIG4.state_id("E")
    b, d0 = FIG4.symbol_id("b"), FIG4.symbol_id("d0")
    good = [c for c in members(rs)
            if (E, 2) in c.pop
            and all(sym in (b, d0) for (k, _), sym in c.regs if k >= 1)]
    assert good


def test_round_cap_zero_with_only_increments():
    p = parse_protocol("flavor: roundbased\nstates: q0\ninitial: q0\n"
                       "registers: 1\nalphabet: d0\nvisibility: 0\n"
                       "transitions:\n  q0 inc q0\n")
    rs = reach(p, 0)
    assert members(rs) == {AbstractConfig(frozenset({(0, 0)}), frozenset())}


def test_negative_round_cap_is_refused():
    # the window has no round -1; the code would have no room for a start
    with pytest.raises(ValueError):
        reach(FIG4, -1)


def test_round_cap_monotonicity():
    prev = None
    for k in range(0, 3):
        seen = members(reach(FIG4, k))
        if prev is not None:
            assert prev <= seen
        prev = seen


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


# --- discovery order, pinned on the built-in examples -------------------------

FIG1_WITNESS = ["q0 read(1, d0) B @0", "B read(1, d0) C @0",
                "q0 write(1, c) A @0", "C write(1, a) C @0",
                "A read(1, a) qf @0"]
FIG4_WITNESS = ["q0 inc q0 @0", "q0 inc q0 @1", "q0 write(1, a) A @1",
                "A read(-1, 1, d0) B @1", "q0 write(1, a) A @0",
                "B read(-1, 1, a) C @1", "C write(1, b) q0 @1",
                "q0 read(-1, 1, b) D @2", "D read(0, 1, d0) E @2"]


def _desert_at(moves, i):
    return moves[:i] + [moves[i] + " desert"] + moves[i + 1:]


def _move_texts(p, verdict):
    if verdict.witness is None:
        return None
    return [f"{p.state_names[m.trans.source]} "
            f"{format_action(p, m.trans.action)} {p.state_names[m.trans.dest]}"
            + f" @{m.rnd}"
            + (" desert" if m.desert else "") for m in verdict.witness.moves]


@pytest.mark.parametrize("name, n, moves", [
    ("cover_qf", 9, FIG1_WITNESS),
    ("ex26_phi", 14, None),
    ("(and (pop qf) (not (pop q0)))", 17, _desert_at(FIG1_WITNESS, 2))])
def test_roundless_discovery_order_is_pinned(name, n, moves):
    # the oracle's members and bounded's nodes count the same search; a
    # non-monotone constraint also pins where desert moves come
    text = CONSTRAINTS[name].text if name in CONSTRAINTS else name
    phi = parse_roundless_constraint(text, FIG1)
    v = oracle_prp(FIG1, phi, space_cap=n)
    assert (v.stats, _move_texts(FIG1, v)) == ({"members": n}, moves)
    with pytest.raises(CapExceeded):
        oracle_prp(FIG1, phi, space_cap=n - 1)
    b = solve_prp_bounded(FIG1, phi)
    assert (b.stats["nodes"], _move_texts(FIG1, b)) == (n, moves)


@pytest.mark.parametrize("name, n, moves", [
    ("psi1", 60, None), ("psi2", 60, None), ("psi3", 44, FIG4_WITNESS),
    ("(and (pop E 2) (not (pop q0 0)))", 246, _desert_at(FIG4_WITNESS, 4))])
def test_roundbased_discovery_order_is_pinned(name, n, moves):
    # at round cap 2, the oracle's members and the round window's ticks
    text = CONSTRAINTS[name].text if name in CONSTRAINTS else name
    psi = parse_round_constraint(text, FIG4)
    v = oracle_prp(FIG4, psi, max_round=2, space_cap=n)
    assert (v.stats["members"], _move_texts(FIG4, v)) == (n, moves)
    with pytest.raises(CapExceeded):
        oracle_prp(FIG4, psi, max_round=2, space_cap=n - 1)
    w = _round_window(FIG4, psi, 2, n)
    assert (w.stats["ticks"], _move_texts(FIG4, w)) == (n, moves)
    assert _round_window(FIG4, psi, 2, n - 1).answer == "unknown"


# --- the oracle stops at the first hit in BFS order ---------------------------

def _first_hit(rs, sat):
    return next((c for c in order(rs) if sat(c)), None)


def _assert_matches_full_scan(v, rs, sat):
    hit = _first_hit(rs, sat)
    if hit is None:
        assert v.answer == "negative" and v.witness is None
    else:
        assert v.answer == "positive"
        assert v.witness == witness_to(rs, hit)


def _assert_positive_decided_within_cap(psi, full):
    """On FIG4 at round cap 2, the oracle decides ``psi`` positive as soon
    as its cap holds the first hit of ``full``, the reach set it searches."""
    sat = lambda c: eval_roundbased(FIG4, c, psi, active_bound=3)
    hit = _first_hit(full, sat)
    cap = order(full).index(hit) + 1  # the hit is the last member in the cap
    assert cap < len(members(full))
    v = oracle_prp(FIG4, psi, max_round=2, space_cap=cap)
    assert v.answer == "positive"
    assert v.witness == witness_to(full, hit)
    assert v.stats["members"] == cap
    with pytest.raises(CapExceeded):
        oracle_prp(FIG4, psi, max_round=2, space_cap=cap - 1)


def test_positive_decided_when_full_reach_set_exceeds_cap():
    # psi3 negates no state: the oracle searches the desert-free set
    psi3 = parse_round_constraint(CONSTRAINTS["psi3"].text, FIG4)
    assert negated_states(psi3) == frozenset()
    _assert_positive_decided_within_cap(
        psi3, reach(FIG4, 2, negated=frozenset()))


def test_positive_decided_when_full_reach_set_exceeds_cap_with_desertion():
    # emptying q0 at round 0 takes a deserting move, so the oracle searches
    # the set with deserts from q0, and the desert-free one has no hit
    psi = parse_round_constraint("(and (pop E 2) (not (pop q0 0)))", FIG4)
    negated = negated_states(psi)
    assert negated == {FIG4.state_id("q0")}
    _assert_positive_decided_within_cap(psi, reach(FIG4, 2, negated=negated))
    sat = compile_constraint(FIG4, psi, 2)
    cut = packed_bfs(*packed_window(FIG4, 2, frozenset()), sat=sat)
    assert cut.hit_code is None


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


def test_roundless_valuation_space_past_cap_is_searched():
    # 3**12 register valuations exceed the space cap, but the first hit is
    # the second configuration discovered
    p = parse_protocol("flavor: roundless\nstates: q0 q1\ninitial: q0\n"
                       "registers: 12\nalphabet: d0 a b\ntransitions:\n"
                       "  q0 write(1, a) q1\n")
    assert p.num_symbols ** p.register_count > oracle.DEFAULT_SPACE_CAP
    cover = cover_constraint(p, p.state_id("q1"))
    v = oracle_prp(p, cover)
    assert (v.answer, v.stats) == ("positive", {"members": 2})
    assert eval_roundless(replay(p, v.witness, ABSTRACT), cover)


def test_criterion_2_seed_refused_before_is_decided_negative():
    # seed 200513's full reach set within its round cap exceeds criterion
    # 2's space cap.  Its universal, (or (reg 1 (+ k 2) x) (pop s0 (+ k
    # 2))), is false on the empty tail past the window, so the compiled
    # constraint is the constant false and the oracle discovers no
    # configuration (the desert-free reach set it would walk has 4 094).
    # rb-search agrees with no footprint search: the protocol has no round
    # bound, its capped window searches nothing either, and the one
    # candidate is refuted
    rng = random.Random(200_513)
    p = random_rb_protocol(rng)
    psi = random_rb_constraint(rng, p)
    assert negated_states(psi) == frozenset()
    K = default_round_cap(p, psi)
    v = oracle_prp(p, psi, max_round=K, space_cap=40_000)
    assert (v.answer, v.stats) == ("negative",
                                   {"members": 0, "max_round": K})
    assert len(reach(p, K, space_cap=40_000, negated=frozenset()).links) \
        == 4094
    with pytest.raises(CapExceeded):
        reach(p, K, space_cap=40_000)
    v = solve_prp_roundbased(p, psi, budget=250_000)
    assert (v.answer, v.stats) == ("negative", {"ticks": 0, "nodes": 0,
                                                "route": "refuted",
                                                "round_bound": None})


@pytest.mark.parametrize("seed", range(100_000, 100_020))
def test_roundless_oracle_matches_full_scan(seed):
    rng = random.Random(seed)
    p = random_protocol(rng)
    for phi in (random_constraint(rng, p),
                cover_constraint(p, rng.randrange(p.num_states))):
        _assert_matches_full_scan(oracle_prp(p, phi),
                                  reach(p, negated=negated_states(phi)),
                                  lambda c: eval_roundless(c, phi))


@pytest.mark.parametrize("seed", [200_001, 200_011, 200_015, 200_035,
                                  200_103, 200_111, 200_217, 200_258])
def test_roundbased_oracle_matches_full_scan(seed):
    rng = random.Random(seed)
    p = random_rb_protocol(rng)
    psi = random_rb_constraint(rng, p)
    K = default_round_cap(p, psi)
    rs = reach(p, K, negated=negated_states(psi))
    _assert_matches_full_scan(
        oracle_prp(p, psi, max_round=K), rs,
        lambda c: eval_roundbased(p, c, psi, active_bound=K + 1))


def _assert_negative_needs_whole_reach_set(psi, n):
    """On FIG4 at round cap 2, the oracle decides ``psi`` negative with a
    cap of ``n`` configurations, the reach set it searches, and refuses it
    with one fewer."""
    assert oracle_prp(FIG4, psi, max_round=2,
                      space_cap=n).answer == "negative"
    with pytest.raises(CapExceeded):
        oracle_prp(FIG4, psi, max_round=2, space_cap=n - 1)


def test_negative_past_cap_still_refused():
    # psi1 negates no state: the oracle searches the desert-free set
    psi1 = parse_round_constraint(CONSTRAINTS["psi1"].text, FIG4)
    assert negated_states(psi1) == frozenset()
    _assert_negative_needs_whole_reach_set(
        psi1, len(members(reach(FIG4, 2, negated=frozenset()))))
    phi = parse_roundless_constraint(CONSTRAINTS["ex26_phi"].text, FIG1)
    negated = negated_states(phi)
    assert negated == {FIG1.state_id("A"), FIG1.state_id("C")}
    n = len(members(reach(FIG1, negated=negated)))
    assert oracle_prp(FIG1, phi, space_cap=n).answer == "negative"
    with pytest.raises(CapExceeded):
        oracle_prp(FIG1, phi, space_cap=n - 1)


def test_negative_past_cap_still_refused_with_desertion():
    psi = parse_round_constraint(
        "(and (exists k (pop qf (+ k 0))) (not (pop D 0)))", FIG4)
    negated = negated_states(psi)
    assert negated == {FIG4.state_id("D")}
    _assert_negative_needs_whole_reach_set(
        psi, len(members(reach(FIG4, 2, negated=negated))))


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


def _negated_here_and_there(rng, node):
    """The constraint with a ``not``, or two, over some of its connectives
    and quantifiers, and now and then a constant child in a connective."""
    kind = type(node)
    if kind is And or kind is Or:
        kids = [_negated_here_and_there(rng, x) for x in node.children]
        if rng.random() < 0.15:
            kids.insert(rng.randrange(len(kids) + 1), rng.choice((TRUE, FALSE)))
        node = kind(tuple(kids))
    elif kind is Exists or kind is Forall:
        node = kind(_negated_here_and_there(rng, node.prop))
    elif kind is Not:
        return Not(_negated_here_and_there(rng, node.child))
    else:
        return node
    roll = rng.random()
    return Not(node) if roll < 0.3 else Not(Not(node)) if roll < 0.4 \
        else node


@pytest.mark.parametrize("flavor", ["roundless", "roundbased"])
def test_compiler_gives_the_parts_of_the_nnf_compiler(flavor):
    # the library's compiler carries the polarity; the reference compiles
    # the constraint's nnf as written.  Tests and constants are equal, and
    # two functions agree on every code of the reach set
    rng = random.Random(f"compiler:{flavor}")
    kinds = collections.Counter()
    for _ in range(100):
        if flavor == "roundless":
            p = random_protocol(rng)
            psis = [random_constraint(rng, p) for _ in range(4)]
        else:
            p = random_rb_protocol(rng)
            psis = [random_rb_constraint(rng, p) for _ in range(4)]
        psis = [_negated_here_and_there(rng, psi) for psi in psis]
        for k in range(4):
            lay = oracle.layout(p, k)
            try:
                codes = list(reach(p, k, space_cap=2000).links)
            except CapExceeded:
                codes = None
            for psi in psis:
                got = oracle._compiled(psi, lay)
                want = compiled_on_nnf(psi, lay)
                if not callable(want):
                    kinds[type(want).__name__] += 1
                    assert type(got) is type(want) and got == want, psi
                    continue
                assert callable(got), psi
                if codes is not None:
                    kinds["function"] += 1
                    got, want = oracle._probe(got), oracle._probe(want)
                    assert all(got(c) == want(c) for c in codes), psi
    assert min(kinds.values()) >= 50, kinds


def test_a_constraint_node_is_never_read_as_a_bit_test():
    # a compiled bit test is a plain tuple; a node, a named tuple too, that
    # reached the compiled parts would fail when called, not be unpacked
    node = PopAt(0, ROUND0)
    for part in (node, Not(node)):
        with pytest.raises(TypeError):
            oracle._probe(part)(0)
        with pytest.raises(TypeError):
            oracle._join(True, [part, part])(0, 0)


@pytest.mark.parametrize("flavor", ["roundless", "roundbased"])
def test_constraint_compiled_to_a_constant_is_that_constant_on_the_reach_set(
        flavor):
    # a universal whose body is false past the window folds to false, an
    # existential whose body is true there to true, and the folds carry up;
    # wherever the compiled constraint is a constant, the reference
    # evaluator gives it on every member of the exhaustive reach set
    folded = {True: 0, False: 0}
    for seed in range(300_000, 300_200):
        rng = random.Random(seed)
        if flavor == "roundless":
            p = random_protocol(rng)
            psis = [random_constraint(rng, p) for _ in range(6)]
            caps = [0]
        else:
            p = random_rb_protocol(rng)
            psis = [random_rb_constraint(rng, p) for _ in range(3)]
            caps = range(4)
        for k in caps:
            parts = [oracle._compiled(psi, oracle.layout(p, k))
                     for psi in psis]
            if not any(isinstance(part, bool) for part in parts):
                continue
            try:
                rs = reach(p, k, space_cap=4000)
            except CapExceeded:
                continue
            for psi, part in zip(psis, parts):
                if not isinstance(part, bool):
                    continue
                folded[part] += 1
                for code in rs.links:
                    c = rs.config(code)
                    holds = eval_roundless(c, psi) if flavor == "roundless" \
                        else eval_roundbased(p, c, psi, active_bound=k + 1)
                    assert holds == part, (seed, k, psi)
    assert min(folded.values()) >= 50, folded


def _counting_packed(decoded, rounds=None, drawn=None):
    """``oracle.packed``, the table builder of ``search``,
    with each decoded code appended to ``decoded``, the round of each
    table entry returned added to the set ``rounds``, and each start code
    drawn appended to ``drawn``."""
    inner = oracle.packed

    def counting(*args):
        starts, table, decode = inner(*args)

        def counted_starts():
            for code in starts:
                if drawn is not None:
                    drawn.append(code)
                yield code

        def counted_table(code):
            entries, above = table(code)
            if rounds is not None:
                rounds.update(Move(*move).rnd for *_, move in entries)
            return entries, above

        def counted(code):
            decoded.append(code)
            return decode(code)
        return counted_starts(), counted_table, counted
    return counting


@pytest.mark.parametrize("proto, name, k", [
    ("fig1", "cover_qf", None), ("fig1", "ex26_phi", None),
    ("fig1_red", "target_qf", None), ("fig4", "psi3", 2), ("fig4", "psi1", 2),
    ("fig4", "psi2", 2), ("fig1", "pop_q0", None)])
def test_search_decodes_only_the_witness_path(monkeypatch, proto, name, k):
    # pop_q0 holds on the start: a 0-move witness, one code decoded, once
    p = PROTOCOLS[proto]
    _, _, decode = packed_window(p, k or 0)  # uncounted
    decoded = []
    monkeypatch.setattr(oracle, "packed", _counting_packed(decoded))
    parse = parse_round_constraint if k is not None \
        else parse_roundless_constraint
    text = "(pop q0)" if name == "pop_q0" else CONSTRAINTS[name].text
    psi = parse(text, p)
    v = oracle_prp(p, psi, max_round=k)
    if v.answer == "negative":
        assert decoded == []
        rs = reach(p, k or 0)
        assert decoded == []
        assert len(members(rs)) == len(rs.links) == len(decoded)
        return
    assert len(set(decoded)) == len(decoded) <= len(v.witness.moves) + 1
    if name == "pop_q0":
        assert (v.witness.moves, len(decoded)) == ((), 1)
    path = replay_configs(p, v.witness, ABSTRACT)
    assert all(decode(code) in path for code in decoded)


def test_search_builds_only_the_rounds_its_codes_reach(monkeypatch):
    # A at round 1 is two moves away: inc, then write; the window holds
    # rounds 0-8, yet no code expanded leaves rounds 0 and 1
    decoded, rounds = [], set()
    monkeypatch.setattr(oracle, "packed", _counting_packed(decoded, rounds))
    v = oracle_prp(FIG4, parse_round_constraint("(pop A 1)", FIG4))
    assert (v.answer, v.stats) == ("positive", {"members": 6, "max_round": 8})
    assert rounds == {0, 1}


def test_search_on_a_constant_false_constraint_builds_nothing(monkeypatch):
    # A is never populated past the window's top round, so the universal is
    # false on the empty tail and the constraint compiles to false: the
    # search draws no start and builds no table round
    decoded, rounds, drawn = [], set(), []
    monkeypatch.setattr(oracle, "packed",
                        _counting_packed(decoded, rounds, drawn))
    psi = parse_round_constraint("(forall k (pop A (+ k 0)))", FIG4)
    assert oracle._compiled(psi, oracle.layout(FIG4, 2)) is False
    assert oracle.search(FIG4, psi, 2) == (0, None)
    v = oracle_prp(FIG4, psi, max_round=2, space_cap=0)
    assert (v.answer, v.stats) == ("negative", {"members": 0, "max_round": 2})
    assert (decoded, rounds, drawn) == ([], set(), [])
    # a constraint that is not constant draws a start and builds round 0
    oracle.search(FIG4, parse_round_constraint("(pop A 1)", FIG4), 2)
    assert drawn and 0 in rounds


def test_roundless_contradiction_discovers_no_configuration():
    phi = parse_roundless_constraint("(and (pop A) (not (pop A)))", FIG1)
    v = oracle_prp(FIG1, phi)
    assert (v.answer, v.stats) == ("negative", {"members": 0})
    v = solve_prp_bounded(FIG1, phi)
    assert (v.answer, v.stats["nodes"]) == ("negative", 0)


@pytest.mark.parametrize("seed", [None] + list(range(300_000, 300_040)))
def test_table_on_demand_is_the_whole_table_up_to_the_codes_top_round(seed):
    # table(code) returns the whole table's entries of rounds up to code's
    # top round, in its order, and the least code above those rounds; no
    # entry of a higher round is enabled on code
    if seed is None:
        cases = [(FIG4, 2)]
    else:
        p = random_rb_protocol(random.Random(seed))
        cases = [(p, k) for k in range(4)]
    for p, k in cases:
        n_rounds, pop, slot, _ = oracle.layout(p, k)
        top_code = pop(p.num_states - 1, n_rounds - 1)
        whole, _ = packed_window(p, k)[1](top_code)
        try:
            rs = reach(p, k, space_cap=4000)  # FIG4 has 3647 at cap 2
        except CapExceeded:
            continue
        tables = {}  # top round -> what a fresh table returns for it
        for code in rs.links:
            top = max(r for _, r in rs.config(code).pop)
            if top not in tables:
                tables[top] = packed_window(p, k)[1](code)
            entries, above = tables[top]
            assert above == 1 << slot(top + 1, 0) > code
            assert entries == [e for e in whole if Move(*e[4]).rnd <= top]
            assert not any(code & mask == want for mask, want, *_, move
                           in whole if Move(*move).rnd > top)


@pytest.mark.parametrize("flavor", ["roundless", "roundbased"])
def test_table_leaves_out_only_steps_that_change_no_code(flavor):
    # every move of the window that the whole table has no entry for, and
    # every enabled move whose entry's test refuses it, yields the
    # configuration it starts from or what the keep entry before it yields
    # (the deserting copy of a self-loop write)
    left_out = refused = 0
    for seed in range(500_000, 500_150):
        rng = random.Random(seed)
        p = random_protocol(rng) if flavor == "roundless" \
            else random_rb_protocol(rng)
        for k in range(4):
            n_rounds, pop, _, _ = oracle.layout(p, k)
            whole, _ = packed_window(p, k)[1](
                pop(p.num_states - 1, n_rounds - 1))
            entries = {Move(*e[4]): e[:2] for e in whole}
            moves = [Move(t, r, d) for t in p.transitions
                     for r in range(k + 1 - (t.action.kind == INC))
                     for d in (False, True)]
            try:
                rs = reach(p, k, space_cap=2000)
            except CapExceeded:
                continue
            for code in rs.links:
                for m in moves:
                    test = entries.get(m)
                    if test is not None and code & test[0] == test[1] \
                            or not code & pop(m.trans.source, m.rnd):
                        continue
                    c = rs.config(code)
                    try:
                        succ = abstract_step(p, c, m)
                    except NotEnabled:
                        continue
                    if test is not None:
                        refused += 1
                        assert succ == c, (seed, k, m)
                        continue
                    left_out += 1
                    keep = m._replace(desert=False)
                    assert succ == c or m.desert and keep in entries and \
                        succ == abstract_step(p, c, keep), (seed, k, m)
    assert left_out >= 1000 and refused >= 500, (left_out, refused)


# --- the start and desert cut for negated states -----------------------------

@pytest.mark.parametrize("flavor", ["roundless", "roundbased"])
def test_desert_free_search_keeps_hits_and_witness_lengths(flavor):
    # the oracle, bounded and both rb-search routes rely on this lemma, so
    # differential fuzzing between them cannot check it; "mixed" counts the
    # cases that cut both starts and deserts without removing either
    hits = misses = mixed = 0
    for seed in range(400_000, 400_300):
        rng = random.Random(seed)
        if flavor == "roundless":
            p = random_protocol(rng)
            psis = [random_constraint(rng, p) for _ in range(6)]
            caps = [0]
        else:
            p = random_rb_protocol(rng)
            psis = [random_rb_constraint(rng, p) for _ in range(6)]
            caps = range(4)
        for psi in psis:
            negated = negated_states(psi)
            for k in caps:
                sat = compile_constraint(p, psi, k)
                try:
                    full = packed_bfs(*packed_window(p, k), 4000, sat)
                except CapExceeded:
                    continue
                cut = packed_bfs(*packed_window(p, k, negated), sat=sat)
                mixed += len(p.initial_states) >= 2 and \
                    0 < len(negated) < p.num_states
                assert (full.hit_code is None) == (cut.hit_code is None)
                if full.hit_code is None:
                    misses += 1
                    continue
                hits += 1
                assert len(cut.witness().moves) == \
                    len(full.witness().moves), (seed, psi, k)
    assert hits >= 1000 and misses >= 500 and mixed >= 400, \
        (hits, misses, mixed)


# --- the one positive check, on every route that builds a witness ------------

EX42 = PROTOCOLS["ex42"]


def _positives():
    """A positive question per route that builds a witness: name -> call."""
    qf = FIG1.state_id("qf")
    psi3 = parse_round_constraint(CONSTRAINTS["psi3"].text, FIG4)
    ex42_b = parse_round_constraint(CONSTRAINTS["ex42_b"].text, EX42)
    return {
        "oracle-roundless":
            lambda: oracle_prp(FIG1, cover_constraint(FIG1, qf)),
        "oracle-roundbased": lambda: oracle_prp(FIG4, psi3, max_round=2),
        "bounded": lambda: solve_prp_bounded(FIG1, cover_constraint(FIG1, qf)),
        # EX42 has a round bound, FIG4 has none
        "round-window": lambda: solve_prp_roundbased(EX42, ex42_b),
        "footprints": lambda: solve_prp_roundbased(FIG4, psi3)}


@pytest.mark.parametrize("route", sorted(_positives()))
def test_witness_the_evaluator_rejects_raises_replay_failure(monkeypatch,
                                                             route):
    call = _positives()[route]
    v = call()
    assert v.answer == "positive"
    if v.algorithm == "rb-search":
        assert v.stats["route"] == route
    monkeypatch.setattr(oracle, "eval_roundless", lambda *a, **k: False)
    monkeypatch.setattr(oracle, "eval_roundbased", lambda *a, **k: False)
    with pytest.raises(ReplayFailure,
                       match="witness does not satisfy the constraint"):
        call()


def test_witness_that_misses_the_hit_raises_replay_failure(monkeypatch):
    # the replay ends elsewhere, at a configuration the evaluator accepts
    elsewhere = roundless_config((), (0,))
    monkeypatch.setattr(oracle, "replay", lambda p, w, mode: elsewhere)
    monkeypatch.setattr(oracle, "eval_roundless", lambda *a, **k: True)
    phi = cover_constraint(FIG1, FIG1.state_id("qf"))
    for call in (lambda: oracle_prp(FIG1, phi),
                 lambda: solve_prp_bounded(FIG1, phi)):
        with pytest.raises(ReplayFailure, match="witness misses the hit"):
            call()
