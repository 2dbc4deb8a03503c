"""Roundless solver tests: golden examples, reductions, oracle fuzzing."""

import collections
import random

import pytest

from regverify.constraints import (cover_constraint, dnf_clauses,
                                   eval_roundless, parse_roundless_constraint,
                                   target_constraint, to_dnf)
from regverify.errors import (NotDNF, NotUninitialized, WrongRegisterCount)
from regverify.model import (D0, READ, ROUNDLESS, WRITE, Action, Protocol,
                             Transition, is_uninitialized, parse_protocol,
                             validate)
from regverify.oracle import oracle_prp, reach
from regverify.reductions import (CnfFormula, builtin_examples,
                                  sat_to_cover, truth_table_satisfiable)
from regverify import roundless
from regverify.roundless import (compute_cocov_set, compute_cov_set,
                                 reduce_initialized_to_uninit_r1,
                                 saturate_uninitialized,
                                 solve_cover_fixed_r,
                                 solve_cover_uninitialized,
                                 solve_dnfprp_one_register, solve_prp_bounded,
                                 witness_bound)
from regverify.semantics import ABSTRACT, replay

from generators import (random_constraint, random_dnf_constraint,
                        random_protocol)
from lemmas import clause_holds, reduce_cover_to_target
from reference import (first_write_orders, fixed_r_exhaustive,
                       rescanning_closure, rescanning_cocov_set,
                       rescanning_cov_set, saturate_phases)

PROTOCOLS, CONSTRAINTS = builtin_examples()
FIG1 = PROTOCOLS["fig1"]
FIG1_BLUE = PROTOCOLS["fig1_blue"]
FIG1_RED = PROTOCOLS["fig1_red"]


def rl(p, text):
    return parse_roundless_constraint(text, p)


# --- bounded search -----------------------------------------------------------

def test_bounded_cover_fig1_positive_with_short_witness():
    v = solve_prp_bounded(FIG1, rl(FIG1, "(pop qf)"))
    assert v.answer == "positive"
    assert len(v.witness.moves) <= witness_bound(FIG1) == 20
    final = replay(FIG1, v.witness, ABSTRACT)
    assert FIG1.state_id("qf") in final.pop


def test_bounded_prp_example_26_negative():
    phi = rl(FIG1, CONSTRAINTS["ex26_phi"].text)
    assert solve_prp_bounded(FIG1, phi).answer == "negative"


def test_bounded_cover_blue_negative():
    assert solve_prp_bounded(FIG1_BLUE,
                             rl(FIG1_BLUE, "(pop qf)")).answer == "negative"


def test_bounded_witness_is_the_oracles_shortest_witness():
    # the seeds and constraints of acceptance criterion 2
    for seed in range(100_000, 100_200):
        rng = random.Random(seed)
        p = random_protocol(rng)
        phi = random_constraint(rng, p)
        v = solve_prp_bounded(p, phi)
        want = oracle_prp(p, phi)
        assert (v.answer, v.witness) == (want.answer, want.witness), seed
        if v.witness is not None:
            assert len(v.witness.moves) <= witness_bound(p), seed
            assert eval_roundless(replay(p, v.witness, ABSTRACT), phi), seed


# --- uninitialized saturation ---------------------------------------------------

def test_saturation_rejects_initialized():
    with pytest.raises(NotUninitialized):
        solve_cover_uninitialized(FIG1, FIG1.state_id("qf"))


def test_saturation_no_incoming_transition():
    p = parse_protocol("flavor: roundless\nstates: q0 lost\ninitial: q0\n"
                       "registers: 1\nalphabet: d0 a\ntransitions:\n"
                       "  q0 write(1, a) q0\n")
    assert solve_cover_uninitialized(p, p.state_id("lost")).answer == "negative"


def test_saturation_monotone_and_bounded_iterations():
    p, _ = __import__("regverify.reductions", fromlist=["sat_to_cover"]) \
        .sat_to_cover(__import__("regverify.reductions",
                                 fromlist=["CnfFormula"]).CnfFormula(
            2, ((1, -2, 2), (-1, 1, 2))))
    # sat_to_cover output is initialized (reads d0); build an uninit variant
    q = parse_protocol("flavor: roundless\nstates: a b c d\ninitial: a\n"
                       "registers: 2\nalphabet: d0 x y\ntransitions:\n"
                       "  a write(1, x) b\n  b read(1, x) c\n"
                       "  c write(2, y) d\n")
    st = saturate_uninitialized(q)
    assert st.covered == {0, 1, 2, 3}
    assert st.iterations <= q.num_states + 1


# --- fixed-r order enumeration ---------------------------------------------------

def test_fixed_r_cover_fig1_positive():
    assert solve_cover_fixed_r(FIG1, FIG1.state_id("qf")).answer == "positive"


def test_fixed_r_cover_blue_negative():
    assert solve_cover_fixed_r(
        FIG1_BLUE, FIG1_BLUE.state_id("qf")).answer == "negative"


def test_first_write_orders_enumeration():
    p = parse_protocol("flavor: roundless\nstates: q0\ninitial: q0\n"
                       "registers: 2\nalphabet: d0 a\ntransitions:\n")
    orders = list(first_write_orders(p))
    assert orders == [(), (0,), (1,), (0, 1), (1, 0)]


def test_closure_routes_cover_exactly_the_reachable_states():
    # saturation, the fixed-r phases and covset each compute the coverable
    # states through the same closure; check them against the full reach set.
    # The first protocol needs a write to open its register for good: B,
    # which reads d0 after the only way into A wrote the register, is not
    # coverable.  Random protocols seldom show that (3 seeds in 2000).
    protocols = [("write-opens", parse_protocol(
        "flavor: roundless\nstates: q0 A B\ninitial: q0\nregisters: 1\n"
        "alphabet: d0 a\ntransitions:\n  q0 write(1, a) A\n"
        "  A read(1, d0) B\n"))]
    for seed in range(100_000, 100_200):
        protocols.append((seed, random_protocol(
            random.Random(seed), max_states=8, max_regs=3,
            uninitialized=seed % 2 == 0)))
    for name, p in protocols:
        populated = set().union(*(c.pop for c in reach(p).members))
        phases = set().union(*(saturate_phases(p, o)
                               for o in first_write_orders(p)))
        assert phases == populated, name
        if is_uninitialized(p):
            assert saturate_uninitialized(p).covered == populated, name
            if p.register_count == 1:
                assert compute_cov_set(p) == populated, name


def test_fixed_r_matches_trying_every_order():
    # the pruned prefix search gives the verdict and the winning order of
    # trying every first-write order, and closes a subset of its prefixes
    fewer = 0
    for seed in range(100_000, 103_000):
        p = random_protocol(random.Random(seed), max_states=8, max_regs=4,
                            max_trans=20, uninitialized=seed % 3 == 0)
        for target in range(p.num_states):
            got = solve_cover_fixed_r(p, target)
            want = fixed_r_exhaustive(p, target)
            assert got.answer == want.answer, (seed, target)
            assert got.stats.get("order") == want.stats.get("order"), \
                (seed, target)
            closed = got.stats["orders_tried"]
            assert closed <= want.stats["prefixes_closed"], (seed, target)
            fewer += closed < want.stats["prefixes_closed"]
    assert fewer > 0


def test_indexed_closures_match_the_rescanning_references(monkeypatch):
    # every closure that saturation, the fixed-r phases, the initial-phase
    # fold and the one-register pruning loop run equals the rescanning
    # reference's, in its set and its number of passes; so does every
    # cocovset, and covset and cocovset on random alive subsets
    closure, cocov = roundless._closure, roundless._cocov_set
    calls = collections.Counter()

    def checked_closure(S, transitions, opened, writes=None):
        got = closure(S, transitions, opened, writes)
        assert got == rescanning_closure(S, transitions, opened)
        calls["closure"] += 1
        return got

    def checked_cocov(p, clause, alive, reads, writes):
        got = cocov(p, clause, alive, reads, writes)
        assert got == rescanning_cocov_set(p, clause, alive)
        calls["cocov", alive != set(range(p.num_states))] += 1
        return got

    monkeypatch.setattr(roundless, "_closure", checked_closure)
    monkeypatch.setattr(roundless, "_cocov_set", checked_cocov)
    for seed in range(100_000, 100_300):
        rng = random.Random(seed)
        p = random_protocol(rng, max_states=8, max_symbols=4,
                            max_regs=1 if seed % 2 else 3, max_trans=20,
                            uninitialized=seed % 3 == 0)
        for target in range(p.num_states):
            solve_cover_fixed_r(p, target)
        if is_uninitialized(p):
            saturate_uninitialized(p)
        if p.register_count != 1:
            continue
        phi = random_dnf_constraint(rng, p)
        solve_dnfprp_one_register(p, phi)
        pu = reduce_initialized_to_uninit_r1(p)
        for dec in dnf_clauses(pu, phi):
            for _ in range(3):
                alive = {q for q in range(p.num_states) if rng.random() < 0.7}
                assert compute_cov_set(pu, alive) == \
                    rescanning_cov_set(pu, alive), seed
                compute_cocov_set(pu, dec, alive)
    assert calls["closure"] > 3_000
    assert calls["cocov", True] > 500 and calls["cocov", False] > 200


def _sat_cover(n, m, seed):
    """The formula ``regverify gen sat-cover`` draws, as a COVER instance."""
    rng = random.Random(seed)
    cnf = CnfFormula(n, tuple(
        tuple(rng.choice((j, -j)) for j in rng.choices(range(1, n + 1), k=3))
        for _ in range(m)))
    return cnf, *sat_to_cover(cnf)


@pytest.mark.parametrize("n, m, seed, closed", [(3, 16, 2, 222),
                                                (5, 40, 1, 8140)])
def test_fixed_r_unsatisfiable_sat_cover_pins_prefixes_closed(n, m, seed,
                                                              closed):
    # an unsatisfiable formula settles every first-write order; the pruned
    # search closes these many prefixes, the empty one included
    cnf, p, qf = _sat_cover(n, m, seed)
    assert p.register_count == 2 * n
    assert not truth_table_satisfiable(cnf)
    v = solve_cover_fixed_r(p, qf)
    assert v.answer == "negative"
    assert v.stats["orders_tried"] == closed
    if n == 3:  # trying every order over 6 registers tries all 1 957
        assert fixed_r_exhaustive(p, qf).stats["orders_tried"] == 1957


# --- joker reduction --------------------------------------------------------------

def test_reduce_cover_to_target_shape_and_answers():
    p2, err = reduce_cover_to_target(FIG1, FIG1.state_id("qf"))
    assert p2.num_symbols == 5
    assert len(p2.transitions) == 8 + 1 + 5
    assert validate(p2) == []
    target = target_constraint(p2, err)
    assert oracle_prp(p2, target).answer == "positive"
    blue2, errb = reduce_cover_to_target(FIG1_BLUE, FIG1_BLUE.state_id("qf"))
    assert oracle_prp(blue2, target_constraint(blue2, errb)).answer == \
        "negative"


def test_reduce_cover_to_target_initial_error_no_transitions():
    p = parse_protocol("flavor: roundless\nstates: e\ninitial: e\n"
                       "registers: 1\nalphabet: d0\ntransitions:\n")
    p2, err = reduce_cover_to_target(p, 0)
    assert oracle_prp(p2, target_constraint(p2, err)).answer == "positive"


# --- initialized-to-uninitialized reduction ----------------------------------------

def test_init_reduction_fig1():
    pu = reduce_initialized_to_uninit_r1(FIG1)
    assert pu.initial_states == {FIG1.state_id(q) for q in ("q0", "B", "C")}
    assert is_uninitialized(pu)
    assert len(pu.transitions) == 6


def test_init_reduction_already_uninitialized():
    p = parse_protocol("flavor: roundless\nstates: q0 A\ninitial: q0\n"
                       "registers: 1\nalphabet: d0 a\ntransitions:\n"
                       "  q0 write(1, a) A\n")
    pu = reduce_initialized_to_uninit_r1(p)
    assert pu.initial_states == p.initial_states
    assert pu.transitions == p.transitions


def test_init_reduction_needs_one_register():
    p = parse_protocol("flavor: roundless\nstates: q0\ninitial: q0\n"
                       "registers: 2\nalphabet: d0\ntransitions:\n")
    with pytest.raises(WrongRegisterCount):
        reduce_initialized_to_uninit_r1(p)


def test_init_reduction_preserves_prp():
    rng = random.Random(17)
    for _ in range(100):
        p = random_protocol(rng, max_states=4, max_symbols=3, max_regs=1,
                            max_trans=8)
        phi = random_constraint(rng, p)
        pu = reduce_initialized_to_uninit_r1(p)
        assert oracle_prp(p, phi).answer == oracle_prp(pu, phi).answer


# --- covset / cocovset / one-register DNF -------------------------------------------

def test_covset_on_red_variant():
    pu = reduce_initialized_to_uninit_r1(FIG1_RED)
    assert compute_cov_set(pu) == set(range(5))


def test_covset_no_transitions():
    p = parse_protocol("flavor: roundless\nstates: q0 A\ninitial: q0\n"
                       "registers: 1\nalphabet: d0\ntransitions:\n")
    assert compute_cov_set(p) == {0}


def test_covset_blue_excludes_qf():
    pu = reduce_initialized_to_uninit_r1(FIG1_BLUE)
    assert FIG1_BLUE.state_id("qf") not in compute_cov_set(pu)


def test_covset_union_closure():
    # computed from the full initial set = union over singleton initial sets
    rng = random.Random(19)
    for _ in range(60):
        p = random_protocol(rng, max_states=5, max_symbols=3, max_regs=1,
                            max_trans=10, uninitialized=True, min_initial=2)
        full = compute_cov_set(p)
        union = set()
        for q in p.initial_states:
            single = Protocol(flavor=p.flavor, state_names=p.state_names,
                              initial_states=frozenset({q}),
                              register_count=1, symbol_names=p.symbol_names,
                              transitions=p.transitions)
            union |= compute_cov_set(single)
        assert full == union


def test_cocov_q_minus_everything_is_empty():
    pu = reduce_initialized_to_uninit_r1(FIG1)
    [dec] = dnf_clauses(pu, rl(pu, "(and (not (pop q0)) (not (pop A)) "
                                   "(not (pop B)) (not (pop C)) "
                                   "(not (pop qf)))"))
    assert compute_cocov_set(pu, dec) == set()


def cocov_oracle(p: Protocol, dec) -> set:
    """Independent backward check: union of all sets S such that from (S, a),
    for every symbol a, some clause-satisfying configuration is reachable."""
    import itertools

    from regverify.semantics import AbstractConfig, abstract_successors

    def qualifies(S: frozenset) -> bool:
        for a in range(p.num_symbols):
            start = AbstractConfig(S, (a,))
            seen, stack, good = {start}, [start], False
            while stack:
                c = stack.pop()
                if dec.satisfiable and clause_holds(dec, c.pop, c.regs):
                    good = True
                    break
                for _, s in abstract_successors(p, c):
                    if s not in seen:
                        seen.add(s)
                        stack.append(s)
            if not good:
                return False
        return True

    best: set = set()
    states = list(range(p.num_states))
    for r in range(1, len(states) + 1):
        for combo in itertools.combinations(states, r):
            S = frozenset(combo)
            if not S <= best and qualifies(S):
                best |= S
    return best


def test_cocov_red_target_matches_backward_oracle():
    # the backward oracle derives {q0, A, C, qf}: after the initial-phase
    # reduction B has no outgoing transition left, so it can never be
    # deserted and sits on no synchronizing execution
    pu = reduce_initialized_to_uninit_r1(FIG1_RED)
    [dec] = dnf_clauses(pu, rl(pu, CONSTRAINTS["target_qf"].text))
    expected = {FIG1_RED.state_id(q) for q in ("q0", "A", "C", "qf")}
    assert cocov_oracle(pu, dec) == expected
    assert compute_cocov_set(pu, dec) == expected


def test_cocov_fig1_target_proper_subset():
    # the backward fixpoint demands a write phase, so it misses sets that
    # only qualify through the empty execution ({qf} here); the dnfprp
    # solver screens those zero-step witnesses separately
    pu = reduce_initialized_to_uninit_r1(FIG1)
    [dec] = dnf_clauses(pu, rl(pu, CONSTRAINTS["target_qf"].text))
    got = compute_cocov_set(pu, dec)
    assert got == set()
    assert cocov_oracle(pu, dec) == {FIG1.state_id("qf")}
    assert not {FIG1.state_id("A"), FIG1.state_id("C")} <= got


def test_dnfprp_golden():
    target = CONSTRAINTS["target_qf"].text
    assert solve_dnfprp_one_register(
        FIG1_RED, rl(FIG1_RED, target)).answer == "positive"
    assert solve_dnfprp_one_register(
        FIG1, rl(FIG1, target)).answer == "negative"
    assert solve_dnfprp_one_register(
        FIG1, rl(FIG1, "(pop qf)")).answer == "positive"


def test_dnfprp_rejects_non_dnf():
    phi = rl(FIG1, CONSTRAINTS["ex26_phi"].text)
    with pytest.raises(NotDNF):
        solve_dnfprp_one_register(FIG1, phi)


def test_dnfprp_distributed_example_26_negative():
    phi = to_dnf(rl(FIG1, CONSTRAINTS["ex26_phi"].text))
    assert solve_dnfprp_one_register(FIG1, phi).answer == "negative"


def test_dnfprp_wrong_register_count():
    p = parse_protocol("flavor: roundless\nstates: q0\ninitial: q0\n"
                       "registers: 2\nalphabet: d0\ntransitions:\n")
    with pytest.raises(WrongRegisterCount):
        solve_dnfprp_one_register(p, rl(p, "(pop q0)"))


def test_dnfprp_zero_step_witness_without_writes():
    p = parse_protocol("flavor: roundless\nstates: q0\ninitial: q0\n"
                       "registers: 1\nalphabet: d0\ntransitions:\n")
    assert solve_dnfprp_one_register(p, rl(p, "(pop q0)")).answer == "positive"
    assert oracle_prp(p, rl(p, "(pop q0)")).answer == "positive"


def test_bounded_search_agrees_with_oracle_smoke():
    rng = random.Random(101)
    for _ in range(150):
        p = random_protocol(rng)
        phi = random_constraint(rng, p)
        assert solve_prp_bounded(p, phi).answer == oracle_prp(p, phi).answer


def test_cover_routes_agree_with_oracle_smoke():
    rng = random.Random(103)
    for _ in range(150):
        p = random_protocol(rng)
        if p.num_states == 0:
            continue
        target = rng.randrange(p.num_states)
        want = oracle_prp(p, cover_constraint(p, target)).answer
        assert solve_cover_fixed_r(p, target).answer == want
        if is_uninitialized(p):
            assert solve_cover_uninitialized(p, target).answer == want
        if p.register_count == 1:
            assert solve_dnfprp_one_register(
                p, cover_constraint(p, target)).answer == want
