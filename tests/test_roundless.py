"""Roundless solver tests: golden examples, reductions, oracle fuzzing."""

import collections
import random

import pytest

from regverify.constraints import (ROUND0, And, RegAt, cover_constraint,
                                   dnf_clauses, eval_roundless,
                                   parse_roundless_constraint,
                                   target_constraint)
from regverify.errors import (CapExceeded, Incompatible, NotDNF,
                              NotUninitialized, WrongRegisterCount)
from regverify.model import Protocol, is_uninitialized, parse_protocol
from regverify.oracle import oracle_prp
from regverify.reductions import (CnfFormula, builtin_examples,
                                  sat_to_cover, truth_table_satisfiable)
from regverify import roundless
from regverify.roundbased import solve_prp_roundbased
from regverify.roundless import (reduce_initialized_to_uninit_r1,
                                 solve_cover_fixed_r,
                                 solve_cover_uninitialized,
                                 solve_dnfprp_one_register, solve_prp_bounded)
from regverify.semantics import ABSTRACT, replay

from generators import (random_constraint, random_dnf_constraint,
                        random_protocol)
from lemmas import clause_holds, reduce_cover_to_target
from reference import (abstract_successors, compute_cocov_set,
                       compute_cov_set, first_write_orders,
                       fixed_r_exhaustive, members, reach,
                       rescanning_closure, rescanning_cocov_set,
                       rescanning_cov_set, roundless_config,
                       saturate_phases, validate)

PROTOCOLS, CONSTRAINTS = builtin_examples()
FIG1 = PROTOCOLS["fig1"]
FIG1_BLUE = PROTOCOLS["fig1_blue"]
FIG1_RED = PROTOCOLS["fig1_red"]


def rl(p, text):
    return parse_roundless_constraint(text, p)


# --- bounded search -----------------------------------------------------------

def test_bounded_cover_fig1_positive_with_short_witness():
    phi = rl(FIG1, "(pop qf)")
    v = solve_prp_bounded(FIG1, phi)
    assert v.answer == "positive"
    assert v.witness == oracle_prp(FIG1, phi).witness
    assert len(v.witness.moves) == 5
    final = replay(FIG1, v.witness, ABSTRACT)
    assert (FIG1.state_id("qf"), 0) in final.pop


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
            assert eval_roundless(replay(p, v.witness, ABSTRACT), phi), seed


@pytest.mark.parametrize("r", [5, 6, 7, 8])
def test_bounded_finds_a_witness_deeper_than_four_per_state(r):
    # one state writes a to each of its r registers, and every register
    # must hold a: the only hit is r levels deep, past 4|Q| = 4
    p = parse_protocol(
        "flavor: roundless\nstates: q0\ninitial: q0\n"
        f"registers: {r}\nalphabet: d0 a\ntransitions:\n"
        + "".join(f"  q0 write({j}, a) q0\n" for j in range(1, r + 1)))
    phi = rl(p, "(and" + "".join(f" (reg {j} a)"
                                 for j in range(1, r + 1)) + ")")
    v = solve_prp_bounded(p, phi)
    want = oracle_prp(p, phi)
    assert (v.answer, v.witness) == ("positive", want.witness)
    assert [m.trans.action.reg for m in v.witness.moves] == list(range(r))
    assert v.stats == {"nodes": 2 ** r}
    assert eval_roundless(replay(p, v.witness, ABSTRACT), phi)


def test_bounded_agrees_with_the_oracle_on_register_heavy_constraints():
    # every register is read, so a hit may lie deeper than 4|Q| levels:
    # the short-witness argument bounds presence patterns, not registers
    questions = positives = 0
    for seed in range(600_000, 600_400):
        for ms in (1, 2):
            rng = random.Random(seed)
            p = random_protocol(rng, max_states=ms, max_symbols=3,
                                max_regs=10, max_trans=30)
            if p.num_symbols < 2:
                continue
            regs = rng.sample(range(p.register_count), p.register_count)
            phi = And(tuple(RegAt(j, ROUND0, rng.randrange(1, p.num_symbols))
                            for j in regs))
            v = solve_prp_bounded(p, phi)
            want = oracle_prp(p, phi)
            assert (v.answer, v.witness) == (want.answer, want.witness), \
                (seed, ms)
            questions += 1
            positives += v.answer == "positive"
    assert (questions, positives) == (566, 178)


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
    st = solve_cover_uninitialized(q, q.state_id("d")).stats
    assert st["covered"] == ["a", "b", "c", "d"]
    assert st["iterations"] <= q.num_states + 1


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
        populated = {q for c in members(reach(p)) for q, _ in c.pop}
        phases = set().union(*(saturate_phases(p, o)
                               for o in first_write_orders(p)))
        assert phases == populated, name
        if is_uninitialized(p):
            covered = solve_cover_uninitialized(p, 0).stats["covered"]
            assert covered == sorted(p.state_names[q] for q in populated), \
                name
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

    def checked_closure(S, transitions, opened, writes):
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
            solve_cover_uninitialized(p, 0)
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

    def qualifies(S: frozenset) -> bool:
        for a in range(p.num_symbols):
            start = roundless_config(S, (a,))
            seen, stack, good = {start}, [start], False
            while stack:
                c = stack.pop()
                if clause_holds(dec, c):
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


def test_dnfprp_distributed_example_26_negative():
    # example 2.6 is not in DNF: one-reg distributes it into 2 clauses and
    # answers as bounded does
    phi = rl(FIG1, CONSTRAINTS["ex26_phi"].text)
    v = solve_dnfprp_one_register(FIG1, phi)
    assert (v.answer, v.stats) == ("negative", {"clauses": 2})
    assert solve_prp_bounded(FIG1, phi).answer == "negative"


def test_dnfprp_distributed_agrees_with_bounded():
    checked = 0
    for seed in range(100000, 100400):
        rng = random.Random(seed)
        p = random_protocol(rng)
        if p.register_count != 1:
            continue
        phi = random_constraint(rng, p)
        assert (solve_dnfprp_one_register(p, phi).answer
                == solve_prp_bounded(p, phi).answer), seed
        checked += 1
    assert checked > 100


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


# --- each route refuses the flavor it does not decide -------------------------

def _cover_qf(solve):
    return lambda p: solve(p, cover_constraint(p, p.state_id("qf")))


@pytest.mark.parametrize("route, solve", [
    ("bounded", _cover_qf(solve_prp_bounded)),
    ("saturation", lambda p: solve_cover_uninitialized(p, p.state_id("qf"))),
    ("fixed-r", lambda p: solve_cover_fixed_r(p, p.state_id("qf"))),
    ("one-reg", _cover_qf(solve_dnfprp_one_register)),
    ("reduction", reduce_initialized_to_uninit_r1),
    ("rb-search", _cover_qf(solve_prp_roundbased))],
    ids=["bounded", "saturation", "fixed-r", "one-reg", "reduction",
         "rb-search"])
def test_solver_refuses_the_other_flavor(route, solve):
    # fig4 is round-based and fig1 roundless; both have one register and a
    # state qf, so the flavor is all that is outside the route
    flavor = "round-based" if route == "rb-search" else "roundless"
    p = PROTOCOLS["fig1" if route == "rb-search" else "fig4"]
    with pytest.raises(Incompatible) as info:
        solve(p)
    assert str(info.value) == f"{route} decides {flavor} protocols only"


def test_every_precondition_refusal_is_incompatible():
    # the CLI exits 65 on an Incompatible refusal and 70 on any other error
    for cls in (NotDNF, NotUninitialized, WrongRegisterCount, CapExceeded):
        assert issubclass(cls, Incompatible), cls
