"""Round-based solver tests: goldens, witnesses, oracle-agreement fuzz."""

import random

import pytest

from regverify import roundbased
from regverify import oracle
from regverify.constraints import (And, Not, Or, PopAt, RegAt, Term,
                                   decompose_apcs, eval_roundbased,
                                   max_constant, negated_states,
                                   parse_round_constraint)
from regverify.errors import CapExceeded
from regverify.model import INC, Protocol, parse_protocol, serialize_protocol
from regverify.oracle import (_join, default_round_cap, layout, oracle_prp,
                              search)
from regverify.reductions import (Circuit, builtin_examples, cvp_to_cover,
                                  evaluate_circuit)
from regverify.roundbased import (_footprint_search, _refuted, _round_bound,
                                  solve_prp_roundbased)
from regverify.semantics import ABSTRACT, replay

from generators import random_rb_constraint, random_rb_protocol
from reference import contradictory, footprint_verdict, lift_roundless

PROTOCOLS, CONSTRAINTS = builtin_examples()
FIG4 = PROTOCOLS["fig4"]


def rb(p, text):
    return parse_round_constraint(text, p)


def rb_protocol(transitions: str, states="a b c d",
                symbols="d0 x y") -> Protocol:
    """One register, visibility 1, the first state initial."""
    return parse_protocol(
        f"flavor: roundbased\nstates: {states}\n"
        f"initial: {states.split()[0]}\nregisters: 1\n"
        f"alphabet: {symbols}\nvisibility: 1\ntransitions:\n{transitions}")


# an increment chain a -> b -> c with a write at every round: round bound 2
WINDOW_CHAIN = ("  a inc b\n  b inc c\n  a write(1, x) a\n  b write(1, x) b\n"
                "  c read(-1, 1, x) c\n  c write(1, x) c\n")


def test_psi3_positive_with_replayable_witness():
    psi = rb(FIG4, CONSTRAINTS["psi3"].text)
    v = solve_prp_roundbased(FIG4, psi)
    assert v.answer == "positive"
    final = replay(FIG4, v.witness, ABSTRACT)
    assert eval_roundbased(FIG4, final, psi)


def test_cover_e_positive():
    psi = rb(FIG4, "(exists k (pop E (+ k 0)))")
    v = solve_prp_roundbased(FIG4, psi)
    assert v.answer == "positive"
    final = replay(FIG4, v.witness, ABSTRACT)
    assert any(q == FIG4.state_id("E") for q, _ in final.pop)


def test_unknown_on_tiny_budget():
    psi = rb(FIG4, CONSTRAINTS["psi1"].text)
    v = solve_prp_roundbased(FIG4, psi, budget=50)
    assert v.answer == "unknown"


def test_initial_configuration_alone_can_satisfy():
    psi = rb(FIG4, "(and (pop q0 0) (reg 1 0 d0))")
    v = solve_prp_roundbased(FIG4, psi)
    assert v.answer == "positive"
    assert v.witness.moves == ()


def test_unsatisfiable_constraint_negative_immediately():
    # FIG4 has no round bound, so the capped window runs; the existential
    # compiles to an inequality test of qf's bits, its negation to the
    # equality test of the same bits, and ``_join`` folds the two to false,
    # so the window discovers no configuration.  The constraint has no
    # candidate obligation set
    psi = rb(FIG4, "(and (exists k (pop qf (+ k 0))) "
                   "(not (exists k (pop qf (+ k 0)))))")
    assert decompose_apcs(psi) == []
    v = solve_prp_roundbased(FIG4, psi)
    assert v.answer == "negative"
    assert v.stats == {"ticks": 0, "nodes": 0, "route": "refuted",
                       "round_bound": None}


def test_forever_blank_register_demand():
    # asks every round's register to hold a forever: impossible on the tail
    psi = rb(FIG4, "(forall k (reg 1 (+ k 0) a))")
    v = solve_prp_roundbased(FIG4, psi)
    assert v.answer == "negative"


def test_tail_satisfied_universal_with_closed_anchor():
    # constant-round atom inside a universal: resolved into a checked literal
    psi = rb(FIG4, "(forall k (or (reg 1 0 a) (not (pop qf (+ k 0)))))")
    v = solve_prp_roundbased(FIG4, psi)
    assert v.answer == "positive"
    final = replay(FIG4, v.witness, ABSTRACT)
    assert eval_roundbased(FIG4, final, psi)


def test_stop_checks_universals_at_the_next_round():
    # the deserting increment empties q0@0 but populates q1@1, which the
    # universal forbids: stopping at round 0 must look at round 1
    p = parse_protocol("flavor: roundbased\nstates: q0 q1\ninitial: q0\n"
                       "registers: 1\nalphabet: d0\nvisibility: 1\n"
                       "transitions:\n  q0 inc q1\n")
    psi = rb(p, "(and (not (pop q0 0)) (forall k (not (pop q1 (+ k 0)))))")
    assert solve_prp_roundbased(p, psi).answer == "negative"
    want = oracle_prp(p, psi, max_round=default_round_cap(p, psi))
    assert want.answer == "negative"


@pytest.mark.parametrize("text, answer", [
    ("(and (not (pop q0 0)) (not (pop q1 1)))", "negative"),
    ("(and (not (pop q0 0)) (pop q1 1))", "positive"),
    ("(and (not (pop q0 0)) (forall k (not (pop q1 (+ k 0)))))", "negative"),
])
def test_footprint_stop_reads_the_next_rounds_population(text, answer):
    # the deserting increment empties q0@0 and populates q1@1, so stopping
    # at round 0 must read round 1's population.  The protocol has a round
    # bound and would take the round window: call the footprint search
    p = rb_protocol("  q0 inc q1\n", states="q0 q1", symbols="d0")
    psi = rb(p, text)
    got = footprint_verdict(p, psi, 10_000)
    assert got.answer == answer
    assert oracle_prp(p, psi).answer == answer
    if answer == "positive":
        assert got.stats["nodes"] == 1  # accepted at round 0


def test_repeated_query_gives_identical_answer_and_stats():
    # a protocol no other test builds, so the first call here is the first
    # on it in the process; the budget sits between the tick counts a
    # process-wide edge cache charged cold (6480) and warm (4520)
    p = parse_protocol(serialize_protocol(FIG4) + "  B inc C\n")
    psi = rb(p, CONSTRAINTS["psi1"].text)
    first, second = (solve_prp_roundbased(p, psi, budget=5_000)
                     for _ in range(2))
    assert first.answer == second.answer == "positive"
    assert first.stats == second.stats
    assert first.witness == second.witness
    # the same on the round window, for a protocol with a round bound
    p = rb_protocol(WINDOW_CHAIN, "a b c")
    psi = rb(p, "(exists k (and (pop c (+ k 0)) (reg 1 (+ k 0) x)))")
    first, second = (solve_prp_roundbased(p, psi, budget=5_000)
                     for _ in range(2))
    assert first.answer == second.answer == "positive"
    assert first.stats == second.stats
    assert first.stats["route"] == "round-window"
    assert first.witness == second.witness


@pytest.mark.parametrize("seed", [
    pytest.param(200294, id="initial-configuration-hits"),
    pytest.param(200096, id="dead-existential-candidate")])
def test_fuzz_seed_positive_on_small_budget(seed):
    rng = random.Random(seed)
    p = random_rb_protocol(rng)
    psi = random_rb_constraint(rng, p)
    v = solve_prp_roundbased(p, psi, budget=1_000)
    assert v.answer == "positive"
    assert eval_roundbased(p, replay(p, v.witness, ABSTRACT), psi)


def test_fuzz_roundbased_against_capped_oracle_smoke():
    rng = random.Random(2024)
    checked = unknowns = 0
    for _ in range(40):
        p = random_rb_protocol(rng)
        psi = random_rb_constraint(rng, p)
        K = default_round_cap(p, psi)
        try:
            want = oracle_prp(p, psi, max_round=K, space_cap=40_000)
        except CapExceeded:
            continue
        got = solve_prp_roundbased(p, psi, budget=250_000)
        if got.answer == "unknown":
            unknowns += 1
            continue
        checked += 1
        if got.answer == "positive":
            final = replay(p, got.witness, ABSTRACT)
            bound = max_constant(psi) + max(
                [r for _, r in final.pop]
                + [r for (r, _), _ in final.regs] + [0]) + 1
            assert eval_roundbased(p, final, psi, active_bound=bound)
            wit_top = max((m.rnd + (m.trans.action.kind == INC)
                           for m in got.witness.moves), default=0)
            if wit_top <= K:
                assert want.answer == "positive"
        else:
            assert want.answer == "negative", \
                f"solver negative but oracle found a witness within {K}"
    assert checked >= 25


@pytest.mark.parametrize("transitions, bound", [
    pytest.param("  a write(1, x) b\n  b read(0, 1, x) a\n", 0,
                 id="no-increment"),
    pytest.param("  a inc b\n  b write(1, x) c\n  c inc d\n  a inc d\n", 2,
                 id="longest-increment-chain"),
    pytest.param("  a write(1, x) b\n  b inc c\n  c read(0, 1, d0) a\n",
                 None, id="increment-cycle"),
    # no process ever writes y, so no execution reaches b; guards are ignored
    pytest.param("  a read(0, 1, y) b\n  b inc b\n", None,
                 id="cycle-reachable-only-ignoring-guards"),
    pytest.param("  a inc b\n  c inc d\n  d inc c\n", 1,
                 id="cycle-unreachable-from-initial")])
def test_round_bound(transitions, bound):
    assert _round_bound(rb_protocol(transitions)) == bound


def test_no_initial_state_negative_on_round_window():
    p = parse_protocol("flavor: roundbased\nstates: a\ninitial:\n"
                       "registers: 1\nalphabet: d0 x\nvisibility: 1\n"
                       "transitions:\n  a inc a\n")
    v = solve_prp_roundbased(p, rb(p, "(pop a 0)"))
    assert v.answer == "negative"
    assert v.stats == {"ticks": 0, "nodes": 0, "route": "round-window",
                       "round_bound": 0}


def test_fuzz_seed_without_increment_negative_on_round_window():
    rng = random.Random(200183)
    p = random_rb_protocol(rng)
    psi = random_rb_constraint(rng, p)
    v = solve_prp_roundbased(p, psi, budget=250_000)
    assert v.answer == "negative"
    assert v.stats["route"] == "round-window"
    assert v.stats["round_bound"] == 0


@pytest.mark.parametrize("seed, ticks", [(200038, 64_973)])
def test_fuzz_seed_negative_within_budget(seed, ticks):
    # decided within this budget only because each candidate's search
    # deserts from no state but those its obligations negate.  The capped
    # window's 18 configurations come first, and the footprint search
    # spends ``ticks`` of the budget they leave
    rng = random.Random(seed)
    p = random_rb_protocol(rng)
    psi = random_rb_constraint(rng, p)
    v = solve_prp_roundbased(p, psi, budget=250_000)
    assert v.answer == "negative"
    assert v.stats["route"] == "footprints"
    assert v.stats["ticks"] == 18 + ticks
    assert footprint_verdict(p, psi, 250_000).stats["ticks"] == ticks


@pytest.mark.parametrize("seed, answer, window", [
    pytest.param(seed, answer, window, id=f"{seed}-{answer}")
    for seed, answer, window in [
        (201926, "negative", 0), (202289, "negative", 0),
        (202597, "negative", 0), (201782, "negative", 0),
        (202985, "negative", 0), (201464, "positive", 7)]])
def test_fuzz_seed_refuted_on_the_empty_tail(seed, answer, window):
    # each candidate with a universal false on the empty tail is refuted
    # before any footprint search: 201782's universal is (pop s1 (+ k 2)).
    # 201782, 202985 and 201464 ended unknown at this budget while such
    # candidates were searched.  Each protocol has no round bound, so the
    # capped window runs first, with ``window`` configurations: on the
    # negatives the compiled constraint is false past the window, so it
    # searches nothing, and they are then refuted; it decides 201464, whose
    # other candidate, an existential, the footprint search meets in two
    # rounds
    rng = random.Random(seed)
    p = random_rb_protocol(rng)
    psi = random_rb_constraint(rng, p)
    v = solve_prp_roundbased(p, psi, budget=250_000)
    assert v.answer == answer
    if answer == "negative":
        assert v.stats == {"ticks": window, "nodes": window,
                           "route": "refuted", "round_bound": None}
    else:
        assert v.stats == {"ticks": window, "nodes": window,
                           "route": "capped-window", "round_bound": None}
        assert eval_roundbased(p, replay(p, v.witness, ABSTRACT), psi)
        got = footprint_verdict(p, psi, 250_000)
        assert got.answer == "positive"
        assert (got.stats["ticks"], got.stats["nodes"]) == (9, 2)
        assert eval_roundbased(p, replay(p, got.witness, ABSTRACT), psi)


def test_footprint_edges_are_keyed_by_the_negated_states():
    # the first candidate negates no state and its search, run to
    # exhaustion, never deserts; the second negates a and must desert a@2,
    # at a round where edges no longer depend on the initial set, so it
    # must not reuse the first one's edges
    p = rb_protocol("  a inc a\n", states="a c", symbols="d0 x")
    psi = rb(p, "(or (and (pop a 3) (pop c 3)) "
                "(and (not (pop a 2)) (pop a 3)))")
    first, second = [c for c in decompose_apcs(psi)
                     if not _refuted(p, c, {})]
    assert not negated_states(And(tuple(first.closed)))
    assert negated_states(And(tuple(second.closed))) == {p.state_id("a")}
    v = solve_prp_roundbased(p, psi)
    assert v.answer == "positive"
    assert v.stats["route"] == "footprints"
    assert eval_roundbased(p, replay(p, v.witness, ABSTRACT), psi)


def test_fuzz_seed_refuted_by_universal_after_the_capped_window():
    # (pop s0 1) against (forall k (not (pop s0 k))) at round 1: refuted
    # with no footprint search.  The existential (exists k (pop s0 1)) does
    # not read k, so it compiles to its body's test, which ``_join`` meets
    # with the universal's test of s0@1: the capped window discovers no
    # configuration
    rng = random.Random(200122)
    p = random_rb_protocol(rng)
    psi = random_rb_constraint(rng, p)
    [cand] = decompose_apcs(psi)
    assert _refuted(p, cand, {})
    v = solve_prp_roundbased(p, psi, budget=250_000)
    assert v.answer == "negative"
    assert v.stats == {"ticks": 0, "nodes": 0, "route": "refuted",
                       "round_bound": None}


@pytest.mark.parametrize("seed", [202447, 200235])
def test_fuzz_seed_refuted_by_universal_at_an_earlier_round(seed):
    # 202447: (pop s0 2) against (forall k (not (pop s0 (+ k 2)))), and
    # 200235: (reg 1 2 v1) against (forall k (reg 1 (+ k 1) d0)); each
    # universal contradicts the literal at k = 2 - o, o its atom's offset,
    # below the literal's own round, so the one candidate is refuted and
    # no footprint search runs
    rng = random.Random(seed)
    p = random_rb_protocol(rng)
    psi = random_rb_constraint(rng, p)
    [cand] = decompose_apcs(psi)
    assert _refuted(p, cand, {})
    v = solve_prp_roundbased(p, psi, budget=250_000)
    assert v.answer == "negative"
    assert v.stats == {"ticks": 0, "nodes": 0, "route": "refuted",
                       "round_bound": None}


@pytest.mark.parametrize("text", [
    "(and (pop E 3) (forall k (not (pop E (+ k 3)))))",
    "(and (reg 1 3 a) (forall k (reg 1 (+ k 3) b)))",
    "(and (reg 1 3 a) (forall k (not (reg 1 (+ k 3) a))))",
], ids=["pop", "reg-symbols", "reg-negation"])
def test_contradictory_branch_dropped_before_its_round(text):
    # the universal at round 0 asks of round 3 the opposite of the ground
    # literal (E@3 empty, or register 1 at round 3 holding another symbol);
    # the branch is dropped at the root node, three rounds before round 3.
    # The capped window runs before the footprint search, so that search
    # is called alone
    psi = rb(FIG4, text)
    assert solve_prp_roundbased(FIG4, psi).answer == "negative"
    v = footprint_verdict(FIG4, psi, 250_000)
    assert v.answer == "negative"
    assert v.stats["ticks"] == 0


def _random_ground_literal(rng, p):
    r = Term(False, rng.randrange(2))
    atom = PopAt(rng.randrange(p.num_states), r) if rng.random() < 0.5 \
        else RegAt(0, r, rng.randrange(p.num_symbols))
    return atom if rng.random() < 0.5 else Not(atom)


def _satisfiable(tests, conj: bool) -> bool:
    """Whether some code meets every test (every test's negation, for a
    disjunction), over the bits the tests read."""
    bits = [1 << i for i in range(max(m for m, *_ in tests).bit_length())
            if any(m >> i & 1 for m, *_ in tests)]
    for n in range(1 << len(bits)):
        code = sum(b for i, b in enumerate(bits) if n >> i & 1)
        if all(((code & m == w) == eq) == conj for m, w, eq, _ in tests):
            return True
    return False


def test_join_folds_every_contradiction_of_the_old_rule_and_stays_sound():
    # random sets of 1-5 ground literals at rounds 0-1, as the bit tests
    # rb-search keeps: every set the former rule calls contradictory folds
    # to false, and every set _join folds, to false as a conjunction or to
    # true as a disjunction, has no code that meets it
    old = stronger = folds = 0
    for seed in range(200_000, 200_400):
        rng = random.Random(seed)
        p = random_rb_protocol(rng)
        lay = layout(p, 0)
        for _ in range(50):
            lits = frozenset(_random_ground_literal(rng, p)
                             for _ in range(rng.randrange(1, 6)))
            tests = [oracle._compiled(x, lay) for x in lits]
            assert all(t[3] is False for t in tests)
            if contradictory(lits):
                old += 1
                assert _join(True, tests) is False, lits
            elif _join(True, tests) is False:
                stronger += 1
            for conj in (True, False):
                if _join(conj, tests) is (not conj):
                    folds += 1
                    assert not _satisfiable(tests, conj), (lits, conj)
    # of 20 000 sets, the old rule calls 4 614 contradictory and _join 368
    # more; with the disjunctions' folds, 9 944 folds are brute-forced
    assert (old, stronger, folds) == (4614, 368, 9944)


def _random_nested(rng, p, depth: int):
    """A random formula of and, or and not over ground literals at rounds
    0-1, nested up to ``depth`` connectives deep."""
    if depth == 0 or rng.random() < 0.25:
        return _random_ground_literal(rng, p)
    if rng.random() < 0.2:
        return Not(_random_nested(rng, p, depth - 1))
    children = tuple(_random_nested(rng, p, depth - 1)
                     for _ in range(rng.randrange(2, 4)))
    return (And if rng.random() < 0.5 else Or)(children)


def _holds(node, code: int, tests: dict) -> bool:
    """A formula of ground literals on a code, each atom by its bit test in
    ``tests`` and the connectives by Python's."""
    if isinstance(node, (And, Or)):
        values = [_holds(x, code, tests) for x in node.children]
        return all(values) if isinstance(node, And) else any(values)
    if isinstance(node, Not):
        return not _holds(node.child, code, tests)
    m, w, eq, _ = tests[node]
    return (code & m == w) == eq


def test_join_on_nested_formulas_is_sound():
    # random and/or/not formulas over ground literals: on every code over
    # the bits they read, the compiled formula, constant or not, agrees with
    # the formula evaluated connective by connective
    formulas = folds = 0
    for seed in range(200_000, 200_100):
        rng = random.Random(seed)
        p = random_rb_protocol(rng)
        lay = layout(p, 0)
        for _ in range(15):
            f = _random_nested(rng, p, 3)
            probe = oracle._probe(part := oracle._compiled(f, lay))
            formulas += 1
            folds += isinstance(part, bool)
            tests, stack = {}, [f]
            while stack:
                x = stack.pop()
                if isinstance(x, (And, Or)):
                    stack.extend(x.children)
                elif isinstance(x, Not):
                    stack.append(x.child)
                else:
                    tests[x] = oracle._compiled(x, lay)
            read = 0
            for m, *_ in tests.values():
                read |= m
            bits = [1 << i for i in range(read.bit_length()) if read >> i & 1]
            for n in range(1 << len(bits)):
                code = sum(b for i, b in enumerate(bits) if n >> i & 1)
                assert probe(code) == _holds(f, code, tests), (seed, f, code)
    # 288 of the 1 500 formulas fold to a constant: the compiler joins the
    # formula's nnf, so a not over the dual connective hides no test; 284
    # did while only an and (or) child of an and (or) was spliced, and 211
    # while such a child was joined as one part
    assert (formulas, folds) == (1500, 288)


@pytest.mark.parametrize("text, folded", [
    ("(and (and (reg 1 0 v2) (not (reg 1 2 v1))) (reg 1 0 d0))", False),
    ("(and (reg 1 0 d0) (and (not (reg 1 2 v1)) (and (pop a 0) "
     "(reg 1 0 v2))))", False),
    ("(or (or (not (reg 1 0 v2)) (reg 1 2 v1)) (not (reg 1 0 d0)))", True),
    ("(and (or (reg 1 0 v2) (reg 1 2 v1)) (reg 1 0 d0))", None),
    ("(and (not (or (not (reg 1 0 v2)) (reg 1 2 v1))) (reg 1 0 d0))", False),
    ("(or (not (and (reg 1 0 v2) (not (reg 1 2 v1)))) (reg 1 0 v2))", True),
])
def test_join_sees_the_tests_of_a_nested_child_of_the_same_connective(
        text, folded):
    # the compiler joins the nnf, where an and (or) child of an and (or),
    # or a not over the dual connective, is spliced into its parent, so its
    # tests meet the parent's, however deep; the fourth constraint is
    # satisfiable and stays a predicate
    p = rb_protocol("  a inc a\n", states="a", symbols="d0 v1 v2")
    part = oracle._compiled(rb(p, text), layout(p, 0))
    if folded is None:
        assert not isinstance(part, bool)
    else:
        assert part is folded


@pytest.mark.parametrize("text, folded", [
    ("(and (reg 1 0 d0) (not (reg 1 0 d0)))", False),
    ("(and (not (reg 1 0 d0)) (reg 1 0 d0))", False),
    ("(and (reg 1 1 v2) (not (reg 1 1 v2)))", False),
    ("(or (reg 1 0 d0) (not (reg 1 0 d0)))", True),
    ("(or (not (reg 1 1 v2)) (reg 1 1 v2))", True),
    ("(and (reg 1 0 v1) (not (reg 1 0 v2)))", None),
    ("(or (reg 1 0 v1) (not (reg 1 0 v2)))", None),
])
def test_join_decides_an_equality_and_an_inequality_of_one_field(text,
                                                                 folded):
    # a 3-symbol register takes a two-bit field, so its inequality test is
    # not a one-bit test; an equality and an inequality of one field and
    # one symbol fold, of two symbols they do not
    p = rb_protocol("  a inc a\n", states="a", symbols="d0 v1 v2")
    part = oracle._compiled(rb(p, text), layout(p, 0))
    if folded is None:
        assert not isinstance(part, bool)
    else:
        assert part is folded


def test_fuzz_seed_with_a_field_contradiction_searches_nothing():
    # 200461: (and (exists k (reg 1 (+ k 1) d0)) (and (reg 1 0 d0)
    # (not (reg 1 0 d0)))) compiles to false, so the oracle and the capped
    # window discover no configuration (29 523 and 12 while it did not)
    rng = random.Random(200461)
    p = random_rb_protocol(rng)
    psi = random_rb_constraint(rng, p)
    v = oracle_prp(p, psi, space_cap=40_000)
    assert (v.answer, v.stats["members"]) == ("negative", 0)
    v = solve_prp_roundbased(p, psi, budget=250_000)
    assert v.answer == "negative"
    assert v.stats == {"ticks": 0, "nodes": 0, "route": "refuted",
                       "round_bound": None}


def _assert_searches_nothing(p, psi):
    assert oracle._compiled(psi, layout(p, 0)) is False
    v = oracle_prp(p, psi, space_cap=40_000)
    assert (v.answer, v.stats["members"]) == ("negative", 0)
    v = solve_prp_roundbased(p, psi, budget=250_000)
    assert (v.answer, v.stats) == ("negative", {"ticks": 0, "nodes": 0,
                                                "route": "refuted",
                                                "round_bound": None})


def test_fuzz_seed_with_a_nested_field_contradiction_searches_nothing():
    # 201201: (and (and (reg 1 0 v2) (not (reg 1 2 v1))) (reg 1 0 d0)) asks
    # round 0's register for v2 and for d0.  The compiler joins the
    # constraint's nnf, where the inner conjunction is spliced into the
    # outer one, so _join meets the two tests and the constraint compiles
    # to false: the oracle and rb-search discover nothing (127
    # configurations and 3 ticks while the inner one was a predicate)
    rng = random.Random(201201)
    p = random_rb_protocol(rng)
    _assert_searches_nothing(p, random_rb_constraint(rng, p))


def test_fuzz_seed_with_a_negated_field_contradiction_searches_nothing():
    # seed 201201's constraint in De Morgan form: its not over a
    # disjunction hid the tests from _join while only a child of the same
    # connective was spliced (127 configurations and 3 ticks); in the nnf
    # the not is pushed down to the atoms, and it compiles to false too
    p = random_rb_protocol(random.Random(201201))
    _assert_searches_nothing(p, rb(p, "(and (not (or (not (reg 1 0 v2)) "
                                      "(reg 1 2 v1))) (reg 1 0 d0))"))


def test_round_window_unknown_past_budget():
    chain = "".join(f"  s{i} inc s{i + 1}\n  s{i} write(1, x) s{i}\n"
                    for i in range(12))
    p = rb_protocol(chain, " ".join(f"s{i}" for i in range(13)))
    psi = rb(p, "(pop s12 0)")
    v = solve_prp_roundbased(p, psi, budget=20)
    assert v.answer == "unknown"
    assert v.stats == {"ticks": 21, "nodes": 20, "route": "round-window",
                       "round_bound": 12}


TWENTY_STATES = " ".join(f"s{i}" for i in range(20))
TWENTY_INITIAL = parse_protocol(
    f"flavor: roundbased\nstates: {TWENTY_STATES}\n"
    f"initial: {TWENTY_STATES}\nregisters: 1\nalphabet: d0 x\n"
    "visibility: 1\ntransitions:\n  s0 write(1, x) s0\n")


def test_round_window_budget_covers_initial_supports():
    # the constraint negates every state, so each of the 2^20 - 1 populated
    # initial sets is a start code of the window, smaller sets first: the
    # first to meet the constraint is the 210th
    p = TWENTY_INITIAL
    every = " ".join(f"(pop s{i} 0)" for i in range(20))
    v = solve_prp_roundbased(p, rb(
        p, f"(and (pop s18 0) (pop s19 0) (not (and {every})))"), budget=20)
    assert v.answer == "unknown"
    assert v.stats == {"ticks": 21, "nodes": 20, "route": "round-window",
                       "round_bound": 0}


def test_round_window_monotone_constraint_starts_with_every_initial_state():
    # negating no state, the constraint has one start: all 20 populated
    p = TWENTY_INITIAL
    v = solve_prp_roundbased(p, rb(p, "(and (pop s18 0) (pop s19 0))"),
                             budget=20)
    assert v.answer == "positive"
    assert v.stats == {"ticks": 1, "nodes": 1, "route": "round-window",
                       "round_bound": 0}
    assert v.witness.start.pop == {(q, 0) for q in range(20)}


def test_contradictory_constraint_negative_without_search():
    # c's increment loop leaves the protocol with no round bound, so the
    # capped window runs; the constraint compiles to false, so it
    # discovers no configuration, and the constraint, decomposed then, has
    # no candidate: no footprint search runs
    p = rb_protocol(WINDOW_CHAIN + "  c inc c\n", "a b c")
    assert _round_bound(p) is None
    v = solve_prp_roundbased(p, rb(p, "(and (pop a 0) (not (pop a 0)))"))
    assert v.answer == "negative"
    assert v.stats == {"ticks": 0, "nodes": 0, "route": "refuted",
                       "round_bound": None}


def test_contradictory_constraint_negative_on_round_window():
    # a bounded protocol goes to the window before any decomposition, and
    # the window, complete at the bound, is negative with no configuration
    # discovered, since the constraint compiles to false
    p = rb_protocol(WINDOW_CHAIN, "a b c")
    v = solve_prp_roundbased(p, rb(p, "(and (pop a 0) (not (pop a 0)))"))
    assert v.answer == "negative"
    assert v.stats == {"ticks": 0, "nodes": 0, "route": "round-window",
                       "round_bound": 2}


def test_contradictory_constraint_refuted_after_window_runs_out():
    # only s0 and s1 may vary, so the window has four start codes, and the
    # second exceeds the budget of 1; the constraint, which does not
    # compile to a constant, is then decomposed, and its one candidate is
    # refuted at round 0.  A contradiction that compiles to false, as
    # (and (pop s0 0) (not (pop s0 0))) does, leaves the window, complete at
    # the bound, negative at no cost
    p = TWENTY_INITIAL
    v = solve_prp_roundbased(p, rb(
        p, "(and (pop s0 0) (pop s1 0) "
           "(forall k (or (not (pop s0 (+ k 0))) (not (pop s1 (+ k 0))))))"),
        budget=1)
    assert v.answer == "negative"
    assert v.stats == {"ticks": 2, "nodes": 1, "route": "refuted",
                       "round_bound": 0}
    v = solve_prp_roundbased(p, rb(p, "(and (pop s0 0) (not (pop s0 0)))"),
                             budget=1)
    assert v.answer == "negative"
    assert v.stats == {"ticks": 0, "nodes": 0, "route": "round-window",
                       "round_bound": 0}


def test_round_window_never_decomposes_the_constraint(monkeypatch):
    def fail(psi):
        raise AssertionError("decomposed a constraint on the round window")

    monkeypatch.setattr(roundbased, "decompose_apcs", fail)
    p = rb_protocol(WINDOW_CHAIN, "a b c")
    for text, answer in [("(and (pop a 0) (not (pop a 0)))", "negative"),
                         ("(exists k (pop c (+ k 2)))", "positive")]:
        v = solve_prp_roundbased(p, rb(p, text))
        assert (v.answer, v.stats["route"]) == (answer, "round-window")


def test_round_window_positive_replays():
    p = rb_protocol(WINDOW_CHAIN, "a b c")
    psi = rb(p, "(and (pop c 2) (reg 1 1 x) (not (reg 1 0 x)))")
    v = solve_prp_roundbased(p, psi)
    assert v.answer == "positive"
    assert v.stats["route"] == "round-window"
    assert v.stats["round_bound"] == 2
    assert v.stats["ticks"] == v.stats["nodes"]
    final = replay(p, v.witness, ABSTRACT)
    assert eval_roundbased(p, final, psi)
    assert (p.state_id("c"), 2) in final.pop


@pytest.mark.parametrize("seed, ticks, nodes", [(200006, 9, 3),
                                              (200011, 24, 8)])
def test_footprint_search_keys_round_zero_position(seed, ticks, nodes):
    # streams and visited nodes are keyed by where round 0 sits in the
    # window: inside it up to round v, past it after.  Merging the round-v
    # window with later ones answers the same here with other work counts
    rng = random.Random(seed)
    p = random_rb_protocol(rng)
    psi = random_rb_constraint(rng, p)
    got = footprint_verdict(p, psi, 250_000)
    assert (got.answer, got.stats["ticks"], got.stats["nodes"]) == \
        ("negative", ticks, nodes)


def test_footprint_search_runs_each_stream_at_its_true_round():
    # v = 2: bridge 2 places the depth-2 read at round 2, where it reads
    # round 0, and bridge 3 carries it on.  The node at round 4 has its
    # round capped to 3, and run at round 3 its carried read would be
    # statically disabled: its stream must run at round 4
    p = parse_protocol(
        "flavor: roundbased\nstates: q0 q1\ninitial: q0\nregisters: 1\n"
        "alphabet: d0\nvisibility: 2\ntransitions:\n"
        "  q0 inc q0\n  q0 read(-2, 1, d0) q1\n")
    psi = rb(p, "(and (pop q1 2) (pop q0 7) (not (pop q0 0)))")
    got = footprint_verdict(p, psi, 200_000)
    assert (got.answer, got.stats["ticks"], got.stats["nodes"]) == \
        ("positive", 61, 15)
    final = replay(p, got.witness, ABSTRACT)
    assert eval_roundbased(p, final, psi)
    assert (p.state_id("q0"), 7) in final.pop


def test_footprint_search_against_oracle_on_bounded_seeds():
    # these seeds take the round window in solve_prp_roundbased, so the
    # acceptance fuzz checks the oracle's relation against itself there;
    # the round cap exceeds each bound, which makes the oracle exact.  Each
    # seed also asks its constraint with (not (pop q 0)) for its least
    # initial state q: emptying q@0 takes a desert from q, which a search
    # that deserts from too few of the negated states misses
    checked = mixed = 0
    for seed in range(200_000, 200_300):
        rng = random.Random(seed)
        p = random_rb_protocol(rng)
        drawn = random_rb_constraint(rng, p)
        bound = _round_bound(p)
        if bound is None:
            continue
        empty_q = Not(PopAt(min(p.initial_states), Term(False, 0)))
        for psi in (drawn, And((empty_q, drawn))):
            K = default_round_cap(p, psi)
            assert K >= bound
            try:
                want = oracle_prp(p, psi, max_round=K, space_cap=40_000)
            except CapExceeded:
                continue
            cands = [c for c in decompose_apcs(psi)
                     if not _refuted(p, c, {})]
            got = _footprint_search(p, psi, cands, 250_000, {})
            assert got.stats["route"] == "footprints"
            if got.answer == "unknown":
                continue
            checked += 1
            # candidates whose search deserts from some states, not all
            for c in cands:
                negated = frozenset().union(*map(
                    negated_states, c.closed | c.existential | c.universal))
                mixed += 0 < len(negated) < p.num_states
            assert got.answer == want.answer, f"seed {seed}, {psi}"
            if got.answer == "positive":
                final = replay(p, got.witness, ABSTRACT)
                assert eval_roundbased(p, final, psi)
    assert checked >= 280  # 350 measured, 175 of each kind
    assert mixed >= 170  # 203 measured


def test_capped_window_decides_exactly_when_its_search_hits():
    # a protocol with no round bound takes the window at round cap 1 with
    # a twentieth of the budget; it is the route exactly when that search
    # hits, with its witness.  Otherwise the query's ticks start with the
    # window's configurations, and the footprint search spends what is left
    budget = 250_000
    share = budget // 20
    hits = misses = 0
    for seed in range(200_000, 200_300):
        rng = random.Random(seed)
        p = random_rb_protocol(rng)
        psi = random_rb_constraint(rng, p)
        if _round_bound(p) is not None:
            continue
        try:
            found, wit = search(p, psi, 1, share)
        except CapExceeded:
            found, wit = share + 1, None
        v = solve_prp_roundbased(p, psi, budget=budget)
        if wit is not None:
            hits += 1
            assert v.stats == {"ticks": found, "nodes": found,
                               "route": "capped-window",
                               "round_bound": None}, seed
            assert v.witness == wit
            assert eval_roundbased(p, replay(p, v.witness, ABSTRACT), psi)
            continue
        misses += 1
        if v.stats["route"] == "refuted":
            assert v.stats == {"ticks": found, "nodes": found,
                               "route": "refuted", "round_bound": None}
            continue
        assert v.stats["route"] == "footprints", seed
        rest = footprint_verdict(p, psi, budget - found)
        assert v.answer == rest.answer
        assert v.witness == rest.witness
        assert v.stats == {**rest.stats,
                           "ticks": found + rest.stats["ticks"]}
    assert (hits, misses) == (78, 47)


def test_lifted_cvp_positive_on_the_capped_window():
    # cvp-3 as `gen cvp --gates 3 --seed 1` draws it, lifted to rounds: the
    # footprint search alone ends unknown at this budget, and the capped
    # window finds the output wire's symbol in round 0.  Round cap 0 would
    # take 26 configurations; cap 1 discovers round 1's as well
    circuit = Circuit(inputs=(("i1", True), ("i2", False)),
                      gates=(("not", "i2", "w1"), ("not", "i2", "w2"),
                             ("and", "w2", "w2", "w3")), output="w3")
    assert evaluate_circuit(circuit) is True
    p, psi = lift_roundless(*cvp_to_cover(circuit, True))
    assert (p.num_states, _round_bound(p)) == (12, None)
    assert search(p, psi, 0)[0] == 26
    v = solve_prp_roundbased(p, psi, budget=250_000)
    assert v.answer == "positive"
    assert v.stats == {"ticks": 344, "nodes": 344, "route": "capped-window",
                       "round_bound": None}
    final = replay(p, v.witness, ABSTRACT)
    assert eval_roundbased(p, final, psi)
    assert footprint_verdict(p, psi, 250_000).answer == "unknown"


def test_budget_of_one_without_round_bound():
    # a twentieth of the budget is 0 configurations, so the window runs out
    # on its first start code and charges its one tick, unless the
    # constraint compiles to false and the window searches nothing; a
    # refuted constraint is then negative within the budget, and the
    # footprint search runs out on its first tick
    answers = set()
    for seed in range(200_000, 200_300):
        rng = random.Random(seed)
        p = random_rb_protocol(rng)
        psi = random_rb_constraint(rng, p)
        if _round_bound(p) is not None:
            continue
        v = solve_prp_roundbased(p, psi, budget=1)
        answers.add((v.answer, v.stats["route"], v.stats["ticks"]))
    assert answers == {("negative", "refuted", 0), ("negative", "refuted", 1),
                       ("unknown", "footprints", 2)}
