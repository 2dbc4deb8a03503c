"""Round-based solver tests: goldens, witnesses, oracle-agreement fuzz."""

import random

import pytest

from regverify.constraints import (eval_roundbased, max_constant,
                                   parse_round_constraint)
from regverify.errors import CapExceeded
from regverify.model import (INC, READ, ROUNDBASED, WRITE, Action, Protocol,
                             Transition, parse_protocol, serialize_protocol)
from regverify.oracle import default_round_cap, oracle_prp
from regverify.reductions import builtin_examples
from regverify.roundbased import solve_prp_roundbased
from regverify.semantics import ABSTRACT, replay

from generators import random_rb_constraint, random_rb_protocol

PROTOCOLS, CONSTRAINTS = builtin_examples()
FIG4 = PROTOCOLS["fig4"]


def rb(p, text):
    return parse_round_constraint(text, p)


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
    psi = rb(FIG4, "(and (exists k (pop qf (+ k 0))) "
                   "(not (exists k (pop qf (+ k 0)))))")
    v = solve_prp_roundbased(FIG4, psi)
    assert v.answer == "negative"
    assert v.stats["ticks"] == 0


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
