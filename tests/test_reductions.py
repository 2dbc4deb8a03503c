"""Benchmark generator tests: each reduction vs its independent ground truth."""

import itertools
import random

import pytest

from regverify.constraints import cover_constraint, target_constraint
from regverify.errors import CyclicCircuit
from regverify.model import is_uninitialized, parse_protocol, serialize_protocol
from regverify.oracle import oracle_prp
from regverify.reductions import (Circuit, CnfFormula, builtin_examples,
                                  cvp_to_cover, evaluate_circuit,
                                  sat_to_cover, sat_to_uninit_target,
                                  truth_table_satisfiable)

from reference import validate

PROTOCOLS, CONSTRAINTS = builtin_examples()


def test_cnf_validation():
    with pytest.raises(ValueError):
        CnfFormula(2, ((1, 2),))
    with pytest.raises(ValueError):
        CnfFormula(1, ((1, 2, 1),))
    CnfFormula(2, ((1, -2, 2),))


def test_truth_table():
    assert truth_table_satisfiable(CnfFormula(1, ((1, 1, 1),)))
    assert not truth_table_satisfiable(
        CnfFormula(1, ((1, 1, 1), (-1, -1, -1))))


def test_sat_to_cover_golden_answers():
    p, qf = sat_to_cover(CnfFormula(1, ((1, 1, 1),)))
    assert oracle_prp(p, cover_constraint(p, qf)).answer == "positive"
    p2, qf2 = sat_to_cover(CnfFormula(1, ((1, 1, 1), (-1, -1, -1))))
    assert oracle_prp(p2, cover_constraint(p2, qf2)).answer == "negative"


def test_sat_to_cover_structure():
    cnf = CnfFormula(2, ((1, -2, 2), (-1, 1, 2)))
    p, qf = sat_to_cover(cnf)
    assert p.num_states == 2 + 4 * len(cnf.clauses)
    assert p.register_count == 2 * cnf.num_vars
    assert validate(p) == []
    assert parse_protocol(serialize_protocol(p)) == p


def test_sat_to_uninit_target_golden_answers():
    p, qf = sat_to_uninit_target(CnfFormula(1, ((1, 1, 1),)))
    assert is_uninitialized(p)
    assert oracle_prp(p, target_constraint(p, qf)).answer == "positive"
    p2, qf2 = sat_to_uninit_target(CnfFormula(1, ((1, 1, 1), (-1, -1, -1))))
    assert is_uninitialized(p2)
    assert oracle_prp(p2, target_constraint(p2, qf2)).answer == "negative"


def test_sat_reductions_random_smoke():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 3)
        clauses = tuple(
            tuple(rng.choice([j, -j] )
                  for j in rng.choices(range(1, n + 1), k=3))
            for _ in range(m))
        cnf = CnfFormula(n, clauses)
        want = "positive" if truth_table_satisfiable(cnf) else "negative"
        p, qf = sat_to_cover(cnf)
        got = oracle_prp(p, cover_constraint(p, qf), state_cap=20,
                         space_cap=500_000)
        assert got.answer == want
        p2, qf2 = sat_to_uninit_target(cnf)
        got2 = oracle_prp(p2, target_constraint(p2, qf2), state_cap=20,
                          space_cap=500_000)
        assert got2.answer == want


def test_cvp_and_gate():
    c = Circuit((("x", True), ("y", True)), (("and", "x", "y", "o"),), "o")
    p, qf = cvp_to_cover(c, True)
    assert oracle_prp(p, cover_constraint(p, qf),
                      state_cap=20).answer == "positive"
    p2, qf2 = cvp_to_cover(c, False)
    assert oracle_prp(p2, cover_constraint(p2, qf2),
                      state_cap=20).answer == "negative"


def test_cvp_double_negation_passthrough():
    for value in (True, False):
        c = Circuit((("x", value),),
                    (("not", "x", "w"), ("not", "w", "o")), "o")
        for desired in (True, False):
            p, qf = cvp_to_cover(c, desired)
            want = "positive" if evaluate_circuit(c) == desired else "negative"
            assert oracle_prp(p, cover_constraint(p, qf),
                              state_cap=20).answer == want


def test_cvp_cyclic_circuit_rejected():
    c = Circuit((("x", True),), (("and", "x", "w", "w"),), "w")
    with pytest.raises(CyclicCircuit):
        cvp_to_cover(c, True)
    c2 = Circuit((("x", True),), (("not", "x", "x"),), "x")
    with pytest.raises(CyclicCircuit):
        evaluate_circuit(c2)


def all_small_circuits(max_gates: int):
    """Every circuit with two valued inputs and up to max_gates gates."""
    inputs = ("i1", "i2")
    for vals in itertools.product((False, True), repeat=2):
        ivals = tuple(zip(inputs, vals))
        wires = list(inputs)
        yield Circuit(ivals, (), wires[-1])

        def extend(gates, wires, budget):
            if gates:
                yield Circuit(ivals, tuple(gates), gates[-1][-1])
            if budget == 0:
                return
            out = f"w{len(gates) + 1}"
            for op in ("not", "and", "or"):
                if op == "not":
                    picks = [(w,) for w in wires]
                else:
                    picks = list(itertools.product(wires, repeat=2))
                for pick in picks:
                    gate = (op, *pick, out)
                    yield from extend(gates + [gate], wires + [out],
                                      budget - 1)

        yield from extend([], wires, max_gates)


def test_cvp_exhaustive_one_gate():
    count = 0
    for c in all_small_circuits(1):
        value = evaluate_circuit(c)
        for desired in (True, False):
            p, qf = cvp_to_cover(c, desired)
            want = "positive" if value == desired else "negative"
            got = oracle_prp(p, cover_constraint(p, qf), state_cap=24,
                             space_cap=200_000)
            assert got.answer == want, (c, desired)
        count += 1
    assert count >= 40


def test_builtin_shapes():
    fig1 = PROTOCOLS["fig1"]
    assert (fig1.num_states, fig1.register_count, fig1.num_symbols) == (5, 1, 4)
    blue = PROTOCOLS["fig1_blue"]
    diff = [(a, b) for a, b in zip(fig1.transitions, blue.transitions)
            if a != b]
    assert len(diff) == 1
    a, b = diff[0]
    assert (a.source, a.dest) == (b.source, b.dest) == (
        fig1.state_id("q0"), fig1.state_id("B"))
    fig4 = PROTOCOLS["fig4"]
    assert fig4.visibility == 1
    assert fig4.symbol_names == ("d0", "a", "b")
    for nc in CONSTRAINTS.values():
        assert nc.protocol in PROTOCOLS
