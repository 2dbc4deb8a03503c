"""Benchmark generator tests: each reduction vs its independent ground truth."""

import hashlib
import itertools
import random

import pytest

from regverify.cli import _random_circuit
from regverify.constraints import cover_constraint, target_constraint
from regverify.errors import CyclicCircuit
from regverify.model import is_uninitialized, parse_protocol, serialize_protocol
from regverify.oracle import oracle_prp
from regverify.reductions import (TRUTH_TABLE_CAP, Circuit, CnfFormula,
                                  builtin_examples, cvp_to_cover,
                                  evaluate_circuit,
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


def test_cnf_refuses_empty_formulas_and_the_truth_table_past_its_cap():
    with pytest.raises(ValueError, match="need at least one variable"):
        CnfFormula(0, ((1, 1, 1),))
    with pytest.raises(ValueError, match="need at least one clause"):
        CnfFormula(1, ())
    wide = CnfFormula(TRUTH_TABLE_CAP + 1, ((1, 1, 1),))
    with pytest.raises(ValueError, match="truth table capped"):
        truth_table_satisfiable(wide)


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


def _cnf(seed: int, n: int, m: int) -> CnfFormula:
    """A random 3-CNF formula, drawn as ``regverify gen`` draws one."""
    rng = random.Random(seed)
    return CnfFormula(n, tuple(
        tuple(rng.choice((j, -j)) for j in rng.choices(range(1, n + 1), k=3))
        for _ in range(m)))


def _circuit(seed: int, gates: int) -> Circuit:
    """A random circuit over two inputs, as ``regverify gen`` draws one."""
    return _random_circuit(random.Random(seed), gates)


# (id, instance, SHA-256 of its serialized protocol, id of qf).  The
# transition order sets the searches' order, so the text is pinned byte
# for byte; the repeated clause and literals exercise the target
# reduction's one read per distinct line.
_REPEATS = CnfFormula(2, ((1, 1, -2), (1, 1, -2), (-1, 2, 2)))
REDUCTION_PINS = [
    ("cover-1-1", lambda: sat_to_cover(_cnf(1, 1, 1)),
     "7f567d00182cfe98f149581dac080ad8566b377df1d405d0df7392b414ff34ed", 5),
    ("cover-3-4", lambda: sat_to_cover(_cnf(2, 3, 4)),
     "31a9133c06b4d7fbf3a677530873d0946159c3bb7bae72f73d7f7a7a3aa21749", 17),
    ("cover-5-12", lambda: sat_to_cover(_cnf(3, 5, 12)),
     "c3b56db2efc6586119c2d19676da5e0c4f007bdf03b0c579b5ebf58d4b0b0a82", 49),
    ("cover-repeats", lambda: sat_to_cover(_REPEATS),
     "e6a6d546ed180067ffb4e26ecd635d264ba90cff521b216ba5b149fad31cd558", 13),
    ("target-1-1", lambda: sat_to_uninit_target(_cnf(1, 1, 1)),
     "223a341cc83f11173c8da1b58cf750f5401737e090d7909c5cdc9b7c15a0eaac", 2),
    ("target-3-4", lambda: sat_to_uninit_target(_cnf(2, 3, 4)),
     "a31d9e6c605b31f00569f7107b2832aa44bf0d1568fdda5a80b3a068fad5a911", 5),
    ("target-5-12", lambda: sat_to_uninit_target(_cnf(3, 5, 12)),
     "11f5f6a11fcf9152b8d6ef3125ac0d50de9cc0edd9a59f256ed95cd3b89bda0b", 13),
    ("target-repeats", lambda: sat_to_uninit_target(_REPEATS),
     "8daa90e328f61fa0461011600f1c03c398d9ddb8c972a0a6ea90d6459dc1f29d", 4),
    ("cvp-0-true", lambda: cvp_to_cover(_circuit(1, 0), True),
     "255845280106349f10c47d0287d3fe0d7f481adf435b48d54c2738020909070c", 1),
    ("cvp-0-false", lambda: cvp_to_cover(_circuit(1, 0), False),
     "b68249f5c28627863849a16ca4a61d2d9da524873e9ccb147e1186d78f9b41dd", 1),
    ("cvp-3-true", lambda: cvp_to_cover(_circuit(2, 3), True),
     "97ba3327ccd1bb8cfa10e28458af0569ea04b208e1118ccce005d3d09bbc774c", 10),
    ("cvp-3-false", lambda: cvp_to_cover(_circuit(2, 3), False),
     "4bf14037aae4abea17498ff8e2b17c16ad7421074db31a5d6a2ae4a6c5335c57", 10),
    ("cvp-8-true", lambda: cvp_to_cover(_circuit(3, 8), True),
     "4f72bd576e55d5dc092aac3c5bb6dce56b5fa0e9cb5661df7ef02da610dc8246", 32),
    ("cvp-8-false", lambda: cvp_to_cover(_circuit(3, 8), False),
     "f8f9a0249c850d2b11d1bd403a7cf6ec7860280a9eafa6c49f7a47ae4f8f7a3b", 32),
]


@pytest.mark.parametrize("build, digest, qf",
                         [case[1:] for case in REDUCTION_PINS],
                         ids=[case[0] for case in REDUCTION_PINS])
def test_reduction_output_is_pinned(build, digest, qf):
    p, q = build()
    text = serialize_protocol(p)
    assert (hashlib.sha256(text.encode()).hexdigest(), q) == (digest, qf)
    assert p.state_names[q] == "qf"
