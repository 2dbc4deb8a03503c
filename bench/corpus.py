"""Seeded query corpora for the three benchmark workloads.

A question is one protocol text and one constraint text; a query asks one
decision route about a question.  Every route asked about a question must
agree with its ground truth: the truth table or circuit evaluation for the
reduction instances, the oracle's verdict for the fuzz instances.

Every workload asks one fixed set of instances in a run of
REFERENCE_SECONDS, and the workload seed only sets their order.
reduction-truth draws its formulas and circuits once, from a fixed seed.  The
fuzz workloads ask the generator seeds listed in ``instances.json``; those
lists were drawn once from the pools, stratified by a timed measurement on a
2-vCPU VM (``instances.py measure``), so that the costly tail of each pool is
represented and no instance alone takes a fifth of a run.  A shorter run asks
a prefix of the seeded order, a longer one adds instances drawn at random from
the rest of the pool.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from generators import (random_constraint, random_dnf_constraint,
                        random_protocol, random_rb_constraint,
                        random_rb_protocol)
from regverify.constraints import (cover_constraint, format_constraint,
                                   target_constraint)
from regverify.model import is_uninitialized, serialize_protocol
from regverify.reductions import (Circuit, CnfFormula, cvp_to_cover,
                                  evaluate_circuit, sat_to_cover,
                                  sat_to_uninit_target,
                                  truth_table_satisfiable)

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("reduction-truth", "roundless-fuzz", "rb-fuzz")
ORACLE = "oracle"
RB_BUDGET = 250_000  # explicit, so REGVERIFY_BUDGET cannot change the workload
REFERENCE_SECONDS = 30  # corpus sizes below are for a run of this length

# reduction-truth, per REFERENCE_SECONDS: formulas per (variables, clauses)
# cell, the unsatisfiable ones among them where two clauses can contradict,
# and circuits per gate count
FORMULAS_PER_CELL = 5
UNSAT_PER_CELL = 1
CIRCUITS_PER_GATE_COUNT = 10
CANDIDATES = 8  # satisfiable draws per formula taken, to rank from
# One formula or circuit alone can move a run's oracle time by a tenth (reach
# sets of 30k-215k configurations), so the instances are drawn once, from a
# fixed seed, and every run asks them all; the workload seed sets the order.
FIXED_SEED = "reduction-truth:fixed"
GATE_COUNTS = (3, 4, 5)
SAT_CAPS = (("state_cap", 20), ("space_cap", 500_000))
CVP_CAPS = (("state_cap", 32), ("space_cap", 300_000))
RB_CAPS = (("space_cap", 40_000),)


@dataclass(frozen=True)
class Question:
    family: str
    origin: str          # what it was generated from, for reports
    protocol: str
    constraint: str
    truth: str | None    # known answer; None when the oracle's verdict is it
    routes: tuple        # decision routes asked, the oracle last
    oracle_caps: tuple = ()  # keyword arguments of oracle_prp


@dataclass
class Corpus:
    workload: str
    questions: list

    def queries(self) -> list[tuple[int, str]]:
        """(question index, route) in the order the pass issues them."""
        return [(i, route) for i, q in enumerate(self.questions)
                for route in q.routes]

    def digest(self) -> str:
        """sha256 of the questions' text, whatever their order."""
        h = hashlib.sha256()
        for line in sorted(json.dumps([
                q.family, q.origin, q.protocol, q.constraint, q.truth,
                q.routes, q.oracle_caps]) for q in self.questions):
            h.update(line.encode())
        return h.hexdigest()


def build(workload: str, seed: int, seconds: float, tracer) -> Corpus:
    scale = seconds / REFERENCE_SECONDS
    if workload == "reduction-truth":
        questions = _reduction_truth(seed, scale, tracer)
    elif workload == "roundless-fuzz":
        questions = [q for s in fuzz_seeds(workload, seed, scale)
                     for q in roundless_questions(s)]
    elif workload == "rb-fuzz":
        questions = [rb_question(s)
                     for s in fuzz_seeds(workload, seed, scale)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Corpus(workload, questions)


def _quota(base: int, scale: float) -> int:
    return max(1, round(base * scale))


# --- reduction-truth ---------------------------------------------------------

def canonical_clauses(n: int) -> list[tuple]:
    lits = [l for v in range(1, n + 1) for l in (v, -v)]
    return sorted(set(tuple(sorted(c)) for c in
                      itertools.combinations_with_replacement(lits, 3)))


def distinct_literals(cnf: CnfFormula) -> int:
    return len({lit for clause in cnf.clauses for lit in clause})


def _random_circuit(rng: random.Random, gates: int) -> Circuit:
    inputs = tuple((f"i{n}", rng.random() < 0.5) for n in (1, 2))
    wires = [w for w, _ in inputs]
    out = []
    for g in range(1, gates + 1):
        op = rng.choice(("not", "and", "or"))
        args = (rng.choice(wires),) if op == "not" else \
            (rng.choice(wires), rng.choice(wires))
        out.append((op, *args, f"w{g}"))
        wires.append(f"w{g}")
    return Circuit(inputs, tuple(out), wires[-1])


def _answer(holds: bool) -> str:
    return "positive" if holds else "negative"


def _reduction_truth(seed: int, scale: float, tracer) -> list[Question]:
    rng = random.Random(FIXED_SEED)
    per_cell = _quota(FORMULAS_PER_CELL, scale)
    unsat_per_cell = min(per_cell - 1, _quota(UNSAT_PER_CELL, scale))
    questions = []
    for n, m in itertools.product((1, 2, 3), (1, 2, 3)):
        clauses = canonical_clauses(n)

        def draw(want: bool) -> CnfFormula:
            while True:
                cnf = CnfFormula(n, tuple(rng.choice(clauses)
                                          for _ in range(m)))
                with tracer.span("reductions.truth"):
                    if truth_table_satisfiable(cnf) == want:
                        return cnf

        # a single 3-literal clause is always satisfiable; uniform draws
        # are almost never unsatisfiable, so draw that share by rejection
        unsat = [draw(False) for _ in range(unsat_per_cell if m >= 2 else 0)]
        # the oracle's reach set grows as fewer distinct literals constrain
        # it (about 2x across a cell), so satisfiable formulas are taken at
        # evenly spaced ranks of that count among CANDIDATES draws
        k = per_cell - len(unsat)
        pool = sorted((draw(True) for _ in range(CANDIDATES * k)),
                      key=distinct_literals)
        start = rng.random()
        satisfiable = [pool[int((i + start) * CANDIDATES)] for i in range(k)]
        for cnf, sat in [(c, False) for c in unsat] + \
                [(c, True) for c in satisfiable]:
            with tracer.span("reductions.generate"):
                p, qf = sat_to_cover(cnf)
                pu, qu = sat_to_uninit_target(cnf)
            origin = f"n={n} clauses={list(cnf.clauses)}"
            questions.append(Question(
                "sat-cover", origin, serialize_protocol(p),
                format_constraint(p, cover_constraint(p, qf)), _answer(sat),
                ("fixed-r", ORACLE), SAT_CAPS))
            questions.append(Question(
                "uninit-target", origin, serialize_protocol(pu),
                format_constraint(pu, target_constraint(pu, qu)),
                _answer(sat), ("bounded", ORACLE), SAT_CAPS))
    for gates in GATE_COUNTS:
        for _ in range(_quota(CIRCUITS_PER_GATE_COUNT, scale)):
            c = _random_circuit(rng, gates)
            with tracer.span("reductions.truth"):
                value = evaluate_circuit(c)
            for desired in (True, False):
                with tracer.span("reductions.generate"):
                    p, qf = cvp_to_cover(c, desired)
                questions.append(Question(
                    "cvp", f"{c} desired={desired}", serialize_protocol(p),
                    format_constraint(p, cover_constraint(p, qf)),
                    _answer(value == desired), ("fixed-r", "one-reg", ORACLE),
                    CVP_CAPS))
    random.Random(f"reduction-truth:{seed}").shuffle(questions)
    return questions


# --- fuzz workloads ------------------------------------------------------------

def fuzz_seeds(workload: str, seed: int, scale: float) -> list[int]:
    """The listed instance seeds in the order of the workload seed, cut or
    extended to the run's length."""
    listed = json.loads((BENCH / "instances.json").read_text())[workload]
    seeds = list(listed["seeds"])
    rng = random.Random(f"{workload}:{seed}")
    rng.shuffle(seeds)
    want = _quota(len(seeds), scale)
    if want > len(seeds):
        rest = sorted(set(range(*listed["pool"])) - set(seeds))
        seeds += rng.sample(rest, min(want - len(seeds), len(rest)))
    return seeds[:want]


def roundless_questions(seed: int) -> list[Question]:
    """Criterion 2's roundless questions, on protocols up to 10 states."""
    rng = random.Random(seed)
    p = random_protocol(rng, max_states=10, max_symbols=3, max_regs=3,
                        max_trans=24)
    text = serialize_protocol(p)
    origin = f"random_protocol seed {seed}"
    phi = random_constraint(rng, p)
    out = [Question("fuzz-prp", origin, text, format_constraint(p, phi), None,
                    ("bounded", ORACLE))]
    target = rng.randrange(p.num_states)
    routes = ("fixed-r",)
    if is_uninitialized(p):
        routes += ("saturation",)
    if p.register_count == 1:
        routes += ("one-reg",)
    out.append(Question("fuzz-cover", origin, text,
                        format_constraint(p, cover_constraint(p, target)),
                        None, routes + (ORACLE,)))
    if p.register_count == 1:
        dnf = random_dnf_constraint(rng, p)
        out.append(Question("fuzz-dnf", origin, text,
                            format_constraint(p, dnf), None,
                            ("one-reg", ORACLE)))
    return out


def rb_question(seed: int) -> Question:
    """Criterion 2's round-based question; the oracle uses its default cap."""
    rng = random.Random(seed)
    p = random_rb_protocol(rng)
    psi = random_rb_constraint(rng, p)
    return Question("rb", f"random_rb_protocol seed {seed}",
                    serialize_protocol(p), format_constraint(p, psi), None,
                    ("rb-search", ORACLE), RB_CAPS)
