"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria, in order: golden worked examples across every applicable
algorithm; oracle-equivalence fuzzing; bounded-search witnesses, each the
oracle's shortest; abstraction soundness/completeness against bounded
concrete exploration; reduction ground truth against truth tables and
circuit evaluation; the normal-form per-round bound; footprint gluing round
trips.

Independent instances fan over two worker processes where it pays.
"""

import itertools
import multiprocessing
import random
import time

from generators import (random_constraint, random_dnf_constraint,
                        random_protocol, random_rb_constraint,
                        random_rb_execution, random_rb_protocol)
from regverify.constraints import (cover_constraint, eval_roundbased,
                                   eval_roundless, max_constant,
                                   parse_round_constraint,
                                   parse_roundless_constraint,
                                   target_constraint)
from regverify.errors import CapExceeded, NotEnabled
from regverify.model import INC, is_uninitialized
from regverify.oracle import default_round_cap, oracle_prp
from regverify.reductions import (Circuit, CnfFormula, builtin_examples,
                                  cvp_to_cover, evaluate_circuit, sat_to_cover,
                                  sat_to_uninit_target,
                                  truth_table_satisfiable)
from regverify.roundbased import solve_prp_roundbased
from regverify.roundless import (reduce_initialized_to_uninit_r1,
                                 solve_cover_fixed_r,
                                 solve_cover_uninitialized,
                                 solve_dnfprp_one_register, solve_prp_bounded)
from regverify.semantics import (ABSTRACT, CONCRETE, ConcreteConfig, Move,
                                 concrete_step, multiset, project, replay)

from lemmas import (abstract_to_concrete, combine_footprints,
                    locations_deserted_more_than_once, normal_form_round_bound,
                    normal_form_violations, normalize_execution,
                    per_round_step_counts, project_footprint,
                    reduce_cover_to_target)
from reference import members, order, reach, witness_to

PROTOCOLS, CONSTRAINTS = builtin_examples()


def _report(criterion: int, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


# --- criterion 1: golden paper examples --------------------------------------

def _golden_rb(key: str) -> str:
    p = PROTOCOLS["fig4"]
    psi = parse_round_constraint(CONSTRAINTS[key].text, p)
    return solve_prp_roundbased(p, psi, budget=20_000_000).answer


def _golden_rb_oracle(_arg) -> list[str]:
    # one full reach computation serves all three constraints (it is
    # constraint-independent); scanning its order reproduces the oracle's
    # first hit, which it finds in this same BFS order
    p = PROTOCOLS["fig4"]
    rs = reach(p, 2)
    out = []
    for key in ("psi1", "psi2", "psi3"):
        psi = parse_round_constraint(CONSTRAINTS[key].text, p)
        hit = None
        for c in order(rs):
            if eval_roundbased(p, c, psi, active_bound=3):
                hit = c
                break
        if hit is None:
            out.append("negative")
        else:
            wit = witness_to(rs, hit)
            final = replay(p, wit, ABSTRACT)
            assert eval_roundbased(p, final, psi, active_bound=3)
            out.append("positive")
    return out


def test_criterion_1_golden_examples():
    t0 = time.time()
    fig1 = PROTOCOLS["fig1"]
    blue = PROTOCOLS["fig1_blue"]
    red = PROTOCOLS["fig1_red"]
    fig4 = PROTOCOLS["fig4"]
    checks = 0

    def expect(answer, want):
        nonlocal checks
        assert answer == want
        checks += 1

    with multiprocessing.Pool(2) as pool:
        # the two exhaustive round-based negatives run in parallel workers,
        # the round-based oracle trio rides along behind them
        rb_async = pool.map_async(_golden_rb, ["psi1", "psi2"], chunksize=1)
        rb_oracle_async = pool.map_async(_golden_rb_oracle, [0])

        for p, want in ((fig1, "positive"), (blue, "negative")):
            qf = p.state_id("qf")
            cover = cover_constraint(p, qf)
            expect(solve_prp_bounded(p, cover).answer, want)
            expect(solve_cover_fixed_r(p, qf).answer, want)
            expect(solve_dnfprp_one_register(p, cover).answer, want)
            expect(oracle_prp(p, cover).answer, want)
            # saturation applies after the initial-phase reduction
            pu = reduce_initialized_to_uninit_r1(p)
            expect(solve_cover_uninitialized(pu, qf).answer, want)
            # joker route: coverability as synchronization on the extension
            pj, err = reduce_cover_to_target(p, qf)
            expect(oracle_prp(pj, target_constraint(pj, err)).answer, want)
            expect(solve_dnfprp_one_register(
                pj, target_constraint(pj, err)).answer, want)

        for p, want in ((fig1, "negative"), (red, "positive")):
            qf = p.state_id("qf")
            target = target_constraint(p, qf)
            expect(solve_prp_bounded(p, target).answer, want)
            expect(solve_dnfprp_one_register(p, target).answer, want)
            expect(oracle_prp(p, target).answer, want)

        phi = parse_roundless_constraint(CONSTRAINTS["ex26_phi"].text, fig1)
        expect(solve_prp_bounded(fig1, phi).answer, "negative")
        expect(oracle_prp(fig1, phi).answer, "negative")
        expect(solve_dnfprp_one_register(fig1, phi).answer, "negative")

        psi3 = parse_round_constraint(CONSTRAINTS["psi3"].text, fig4)
        expect(solve_prp_roundbased(fig4, psi3).answer, "positive")

        psi1_answer, psi2_answer = rb_async.get()
        [oracle_answers] = rb_oracle_async.get()
    expect(psi1_answer, "negative")
    expect(psi2_answer, "negative")
    for got, want in zip(oracle_answers, ("negative", "negative", "positive")):
        expect(got, want)

    elapsed = time.time() - t0
    assert elapsed < 10.0, f"golden suite took {elapsed:.1f}s"
    _report(1, f"{checks} golden verdicts across all applicable algorithms "
               f"in {elapsed:.1f}s")


# --- criterion 2: oracle-equivalence fuzzing ----------------------------------

def _check_roundless_instance(seed: int) -> dict:
    rng = random.Random(seed)
    p = random_protocol(rng)
    phi = random_constraint(rng, p)
    out = {"routes": 0}
    want = oracle_prp(p, phi).answer
    if solve_prp_bounded(p, phi).answer != want:
        return {"fail": f"bounded vs oracle on seed {seed}"}
    out["routes"] += 1
    target = rng.randrange(p.num_states)
    cover_want = oracle_prp(p, cover_constraint(p, target)).answer
    if solve_cover_fixed_r(p, target).answer != cover_want:
        return {"fail": f"fixed-r vs oracle on seed {seed}"}
    out["routes"] += 1
    if is_uninitialized(p):
        if solve_cover_uninitialized(p, target).answer != cover_want:
            return {"fail": f"saturation vs oracle on seed {seed}"}
        out["saturation"] = 1
    if p.register_count == 1:
        if solve_dnfprp_one_register(
                p, cover_constraint(p, target)).answer != cover_want:
            return {"fail": f"one-reg cover vs oracle on seed {seed}"}
        dnf = random_dnf_constraint(rng, p)
        if solve_dnfprp_one_register(p, dnf).answer != \
                oracle_prp(p, dnf).answer:
            return {"fail": f"one-reg dnf vs oracle on seed {seed}"}
        out["onereg"] = 1
    return out


def _check_rb_instance(seed: int) -> str:
    rng = random.Random(seed)
    p = random_rb_protocol(rng)
    psi = random_rb_constraint(rng, p)
    K = default_round_cap(p, psi)
    try:
        want = oracle_prp(p, psi, max_round=K, space_cap=40_000)
    except CapExceeded:
        return "skip"
    got = solve_prp_roundbased(p, psi, budget=250_000)
    if got.answer == "unknown":
        return "unknown"
    if got.answer == "positive":
        final = replay(p, got.witness, ABSTRACT)
        bound = max_constant(psi) + max(
            [r for _, r in final.pop]
            + [r for (r, _), _ in final.regs] + [0]) + 1
        if not eval_roundbased(p, final, psi, active_bound=bound):
            return f"fail: unsound positive on seed {seed}"
        wit_top = max((m.rnd + (m.trans.action.kind == INC)
                       for m in got.witness.moves), default=0)
        if wit_top <= K and want.answer != "positive":
            return f"fail: oracle missed in-cap witness on seed {seed}"
        return "positive"
    if want.answer != "negative":
        return f"fail: unsound negative on seed {seed}"
    return "negative"


def test_criterion_2_oracle_equivalence_fuzz():
    with multiprocessing.Pool(2) as pool:
        results = pool.map(_check_roundless_instance,
                           range(100_000, 101_000), chunksize=25)
        fails = [r["fail"] for r in results if "fail" in r]
        assert not fails, fails[:3]
        saturation = sum(r.get("saturation", 0) for r in results)
        onereg = sum(r.get("onereg", 0) for r in results)

        rb_results = pool.map(_check_rb_instance, range(200_000, 200_260),
                              chunksize=5)
    rb_fails = [r for r in rb_results if r.startswith("fail")]
    assert not rb_fails, rb_fails[:3]
    counted = [r for r in rb_results if r != "skip"]
    definite = sum(1 for r in counted if r in ("positive", "negative"))
    unknown = sum(1 for r in counted if r == "unknown")
    assert definite + unknown >= 200
    _report(2, f"1000 roundless instances (saturation on {saturation}, "
               f"one-reg on {onereg}) and {definite + unknown} round-based "
               f"instances, zero disagreements; round-based unknown rate "
               f"{unknown}/{definite + unknown}")


def test_criterion_3_witness_length_bound():
    rng = random.Random(90909)
    positives = 0
    for _ in range(1000):
        p = random_protocol(rng)
        phi = random_constraint(rng, p)
        v = solve_prp_bounded(p, phi)
        if v.answer != "positive":
            continue
        positives += 1
        assert v.witness == oracle_prp(p, phi).witness
        final = replay(p, v.witness, ABSTRACT)
        assert eval_roundless(final, phi)
    assert positives >= 200
    _report(3, f"{positives} positive bounded-search witnesses, each the "
               f"oracle's shortest witness, all replayed and satisfied "
               f"their constraints")


# --- criterion 4: abstraction soundness/completeness ---------------------------

def _concrete_reach_patterns(p, max_processes: int) -> set:
    """(support, registers) pairs reachable with up to that many processes."""
    out = set()
    initials = sorted(p.initial_states)
    for n in range(1, max_processes + 1):
        for split in itertools.combinations_with_replacement(initials, n):
            start = ConcreteConfig(multiset((q, 0) for q in split),
                                   frozenset())
            seen = {start}
            stack = [start]
            while stack:
                c = stack.pop()
                out.add((project(c).pop, c.regs))
                for t in p.transitions:
                    try:
                        nxt = concrete_step(p, c, Move(t))
                    except NotEnabled:
                        continue
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
    return out


def test_criterion_4_abstraction_sound_complete():
    rng = random.Random(777)
    agreed = 0
    for _ in range(100):
        p = random_protocol(rng, max_states=4, max_symbols=3, max_regs=2,
                            max_trans=10)
        abstract = {(c.pop, c.regs) for c in members(reach(p))}
        concrete = _concrete_reach_patterns(p, 6)
        assert concrete == abstract, "abstraction mismatch"
        agreed += 1
    # realization: abstract oracle witnesses lift to concrete executions
    # with matching projections, duplicating processes via copycat
    rng2 = random.Random(778)
    lifted = 0
    for _ in range(40):
        p = random_protocol(rng2, max_states=4, max_symbols=3, max_regs=2,
                            max_trans=10)
        phi = random_constraint(rng2, p)
        v = oracle_prp(p, phi)
        if v.answer != "positive":
            continue
        cexec = abstract_to_concrete(p, v.witness)
        cfinal = replay(p, cexec, CONCRETE)
        assert project(cfinal) == replay(p, v.witness, ABSTRACT)
        lifted += 1
    assert lifted >= 10
    _report(4, f"{agreed} protocols: concrete (<= 6 processes) and abstract "
               f"reach patterns coincide; {lifted} abstract witnesses "
               f"realized concretely")


# --- criterion 5: reduction ground truth ---------------------------------------

def _canonical_clauses(n: int):
    lits = [l for v in range(1, n + 1) for l in (v, -v)]
    return sorted(set(tuple(sorted(c))
                      for c in itertools.combinations_with_replacement(lits,
                                                                       3)))


def _all_formulas(max_vars: int, max_clauses: int):
    """Canonical 3-CNF formulas whose highest mentioned variable is n."""
    for n in range(1, max_vars + 1):
        clauses = _canonical_clauses(n)
        for m in range(1, max_clauses + 1):
            for combo in itertools.combinations_with_replacement(clauses, m):
                if n > 1 and not any(any(abs(l) == n for l in cl)
                                     for cl in combo):
                    continue  # already covered at a smaller variable count
                yield CnfFormula(n, combo)


def _check_cnf(cnf: CnfFormula) -> str | None:
    want = "positive" if truth_table_satisfiable(cnf) else "negative"
    p, qf = sat_to_cover(cnf)
    got = oracle_prp(p, cover_constraint(p, qf), state_cap=20,
                     space_cap=500_000)
    if got.answer != want:
        return f"sat_to_cover disagrees on {cnf}"
    p2, qf2 = sat_to_uninit_target(cnf)
    if not is_uninitialized(p2):
        return f"sat_to_uninit_target output initialized on {cnf}"
    got2 = oracle_prp(p2, target_constraint(p2, qf2), state_cap=20,
                      space_cap=500_000)
    if got2.answer != want:
        return f"sat_to_uninit_target disagrees on {cnf}"
    return None


def _circuits_over(inputs, max_gates: int):
    wires0 = [w for w, _ in inputs]
    yield Circuit(inputs, (), wires0[-1])

    def extend(gates, wires, budget):
        if gates:
            yield Circuit(inputs, tuple(gates), gates[-1][-1])
        if budget == 0:
            return
        out = f"w{len(gates) + 1}"
        for op in ("not", "and", "or"):
            if op == "not":
                picks = [(w,) for w in wires]
            else:
                picks = list(itertools.combinations_with_replacement(wires, 2))
            for pick in picks:
                yield from extend(gates + [(op, *pick, out)], wires + [out],
                                  budget - 1)

    yield from extend([], list(wires0), max_gates)


def _all_circuits():
    """Circuits with <= 3 gates: exhaustive over one valued input, exhaustive
    over two inputs up to 2 gates, plus a seeded slice of the two-input
    3-gate space (exhausting it would be tens of thousands of oracle runs).
    """
    for val in (False, True):
        yield from _circuits_over((("i1", val),), 3)
    for vals in itertools.product((False, True), repeat=2):
        yield from _circuits_over((("i1", vals[0]), ("i2", vals[1])), 2)
    rng = random.Random(55)
    three_gate = []
    for vals in itertools.product((False, True), repeat=2):
        three_gate.extend(
            c for c in _circuits_over((("i1", vals[0]), ("i2", vals[1])), 3)
            if len(c.gates) == 3)
    yield from rng.sample(three_gate, 120)


def _check_circuit(c: Circuit) -> str | None:
    value = evaluate_circuit(c)
    for desired in (True, False):
        p, qf = cvp_to_cover(c, desired)
        want = "positive" if value == desired else "negative"
        got = oracle_prp(p, cover_constraint(p, qf), state_cap=24,
                         space_cap=300_000)
        if got.answer != want:
            return f"cvp_to_cover disagrees on {c} desired={desired}"
    return None


def test_criterion_5_reduction_ground_truth():
    formulas = list(_all_formulas(3, 2))
    circuits = list(_all_circuits())
    with multiprocessing.Pool(2) as pool:
        cnf_fails = [r for r in pool.map(_check_cnf, formulas, chunksize=16)
                     if r]
        circuit_fails = [r for r in pool.map(_check_circuit, circuits,
                                             chunksize=16) if r]
    assert not cnf_fails, cnf_fails[:3]
    assert not circuit_fails, circuit_fails[:3]
    _report(5, f"{len(formulas)} canonical 3-CNF formulas (n <= 3, m <= 2) "
               f"and {len(circuits)} circuits agree with truth-table and "
               f"evaluation ground truth through both reductions")


# --- criteria 6 and 7: normal form and gluing ------------------------------------

def test_criterion_6_normal_form_bound():
    rng = random.Random(60606)
    total = 0
    protocols = [PROTOCOLS["fig4"]] + [
        random_rb_protocol(rng, visibility_max=2) for _ in range(30)]
    while total < 500:
        p = protocols[total % len(protocols)]
        exec_ = random_rb_execution(rng, p)
        out = normalize_execution(p, exec_)
        assert replay(p, out, ABSTRACT) == replay(p, exec_, ABSTRACT)
        assert normal_form_violations(p, out) == []
        assert locations_deserted_more_than_once(p, out) == []
        bound = normal_form_round_bound(p)
        assert all(n <= bound for n in per_round_step_counts(out).values())
        total += 1
    _report(6, f"{total} random executions normalized: all three conditions "
               f"hold, <= |Q|(2v+5) steps per round, endpoints preserved")


def test_criterion_7_footprint_gluing():
    rng = random.Random(70707)
    total = 0
    protocols = [PROTOCOLS["fig4"]] + [
        random_rb_protocol(rng, visibility_max=2) for _ in range(30)]
    while total < 500:
        p = protocols[total % len(protocols)]
        v = max(p.visibility or 0, 1)
        exec_ = normalize_execution(p, random_rb_execution(rng, p))
        K = 4
        taus = [project_footprint(p, exec_, k - v + 1, k)
                for k in range(K + 1)]
        bridges = [project_footprint(p, exec_, k - v + 1, k + 1)
                   for k in range(K)]
        glued = combine_footprints(p, taus, bridges)
        for k in range(K + 1):
            assert project_footprint(p, glued, k - v + 1, k) == taus[k]
        total += 1
    _report(7, f"{total} normalized executions: per-window footprints of "
               f"the recombined execution equal the originals exactly")
