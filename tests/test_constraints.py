"""Constraint parsing, evaluation and decomposition tests."""

import itertools
import random

import pytest

from regverify.constraints import (MAX_NESTING, ROUND0, And, Exists, Forall,
                                   Not, Or, PopAt, RegAt, FALSE, TRUE,
                                   Term, _is_quantifier_or_atom,
                                   _quantified_entries,
                                   closed_atoms_of,
                                   decompose_apcs, dnf_clauses,
                                   eval_prop_at, eval_roundbased,
                                   eval_roundless,
                                   forcing_literal_sets, format_constraint,
                                   ground,
                                   max_constant, parse_round_constraint,
                                   parse_roundless_constraint,
                                   negated_states, nnf, prime_implicants,
                                   to_dnf)
from regverify.errors import ConstraintSyntaxError, NotDNF
from regverify.model import parse_protocol
from regverify.reductions import builtin_examples
from regverify.semantics import (AbstractConfig, ConcreteConfig, multiset,
                                 project)

from generators import (random_constraint, random_protocol,
                        random_rb_protocol)
from lemmas import apc_leaves, clause_holds
from reference import (eval_with_assignment, full_quantified_entries,
                       members, reach, roundless_config, roundless_regs,
                       truth_table_prime_implicants)

PROTOCOLS, CONSTRAINTS = builtin_examples()
FIG1 = PROTOCOLS["fig1"]
EX22 = PROTOCOLS["ex22"]
EX42 = PROTOCOLS["ex42"]


def rl(p, text):
    return parse_roundless_constraint(text, p)


def rb(p, text):
    return parse_round_constraint(text, p)


def test_example_22_evaluations():
    phi = rl(EX22, CONSTRAINTS["ex22_phi"].text)
    q1, q2, q3 = (EX22.state_id(n) for n in ("q1", "q2", "q3"))
    d0, a, b = (EX22.symbol_id(n) for n in ("d0", "a", "b"))
    assert eval_roundless(roundless_config({q1, q3}, (d0, d0)), phi)
    assert eval_roundless(roundless_config({q2}, (a, b)), phi)
    assert not eval_roundless(roundless_config({q2}, (b, b)), phi)


def test_tautology_on_any_configuration():
    phi = rl(FIG1, "(or (pop qf) (not (pop qf)))")
    c = roundless_config({FIG1.state_id("q0")}, (0,))
    assert eval_roundless(c, phi)


def test_concrete_evaluates_as_projection():
    rng = random.Random(5)
    phi = rl(FIG1, CONSTRAINTS["ex26_phi"].text)
    states = list(range(FIG1.num_states))
    for _ in range(200):
        pop = multiset((q, 0) for q in rng.choices(states,
                                                   k=rng.randrange(1, 6)))
        regs = roundless_regs((rng.randrange(FIG1.num_symbols),))
        c = ConcreteConfig(pop, regs)
        assert eval_roundless(c, phi) == eval_roundless(project(c), phi)


def test_example_42_evaluations():
    q0, q1 = EX42.state_id("q0"), EX42.state_id("q1")
    c = AbstractConfig(frozenset({(q0, 0), (q1, 1)}), frozenset())
    assert eval_roundbased(EX42, c, rb(EX42, CONSTRAINTS["ex42_a"].text))
    assert not eval_roundbased(EX42, c, rb(EX42, CONSTRAINTS["ex42_b"].text))


def test_tail_rule():
    psi = rb(EX42, "(forall k (reg 1 (+ k 0) d0))")
    empty = AbstractConfig(frozenset(), frozenset())
    assert eval_roundbased(EX42, empty, psi, active_bound=0)
    psi2 = rb(EX42, "(forall k (reg 1 (+ k 0) a))")
    assert not eval_roundbased(EX42, empty, psi2, active_bound=0)


def test_tail_agrees_with_truncated_bruteforce():
    # explicit evaluation up to active_bound + M + 1 rounds must agree with
    # the tail rule on configurations with bounded activity
    rng = random.Random(9)
    q0, q1 = EX42.state_id("q0"), EX42.state_id("q1")
    a = EX42.symbol_id("a")
    formulas = [
        rb(EX42, "(forall k (or (pop q0 (+ k 0)) (reg 1 (+ k 0) d0)))"),
        rb(EX42, "(exists k (and (pop q1 (+ k 0)) (reg 1 (+ k 1) a)))"),
        rb(EX42, "(forall k (not (pop q1 (+ k 2))))"),
        rb(EX42, "(exists k (reg 1 (+ k 0) d0))"),
        # constant-round atoms keep their value on the tail
        rb(EX42, "(forall k (or (pop q0 0) (pop q1 (+ k 0))))"),
        rb(EX42, "(exists k (and (pop q0 (+ k 0)) (reg 1 2 a)))"),
    ]
    for _ in range(100):
        pop = frozenset((rng.choice([q0, q1]), rng.randrange(0, 4))
                        for _ in range(rng.randrange(0, 4)))
        regs_map = {}
        for _ in range(rng.randrange(0, 2)):
            regs_map[(rng.randrange(0, 4), 0)] = a
        c = AbstractConfig(pop, frozenset(regs_map.items()))
        bound = 4
        for psi in formulas:
            M = max_constant(psi)
            got = eval_roundbased(EX42, c, psi, active_bound=bound)

            def explicit(limit):
                def ev(node):
                    if isinstance(node, Forall):
                        return all(eval_prop_at(c, node.prop, k)
                                   for k in range(limit))
                    if isinstance(node, Exists):
                        return any(eval_prop_at(c, node.prop, k)
                                   for k in range(limit))
                    if isinstance(node, And):
                        return all(ev(x) for x in node.children)
                    if isinstance(node, Or):
                        return any(ev(x) for x in node.children)
                    if isinstance(node, Not):
                        return not ev(node.child)
                    return eval_prop_at(c, node, None)
                return ev(psi)

            # for universals, truncation can only agree once deep enough that
            # the tail is uniform; bound + M + 1 rounds suffice
            deep = explicit(bound + M + 2)
            very_deep = explicit(bound + M + 50)
            assert deep == very_deep == got
            # the configuration's own, tighter bound gives the same verdict
            assert eval_roundbased(EX42, c, psi) == got


def test_parse_errors():
    with pytest.raises(ConstraintSyntaxError):
        rl(FIG1, "(pop qf")
    with pytest.raises(ConstraintSyntaxError):
        rl(FIG1, "(and (pop qf)) extra")
    with pytest.raises(ConstraintSyntaxError):
        rb(EX42, "(exists k (exists j (pop q0 (+ j 0))))")  # nested
    with pytest.raises(ConstraintSyntaxError):
        rb(EX42, "(pop q0 (+ k 0))")  # free variable
    with pytest.raises(ConstraintSyntaxError):
        rb(EX42, "(pop q0 99)")  # constant above the unary cap
    for text in ("(reg x a)", "(reg (1) a)"):  # malformed register numbers
        with pytest.raises(ConstraintSyntaxError):
            rl(FIG1, text)
    # a symbol in parentheses
    with pytest.raises(ConstraintSyntaxError, match=r"bad symbol \['a'\]"):
        rl(FIG1, "(reg 1 (a))")
    with pytest.raises(ConstraintSyntaxError, match=r"bad symbol \['d0'\]"):
        rb(EX42, "(reg 1 0 (d0))")
    for text in ("(exists k (pop q0 (+ k x)))",
                 "(exists k (pop q0 (+ k (1))))",
                 "(exists k (reg x (+ k 0) a))"):
        with pytest.raises(ConstraintSyntaxError):
            rb(EX42, text)


@pytest.mark.parametrize("parse, p, text, message", [
    (rl, FIG1, "(pop qf 0)", "pop takes one state"),
    (rl, FIG1, "(reg 1 0 a)", "reg takes register and symbol"),
    (rl, FIG1, "(exists k (pop qf))", "unknown operator 'exists'"),
    (rb, EX42, "(pop q0)", "pop takes a state and a term"),
    (rb, EX42, "(reg 1 a)", "reg takes register, term and symbol"),
    (rb, EX42, "(exists k (reg 1 a))", "reg takes register, term and symbol"),
], ids=["rl-pop", "rl-reg", "rl-exists", "rb-pop", "rb-reg", "rb-exists"])
def test_other_flavor_is_rejected(parse, p, text, message):
    with pytest.raises(ConstraintSyntaxError) as info:
        parse(p, text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("", "empty constraint"),
    ("  ; only a comment", "empty constraint"),
    (")", "unexpected ')'"),
    ("(pop qf", "missing closing parenthesis"),
    ("(and (pop qf)", "missing closing parenthesis"),
    ("(pop qf))", "trailing input after constraint"),
    ("(pop qf) (pop q0)", "trailing input after constraint"),
    ("true false", "trailing input after constraint"),
])
def test_sexpr_errors(text, message):
    with pytest.raises(ConstraintSyntaxError) as info:
        rl(FIG1, text)
    assert str(info.value) == message


@pytest.mark.parametrize("parse, atom", [
    (lambda text: rl(FIG1, text), "(pop qf)"),
    (lambda text: rb(EX42, text), "(pop q0 0)")], ids=["roundless", "round"])
def test_nesting_cap(parse, atom):
    def negated(n):  # n + 1 nested parentheses
        return "(not " * n + atom + ")" * n
    assert parse(negated(MAX_NESTING - 1)) == Not(
        parse(negated(MAX_NESTING - 2)))
    for n in (MAX_NESTING, 1000):
        with pytest.raises(ConstraintSyntaxError,
                           match=f"deeper than {MAX_NESTING} parentheses"):
            parse(negated(n))


def test_nodes_of_different_types_differ():
    # constraint nodes compare by type and fields; as plain tuples, a
    # quantifier would equal the other one over the same body, and TRUE
    # (the empty conjunction) FALSE (the empty disjunction)
    body = PopAt(0, Term(True, 0))
    assert Exists(body) != Forall(body)
    assert TRUE != FALSE
    assert And((PopAt(0, ROUND0),)) != Or((PopAt(0, ROUND0),))
    assert PopAt(0, ROUND0) != Not(0)
    assert rb(EX42, "(exists k (pop q0 (+ k 0)))") != \
        rb(EX42, "(forall k (pop q0 (+ k 0)))")
    assert len({TRUE, FALSE, Exists(body), Forall(body)}) == 4
    # nodes are named tuples, yet no node equals the plain tuple of its
    # fields, which ``oracle`` reads as a compiled bit test
    for node in (body, body.term, Not(body), TRUE, FALSE, Exists(body),
                 RegAt(0, ROUND0, 1)):
        assert node != tuple(node) and tuple(node) != node
    assert hash(Exists(body)) != hash(Forall(body))
    assert hash(TRUE) != hash(FALSE)
    assert hash(And((body,))) != hash(Or((body,)))
    # rb-search orders its branches by ``repr``
    assert repr(rb(EX42, "(forall k (or (pop q0 (+ k 0)) "
                         "(not (reg 1 (+ k 1) a))))")) == (
        "Forall(prop=Or(children=(PopAt(state=0, term=Term(has_var=True, "
        "offset=0)), Not(child=RegAt(reg=0, term=Term(has_var=True, "
        "offset=1), symbol=1)))))")


def test_format_roundtrip():
    for key in ("ex22_phi", "ex26_phi", "cover_qf", "target_qf"):
        nc = CONSTRAINTS[key]
        p = PROTOCOLS[nc.protocol]
        phi = rl(p, nc.text)
        assert rl(p, format_constraint(p, phi)) == phi
    for key in ("psi1", "psi2", "psi3", "ex42_a", "ex42_b"):
        nc = CONSTRAINTS[key]
        p = PROTOCOLS[nc.protocol]
        psi = rb(p, nc.text)
        assert rb(p, format_constraint(p, psi)) == psi


def test_dnf_rejects_example_26():
    phi = rl(FIG1, CONSTRAINTS["ex26_phi"].text)
    with pytest.raises(NotDNF):
        dnf_clauses(FIG1, phi)


def test_dnf_clause_decomposition():
    phi = rl(FIG1, "(and (not (pop C)) (reg 1 a))")
    [dec] = dnf_clauses(FIG1, phi)
    assert dec.q_plus == frozenset()
    assert dec.q_minus == {FIG1.state_id("C")}
    assert dec.d_ok == (frozenset({FIG1.symbol_id("a")}),)
    assert dec.satisfiable


def test_dnf_contradictory_clause_flagged():
    phi = rl(FIG1, "(and (pop qf) (not (pop qf)))")
    [dec] = dnf_clauses(FIG1, phi)
    assert not dec.satisfiable


def test_dnf_clauses_agree_with_eval():
    rng = random.Random(23)
    phi = rl(FIG1, "(or (and (not (pop C)) (reg 1 a)) "
                   "(and (pop qf) (not (reg 1 b))) (pop B))")
    decs = dnf_clauses(FIG1, phi)
    states = list(range(FIG1.num_states))
    for _ in range(1000):
        S = frozenset(rng.sample(states, rng.randrange(1, 5)))
        regs = (rng.randrange(FIG1.num_symbols),)
        c = roundless_config(S, regs)
        direct = eval_roundless(c, phi)
        via = any(d.satisfiable and clause_holds(d, c) for d in decs)
        assert direct == via


def test_roundless_and_roundbased_evaluators_agree():
    # a roundless configuration is the round-0 one, and so is a roundless
    # atom: the round-based evaluator reads it as the roundless one does,
    # which ``oracle.validated`` relies on to use the cheaper one
    seen = {True: 0, False: 0}
    for seed in range(500):
        rng = random.Random(f"evaluators:{seed}")
        p = random_protocol(rng)
        phi = random_constraint(rng, p)
        for c in members(reach(p)):
            holds = eval_roundless(c, phi)
            assert holds == eval_roundbased(p, c, phi), (seed, c)
            seen[holds] += 1
    assert min(seen.values()) > 2500, seen


def test_to_dnf_preserves_meaning():
    phi = rl(FIG1, CONSTRAINTS["ex26_phi"].text)
    dnf = to_dnf(phi)
    dnf_clauses(FIG1, dnf)  # must not raise
    rng = random.Random(31)
    states = list(range(FIG1.num_states))
    for _ in range(500):
        S = frozenset(rng.sample(states, rng.randrange(1, 5)))
        regs = (rng.randrange(FIG1.num_symbols),)
        c = roundless_config(S, regs)
        assert eval_roundless(c, phi) == eval_roundless(c, dnf)


def test_to_dnf_preserves_meaning_on_random_constraints():
    checked = 0
    for seed in range(100000, 100400):
        rng = random.Random(seed)
        p = random_protocol(rng)
        if p.register_count != 1:
            continue
        phi = random_constraint(rng, p)
        dnf = to_dnf(phi)
        dnf_clauses(p, dnf)  # must not raise
        literal_sets = [frozenset(c.children) for c in dnf.children]
        assert all(len(s) == len(c.children)
                   for s, c in zip(literal_sets, dnf.children)), seed
        assert len(set(literal_sets)) == len(literal_sets), seed
        for n in range(p.num_states + 1):
            for S in itertools.combinations(range(p.num_states), n):
                for d in range(p.num_symbols):
                    c = roundless_config(S, (d,))
                    assert eval_roundless(c, phi) == eval_roundless(c, dnf)
        checked += 1
    assert checked > 100


def _in_nnf(node) -> bool:
    if isinstance(node, Not):
        return isinstance(node.child, (PopAt, RegAt))
    if isinstance(node, (And, Or)):
        return all(type(x) is not type(node) and _in_nnf(x)
                   for x in node.children)
    if isinstance(node, (Exists, Forall)):
        return _in_nnf(node.prop)
    return True


@pytest.mark.parametrize("flavor", ["roundless", "roundbased"])
def test_nnf_keeps_meaning_and_shape(flavor):
    # on random formulas with nots over connectives, constants and
    # quantifiers: nnf agrees with the formula on random configurations,
    # has a not only over an atom and no and (or) under an and (or), and
    # is its own nnf
    rng = random.Random(f"nnf:{flavor}")
    changed = 0
    for _ in range(300):
        if flavor == "roundless":
            p = random_protocol(rng)
            atoms = [PopAt(q, ROUND0) for q in range(p.num_states)] + [
                RegAt(j, ROUND0, a) for j in range(p.register_count)
                for a in range(p.num_symbols)]
            f = _random_formula(rng, rng.sample(atoms, min(len(atoms), 5)),
                                4)

            def config():
                return roundless_config(
                    [q for q in range(p.num_states) if rng.random() < 0.5],
                    [rng.randrange(p.num_symbols)
                     for _ in range(p.register_count)])
            holds = eval_roundless
        else:
            p = random_rb_protocol(rng)

            def atom(bound):
                t = Term(bound and rng.random() < 0.7, rng.randrange(3))
                if rng.random() < 0.6:
                    return PopAt(rng.randrange(p.num_states), t)
                return RegAt(0, t, rng.randrange(p.num_symbols))
            bodies = [_random_formula(rng, [atom(True) for _ in range(4)], 2)
                      for _ in range(2)]
            f = _random_formula(rng, [atom(False), atom(False),
                                      Exists(bodies[0]), Forall(bodies[1])],
                                4)

            def config():
                rounds = range(rng.randrange(1, 4))
                return AbstractConfig(
                    frozenset((q, k) for q in range(p.num_states)
                              for k in rounds if rng.random() < 0.4),
                    frozenset(((k, 0), s) for k in rounds
                              if (s := rng.randrange(p.num_symbols))))

            def holds(c, f):
                return eval_roundbased(p, c, f)
        g = nnf(f)
        assert _in_nnf(g) and nnf(g) == g, f
        changed += g != f
        for _ in range(20):
            c = config()
            assert holds(c, g) == holds(c, f), (f, c)
    assert changed > 100


def test_to_dnf_guard_counts_distinct_clauses():
    def disjoint(n):  # 2**n distinct clauses
        return And(tuple(Or((PopAt(2 * i, ROUND0), PopAt(2 * i + 1, ROUND0)))
                         for i in range(n)))
    assert len(to_dnf(disjoint(12)).children) == 4096
    with pytest.raises(NotDNF, match="exceeds the size guard"):
        to_dnf(disjoint(13))
    # 2**13 clauses with repeats, but only 3 * 3 distinct literal sets
    x = Or((PopAt(FIG1.state_id("q0"), ROUND0),
            RegAt(0, ROUND0, FIG1.symbol_id("a"))))
    y = Or((PopAt(FIG1.state_id("A"), ROUND0),
            RegAt(0, ROUND0, FIG1.symbol_id("b"))))
    dnf = to_dnf(And(tuple(x if i % 2 == 0 else y for i in range(13))))
    assert dnf.children[0] == And((x.children[0], y.children[0]))

    def nonempty(o):  # the nonempty sets of an Or's two atoms
        return [{o.children[0]}, {o.children[1]}, set(o.children)]
    assert len(dnf.children) == 9
    assert {frozenset(c.children) for c in dnf.children} == {
        frozenset(a | b) for a in nonempty(x) for b in nonempty(y)}


def test_decompose_single_existential():
    psi = rb(EX42, "(exists k (pop q0 (+ k 0)))")
    cands = decompose_apcs(psi)
    assert len(cands) == 1
    cand = cands[0]
    assert cand.closed == frozenset() and cand.universal == frozenset()
    assert cand.existential == {apc_leaves(psi)[0].prop}


def test_decompose_psi3_candidates():
    nc = CONSTRAINTS["psi3"]
    psi = rb(PROTOCOLS["fig4"], nc.text)
    cands = decompose_apcs(psi)
    E2 = PROTOCOLS["fig4"].state_id("E")
    want_closed = PopAt(E2, Term(False, 2))
    assert any(want_closed in c.closed and len(c.universal) == 1
               and not c.existential for c in cands)


def test_decompose_contradiction_is_empty():
    psi = rb(EX42, "(and (exists k (pop q0 (+ k 0))) "
                   "(not (exists k (pop q0 (+ k 0)))))")
    assert decompose_apcs(psi) == []


def test_decompose_candidates_force_truth():
    # forcing any candidate's members true makes the constraint true under
    # every completion of the remaining APCs (quantified-only formula)
    psi = rb(EX42, "(or (exists k (pop q0 (+ k 0))) "
                   "(and (forall k (reg 1 (+ k 0) d0)) "
                   "(forall k (not (pop q1 (+ k 0))))))")
    leaves = apc_leaves(psi)
    cands = decompose_apcs(psi)
    assert cands
    for cand in cands:
        assert not cand.closed
        fixed = {}
        for leaf in leaves:
            if isinstance(leaf, Exists) and leaf.prop in cand.existential:
                fixed[leaf] = True
            if isinstance(leaf, Forall) and leaf.prop in cand.universal:
                fixed[leaf] = True
        free = [l for l in leaves if l not in fixed]
        for bits in itertools.product((True, False), repeat=len(free)):
            assign = dict(fixed)
            assign.update(zip(free, bits))
            assert eval_with_assignment(psi, assign)


def test_forcing_literal_sets_minimal():
    prop = rb(EX42, "(exists k (or (pop q0 (+ k 0)) (pop q1 (+ k 0))))")
    [leaf] = apc_leaves(prop)
    sets = forcing_literal_sets(leaf.prop)
    assert {frozenset(s.items()) for s in sets[:2]} == {
        frozenset({(PopAt(EX42.state_id("q0"), Term(True, 0)), True)}),
        frozenset({(PopAt(EX42.state_id("q1"), Term(True, 0)), True)}),
    }


def _random_formula(rng, atoms, depth):
    """A random And/Or/Not tree over ``atoms`` with constants, repeated
    subtrees and tautologies mixed in."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return rng.choice(atoms + [TRUE, FALSE] if rng.random() < 0.1
                          else atoms)
    if roll < 0.35:
        return Not(_random_formula(rng, atoms, depth - 1))
    if roll < 0.42:
        x = _random_formula(rng, atoms, depth - 1)
        return Or((x, Not(x)))  # a tautology
    kids = tuple(_random_formula(rng, atoms, depth - 1)
                 for _ in range(rng.randrange(0, 4)))
    return (And if rng.random() < 0.5 else Or)(kids)


@pytest.mark.parametrize("kind", ["atoms", "apc-leaves"])
def test_prime_implicants_match_truth_table(kind):
    # same implicants in the same order as trying every partial assignment
    rng = random.Random(f"prime-implicants:{kind}")
    atoms = [PopAt(0, Term(False, 0)), PopAt(1, Term(True, 1)),
             RegAt(0, Term(False, 2), 1), RegAt(1, Term(True, 0), 0),
             PopAt(2, Term(False, 1))]
    if kind == "atoms":
        is_leaf = lambda n: isinstance(n, (PopAt, RegAt))
    else:
        # closed atoms and quantified propositions: decompose_apcs's leaves
        atoms = [atoms[0], atoms[2], Exists(atoms[1]),
                 Forall(Not(atoms[3])), Exists(atoms[3])]
        is_leaf = _is_quantifier_or_atom
    a, b = atoms[0], atoms[2]
    # implicants on one set of leaves: True comes before False
    fixed = [Or((And((a, b)), And((Not(a), Not(b))))),
             Or((And((a, Not(b))), And((Not(a), b))))]
    for phi in fixed + [_random_formula(rng, atoms, 3) for _ in range(400)]:
        got = prime_implicants(phi, is_leaf)
        want = truth_table_prime_implicants(phi, is_leaf)
        assert [list(d.items()) for d in got] == \
            [list(d.items()) for d in want], phi


def _completions(apc, entry) -> list:
    """A discharged entry as the entries of its guess's completions, in
    guessing order, True first."""
    lits, role, _ = entry
    if role != "none":
        return [entry]
    rest = closed_atoms_of(apc.prop)[len(lits):]
    return [(lits | {ground(a, v, None) for a, v in zip(rest, bits)},
             "none", None)
            for bits in itertools.product((True, False), repeat=len(rest))]


@pytest.mark.parametrize("quantifier", [Exists, Forall])
def test_quantified_entries_match_full_enumeration(quantifier):
    # the pruned guess drops exactly the dead entries, keeping the order;
    # a guess that already discharges the APC stands for its completions
    rng = random.Random(f"quantified-entries:{quantifier.__name__}")
    atoms = [PopAt(0, Term(False, 0)), PopAt(1, Term(True, 1)),
             RegAt(0, Term(False, 2), 1), RegAt(1, Term(True, 0), 0),
             PopAt(2, Term(False, 1)), RegAt(0, Term(False, 0), 2)]
    for _ in range(300):
        apc = quantifier(_random_formula(rng, atoms, 3))
        for value in (True, False):
            want = [e for e in full_quantified_entries(apc, value)
                    if e[1] != "dead"]
            got = [e for entry in _quantified_entries(apc, value)
                   for e in _completions(apc, entry)]
            assert got == want, (apc, value)


def test_quantified_entries_prune_false_guesses():
    # 2^20 guesses of the constant atoms; every one but all-True is dead
    p = parse_protocol("flavor: roundbased\nstates: "
                       + " ".join(f"s{i}" for i in range(20))
                       + "\ninitial: s0\nregisters: 1\nalphabet: d0\n"
                       "visibility: 0\ntransitions:\n")
    psi = rb(p, "(exists k (and " + " ".join(f"(pop s{i} 0)"
                                           for i in range(20))
             + " (pop s0 (+ k 0))))")
    [cand] = decompose_apcs(psi)
    assert len(cand.closed) == 20 and len(cand.existential) == 1


def test_quantified_entries_stop_at_discharging_guesses():
    # any one false atom discharges the negated existential: n + 1
    # candidates, not one per complete guess (2^12)
    p = parse_protocol("flavor: roundbased\nstates: "
                       + " ".join(f"s{i}" for i in range(12))
                       + "\ninitial: s0\nregisters: 1\nalphabet: d0\n"
                       "visibility: 0\ntransitions:\n")
    psi = rb(p, "(not (exists k (and " + " ".join(f"(pop s{i} 0)"
                                                for i in range(12))
             + " (pop s0 (+ k 0)))))")
    cands = decompose_apcs(psi)
    assert len(cands) == 13
    [full] = [c for c in cands if c.universal]
    assert full.closed == {PopAt(i, Term(False, 0)) for i in range(12)}
    assert sorted(len(c.closed) for c in cands if not c.universal) == \
        list(range(1, 13))


def test_decompose_long_conjunction_is_one_candidate():
    # 2^16 partial assignments would be tried by the truth-table search
    p = parse_protocol("flavor: roundbased\nstates: "
                       + " ".join(f"s{i}" for i in range(16))
                       + "\ninitial: s0\nregisters: 1\nalphabet: d0\n"
                       "visibility: 0\ntransitions:\n")
    psi = rb(p, "(and " + " ".join(f"(pop s{i} 0)" for i in range(16)) + ")")
    [cand] = decompose_apcs(psi)
    assert len(cand.closed) == 16
    assert not cand.existential and not cand.universal


def test_decompose_product_of_disjunctions_lists_every_choice():
    # 2^12 implicants of one size, none containing another
    p = parse_protocol("flavor: roundbased\nstates: "
                       + " ".join(f"{x}{i}" for i in range(12) for x in "ab")
                       + "\ninitial: a0\nregisters: 1\nalphabet: d0\n"
                       "visibility: 0\ntransitions:\n")
    psi = rb(p, "(and " + " ".join(f"(or (pop a{i} 0) (pop b{i} 0))"
                                   for i in range(12)) + ")")
    cands = decompose_apcs(psi)
    assert len(cands) == 4096
    assert all(len(c.closed) == 12 for c in cands)


@pytest.mark.parametrize("text, monotone", [
    ("(pop q1)", True),
    ("(not (pop q1))", False),
    ("(not (not (pop q1)))", True),
    ("(not (reg 1 a))", True),
    ("(not (and (reg 1 a) (pop q2)))", False),
    ("(or (not (or (not (pop q1)) (reg 1 b))) (pop q3))", True),
    ("true", True),
])
def test_population_monotone_roundless(text, monotone):
    # monotone in the whole population: no state is negated
    assert (not negated_states(
        parse_roundless_constraint(text, EX22))) == monotone


@pytest.mark.parametrize("text, monotone", [
    ("(exists k (pop q1 (+ k 1)))", True),
    ("(forall k (or (pop q0 (+ k 0)) (not (pop q1 (+ k 0)))))", False),
    ("(and (reg 1 0 d0) (forall k (not (reg 1 (+ k 0) a))))", True),
    ("(exists k (not (and (pop q0 0) (not (pop q1 (+ k 2))))))", False),
    ("(not (or (not (pop q0 1)) (not (reg 1 1 a))))", True),
])
def test_population_monotone_roundbased(text, monotone):
    assert (not negated_states(rb(EX42, text))) == monotone


@pytest.mark.parametrize("p, text, negated", [
    (EX22, "(and (not (pop q1)) (not (not (pop q2))) (pop q3))", "q1"),
    (EX22, "(not (and (reg 1 a) (or (pop q2) (not (pop q3)))))", "q2"),
    (EX22, "(or (not (pop q1)) (and (pop q1) (not (reg 1 b))))", "q1"),
    (EX22, "(not (or (not (pop q1)) (not (pop q2))))", ""),
    (EX42, "(exists k (not (or (pop q0 (+ k 0)) (not (pop q1 0)))))", "q0"),
    (EX42, "(and (not (forall k (pop q1 (+ k 2)))) "
           "(exists k (not (pop q0 (+ k 0)))))", "q0 q1"),
    (EX42, "(not (exists k (and (reg 1 (+ k 0) a) (not (pop q0 1)))))", ""),
    (EX42, "(and (pop q0 3) (not (reg 1 0 d0)))", ""),
])
def test_negated_states(p, text, negated):
    # nested negations count mod 2, at any round; quantifiers pass the
    # parity through, and register atoms add no state
    parse = parse_round_constraint if p is EX42 else \
        parse_roundless_constraint
    want = frozenset(map(p.state_id, negated.split()))
    assert negated_states(parse(text, p)) == want
