"""Presence-constraint languages: parsing, evaluation, decompositions.

Round-based constraints are Boolean trees whose leaves are atomic presence
constraints (APCs): closed propositions, or singly-quantified propositions
``exists k . prop`` / ``forall k . prop`` where the proposition is a Boolean
tree over ``pop(q, t)`` and ``reg(j, t, a)`` atoms (``PopAt``, ``RegAt``)
with terms ``m`` or ``k+m``.  Nested quantification is rejected.
Roundless constraints are Boolean trees over ``pop(q)`` and ``reg(j, a)``
atoms, which parse to the round-0 ``PopAt`` and ``RegAt``: a roundless
configuration is the round-0 one, and only the text format of a constraint
tells the flavors apart.

Quantifiers range over all naturals.  A configuration is active on finitely
many rounds, so past ``active_bound + M`` (M the largest term constant) every
round looks the same: atoms carrying the variable read an empty round, where
population atoms are false and a register holds the initial symbol, while
constant-round atoms keep their value.  Evaluation therefore checks rounds
``0..active_bound + M + 1``; the last one stands for the whole infinite tail.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import ConstraintSyntaxError, NotDNF
from .model import ROUNDLESS, Protocol
from .semantics import AbstractConfig, ConcreteConfig, project, reg_get

MAX_TERM_CONSTANT = 64  # terms are unary-bounded; keep them desk-sized
MAX_NESTING = 100  # parenthesis depth; evaluation recurses once per level
MAX_DNF_CLAUSES = 4096  # distinct clauses ``to_dnf`` may keep


# --- AST ----------------------------------------------------------------------

class Term(NamedTuple):
    has_var: bool
    offset: int


class PopAt(NamedTuple):
    state: int
    term: Term


class RegAt(NamedTuple):
    reg: int
    term: Term
    symbol: int


class Not(NamedTuple):
    child: object


class And(NamedTuple):
    children: tuple


class Or(NamedTuple):
    children: tuple


class Exists(NamedTuple):
    prop: object


class Forall(NamedTuple):
    prop: object


def _node_eq(a, b) -> bool:
    return type(a) is type(b) and tuple.__eq__(a, b)


def _node_ne(a, b) -> bool:
    return not _node_eq(a, b)


def _node_hash(a) -> int:
    return hash((a._tag, *a))


# Nodes are named tuples, but equal and hash apart across types, so that
# ``TRUE != FALSE``, ``Exists(x) != Forall(x)`` and no node equals the plain
# tuple of its fields (a compiled bit test in ``oracle``).  The tag keeps
# hashes, and so set orders, the same in every process.
for _tag, _cls in enumerate((Term, PopAt, RegAt, Not, And, Or, Exists,
                             Forall)):
    _cls._tag = _tag
    _cls.__eq__, _cls.__ne__, _cls.__hash__ = _node_eq, _node_ne, _node_hash
del _tag, _cls

TRUE = And(())
FALSE = Or(())
ROUND0 = Term(False, 0)  # the round of every roundless atom


# --- parsing -------------------------------------------------------------------

def _tokenize(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        out.append(line.split(";", 1)[0])
    text = " ".join(out)
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_sexpr(text: str):
    """Nested lists of tokens; at most ``MAX_NESTING`` open parentheses."""
    tokens = _tokenize(text)
    if not tokens:
        raise ConstraintSyntaxError("empty constraint")
    stack: list[list] = []  # the open lists, outermost first
    for pos, tok in enumerate(tokens):
        if tok == "(":
            if len(stack) == MAX_NESTING:
                raise ConstraintSyntaxError(
                    f"constraint nests deeper than {MAX_NESTING} parentheses")
            stack.append([])
            continue
        if tok == ")":
            if not stack:
                raise ConstraintSyntaxError("unexpected ')'")
            item = stack.pop()
        else:
            item = tok
        if stack:
            stack[-1].append(item)
        elif pos + 1 < len(tokens):
            raise ConstraintSyntaxError("trailing input after constraint")
        else:
            return item
    raise ConstraintSyntaxError("missing closing parenthesis")


def parse_roundless_constraint(text: str, p: Protocol):
    return _build(_parse_sexpr(text), p, None, rounds=False)


def parse_round_constraint(text: str, p: Protocol):
    return _build(_parse_sexpr(text), p, None, rounds=True)


def _build(e, p: Protocol, var: str | None, rounds: bool):
    """One builder for both languages: with ``rounds`` the atoms take a term
    and a single quantifier binds ``var``; without, neither is accepted."""
    if e == "true":
        return TRUE
    if e == "false":
        return FALSE
    if not isinstance(e, list) or not e:
        raise ConstraintSyntaxError(f"cannot parse {e!r}")
    head = e[0]
    if head in ("and", "or"):
        kids = tuple(_build(x, p, var, rounds) for x in e[1:])
        return And(kids) if head == "and" else Or(kids)
    if head == "not":
        if len(e) != 2:
            raise ConstraintSyntaxError("not takes one argument")
        return Not(_build(e[1], p, var, rounds))
    if rounds and head in ("exists", "forall"):
        if var is not None:
            raise ConstraintSyntaxError("nested quantifiers are not allowed")
        if len(e) != 3 or not isinstance(e[1], str):
            raise ConstraintSyntaxError(f"{head} takes a variable and a body")
        body = _build(e[2], p, e[1], rounds)
        return Exists(body) if head == "exists" else Forall(body)
    if head == "pop":
        if len(e) != 2 + rounds or not isinstance(e[1], str):
            raise ConstraintSyntaxError("pop takes a state and a term"
                                        if rounds else "pop takes one state")
        return PopAt(p.state_id(e[1]),
                     _build_term(e[2], var) if rounds else ROUND0)
    if head == "reg":
        if len(e) != 3 + rounds:
            raise ConstraintSyntaxError("reg takes register, term and symbol"
                                        if rounds else
                                        "reg takes register and symbol")
        try:
            j = int(e[1])  # 1-based in the text
        except (TypeError, ValueError):
            raise ConstraintSyntaxError(f"bad register {e[1]!r}")
        if not 1 <= j <= p.register_count:
            raise ConstraintSyntaxError(f"register {j} out of range")
        term = _build_term(e[2], var) if rounds else ROUND0
        if not isinstance(e[-1], str):
            raise ConstraintSyntaxError(f"bad symbol {e[-1]!r}")
        return RegAt(j - 1, term, p.symbol_id(e[-1]))
    raise ConstraintSyntaxError(f"unknown operator {head!r}")


def _build_term(e, var: str | None) -> Term:
    if isinstance(e, str):
        has_var, const = False, e
    elif (isinstance(e, list) and len(e) == 3 and e[0] == "+"
            and isinstance(e[1], str)):
        if var is None or e[1] != var:
            raise ConstraintSyntaxError(
                f"free variable {e[1]!r} not bound by a quantifier")
        has_var, const = True, e[2]
    else:
        raise ConstraintSyntaxError(f"bad term {e!r}")
    try:
        m = int(const)
    except (TypeError, ValueError):
        raise ConstraintSyntaxError(f"bad term {e!r}")
    if m < 0:
        raise ConstraintSyntaxError("negative term constant")
    if m > MAX_TERM_CONSTANT:
        raise ConstraintSyntaxError(
            f"term constant {m} exceeds cap {MAX_TERM_CONSTANT}")
    return Term(has_var, m)


def format_constraint(p: Protocol, node) -> str:
    if isinstance(node, (And, Or)):
        op = "and" if isinstance(node, And) else "or"
        if not node.children:
            return "true" if op == "and" else "false"
        return f"({op} " + " ".join(format_constraint(p, c)
                                    for c in node.children) + ")"
    if isinstance(node, Not):
        return f"(not {format_constraint(p, node.child)})"
    if isinstance(node, (PopAt, RegAt)):
        term = "" if p.flavor == ROUNDLESS else f" {_format_term(node.term)}"
        if isinstance(node, PopAt):
            return f"(pop {p.state_names[node.state]}{term})"
        return f"(reg {node.reg + 1}{term} {p.symbol_names[node.symbol]})"
    if isinstance(node, Exists):
        return f"(exists k {format_constraint(p, node.prop)})"
    if isinstance(node, Forall):
        return f"(forall k {format_constraint(p, node.prop)})"
    raise TypeError(f"not a constraint node: {node!r}")


def _format_term(t: Term) -> str:
    return f"(+ k {t.offset})" if t.has_var else str(t.offset)


# --- evaluation ----------------------------------------------------------------

def eval_roundless(c, phi) -> bool:
    """Standard Boolean evaluation over the round-0 locations and registers.

    Accepts abstract or concrete configurations; a concrete configuration
    evaluates exactly as its projection does.  A roundless constraint has no
    quantifier, so no active bound is needed.
    """
    if isinstance(c, ConcreteConfig):
        c = project(c)
    return eval_prop_at(c, phi, None)


def term_value(t: Term, k: int | None) -> int:
    if t.has_var:
        if k is None:
            raise ValueError("free variable outside a quantifier")
        return k + t.offset
    return t.offset


def eval_prop_at(c: AbstractConfig, node, k: int | None,
                 horizon: int = 0) -> bool:
    """Evaluate a constraint of either flavor with the variable bound to ``k``.

    ``PopAt``/``RegAt`` read the round their term gives at ``k``; a
    quantifier tries ``k = 0..horizon + 1``, the last round standing for
    the all-empty tail (see ``eval_roundbased``).
    """
    if isinstance(node, (And, Or)):
        decisive = isinstance(node, Or)  # the value one child decides with
        for x in node.children:
            if eval_prop_at(c, x, k, horizon) == decisive:
                return decisive
        return not decisive
    if isinstance(node, Not):
        return not eval_prop_at(c, node.child, k, horizon)
    if isinstance(node, PopAt):
        return (node.state, term_value(node.term, k)) in c.pop
    if isinstance(node, RegAt):
        rnd = term_value(node.term, k)
        return reg_get(c.regs, (rnd, node.reg)) == node.symbol
    if isinstance(node, (Exists, Forall)):
        vals = (eval_prop_at(c, node.prop, j) for j in range(horizon + 2))
        return any(vals) if isinstance(node, Exists) else all(vals)
    raise TypeError(f"not a constraint node: {node!r}")


def max_constant(psi) -> int:
    """Largest integer constant appearing in the constraint's terms."""
    if isinstance(psi, (And, Or)):
        return max((max_constant(x) for x in psi.children), default=0)
    if isinstance(psi, Not):
        return max_constant(psi.child)
    if isinstance(psi, (Exists, Forall)):
        return max_constant(psi.prop)
    if isinstance(psi, (PopAt, RegAt)):
        return psi.term.offset
    return 0


def negated_states(node, positive: bool = True) -> frozenset:
    """The states with a population atom under an odd number of ``Not``s,
    at any round.

    A constraint, of either flavor, stays true when locations of the other
    states become populated and the registers stay the same; with no such
    state it is monotone in the whole population.  Register atoms may occur
    either way.
    """
    if isinstance(node, (And, Or)):
        return frozenset().union(
            *(negated_states(x, positive) for x in node.children))
    if isinstance(node, Not):
        return negated_states(node.child, not positive)
    if isinstance(node, (Exists, Forall)):
        return negated_states(node.prop, positive)
    if isinstance(node, PopAt):
        return frozenset() if positive else frozenset((node.state,))
    if isinstance(node, RegAt):
        return frozenset()
    raise TypeError(f"not a constraint node: {node!r}")


def config_active_bound(c: AbstractConfig) -> int:
    """Smallest bound beyond which the configuration is all-empty."""
    rounds = [k for _, k in c.pop]
    rounds.extend(k for (k, _), _ in c.regs)
    return max(rounds, default=0)


def eval_roundbased(p: Protocol, c: AbstractConfig, psi,
                    active_bound: int | None = None) -> bool:
    """Evaluate a round-based presence constraint on a configuration.

    ``active_bound`` must dominate every populated or written round of ``c``;
    it defaults to the configuration's own active bound.  Quantifiers range
    over all naturals: rounds up to ``active_bound + M`` are checked
    explicitly, and round ``active_bound + M + 1`` stands for the all-empty
    tail, which every later round equals.
    """
    if active_bound is None:
        active_bound = config_active_bound(c)
    return eval_prop_at(c, psi, None, active_bound + max_constant(psi))


# --- DNF clauses ----------------------------------------------------------------

class ClauseDecomposition(NamedTuple):
    """One DNF clause, read as final-configuration obligations.

    q_plus    states required populated;
    q_minus   states required empty;
    d_ok      per register, the symbols the clause allows it to hold;
    satisfiable  false when q_plus meets q_minus or some d_ok is empty.
    """

    q_plus: frozenset
    q_minus: frozenset
    d_ok: tuple
    satisfiable: bool


def _clause_literals(clause) -> list:
    if isinstance(clause, And):
        out = []
        for x in clause.children:
            out.extend(_clause_literals(x))
        return out
    if _is_atom(clause):
        return [(clause, True)]
    if isinstance(clause, Not) and _is_atom(clause.child):
        return [(clause.child, False)]
    raise NotDNF("not in DNF: a clause holds "
                 f"({type(clause).__name__.lower()} ...)")


def dnf_clauses(p: Protocol, phi) -> list[ClauseDecomposition]:
    """Decompose a DNF constraint into per-clause obligations.

    Rejects constraints not syntactically in disjunctive normal form;
    contradictory clauses come back flagged unsatisfiable rather than
    being dropped.
    """
    if isinstance(phi, Or):
        clauses = list(phi.children)
    else:
        clauses = [phi]
    out = []
    for clause in clauses:
        lits = _clause_literals(clause)
        q_plus, q_minus = set(), set()
        d_ok = [set(range(p.num_symbols)) for _ in range(p.register_count)]
        for atom, positive in lits:
            if isinstance(atom, PopAt):
                (q_plus if positive else q_minus).add(atom.state)
            else:
                if positive:
                    d_ok[atom.reg] &= {atom.symbol}
                else:
                    d_ok[atom.reg] -= {atom.symbol}
        sat = not (q_plus & q_minus) and all(d_ok)
        out.append(ClauseDecomposition(frozenset(q_plus), frozenset(q_minus),
                                       tuple(frozenset(s) for s in d_ok),
                                       sat))
    return out


def nnf(node, neg: bool = False):
    """The constraint (negated with ``neg``) with every ``not`` pushed down
    to an atom, by De Morgan and by swapping ``exists`` and ``forall``, and
    every child of the same connective spliced into its parent."""
    if isinstance(node, Not):
        return nnf(node.child, not neg)
    if isinstance(node, (Exists, Forall)):
        return (Exists if isinstance(node, Exists) != neg else Forall)(
            nnf(node.prop, neg))
    if not isinstance(node, (And, Or)):
        return Not(node) if neg else node
    kind = And if isinstance(node, And) != neg else Or
    kids: list = []
    for x in node.children:
        x = nnf(x, neg)
        kids += x.children if type(x) is kind else (x,)
    return kind(tuple(kids))


def to_dnf(phi):
    """Distribute a roundless constraint into DNF, with a size guard.

    It distributes the constraint's ``nnf``.  A clause keeps the first
    occurrence of each literal, and a clause with the literals of an earlier
    one is dropped; the guard counts what is kept, so a constraint that
    repeats itself distributes to a small DNF.  Past ``MAX_DNF_CLAUSES``
    distinct clauses it raises ``NotDNF``.
    """
    def keep(out: dict, lits: frozenset, clause: tuple) -> None:
        out[lits] = clause
        if len(out) > MAX_DNF_CLAUSES:
            raise NotDNF("DNF distribution exceeds the size guard")

    def clauses_of(node) -> dict:  # literal set -> first clause, in order
        out: dict = {}
        if isinstance(node, Or):
            for x in node.children:
                for lits, c in clauses_of(x).items():
                    if lits not in out:
                        keep(out, lits, c)
        elif isinstance(node, And):
            out[frozenset()] = ()
            for x in node.children:
                alt, prev, out = clauses_of(x), out, {}
                for s, c in prev.items():
                    for t, d in alt.items():
                        lits = s | t
                        if lits not in out:
                            keep(out, lits,
                                 c + tuple(y for y in d if y not in s))
        else:
            keep(out, frozenset((node,)), (node,))
        return out

    return Or(tuple(And(c) for c in clauses_of(nnf(phi)).values()))


def cover_constraint(p: Protocol, state: int):
    """COVER as a presence constraint: the state is populated."""
    if p.flavor == ROUNDLESS:
        return PopAt(state, ROUND0)
    return Exists(PopAt(state, Term(True, 0)))


def target_constraint(p: Protocol, state: int):
    """TARGET as a presence constraint: every other state is empty."""
    others = [q for q in range(p.num_states) if q != state]
    if p.flavor == ROUNDLESS:
        return And(tuple(Not(PopAt(q, ROUND0)) for q in others))
    return Forall(And(tuple(Not(PopAt(q, Term(True, 0))) for q in others)))


# --- prime implicants ------------------------------------------------------------

def prime_implicants(node, is_leaf) -> list[dict]:
    """Minimal partial truth assignments to the leaves of ``node`` forcing
    it true.

    The leaves are the subtrees ``is_leaf`` accepts, under And/Or/Not.  A
    DNF is built by structure, dropping terms that hold a leaf both ways;
    closing it under consensus, keeping the minimal terms, leaves exactly
    the prime implicants (Blake's canonical form).  They come by ascending
    size, then by leaf indices in declaration order, then True before False.
    An empty result means the formula is unsatisfiable.
    """
    leaves: list = []
    _collect_leaves(node, is_leaf, leaves)
    index = {leaf: i for i, leaf in enumerate(leaves)}

    def minimal(terms) -> list:
        kept: list = []
        shorter = 0  # kept[:shorter] are the kept terms shorter than t
        for t in sorted(set(terms), key=len):
            while shorter < len(kept) and len(kept[shorter]) < len(t):
                shorter += 1
            # distinct terms of one size cannot contain one another
            if not any(u <= t for u in kept[:shorter]):
                kept.append(t)
        return kept

    def dnf(n, value: bool) -> list:  # terms: frozensets of (index, value)
        if is_leaf(n):
            return [frozenset({(index[n], value)})]
        if isinstance(n, Not):
            return dnf(n.child, not value)
        parts = [dnf(x, value) for x in n.children]
        if isinstance(n, And) != value:  # a disjunction
            return minimal(t for part in parts for t in part)
        terms = [frozenset()]
        for part in parts:
            terms = minimal(t | u for t in terms for u in part
                            if not any((i, not v) in t for i, v in u))
        return terms

    terms = minimal(dnf(node, True))
    lits = set().union(*terms)
    # consensus needs a leaf occurring both ways
    while any((i, not v) in lits for i, v in lits):
        new = set()
        for a, b in itertools.combinations(terms, 2):
            clash = [(i, v) for i, v in a if (i, not v) in b]
            if len(clash) == 1:
                i, v = clash[0]
                c = (a | b) - {(i, v), (i, not v)}
                if not any(t <= c for t in terms):
                    new.add(c)
        if not new:
            break
        terms = minimal(terms + list(new))
    ordered = sorted(map(sorted, terms), key=lambda t: (
        len(t), [i for i, _ in t], [not v for _, v in t]))
    return [{leaves[i]: v for i, v in t} for t in ordered]


def _collect_leaves(node, is_leaf, out: list) -> None:
    if is_leaf(node):
        if node not in out:
            out.append(node)
        return
    if isinstance(node, (And, Or)):
        for x in node.children:
            _collect_leaves(x, is_leaf, out)
        return
    if isinstance(node, Not):
        _collect_leaves(node.child, is_leaf, out)
        return
    raise TypeError(f"unexpected node {node!r}")


def _is_atom(node) -> bool:
    return isinstance(node, (PopAt, RegAt))


def forcing_literal_sets(prop) -> list[dict]:
    """Minimal atom assignments under which the proposition is always true."""
    return prime_implicants(prop, _is_atom)


# --- ground literals and APC decomposition ---------------------------------------

def ground(atom, value: bool, k: int | None):
    """A ground literal: a fact about one round, as a constraint node.

    The ``PopAt``/``RegAt`` atom at the constant round its term takes with
    the variable bound to ``k``, under a ``Not`` when ``value`` is false.
    """
    lit = atom._replace(term=Term(False, term_value(atom.term, k)))
    return lit if value else Not(lit)


class ApcCandidate(NamedTuple):
    """One way to make the whole constraint true.

    closed       ground literals (``ground``) to check at their rounds;
    existential  propositions that must hold at some round;
    universal    propositions that must hold at every round.
    """

    closed: frozenset
    existential: frozenset
    universal: frozenset


def closed_atoms_of(prop) -> list:
    """Distinct constant-round atoms of a (possibly quantified-body)
    proposition, in declaration order."""
    atoms: list = []
    _collect_leaves(prop, _is_atom, atoms)
    return [a for a in atoms if not a.term.has_var]


def substitute_atoms(prop, assign: dict):
    """Replace assigned atoms by constant true/false nodes."""
    if isinstance(prop, (And, Or)):
        return type(prop)(tuple(substitute_atoms(x, assign)
                                for x in prop.children))
    if isinstance(prop, Not):
        return Not(substitute_atoms(prop.child, assign))
    if prop in assign:
        return TRUE if assign[prop] else FALSE
    return prop


def _eval3(prop, assign: dict):
    """Kleene truth of a proposition under a partial atom assignment: True,
    False, or None when it depends on an unassigned atom."""
    if isinstance(prop, Not):
        x = _eval3(prop.child, assign)
        return None if x is None else not x
    if isinstance(prop, (And, Or)):
        absorbing = isinstance(prop, Or)
        vals = [_eval3(x, assign) for x in prop.children]
        if absorbing in vals:
            return absorbing
        return None if None in vals else not absorbing
    return assign.get(prop)


def _quantified_entries(apc, value: bool) -> list[tuple[frozenset, str, object]]:
    """Resolve a quantified APC's constant atoms into checked literals.

    Returns choices of (ground literals, "E"/"U"/"none", residual
    proposition): the constant-round atoms inside the body are guessed in
    order, True first, each recorded as a literal to check at its round and
    replaced in the body.  A partial guess under which the body is already
    false is dropped with all its completions, and so is a residual that no
    literal set can force.  One under which the body is already true, or
    whose residual the empty set forces, discharges the APC: it is one
    entry, not one per completion.
    """
    role = "E" if isinstance(apc, Exists) == value else "U"
    body = apc.prop if value else Not(apc.prop)
    catoms = closed_atoms_of(body)
    out = []

    def guess(assign: dict) -> None:
        truth = _eval3(body, assign)
        if truth is None and len(assign) < len(catoms):
            for bit in (True, False):
                guess({**assign, catoms[len(assign)]: bit})
            return
        if truth is False:
            return
        lits = frozenset(ground(a, v, None) for a, v in assign.items())
        residual = substitute_atoms(body, assign)
        forcing = [{}] if truth else forcing_literal_sets(residual)
        if forcing == [{}]:
            out.append((lits, "none", None))  # APC discharged by the guess
        elif forcing:
            out.append((lits, role, residual))

    guess({})
    return out


def decompose_apcs(psi) -> list[ApcCandidate]:
    """Enumerate candidate obligation sets making the constraint true.

    Every candidate, when all its members hold of a configuration, makes the
    constraint true regardless of the remaining atomic presence constraints.
    Its prime implicants are taken once, over the quantifiers and the atoms
    outside them, which have constant rounds and are ground literals; a
    quantifier's constant-round atoms are resolved into ground literals by
    ``_quantified_entries``, so obligations only mention the bound round
    variable.  Not on ``nnf(psi)``, where ``exists`` and ``not exists`` of
    one body are unrelated leaves.  Minimal candidates come first.  An
    empty list means no configuration can satisfy the constraint.
    """
    candidates: dict = {}  # insertion-ordered, without duplicates
    for imp in prime_implicants(psi, _is_quantifier_or_atom):
        # each leaf contributes branch options:
        # (literals, extra existential or universal entry or nothing)
        option_lists: list[list[tuple[frozenset, str, object]]] = []
        for leaf, value in imp.items():
            if isinstance(leaf, (Exists, Forall)):
                options = _quantified_entries(leaf, value)
                if not options:
                    break
            else:
                options = [(frozenset((ground(leaf, value, None),)), "none",
                            None)]
            option_lists.append(options)
        else:
            for pick in itertools.product(*option_lists):
                candidates[ApcCandidate(
                    frozenset().union(*(lits for lits, _, _ in pick)),
                    frozenset(r for _, role, r in pick if role == "E"),
                    frozenset(r for _, role, r in pick if role == "U"))] = None
    return list(candidates)


def _is_quantifier_or_atom(node) -> bool:
    return isinstance(node, (Exists, Forall, PopAt, RegAt))
