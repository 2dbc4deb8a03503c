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
from .model import ROUNDLESS, Protocol, _new
from .semantics import AbstractConfig, ConcreteConfig, project, reg_get

MAX_TERM_CONSTANT = 64  # terms are unary-bounded; keep them desk-sized
MAX_NESTING = 100  # parenthesis depth; evaluation recurses once per level
MAX_DNF_CLAUSES = 4096  # distinct clauses ``dnf_clauses`` may keep


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
    if ";" in text:  # a comment runs to the end of its line
        text = " ".join(line.split(";", 1)[0] for line in text.splitlines())
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
        kids = tuple([_build(x, p, var, rounds) for x in e[1:]])
        return _new(And if head == "and" else Or, (kids,))
    if head == "not":
        if len(e) != 2:
            raise ConstraintSyntaxError("not takes one argument")
        return _new(Not, (_build(e[1], p, var, rounds),))
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
        return _new(PopAt, (p.state_id(e[1]),
                            _build_term(e[2], var) if rounds else ROUND0))
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
        return _new(RegAt, (j - 1, term, p.symbol_id(e[-1])))
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
    kind = type(node)
    if kind is And or kind is Or:
        decisive = kind is Or  # the value one child decides with
        for x in node.children:
            if eval_prop_at(c, x, k, horizon) == decisive:
                return decisive
        return not decisive
    if kind is Not:
        return not eval_prop_at(c, node.child, k, horizon)
    if kind is PopAt:
        return (node.state, term_value(node.term, k)) in c.pop
    if kind is RegAt:
        rnd = term_value(node.term, k)
        return reg_get(c.regs, (rnd, node.reg)) == node.symbol
    if kind is Exists or kind is Forall:
        vals = (eval_prop_at(c, node.prop, j) for j in range(horizon + 2))
        return any(vals) if kind is Exists else all(vals)
    raise TypeError(f"not a constraint node: {node!r}")


def literals(node) -> list:
    """Each atom of a constraint, of either flavor, in order, with its
    polarity: True under an even number of ``Not``s, False under an odd
    one."""
    out, stack = [], [(node, True)]
    while stack:
        node, positive = stack.pop()
        kind = type(node)
        if kind is And or kind is Or:
            stack += [(x, positive) for x in reversed(node.children)]
        elif kind is Not:
            stack.append((node.child, not positive))
        elif kind is PopAt or kind is RegAt:
            out.append((node, positive))
        elif kind is Exists or kind is Forall:
            stack.append((node.prop, positive))
        else:
            raise TypeError(f"not a constraint node: {node!r}")
    return out


def max_constant(psi) -> int:
    """Largest integer constant appearing in the constraint's terms."""
    return max((a.term.offset for a, _ in literals(psi)), default=0)


def negated_states(node) -> frozenset:
    """The states with a population atom under an odd number of ``Not``s,
    at any round.

    A constraint, of either flavor, stays true when locations of the other
    states become populated and the registers stay the same; with no such
    state it is monotone in the whole population.  Register atoms may occur
    either way.
    """
    return frozenset(a.state for a, positive in literals(node)
                     if not positive and type(a) is PopAt)


def config_active_bound(c: AbstractConfig) -> int:
    """Smallest bound beyond which the configuration is all-empty."""
    rounds = [k for _, k in c.pop]
    rounds.extend(k for (k, _), _ in c.regs)
    return max(rounds, default=0)


def eval_roundbased(p: Protocol, c, psi,
                    active_bound: int | None = None) -> bool:
    """Evaluate a round-based presence constraint on a configuration.

    Accepts abstract or concrete configurations; a concrete configuration
    evaluates exactly as its projection does.  ``active_bound`` must
    dominate every populated or written round of ``c``; it defaults to the
    configuration's own active bound.  Quantifiers range over all naturals:
    rounds up to ``active_bound + M`` are checked explicitly, and round
    ``active_bound + M + 1`` stands for the all-empty tail, which every
    later round equals.
    """
    if isinstance(c, ConcreteConfig):
        c = project(c)
    if active_bound is None:
        active_bound = config_active_bound(c)
    return eval_prop_at(c, psi, None, active_bound + max_constant(psi))


# --- DNF clauses ----------------------------------------------------------------

class ClauseDecomposition(NamedTuple):
    """One DNF clause, read as final-configuration obligations.

    q_plus   states required populated;
    q_minus  states required empty, disjoint from q_plus;
    d_ok     per register, the nonempty set of symbols the clause allows it
             to hold.
    """

    q_plus: frozenset
    q_minus: frozenset
    d_ok: tuple


def dnf_clauses(p: Protocol, phi) -> list[ClauseDecomposition]:
    """Distribute a roundless constraint into DNF clause obligations.

    One walk carries the polarity.  An atom is one clause.  A disjunction
    (an ``or``, or an ``and`` under an odd number of ``not``s) concatenates
    its children's clauses; a conjunction (an ``and``, or an ``or`` under
    an odd number of ``not``s) merges every pair of its children's
    clauses, uniting ``q_plus`` and uniting ``q_minus``, and intersecting
    each register's ``d_ok``.  A clause that cannot hold, where ``q_plus``
    meets ``q_minus`` or some ``d_ok`` is empty, is dropped, and so is one
    equal to an earlier clause: the clauses come in first-occurrence
    order, and a DNF distributes to its own clauses, one merge per
    literal.  Past ``MAX_DNF_CLAUSES`` distinct clauses it raises
    ``NotDNF``.
    """
    none = frozenset()
    every = (frozenset(range(p.num_symbols)),) * p.register_count

    def keep(out: dict, clause: tuple) -> None:
        out[clause] = None
        if len(out) > MAX_DNF_CLAUSES:
            raise NotDNF("DNF distribution exceeds the size guard")

    def clauses(node, positive: bool) -> dict:
        # (q_plus, q_minus, d_ok) -> None, in first-occurrence order
        kind = type(node)
        if kind is Not:
            return clauses(node.child, not positive)
        if kind is PopAt:
            q = frozenset((node.state,))
            return {(q, none, every) if positive else (none, q, every): None}
        if kind is RegAt:
            j, a = node.reg, frozenset((node.symbol,))
            ok = a if positive else every[j] - a
            if not ok:  # the register holds no other symbol
                return {}
            return {(none, none, (*every[:j], ok, *every[j + 1:])): None}
        if kind is not And and kind is not Or:
            raise TypeError(f"not a roundless constraint node: {node!r}")
        out: dict = {}
        if (kind is Or) == positive:
            for x in node.children:
                for c in clauses(x, positive):
                    keep(out, c)
            return out
        out[none, none, every] = None
        for x in node.children:
            alt, prev, out = clauses(x, positive), out, {}
            for q_plus, q_minus, d_ok in prev:
                for more, less, ok in alt:
                    plus, minus = q_plus | more, q_minus | less
                    allowed = tuple(map(frozenset.intersection, d_ok, ok))
                    if not plus & minus and all(allowed):
                        keep(out, (plus, minus, allowed))
        return out

    return [ClauseDecomposition(*c) for c in clauses(phi, True)]


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

def prime_implicants(node) -> list[dict]:
    """Minimal partial truth assignments to the leaves of ``node`` forcing
    it true.

    The leaves are the nodes under And/Or/Not that are not connectives:
    atoms, and quantifiers, whose bodies the walk does not enter.  A DNF
    is built by structure, dropping terms that hold a leaf both ways;
    closing it under consensus, keeping the minimal terms, leaves exactly
    the prime implicants (Blake's canonical form).  The walk numbers each
    leaf the first time it meets it, which is declaration order.  They come
    by ascending size, then by leaf indices, then True before False.  An
    empty result means the formula is unsatisfiable.
    """
    index: dict = {}  # leaf -> its number, in declaration order

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
        kind = type(n)
        if kind is Not:
            return dnf(n.child, not value)
        if kind is not And and kind is not Or:  # a leaf
            return [frozenset({(index.setdefault(n, len(index)), value)})]
        parts = [dnf(x, value) for x in n.children]
        if (kind is And) != value:  # a disjunction
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
    leaves = list(index)
    return [{leaves[i]: v for i, v in t} for t in ordered]


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
    return list(dict.fromkeys(a for a, _ in literals(prop)
                              if not a.term.has_var))


def substitute_atoms(prop, assign: dict):
    """A proposition's Kleene truth under a partial atom assignment, and the
    proposition with its assigned atoms replaced by constant true/false
    nodes, in one walk.  The truth is True, False, or None when it depends
    on an unassigned atom."""
    kind = type(prop)
    if kind is And or kind is Or:
        absorbing = kind is Or
        pairs = [substitute_atoms(x, assign) for x in prop.children]
        vals = [v for v, _ in pairs]
        truth = (absorbing if absorbing in vals
                 else None if None in vals else not absorbing)
        return truth, kind(tuple(x for _, x in pairs))
    if kind is Not:
        truth, child = substitute_atoms(prop.child, assign)
        return None if truth is None else not truth, Not(child)
    if prop in assign:
        return assign[prop], TRUE if assign[prop] else FALSE
    return None, prop


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
        truth, residual = substitute_atoms(body, assign)
        if truth is None and len(assign) < len(catoms):
            for bit in (True, False):
                guess({**assign, catoms[len(assign)]: bit})
            return
        if truth is False:
            return
        lits = frozenset(ground(a, v, None) for a, v in assign.items())
        forcing = [{}] if truth else prime_implicants(residual)
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
    variable.  On the constraint as written: with its ``not``s pushed
    down to the atoms, ``exists`` and ``not exists`` of one body would be
    unrelated leaves.  Minimal candidates come first.  An empty list means
    no configuration can satisfy the constraint.
    """
    candidates: dict = {}  # insertion-ordered, without duplicates
    for imp in prime_implicants(psi):
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
