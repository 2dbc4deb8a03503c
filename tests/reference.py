"""Reference implementations that the library's faster versions must match,
and the helpers only tests call: the structural invariants of a protocol,
the oracle's search with its parent links decoded (``ReachSet``,
``packed_bfs``), its whole reach set and its compiled constraint as a
predicate, the explicit successor relation, the one-register covset and
cocovset, the footprint search on its own, the round-based search's
former contradiction rule on ground literals, the bridge footprints by
brute force, and roundless instances lifted to rounds."""

import itertools
from dataclasses import dataclass

from regverify import oracle, roundless
from regverify.constraints import (And, Exists, Forall, Not, Or, PopAt,
                                   RegAt, closed_atoms_of, decompose_apcs,
                                   ground, parse_round_constraint,
                                   prime_implicants, substitute_atoms,
                                   term_value)
from regverify.errors import (CapExceeded, NotEnabled, NotUninitialized,
                              WrongRegisterCount)
from regverify.model import (D0, INC, READ, ROUNDBASED, ROUNDLESS, WRITE,
                             Action, Protocol, Transition, is_uninitialized,
                             parse_protocol, serialize_protocol)
from regverify.roundbased import _footprint_search, _refuted
from regverify.roundless import (ClauseDecomposition, _alive_transitions,
                                 _closure, _index)
from regverify.semantics import AbstractConfig, Execution, Move, abstract_step
from regverify.verdict import NEGATIVE, POSITIVE, Verdict

from lemmas import bridge_start, leaves_of, local_step


@dataclass(frozen=True)
class Finding:
    """One violated structural invariant, as data."""

    code: str
    message: str


def validate(p: Protocol) -> list[Finding]:
    """Every structural invariant of ``p``; one finding per violation.

    ``parse_protocol`` raises on each of these, so a parsed protocol has
    none; the protocols that reductions and generators build directly are
    checked here."""
    out: list[Finding] = []
    if len(set(p.state_names)) != len(p.state_names):
        out.append(Finding("DuplicateState", "state names are not unique"))
    if len(set(p.symbol_names)) != len(p.symbol_names):
        out.append(Finding("DuplicateSymbol", "symbol names are not unique"))
    if not p.symbol_names:
        out.append(Finding("NoInitialSymbol", "alphabet is empty"))
    if p.register_count < 1:
        out.append(Finding("BadRegisterCount",
                           f"register count {p.register_count} < 1"))
    if p.flavor not in (ROUNDLESS, ROUNDBASED):
        out.append(Finding("BadFlavor", f"unknown flavor {p.flavor!r}"))
    if p.flavor == ROUNDBASED and (p.visibility is None or p.visibility < 0):
        out.append(Finding("BadVisibility",
                           f"visibility {p.visibility!r} must be >= 0"))
    if p.flavor == ROUNDLESS and p.visibility is not None:
        out.append(Finding("BadVisibility",
                           "roundless protocol must not set visibility"))
    for q in p.initial_states:
        if not 0 <= q < p.num_states:
            out.append(Finding("UnknownState", f"initial state id {q}"))
    for i, t in enumerate(p.transitions):
        where = f"transition #{i}"
        for q, role in ((t.source, "source"), (t.dest, "destination")):
            if not 0 <= q < p.num_states:
                out.append(Finding("UnknownState", f"{where}: {role} id {q}"))
        a = t.action
        if a.kind not in (READ, WRITE, INC):
            out.append(Finding("BadAction", f"{where}: kind {a.kind!r}"))
            continue
        if a.kind == INC:
            if p.flavor != ROUNDBASED:
                out.append(Finding("BadAction",
                                   f"{where}: inc in roundless protocol"))
            if a.reg is not None or a.symbol is not None or a.depth is not None:
                out.append(Finding("BadAction", f"{where}: inc carries fields"))
            continue
        if a.reg is None or not 0 <= a.reg < p.register_count:
            out.append(Finding("RegisterOutOfRange",
                               f"{where}: register {a.reg}"))
        if a.symbol is None or not 0 <= a.symbol < p.num_symbols:
            out.append(Finding("UnknownSymbol", f"{where}: symbol {a.symbol}"))
        if a.kind == WRITE:
            if a.symbol == D0:
                out.append(Finding("WriteOfInitialSymbol",
                                   f"{where}: write of initial symbol"))
            if a.depth is not None:
                out.append(Finding("BadAction", f"{where}: write with depth"))
        if a.kind == READ:
            if p.flavor == ROUNDBASED:
                if a.depth is None or not 0 <= a.depth <= (p.visibility or 0):
                    out.append(Finding("DepthOutOfRange",
                                       f"{where}: depth {a.depth}"))
            elif a.depth is not None:
                out.append(Finding("BadAction",
                                   f"{where}: roundless read with depth"))
    return out


def eval_with_assignment(node, assign: dict) -> bool:
    """Truth of a formula once every leaf under And/Or/Not has a value."""
    if node in assign:  # leaves may themselves be compound closed subtrees
        return assign[node]
    if isinstance(node, And):
        return all(eval_with_assignment(x, assign) for x in node.children)
    if isinstance(node, Or):
        return any(eval_with_assignment(x, assign) for x in node.children)
    if isinstance(node, Not):
        return not eval_with_assignment(node.child, assign)
    raise KeyError(f"unassigned leaf {node!r}")


def truth_table_prime_implicants(node, is_leaf) -> list[dict]:
    """``constraints.prime_implicants`` by trying every partial assignment.

    Candidates are produced by ascending size, ties in leaf declaration
    order, then True before False; supersets of an already-found implicant
    are skipped.  Exponential in the number of leaves.
    """
    leaves = leaves_of(node, is_leaf)
    n = len(leaves)
    found: list[dict] = []
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            chosen = [leaves[i] for i in combo]
            for bits in itertools.product((True, False), repeat=r):
                partial = dict(zip(chosen, bits))
                if any(all(l in partial and partial[l] == v
                           for l, v in f.items()) for f in found):
                    continue
                rest = [l for l in leaves if l not in partial]
                if all(eval_with_assignment(node, {**partial,
                                                   **dict(zip(rest, bits2))})
                       for bits2 in itertools.product((True, False),
                                                      repeat=len(rest))):
                    found.append(partial)
    return found


def full_quantified_entries(apc, value: bool) -> list[tuple]:
    """``constraints._quantified_entries`` by trying every truth assignment
    of the constant-round atoms, in order, True first.

    Guesses whose residual no literal set can force come out with the role
    "dead"; the library drops them.  Exponential in the number of atoms.
    """
    if isinstance(apc, Exists):
        role = "E" if value else "U"
    else:
        role = "U" if value else "E"
    body = apc.prop if value else Not(apc.prop)
    catoms = closed_atoms_of(body)
    out = []
    for bits in itertools.product((True, False), repeat=len(catoms)):
        assign = dict(zip(catoms, bits))
        lits = frozenset(ground(a, v, None)
                         for a, v in assign.items())
        _, residual = substitute_atoms(body, assign)
        forcing = prime_implicants(residual)
        if not forcing:
            out.append((lits, "dead", None))
        elif forcing == [{}]:
            out.append((lits, "none", None))
        else:
            out.append((lits, role, residual))
    return out


class ReachSet:
    """A search's parent links with decoded views.

    ``links`` maps each code discovered, in discovery order, to ``(pred
    code, (transition, round, desert))``, the fields of a ``Move``, or None
    for a start, and ``hit_code`` is the first code
    that satisfied the predicate, or None; ``hit`` is its configuration.
    """

    def __init__(self, links: dict, hit_code, decode):
        self.links = links
        self.hit_code = hit_code
        self._decode = decode
        self._configs: dict = {}  # code -> configuration, decoded so far

    def config(self, code):
        """The configuration of a code, decoded at most once."""
        if code not in self._configs:
            self._configs[code] = self._decode(code)
        return self._configs[code]

    @property
    def hit(self) -> AbstractConfig | None:
        return None if self.hit_code is None else self.config(self.hit_code)

    def witness(self) -> Execution:
        """Shortest execution to the hit; of the path, only its start is
        decoded."""
        code = self.hit_code
        moves: list[Move] = []
        while (link := self.links[code]) is not None:
            code, move = link
            moves.append(Move(*move))
        moves.reverse()
        return Execution(self.config(code), tuple(moves))


def packed_bfs(starts, table, decode, space_cap: float = float("inf"),
               sat=None) -> ReachSet:
    """``oracle.bfs`` as a ``ReachSet``; with no ``sat``, nothing is a hit."""
    links, hit = oracle.bfs(starts, table, space_cap,
                            sat or (lambda code: False))
    return ReachSet(links, hit, decode)


def bfs(starts, successors, space_cap: float = float("inf")) -> ReachSet:
    """``oracle.bfs`` over explicit configurations and a successor function.

    ``successors(c)`` yields ``(move, successor)`` pairs.  Each level's
    configurations are expanded in discovery order, each by its successors
    in the order given, and discovering more than ``space_cap``, starts
    included, raises ``CapExceeded``.
    """
    links: dict = {}

    def discover(pairs) -> list:
        """The configurations of ``(c, link)`` pairs first seen, in order."""
        new = []
        for c, link in pairs:
            if c not in links:
                if len(links) >= space_cap:
                    raise CapExceeded(
                        f"reach set exceeds {space_cap} configurations")
                links[c] = link
                new.append(c)
        return new

    level = discover((c, None) for c in starts)
    while level:
        level = discover((succ, (c, move)) for c in level
                         for move, succ in successors(c))
    return ReachSet(links, None, lambda c: c)


def first_write_orders(p: Protocol):
    """All first-write orders, shortest first, lexicographic within a length.

    Each is a tuple of distinct 0-based register ids, in the order in which
    the registers irreversibly lose the initial symbol.
    """
    for m in range(p.register_count + 1):
        yield from itertools.permutations(range(p.register_count), m)


def saturate_phases(p: Protocol, order: tuple,
                    phases: dict | None = None) -> set:
    """Phase-wise saturation along one first-write order.

    Phase i is ``_closure`` with the first i registers of the order opened;
    an order is abandoned once the next register cannot be written from the
    covered set.  ``phases`` maps each opened prefix to its closed set, or to
    None when its last register cannot be written; the orders of one query
    share it, so that each prefix is closed once.
    """
    if phases is None:
        phases = {}
    S, writes = set(p.initial_states), _index(p.transitions, WRITE)
    for i in range(len(order) + 1):
        prefix = order[:i]
        if prefix not in phases:
            feasible = i == 0 or any(
                t.action.kind == WRITE and t.action.reg == order[i - 1]
                and t.source in S for t in p.transitions)
            phases[prefix] = (_closure(S, p.transitions, prefix, writes)[0]
                              if feasible else None)
        if phases[prefix] is None:
            break  # order infeasible beyond the previous phase
        S = phases[prefix]
    return S


def fixed_r_exhaustive(p: Protocol, target: int) -> Verdict:
    """``roundless.solve_cover_fixed_r`` by trying every first-write order.

    Orders are tried shortest first, and the first that covers ``target``
    wins.  ``stats["orders_tried"]`` counts the orders tried and
    ``stats["prefixes_closed"]`` the prefixes closed, the empty one
    included.  Factorial in the register count.
    """
    tried = 0
    phases: dict = {}
    for order in first_write_orders(p):
        tried += 1
        if target in saturate_phases(p, order, phases):
            break
    else:
        order = None
    stats = {"orders_tried": tried, "prefixes_closed": sum(
        S is not None for S in phases.values())}
    if order is None:
        return Verdict(NEGATIVE, "fixed-r", None, stats)
    return Verdict(POSITIVE, "fixed-r", None,
                   dict(stats, order=[j + 1 for j in order]))


def rescanning_closure(S, transitions, opened) -> tuple[set, int]:
    """``roundless._closure`` without its write index: each read of a non-d0
    symbol rescans every transition for a writer.  Returns the closed set
    and the number of passes over ``transitions``."""
    S = set(S)
    passes = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        for t in transitions:
            if t.source not in S or t.dest in S:
                continue
            a = t.action
            if a.kind == WRITE:
                fires = a.reg in opened
            elif a.symbol == D0:
                fires = a.reg not in opened
            else:
                fires = a.reg in opened and any(
                    w.action.kind == WRITE and w.action.reg == a.reg
                    and w.action.symbol == a.symbol
                    and w.source in S and w.dest in S for w in transitions)
            if fires:
                S.add(t.dest)
                changed = True
    return S, passes


def rescanning_previous_symbol(trans, S: set, symbols) -> set | None:
    """``roundless._previous_symbol`` over the whole transition list: each
    symbol rescans every transition to saturate and to find a writer."""
    found = False
    S = set(S)
    for a in symbols:
        T = set(S)
        changed = True
        while changed:
            changed = False
            for t in trans:
                if (t.action.kind == READ and t.action.symbol == a
                        and t.dest in T and t.source not in T):
                    T.add(t.source)
                    changed = True
        writers = {t.source for t in trans
                   if t.action.kind == WRITE and t.action.symbol == a
                   and t.dest in T}
        if writers:
            S = T | writers
            found = True
    return S if found else None


def alive_transitions(p: Protocol, alive: set) -> list:
    """The transitions with both ends in ``alive``."""
    return [t for t in p.transitions if t.source in alive and t.dest in alive]


def rescanning_cov_set(p: Protocol, alive: set) -> set:
    """``roundless.compute_cov_set`` on ``rescanning_closure``."""
    return rescanning_closure(p.initial_states & alive,
                              alive_transitions(p, alive), (0,))[0]


def rescanning_cocov_set(p: Protocol, clause, alive: set) -> set:
    """``roundless.compute_cocov_set`` on ``rescanning_previous_symbol``."""
    trans = alive_transitions(p, alive)
    S = rescanning_previous_symbol(trans, alive - clause.q_minus,
                                   sorted(clause.d_ok[0]))
    if S is None:
        return set()
    while True:
        nxt = rescanning_previous_symbol(trans, S, range(1, p.num_symbols))
        if nxt is None or nxt == S:
            return S
        S = nxt


def reach(p: Protocol, max_round: int = 0,
          state_cap: int = oracle.DEFAULT_STATE_CAP,
          space_cap: int = oracle.DEFAULT_SPACE_CAP, negated=None) -> ReachSet:
    """Abstract reach set from every initial configuration, by moves with
    effect on rounds <= ``max_round`` for a round-based protocol; with a set
    ``negated``, from the starts and by the moves ``oracle.packed`` keeps
    for it.  ``oracle.bfs`` on that table, within the oracle's caps.
    """
    oracle._refuse_beyond_caps(p, state_cap)
    return packed_bfs(*packed_window(p, max_round, negated), space_cap)


def packed_window(p: Protocol, max_round: int = 0, negated=None):
    """``oracle.packed`` in the layout of round cap ``max_round``; with no
    ``negated``, every state is, and the search is exhaustive."""
    if negated is None:
        negated = frozenset(range(p.num_states))
    return oracle.packed(p, oracle.layout(p, max_round), negated)


def compile_constraint(p: Protocol, psi, max_round: int = 0):
    """The constraint as the predicate ``oracle.search`` tests on
    ``packed_window(p, max_round)`` codes."""
    return oracle._probe(oracle._compiled(psi, oracle.layout(p, max_round)))


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


def compiled_on_nnf(psi, lay):
    """``oracle._compiled`` as a compiler of ``nnf(psi)``: each node is
    compiled as written, a ``not`` only over an atom, and its parts are
    joined by ``oracle._join``.  The library's compiler carries the
    polarity in its walk instead and must give the same parts."""
    rounds, pop, slot, sym_mask = lay
    shifts = range(0, slot(rounds + 1, 0), slot(1, 0))  # k = 0..rounds

    def build(node, bound: bool, tail: bool = False):
        if isinstance(node, (PopAt, RegAt)):
            r = term_value(node.term, 0 if bound else None)
            shifted = node.term.has_var
            if isinstance(node, PopAt):
                mask = want = pop(node.state, r)
            else:
                at = slot(r, node.reg)
                mask, want = sym_mask << at, node.symbol << at
            if tail and shifted:  # the shifted code is 0
                return want == 0
            return mask, want, True, shifted
        if isinstance(node, (And, Or)):
            return oracle._join(isinstance(node, And),
                                [build(x, bound, tail) for x in node.children])
        if isinstance(node, Not):  # over an atom
            e = build(node.child, bound, tail)
            return not e if isinstance(e, bool) else (*e[:2], not e[2], e[3])
        exists = isinstance(node, Exists)
        if build(node.prop, True, True) is exists:
            return exists
        body = build(node.prop, True)
        if isinstance(body, bool) or type(body) is tuple and not body[3]:
            return body
        if type(body) is tuple:
            m, w, eq, _ = body
            return oracle._join(not exists,
                                [(m << n, w << n, eq, False) for n in shifts])
        body = oracle._predicate(body)
        if exists:
            return lambda c, s: any(body(c, c >> n) for n in shifts)
        return lambda c, s: all(body(c, c >> n) for n in shifts)

    return build(nnf(psi), False)


def parents(rs: ReachSet) -> dict:
    """config -> (pred config, Move) | None, in discovery order; the
    ``Move`` is built from the link's fields."""
    return {rs.config(code): None if link is None
            else (rs.config(link[0]), Move(*link[1]))
            for code, link in rs.links.items()}


def members(rs: ReachSet):
    """A reach set's configurations, in discovery order."""
    return parents(rs).keys()


def order(rs: ReachSet) -> list:
    """A reach set's members in discovery order."""
    return list(members(rs))


def witness_to(rs: ReachSet, config: AbstractConfig) -> Execution:
    """The shortest execution to a member, by its parent links."""
    links = parents(rs)
    moves: list[Move] = []
    while (link := links[config]) is not None:
        config, move = link
        moves.append(move)
    moves.reverse()
    return Execution(config, tuple(moves))


def roundless_config(states, regs=()) -> AbstractConfig:
    """The roundless configuration with ``states`` populated and register j
    holding symbol ``regs[j]``: the round-0 locations ``(q, 0)`` and the
    sparse registers ``((0, j), a)`` that do not hold d0."""
    return AbstractConfig(frozenset((q, 0) for q in states),
                          roundless_regs(regs))


def roundless_regs(regs) -> frozenset:
    """A roundless bank, register j holding ``regs[j]``, as round-0 entries."""
    return frozenset(((0, j), a) for j, a in enumerate(regs) if a != D0)


def abstract_successors(p: Protocol, c: AbstractConfig,
                        window: tuple[int, int] | None = None):
    """All pairs (move, successor) of the abstract step relation.

    Round-based protocols need an explicit ``window = (lo, hi)`` bounding the
    rounds a generated move may have an effect on (a move at round k has
    effect on round k, an increment also on round k+1); the move set is
    infinite otherwise.  A roundless protocol's moves are at round 0,
    whatever the window.

    Both the deserting and non-deserting variant of each enabled transition
    are produced unless they coincide.
    """
    out = []
    if p.flavor == ROUNDLESS:
        window = (0, 0)  # every roundless move is at round 0
    elif window is None:
        raise ValueError("round-based successors need a round window")
    lo, hi = max(window[0], 0), window[1]
    for t in p.transitions:
        for rnd in range(lo, hi + 1):
            if t.action.kind == INC and rnd + 1 > hi:
                continue
            if t.action.kind == READ and rnd - (t.action.depth or 0) < 0:
                continue
            for desert in (False, True):
                m = Move(t, rnd, desert)
                try:
                    succ = abstract_step(p, c, m)
                except NotEnabled:
                    break  # the non-desert variant failed; desert will too
                if desert and out and out[-1][0].trans is t \
                        and out[-1][0].rnd == rnd and out[-1][1] == succ:
                    continue  # variants coincide (self-loop)
                out.append((m, succ))
    return out


def compute_cov_set(p: Protocol, alive: set | None = None) -> set:
    """The unique maximal jointly-coverable state set (uninitialized, r=1)."""
    if p.register_count != 1:
        raise WrongRegisterCount("covset needs exactly one register")
    if not is_uninitialized(p):
        raise NotUninitialized("covset needs an uninitialized protocol")
    if alive is None:
        alive = set(range(p.num_states))
    # through the module, so that a test that wraps ``_closure`` sees it
    trans = _alive_transitions(p, alive)
    S, _ = roundless._closure(p.initial_states & alive, trans, (0,),
                              _index(trans, WRITE))
    return S


def compute_cocov_set(p: Protocol, clause: ClauseDecomposition,
                      alive: set | None = None) -> set:
    """Maximal backward-coverable set for one clause (uninitialized, r=1).

    The reads and the writes of each symbol are listed once per call, for
    every backward phase.
    """
    if p.register_count != 1:
        raise WrongRegisterCount("cocovset needs exactly one register")
    if not is_uninitialized(p):
        raise NotUninitialized("cocovset needs an uninitialized protocol")
    if alive is None:
        alive = set(range(p.num_states))
    trans = _alive_transitions(p, alive)
    return roundless._cocov_set(p, clause, alive, _index(trans, READ),
                                _index(trans, WRITE))


def footprint_verdict(p: Protocol, psi, budget: int):
    """The footprint search alone, on the candidate obligation sets that
    ``_refuted`` leaves, with the whole budget: what ``solve_prp_roundbased``
    runs on a protocol with no round bound after its capped window."""
    cands = [c for c in decompose_apcs(psi) if not _refuted(p, c, {})]
    return _footprint_search(p, psi, cands, budget, {})


def bridge_footprints(p: Protocol, carried: tuple, initial_set, k: int,
                      step_cap: int, negated):
    """``footprints.extend_footprint``'s bridges, every schedule of them,
    by brute force on local configurations (``lemmas.local_step``).

    A bridge starts at ``bridge_start`` on [k-v, k+1], replays the carried
    steps (rounds counted from k-1) in order, and interleaves new steps:
    the moves at round k, an increment only as its deserting variant, and
    the non-deserting increments arriving from round k-1.  Only a source
    in ``negated`` deserts.  No step stutters, no deserted location is
    repopulated, no unjustified write (one that neither populates nor
    deserts, and is not read yet) is overwritten, and a bridge has at most
    ``step_cap`` steps.  Depth first, the next carried step before the new
    ones, in transition order.

    Yields (steps, last local configuration): the steps with rounds
    counted from k, the configuration on [k-v, k+1] with absolute rounds.
    """
    v = max(p.visibility or 0, 1)
    carried = [Move(m.trans, m.rnd + k - 1, m.desert) for m in carried]
    new = []
    for t in p.transitions:
        variants = ((k, True), (k - 1, False)) if t.action.kind == INC \
            else ((k, False), (k, True))
        new += [(0, Move(t, rnd, desert)) for rnd, desert in variants
                if rnd >= 0 and (t.source in negated or not desert)]

    def extend(lc, steps, placed, deserted, pending):
        if placed == len(carried):
            yield tuple(Move(m.trans, m.rnd - k, m.desert)
                        for m in steps), lc
        if len(steps) == step_cap:
            return
        for advance, m in [(1, c) for c in carried[placed:placed + 1]] + new:
            try:
                nxt = local_step(p, lc, m)
            except NotEnabled:
                continue
            a = m.trans.action
            src = (m.trans.source, m.rnd)
            dst = (m.trans.dest, m.rnd + (a.kind == INC))
            populates = dst not in lc.pop
            if nxt == lc or (populates and dst in deserted):
                continue  # a stutter, or a repopulation after desertion
            in_window = max(lc.lo, 0) <= m.rnd
            pending2 = set(pending)
            if a.kind == WRITE and in_window:
                if (m.rnd, a.reg) in pending:
                    continue  # overwrites an unjustified write
                if not (populates or m.desert):
                    pending2.add((m.rnd, a.reg))
            if a.kind == READ and in_window:
                pending2.discard((m.rnd - a.depth, a.reg))
            yield from extend(
                nxt, steps + (m,), placed + advance,
                deserted | {src} if m.desert and in_window else deserted,
                pending2)

    yield from extend(bridge_start(initial_set, k - v, k + 1), (), 0, set(),
                      set())


def contradictory(lits: frozenset) -> bool:
    """Whether ground literals cannot all hold: one of them together with
    its negation, or two symbols in one register of one round.  The
    round-based search's rule before ``oracle._join`` became the one
    contradiction rule; ``_join`` must fold every set this rule flags."""
    symbols: dict = {}
    for lit in lits:
        if Not(lit) in lits:
            return True
        if isinstance(lit, RegAt) and symbols.setdefault(
                (lit.term.offset, lit.reg), lit.symbol) != lit.symbol:
            return True
    return False


def lift_roundless(p: Protocol, target: int):
    """A roundless COVER instance as a round-based one with the same answer.

    Each initial state gets an ``inc`` self-loop, visibility is 0 and every
    read has depth 0; the question is ``(exists k (pop target (+ k 0)))``.
    A process at round k entered it at an initial state, round k's
    registers are fresh and no round reads another, so every round runs
    its own copy of the roundless protocol.  Returns the protocol, parsed
    back from its text, and the constraint.
    """
    reads = tuple(t._replace(action=t.action._replace(depth=0))
                  if t.action.kind == READ else t for t in p.transitions)
    loops = tuple(Transition(q, Action(INC), q)
                  for q in sorted(p.initial_states))
    lifted = parse_protocol(serialize_protocol(p._replace(
        flavor=ROUNDBASED, visibility=0, transitions=reads + loops)))
    return lifted, parse_round_constraint(
        f"(exists k (pop {p.state_names[target]} (+ k 0)))", lifted)
