"""Brute-force ground truth at desk scale.

Exhaustive abstract reachability, breadth-first with parent links so that
shortest witnesses fall out, for roundless protocols and for round-based
protocols truncated at a round cap.  Every specialized solver is validated
against these sets; they are not a scalable model checker and refuse
instances beyond their caps.  The oracle stops at the first configuration
that satisfies the constraint, so its space cap bounds the configurations
discovered before a verdict, not the whole reach set.

Both flavors run one search loop, ``bfs``, over one packed step table,
``packed(p, lay, negated)`` in the bit ``layout`` ``lay`` of a round
window: a roundless protocol is its round-0 case, one block wide, with
its configurations, moves and atoms at round 0.  The search stays on
integer codes.  Each table entry is enabled by one mask test, which covers
its source's population bit and a read's symbol field together, and makes
its step by one mask and one or; it carries its move as the plain fields
``(transition, round, desert)``, and the table leaves out the entries that
can never change a code.  The constraint is compiled in the same layout
to bit probes on the code (``_compiled``, in one walk that carries the
polarity).  ``bfs`` returns the parent links and the hit's code, and
``search`` builds the ``Move``s of the witness it walks back from the hit
and decodes only its two ends.  A constraint that compiles to
the constant false, a contradiction or a universal false on the empty
tail past the window, is negative with no search: it discovers no
configuration.

The table is built on demand, a round at a time: ``bfs`` calls
``table(code)`` before it expands a code above the rounds built so far,
and gets the entries of the rounds up to that code's top round and the
least code above them.  An entry of a higher round needs its source's
population bit in that round's block, which the code does not have, so
the entries a code enables, and their order, are those of the whole table.
Most searches never leave rounds 0 and 1 of a window of up to a dozen.

The oracle, the roundless ``bounded`` solver and the round window of
``roundbased`` all decide by ``search``, whose positives ``validated``
replays and checks with the reference evaluators, so their agreement checks
neither the table, nor the probe, nor its folding to a constant, nor the
cut in ``search``'s docstring.  The tests check those on whole reach sets,
against a reference search and the evaluators, through the decoded views
of ``tests/reference.py``.
"""

from __future__ import annotations

from itertools import chain

from .constraints import (And, Exists, Forall, Not, Or, PopAt, RegAt,
                          eval_roundbased, eval_roundless, max_constant,
                          negated_states, term_value)
from .errors import CapExceeded, ReplayFailure
from .model import INC, READ, ROUNDBASED, ROUNDLESS, WRITE, Protocol
from .semantics import (ABSTRACT, AbstractConfig, Execution, Move,
                        initial_supports, replay)
from .verdict import NEGATIVE, POSITIVE, Verdict

DEFAULT_STATE_CAP = 12
DEFAULT_SPACE_CAP = 200_000


def bfs(starts, table, space_cap: float, sat) -> tuple[dict, int | None]:
    """Breadth-first search over configuration codes, to the first hit or
    to exhaustion.

    ``starts`` yields the initial codes.  ``table(code)`` returns
    ``(entries, above)`` with ``code < above``: step entries in table
    order, among them every entry enabled on a code below ``above``.  The
    search calls it before it expands its first code and each code at or
    past the last ``above``, so the table can be built a part at a time.
    An entry ``(mask, want, keep, add, move)`` is enabled on ``code`` when
    ``code & mask == want`` and then leads to ``code & keep | add``.  Codes
    are expanded in discovery order, so level by level, each by the entries
    in table order.  ``sat`` is tested on each code as it is first
    discovered and stops the search at the first hit; the search decodes
    nothing.  Discovering more than ``space_cap`` codes, starts included,
    raises ``CapExceeded``.

    Returns ``(links, hit)``: ``links`` maps each code discovered, in
    discovery order, to ``(pred code, move)``, ``move`` the last field of
    the entry that discovered it, or None for a start, and ``hit`` is the
    first code that satisfies ``sat``, or None.
    """
    links: dict = {}
    room = space_cap  # codes that may still be discovered
    queue = []  # codes discovered, in order; the loop below expands each
    for code in starts:
        if code not in links:
            if room <= 0:
                raise _beyond(space_cap)
            room -= 1
            links[code] = None
            queue.append(code)
            if sat(code):
                return links, code
    entries, above = (), 0  # no entry built yet
    for code in queue:  # grows as it goes
        if code >= above:
            entries, above = table(code)
        for mask, want, keep, add, move in entries:
            if code & mask == want:
                succ = code & keep | add
                if succ not in links:
                    if room <= 0:
                        raise _beyond(space_cap)
                    room -= 1
                    links[succ] = code, move
                    queue.append(succ)
                    if sat(succ):
                        return links, succ
    return links, None


def _beyond(space_cap) -> CapExceeded:
    return CapExceeded(f"reach set exceeds {space_cap} configurations")


def layout(p: Protocol, max_round: int):
    """Bit layout of ``packed`` codes for round cap ``max_round``.

    Returns ``(rounds, pop, slot, sym_mask)``.  Each round has a block of
    its own, round r's block right above round r - 1's: register j's symbol
    field, ``sym_mask`` wide, starts at bit ``slot(r, j)``, and the
    population bits follow the fields: with nr registers, state q's is
    ``pop(q, r) == 1 << slot(r, nr) + q``.  So round r + k reads as round
    r in the code shifted right by ``slot(k, 0)``, and a round past the
    window reads as all-empty.  A roundless protocol's codes stay in round
    0, and its callers give it round cap 0.
    """
    if max_round < 0:
        raise ValueError(f"round cap {max_round} is negative")
    rounds = max_round + 1
    nq, nr = p.num_states, p.register_count
    sym_bits = max(1, (p.num_symbols - 1).bit_length())
    block = nr * sym_bits + nq
    return (rounds, lambda q, r: 1 << (r * block + nr * sym_bits + q),
            lambda r, j: r * block + j * sym_bits, (1 << sym_bits) - 1)


def packed(p: Protocol, lay, negated):
    """``(starts, table, decode)`` for ``bfs`` on packed integer codes.

    A code holds one symbol field per (round, register) and one population
    bit per (round, state), in the layout ``lay``, ``layout(p, max_round)``:
    rounds 0 to ``max_round`` of a round-based protocol; a roundless one has
    round 0 only.  The table holds step entries per transition and round,
    keep variant first, then desert, as in the reference successor relation:
    an increment at ``max_round`` and a read below round 0 get none.  Only
    a source in the set of states ``negated`` (the cut in ``search``'s
    docstring) gets a desert entry, and the starts are the supports that
    hold every initial state outside it: with every state negated, the
    search is exhaustive.  An entry's move is the tuple ``(transition,
    round, desert)`` of a ``Move``'s fields.

    The table leaves out what can never change a code, so the codes
    discovered, their order and their links are those of the whole
    relation: a read that loops on its state gets no entry, and a write
    that does gets no desert entry, which would lead where its keep entry
    before it does.  A keep entry that writes nothing also tests that its
    destination's bit is clear: on a code where it is set, the step leads
    back to the code.

    ``table(code)`` builds the rounds up to ``code``'s top round that are
    not built yet, and returns the entries of every round built, in
    transition-major order, with the least code above those rounds: an
    entry of a higher round tests its source's bit in that round's block,
    so no code below it enables one.

    An entry's enabling test merges the source's population bit ``src`` into
    a read's symbol test ``(test, want)``: the two cover disjoint bits, so
    ``code & (src | test) == src | want`` holds exactly when the source is
    populated and the register holds the symbol read.  ``keep`` clears a
    write's field, and a desert entry's also clears ``src``; ``add`` sets
    the symbol written and the destination's bit.  A transition's entry at
    round r is its entry at its lowest round shifted up by the rounds
    between: every bit it tests or sets moves up by whole blocks.
    """
    rounds, pop, slot, sym_mask = lay
    block = slot(1, 0)
    rows = []  # per transition: its fields at its lowest round, its entries
    built = 0  # rounds 0 .. built - 1 are built

    def table(code: int):
        nonlocal built
        if not built:  # the first call lists each transition's fields
            for t in p.transitions:
                a = t.action
                lo, top = a.depth or 0, rounds - 1 - (a.kind == INC)
                loop = t.source == t.dest and a.kind != INC
                if lo > top or loop and a.kind == READ:
                    continue  # no entry, or none that changes a code
                src = mask = want = pop(t.source, lo)
                clear, add = 0, pop(t.dest, lo + (a.kind == INC))
                at = slot(0, a.reg or 0)  # a read's: round lo - depth
                if a.kind == READ:
                    mask, want = src | sym_mask << at, src | a.symbol << at
                if a.kind == WRITE:
                    clear, add = sym_mask << at, add | a.symbol << at
                    kmask = mask
                else:  # a keep move into a populated destination is idle
                    kmask = mask | add
                dclear = None if loop or t.source not in negated \
                    else clear | src
                rows.append((t, lo, top, kmask, mask, want, clear, dclear,
                             add, []))
        need = (code.bit_length() - 1) // block + 1
        for r in range(built, need):  # round lo's entry, r - lo blocks up
            for t, lo, top, kmask, mask, want, clear, dclear, add, out \
                    in rows:
                if lo <= r <= top:
                    n = (r - lo) * block
                    w, a = want << n, add << n
                    out.append((kmask << n, w, ~(clear << n), a,
                                (t, r, False)))
                    if dclear is not None:
                        out.append((mask << n, w, ~(dclear << n), a,
                                    (t, r, True)))
        built = max(built, need)
        return (list(chain.from_iterable(row[-1] for row in rows)),
                1 << built * block)

    nr = p.register_count
    width, first, states = slot(0, 1), slot(0, nr), (1 << p.num_states) - 1

    def decode(code: int) -> AbstractConfig:
        where, regs = [], []
        # only the blocks up to the code's top round hold a bit
        for r, n in enumerate(range(0, code.bit_length(), block)):
            bits = code >> n + first & states
            while bits:  # each populated state, lowest first
                low = bits & -bits
                where.append((low.bit_length() - 1, r))
                bits ^= low
            for j in range(nr):
                if s := code >> n + j * width & sym_mask:
                    regs.append(((r, j), s))
        return AbstractConfig(frozenset(where), frozenset(regs))

    # lazy: a search that hits early never encodes the remaining supports
    starts = (sum(pop(q, 0) for q in support)
              for support in initial_supports(p, negated))
    return starts, table, decode


def _compiled(psi, lay):
    """The constraint on codes in the layout ``lay = layout(p, max_round)``:
    a constant, a bit test, or a function of the code and the shifted
    code.  As a predicate on the code (``_probe``) it agrees with
    ``eval_roundless`` on a roundless protocol's decoded configuration, and
    with ``eval_roundbased(..., active_bound=max_round + 1)`` on a
    round-based one's; a roundless atom is a round-0 ``PopAt``/``RegAt``
    like any other.  A quantifier tries ``k = 0..max_round + 1``,
    reading round ``k + m`` as round ``m`` of the code shifted by k rounds;
    past the window the code reads as empty, where a population atom is
    false and a register holds d0, so every later ``k`` gives what
    ``max_round + 1`` gives.

    One walk carries the polarity, as ``constraints.dnf_clauses`` does: a
    ``not`` flips it, an ``and`` under an odd number of ``not``s is a
    disjunction and an ``or`` a conjunction, and ``exists`` and ``forall``
    swap there.  On the way down a child of the same effective connective
    is spliced into its parent, so every test of a conjunction or
    disjunction meets the others in one ``_join``.  Each atom is a bit
    test ``(mask, want, eq, shifted)``, true when ``(x & mask == want) ==
    eq`` for ``x`` the code, or the shifted code for an atom on the
    quantified variable; under an odd number of ``not``s ``eq`` is false.
    Constants fold, ``_join`` merges the tests of a conjunction or
    disjunction, a quantifier whose body does not read k is its body, and
    a quantified test becomes one test of the code per k.
    A quantifier's body at ``k = max_round + 1``, the tail term, reads the
    shifted code as 0; when it reads no other atom it is a constant, and a
    universal with a false one is false, an existential with a true one
    true, on every code.
    """
    rounds, pop, slot, sym_mask = lay

    def build(node, neg: bool, bound: bool, tail: bool = False):
        while type(node) is Not:
            node, neg = node.child, not neg
        kind = type(node)
        if kind is PopAt or kind is RegAt:
            # round k + m is round m of the shifted code
            r = term_value(node.term, 0 if bound else None)
            shifted = node.term.has_var
            if kind is PopAt:
                mask = want = pop(node.state, r)
            else:
                at = slot(r, node.reg)
                mask, want = sym_mask << at, node.symbol << at
            if tail and shifted:  # the shifted code is 0
                return (want == 0) != neg
            return mask, want, not neg, shifted
        if kind is And or kind is Or:
            conj = (kind is And) != neg
            return _join(conj, [build(x, n, bound, tail)
                                for x, n in _spliced(node, neg, conj, [])])
        if kind is not Exists and kind is not Forall:
            raise TypeError(f"not a constraint node: {node!r}")
        exists = (kind is Exists) != neg
        if build(node.prop, neg, True, True) is exists:
            return exists  # the tail term decides every code
        body = build(node.prop, neg, True)
        if isinstance(body, bool) or type(body) is tuple and not body[3]:
            return body  # it does not read k, and k takes some value
        shifts = range(0, slot(rounds + 1, 0), slot(1, 0))  # k = 0..rounds
        if type(body) is tuple:
            m, w, eq, _ = body
            return _join(not exists,
                         [(m << n, w << n, eq, False) for n in shifts])
        body = _predicate(body)
        if exists:
            return lambda c, s: any(body(c, c >> n) for n in shifts)
        return lambda c, s: all(body(c, c >> n) for n in shifts)

    return build(psi, False, False)


def _spliced(node, neg: bool, conj: bool, out: list) -> list:
    """``out`` extended by the children of ``node``, a connective that is a
    conjunction when ``conj``, each with its polarity, ``not``s dropped
    and children of the same connective spliced in."""
    for x in node.children:
        n = neg
        while type(x) is Not:
            x, n = x.child, not n
        kind = type(x)
        if (kind is And or kind is Or) and ((kind is And) != n) == conj:
            _spliced(x, n, conj, out)
        else:
            out.append((x, n))
    return out


def _probe(part):
    """A compiled part as a predicate on the code; a single test is one
    comparison, since the code is the shifted code outside a quantifier."""
    if type(part) is tuple:
        m, w, eq, _ = part
        return (lambda c: c & m == w) if eq else (lambda c: c & m != w)
    sat = _predicate(part)
    return lambda c: sat(c, c)


def _join(conj: bool, parts):
    """The conjunction (or disjunction) of compiled parts.

    Constants fold.  The equality tests of a conjunction on one of the two
    codes merge into one, as do the inequality tests of a disjunction; a
    one-bit test is either.  Two tests that disagree on a bit, or a test of
    the other sense that the merged one decides (an equality and an
    inequality test of one field), fold it to false (true): this is the one
    rule by which ground literals contradict, in ``roundbased`` too.
    """
    merged: dict = {}  # shifted -> (mask, want)
    other = []  # multi-bit tests of the other sense
    rest = []
    for e in parts:
        if isinstance(e, bool):
            if e != conj:
                return e  # false in a conjunction, true in a disjunction
            continue
        if type(e) is tuple:
            m, w, eq, shifted = e
            if eq != conj and m & (m - 1) == 0:
                w, eq = m ^ w, conj  # one bit: equal to w, unequal to m ^ w
            if eq == conj:
                mask, want = merged.get(shifted, (0, 0))
                if (want ^ w) & mask & m:
                    return not conj  # two tests of one bit disagree
                merged[shifted] = mask | m, want | w
                continue
            other.append(e)
        rest.append(_predicate(e))
    for m, w, _, shifted in other:
        mask, want = merged.get(shifted, (0, 0))
        if mask & m == m and want & m == w:
            return not conj  # the merged test decides this one the other way
    tests = [(m, w, conj, shifted) for shifted, (m, w) in merged.items()]
    if len(tests) == 1 and not rest:
        return tests[0]
    rest[:0] = map(_predicate, tests)
    if len(rest) < 2:
        return rest[0] if rest else conj
    if conj:
        return lambda c, s: all(f(c, s) for f in rest)
    return lambda c, s: any(f(c, s) for f in rest)


def _predicate(e):
    """A compiled part as a function of the code and the shifted code."""
    if isinstance(e, bool):
        return lambda c, s: e
    if type(e) is tuple:
        m, w, eq, shifted = e
        if shifted and eq:
            return lambda c, s: s & m == w
        if shifted:
            return lambda c, s: s & m != w
        if eq:
            return lambda c, s: c & m == w
        return lambda c, s: c & m != w
    return e


def _refuse_beyond_caps(p: Protocol, state_cap: int):
    if p.num_states > state_cap:
        raise CapExceeded(f"|Q| = {p.num_states} exceeds cap {state_cap}")


def search(p: Protocol, psi, max_round: int = 0,
           space_cap: float = float("inf")) -> tuple[int, Execution | None]:
    """Breadth-first search for a configuration that satisfies ``psi``.

    ``bfs`` on ``packed(p, lay, negated_states(psi))`` with ``psi``
    ``_compiled`` in the same ``lay = layout(p, max_round)`` as its test,
    and its ``space_cap``.  Returns the number of configurations discovered
    and the shortest witness to the first hit, or None.  The witness is the
    parent links walked back from the hit; only its start and the hit are
    decoded, and ``validated`` checks that it ends at the hit.  A
    constraint that compiles to the constant false returns ``(0, None)``
    and builds neither table nor starts.

    The start and desert cut.  A constraint notices an extra populated
    location only at a state it reads under an odd number of negations
    (``constraints.negated_states``, N below).  Take any witness, let a
    process idle forever at each initial state outside N, and replace each
    deserting move from a source outside N by its keep variant.  Either
    change leaves the registers as they were: each step stays enabled and
    writes what it wrote.  It only adds locations of states outside N,
    which the constraint reads positively, so the final configuration still
    satisfies it.  Hence every witness has one of the same length that
    starts with every initial state outside N populated and deserts only
    from states in N, the ones searched, so the shortest witnesses keep
    their length.  The footprint search of ``roundbased`` cuts its starts
    and deserts per candidate in the same way.
    """
    lay = layout(p, max_round)
    part = _compiled(psi, lay)
    if part is False:  # no code satisfies it: nothing to search
        return 0, None
    starts, table, decode = packed(p, lay, negated_states(psi))
    links, hit = bfs(starts, table, space_cap, _probe(part))
    if hit is None:
        return len(links), None
    code, moves = hit, []
    while (link := links[code]) is not None:
        code, move = link
        moves.append(Move(*move))
    moves.reverse()
    start = decode(code)
    wit = Execution(start, tuple(moves))
    if validated(p, psi, wit) != (decode(hit) if moves else start):
        raise ReplayFailure("internal error: witness misses the hit")
    return len(links), wit


def validated(p: Protocol, psi, witness: Execution) -> AbstractConfig:
    """The final configuration of a positive's witness, replayed; raises
    ``ReplayFailure`` unless it satisfies ``psi``, by the reference
    evaluator of its flavor at its own active bound."""
    final = replay(p, witness, ABSTRACT)
    if p.flavor == ROUNDLESS:  # as eval_roundbased, with no bound to find
        holds = eval_roundless(final, psi)
    else:
        holds = eval_roundbased(p, final, psi)
    if not holds:
        raise ReplayFailure(
            "internal error: witness does not satisfy the constraint")
    return final


def default_round_cap(p: Protocol, psi) -> int:
    """Heuristic oracle round cap: (v+1) * (M+2) + 2 for constraint constant M.

    Deep enough for every desk-scale example; nothing deeper is claimed.
    """
    return (int(p.visibility or 0) + 1) * (max_constant(psi) + 2) + 2


def oracle_prp(p: Protocol, constraint, max_round: int | None = None,
               state_cap: int = DEFAULT_STATE_CAP,
               space_cap: int = DEFAULT_SPACE_CAP) -> Verdict:
    """Decide a presence reachability instance by exhaustive search.

    ``search`` within ``space_cap`` configurations: a positive is exact
    whenever its first hit lies within the cap, while a negative explores
    the whole reach set of ``search``'s cut search and raises
    ``CapExceeded`` past it.  ``stats["members"]`` counts the
    configurations discovered, for a positive not the whole reach set, and
    0 for a constraint that compiles to the constant false, which no
    configuration satisfies.

    For round-based protocols the verdict is relative to executions whose
    moves affect rounds <= max_round only (positives are exact; a negative
    means no witness within the cap).
    """
    if p.flavor == ROUNDLESS:
        max_round = 0
    elif max_round is None:
        max_round = default_round_cap(p, constraint)
    _refuse_beyond_caps(p, state_cap)
    members, wit = search(p, constraint, max_round, space_cap)
    stats = {"members": members}
    if p.flavor == ROUNDBASED:
        stats["max_round"] = max_round
    return Verdict(NEGATIVE if wit is None else POSITIVE, "oracle", wit,
                   stats)
