"""Benchmark generators with independently known answers.

Each generator embodies one hardness construction: 3-CNF satisfiability into
roundless coverability, 3-CNF satisfiability into uninitialized
synchronization, and circuit evaluation into one-register coverability.
Each builds only its states and transition lines, whose order is the order
the searches try them in, and ``_roundless`` parses them under one header,
so a generated protocol passes every check an input file does.  Ground truth
(truth tables, direct circuit evaluation) is computed here, never by the
solvers under test.

Also hosts the built-in example protocols and constraints used throughout the
test suite and the CLI ``examples`` verb.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import CyclicCircuit
from .model import Protocol, parse_protocol

TRUTH_TABLE_CAP = 20


class _CnfFields(NamedTuple):
    num_vars: int
    clauses: tuple  # ((l1, l2, l3), ...), literal j or -j with 1 <= j <= n


class CnfFormula(_CnfFields):
    """3-CNF formula: clauses of exactly three signed variable indices."""

    __slots__ = ()

    def __new__(cls, num_vars: int, clauses: tuple):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        if not clauses:
            raise ValueError("need at least one clause")
        for cl in clauses:
            if len(cl) != 3:
                raise ValueError(f"clause {cl} must have exactly 3 literals")
            for lit in cl:
                if lit == 0 or abs(lit) > num_vars:
                    raise ValueError(f"literal {lit} out of range")
        return super().__new__(cls, num_vars, clauses)


def truth_table_satisfiable(cnf: CnfFormula) -> bool:
    """Exhaustive satisfiability check; the benchmark ground truth."""
    if cnf.num_vars > TRUTH_TABLE_CAP:
        raise ValueError(f"truth table capped at {TRUTH_TABLE_CAP} variables")
    for bits in itertools.product((False, True), repeat=cnf.num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl)
               for cl in cnf.clauses):
            return True
    return False


def _lit_reg(lit: int) -> int:
    """1-based register index of a literal: x_j -> 2j-1, not-x_j -> 2j."""
    j = abs(lit)
    return 2 * j - 1 if lit > 0 else 2 * j


def _roundless(states: list, initial: list, registers: int, alphabet: list,
               transitions: list) -> tuple[Protocol, int]:
    """A roundless protocol from its names and transition lines, parsed,
    and the id of its state ``qf``."""
    p = parse_protocol("\n".join([
        "flavor: roundless", f"states: {' '.join(states)}",
        f"initial: {' '.join(initial)}", f"registers: {registers}",
        f"alphabet: {' '.join(alphabet)}", "transitions:", *transitions,
        ""]))
    return p, p.state_id("qf")


def sat_to_cover(cnf: CnfFormula) -> tuple[Protocol, int]:
    """3-CNF formula into a coverability instance over 2n one-shot registers.

    One register per literal; any of them may be set from the hub state but
    never reset, so a literal holds exactly when its register was set before
    its negation's.  Clause gadgets read a set literal register and check the
    negation's register still blank.  The error state is coverable iff the
    formula is satisfiable.
    """
    n, m = cnf.num_vars, len(cnf.clauses)
    states = ["q0"]
    for i in range(1, m + 1):
        states.append(f"C{i}?")
        for k in range(1, 4):
            states.append(f"T{i}_{k}_1")
    states.append("qf")
    lines = []
    for j in range(1, n + 1):
        lines.append(f"q0 write({_lit_reg(j)}, tt) q0")
        lines.append(f"q0 write({_lit_reg(-j)}, tt) q0")
    lines.append(f"q0 write({_lit_reg(1)}, tt) C1?")
    lines.append(f"q0 write({_lit_reg(-1)}, tt) C1?")
    for i, clause in enumerate(cnf.clauses, start=1):
        nxt = f"C{i + 1}?" if i < m else "qf"
        for k, lit in enumerate(clause, start=1):
            mid = f"T{i}_{k}_1"
            lines.append(f"C{i}? read({_lit_reg(lit)}, tt) {mid}")
            lines.append(f"{mid} read({_lit_reg(-lit)}, d0) {nxt}")
    return _roundless(states, ["q0"], 2 * n, ["d0", "tt"], lines)


def sat_to_uninit_target(cnf: CnfFormula) -> tuple[Protocol, int]:
    """3-CNF formula into an uninitialized synchronization instance.

    One register per variable holding tt or ff; the initial symbol is never
    read or written.  Every process must funnel through the clause chain, and
    once the hub is deserted the registers are frozen, so synchronizing on the
    final state is possible iff the formula is satisfiable.
    """
    n, m = cnf.num_vars, len(cnf.clauses)
    states = ["q0"] + [f"C{i}?" for i in range(1, m + 1)] + ["qf"]
    lines = []
    for j in range(1, n + 1):
        lines.append(f"q0 write({j}, tt) q0")
        lines.append(f"q0 write({j}, ff) q0")
    lines.append("q0 write(1, tt) C1?")
    lines.append("q0 write(1, ff) C1?")
    reads = []
    for i, clause in enumerate(cnf.clauses, start=1):
        nxt = f"C{i + 1}?" if i < m else "qf"
        reads += [f"C{i}? read({abs(lit)}, {'tt' if lit > 0 else 'ff'}) {nxt}"
                  for lit in clause]
    lines += dict.fromkeys(reads)  # a literal repeated in a clause reads once
    return _roundless(states, ["q0"], n, ["d0", "tt", "ff"], lines)


NOT, AND, OR = "not", "and", "or"


class Circuit(NamedTuple):
    """Acyclic Boolean circuit in topological order.

    inputs   ((wire, value), ...);
    gates    (("not", i, o) | ("and", i1, i2, o) | ("or", i1, i2, o), ...);
    output   the wire whose value the instance asks about.
    """

    inputs: tuple
    gates: tuple
    output: str

    def wire_order(self) -> list[str]:
        return [w for w, _ in self.inputs] + [g[-1] for g in self.gates]


def evaluate_circuit(c: Circuit) -> bool:
    """Direct evaluation; raises CyclicCircuit on structural violations."""
    names = [c.output, *(w for w, _ in c.inputs),
             *itertools.chain(*c.gates)]
    if not all(c.gates) or not all(isinstance(x, str) for x in names):
        raise CyclicCircuit("a gate is empty, or a name is not a string")
    if not all(isinstance(v, bool) for _, v in c.inputs):
        raise CyclicCircuit("an input's value is not true or false")
    # cvp_to_cover writes each wire into a symbol of the protocol text
    for wire in (c.output, *(w for w, _ in c.inputs),
                 *(w for g in c.gates for w in g[1:])):
        if any(ch.isspace() or ch in "#," for ch in wire):
            raise CyclicCircuit(f"wire {wire!r} holds whitespace, '#' or ','")
    values: dict[str, bool] = {}
    for wire, val in c.inputs:
        if wire in values:
            raise CyclicCircuit(f"wire {wire!r} defined twice")
        values[wire] = bool(val)
    for g in c.gates:
        op, args, out = g[0], g[1:-1], g[-1]
        if op == NOT and len(args) != 1:
            raise CyclicCircuit(f"not-gate takes one input: {g}")
        if op in (AND, OR) and len(args) != 2:
            raise CyclicCircuit(f"{op}-gate takes two inputs: {g}")
        if op not in (NOT, AND, OR):
            raise CyclicCircuit(f"unknown gate {op!r}")
        if out in values:
            raise CyclicCircuit(f"wire {out!r} defined twice")
        for a in args:
            if a not in values:
                raise CyclicCircuit(
                    f"gate {g} uses wire {a!r} before its definition")
        ins = [values[a] for a in args]
        values[out] = (not ins[0] if op == NOT
                       else all(ins) if op == AND else any(ins))
    if c.output not in values:
        raise CyclicCircuit(f"output wire {c.output!r} is undefined")
    return values[c.output]


def cvp_to_cover(c: Circuit, desired: bool) -> tuple[Protocol, int]:
    """Circuit evaluation into one-register coverability.

    Wire values travel through the single register as per-wire symbols; each
    gate has its own initial hub whose branches read input symbols and write
    the implied output symbol.  The error state is the destination of the
    write of the output wire's desired-value symbol, so it is coverable iff
    the circuit output equals ``desired``.
    """
    evaluate_circuit(c)  # structural validation
    wires = c.wire_order()
    symbols = ["d0"]
    for w in wires:
        symbols.extend((f"t_{w}", f"f_{w}"))

    def val_sym(wire: str, value: bool) -> str:
        return f"{'t' if value else 'f'}_{wire}"

    states = ["inp"]
    trans: list[str] = []
    for wire, value in c.inputs:
        trans.append(f"inp write(1, {val_sym(wire, value)}) inp")
    for g_idx, g in enumerate(c.gates, start=1):
        op, out = g[0], g[-1]
        hub = f"G{g_idx}"
        states.append(hub)
        if op == NOT:
            i = g[1]
            for value in (True, False):
                mid = f"{hub}_{'t' if not value else 'f'}"
                states.append(mid)
                trans.append(f"{hub} read(1, {val_sym(i, value)}) {mid}")
                trans.append(f"{mid} write(1, {val_sym(out, not value)}) {mid}")
        else:
            i1, i2 = g[1], g[2]
            # the eager polarity fires on either input, the lazy one needs both
            eager = op == OR
            t1, t2 = f"{hub}_l1", f"{hub}_l2"
            e = f"{hub}_e"
            states.extend((t1, t2, e))
            trans.append(f"{hub} read(1, {val_sym(i1, not eager)}) {t1}")
            trans.append(f"{t1} read(1, {val_sym(i2, not eager)}) {t2}")
            trans.append(f"{t2} write(1, {val_sym(out, not eager)}) {t2}")
            trans.append(f"{hub} read(1, {val_sym(i1, eager)}) {e}")
            trans.append(f"{hub} read(1, {val_sym(i2, eager)}) {e}")
            trans.append(f"{e} write(1, {val_sym(out, eager)}) {e}")
    states.append("qf")
    target_sym = val_sym(c.output, desired)
    trans += [f"{line.split()[0]} write(1, {target_sym}) qf"
              for line in trans if f"write(1, {target_sym})" in line]
    initials = ["inp"] + [f"G{i}" for i in range(1, len(c.gates) + 1)]
    return _roundless(states, initials, 1, symbols, trans)


# --- built-in examples -----------------------------------------------------------

FIG1_SOURCE = """\
flavor: roundless
states: q0 A B C qf
initial: q0
registers: 1
alphabet: d0 a b c
transitions:
  q0 read(1, d0) B
  q0 write(1, c) A
  B read(1, d0) C
  C read(1, c) A
  A read(1, a) qf
  qf write(1, b) A
  C read(1, b) qf
  C write(1, a) C
"""

FIG1_BLUE_SOURCE = FIG1_SOURCE.replace("q0 read(1, d0) B", "q0 read(1, c) B")

FIG1_RED_SOURCE = FIG1_SOURCE.replace("C read(1, c) A", "C write(1, a) A")

FIG4_SOURCE = """\
flavor: roundbased
states: q0 A B C D E qf
initial: q0
registers: 1
alphabet: d0 a b
visibility: 1
transitions:
  q0 inc q0
  q0 write(1, a) A
  A read(-1, 1, d0) B
  B read(-1, 1, a) C
  C write(1, b) q0
  q0 read(-1, 1, b) D
  D read(0, 1, d0) E
  E read(0, 1, b) qf
"""

EX22_SOURCE = """\
flavor: roundless
states: q1 q2 q3
initial: q1 q2 q3
registers: 2
alphabet: d0 a b
transitions:
"""

EX42_SOURCE = """\
flavor: roundbased
states: q0 q1
initial: q0 q1
registers: 1
alphabet: d0 a
visibility: 0
transitions:
"""


class NamedConstraint(NamedTuple):
    protocol: str   # key into the protocols dict, which gives the flavor
    text: str


BUILTIN_CONSTRAINTS = {
    "ex22_phi": NamedConstraint(
        "ex22", "(or (pop q1) (and (pop q2) (reg 1 a)))"),
    "ex26_phi": NamedConstraint(
        "fig1",
        "(and (not (pop C)) (or (reg 1 a) (and (reg 1 b) (not (pop A)))))"),
    "cover_qf": NamedConstraint("fig1", "(pop qf)"),
    "target_qf": NamedConstraint(
        "fig1",
        "(and (not (pop q0)) (not (pop A)) (not (pop B)) (not (pop C)))"),
    "ex42_a": NamedConstraint(
        "ex42", "(and (reg 1 0 d0) (exists k (pop q1 (+ k 1))))"),
    "ex42_b": NamedConstraint(
        "ex42", "(forall k (or (pop q0 (+ k 0)) (not (pop q1 (+ k 0)))))"),
    "psi1": NamedConstraint("fig4", "(exists k (pop qf (+ k 0)))"),
    "psi2": NamedConstraint(
        "fig4", "(exists k (and (pop E (+ k 0)) (pop E (+ k 1))))"),
    "psi3": NamedConstraint(
        "fig4",
        "(and (pop E 2) (forall k (or (reg 1 (+ k 1) b) (reg 1 (+ k 1) d0))))"),
}


def builtin_examples() -> tuple[dict[str, Protocol], dict[str, NamedConstraint]]:
    """The worked example protocols and constraints, parsed and ready."""
    protocols = {
        "fig1": parse_protocol(FIG1_SOURCE),
        "fig1_blue": parse_protocol(FIG1_BLUE_SOURCE),
        "fig1_red": parse_protocol(FIG1_RED_SOURCE),
        "fig4": parse_protocol(FIG4_SOURCE),
        "ex22": parse_protocol(EX22_SOURCE),
        "ex42": parse_protocol(EX42_SOURCE),
    }
    return protocols, dict(BUILTIN_CONSTRAINTS)
