"""Concrete and abstract operational semantics for both protocol flavors.

Configurations are immutable values over one model: a roundless
configuration is the round-based one at round 0, where every process stays.
Populations range over locations ``(state, round)``; register banks are
sparse frozensets of ``((round, register), symbol)`` holding only
non-initial entries, every other register reading as the initial symbol.
Only the witness trace format tells the flavors apart: a roundless trace
has no round column and no ``@``, and lists every register.

All operations are pure functions of their inputs and safe to share across
threads.  Configurations, moves and executions are named tuples, like every
value type of the library.  A named tuple costs about a third of a frozen
class with generated methods to build (the oracle's step table builds a
move per entry), and declaring one generates and compiles no methods at
import, which took about 0.8 ms per class.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import (EmptySupport, NotEnabled, NotInitialState,
                     ReplayFailure)
from .model import (D0, INC, READ, ROUNDBASED, ROUNDLESS, WRITE, Protocol,
                    Transition)

CONCRETE = "concrete"
ABSTRACT = "abstract"


class AbstractConfig(NamedTuple):
    pop: frozenset  # (state, round) locations
    regs: frozenset  # ((round, reg), sym) with sym not d0


class ConcreteConfig(NamedTuple):
    pop: tuple      # sorted ((location, count), ...) with count > 0
    regs: frozenset


class Move(NamedTuple):
    trans: Transition
    rnd: int = 0             # always 0 in a roundless protocol
    desert: bool = False     # abstract semantics only; ignored concretely


class Execution(NamedTuple):
    start: object             # AbstractConfig or ConcreteConfig
    moves: tuple[Move, ...]


# --- population and register helpers ----------------------------------------

def multiset(items) -> tuple:
    counts: dict = {}
    for x in items:
        counts[x] = counts.get(x, 0) + 1
    return tuple(sorted(counts.items()))


def mset_count(pop: tuple, elem) -> int:
    for x, n in pop:
        if x == elem:
            return n
    return 0


def mset_add(pop: tuple, elem, delta: int = 1) -> tuple:
    counts = dict(pop)
    counts[elem] = counts.get(elem, 0) + delta
    if counts[elem] < 0:
        raise ValueError("negative multiplicity")
    if counts[elem] == 0:
        del counts[elem]
    return tuple(sorted(counts.items()))


def mset_support(pop: tuple) -> frozenset:
    return frozenset(x for x, _ in pop)


def reg_get(regs, key) -> int:
    for k, v in regs:
        if k == key:
            return v
    return D0


def reg_set(regs, key, sym: int):
    pruned = frozenset((k, v) for k, v in regs if k != key)
    if sym == D0:
        return pruned
    return pruned | {(key, sym)}


def move_source(m: Move):
    return (m.trans.source, m.rnd)


def move_dest(m: Move):
    rnd = m.rnd + 1 if m.trans.action.kind == INC else m.rnd
    return (m.trans.dest, rnd)


# --- constructors ------------------------------------------------------------

def initial_configuration(p: Protocol, support) -> AbstractConfig:
    """Abstract initial configuration with the given populated support."""
    support = frozenset(support)
    if not support:
        raise EmptySupport("initial support must be nonempty")
    bad = support - p.initial_states
    if bad:
        names = ", ".join(sorted(p.state_names[q] for q in bad))
        raise NotInitialState(f"not initial: {names}")
    return AbstractConfig(frozenset((q, 0) for q in support), frozenset())


def initial_supports(p: Protocol, vary):
    """The nonempty sets of initial states that hold every initial state
    outside ``vary``, smaller sets first.  With no initial state there is
    none."""
    q0 = p.initial_states
    fixed = q0 - vary
    free = sorted(q0 - fixed)
    for r in range(0 if fixed else 1, len(free) + 1):
        for combo in itertools.combinations(free, r):
            yield fixed.union(combo)


def project(c: ConcreteConfig) -> AbstractConfig:
    """Projection: keep the support of the population, registers unchanged."""
    return AbstractConfig(mset_support(c.pop), c.regs)


# --- enabledness -------------------------------------------------------------

def _check_action(p: Protocol, regs, act, rnd: int) -> None:
    """Raise NotEnabled unless the action's register precondition holds."""
    if act.kind == READ:
        target = rnd - (act.depth or 0)  # a roundless read has no depth
        if target < 0:
            raise NotEnabled(f"depth underflow: round {rnd} - {act.depth}")
        have = reg_get(regs, (target, act.reg))
        if have != act.symbol:
            raise NotEnabled(
                f"register mismatch: holds {p.symbol_names[have]}, "
                f"read expects {p.symbol_names[act.symbol]}")


def _apply_regs(regs, act, rnd: int):
    if act.kind == WRITE:
        return reg_set(regs, (rnd, act.reg), act.symbol)
    return regs


# --- steps -------------------------------------------------------------------

def concrete_step(p: Protocol, c: ConcreteConfig, m: Move) -> ConcreteConfig:
    """Unique concrete successor; the move's desert flag is ignored."""
    src = move_source(m)
    if mset_count(c.pop, src) == 0:
        raise NotEnabled("source empty")
    _check_action(p, c.regs, m.trans.action, m.rnd)
    pop = mset_add(mset_add(c.pop, src, -1), move_dest(m), +1)
    return ConcreteConfig(pop, _apply_regs(c.regs, m.trans.action, m.rnd))


def abstract_step(p: Protocol, c: AbstractConfig, m: Move) -> AbstractConfig:
    """Abstract successor honoring the move's desert flag."""
    src = move_source(m)
    if src not in c.pop:
        raise NotEnabled("source empty")
    _check_action(p, c.regs, m.trans.action, m.rnd)
    dest = move_dest(m)
    if m.desert:
        pop = (c.pop - {src}) | {dest}
    else:
        pop = c.pop | {dest}
    return AbstractConfig(pop, _apply_regs(c.regs, m.trans.action, m.rnd))


def replay(p: Protocol, exec: Execution, mode: str):
    """Fold the execution's steps, failing fast; returns the final config.

    This is the trusted witness checker: NotEnabled carries the index of the
    offending step.
    """
    return replay_configs(p, exec, mode)[-1]


def replay_configs(p: Protocol, exec: Execution, mode: str) -> list:
    """All intermediate configurations, start first."""
    step = concrete_step if mode == CONCRETE else abstract_step
    out = [exec.start]
    for i, m in enumerate(exec.moves):
        try:
            out.append(step(p, out[-1], m))
        except NotEnabled as e:
            raise NotEnabled(e.reason, step_index=i) from None
    return out


# --- witness trace format ------------------------------------------------------

def format_pop_elem(p: Protocol, elem) -> str:
    q, k = elem
    if p.flavor == ROUNDLESS:
        return p.state_names[q]
    return f"{p.state_names[q]}@{k}"


def format_regs(p: Protocol, regs) -> str:
    if p.flavor == ROUNDLESS:  # every register, d0 included
        return " ".join(f"{j + 1}={p.symbol_names[reg_get(regs, (0, j))]}"
                        for j in range(p.register_count))
    return " ".join(f"{k}.{j + 1}={p.symbol_names[s]}"
                    for (k, j), s in sorted(regs))


def write_trace(p: Protocol, exec: Execution, mode: str) -> str:
    """Render an execution in the line-oriented witness trace format."""
    from .model import format_action

    lines = [f"trace: {p.flavor} {mode}"]
    if mode == CONCRETE:
        elems = []
        for elem, n in exec.start.pop:
            elems.extend([elem] * n)
    else:
        elems = sorted(exec.start.pop)
    pop_part = " ".join(format_pop_elem(p, e) for e in elems)
    lines.append(f"start: {pop_part} | {format_regs(p, exec.start.regs)}")
    lines.append("steps:")
    for m in exec.moves:
        flag = "desert" if m.desert else "keep"
        prefix = f"{m.rnd} " if p.flavor == ROUNDBASED else ""
        lines.append(f"  {prefix}{p.state_names[m.trans.source]} "
                     f"{format_action(p, m.trans.action)} "
                     f"{p.state_names[m.trans.dest]} {flag}")
    return "\n".join(lines) + "\n"


def _trace_int(tok: str, lineno: int) -> int:
    """A round or register number: a natural."""
    try:
        n = int(tok)
    except ValueError:
        n = -1
    if n < 0:
        raise ReplayFailure(f"line {lineno}: bad number {tok!r}")
    return n


def parse_trace(p: Protocol, text: str) -> tuple[Execution, str]:
    """Parse the witness trace format; returns (execution, mode).

    The start must be an initial configuration (a concrete start projects
    to one) and each step a transition of ``p``; ``replay`` checks the rest.
    """
    from .model import _parse_action

    lines = [ln.split("#", 1)[0].rstrip() for ln in text.splitlines()]
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not lines or not lines[0][1].startswith("trace:"):
        raise ReplayFailure("trace must begin with a 'trace:' line")
    head = lines[0][1][len("trace:"):].split()
    if len(head) != 2 or head[0] != p.flavor or head[1] not in (CONCRETE,
                                                                ABSTRACT):
        raise ReplayFailure(f"bad trace header {lines[0][1]!r}")
    mode = head[1]
    if len(lines) < 2 or not lines[1][1].startswith("start:"):
        raise ReplayFailure("missing 'start:' line")
    start_line, toks = lines[1][0], lines[1][1][len("start:"):].split()
    # a state name may hold "|" or "@", a register token holds "="
    cut = max((i for i, tok in enumerate(toks) if tok == "|"),
              default=len(toks))
    elems = []
    for tok in toks[:cut]:
        if p.flavor == ROUNDLESS:
            elems.append((p.state_id(tok), 0))
        else:
            name, _, k = tok.rpartition("@")
            elems.append((p.state_id(name), _trace_int(k, start_line)))
    regs = frozenset()
    for tok in toks[cut + 1:]:
        key_part, _, sym_name = tok.partition("=")
        sym = p.symbol_id(sym_name)
        if p.flavor == ROUNDLESS:
            k, j = "0", key_part
        else:
            k, _, j = key_part.partition(".")
        j = _trace_int(j, start_line)
        if not 1 <= j <= p.register_count:
            raise ReplayFailure(
                f"line {start_line}: register {j} out of range")
        regs = reg_set(regs, (_trace_int(k, start_line), j - 1), sym)
    support = frozenset(q for q, _ in elems)
    try:
        initial = initial_configuration(p, support)
    except (EmptySupport, NotInitialState) as e:
        raise ReplayFailure(f"line {start_line}: {e}") from None
    if AbstractConfig(frozenset(elems), regs) != initial:
        raise ReplayFailure(
            f"line {start_line}: start is not an initial configuration")
    start = ConcreteConfig(multiset(elems), regs) if mode == CONCRETE \
        else initial

    moves = []
    transitions = set(p.transitions)
    symbol_ids = {n: i for i, n in enumerate(p.symbol_names)}
    rest = lines[2:]
    if rest and rest[0][1] == "steps:":
        rest = rest[1:]
    for lineno, ln in rest:
        toks = ln.split()
        if len(toks) < 4:
            raise ReplayFailure(f"line {lineno}: malformed step {ln!r}")
        rnd = 0
        if p.flavor == ROUNDBASED:
            rnd = _trace_int(toks[0], lineno)
            toks = toks[1:]
        flag = toks[-1]
        if flag not in ("desert", "keep"):
            raise ReplayFailure(f"line {lineno}: bad desert flag {flag!r}")
        src = p.state_id(toks[0])
        dst = p.state_id(toks[-2])
        act_text = " ".join(toks[1:-2])
        action = _parse_action(act_text, p.flavor, p.register_count,
                               p.visibility or 0, symbol_ids, lineno)
        trans = Transition(src, action, dst)
        if trans not in transitions:
            raise ReplayFailure(
                f"line {lineno}: {toks[0]} {act_text} {toks[-2]} is not a "
                "transition of the protocol")
        moves.append(Move(trans, rnd, flag == "desert"))
    return Execution(start, tuple(moves)), mode
