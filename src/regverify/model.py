"""Protocol domain types, textual format and parsing.

A protocol is either *roundless* (one fixed bank of registers) or
*round-based* (a fresh bank per round, processes carrying private round
numbers).  Both flavors share one ``Protocol`` type with a flavor tag.

The parser is the one check of outside input: it raises, citing the line
where there is one, on every structural invariant of a protocol, the ones
``tests/reference.py``'s ``validate`` lists for the protocols that
reductions build directly.

States and symbols are interned to dense integer ids at parse time; all
solver-internal sets are over ids.  Registers are 1-indexed in the file
format and 0-indexed internally; conversion happens only at parse/print
boundaries.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ProtocolSemanticError, ProtocolSyntaxError

ROUNDLESS = "roundless"
ROUNDBASED = "roundbased"

READ = "read"
WRITE = "write"
INC = "inc"


class Action(NamedTuple):
    """One transition label; a named tuple, cheap to build.

    kind       READ, WRITE or INC.
    reg        0-based register index (READ/WRITE), None for INC.
    symbol     symbol id (READ/WRITE), None for INC.
    depth      round-based READ only: read from round k-depth; None otherwise.
    """

    kind: str
    reg: int | None = None
    symbol: int | None = None
    depth: int | None = None


class Transition(NamedTuple):
    source: int
    action: Action
    dest: int


class Protocol(NamedTuple):
    flavor: str
    state_names: tuple[str, ...]
    initial_states: frozenset[int]
    register_count: int
    symbol_names: tuple[str, ...]  # index 0 is the initial symbol d0
    transitions: tuple[Transition, ...]
    visibility: int | None = None  # round-based only

    @property
    def num_states(self) -> int:
        return len(self.state_names)

    @property
    def num_symbols(self) -> int:
        return len(self.symbol_names)

    def state_id(self, name: str) -> int:
        if name not in self.state_names:
            raise ProtocolSemanticError(f"unknown state {name!r}")
        return self.state_names.index(name)

    def symbol_id(self, name: str) -> int:
        if name not in self.symbol_names:
            raise ProtocolSemanticError(f"unknown symbol {name!r}")
        return self.symbol_names.index(name)


D0 = 0  # the initial symbol always interns to id 0


def is_uninitialized(p: Protocol) -> bool:
    """True iff no transition reads the initial symbol from any round."""
    return not any(t.action.kind == READ and t.action.symbol == D0
                   for t in p.transitions)


# --- textual format ---------------------------------------------------------

_HEADER_KEYS = ("flavor", "states", "initial", "registers", "alphabet",
                "visibility")


def _register_index(tok: str, reg_count: int, lineno: int) -> int:
    try:
        j = int(tok)
    except ValueError:
        raise ProtocolSyntaxError(f"bad register index {tok!r}", lineno)
    if not 1 <= j <= reg_count:
        raise ProtocolSemanticError(
            f"line {lineno}: register {j} out of range 1..{reg_count}")
    return j - 1


def _name_index(tok: str, ids: dict, what: str, lineno: int) -> int:
    """The id ``ids`` gives the name ``tok`` of a ``what`` on line
    ``lineno``."""
    i = ids.get(tok)
    if i is None:
        raise ProtocolSemanticError(f"line {lineno}: unknown {what} {tok!r}")
    return i


def _count(header: dict, key: str, what: str, least: int) -> int:
    """The integer value of header ``key``, at least ``least``."""
    value, lineno = header[key]
    try:
        n = int(value)
    except ValueError:
        raise ProtocolSyntaxError(f"{key} must be an integer", lineno)
    if n < least:
        raise ProtocolSemanticError(f"{what} must be >= {least}")
    return n


def _parse_action(text: str, flavor: str, reg_count: int, visibility: int,
                  symbol_ids: dict, lineno: int) -> Action:
    """The action written as ``text``, which has no outer whitespace."""
    if text == INC:
        if flavor != ROUNDBASED:
            raise ProtocolSyntaxError("inc is round-based only", lineno)
        return Action(INC)
    kind, _, body = text.partition("(")
    if kind not in (READ, WRITE) or body[-1:] != ")":
        raise ProtocolSyntaxError(f"cannot parse action {text!r}", lineno)
    args = [a.strip() for a in body[:-1].split(",")]

    if kind == WRITE:
        if len(args) != 2:
            raise ProtocolSyntaxError("write takes (register, symbol)", lineno)
        sym = _name_index(args[1], symbol_ids, "symbol", lineno)
        if sym == D0:
            raise ProtocolSemanticError(
                f"line {lineno}: write of initial symbol {args[1]!r}")
        return Action(WRITE, _register_index(args[0], reg_count, lineno), sym)

    if flavor == ROUNDLESS:
        if len(args) != 2:
            raise ProtocolSyntaxError(
                "roundless read takes (register, symbol)", lineno)
        return Action(READ, _register_index(args[0], reg_count, lineno),
                      _name_index(args[1], symbol_ids, "symbol", lineno))

    if len(args) != 3:
        raise ProtocolSyntaxError(
            "round-based read takes (-depth, register, symbol)", lineno)
    try:
        signed = int(args[0])
        if signed > 0:
            raise ValueError
        depth = -signed
    except ValueError:
        raise ProtocolSyntaxError(
            f"read depth must be 0 or negative, got {args[0]!r}", lineno)
    if depth > visibility:
        raise ProtocolSemanticError(
            f"line {lineno}: read depth {depth} out of range 0..{visibility}")
    return Action(READ, _register_index(args[1], reg_count, lineno),
                  _name_index(args[2], symbol_ids, "symbol", lineno), depth)


def parse_protocol(text: str) -> Protocol:
    """Parse the line-oriented protocol format (see package README).

    Each distinct action text is parsed once per call; a bad one raises at
    its first line.
    """
    lines = text.splitlines()
    header: dict[str, tuple[str, int]] = {}
    body_start = len(lines)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ProtocolSyntaxError("expected 'key: value'", lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "transitions":
            if value.strip():
                raise ProtocolSyntaxError(
                    "transitions header takes no value", lineno)
            body_start = lineno
            break
        if key not in _HEADER_KEYS:
            raise ProtocolSyntaxError(f"unknown key {key!r}", lineno)
        if key in header:
            raise ProtocolSyntaxError(f"duplicate key {key!r}", lineno)
        header[key] = (value.strip(), lineno)

    for key in ("flavor", "states", "initial", "registers", "alphabet"):
        if key not in header:
            raise ProtocolSyntaxError(f"missing key {key!r}", 0)

    flavor = header["flavor"][0]
    if flavor not in (ROUNDLESS, ROUNDBASED):
        raise ProtocolSyntaxError(f"flavor must be roundless or roundbased, "
                                  f"got {flavor!r}", header["flavor"][1])
    if flavor == ROUNDBASED and "visibility" not in header:
        raise ProtocolSyntaxError("round-based protocol needs visibility", 0)
    if flavor == ROUNDLESS and "visibility" in header:
        raise ProtocolSyntaxError("roundless protocol must not set visibility",
                                  header["visibility"][1])

    state_names = tuple(header["states"][0].split())
    if not state_names:
        raise ProtocolSyntaxError("no states declared", header["states"][1])
    if len(set(state_names)) != len(state_names):
        raise ProtocolSemanticError("duplicate state name in declaration")
    state_ids = {n: i for i, n in enumerate(state_names)}

    symbol_names = tuple(header["alphabet"][0].split())
    if not symbol_names:
        raise ProtocolSyntaxError("empty alphabet", header["alphabet"][1])
    if len(set(symbol_names)) != len(symbol_names):
        raise ProtocolSemanticError("duplicate symbol name in declaration")
    symbol_ids = {n: i for i, n in enumerate(symbol_names)}

    initial = []
    for tok in header["initial"][0].split():
        initial.append(_name_index(tok, state_ids, "initial state",
                                   header["initial"][1]))

    reg_count = _count(header, "registers", "register count", 1)
    visibility = None
    if flavor == ROUNDBASED:
        visibility = _count(header, "visibility", "visibility", 0)

    actions: dict[str, Action] = {}
    transitions = []
    for lineno, raw in enumerate(lines[body_start:], start=body_start + 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split(None, 1)
        if len(toks) != 2 or " " not in toks[1]:
            raise ProtocolSyntaxError("expected 'source action dest'", lineno)
        act_text, _, dst_tok = toks[1].rpartition(" ")
        act_text, dst_tok = act_text.strip(), dst_tok.strip()
        src = _name_index(toks[0], state_ids, "source state", lineno)
        dst = _name_index(dst_tok, state_ids, "destination state", lineno)
        action = actions.get(act_text)
        if action is None:
            action = actions[act_text] = _parse_action(
                act_text, flavor, reg_count, visibility or 0, symbol_ids,
                lineno)
        transitions.append(Transition(src, action, dst))

    return Protocol(flavor=flavor, state_names=state_names,
                    initial_states=frozenset(initial),
                    register_count=reg_count, symbol_names=symbol_names,
                    transitions=tuple(transitions), visibility=visibility)


def format_action(p: Protocol, a: Action) -> str:
    if a.kind == INC:
        return "inc"
    sym = p.symbol_names[a.symbol]
    if a.kind == WRITE:
        return f"write({a.reg + 1}, {sym})"
    if p.flavor == ROUNDBASED:
        return f"read({-a.depth}, {a.reg + 1}, {sym})"
    return f"read({a.reg + 1}, {sym})"


def serialize_protocol(p: Protocol) -> str:
    """Canonical, bit-stable rendering (declaration order throughout)."""
    lines = [f"flavor: {p.flavor}",
             f"states: {' '.join(p.state_names)}",
             "initial: " + " ".join(n for i, n in enumerate(p.state_names)
                                    if i in p.initial_states),
             f"registers: {p.register_count}",
             f"alphabet: {' '.join(p.symbol_names)}"]
    if p.flavor == ROUNDBASED:
        lines.append(f"visibility: {p.visibility}")
    lines.append("transitions:")
    for t in p.transitions:
        lines.append(f"  {p.state_names[t.source]} {format_action(p, t.action)}"
                     f" {p.state_names[t.dest]}")
    return "\n".join(lines) + "\n"
