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
        try:
            return self.state_names.index(name)
        except ValueError:
            raise ProtocolSemanticError(f"unknown state {name!r}") from None

    def symbol_id(self, name: str) -> int:
        try:
            return self.symbol_names.index(name)
        except ValueError:
            raise ProtocolSemanticError(f"unknown symbol {name!r}") from None


D0 = 0  # the initial symbol always interns to id 0


def is_uninitialized(p: Protocol) -> bool:
    """True iff no transition reads the initial symbol from any round."""
    return not any(t.action.kind == READ and t.action.symbol == D0
                   for t in p.transitions)


# --- textual format ---------------------------------------------------------

# builds a named tuple from the tuple of its fields, as ``_make`` does, but
# without the Python frame of the generated ``__new__``: the protocol and
# constraint parsers build one per transition line and per node
_new = tuple.__new__

_HEADER_KEYS = ("flavor", "states", "initial", "registers", "alphabet",
                "visibility")


def _register_index(tok: str, reg_count: int, lineno: int) -> int:
    """The 0-based index of the 1-based register ``tok``, which may carry
    outer whitespace."""
    try:
        j = int(tok)
    except ValueError:
        raise ProtocolSyntaxError(f"bad register index {tok.strip()!r}",
                                  lineno)
    if not 1 <= j <= reg_count:
        raise ProtocolSemanticError(
            f"line {lineno}: register {j} out of range 1..{reg_count}")
    return j - 1


def _unknown(what: str, tok: str, lineno: int) -> ProtocolSemanticError:
    return ProtocolSemanticError(f"line {lineno}: unknown {what} {tok!r}")


def _name_index(tok: str, ids: dict, what: str, lineno: int) -> int:
    """The id ``ids`` gives the name ``tok`` of a ``what`` on line
    ``lineno``."""
    i = ids.get(tok)
    if i is None:
        raise _unknown(what, tok, lineno)
    return i


def _count(header: dict, key: str, what: str, least: int) -> int:
    """The integer value of header ``key``, at least ``least``."""
    value, lineno = header[key]
    try:
        n = int(value)
    except ValueError:
        raise ProtocolSyntaxError(f"{key} must be an integer", lineno)
    if n < least:
        raise ProtocolSemanticError(
            f"line {lineno}: {what} must be >= {least}")
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
    args = body[:-1].split(",")  # stripped where read
    sym_tok = args[-1].strip()
    sym = symbol_ids.get(sym_tok)  # an unknown one raises in its turn

    if kind == WRITE:
        if len(args) != 2:
            raise ProtocolSyntaxError("write takes (register, symbol)", lineno)
        if sym is None:
            raise _unknown("symbol", sym_tok, lineno)
        if sym == D0:
            raise ProtocolSemanticError(
                f"line {lineno}: write of initial symbol {sym_tok!r}")
        return _new(Action, (WRITE, _register_index(args[0], reg_count, lineno),
                             sym, None))

    depth = None
    if flavor == ROUNDLESS:
        if len(args) != 2:
            raise ProtocolSyntaxError(
                "roundless read takes (register, symbol)", lineno)
    else:
        if len(args) != 3:
            raise ProtocolSyntaxError(
                "round-based read takes (-depth, register, symbol)", lineno)
        depth_tok = args[0].strip()
        try:
            signed = int(depth_tok)
            if signed > 0:
                raise ValueError
            depth = -signed
        except ValueError:
            raise ProtocolSyntaxError(
                f"read depth must be 0 or negative, got {depth_tok!r}", lineno)
        if depth > visibility:
            raise ProtocolSemanticError(f"line {lineno}: read depth {depth} "
                                        f"out of range 0..{visibility}")
    reg = _register_index(args[-2], reg_count, lineno)
    if sym is None:
        raise _unknown("symbol", sym_tok, lineno)
    return _new(Action, (READ, reg, sym, depth))


def parse_protocol(text: str) -> Protocol:
    """Parse the line-oriented protocol format (see package README).

    A transition line is read as its whitespace-separated fields, as
    ``semantics.parse_trace`` reads a step line: the source is the first,
    the destination the last, and the action the ones between.  Each
    distinct action text is parsed once per call; a bad one raises at its
    first line.
    """
    lines = text.splitlines()
    header: dict[str, tuple[str, int]] = {}
    body_start = len(lines)
    for lineno, line in enumerate(lines, start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        key, colon, value = line.partition(":")
        key = key.strip()
        if not colon:
            if key:
                raise ProtocolSyntaxError("expected 'key: value'", lineno)
            continue  # a blank line
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
            raise ProtocolSyntaxError(f"missing key {key!r}")

    flavor = header["flavor"][0]
    if flavor not in (ROUNDLESS, ROUNDBASED):
        raise ProtocolSyntaxError(f"flavor must be roundless or roundbased, "
                                  f"got {flavor!r}", header["flavor"][1])
    if flavor == ROUNDBASED and "visibility" not in header:
        raise ProtocolSyntaxError("round-based protocol needs visibility")
    if flavor == ROUNDLESS and "visibility" in header:
        raise ProtocolSyntaxError("roundless protocol must not set visibility",
                                  header["visibility"][1])

    state_names = tuple(header["states"][0].split())
    if not state_names:
        raise ProtocolSyntaxError("no states declared", header["states"][1])
    state_ids = dict(zip(state_names, range(len(state_names))))
    if len(state_ids) != len(state_names):
        raise ProtocolSemanticError(f"line {header['states'][1]}: "
                                    "duplicate state name in declaration")

    symbol_names = tuple(header["alphabet"][0].split())
    if not symbol_names:
        raise ProtocolSyntaxError("empty alphabet", header["alphabet"][1])
    symbol_ids = dict(zip(symbol_names, range(len(symbol_names))))
    if len(symbol_ids) != len(symbol_names):
        raise ProtocolSemanticError(f"line {header['alphabet'][1]}: "
                                    "duplicate symbol name in declaration")

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
    for lineno, line in enumerate(lines[body_start:], start=body_start + 1):
        if "#" in line:
            line = line.split("#", 1)[0]
        fields = line.split()
        if not fields:
            continue
        if len(fields) < 3:
            raise ProtocolSyntaxError("expected 'source action dest'", lineno)
        # the action is the fields between, rejoined by single spaces
        act_text = " ".join(fields[1:-1])
        src, dst = state_ids.get(fields[0]), state_ids.get(fields[-1])
        if src is None:
            raise _unknown("source state", fields[0], lineno)
        if dst is None:
            raise _unknown("destination state", fields[-1], lineno)
        action = actions.get(act_text)
        if action is None:
            action = actions[act_text] = _parse_action(
                act_text, flavor, reg_count, visibility or 0, symbol_ids,
                lineno)
        transitions.append(_new(Transition, (src, action, dst)))

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
