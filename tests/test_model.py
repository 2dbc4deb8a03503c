"""Protocol type, parser, serializer and validation tests."""

import random
import re

import pytest

from regverify.errors import (ProtocolSemanticError, ProtocolSyntaxError,
                              RegverifyError)
from regverify.model import (Action, Protocol, READ, Transition, is_uninitialized,
                             parse_protocol, serialize_protocol)
from regverify.reductions import (CnfFormula, builtin_examples,
                                  sat_to_uninit_target)

from generators import random_protocol, random_rb_protocol
from reference import validate

PROTOCOLS, _ = builtin_examples()


def test_fig1_shape():
    p = PROTOCOLS["fig1"]
    assert p.num_states == 5
    assert p.register_count == 1
    assert p.symbol_names == ("d0", "a", "b", "c")
    assert len(p.transitions) == 8
    assert p.initial_states == {p.state_id("q0")}


def test_minimal_protocol():
    p = parse_protocol("flavor: roundless\nstates: q0\ninitial: q0\n"
                       "registers: 1\nalphabet: d0\ntransitions:\n")
    assert p.num_states == 1
    assert p.transitions == ()
    assert validate(p) == []


def test_write_of_initial_symbol_rejected():
    src = ("flavor: roundless\nstates: q0\ninitial: q0\nregisters: 1\n"
           "alphabet: d0\ntransitions:\n  q0 write(1, d0) q0\n")
    with pytest.raises(ProtocolSemanticError, match="write of initial symbol"):
        parse_protocol(src)


def test_syntax_error_carries_line():
    with pytest.raises(ProtocolSyntaxError, match="line 2"):
        parse_protocol("flavor: roundless\nstates q0\n")


def test_unknown_state_in_transition():
    src = ("flavor: roundless\nstates: q0\ninitial: q0\nregisters: 1\n"
           "alphabet: d0 a\ntransitions:\n  q0 write(1, a) nowhere\n")
    with pytest.raises(ProtocolSemanticError, match="nowhere"):
        parse_protocol(src)


def test_roundbased_needs_visibility():
    with pytest.raises(ProtocolSyntaxError, match="visibility"):
        parse_protocol("flavor: roundbased\nstates: q0\ninitial: q0\n"
                       "registers: 1\nalphabet: d0\ntransitions:\n")


@pytest.mark.parametrize("name", ["fig1", "fig1_blue", "fig1_red", "fig4",
                                  "ex22", "ex42"])
def test_roundtrip_builtin(name):
    p = PROTOCOLS[name]
    assert parse_protocol(serialize_protocol(p)) == p
    assert validate(p) == []


def test_serialization_is_bit_stable():
    p = PROTOCOLS["fig4"]
    assert serialize_protocol(p) == serialize_protocol(
        parse_protocol(serialize_protocol(p)))


def test_name_maps_on_both_construction_paths():
    # a parsed protocol and one built from the name tuples alone, as
    # reductions and the generators build them, look names up alike
    parsed = PROTOCOLS["fig1"]
    direct = Protocol(flavor=parsed.flavor, state_names=parsed.state_names,
                      initial_states=parsed.initial_states,
                      register_count=parsed.register_count,
                      symbol_names=parsed.symbol_names,
                      transitions=parsed.transitions)
    for p in (parsed, direct, random_protocol(random.Random(7)),
              random_rb_protocol(random.Random(7))):
        assert [p.state_id(n) for n in p.state_names] == \
            list(range(p.num_states))
        assert [p.symbol_id(n) for n in p.symbol_names] == \
            list(range(p.num_symbols))
        with pytest.raises(ProtocolSemanticError, match="unknown state 'zz'"):
            p.state_id("zz")
        with pytest.raises(ProtocolSemanticError,
                           match="unknown symbol 'zz'"):
            p.symbol_id("zz")
    assert direct == parsed
    assert hash(direct) == hash(parsed)
    assert direct.state_id("qf") == parsed.state_id("qf") == 4


def test_validate_unknown_state_finding():
    p = PROTOCOLS["fig1"]
    broken = Protocol(flavor=p.flavor, state_names=p.state_names,
                      initial_states=p.initial_states,
                      register_count=p.register_count,
                      symbol_names=p.symbol_names,
                      transitions=p.transitions + (
                          Transition(0, Action(READ, reg=0, symbol=0), 99),))
    codes = [f.code for f in validate(broken)]
    assert "UnknownState" in codes


def test_validate_depth_out_of_range():
    p = PROTOCOLS["fig4"]
    broken = Protocol(flavor=p.flavor, state_names=p.state_names,
                      initial_states=p.initial_states,
                      register_count=p.register_count,
                      symbol_names=p.symbol_names, visibility=p.visibility,
                      transitions=p.transitions + (
                          Transition(0, Action(READ, reg=0, symbol=0,
                                               depth=p.visibility + 1), 0),))
    codes = [f.code for f in validate(broken)]
    assert "DepthOutOfRange" in codes


def test_is_uninitialized():
    assert not is_uninitialized(PROTOCOLS["fig1"])  # two read(d0) transitions
    empty = parse_protocol("flavor: roundless\nstates: q0\ninitial: q0\n"
                           "registers: 1\nalphabet: d0\ntransitions:\n")
    assert is_uninitialized(empty)
    cnf = CnfFormula(1, (( 1, 1, 1),))
    p, _ = sat_to_uninit_target(cnf)
    assert is_uninitialized(p)


def test_uninitialized_monotone_under_transition_removal():
    rng = random.Random(7)
    for name in ("fig1", "fig1_red", "fig4"):
        p = PROTOCOLS[name]
        for _ in range(20):
            keep = tuple(t for t in p.transitions if rng.random() < 0.6)
            sub = Protocol(flavor=p.flavor, state_names=p.state_names,
                           initial_states=p.initial_states,
                           register_count=p.register_count,
                           symbol_names=p.symbol_names,
                           visibility=p.visibility, transitions=keep)
            if is_uninitialized(p):
                assert is_uninitialized(sub)


# Headers of two small protocols; their first transition line is line 7 (R)
# and line 8 (B).
_R = ("flavor: roundless\nstates: q0 q1\ninitial: q0\nregisters: 2\n"
      "alphabet: d0 a b\ntransitions:\n")
_B = ("flavor: roundbased\nstates: q0 q1\ninitial: q0\nregisters: 2\n"
      "alphabet: d0 a b\nvisibility: 1\ntransitions:\n")
_SYN, _SEM = ProtocolSyntaxError, ProtocolSemanticError

# (id, text, exception type, message, line).  Every error cites its line in
# the message, when it has one, and a syntax error carries it as an
# attribute, None for one about the whole file.
PARSE_ERRORS = [
    ("no-colon", "flavor: roundless\nstates q0\n",
     _SYN, "expected 'key: value'", 2),
    ("missing-key", _R.replace("registers: 2\n", ""),
     _SYN, "missing key 'registers'", None),
    ("unknown-key", "colour: red\n" + _R, _SYN, "unknown key 'colour'", 1),
    ("duplicate-key", "flavor: roundless\n" + _R,
     _SYN, "duplicate key 'flavor'", 2),
    ("transitions-with-value", _R.replace("transitions:", "transitions: q0"),
     _SYN, "transitions header takes no value", 6),
    ("bad-flavor", _R.replace("roundless", "hybrid"),
     _SYN, "flavor must be roundless or roundbased, got 'hybrid'", 1),
    ("roundbased-without-visibility", _B.replace("visibility: 1\n", ""),
     _SYN, "round-based protocol needs visibility", None),
    ("roundless-with-visibility", "visibility: 1\n" + _R,
     _SYN, "roundless protocol must not set visibility", 1),
    ("no-states", _R.replace("states: q0 q1", "states:"),
     _SYN, "no states declared", 2),
    ("duplicate-state", _R.replace("q0 q1", "q0 q0"),
     _SEM, "duplicate state name in declaration", 2),
    ("empty-alphabet", _R.replace("alphabet: d0 a b", "alphabet:"),
     _SYN, "empty alphabet", 5),
    ("duplicate-symbol", _R.replace("d0 a b", "d0 a a"),
     _SEM, "duplicate symbol name in declaration", 5),
    ("unknown-initial", _R.replace("initial: q0", "initial: q0 q9"),
     _SEM, "unknown initial state 'q9'", 3),
    ("registers-not-integer", _R.replace("registers: 2", "registers: two"),
     _SYN, "registers must be an integer", 4),
    ("registers-zero", _R.replace("registers: 2", "registers: 0"),
     _SEM, "register count must be >= 1", 4),
    ("visibility-not-integer", _B.replace("visibility: 1", "visibility: v"),
     _SYN, "visibility must be an integer", 6),
    ("visibility-negative", _B.replace("visibility: 1", "visibility: -1"),
     _SEM, "visibility must be >= 0", 6),
    ("transition-one-field", _R + "  q0\n",
     _SYN, "expected 'source action dest'", 7),
    ("transition-two-fields", _R + "q0 write(1,a)\n",
     _SYN, "expected 'source action dest'", 7),
    ("header-after-transitions", _R + "flavor: roundless\n",
     _SYN, "expected 'source action dest'", 7),
    ("unknown-source", _R + "q0 write(1, a) q1\nqx write(1, a) q1\n",
     _SEM, "unknown source state 'qx'", 8),
    ("unknown-destination", _R + "q0 write(1, a) qx\n",
     _SEM, "unknown destination state 'qx'", 7),
    ("source-before-action", _R + "qx jump q1\n",
     _SEM, "unknown source state 'qx'", 7),
    ("inc-in-roundless", _R + "q0 inc q1\n",
     _SYN, "inc is round-based only", 7),
    ("unparseable-action", _R + "q0 jump(1, a) q1\n",
     _SYN, "cannot parse action 'jump(1, a)'", 7),
    ("space-before-parenthesis", _R + "q0 write (1, a) q1\n",
     _SYN, "cannot parse action 'write (1, a)'", 7),
    ("bad-action-twice", _R + "q0 write(1, a) q1\nq0 jump q1\n"
     "q1 write(1, a) q0\nq0 jump q1\n",
     _SYN, "cannot parse action 'jump'", 8),
    ("bad-register", _R + "q0 write(x, a) q1\n",
     _SYN, "bad register index 'x'", 7),
    ("register-out-of-range", _R + "q0 read(3, a) q1\n",
     _SEM, "register 3 out of range 1..2", 7),
    ("unknown-symbol", _R + "q0 read(1, z) q1\n",
     _SEM, "unknown symbol 'z'", 7),
    ("write-symbol-before-register", _R + "q0 write(x, z) q1\n",
     _SEM, "unknown symbol 'z'", 7),
    ("write-arity", _R + "q0 write(1) q1\n",
     _SYN, "write takes (register, symbol)", 7),
    ("write-d0", _R + "q0 write(1, d0) q1\n",
     _SEM, "write of initial symbol 'd0'", 7),
    ("roundless-read-arity", _R + "q0 read(0, 1, a) q1\n",
     _SYN, "roundless read takes (register, symbol)", 7),
    ("roundbased-read-arity", _B + "q0 read(1, a) q1\n",
     _SYN, "round-based read takes (-depth, register, symbol)", 8),
    ("positive-depth", _B + "q0 read(1, 1, a) q1\n",
     _SYN, "read depth must be 0 or negative, got '1'", 8),
    ("non-integer-depth", _B + "q0 read(x, 1, a) q1\n",
     _SYN, "read depth must be 0 or negative, got 'x'", 8),
    ("depth-above-visibility", _B + "q0 inc q1\nq1 read(-2, 1, a) q0\n",
     _SEM, "read depth 2 out of range 0..1", 9),
]


@pytest.mark.parametrize("text, exc, message, line",
                         [case[1:] for case in PARSE_ERRORS],
                         ids=[case[0] for case in PARSE_ERRORS])
def test_parse_error_type_message_and_line(text, exc, message, line):
    with pytest.raises(exc) as info:
        parse_protocol(text)
    e = info.value
    assert type(e) is exc
    assert str(e) == (message if line is None else f"line {line}: {message}")
    if exc is ProtocolSyntaxError:
        assert e.line == line



def test_tab_before_the_destination_is_a_field_separator():
    spaced = parse_protocol(_R + "q0 write(1, a) q1\n")
    assert parse_protocol(_R + "q0 write(1, a)\tq1\n") == spaced
    assert parse_protocol(_R + "q0\twrite(1,\ta)\t\tq1\t# a\tcomment\n") \
        == spaced


@pytest.mark.parametrize("make", [random_protocol, random_rb_protocol],
                         ids=["roundless", "roundbased"])
def test_tab_separated_transitions_parse_as_their_spaced_twins(make):
    # the fields of a transition line are separated by whitespace, so a
    # tab reads as the space it stands for
    for seed in range(100):
        p = make(random.Random(seed))
        head, sep, body = serialize_protocol(p).partition("transitions:\n")
        assert parse_protocol(head + sep + body.replace(" ", "\t")) == p


def _noisy(text: str, rng: random.Random) -> str:
    """``text`` with blank lines, trailing comments and extra spaces, in the
    places the format ignores them."""
    out = []
    for line in text.splitlines():
        if rng.random() < 0.3:
            out.append(rng.choice(["", "   ", "# a comment: (not) a line"]))
        line = re.sub(r"([(,])", lambda m: m.group(1) + " " * rng.randrange(3),
                      line)
        line = line.replace(")", " " * rng.randrange(3) + ")")
        line = line.replace(" ", " " * rng.randrange(1, 3))
        if rng.random() < 0.5:
            line += " " * rng.randrange(3) + "# read(9, zz) q9 :"
        out.append(line)
    return "\n".join(out)


@pytest.mark.parametrize("make", [random_protocol, random_rb_protocol],
                         ids=["roundless", "roundbased"])
def test_roundtrip_random(make):
    for seed in range(200):
        rng = random.Random(seed)
        p = make(rng)
        text = serialize_protocol(p)
        assert parse_protocol(text) == p
        noisy = _noisy(text, rng)
        assert noisy != text
        assert parse_protocol(noisy) == p, noisy


# What a mutation may put in place of a token: values of every header and
# action field, some out of range or of the other flavor, the format's
# keywords and its punctuation.
_MUTANT_TOKENS = ("0", "1", "2", "3", "-1", "-2", "d0", "v1", "v2", "s0",
                  "s1", "s4", "inc", "read", "write", "roundless",
                  "roundbased", "initial", "visibility", "transitions", ":",
                  "(", ")", ",", "#")


def _mutant(text: str, rng: random.Random) -> str:
    """``text`` with one to three tokens replaced, dropped, repeated or
    swapped with another."""
    toks = re.findall(r"-?\w+|[^\w\s]|\s+", text)
    for _ in range(rng.randrange(1, 4)):
        solid = [i for i, t in enumerate(toks) if not t.isspace()]
        i, j = rng.choice(solid), rng.choice(solid)
        roll = rng.random()
        if roll < 0.5:
            toks[i] = rng.choice(_MUTANT_TOKENS)
        elif roll < 0.7:
            toks[i] = ""
        elif roll < 0.85:
            toks[i] += " " + toks[i]
        else:
            toks[i], toks[j] = toks[j], toks[i]
    return "".join(toks)


@pytest.mark.parametrize("make", [random_protocol, random_rb_protocol],
                         ids=["roundless", "roundbased"])
def test_every_protocol_the_parser_accepts_keeps_the_invariants(make):
    # the parser is the one check of outside input: a text it accepts,
    # noisy or mutated, gives a protocol with no finding, and one it
    # refuses raises a RegverifyError, never another exception
    accepted = changed = 0
    for seed in range(300):
        rng = random.Random(seed)
        p = make(rng)
        text = serialize_protocol(p)
        for mutant in [_noisy(text, rng)] + [_mutant(text, rng)
                                             for _ in range(50)]:
            try:
                got = parse_protocol(mutant)
            except RegverifyError:
                continue
            assert validate(got) == [], mutant
            accepted += 1
            changed += got != p
    # 765 (686 round-based) accepted, the 300 noisy texts among them, and
    # 268 (211) of those differ from the protocol mutated
    assert changed >= 200, (accepted, changed)
