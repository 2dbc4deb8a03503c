"""Semantics tests built around the worked examples of the source protocols."""

import random

import pytest

from regverify.errors import (EmptySupport, NotEnabled, NotInitialState,
                              ReplayFailure)
from regverify.model import parse_protocol
from regverify.reductions import builtin_examples
from regverify.semantics import (ABSTRACT, CONCRETE, ConcreteConfig,
                                 Execution, Move,
                                 concrete_step, initial_configuration,
                                 initial_supports, mset_count, multiset,
                                 parse_trace, project, replay, write_trace)

from lemmas import (TargetNotPopulated, abstract_to_concrete,
                    concrete_initial, copycat_extend)
from reference import abstract_successors, roundless_config, roundless_regs

PROTOCOLS, _ = builtin_examples()
FIG1 = PROTOCOLS["fig1"]
FIG1_RED = PROTOCOLS["fig1_red"]
FIG4 = PROTOCOLS["fig4"]


def locs(p, names: str) -> list:
    """The round-0 locations of the named states, as a roundless
    population holds them."""
    return [(p.state_id(n), 0) for n in names.split()]


def find_transition(p, src, action_kind, dest, symbol=None):
    for t in p.transitions:
        if (p.state_names[t.source] == src and p.state_names[t.dest] == dest
                and t.action.kind == action_kind
                and (symbol is None
                     or p.symbol_names[t.action.symbol] == symbol)):
            return t
    raise LookupError(f"no transition {src} -{action_kind}-> {dest}")


def example_22_execution():
    """The five-step witness that (qf + C, a) is reachable."""
    moves = [
        Move(find_transition(FIG1, "q0", "read", "B", "d0")),
        Move(find_transition(FIG1, "B", "read", "C", "d0")),
        Move(find_transition(FIG1, "q0", "write", "A", "c")),
        Move(find_transition(FIG1, "C", "write", "C", "a")),
        Move(find_transition(FIG1, "A", "read", "qf", "a")),
    ]
    start = concrete_initial(FIG1, {FIG1.state_id("q0"): 2})
    return Execution(start, tuple(moves))


def example_26_red_execution():
    """The six-step synchronization witness on the red variant."""
    moves = [
        Move(find_transition(FIG1_RED, "q0", "read", "B", "d0")),
        Move(find_transition(FIG1_RED, "B", "read", "C", "d0")),
        Move(find_transition(FIG1_RED, "q0", "write", "A", "c")),
        Move(find_transition(FIG1_RED, "C", "write", "A", "a")),
        Move(find_transition(FIG1_RED, "A", "read", "qf", "a")),
        Move(find_transition(FIG1_RED, "A", "read", "qf", "a")),
    ]
    start = concrete_initial(FIG1_RED, {FIG1_RED.state_id("q0"): 2})
    return Execution(start, tuple(moves))


def test_example_22_replays_to_qf_plus_c():
    final = replay(FIG1, example_22_execution(), CONCRETE)
    assert final.pop == multiset(locs(FIG1, "qf C"))
    assert final.regs == roundless_regs((FIG1.symbol_id("a"),))


def test_example_26_red_replays_to_two_qf():
    final = replay(FIG1_RED, example_26_red_execution(), CONCRETE)
    assert final.pop == multiset(locs(FIG1_RED, "qf qf"))
    assert final.regs == roundless_regs((FIG1_RED.symbol_id("a"),))


def test_empty_execution_replays_to_start():
    start = concrete_initial(FIG1, {FIG1.state_id("q0"): 1})
    assert replay(FIG1, Execution(start, ()), CONCRETE) == start


def test_concrete_step_examples():
    q0, B = FIG1.state_id("q0"), FIG1.state_id("B")
    c = concrete_initial(FIG1, {q0: 2})
    m = Move(find_transition(FIG1, "q0", "read", "B", "d0"))
    c2 = concrete_step(FIG1, c, m)
    assert mset_count(c2.pop, (q0, 0)) == 1 and mset_count(c2.pop, (B, 0)) == 1
    # reading a symbol the register does not hold is not enabled
    bad = Move(find_transition(FIG1, "A", "read", "qf", "a"))
    with pytest.raises(NotEnabled):
        concrete_step(FIG1, c, bad)


def test_initial_configuration_errors():
    with pytest.raises(EmptySupport):
        initial_configuration(FIG1, set())
    with pytest.raises(NotInitialState):
        initial_configuration(FIG1, {FIG1.state_id("A")})
    c = initial_configuration(FIG1, {FIG1.state_id("q0")})
    assert c == roundless_config({FIG1.state_id("q0")}, (0,))
    c4 = initial_configuration(FIG4, {FIG4.state_id("q0")})
    assert c4.pop == {(FIG4.state_id("q0"), 0)} and c4.regs == frozenset()


@pytest.mark.parametrize("initial, vary, supports", [
    ("a b c", None, "a|b|c|a b|a c|b c|a b c"),
    ("a b c", "a b c d", "a|b|c|a b|a c|b c|a b c"),
    ("a b c", "b c d", "a|a b|a c|a b c"),
    ("a b c", "b", "a c|a b c"),
    ("a b c", "d", "a b c"),
    ("a b c", "", "a b c"),
    ("", None, ""),
    ("", "", ""),
    ("", "a", ""),
])
def test_initial_supports_fix_each_initial_state_outside_vary(
        initial, vary, supports):
    # smaller sets first; with no initial state there is no support, not an
    # empty one; None varies every initial state
    p = parse_protocol(f"flavor: roundless\nstates: a b c d\n"
                       f"initial: {initial}\nregisters: 1\nalphabet: d0\n"
                       "transitions:\n")
    ids = lambda names: frozenset(map(p.state_id, names.split()))
    got = list(initial_supports(
        p, p.initial_states if vary is None else ids(vary)))
    assert got == [ids(s) for s in supports.split("|") if supports]


def test_project():
    q0 = FIG1.state_id("q0")
    c = concrete_initial(FIG1, {q0: 2})
    assert project(c) == roundless_config({q0}, (0,))
    configs = [c]
    for m in example_22_execution().moves:
        configs.append(concrete_step(FIG1, configs[-1], m))
    A, C = FIG1.state_id("A"), FIG1.state_id("C")
    assert project(configs[3]).pop == roundless_config({A, C}).pop


def test_abstract_successors_fig1_initial():
    c = initial_configuration(FIG1, {FIG1.state_id("q0")})
    succs = abstract_successors(FIG1, c)
    q0, A, B = (FIG1.state_id(n) for n in ("q0", "A", "B"))
    pops = {(m.desert, s.pop, s.regs) for m, s in succs}
    cid = FIG1.symbol_id("c")
    assert (False, *roundless_config({q0, B}, (0,))) in pops
    assert (True, *roundless_config({B}, (0,))) in pops
    assert (False, *roundless_config({q0, A}, (cid,))) in pops
    assert (True, *roundless_config({A}, (cid,))) in pops
    assert len(succs) == 4


def test_abstract_successors_qf_on_a():
    qf, A = FIG1.state_id("qf"), FIG1.state_id("A")
    c = roundless_config({qf}, (FIG1.symbol_id("a"),))
    succs = abstract_successors(FIG1, c)
    b = FIG1.symbol_id("b")
    results = {s for _, s in succs}
    assert results == {roundless_config({qf, A}, (b,)),
                       roundless_config({A}, (b,))}


def test_abstract_successors_empty_protocol():
    p = parse_protocol("flavor: roundless\nstates: q0\ninitial: q0\n"
                       "registers: 1\nalphabet: d0\ntransitions:\n")
    c = initial_configuration(p, {0})
    assert abstract_successors(p, c) == []


def test_abstract_successors_roundbased_window():
    c = initial_configuration(FIG4, {FIG4.state_id("q0")})
    succs = abstract_successors(FIG4, c, window=(0, 0))
    # increments at round 0 have effect on round 1, outside the window
    kinds = {m.trans.action.kind for m, _ in succs}
    assert kinds == {"write"}
    succs1 = abstract_successors(FIG4, c, window=(0, 1))
    kinds1 = {m.trans.action.kind for m, _ in succs1}
    assert kinds1 == {"write", "inc"}


def test_copycat_extend_example_22():
    exec_ = example_22_execution()
    ext = copycat_extend(FIG1, exec_, (FIG1.state_id("C"), 0))
    assert ext.start.pop == multiset(locs(FIG1, "q0 q0 q0"))
    final = replay(FIG1, ext, CONCRETE)
    assert final.pop == multiset(locs(FIG1, "qf C C"))
    assert final.regs == roundless_regs((FIG1.symbol_id("a"),))


def test_copycat_extend_length_zero():
    q0 = FIG1.state_id("q0")
    start = concrete_initial(FIG1, {q0: 1})
    ext = copycat_extend(FIG1, Execution(start, ()), (q0, 0))
    assert ext.moves == ()
    assert ext.start.pop == multiset(locs(FIG1, "q0 q0"))


def test_copycat_target_not_populated():
    start = concrete_initial(FIG1, {FIG1.state_id("q0"): 1})
    with pytest.raises(TargetNotPopulated):
        copycat_extend(FIG1, Execution(start, ()), (FIG1.state_id("qf"), 0))


def test_copycat_preserves_final_population_plus_one(seeded_random=None):
    # random executions: the extension adds exactly one process on the target
    rng = random.Random(11)
    for _ in range(30):
        start = concrete_initial(FIG1, {FIG1.state_id("q0"): 2})
        cur, moves = start, []
        for _ in range(rng.randrange(0, 10)):
            enabled = []
            for t in FIG1.transitions:
                m = Move(t)
                try:
                    concrete_step(FIG1, cur, m)
                    enabled.append(m)
                except NotEnabled:
                    pass
            if not enabled:
                break
            m = rng.choice(enabled)
            moves.append(m)
            cur = concrete_step(FIG1, cur, m)
        exec_ = Execution(start, tuple(moves))
        final = replay(FIG1, exec_, CONCRETE)
        target = rng.choice([q for q, _ in final.pop])
        ext = copycat_extend(FIG1, exec_, target)
        extended = replay(FIG1, ext, CONCRETE)
        assert dict(extended.pop) == {
            **dict(final.pop), target: mset_count(final.pop, target) + 1}
        assert extended.regs == final.regs


def test_abstract_to_concrete_example_22_shape():
    q0 = FIG1.state_id("q0")
    qf, C = FIG1.state_id("qf"), FIG1.state_id("C")
    a = FIG1.symbol_id("a")
    moves = [
        Move(find_transition(FIG1, "q0", "read", "B", "d0"), desert=False),
        Move(find_transition(FIG1, "B", "read", "C", "d0"), desert=True),
        Move(find_transition(FIG1, "q0", "write", "A", "c"), desert=True),
        Move(find_transition(FIG1, "C", "write", "C", "a"), desert=False),
        Move(find_transition(FIG1, "A", "read", "qf", "a"), desert=True),
    ]
    aexec = Execution(initial_configuration(FIG1, {q0}), tuple(moves))
    afinal = replay(FIG1, aexec, ABSTRACT)
    assert afinal == roundless_config({qf, C}, (a,))
    cexec = abstract_to_concrete(FIG1, aexec)
    cfinal = replay(FIG1, cexec, CONCRETE)
    assert project(cfinal) == afinal
    assert sum(n for _, n in cexec.start.pop) >= 2


def test_abstract_to_concrete_length_zero():
    q0 = FIG1.state_id("q0")
    aexec = Execution(initial_configuration(FIG1, {q0}), ())
    cexec = abstract_to_concrete(FIG1, aexec)
    assert cexec.start == ConcreteConfig(multiset([(q0, 0)]), frozenset())


def test_simulation_concrete_step_projects_to_abstract_step():
    # every concrete step projects to an abstract step with a desert flag
    from regverify.semantics import abstract_step
    rng = random.Random(3)
    for _ in range(40):
        cur = concrete_initial(FIG1, {FIG1.state_id("q0"): rng.randrange(1, 4)})
        for _ in range(8):
            options = []
            for t in FIG1.transitions:
                try:
                    options.append(
                        (Move(t), concrete_step(FIG1, cur, Move(t))))
                except NotEnabled:
                    pass
            if not options:
                break
            m, nxt = rng.choice(options)
            deserting = mset_count(nxt.pop, (m.trans.source, 0)) == 0
            am = Move(m.trans, desert=deserting)
            assert abstract_step(FIG1, project(cur), am) == project(nxt)
            cur = nxt


def test_trace_roundtrip_roundless():
    exec_ = example_22_execution()
    text = write_trace(FIG1, exec_, CONCRETE)
    parsed, mode = parse_trace(FIG1, text)
    assert mode == CONCRETE
    assert parsed == exec_
    assert replay(FIG1, parsed, CONCRETE) == replay(FIG1, exec_, CONCRETE)


def test_trace_roundtrip_roundbased():
    q0 = FIG4.state_id("q0")
    inc = next(t for t in FIG4.transitions if t.action.kind == "inc")
    wa = find_transition(FIG4, "q0", "write", "A", "a")
    moves = (Move(inc, 0, False), Move(wa, 1, True))
    aexec = Execution(initial_configuration(FIG4, {q0}), moves)
    text = write_trace(FIG4, aexec, ABSTRACT)
    parsed, mode = parse_trace(FIG4, text)
    assert mode == ABSTRACT
    assert parsed == aexec


@pytest.mark.parametrize("p, head, start", [
    (FIG1, "roundless concrete", "q0 q0 | 1=a"),
    (FIG1, "roundless concrete", "q0 A | 1=d0"),
    (FIG1, "roundless concrete", "|"),
    (FIG1, "roundless abstract", "q0 | 1=a"),
    (FIG4, "roundbased abstract", "q0@1 |"),
    (FIG4, "roundbased abstract", "q0@0 | 0.1=a"),
    (FIG4, "roundbased concrete", "q0@0 q0@2 |")],
    ids=["concrete-register", "concrete-not-initial", "concrete-empty",
         "abstract-register", "rb-round", "rb-register", "rb-concrete-round"])
def test_trace_start_must_be_an_initial_configuration(p, head, start):
    with pytest.raises(ReplayFailure, match="^line 2: "):
        parse_trace(p, f"trace: {head}\nstart: {start}\n")


def test_roundbased_read_depth_underflow():
    q0 = FIG4.state_id("q0")
    c = concrete_initial(FIG4, {q0: 1})
    wa = find_transition(FIG4, "q0", "write", "A", "a")
    c = concrete_step(FIG4, c, Move(wa, 0))
    rd = find_transition(FIG4, "A", "read", "B", "d0")  # depth 1 at round 0
    with pytest.raises(NotEnabled, match="depth underflow"):
        concrete_step(FIG4, c, Move(rd, 0))
