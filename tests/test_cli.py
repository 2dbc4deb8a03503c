"""Command-line interface tests: exit codes, JSON schema, file round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regverify import oracle
from regverify.cli import build_parser, main
from regverify.constraints import MAX_NESTING
from regverify.model import parse_protocol
from regverify.semantics import parse_trace, write_trace


@pytest.fixture(scope="module")
def exdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("examples")
    assert main(["examples", "--out", str(d)]) == 0
    return d


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_prp_negative_exit_code(exdir, capsys):
    code, out, _ = run(capsys, "check", "prp", str(exdir / "fig1.prot"),
                       str(exdir / "ex26_phi.pc"), "--algo", "bounded")
    assert code == 1
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["answer"] == "negative"


def test_check_cover_positive_exit_code(exdir, capsys):
    code, out, _ = run(capsys, "check", "cover", str(exdir / "fig1.prot"),
                       "--state", "qf", "--algo", "fixed-r")
    assert code == 0
    assert json.loads(out)["answer"] == "positive"


def test_check_incompatible_algorithm(exdir, capsys, tmp_path):
    twin = tmp_path / "twin.prot"
    twin.write_text("flavor: roundless\nstates: q0\ninitial: q0\n"
                    "registers: 2\nalphabet: d0 a\ntransitions:\n")
    c = tmp_path / "c.pc"
    c.write_text("(pop q0)\n")
    code, _, err = run(capsys, "check", "prp", str(twin), str(c),
                       "--algo", "one-reg")
    assert code == 65
    assert "single register" in err


@pytest.mark.parametrize("argv, message", [
    (["check", "cover", "fig1.prot", "--state", "qf", "--algo", "saturation"],
     "saturation needs an uninitialized protocol"),
    # the oracle refuses an instance past its caps
    (["check", "cover", "fig1.prot", "--state", "qf", "--algo", "oracle",
      "--cap-states", "3"], "|Q| = 5 exceeds cap 3"),
    # and so it does on the PRP spelling that took over the oracle verb's
    (["check", "prp", "fig1.prot", "ex26_phi.pc", "--algo", "oracle",
      "--cap-states", "3"], "|Q| = 5 exceeds cap 3"),
    # outside both the route's problem and its flavor: the problem speaks
    (["check", "target", "fig4.prot", "--state", "q0", "--algo", "fixed-r"],
     "fixed-r decides cover only"),
    (["check", "prp", "fig1.prot", "ex26_phi.pc", "--algo", "saturation"],
     "saturation decides cover only")],
    ids=["saturation-initialized", "check-oracle-cap", "oracle-cap",
         "fixed-r-target-roundbased", "saturation-prp"])
def test_solver_precondition_is_incompatible(exdir, capsys, argv, message):
    argv = [str(exdir / a) if "." in a else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 65
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["check", "prp", "fig1.prot", "ex26_phi.pc", "--budget", "1"],
     "bounded does not read --budget on a roundless protocol"),
    (["check", "prp", "fig1.prot", "ex26_phi.pc", "--algo", "oracle",
      "--cap-rounds", "3"],
     "oracle does not read --cap-rounds on a roundless protocol"),
    (["check", "cover", "fig1.prot", "ex26_phi.pc", "--state", "qf",
      "--algo", "fixed-r"], "cover takes no constraint file"),
    (["check", "prp", "fig1.prot", "ex26_phi.pc", "--state", "qf"],
     "prp takes no --state"),
    (["check", "prp", "fig4.prot", "psi3.pc", "--cap-states", "1"],
     "rb-search does not read --cap-states on a roundbased protocol")],
    ids=["budget-bounded", "cap-rounds-roundless", "constraint-with-cover",
         "state-with-prp", "cap-states-rb-search"])
def test_route_refuses_what_it_does_not_read(exdir, capsys, argv, message):
    # each used to run as if the option or argument were not there
    argv = [str(exdir / a) if "." in a else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (64, "", f"error: {message}\n")


def test_one_reg_distributes_example_26(exdir, capsys):
    # example 2.6 is not in DNF; one-reg distributes it into 2 clauses
    code, out, err = run(capsys, "check", "prp", str(exdir / "fig1.prot"),
                         str(exdir / "ex26_phi.pc"), "--algo", "one-reg")
    assert (code, err) == (1, "negative (one-reg)\n")
    payload = json.loads(out)
    assert (payload["answer"], payload["stats"]) == ("negative",
                                                     {"clauses": 2})


def test_distribute_keeps_distinct_clauses(exdir, capsys, tmp_path):
    big = tmp_path / "big.pc"
    big.write_text("(and " + " ".join(
        "(or (pop A) (reg 1 b))" if i % 2 else "(or (pop q0) (reg 1 a))"
        for i in range(13)) + ")\n")
    code, out, err = run(capsys, "check", "prp", str(exdir / "fig1.prot"),
                         str(big), "--algo", "one-reg")
    assert (code, err) == (0, "positive (one-reg)\n")
    assert json.loads(out)["stats"]["clauses"] == 5


def test_only_one_reg_distributes(capsys, tmp_path):
    states = [f"s{i}" for i in range(26)]
    prot = tmp_path / "p.prot"
    prot.write_text(
        f"flavor: roundless\nstates: {' '.join(states)}\n"
        f"initial: {' '.join(states[::2])}\nregisters: 1\n"
        "alphabet: d0 a\ntransitions:\n" + "".join(
            f"  {q} write(1, a) {r}\n" for q, r in zip(states[::2],
                                                      states[1::2])))
    c = tmp_path / "c.pc"  # 2**13 distinct clauses once distributed
    c.write_text("(and " + " ".join(
        f"(or (pop {q}) (pop {r}))" for q, r in zip(states[1::2],
                                                    states[::2])) + ")\n")
    code, out, err = run(capsys, "check", "prp", str(prot), str(c),
                         "--algo", "bounded")
    assert (code, err) == (0, "positive (bounded)\n")
    code, out, err = run(capsys, "check", "prp", str(prot), str(c),
                         "--algo", "one-reg")
    assert (code, out) == (65, "")
    assert err == "error: DNF distribution exceeds the size guard\n"
    # one-reg distributes whatever it is given: there is no flag for it
    code, out, err = run(capsys, "check", "prp", str(prot), str(c),
                         "--algo", "one-reg", "--distribute")
    assert (code, out) == (64, "")
    assert "unrecognized arguments: --distribute" in err


@pytest.mark.parametrize("argv", [
    ["check", "cover", "fig1.prot", "--state", "qf"],
    ["check", "prp", "fig4.prot", "psi3.pc"],
    ["check", "prp", "fig4.prot", "psi3.pc", "--algo", "oracle",
     "--cap-rounds", "2"]],
    ids=["check-bounded", "check-rb-search", "oracle"])
def test_witness_failing_its_check_is_exit_70(exdir, capsys, monkeypatch,
                                              argv):
    monkeypatch.setattr(oracle, "eval_roundless", lambda *a, **k: False)
    monkeypatch.setattr(oracle, "eval_roundbased", lambda *a, **k: False)
    argv = [str(exdir / a) if "." in a else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 70
    assert out == ""
    assert err == ("error: internal error: witness does not satisfy the "
                   "constraint\n")


@pytest.mark.parametrize("prot, constraint, start", [
    ("flavor: roundbased\nstates: a@b qf\ninitial: a@b\n"
     "registers: 1\nalphabet: d0 x\nvisibility: 0\ntransitions:\n"
     "  a@b write(1, x) qf\n", "(exists k (pop qf (+ k 0)))", "a@b@0 |"),
    ("flavor: roundless\nstates: x|y qf\ninitial: x|y\n"
     "registers: 1\nalphabet: d0 x\ntransitions:\n  x|y write(1, x) qf\n",
     "(pop qf)", "x|y | 1=d0")], ids=["at-sign", "bar"])
def test_witness_round_trips_state_names_with_separators(
        capsys, tmp_path, prot, constraint, start):
    (tmp_path / "p.prot").write_text(prot)
    (tmp_path / "c.pc").write_text(constraint + "\n")
    wit = tmp_path / "w.trace"
    code, _, _ = run(capsys, "check", "prp", str(tmp_path / "p.prot"),
                     str(tmp_path / "c.pc"), "--emit-witness", str(wit))
    assert code == 0
    assert f"\nstart: {start}" in wit.read_text()
    code, out, err = run(capsys, "replay", str(tmp_path / "p.prot"),
                         str(wit))
    assert (code, err) == (0, "")
    assert out.startswith(f"final: {start.split(' |')[0]} qf")


@pytest.mark.parametrize("problem, args", [("cover", ["--state", "qf"]),
                                           ("prp", ["ex26_phi.pc"])])
def test_check_rb_search_on_roundless_problem(exdir, capsys, problem, args):
    args = [str(exdir / a) if a.endswith(".pc") else a for a in args]
    code, out, err = run(capsys, "check", problem, str(exdir / "fig1.prot"),
                         *args, "--algo", "rb-search")
    assert code == 65
    assert out == ""
    assert err == "error: rb-search decides round-based protocols only\n"


def test_malformed_constraint_number_is_bad_input(exdir, capsys, tmp_path):
    c = tmp_path / "c.pc"
    c.write_text("(reg x a)\n")
    code, out, err = run(capsys, "check", "prp", str(exdir / "fig1.prot"),
                         str(c), "--algo", "bounded")
    assert code == 70
    assert out == ""
    assert "bad register" in err


@pytest.mark.parametrize("prot, text", [
    ("fig1.prot", "(reg 1 (a))"),
    ("fig4.prot", "(reg 1 0 (a))"),
], ids=["roundless", "round"])
def test_listed_symbol_is_bad_input(exdir, capsys, tmp_path, prot, text):
    c = tmp_path / "c.pc"
    c.write_text(text + "\n")
    code, out, err = run(capsys, "check", "prp", str(exdir / prot), str(c))
    assert (code, out) == (70, "")
    assert err == f"error: bad constraint {c}: bad symbol ['a']\n"



# PRP of a roundless protocol, and of a round-based one
_ONE_STATE = {"prp": ("flavor: roundless\n", "(pop q0)"),
              "rbprp": ("flavor: roundbased\nvisibility: 0\n", "(pop q0 0)")}


@pytest.mark.parametrize("case", sorted(_ONE_STATE))
@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1000])
def test_constraint_past_nesting_cap_is_bad_input(capsys, tmp_path, case,
                                                  depth):
    prot, c = _nested_constraint(tmp_path, case, depth - 1)
    code, out, err = run(capsys, "check", "prp", str(prot), str(c))
    assert code == 70
    assert out == ""
    assert err.startswith("error: bad constraint")
    assert f"deeper than {MAX_NESTING} parentheses" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", sorted(_ONE_STATE))
def test_constraint_at_nesting_cap_is_answered(capsys, tmp_path, case):
    # an odd number of negations around (pop q0): negative
    prot, c = _nested_constraint(tmp_path, case, MAX_NESTING - 1)
    code, out, _ = run(capsys, "check", "prp", str(prot), str(c))
    assert code == 1
    assert json.loads(out)["answer"] == "negative"


def _nested_constraint(tmp_path, case, negations):
    head, atom = _ONE_STATE[case]
    prot = tmp_path / "one.prot"
    prot.write_text(head + "states: q0\ninitial: q0\nregisters: 1\n"
                    "alphabet: d0\ntransitions:\n")
    c = tmp_path / "deep.pc"
    c.write_text("(not " * negations + atom + ")" * negations + "\n")
    return prot, c

def test_false_constraint_is_negative_with_no_search(exdir, capsys,
                                                    tmp_path):
    c = tmp_path / "false.pc"
    c.write_text("false\n")
    code, out, _ = run(capsys, "check", "prp", str(exdir / "fig1.prot"),
                       str(c))
    assert code == 1
    assert json.loads(out) == {"schema": 1, "answer": "negative",
                               "algorithm": "bounded", "stats": {"nodes": 0}}


def test_check_usage_error(capsys):
    code, _, _ = run(capsys, "check", "cover", "/nonexistent.prot")
    assert code == 70


@pytest.mark.parametrize("argv", [
    ["check", "cover", "fig1.prot", "--state", "qf", "--emit-witness", "W"],
    ["check", "cover", "fig1.prot", "--state", "qf", "--algo", "oracle",
     "--emit-witness", "W"],
    ["examples", "--out", "W"],
    ["gen", "sat-cover", "--out", "W"]],
    ids=["check", "oracle", "examples", "gen"])
def test_unwritable_output_is_bad_input(exdir, capsys, tmp_path, argv):
    # W lies under a regular file: a positive's witness, or the files a
    # verb writes, cannot be written, and that is one error line, not a
    # traceback and not the exit status of a negative
    (tmp_path / "afile").write_text("")
    path = str(tmp_path / "afile" / "w")
    argv = [path if a == "W" else str(exdir / a) if "." in a else a
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (70, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert path in err


@pytest.mark.parametrize("argv", [
    ["fmt", "B"], ["check", "prp", "fig1.prot", "B"],
    ["check", "prp", "B", "ex26_phi.pc"], ["replay", "fig1.prot", "B"]],
    ids=["fmt", "check-constraint", "check-protocol", "replay"])
def test_input_that_does_not_decode_is_bad_input(exdir, capsys, tmp_path,
                                                 argv):
    # a byte that is not UTF-8 is bad input named by its file: one error
    # line and exit 70, not a traceback and exit 1, which reads as negative
    path = tmp_path / "bin"
    path.write_bytes(b"\xff")
    argv = [str(path) if a == "B" else str(exdir / a) if "." in a else a
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (70, "")
    assert err.startswith("error: bad ") and err.count("\n") == 1, err
    assert str(path) in err and "decode" in err


def test_missing_state_is_usage_error(exdir, capsys):
    code, _, _ = run(capsys, "check", "cover", str(exdir / "fig1.prot"))
    assert code == 64


@pytest.mark.parametrize("verb", [["check", "cover"], ["check", "target"]])
def test_unknown_state_is_bad_input(exdir, capsys, verb):
    code, out, err = run(capsys, *verb, str(exdir / "fig1.prot"),
                         "--state", "nowhere")
    assert (code, out, err) == (70, "", "error: unknown state 'nowhere'\n")


def test_witness_emission_and_replay(exdir, capsys, tmp_path):
    wit = tmp_path / "w.trace"
    code, out, _ = run(capsys, "check", "cover", str(exdir / "fig1.prot"),
                       "--state", "qf", "--algo", "bounded",
                       "--emit-witness", str(wit))
    assert code == 0
    assert json.loads(out)["witness_file"] == str(wit)
    code, out, _ = run(capsys, "replay", str(exdir / "fig1.prot"), str(wit))
    assert code == 0
    assert "qf" in out


@pytest.mark.parametrize("algo, prot, state", [
    ("saturation", "ex22.prot", "q1"),
    ("fixed-r", "fig1.prot", "qf"),
    ("one-reg", "fig1.prot", "qf")])
def test_positive_without_witness_says_so(exdir, capsys, tmp_path, algo,
                                          prot, state):
    wit = tmp_path / "w.trace"
    code, out, err = run(capsys, "check", "cover", str(exdir / prot),
                         "--state", state, "--algo", algo,
                         "--emit-witness", str(wit))
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] == "positive"
    assert "witness_file" not in payload
    assert not wit.exists()
    assert f"no witness: {algo} does not build one" in err


def test_replay_bad_trace_reports_step(exdir, capsys, tmp_path):
    trace = tmp_path / "bad.trace"
    trace.write_text("trace: roundless concrete\nstart: q0 | 1=d0\nsteps:\n"
                     "  A read(1, a) qf keep\n")
    code, _, err = run(capsys, "replay", str(exdir / "fig1.prot"), str(trace))
    assert code == 1
    assert "step 0" in err


@pytest.mark.parametrize("prot, body", [
    pytest.param("fig1.prot", "start: q0 | x=d0", id="register-not-a-number"),
    pytest.param("fig1.prot", "start: q0 | 5=d0", id="register-above-range"),
    pytest.param("fig1.prot", "start: q0 | 0=a", id="register-zero"),
    pytest.param("fig4.prot", "start: q0@x |", id="rb-start-round"),
    pytest.param("fig4.prot", "start: q0@0 | 0.x=a", id="rb-register"),
    pytest.param("fig4.prot", "start: q0@0 | 0.2=a", id="rb-register-range"),
    pytest.param("fig4.prot", "start: q0@0 | x.1=a", id="rb-register-round"),
    pytest.param("fig4.prot", "start: q0@0 |\nsteps:\n  x q0 inc q0 keep",
                 id="rb-step-round"),
    pytest.param("fig4.prot", "start: q0@-1 |", id="rb-start-round-negative"),
    pytest.param("fig4.prot", "start: q0@0 | -1.1=a",
                 id="rb-register-round-negative"),
    pytest.param("fig4.prot", "start: q0@0 |\nsteps:\n  -1 q0 inc q0 keep",
                 id="rb-step-round-negative"),
    pytest.param("fig1.prot", "start: q0 | 1=d0\nsteps:\n"
                 "  q0 write(1, a) qf keep", id="step-not-a-transition"),
    pytest.param("fig1.prot", "start: qf | 1=a", id="start-not-initial"),
    pytest.param("fig1.prot", "start: | 1=d0", id="start-empty"),
    pytest.param("fig4.prot", "start: qf@5 |", id="rb-start-not-initial"),
    pytest.param("fig1.prot", "start: zz | 1=d0", id="start-unknown-state"),
    pytest.param("fig4.prot", "start: zz@0 |", id="rb-start-unknown-state"),
    pytest.param("fig1.prot", "start: q0 | 1=zz", id="start-unknown-symbol"),
    pytest.param("fig4.prot", "start: q0 |", id="rb-start-without-round"),
    pytest.param("fig1.prot", "start: q0 | 1=d0\nsteps:\n"
                 "  q0 read(1, a) zz keep", id="step-unknown-state")])
def test_replay_malformed_trace_is_bad_input(exdir, capsys, tmp_path, prot,
                                             body):
    flavor = parse_protocol((exdir / prot).read_text()).flavor
    trace = tmp_path / "bad.trace"
    trace.write_text(f"trace: {flavor} abstract\n{body}\n")
    code, out, err = run(capsys, "replay", str(exdir / prot), str(trace))
    assert code == 70
    assert out == ""
    assert err.startswith("error: bad trace: line ")


@pytest.mark.parametrize("text, message", [
    pytest.param("start: q0 | 1=d0\n",
                 "line 1: trace must begin with a 'trace:' line",
                 id="no-trace-line"),
    pytest.param("# a comment\n\nstart: q0 | 1=d0\n",
                 "line 3: trace must begin with a 'trace:' line",
                 id="no-trace-line-after-blanks"),
    pytest.param("", "line 1: trace must begin with a 'trace:' line",
                 id="empty"),
    pytest.param("trace: roundbased abstract\nstart: q0 | 1=d0\n",
                 "line 1: bad trace header 'trace: roundbased abstract'",
                 id="other-flavor"),
    pytest.param("\ntrace: roundless sideways\nstart: q0 | 1=d0\n",
                 "line 2: bad trace header 'trace: roundless sideways'",
                 id="unknown-mode"),
    pytest.param("trace: roundless abstract\nsteps:\n",
                 "line 2: missing 'start:' line", id="no-start-line"),
    pytest.param("trace: roundless abstract\n\n",
                 "line 2: missing 'start:' line", id="header-only"),
    pytest.param("trace: roundless abstract\nstart: q0 | 1=d0\nsteps:\n"
                 "  q0 read(1,a) qf\n",
                 "line 4: malformed step 'q0 read(1,a) qf'",
                 id="step-of-three-tokens"),
    pytest.param("trace: roundless abstract\nstart: q0 | 1=d0\nsteps:\n"
                 "  q0 write(1, c) A maybe\n",
                 "line 4: bad desert flag 'maybe'", id="bad-desert-flag")])
def test_replay_refuses_malformed_trace_shape(exdir, capsys, tmp_path, text,
                                              message):
    trace = tmp_path / "bad.trace"
    trace.write_text(text)
    code, out, err = run(capsys, "replay", str(exdir / "fig1.prot"),
                         str(trace))
    assert (code, out, err) == (70, "", f"error: bad trace: {message}\n")


def test_replay_roundbased_concrete_lists_each_process(exdir, capsys,
                                                      tmp_path):
    trace = tmp_path / "c.trace"
    trace.write_text("trace: roundbased concrete\n"
                     "start: q0@0 q0@0 q0@0 q0@0 |\nsteps:\n"
                     "  0 q0 inc q0 keep\n  0 q0 write(1, a) A keep\n")
    # two processes in q0 at round 0 print twice, not as q0@0*2
    assert run(capsys, "replay", str(exdir / "fig4.prot"), str(trace)) == (
        0, "final: q0@0 q0@0 q0@1 A@0 | 0.1=a\n", "")


def test_replay_empty_trace_prints_start(exdir, capsys, tmp_path):
    trace = tmp_path / "empty.trace"
    trace.write_text("trace: roundless concrete\nstart: q0 q0 | 1=d0\n")
    code, out, _ = run(capsys, "replay", str(exdir / "fig1.prot"), str(trace))
    assert code == 0
    assert "q0*2" in out


# the oracle's round-based queries, once its own verb, are check --algo oracle
def _oracle_fig4(capsys, exdir, problem, *argv):
    return run(capsys, "check", problem, str(exdir / "fig4.prot"), *argv,
               "--algo", "oracle", "--cap-rounds", "2")[:2]


def test_oracle_verb_roundbased(exdir, capsys):
    code, out = _oracle_fig4(capsys, exdir, "prp", str(exdir / "psi2.pc"))
    assert code == 1
    assert json.loads(out)["algorithm"] == "oracle"


def test_oracle_verb_roundbased_cover_and_target(exdir, capsys):
    def oracle(problem, *argv):
        return _oracle_fig4(capsys, exdir, problem, *argv)
    # cover of qf is psi1, (exists k (pop qf (+ k 0)))
    code, out = oracle("cover", "--state", "qf")
    assert (code, out) == oracle("prp", str(exdir / "psi1.pc"))
    assert code == 1
    assert json.loads(out) == {"schema": 1, "answer": "negative",
                               "algorithm": "oracle",
                               "stats": {"members": 60, "max_round": 2}}
    code, out = oracle("target", "--state", "q0")
    assert code == 0
    assert json.loads(out)["stats"] == {"members": 1, "max_round": 2}


def test_roundbased_cover_and_target_take_rb_search(exdir, capsys):
    fig4 = str(exdir / "fig4.prot")
    code, out, _ = run(capsys, "check", "cover", fig4, "--state", "qf")
    assert (code, json.loads(out)["stats"]["route"]) == (1, "footprints")
    code, out, _ = run(capsys, "check", "target", fig4, "--state", "q0")
    assert (code, json.loads(out)["algorithm"]) == (0, "rb-search")
    # the oracle within two rounds decides every one of them the same way
    for problem in ("cover", "target"):
        for state in parse_protocol((exdir / "fig4.prot").read_text()
                                    ).state_names:
            argv = ("check", problem, fig4, "--state", state)
            code = run(capsys, *argv)[0]
            assert code in (0, 1)
            assert run(capsys, *argv, "--algo", "oracle",
                       "--cap-rounds", "2")[0] == code, (problem, state)


@pytest.mark.parametrize("argv", [
    ["oracle", "fig4.prot", "psi2.pc", "--cap-rounds", "2"],
    ["check", "dnfprp", "fig1.prot", "ex26_phi.pc", "--algo", "one-reg"],
    ["check", "rbprp", "fig4.prot", "psi3.pc"]],
    ids=["oracle", "dnfprp", "rbprp"])
def test_removed_spellings_are_usage_errors(exdir, capsys, argv):
    argv = [str(exdir / a) if "." in a else a for a in argv]
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (64, "")


@pytest.mark.parametrize("algo", ["bounded", "fixed-r", "one-reg"])
def test_roundless_algorithm_on_roundbased_protocol_is_incompatible(
        exdir, capsys, algo):
    code, out, err = run(capsys, "check", "cover", str(exdir / "fig4.prot"),
                         "--state", "qf", "--algo", algo)
    assert (code, out) == (65, "")
    assert err == f"error: {algo} decides roundless protocols only\n"


def test_check_algo_oracle_decides(exdir, capsys):
    code, out, _ = run(capsys, "check", "cover", str(exdir / "fig1.prot"),
                       "--state", "qf", "--algo", "oracle")
    assert code == 0
    assert json.loads(out) == {"schema": 1, "answer": "positive",
                               "algorithm": "oracle",
                               "stats": {"members": 9}}


def test_gen_answers_match_the_decision_procedures(capsys, tmp_path):
    # sat-target and a random circuit (no --circuit) decide as promised
    answers = set()
    for seed in ("1", "2", "3"):
        for kind, extra, problem in [
                ("sat-target", ["--clauses", "6"], "target"),
                ("cvp", ["--gates", "4"], "cover")]:
            out_dir = tmp_path / f"{kind}-{seed}"
            assert run(capsys, "gen", kind, "--seed", seed, *extra,
                       "--out", str(out_dir))[0] == 0
            expected = json.loads((out_dir / "expected.json").read_text())
            _, out, _ = run(capsys, "check", problem,
                            str(out_dir / "protocol.prot"), "--state", "qf")
            assert json.loads(out)["answer"] == expected["answer"], \
                (kind, seed)
            answers.add((kind, expected["answer"]))
    assert len(answers) == 4, answers


def test_gen_writes_three_files_with_ground_truth(capsys, tmp_path):
    out_dir = tmp_path / "bench"
    code, _, _ = run(capsys, "gen", "sat-cover", "--vars", "2", "--clauses",
                     "2", "--seed", "1", "--out", str(out_dir))
    assert code == 0
    expected = json.loads((out_dir / "expected.json").read_text())
    assert expected["answer"] in ("positive", "negative")
    p = parse_protocol((out_dir / "protocol.prot").read_text())
    assert p.register_count == 4
    # the generated instance must decide as promised
    code, out, _ = run(capsys, "check", "cover", str(out_dir / "protocol.prot"),
                       "--state", expected["state"], "--algo", "fixed-r")
    assert json.loads(out)["answer"] == expected["answer"]


def test_fixed_r_warns_above_six_registers(capsys, tmp_path):
    code, _, _ = run(capsys, "gen", "sat-cover", "--vars", "4", "--clauses",
                     "32", "--seed", "2", "--out", str(tmp_path))
    assert code == 0
    expected = json.loads((tmp_path / "expected.json").read_text())
    assert expected["answer"] == "negative"  # so every order is settled
    p = parse_protocol((tmp_path / "protocol.prot").read_text())
    assert p.register_count == 8
    code, out, err = run(capsys, "check", "cover",
                         str(tmp_path / "protocol.prot"), "--state",
                         expected["state"], "--algo", "fixed-r")
    assert "fixed-r over 8 registers" in err
    assert "still exponential" in err
    assert json.loads(out)["answer"] == "negative"
    assert code == 1


def test_gen_cvp_cyclic_circuit_errors(capsys, tmp_path):
    spec = tmp_path / "c.json"
    spec.write_text(json.dumps({"inputs": [["x", True]],
                                "gates": [["and", "x", "w", "w"]],
                                "output": "w"}))
    code, _, err = run(capsys, "gen", "cvp", "--circuit", str(spec),
                       "--out", str(tmp_path / "o"))
    assert code == 70
    assert "circuit" in err


NOT_A_STRING = "a gate is empty, or a name is not a string"
NOT_A_BOOLEAN = "an input's value is not true or false"


@pytest.mark.parametrize("spec, message", [
    ({"inputs": [["a", True]], "gates": [[]], "output": "a"}, NOT_A_STRING),
    ({"inputs": [["a", True]], "gates": [["not", ["a"], "o"]],
      "output": "o"}, NOT_A_STRING),
    ({"inputs": [["a", True]], "gates": [], "output": ["a"]}, NOT_A_STRING),
    ({"inputs": [[["a"], True]], "gates": [], "output": "a"}, NOT_A_STRING),
    # read as true by bool() once, and as wire "a" valued "b"
    ({"inputs": [["a", "false"]], "gates": [], "output": "a"},
     NOT_A_BOOLEAN),
    ({"inputs": {"ab": True}, "gates": [], "output": "a"}, NOT_A_BOOLEAN),
    # a wire becomes a symbol of the protocol text, which these would break
    *(({"inputs": [[w, True]], "gates": [["not", w, "o"]], "output": "o"},
       f"wire {w!r} holds whitespace, '#' or ','")
      for w in ("a b", "a#b", "a,b")),
    ({"inputs": [["a", True], ["a", False]], "gates": [], "output": "a"},
     "wire 'a' defined twice"),
    ({"inputs": [["a", True], ["b", True]], "gates": [["not", "a", "b", "o"]],
      "output": "o"}, "not-gate takes one input: ('not', 'a', 'b', 'o')"),
    ({"inputs": [["a", True]], "gates": [["and", "a", "o"]], "output": "o"},
     "and-gate takes two inputs: ('and', 'a', 'o')"),
    ({"inputs": [["a", True], ["b", True]], "gates": [["xor", "a", "b", "o"]],
      "output": "o"}, "unknown gate 'xor'"),
    ({"inputs": [["a", True]], "gates": [], "output": "z"},
     "output wire 'z' is undefined"),
], ids=["empty-gate", "listed-wire", "listed-output", "listed-input",
        "string-value", "object-inputs", "wire-space", "wire-hash",
        "wire-comma", "input-twice", "not-two-inputs", "and-one-input",
        "unknown-gate", "undefined-output"])
def test_gen_cvp_malformed_circuit_is_bad_input(capsys, tmp_path, spec,
                                                message):
    # exit 1 would read as a negative: a malformed spec is bad input
    path = tmp_path / "c.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "gen", "cvp", "--circuit", str(path),
                         "--out", str(tmp_path / "o"))
    assert (code, out) == (70, "")
    assert err == f"error: bad circuit: {message}\n"


@pytest.mark.parametrize("name, text", [
    ("missing.json", None), ("text.json", "not json"),
    ("no-gates.json", json.dumps({"inputs": [["a", True]], "output": "a"}))],
    ids=["missing", "not-json", "no-gates"])
def test_gen_cvp_unreadable_circuit_spec_is_bad_input(capsys, tmp_path, name,
                                                     text):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, "gen", "cvp", "--circuit", str(path),
                         "--out", str(tmp_path / "o"))
    assert (code, out) == (70, "")
    assert err.startswith("error: bad circuit spec: ") and \
        err.count("\n") == 1, err


@pytest.mark.parametrize("kind, option", [
    ("sat-cover", ["--gates", "9"]), ("sat-target", ["--desired", "false"]),
    ("cvp", ["--vars", "5"])],
    ids=["sat-cover-gates", "sat-target-desired", "cvp-vars"])
def test_gen_refuses_the_other_kinds_options(capsys, tmp_path, kind, option):
    # each used to be accepted and ignored
    out_dir = tmp_path / "g"
    code, out, err = run(capsys, "gen", kind, *option, "--out", str(out_dir))
    assert (code, out) == (64, "")
    assert f"unrecognized arguments: {' '.join(option)}" in err
    assert not out_dir.exists()


def test_fmt_is_canonical(exdir, capsys):
    code, out, _ = run(capsys, "fmt", str(exdir / "fig4.prot"))
    assert code == 0
    assert out == (exdir / "fig4.prot").read_text()


def test_rbprp_unknown_exit_code(exdir, capsys):
    code, out, _ = run(capsys, "check", "prp", str(exdir / "fig4.prot"),
                       str(exdir / "psi1.pc"), "--budget", "50")
    assert code == 2
    assert json.loads(out)["answer"] == "unknown"


def test_parallel_flag_is_gone(exdir, capsys):
    code, _, _ = run(capsys, "check", "cover", str(exdir / "fig1.prot"),
                     "--state", "qf", "--algo", "fixed-r", "--parallel")
    assert code == 64


def test_step_cap_flag_is_gone(exdir, capsys):
    code, _, _ = run(capsys, "check", "prp", str(exdir / "fig4.prot"),
                     str(exdir / "psi3.pc"), "--step-cap", "3")
    assert code == 64


# each case is a spelling of an oracle query; the ids name the spellings
# they took over: the oracle verb's PRP query, and check --algo oracle
@pytest.mark.parametrize("verb", [
    ["check", "prp", "fig4.prot", "psi3.pc", "--algo", "oracle"],
    ["check", "cover", "fig4.prot", "--state", "qf", "--algo", "oracle"]],
    ids=["oracle", "check-algo-oracle"])
def test_negative_cap_rounds_is_usage_error(exdir, capsys, verb):
    # a round cap of -1 used to explore only the start configuration and
    # answer negative on an instance the default cap decides positive
    verb = [str(exdir / a) if "." in a else a for a in verb]
    code, out, err = run(capsys, *verb, "--cap-rounds", "-1")
    assert code == 64
    assert out == ""
    assert "--cap-rounds" in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("verb", [
    ["check", "target", "--algo", "oracle"],
    ["check", "cover", "--algo", "oracle"]],
    ids=["oracle", "check-algo-oracle"])
def test_cap_states_below_one_is_usage_error(exdir, capsys, verb, value):
    # a state cap below 1 used to run and exit 70, "|Q| = 5 exceeds cap"
    code, out, err = run(capsys, *verb, str(exdir / "fig1.prot"),
                         "--state", "qf", "--cap-states", value)
    assert code == 64
    assert out == ""
    assert "--cap-states" in err


@pytest.mark.parametrize("verb", [["check", "cover"], ["check", "prp"]])
def test_cap_states_defaults_to_the_oracles_cap(capsys, verb):
    code, out, _ = run(capsys, *verb, "--help")
    assert code == 0
    assert f"(default {oracle.DEFAULT_STATE_CAP})" in " ".join(out.split())
    assert build_parser().parse_args([*verb, "p.prot"]).cap_states == \
        oracle.DEFAULT_STATE_CAP


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_below_one_is_usage_error(exdir, capsys, budget):
    code, out, err = run(capsys, "check", "prp", str(exdir / "fig4.prot"),
                         str(exdir / "psi3.pc"), "--budget", budget)
    assert code == 64
    assert out == ""
    assert "--budget" in err


@pytest.mark.parametrize("kind,flag,value", [
    ("sat-cover", "--vars", "0"), ("sat-cover", "--vars", "-1"),
    ("sat-target", "--vars", "21"), ("sat-cover", "--clauses", "0"),
    ("cvp", "--gates", "-1")])
def test_gen_count_out_of_range_is_usage_error(capsys, tmp_path, kind, flag,
                                               value):
    out_dir = tmp_path / "g"
    code, _, err = run(capsys, "gen", kind, flag, value, "--out", str(out_dir))
    assert code == 64
    assert flag in err
    assert not out_dir.exists()


def test_console_entry_point():
    # the subprocess does not see pytest's pythonpath setting
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-m", "regverify.cli", "examples"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert "fig1" in r.stdout


TWO_REGS = """\
flavor: roundless
states: q0 A qf
initial: q0
registers: 2
alphabet: d0 a
transitions:
  q0 write(1, a) A
  A read(1, a) qf
"""


def test_roundless_trace_text_is_pinned(capsys, tmp_path):
    """A roundless trace has no round column and no ``@``, and lists every
    register, d0 included; replay prints the same way."""
    prot = tmp_path / "p.prot"
    prot.write_text(TWO_REGS)
    (tmp_path / "c.pc").write_text("(pop qf)\n")
    wit = tmp_path / "w.trace"
    code, _, _ = run(capsys, "check", "prp", str(prot),
                     str(tmp_path / "c.pc"), "--algo", "bounded",
                     "--emit-witness", str(wit))
    assert code == 0
    assert wit.read_text() == (
        "trace: roundless abstract\nstart: q0 | 1=d0 2=d0\nsteps:\n"
        "  q0 write(1, a) A keep\n  A read(1, a) qf keep\n")
    assert run(capsys, "replay", str(prot), str(wit)) == (
        0, "final: q0 A qf | 1=a 2=d0\n", "")
    concrete = ("trace: roundless concrete\nstart: q0 q0 q0 | 1=d0 2=d0\n"
                "steps:\n  q0 write(1, a) A desert\n")
    p = parse_protocol(TWO_REGS)
    assert write_trace(p, *parse_trace(p, concrete)) == concrete
    (tmp_path / "c.trace").write_text(concrete)
    assert run(capsys, "replay", str(prot), str(tmp_path / "c.trace")) == (
        0, "final: q0*2 A*1 | 1=a 2=d0\n", "")
