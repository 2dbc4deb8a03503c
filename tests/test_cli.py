"""Command-line interface tests: exit codes, JSON schema, file round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regverify.cli import main
from regverify.constraints import MAX_NESTING
from regverify.model import parse_protocol
from regverify.reductions import builtin_examples


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
    code, _, err = run(capsys, "check", "dnfprp", str(twin), str(c),
                       "--algo", "one-reg")
    assert code == 65
    assert "single register" in err


@pytest.mark.parametrize("problem, args", [("cover", ["--state", "qf"]),
                                           ("prp", ["ex26_phi.pc"])])
def test_check_rb_search_on_roundless_problem(exdir, capsys, problem, args):
    args = [str(exdir / a) if a.endswith(".pc") else a for a in args]
    code, out, err = run(capsys, "check", problem, str(exdir / "fig1.prot"),
                         *args, "--algo", "rb-search")
    assert code == 65
    assert out == ""
    assert "rb-search decides rbprp only" in err


def test_malformed_constraint_number_is_bad_input(exdir, capsys, tmp_path):
    c = tmp_path / "c.pc"
    c.write_text("(reg x a)\n")
    code, out, err = run(capsys, "check", "prp", str(exdir / "fig1.prot"),
                         str(c), "--algo", "bounded")
    assert code == 70
    assert out == ""
    assert "bad register" in err



_ONE_STATE = {"prp": ("flavor: roundless\n", "(pop q0)"),
              "rbprp": ("flavor: roundbased\nvisibility: 0\n", "(pop q0 0)")}


@pytest.mark.parametrize("problem", sorted(_ONE_STATE))
@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1000])
def test_constraint_past_nesting_cap_is_bad_input(capsys, tmp_path, problem,
                                                  depth):
    prot, c = _nested_constraint(tmp_path, problem, depth - 1)
    code, out, err = run(capsys, "check", problem, str(prot), str(c))
    assert code == 70
    assert out == ""
    assert err.startswith("error: bad constraint")
    assert f"deeper than {MAX_NESTING} parentheses" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("problem", sorted(_ONE_STATE))
def test_constraint_at_nesting_cap_is_answered(capsys, tmp_path, problem):
    # an odd number of negations around (pop q0): negative
    prot, c = _nested_constraint(tmp_path, problem, MAX_NESTING - 1)
    code, out, _ = run(capsys, "check", problem, str(prot), str(c))
    assert code == 1
    assert json.loads(out)["answer"] == "negative"


def _nested_constraint(tmp_path, problem, negations):
    head, atom = _ONE_STATE[problem]
    prot = tmp_path / "one.prot"
    prot.write_text(head + "states: q0\ninitial: q0\nregisters: 1\n"
                    "alphabet: d0\ntransitions:\n")
    c = tmp_path / "deep.pc"
    c.write_text("(not " * negations + atom + ")" * negations + "\n")
    return prot, c

def test_check_usage_error(capsys):
    code, _, _ = run(capsys, "check", "cover", "/nonexistent.prot")
    assert code == 70


def test_missing_state_is_usage_error(exdir, capsys):
    code, _, _ = run(capsys, "check", "cover", str(exdir / "fig1.prot"))
    assert code == 64


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
                 id="rb-step-round-negative")])
def test_replay_malformed_trace_is_bad_input(exdir, capsys, tmp_path, prot,
                                             body):
    flavor = parse_protocol((exdir / prot).read_text()).flavor
    trace = tmp_path / "bad.trace"
    trace.write_text(f"trace: {flavor} abstract\n{body}\n")
    code, out, err = run(capsys, "replay", str(exdir / prot), str(trace))
    assert code == 70
    assert out == ""
    assert err.startswith("error: bad trace: line ")


def test_replay_empty_trace_prints_start(exdir, capsys, tmp_path):
    trace = tmp_path / "empty.trace"
    trace.write_text("trace: roundless concrete\nstart: q0 q0 | 1=d0\n")
    code, out, _ = run(capsys, "replay", str(exdir / "fig1.prot"), str(trace))
    assert code == 0
    assert "q0*2" in out


def test_oracle_verb_roundbased(exdir, capsys):
    code, out, _ = run(capsys, "oracle", str(exdir / "fig4.prot"),
                       str(exdir / "psi2.pc"), "--cap-rounds", "2")
    assert code == 1
    assert json.loads(out)["algorithm"] == "oracle"


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


def test_fmt_is_canonical(exdir, capsys):
    code, out, _ = run(capsys, "fmt", str(exdir / "fig4.prot"))
    assert code == 0
    assert out == (exdir / "fig4.prot").read_text()


def test_rbprp_unknown_exit_code(exdir, capsys):
    code, out, _ = run(capsys, "check", "rbprp", str(exdir / "fig4.prot"),
                       str(exdir / "psi1.pc"), "--budget", "50")
    assert code == 2
    assert json.loads(out)["answer"] == "unknown"


def test_parallel_flag_is_gone(exdir, capsys):
    code, _, _ = run(capsys, "check", "cover", str(exdir / "fig1.prot"),
                     "--state", "qf", "--algo", "fixed-r", "--parallel")
    assert code == 64


def test_step_cap_flag_is_gone(exdir, capsys):
    code, _, _ = run(capsys, "check", "rbprp", str(exdir / "fig4.prot"),
                     str(exdir / "psi3.pc"), "--step-cap", "3")
    assert code == 64


@pytest.mark.parametrize("verb", [
    ["oracle"], ["check", "rbprp", "--algo", "oracle"]],
    ids=["oracle", "check-algo-oracle"])
def test_negative_cap_rounds_is_usage_error(exdir, capsys, verb):
    # a round cap of -1 used to explore only the start configuration and
    # answer negative on an instance the default cap decides positive
    code, out, err = run(capsys, *verb, str(exdir / "fig4.prot"),
                         str(exdir / "psi3.pc"), "--cap-rounds", "-1")
    assert code == 64
    assert out == ""
    assert "--cap-rounds" in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("verb", [
    ["oracle", "--problem", "cover"], ["check", "cover", "--algo", "oracle"]],
    ids=["oracle", "check-algo-oracle"])
def test_cap_states_below_one_is_usage_error(exdir, capsys, verb, value):
    # a state cap below 1 used to run and exit 70, "|Q| = 5 exceeds cap"
    code, out, err = run(capsys, *verb, str(exdir / "fig1.prot"),
                         "--state", "qf", "--cap-states", value)
    assert code == 64
    assert out == ""
    assert "--cap-states" in err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_below_one_is_usage_error(exdir, capsys, budget):
    code, out, err = run(capsys, "check", "rbprp", str(exdir / "fig4.prot"),
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
