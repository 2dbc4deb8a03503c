"""Command-line front end.

Verbs: ``check`` (decision procedures), ``oracle`` (brute force), ``replay``
(witness validation), ``gen`` (benchmark generators with ground truth),
``fmt`` (canonical re-serialization), ``examples`` (dump the built-in set).

Machine-readable verdicts go to stdout as one JSON object per run; the
human-readable summary goes to stderr.  Exit codes: 0 positive, 1 negative,
2 unknown, 64 usage error, 65 incompatible algorithm, 70 bad input data.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import constraints as cst
from .errors import NotDNF, NotEnabled, RegverifyError
from .model import (ROUNDBASED, ROUNDLESS, is_uninitialized, parse_protocol,
                    serialize_protocol, validate)
from .oracle import oracle_prp
from .reductions import (TRUTH_TABLE_CAP, Circuit, CnfFormula,
                         builtin_examples, cvp_to_cover, evaluate_circuit,
                         sat_to_cover, sat_to_uninit_target,
                         truth_table_satisfiable)
from .roundbased import DEFAULT_BUDGET, solve_prp_roundbased
from .roundless import (solve_cover_fixed_r, solve_cover_uninitialized,
                        solve_dnfprp_one_register, solve_prp_bounded)
from .semantics import (ABSTRACT, format_pop_elem, format_regs, parse_trace,
                        replay, write_trace)
from .verdict import NEGATIVE, POSITIVE, UNKNOWN, Verdict

EXIT_USAGE = 64
EXIT_INCOMPATIBLE = 65
EXIT_DATA = 70

_EXIT_BY_ANSWER = {POSITIVE: 0, NEGATIVE: 1, UNKNOWN: 2}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_protocol(path: str):
    try:
        p = parse_protocol(Path(path).read_text())
    except OSError as e:
        raise CliError(f"cannot read protocol: {e}", EXIT_DATA)
    except RegverifyError as e:
        raise CliError(f"bad protocol {path}: {e}", EXIT_DATA)
    findings = validate(p)
    if findings:
        raise CliError(f"protocol {path} invalid: "
                       + "; ".join(f.message for f in findings), EXIT_DATA)
    return p


def _load_constraint(path: str, p):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read constraint: {e}", EXIT_DATA)
    try:
        if p.flavor == ROUNDLESS:
            return cst.parse_roundless_constraint(text, p)
        return cst.parse_round_constraint(text, p)
    except RegverifyError as e:
        raise CliError(f"bad constraint {path}: {e}", EXIT_DATA)


def _emit(v: Verdict, p, args) -> int:
    payload = {"schema": 1, "answer": v.answer, "algorithm": v.algorithm,
               "stats": v.stats}
    if getattr(args, "emit_witness", None):
        if v.witness is not None:
            text = write_trace(p, v.witness, ABSTRACT)
            Path(args.emit_witness).write_text(text)
            payload["witness_file"] = args.emit_witness
        elif v.answer == POSITIVE:
            print(f"no witness: {v.algorithm} does not build one",
                  file=sys.stderr)
    print(json.dumps(payload))
    print(f"{v.answer} ({v.algorithm})", file=sys.stderr)
    return _EXIT_BY_ANSWER[v.answer]


def _problem_constraint(args, p):
    """The constraint the requested problem asks about."""
    if args.problem in ("cover", "target"):
        if not args.state:
            raise CliError(f"{args.problem} needs --state", EXIT_USAGE)
        try:
            q = p.state_id(args.state)
        except RegverifyError as e:
            raise CliError(str(e), EXIT_DATA)
        make = (cst.cover_constraint if args.problem == "cover"
                else cst.target_constraint)
        return make(p, q), q
    if not args.constraint:
        raise CliError(f"{args.problem} needs a constraint file", EXIT_USAGE)
    return _load_constraint(args.constraint, p), None


def cmd_check(args) -> int:
    p = _load_protocol(args.protocol)
    roundless_problem = args.problem in ("cover", "target", "dnfprp", "prp")
    if roundless_problem and p.flavor != ROUNDLESS:
        raise CliError(f"{args.problem} needs a roundless protocol",
                       EXIT_INCOMPATIBLE)
    if args.problem == "rbprp" and p.flavor != ROUNDBASED:
        raise CliError("rbprp needs a round-based protocol",
                       EXIT_INCOMPATIBLE)
    phi, state = _problem_constraint(args, p)
    if args.distribute and p.flavor == ROUNDLESS:
        phi = cst.to_dnf(phi)

    algo = args.algo
    if algo == "oracle":
        v = oracle_prp(p, phi, max_round=args.cap_rounds,
                       state_cap=args.cap_states)
    elif args.problem == "rbprp":
        if algo not in (None, "rb-search"):
            raise CliError(f"algorithm {algo!r} does not decide rbprp",
                           EXIT_INCOMPATIBLE)
        v = solve_prp_roundbased(p, phi, budget=args.budget)
    elif algo == "bounded" or algo is None:
        v = solve_prp_bounded(p, phi)
    elif algo == "saturation":
        if args.problem != "cover":
            raise CliError("saturation decides cover only", EXIT_INCOMPATIBLE)
        if not is_uninitialized(p):
            raise CliError("saturation needs an uninitialized protocol",
                           EXIT_INCOMPATIBLE)
        v = solve_cover_uninitialized(p, state)
    elif algo == "fixed-r":
        if args.problem != "cover":
            raise CliError("fixed-r decides cover only", EXIT_INCOMPATIBLE)
        if p.register_count > 6:
            print(f"warning: fixed-r over {p.register_count} registers "
                  f"skips dominated first-write orders, but its worst case "
                  f"is still exponential in the register count",
                  file=sys.stderr)
        v = solve_cover_fixed_r(p, state)
    elif algo == "one-reg":
        if p.register_count != 1:
            raise CliError("one-reg needs a single register",
                           EXIT_INCOMPATIBLE)
        try:
            v = solve_dnfprp_one_register(p, phi)
        except NotDNF:
            raise CliError("one-reg needs a DNF constraint "
                           "(try --distribute)", EXIT_INCOMPATIBLE)
    else:  # rb-search, the one choice left
        raise CliError("rb-search decides rbprp only", EXIT_INCOMPATIBLE)
    return _emit(v, p, args)


def cmd_oracle(args) -> int:
    p = _load_protocol(args.protocol)
    phi, _ = _problem_constraint(args, p)
    v = oracle_prp(p, phi, max_round=args.cap_rounds,
                   state_cap=args.cap_states)
    return _emit(v, p, args)


def cmd_replay(args) -> int:
    p = _load_protocol(args.protocol)
    try:
        text = Path(args.trace).read_text()
        exec_, mode = parse_trace(p, text)
        final = replay(p, exec_, mode)
    except NotEnabled as e:
        print(f"replay failed at step {e.step_index}: {e.reason}",
              file=sys.stderr)
        return 1
    except (OSError, RegverifyError) as e:
        raise CliError(f"bad trace: {e}", EXIT_DATA)
    if mode == ABSTRACT:
        pop = " ".join(format_pop_elem(p, e) for e in sorted(final.pop))
    elif p.flavor == ROUNDLESS:
        pop = " ".join(f"{p.state_names[q]}*{n}" for q, n in final.pop)
    else:
        pop = " ".join(format_pop_elem(p, e)
                       for e, n in final.pop for _ in range(n))
    print(f"final: {pop} | {format_regs(p, final.regs)}")
    return 0


def _write_expected(out: Path, payload: dict) -> None:
    (out / "expected.json").write_text(json.dumps(payload, indent=2) + "\n")


def cmd_gen(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    if args.kind in ("sat-cover", "sat-target"):
        n, m = args.vars, args.clauses
        clauses = tuple(
            tuple(rng.choice((j, -j))
                  for j in rng.choices(range(1, n + 1), k=3))
            for _ in range(m))
        cnf = CnfFormula(n, clauses)
        sat = truth_table_satisfiable(cnf)
        if args.kind == "sat-cover":
            p, q = sat_to_cover(cnf)
            constraint = cst.cover_constraint(p, q)
            problem = "cover"
        else:
            p, q = sat_to_uninit_target(cnf)
            constraint = cst.target_constraint(p, q)
            problem = "target"
        (out / "protocol.prot").write_text(serialize_protocol(p))
        (out / "constraint.pc").write_text(
            cst.format_constraint(p, constraint) + "\n")
        _write_expected(out, {
            "answer": "positive" if sat else "negative",
            "problem": problem, "state": p.state_names[q],
            "method": "truth-table", "seed": args.seed,
            "formula": {"vars": n, "clauses": [list(c) for c in clauses]}})
    else:  # cvp
        if args.circuit:
            try:
                raw = json.loads(Path(args.circuit).read_text())
                circuit = Circuit(
                    tuple((w, bool(b)) for w, b in raw["inputs"]),
                    tuple(tuple(g) for g in raw["gates"]), raw["output"])
            except (OSError, KeyError, TypeError, ValueError) as e:
                raise CliError(f"bad circuit spec: {e}", EXIT_DATA)
        else:
            circuit = _random_circuit(rng, args.gates)
        desired = args.desired == "true"
        try:
            value = evaluate_circuit(circuit)
            p, q = cvp_to_cover(circuit, desired)
        except RegverifyError as e:
            raise CliError(f"bad circuit: {e}", EXIT_DATA)
        (out / "protocol.prot").write_text(serialize_protocol(p))
        (out / "constraint.pc").write_text(
            cst.format_constraint(p, cst.cover_constraint(p, q)) + "\n")
        _write_expected(out, {
            "answer": "positive" if value == desired else "negative",
            "problem": "cover", "state": p.state_names[q],
            "method": "circuit-evaluation", "seed": args.seed,
            "circuit": {"inputs": [list(i) for i in circuit.inputs],
                        "gates": [list(g) for g in circuit.gates],
                        "output": circuit.output,
                        "value": value, "desired": desired}})
    print(f"wrote protocol.prot, constraint.pc, expected.json to {out}",
          file=sys.stderr)
    return 0


def _random_circuit(rng: random.Random, gates: int) -> Circuit:
    inputs = tuple((f"i{n}", rng.random() < 0.5) for n in (1, 2))
    wires = [w for w, _ in inputs]
    out: list = []
    for g in range(gates):
        op = rng.choice(("not", "and", "or"))
        wire = f"w{g + 1}"
        if op == "not":
            out.append((op, rng.choice(wires), wire))
        else:
            out.append((op, rng.choice(wires), rng.choice(wires), wire))
        wires.append(wire)
    return Circuit(inputs, tuple(out), wires[-1])


def cmd_fmt(args) -> int:
    p = _load_protocol(args.protocol)
    sys.stdout.write(serialize_protocol(p))
    return 0


def cmd_examples(args) -> int:
    protocols, constraints = builtin_examples()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, p in protocols.items():
            (out / f"{name}.prot").write_text(serialize_protocol(p))
        for name, nc in constraints.items():
            (out / f"{name}.pc").write_text(nc.text + "\n")
        print(f"wrote {len(protocols)} protocols and {len(constraints)} "
              f"constraints to {out}", file=sys.stderr)
    else:
        for name, p in protocols.items():
            print(f"protocol {name}: |Q|={p.num_states} r={p.register_count} "
                  f"|D|={p.num_symbols} flavor={p.flavor}")
        for name, nc in constraints.items():
            print(f"constraint {name} (on {nc.protocol}): {nc.text}")
    return 0


def _int_in(lo: int, hi: int | None = None):
    """An argparse type for integers from ``lo`` up to ``hi``, if given."""
    def parse(text: str) -> int:
        n = int(text)
        if n < lo or (hi is not None and n > hi):
            span = f"at least {lo}" if hi is None else f"from {lo} to {hi}"
            raise argparse.ArgumentTypeError(f"must be {span}, not {n}")
        return n
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="regverify",
        description="presence reachability for shared-memory register "
                    "protocols")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add_common(sp):
        sp.add_argument("--state", help="state name for cover/target")
        sp.add_argument("--cap-states", type=_int_in(1), default=12,
                        help="oracle state-count cap")
        sp.add_argument("--cap-rounds", type=_int_in(0), default=None,
                        help="oracle round cap (round-based)")
        sp.add_argument("--emit-witness", metavar="FILE",
                        help="write the witness trace here")

    chk = sub.add_parser("check", help="run a decision procedure")
    chk.add_argument("problem",
                     choices=["cover", "target", "dnfprp", "prp", "rbprp"])
    chk.add_argument("protocol")
    chk.add_argument("constraint", nargs="?")
    chk.add_argument("--algo", default=None,
                     choices=["bounded", "saturation", "fixed-r", "one-reg",
                              "oracle", "rb-search"])
    chk.add_argument("--budget", type=_int_in(1), default=None,
                     help="round-based search work budget for the whole "
                          f"query (default {DEFAULT_BUDGET})")
    chk.add_argument("--distribute", action="store_true",
                     help="distribute the constraint into DNF first")
    add_common(chk)
    chk.set_defaults(func=cmd_check)

    orc = sub.add_parser("oracle", help="exhaustive ground-truth decision")
    orc.add_argument("protocol")
    orc.add_argument("constraint", nargs="?")
    orc.add_argument("--problem", default="prp",
                     choices=["cover", "target", "prp"])
    add_common(orc)
    orc.set_defaults(func=cmd_oracle)

    rep = sub.add_parser("replay", help="validate a witness trace")
    rep.add_argument("protocol")
    rep.add_argument("trace")
    rep.set_defaults(func=cmd_replay)

    gen = sub.add_parser("gen", help="generate a benchmark with ground truth")
    gen.add_argument("kind", choices=["sat-cover", "sat-target", "cvp"])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--vars", type=_int_in(1, TRUTH_TABLE_CAP), default=2)
    gen.add_argument("--clauses", type=_int_in(1), default=2)
    gen.add_argument("--gates", type=_int_in(0), default=2)
    gen.add_argument("--desired", choices=["true", "false"], default="true",
                     help="circuit output value the instance asks about")
    gen.add_argument("--circuit", help="circuit description JSON")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    fmt = sub.add_parser("fmt", help="canonical protocol serialization")
    fmt.add_argument("protocol")
    fmt.set_defaults(func=cmd_fmt)

    exa = sub.add_parser("examples", help="dump the built-in example set")
    exa.add_argument("--out")
    exa.set_defaults(func=cmd_examples)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except RegverifyError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
