"""Command-line front end.

Verbs: ``check`` (COVER, TARGET or PRP, by the ``ROUTES`` entry ``--algo``
names, or by default the one for the protocol file's flavor), ``replay``
(witness validation), ``gen`` (benchmark generators with ground truth),
``fmt`` (canonical re-serialization), ``examples`` (dump the built-in set).

Machine-readable verdicts go to stdout as one JSON object per run; the
human-readable summary goes to stderr.  Exit codes: 0 positive, 1 negative,
2 unknown, 64 usage error (an option or argument the route does not read,
too), 65 an ``Incompatible`` refusal by the route, 70 bad input data or a
file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import constraints as cst
from .errors import Incompatible, NotEnabled, RegverifyError
from .model import ROUNDBASED, ROUNDLESS, parse_protocol, serialize_protocol
from .oracle import DEFAULT_STATE_CAP, oracle_prp
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


def _read(path: str, what: str) -> str:
    """The text of the file; one that does not decode is bad input."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as e:
        raise CliError(f"bad {what} {path}: {e}", EXIT_DATA)


def _load(path: str, what: str, parse):
    text = _read(path, what)
    try:
        return parse(text)
    except RegverifyError as e:
        raise CliError(f"bad {what} {path}: {e}", EXIT_DATA)


def _emit(v: Verdict, p, args) -> int:
    payload = {"schema": 1, "answer": v.answer, "algorithm": v.algorithm,
               "stats": v.stats}
    if args.emit_witness:
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
        if args.constraint:
            raise CliError(f"{args.problem} takes no constraint file",
                           EXIT_USAGE)
        q = p.state_id(args.state)  # an unknown name exits 70 in main
        make = (cst.cover_constraint if args.problem == "cover"
                else cst.target_constraint)
        return make(p, q), q
    if args.state:
        raise CliError("prp takes no --state", EXIT_USAGE)
    if not args.constraint:
        raise CliError(f"{args.problem} needs a constraint file", EXIT_USAGE)
    parse = cst.parse_roundless_constraint if p.flavor == ROUNDLESS \
        else cst.parse_round_constraint
    return _load(args.constraint, "constraint",
                 lambda text: parse(text, p)), None


def _fixed_r(p, q):
    v = solve_cover_fixed_r(p, q)  # so a refused run prints no warning
    if p.register_count > 6:
        print(f"warning: fixed-r over {p.register_count} registers skips "
              "dominated first-write orders, but its worst case is still "
              "exponential in the register count", file=sys.stderr)
    return v


_PROBLEMS = ("cover", "target", "prp")
# each --algo: the problems it decides, the options of _ROUTE_OPTIONS it
# reads with the solver's keyword for each, and the solver, which refuses
# the flavor it does not decide; a route that decides only cover is given
# the state, the others the constraint
ROUTES = {
    "bounded": (_PROBLEMS, {}, solve_prp_bounded),
    "saturation": (("cover",), {}, solve_cover_uninitialized),
    "fixed-r": (("cover",), {}, _fixed_r),
    "one-reg": (_PROBLEMS, {}, solve_dnfprp_one_register),
    "oracle": (_PROBLEMS, {"cap_states": "state_cap",
                           "cap_rounds": "max_round"}, oracle_prp),
    "rb-search": (_PROBLEMS, {"budget": "budget"}, solve_prp_roundbased)}
_DEFAULT_ROUTE = {ROUNDLESS: "bounded", ROUNDBASED: "rb-search"}
# the options only some routes read, each at its default
_ROUTE_OPTIONS = {"budget": None, "cap_states": DEFAULT_STATE_CAP,
                  "cap_rounds": None}


def cmd_check(args) -> int:
    p = _load(args.protocol, "protocol", parse_protocol)
    algo = args.algo or _DEFAULT_ROUTE[p.flavor]
    problems, reads, solver = ROUTES[algo]
    for o, default in _ROUTE_OPTIONS.items():
        # a roundless protocol has no round cap to read
        read = o in reads and (o != "cap_rounds" or p.flavor == ROUNDBASED)
        if getattr(args, o) != default and not read:
            raise CliError(f"{algo} does not read --{o.replace('_', '-')} "
                           f"on a {p.flavor} protocol", EXIT_USAGE)
    phi, state = _problem_constraint(args, p)
    if args.problem not in problems:
        raise Incompatible(f"{algo} decides {' and '.join(problems)} only")
    v = solver(p, state if problems == ("cover",) else phi,
               **{kw: getattr(args, o) for o, kw in reads.items()})
    return _emit(v, p, args)


def cmd_replay(args) -> int:
    p = _load(args.protocol, "protocol", parse_protocol)
    text = _read(args.trace, "trace")
    try:
        exec_, mode = parse_trace(p, text)
        final = replay(p, exec_, mode)
    except NotEnabled as e:
        print(f"replay failed at step {e.step_index}: {e.reason}",
              file=sys.stderr)
        return 1
    except RegverifyError as e:
        raise CliError(f"bad trace: {e}", EXIT_DATA)
    if mode == ABSTRACT:
        pop = " ".join(format_pop_elem(p, e) for e in sorted(final.pop))
    elif p.flavor == ROUNDLESS:
        pop = " ".join(f"{format_pop_elem(p, e)}*{n}" for e, n in final.pop)
    else:
        pop = " ".join(format_pop_elem(p, e)
                       for e, n in final.pop for _ in range(n))
    print(f"final: {pop} | {format_regs(p, final.regs)}")
    return 0


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
        holds = truth_table_satisfiable(cnf)
        if args.kind == "sat-cover":
            p, q = sat_to_cover(cnf)
            constraint = cst.cover_constraint(p, q)
            problem = "cover"
        else:
            p, q = sat_to_uninit_target(cnf)
            constraint = cst.target_constraint(p, q)
            problem = "target"
        method, source = "truth-table", {
            "formula": {"vars": n, "clauses": [list(c) for c in clauses]}}
    else:  # cvp
        if args.circuit:
            try:
                raw = json.loads(Path(args.circuit).read_text())
                circuit = Circuit(
                    tuple((w, b) for w, b in raw["inputs"]),
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
        holds = value == desired
        constraint = cst.cover_constraint(p, q)
        problem = "cover"
        method, source = "circuit-evaluation", {
            "circuit": {"inputs": [list(i) for i in circuit.inputs],
                        "gates": [list(g) for g in circuit.gates],
                        "output": circuit.output,
                        "value": value, "desired": desired}}
    (out / "protocol.prot").write_text(serialize_protocol(p))
    (out / "constraint.pc").write_text(
        cst.format_constraint(p, constraint) + "\n")
    (out / "expected.json").write_text(json.dumps({
        "answer": "positive" if holds else "negative", "problem": problem,
        "state": p.state_names[q], "method": method, "seed": args.seed,
        **source}, indent=2) + "\n")
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
        arity = 1 if op == "not" else 2
        out.append((op, *(rng.choice(wires) for _ in range(arity)), wire))
        wires.append(wire)
    return Circuit(inputs, tuple(out), wires[-1])


def cmd_fmt(args) -> int:
    p = _load(args.protocol, "protocol", parse_protocol)
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

    chk = sub.add_parser("check", help="run a decision procedure")
    chk.add_argument("problem", choices=_PROBLEMS)
    chk.add_argument("protocol")
    chk.add_argument("constraint", nargs="?")
    chk.add_argument("--state", help="state name for cover/target")
    chk.add_argument("--algo", choices=ROUTES)
    chk.add_argument("--budget", type=_int_in(1), default=None,
                     help="round-based search work budget for the whole "
                          f"query (default {DEFAULT_BUDGET})")
    chk.add_argument("--cap-states", type=_int_in(1),
                     default=DEFAULT_STATE_CAP,
                     help="oracle state-count cap "
                          f"(default {DEFAULT_STATE_CAP})")
    chk.add_argument("--cap-rounds", type=_int_in(0), default=None,
                     help="oracle round cap (round-based)")
    chk.add_argument("--emit-witness", metavar="FILE",
                     help="write the witness trace here")
    chk.set_defaults(func=cmd_check)

    rep = sub.add_parser("replay", help="validate a witness trace")
    rep.add_argument("protocol")
    rep.add_argument("trace")
    rep.set_defaults(func=cmd_replay)

    kinds = sub.add_parser("gen", help="generate a benchmark with ground "
                           "truth").add_subparsers(dest="kind", required=True)
    sat, tgt, cvp = map(kinds.add_parser, ("sat-cover", "sat-target", "cvp"))
    for g in (sat, tgt, cvp):
        g.add_argument("--seed", type=int, default=0)
        g.add_argument("--out", required=True)
        g.set_defaults(func=cmd_gen)
    for g in (sat, tgt):
        g.add_argument("--vars", type=_int_in(1, TRUTH_TABLE_CAP), default=2)
        g.add_argument("--clauses", type=_int_in(1), default=2)
    cvp.add_argument("--gates", type=_int_in(0), default=2)
    cvp.add_argument("--desired", choices=["true", "false"], default="true",
                     help="circuit output value the instance asks about")
    cvp.add_argument("--circuit", help="circuit description JSON")

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
        # a refusal by the route is an instance it does not decide
        return EXIT_INCOMPATIBLE if isinstance(e, Incompatible) else EXIT_DATA
    except OSError as e:
        # a file that cannot be read or written; the message names it
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
