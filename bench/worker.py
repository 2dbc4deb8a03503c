"""One cold pass over a workload's corpus, in a fresh process.

``run.py`` starts this script and reads the JSON object on its last line.
Modes: ``setup`` only times set-up (imports, corpus generation, ground
truth); ``pass`` also issues every query with tracing off; ``traced`` issues
them with spans on and writes the spans under ``.bench_out/``.

A query is what ``regverify check`` does without argparse: parse the protocol
text, parse the constraint text, call one decision route.  Its time runs from
the first parse to the returned verdict.  Checking the verdict (replaying the
witness, evaluating its final configuration, comparing with ground truth)
happens outside that time.

On a shared host the speed of this process moves by 15-30% within seconds,
and every time measured then moves with it.  So a host-speed probe (``calibrator.py``) runs in a
process of its own, and an interval timer pauses the pass every
PROBE_EVERY_S, also inside long queries, to take a sample; the pauses are
left out of every time.  Each time is reported beside the factor that scales
it to the host speed the bounds were set at: the mean of
CALIBRATION_REFERENCE_S / sample over the samples taken during it and the
two on each side.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

T0 = time.perf_counter()  # set-up time includes importing the library
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import corpus  # noqa: E402
from regverify.constraints import (eval_roundbased, eval_roundless,  # noqa: E402
                                   max_constant, parse_round_constraint,
                                   parse_roundless_constraint)
from regverify.errors import CapExceeded, RegverifyError  # noqa: E402
from regverify.model import INC, ROUNDLESS, parse_protocol  # noqa: E402
from regverify.oracle import default_round_cap, oracle_prp  # noqa: E402
from regverify.roundbased import solve_prp_roundbased  # noqa: E402
from regverify.roundless import (solve_cover_fixed_r,  # noqa: E402
                                 solve_cover_uninitialized,
                                 solve_dnfprp_one_register, solve_prp_bounded)
from regverify.semantics import ABSTRACT, replay  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

ROUTE_SPANS = {"bounded": "roundless.bounded", "fixed-r": "roundless.fixed_r",
               "saturation": "roundless.saturation",
               "one-reg": "roundless.one_reg",
               "rb-search": "roundbased.search", "oracle": "oracle.prp"}
# spans opened inside a query's timed window
TIMED_SPANS = {"query", "model.parse", "constraints.parse",
               *ROUTE_SPANS.values()}
COUNTERS = ("members", "nodes", "orders_tried", "iterations", "clauses",
            "ticks")
POSITIVE, NEGATIVE, UNKNOWN = "positive", "negative", "unknown"
REFUSED, ERROR = "refused", "error"
PROBE_EVERY_S = 0.25
PROBE_SIDE = 2  # samples on each side of a time that scale it
CALIBRATION_REFERENCE_S = 0.0115


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"),
                    required=True)
    args = ap.parse_args(argv)

    tracer = Tracer() if args.mode == "traced" else NullTracer()
    built = corpus.build(args.workload, args.seed, args.seconds, tracer)
    setup_end = time.perf_counter()
    out = {"setup_s": setup_end - T0, "digest": built.digest(),
           "questions": len(built.questions)}
    probe = Probe()
    try:
        if args.mode == "setup":
            for _ in range(2 * PROBE_SIDE + 1):
                probe.sample()
        else:
            # the traced pass is not paused, so that spans hold no probe time
            records = run_pass(built, tracer, probe,
                               0 if args.mode == "traced" else PROBE_EVERY_S)
            judge(built, records)
            out["records"] = records
            out["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        probe.close()
    out["setup_factor"] = speed(probe.seconds[:2 * PROBE_SIDE + 1])
    out["probe"] = [[t - setup_end, secs]
                    for t, secs in zip(probe.times, probe.seconds)]
    if args.mode == "traced":
        out["layers"] = layer_metrics(tracer, records)
        spans = ROOT / ".bench_out" / \
            f"spans-{args.workload}-{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        tracer.write(spans)
        out["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(out))
    return 0


class Probe:
    """The host-speed probe, ``calibrator.py``, in a process of its own."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "calibrator.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.times: list[float] = []    # when each sample was taken
        self.seconds: list[float] = []  # what it measured
        self.paused = 0.0  # seconds the caller waited for samples
        self._busy = False
        self._ask()  # the first search after start-up is not a sample

    def _ask(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def sample(self, *_signal) -> None:
        if self._busy:  # the timer fired while a sample was being taken
            return
        self._busy = True
        start = time.perf_counter()
        secs = self._ask()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.seconds.append(secs)
        self.paused += end - start
        self._busy = False

    @contextlib.contextmanager
    def every(self, interval: float):
        """Take a sample every ``interval`` seconds (never when 0)."""
        old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def factor(self, start: float, end: float) -> float:
        """Mean host speed, relative to the reference, over the samples
        taken from ``start`` to ``end`` and PROBE_SIDE on each side."""
        lo = max(0, bisect.bisect_left(self.times, start) - PROBE_SIDE)
        hi = bisect.bisect_right(self.times, end) + PROBE_SIDE
        return speed(self.seconds[lo:hi])


def speed(samples: list[float]) -> float:
    """Mean host speed over probe samples, relative to the reference."""
    return statistics.fmean(CALIBRATION_REFERENCE_S / s for s in samples)


def decide(route: str, p, phi, q):
    """Call the decision route the way ``regverify check`` does."""
    if route == "bounded":
        return solve_prp_bounded(p, phi)
    if route == "fixed-r":
        return solve_cover_fixed_r(p, phi.state)
    if route == "saturation":
        return solve_cover_uninitialized(p, phi.state)
    if route == "one-reg":
        return solve_dnfprp_one_register(p, phi)
    if route == "rb-search":
        return solve_prp_roundbased(p, phi, budget=corpus.RB_BUDGET)
    return oracle_prp(p, phi, **dict(q.oracle_caps))


def run_pass(built, tracer, probe: Probe,
             every: float = PROBE_EVERY_S) -> list[dict]:
    """Issue every query once, each from a freshly collected heap, sampling
    the probe ``every`` seconds; each record gets its time's factor."""
    records = []
    # a one-shot `regverify check` starts with an empty heap: freeze what
    # set-up built, and collect before each query so that one query's
    # garbage is not charged to the next, whatever the order
    gc.collect()
    gc.freeze()
    probe.sample()
    with probe.every(every):
        for qid, (qi, route) in enumerate(built.queries()):
            records.append(run_query(built, tracer, probe, qid, qi, route))
    probe.sample()
    tracer.query = None
    for rec in records:
        rec["factor"] = probe.factor(*rec.pop("span"))
    return records


def run_query(built, tracer, probe, qid: int, qi: int, route: str) -> dict:
    """Time one query, less the probe's pauses, then check its witness."""
    gc.collect()
    q = built.questions[qi]
    tracer.query = qid
    rec = {"qid": qid, "question": qi, "route": route}
    verdict = p = phi = None
    start = time.perf_counter()
    paused = probe.paused
    try:
        with tracer.span("query"):
            with tracer.span("model.parse"):
                p = parse_protocol(q.protocol)
            with tracer.span("constraints.parse"):
                phi = (parse_roundless_constraint
                       if p.flavor == ROUNDLESS
                       else parse_round_constraint)(q.constraint, p)
            with tracer.span(ROUTE_SPANS[route]):
                try:
                    verdict = decide(route, p, phi, q)
                except CapExceeded:
                    pass
        rec["status"] = REFUSED if verdict is None else verdict.answer
    except Exception:  # any crash is a failed query, not a lost run
        rec["status"] = ERROR
        rec["error"] = traceback.format_exc(limit=3)
    end = time.perf_counter()
    rec["seconds"] = end - start - (probe.paused - paused)
    rec["span"] = (start, end)
    if verdict is not None:
        rec["counters"] = {k: v for k, v in verdict.stats.items()
                           if k in COUNTERS and isinstance(v, int)}
        if verdict.answer == POSITIVE:
            try:
                check_witness(p, phi, verdict, rec, tracer)
            except Exception:
                rec["wrong"] = "witness check raised: " + \
                    traceback.format_exc(limit=3)
    return rec


def check_witness(p, phi, verdict, rec, tracer) -> None:
    """Replay a positive's witness and evaluate its final configuration."""
    wit = verdict.witness
    if wit is None:
        rec["witness"] = "missing"
        return
    rec["witness"] = "replayed"
    rec["steps"] = len(wit.moves)
    try:
        with tracer.span("semantics.replay"):
            final = replay(p, wit, ABSTRACT)
    except RegverifyError as e:
        rec["wrong"] = f"witness does not replay: {e}"
        return
    with tracer.span("constraints.check"):
        if p.flavor == ROUNDLESS:
            holds = eval_roundless(final, phi)
        else:
            bound = max_constant(phi) + max(
                [r for _, r in final.pop]
                + [r for (r, _), _ in final.regs] + [0]) + 1
            holds = eval_roundbased(p, final, phi, active_bound=bound)
    if not holds:
        rec["wrong"] = "witness's final configuration violates the constraint"
    if p.flavor != ROUNDLESS:
        # the oracle only sees executions within its round cap
        rec["witness_top_round"] = max(
            (m.rnd + (m.trans.action.kind == INC) for m in wit.moves),
            default=0)
        rec["round_cap"] = default_round_cap(p, phi)


def judge(built, records) -> None:
    """Mark every definite verdict that disagrees with ground truth."""
    by_question: dict[int, list] = {}
    for rec in records:
        by_question.setdefault(rec["question"], []).append(rec)
    for qi, recs in by_question.items():
        truth = built.questions[qi].truth
        source = "truth table or circuit evaluation"
        if truth is None:
            truth = next((r["status"] for r in recs if r["route"] == "oracle"
                          and r["status"] in (POSITIVE, NEGATIVE)), None)
            source = "oracle"
        for rec in recs:
            status = rec["status"]
            if truth is None or status not in (POSITIVE, NEGATIVE) \
                    or status == truth or "wrong" in rec:
                continue
            if status == POSITIVE and \
                    rec.get("witness_top_round", 0) > rec.get("round_cap", 0):
                continue  # a witness beyond the cap the oracle searched
            rec["wrong"] = f"{rec['route']} says {status}, {source} " \
                           f"says {truth}"


def layer_metrics(tracer, records) -> dict:
    """Per-layer busy time and work counters from the traced pass."""
    selfs = tracer.self_seconds()
    calls: dict[str, int] = {}
    route_s: dict[int, float] = {}
    route_names = set(ROUTE_SPANS.values())
    for _, _, query, name, start, end in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        if name in route_names:
            route_s[query] = (end - start) / 1e9

    def total(route, key=None, statuses=None):
        rs = [r for r in records if r["route"] == route
              and (statuses is None or r["status"] in statuses)]
        if key is None:
            return sum(route_s[r["qid"]] for r in rs)
        return sum(r.get("counters", {}).get(key, 0) for r in rs)

    oracle_s = total("oracle")
    refused_s = total("oracle", statuses=(REFUSED,))
    members = total("oracle", "members")
    ticks = total("rb-search", "ticks")
    decided_ticks = total("rb-search", "ticks", (POSITIVE, NEGATIVE))
    steps = sum(r.get("steps", 0) for r in records)
    m = {
        "model.parse_s": (selfs.get("model.parse", 0.0), "s"),
        "model.parse_calls": (calls.get("model.parse", 0), "count"),
        "constraints.parse_s": (selfs.get("constraints.parse", 0.0), "s"),
        "constraints.check_s": (selfs.get("constraints.check", 0.0), "s"),
        "constraints.check_calls": (calls.get("constraints.check", 0),
                                    "count"),
        "semantics.replay_s": (selfs.get("semantics.replay", 0.0), "s"),
        "semantics.witness_steps": (steps, "count"),
        "semantics.witness_missing": (
            sum(1 for r in records if r.get("witness") == "missing"),
            "count"),
        "oracle.busy_s": (oracle_s, "s"),
        "oracle.calls": (calls.get("oracle.prp", 0), "count"),
        "oracle.members": (members, "count"),
        "oracle.members_per_s": (
            members / max(oracle_s - refused_s, 1e-9), "1/s"),
        "oracle.pos_busy_s": (total("oracle", statuses=(POSITIVE,)), "s"),
        "oracle.pos_members": (total("oracle", "members", (POSITIVE,)),
                               "count"),
        "oracle.neg_busy_s": (total("oracle", statuses=(NEGATIVE,)), "s"),
        "oracle.neg_members": (total("oracle", "members", (NEGATIVE,)),
                               "count"),
        "oracle.refusals": (sum(1 for r in records if r["route"] == "oracle"
                                and r["status"] == REFUSED), "count"),
        "oracle.refused_s": (refused_s, "s"),
        "roundless.bounded_s": (total("bounded"), "s"),
        "roundless.bounded_nodes": (total("bounded", "nodes"), "count"),
        "roundless.fixed_r_s": (total("fixed-r"), "s"),
        "roundless.fixed_r_orders": (total("fixed-r", "orders_tried"),
                                     "count"),
        "roundless.saturation_s": (total("saturation"), "s"),
        "roundless.saturation_iterations": (
            total("saturation", "iterations"), "count"),
        "roundless.one_reg_s": (total("one-reg"), "s"),
        "roundless.one_reg_clauses": (total("one-reg", "clauses"), "count"),
        "roundbased.search_s": (total("rb-search"), "s"),
        "roundbased.ticks": (ticks, "count"),
        "roundbased.nodes": (total("rb-search", "nodes"), "count"),
        "roundbased.unknowns": (
            sum(1 for r in records if r["route"] == "rb-search"
                and r["status"] == UNKNOWN), "count"),
        "roundbased.decided_tick_ratio": (
            decided_ticks / ticks if ticks else 1.0, "1"),
        "reductions.generate_s": (selfs.get("reductions.generate", 0.0), "s"),
        "reductions.truth_s": (selfs.get("reductions.truth", 0.0), "s"),
        "verdicts.wrong": (sum(1 for r in records if "wrong" in r), "count"),
        "trace.overhead_ratio": (overhead_ratio(tracer, records), "1"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def overhead_ratio(tracer, records) -> float:
    """Traced / untraced query time, estimated within the traced pass.

    The untraced time is the traced pass's raw query time less, for every
    span opened inside a query's timed window, what a span costs more than
    the no-op span of an untraced pass; both costs are timed here.
    """
    def cost(t) -> float:
        best = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(10_000):
                with t.span("overhead"):
                    pass
            best.append((time.perf_counter() - start) / 10_000)
        return statistics.median(best)

    extra = cost(Tracer()) - cost(NullTracer())
    spans = sum(1 for s in tracer.spans
                if s[2] is not None and s[3] in TIMED_SPANS)
    traced = sum(r["seconds"] for r in records)
    return traced / (traced - spans * extra)


if __name__ == "__main__":
    sys.exit(main())
