"""regverify benchmark: presence-reachability queries against the library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (corpora built by ``corpus.py`` from ``regverify.reductions`` and
``tests/generators.py``, sized for runs of about ``--seconds``):

  reduction-truth  3-SAT -> COVER, 3-SAT -> uninitialized TARGET and
                   CVP -> COVER; ground truth from truth tables and circuit
                   evaluation.  The oracle does almost all the work.  The
                   instances are fixed; the seed sets their order.
  roundless-fuzz   criterion 2's roundless questions on random protocols of
                   up to 10 states; ground truth is the oracle.  The
                   roundless solvers do most of the work.
  rb-fuzz          criterion 2's round-based questions; ground truth is the
                   oracle within its round cap.  The only workload that runs
                   the round-based search and the generic oracle BFS.

Every workload asks one fixed set of instances in a run of 30 seconds; the
seed sets their order (``corpus.py``).  The digest of the questions' text is
compared with ``pins.json``: a changed corpus is reported as a changed
workload, whose times cannot be compared with earlier runs, not as a wrong
result.

One client issues the queries back to back (a closed loop, no threads) in a
fresh worker process, so the timed pass is the first pass over the corpus,
as a one-shot ``regverify check`` would see it; the heap is collected before
each query.  With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` the pass runs with spans on and gives the per-layer metrics and
an estimate of the tracing overhead.

Every verdict is checked: positives' witnesses are replayed and their final
configuration evaluated, and definite verdicts are compared with ground
truth.  ``unknown`` verdicts and oracle refusals count as undecided.  Work
counters and verdicts must repeat exactly across runs of the same code, seed
and size, traced or not (records kept under ``.bench_out/runs``).  Any wrong
verdict, crash or mismatch makes the run incorrect and its exit code 1.

Times are scaled to a reference host speed by a probe that runs in a
process of its own and is sampled every quarter second (``worker.Probe``);
the summary prints the mean factor and the raw query time.  Percentiles
(``*_p50_ms``, ``*_p90_ms``) are the mean of the per-query times ranked
within five percentage points of the percentile.

The last line of standard output is the JSON result; the lines before it
print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("reduction-truth", "roundless-fuzz", "rb-fuzz")
SETUP_SAMPLES = 5
DEADLINE_S = 170
DECIDED = ("positive", "negative")
PERCENTILE_BAND = 0.05
END_TO_END_UNITS = {
    "setup_s": "s", "solve_total_s": "s", "solve_p50_ms": "ms",
    "solve_p90_ms": "ms", "oracle_total_s": "s", "oracle_p50_ms": "ms",
    "oracle_p90_ms": "ms", "solve_decided_ratio": "1",
    "oracle_decided_ratio": "1", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "regverify").is_dir() \
            or not (ROOT / "tests" / "generators.py").is_file():
        print("bench: run from a regverify checkout with src/regverify and "
              "tests/generators.py", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("bench: --seconds must be at least 1", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    worker = Worker(args, deadline)
    done = worker.run("traced" if args.trace else "pass")
    records = done["records"]
    wrong = [r for r in records if "wrong" in r]
    errors = [r for r in records if r["status"] == "error"]
    problems = check_repeat(args, records)
    failed = len(problems) + len(wrong) + len(errors)
    for r in wrong + errors:
        problems.append(f"query {r['qid']} ({r['route']}): "
                        f"{r.get('wrong') or r.get('error')}")
    correct = not problems

    if args.trace:
        metrics = done["layers"]
    else:
        setups = [done["setup_s"] * done["setup_factor"]]
        for _ in range(SETUP_SAMPLES - 1):
            sample = worker.run("setup")
            setups.append(sample["setup_s"] * sample["setup_factor"])
        metrics = end_to_end(records, done["peak_rss_mb"],
                             statistics.median(setups))
    raw = sum(r["seconds"] for r in records)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "corpus_sha256": done["digest"],
              "workload_changed": workload_changed(args, done["digest"]),
              "mean_speed_factor":
                  sum(r["seconds"] * r["factor"] for r in records) / raw,
              "raw_query_s": raw, "probe": done["probe"],
              "questions": done["questions"],
              "samples": samples(records), "wrong_verdicts": len(wrong),
              "source_lines": source_lines(), "problems": problems,
              "spans_file": done.get("spans_file"),
              "metrics": metrics, "records": records}
    print_summary(report)
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def workload_changed(args, digest: str):
    """Whether the corpus differs from the pinned one; None when a run of
    this length has no pin."""
    pins = json.loads((BENCH / "pins.json").read_text())
    if args.seconds != pins["seconds"]:
        return None
    return digest != pins["sha256"][args.workload]


class Worker:
    """Starts ``worker.py`` in a fresh interpreter and reads its result."""

    def __init__(self, args, deadline: float):
        self.args = args
        self.deadline = deadline

    def run(self, mode: str) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--mode", mode]
        left = self.deadline - time.monotonic()
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            sys.exit(f"bench: worker ({mode}) did not finish before the "
                     f"{DEADLINE_S} s deadline")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"bench: worker ({mode}) exited with {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def fingerprint(rec: dict) -> list:
    return [rec["route"], rec["status"], rec.get("counters", {}),
            rec.get("steps")]


def check_repeat(args, records: list) -> list[str]:
    """Compare verdicts and counters with an earlier run of the same code."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "regverify").rglob("*.py")) + \
        [ROOT / "tests" / "generators.py"] + sorted(BENCH.glob("*.py")) + \
        sorted(BENCH.glob("*.json"))
    for f in files:
        h.update(f.relative_to(ROOT).as_posix().encode())
        h.update(f.read_bytes())
    key = f"{args.workload}-{args.seed}-{args.seconds}-{h.hexdigest()[:16]}"
    path = OUT / "runs" / f"{key}.json"
    now = [fingerprint(r) for r in records]
    if path.exists():
        before = json.loads(path.read_text())
        diff = [i for i, (x, y) in enumerate(zip(before, now)) if x != y]
        if len(before) != len(now) or diff:
            return [f"determinism: {len(diff)} queries gave other verdicts "
                    f"or counters than an earlier run of this code, first "
                    f"{diff[:5]}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(now))
    os.replace(tmp, path)
    return []


def samples(records: list) -> dict:
    solve = [r for r in records if r["route"] != "oracle"]
    return {"solve": len(solve), "oracle": len(records) - len(solve)}


def end_to_end(records: list, peak_rss_mb: float, setup_s: float) -> dict:
    m = {"setup_s": setup_s}
    for cls, rs in (("solve", [r for r in records if r["route"] != "oracle"]),
                    ("oracle", [r for r in records
                                if r["route"] == "oracle"])):
        secs = sorted(r["seconds"] * r["factor"] for r in rs)
        m[f"{cls}_total_s"] = sum(secs)
        m[f"{cls}_p50_ms"] = percentile(secs, 0.5) * 1000
        m[f"{cls}_p90_ms"] = percentile(secs, 0.9) * 1000
        m[f"{cls}_decided_ratio"] = \
            sum(1 for r in rs if r["status"] in DECIDED) / len(rs)
    m["peak_rss_mb"] = peak_rss_mb
    return {k: {"value": m[k], "unit": END_TO_END_UNITS[k]}
            for k in END_TO_END_UNITS}


def percentile(ordered: list, p: float) -> float:
    """Mean of the values ranked within PERCENTILE_BAND of the p-quantile.

    Near p50 and p90 per-query times climb steeply with rank, so a single
    order statistic moves with the host's noise on one or two queries; the
    mean over the band moves with the noise on all of them.
    """
    last = len(ordered) - 1
    lo = max(0, round((p - PERCENTILE_BAND) * last))
    hi = min(last, round((p + PERCENTILE_BAND) * last))
    band = ordered[lo:hi + 1]
    return sum(band) / len(band)


def source_lines() -> int:
    return sum(len(f.read_text().splitlines())
               for f in (ROOT / "src" / "regverify").rglob("*.py"))


def print_summary(report: dict) -> None:
    n = report["samples"]
    changed = {None: "no pin at this length", True: "CHANGED, times are "
               "not comparable with earlier runs", False: "no"}
    print(f"regverify bench  workload={report['workload']} "
          f"seed={report['seed']} seconds={report['seconds']} "
          f"trace={report['trace']}")
    print(f"  corpus sha256 {report['corpus_sha256'][:16]}  "
          f"questions {report['questions']}  workload changed from "
          f"pins.json: {changed[report['workload_changed']]}")
    print(f"  queries: {n['solve']} solver, {n['oracle']} oracle "
          f"(percentiles are over these samples)")
    print(f"  times are scaled by the host-speed probe: mean factor "
          f"{report['mean_speed_factor']:.4f} over "
          f"{len(report['probe'])} samples; raw query time "
          f"{report['raw_query_s']:.3f} s")
    for name, m in report["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'wrong_verdicts':34s} {report['wrong_verdicts']:>14d} count")
    print(f"  src/regverify source lines: {report['source_lines']} "
          f"(information only)")
    for p in report["problems"]:
        print(f"  PROBLEM: {p}")


if __name__ == "__main__":
    sys.exit(main())
