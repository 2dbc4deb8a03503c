"""Tools behind the benchmark's fixed corpora.

    python3 bench/instances.py measure rb-fuzz 200000 200260 > rb.jsonl
    python3 bench/instances.py pin > bench/pins.json

``measure`` asks every query of each generator seed once, as a pass does, and
prints one row per instance: seed, raw solver and oracle seconds, whether
rb-search ran out of budget, whether the oracle refused.  The seed lists in
``instances.json`` were chosen from such rows; the reported times of a run
are always measured afresh.

``pin`` prints the digest of each workload's corpus in a run of
``corpus.REFERENCE_SECONDS``.  A run of that length reports whether its
corpus still matches the pin, so a change to a generator or a reduction shows
up as a changed workload rather than as a change in speed.
"""

from __future__ import annotations

import json
import sys

import worker  # sets up the import path for corpus and the library
from corpus import (REFERENCE_SECONDS, WORKLOADS, Corpus, build, rb_question,
                    roundless_questions)


def measure(workload: str, lo: int, hi: int) -> None:
    probe = worker.Probe()
    try:
        for seed in range(lo, hi):
            qs = roundless_questions(seed) if workload == "roundless-fuzz" \
                else [rb_question(seed)]
            recs = worker.run_pass(Corpus(workload, qs), worker.NullTracer(),
                                   probe)
            print(json.dumps({
                "seed": seed,
                "solver_s": round(sum(r["seconds"] for r in recs
                                      if r["route"] != "oracle"), 6),
                "oracle_s": round(sum(r["seconds"] for r in recs
                                      if r["route"] == "oracle"), 6),
                "unknown": any(r["status"] == "unknown" for r in recs),
                "refused": any(r["status"] == "refused" for r in recs)}),
                flush=True)
    finally:
        probe.close()


def main(argv: list[str]) -> int:
    if argv[:1] == ["measure"] and len(argv) == 4:
        measure(argv[1], int(argv[2]), int(argv[3]))
        return 0
    if argv == ["pin"]:
        json.dump({"seconds": REFERENCE_SECONDS, "sha256": {
            w: build(w, 1, REFERENCE_SECONDS, worker.NullTracer()).digest()
            for w in WORKLOADS}}, sys.stdout, indent=1)
        print()
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
