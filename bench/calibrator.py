"""Host-speed probe, run in its own process beside a benchmark worker.

The worker starts this script once and, between its queries, writes a line to
its standard input; the probe answers with the seconds one fixed
breadth-first search over packed integers took.  The search resembles the
oracle's inner loop but uses no library code, and it runs in a process whose
heap the library never touches, so neither a change to the library nor the
heap a pass builds up can move it: only the host's speed does.  The worker is
blocked while the probe runs, so the two never compete for a CPU.
"""

from __future__ import annotations

import collections
import gc
import sys
import time


def calibrate() -> float:
    start = time.perf_counter()
    seen = {1: None}
    queue = collections.deque([1])
    while len(seen) < 30_000:
        c = queue.popleft()
        for k in (3, 5, 7):
            succ = ((c * k) ^ (c >> 3)) & 0xFFFFFF
            if succ not in seen:
                seen[succ] = c
                queue.append(succ)
    return time.perf_counter() - start


def main() -> int:
    gc.disable()
    for _ in sys.stdin:
        print(repr(calibrate()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
