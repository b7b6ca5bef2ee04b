"""Measure the benchmark's set-up once, in a fresh process.

    python3 perfbench/setup_probe.py WORKLOAD

Set-up is importing claes and the warm-up seal and open, up to where the
first timed operation would start.  The oracle, which only the benchmark's
checks use, is not loaded here.  Prints one JSON line with the set-up
time and the median of reference loops timed before and after it, in ns.
"""

import json
import statistics
import sys
import time

from refclock import time_reference
from run import load_claes, warm_up


def main() -> None:
    name = sys.argv[1]
    refs = [time_reference() for _ in range(3)]
    t0 = time.perf_counter_ns()
    claes = load_claes()
    warm_up(claes, name)
    setup_ns = time.perf_counter_ns() - t0
    refs += [time_reference() for _ in range(3)]
    print(json.dumps({"setup_ns": setup_ns, "ref_ns": statistics.median(refs)}))


if __name__ == "__main__":
    main()
