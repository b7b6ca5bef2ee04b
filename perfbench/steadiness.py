"""Check that the benchmark holds still on one commit.

    python3 perfbench/steadiness.py --workload telemetry

Runs two sets of ten runs of ``run.py`` on the same checkout, each run as
long as BENCHMARK.json's ``run_seconds``: set A on seeds 1..10 and set B on
seeds 1001..1010, alternating which set goes first in each pair.  For every
end-to-end metric it prints each set's median and quartiles, the quartile
spread as a share of the median, the gap between the two medians in the
metric's worse direction, and the largest over the smallest value of all
twenty runs, against the bound in BENCHMARK.json.  A metric is steady when
each spread is below a third of its bound, the gap is within the bound and
no run is more than a tenth above another; the share of failed operations
must be the same in both sets.  Exits 1 when one of these does not hold.
Raw wall-clock medians are printed below for comparison, and every run's
result is written to results/steadiness-WORKLOAD.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from refclock import spread
from run import RAW_PREFIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
RUNS = 10
# Largest over smallest value of a metric across all runs of both sets.
MAX_OVER_MIN = 1.1


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run's result, with its raw wall-clock medians under "raw"."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"run failed with exit code {out.returncode}: {' '.join(cmd)}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["raw"] = next(json.loads(line[len(RAW_PREFIX):]) for line in lines if line.startswith(RAW_PREFIX))
    result["seed"] = seed
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)

    sets = {"A": [], "B": []}
    for i in range(RUNS):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for name in order:
            seed = i + 1 if name == "A" else 1001 + i
            sets[name].append(run_once(args.workload, seed, spec["run_seconds"]))
            print(f"run {i + 1}/{RUNS} set {name} seed {seed} done", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"steadiness-{args.workload}.json").write_text(json.dumps(sets, indent=1))

    ok = True
    shares = {k: sum(r["failed"] for r in v) / sum(r["attempted"] for r in v) for k, v in sets.items()}
    print(f"failed share: A {shares['A']:.6f}, B {shares['B']:.6f}")
    ok &= shares["A"] == shares["B"]
    print(f"{'metric':<16}{'A median':>12}{'A q1':>12}{'A q3':>12}{'A spread':>10}"
          f"{'B median':>12}{'B spread':>10}{'gap':>9}{'bound':>7}{'max/min':>9}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = [r["metrics"][name]["value"] for r in sets["A"]]
        b = [r["metrics"][name]["value"] for r in sets["B"]]
        ma, q1a, q3a, sa = spread(a)
        mb, _, _, sb = spread(b)
        gap = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
        worst = max(a + b) / min(a + b)
        steady = max(sa, sb) < bound / 3 and worst <= MAX_OVER_MIN
        verdict = "ok" if steady and gap <= bound else "NOT STEADY"
        ok &= verdict == "ok"
        print(f"{name:<16}{ma:>12.5g}{q1a:>12.5g}{q3a:>12.5g}{sa:>10.4f}"
              f"{mb:>12.5g}{sb:>10.4f}{gap:>+9.4f}{bound:>7.3f}{worst:>9.3f}  {verdict}")
    for key in ("seal_ms", "open_ms", "ref_ms"):
        a = [r["raw"][key] for r in sets["A"]]
        b = [r["raw"][key] for r in sets["B"]]
        print(f"raw {key:<12}{spread(a)[0]:>12.5g}{spread(a)[1]:>12.5g}{spread(a)[2]:>12.5g}{spread(a)[3]:>10.4f}"
              f"{spread(b)[0]:>12.5g}{spread(b)[3]:>10.4f}{max(a + b) / min(a + b):>25.3f}  (not a metric)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
