"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload closed_loop --seeds 10

Runs ``run.py`` once per seed 1..N (one after another, from the checkout root)
and prints, per metric, the median and the distance between the first and
third quartile as a share of the median, next to the metric's bound in
BENCHMARK.json.  It also checks that every run was correct and that the
share of failed operations is the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--show", action="store_true", help="print every run's value")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload:
        results = [run_once(workload, s, spec["run_seconds"])
                   for s in range(1, args.seeds + 1)]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, correct={correct}, failed shares={sorted(shares)}")
        ok &= correct and len(shares) == 1
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bound / 3 or name == "setup_s" else "  <-- above a third of the bound"
            print(f"  {name:16s} median {med:12.6g}  spread {spread:6.3f}  bound {bound:4.2f}{flag}")
            if args.show:
                print("    " + " ".join(f"{v:.4g}" for v in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
