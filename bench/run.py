"""The rfeas benchmark: one seeded command per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an rfeas checkout; it imports the package from
``src/``.  A run builds the workload's inputs from the seed, times the set-up
in fresh interpreters, then runs whole rounds of the workload's fixed
operations, checking every output against the references in
``reference.py``.  The number of rounds follows from ``--seconds`` and the
workload's nominal round length alone, never from the program's speed, so
two commits are measured over the same rounds.  Each end-to-end time takes
every operation at its fastest over its calls in the run: the machine's own
slow spells then drop out, and what remains is the program's cost.  The psi
latency percentiles are over the population's points, each at its median
call, so that a point slow in most of its calls shows.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` half the rounds run untraced and half
under the tracer, and the metrics are the per-layer ones, per traced round.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from program import load_rfeas

SETUP_LAUNCHES = 3
BENCH_DIR = Path(__file__).resolve().parent


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_seconds(root: Path, workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import rfeas and build the problems."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            cwd=root, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"error: set-up launch failed:\n{proc.stderr}")
    return statistics.median(times)


def round_count(wl, seconds: float) -> int:
    """The rounds that fill ``seconds`` at the workload's nominal round length."""
    return max(wl.MIN_ROUNDS, math.ceil(seconds / wl.ROUND_S))


def run_rounds(wl, run, tmp, count: int, on_round_end=None):
    for _ in range(count):
        run.begin_round()
        wl.round(run, tmp)
        if on_round_end:
            on_round_end()


def end_to_end(run, setup_s) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics: each operation at its fastest over the run, the
    psi percentiles over each population point's median call."""
    ops = run.best()
    t, w, n = defaultdict(float), defaultdict(int), defaultdict(int)
    for kind, dt, work in ops:
        t[kind] += dt
        w[kind] += work
        n[kind] += 1
    lat = np.array(run.latencies())
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(t.values()), "s"),
        "samples_per_s": (w["mc"] / t["mc"], "1/s"),
        "psi_per_s": (n["psi"] / t["psi"], "1/s"),
        "psi_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms"),
        "psi_p99_ms": (float(np.percentile(lat, 99)) * 1e3, "ms"),
        "critical_s": (t["critical"], "s"),
        "vertices_per_s": (w["boundary"] / t["boundary"], "1/s"),
        "cells_per_s": (w["heatmap"] / t["heatmap"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


PER_LAYER_TIMES = {
    "rng.uniforms_s": "rng.uniforms_s",
    "dsl.parse_s": "dsl.parse_problem_s",
    "rfuncs.build_region_s": "rfuncs.build_region_s",
    "rfuncs.psi_open_s": "rfuncs.psi_open_s",
    "expr.eval_arrays_s": "expr.eval_arrays_s",
    "expr.eval_expr_s": "expr.eval_expr_s",
    "expr.substitute_s": "expr.substitute_s",
    "region.mc_volume_s": "region.mc_volume_s",
    "region.mc_bbox_s": "region.mc_bbox_s",
    "region.boundary_2d_s": "region.boundary_2d_s",
    "region.grid_field_s": "region.grid_field_s",
    "region.opt_bbox_s": "region.opt_bbox_s",
    "region.self_s": "region_self_s",
    "solver.psi_closed_s": "solver.psi_closed_s",
    "solver.critical_s": "solver.critical_search_s",
    "solver.projected_s": "solver.ProjectedRegion.values_at_s",
    "solver.self_s": "solver_self_s",
    "outputs.write_s": "outputs_s",
}
PER_LAYER_CALLS = {
    "rfuncs.psi_open_calls": "rfuncs.psi_open_calls",
    "expr.eval_arrays_calls": "expr.eval_arrays_calls",
    "expr.eval_expr_calls": "expr.eval_expr_calls",
    "expr.substitute_calls": "expr.substitute_calls",
    "solver.psi_closed_calls": "solver.psi_closed_calls",
}


def per_layer(tracer, rounds: int, counts: dict[str, int], traced_wall: float, untraced_wall: float):
    times = tracer.layer_times()
    out = {k: (times.get(v, 0.0) / rounds, "s") for k, v in PER_LAYER_TIMES.items()}
    out.update({k: (times.get(v, 0) // rounds, "count") for k, v in PER_LAYER_CALLS.items()})
    out.update({k: (v, "count") for k, v in counts.items()})
    out["outputs.bytes"] = (counts["outputs.bytes"], "bytes")
    psi_calls = out["solver.psi_closed_calls"][0]
    out["solver.inner_evals_per_psi"] = (counts["solver.inner_evals"] / psi_calls if psi_calls else 0.0, "ratio")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    load_rfeas(root)
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r} (have {', '.join(workloads.WORKLOADS)})")
    setup_s = setup_seconds(root, args.workload, args.seed) if not args.trace else 0.0
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.build()
    wl.prepare()
    run = workloads.Run()
    tmp = workloads.temp_dir()
    try:
        if not args.trace:
            run_rounds(wl, run, tmp, round_count(wl, args.seconds))
            metrics = end_to_end(run, setup_s)
        else:
            untraced = traced = round_count(wl, args.seconds / 2)
            run_rounds(wl, run, tmp, untraced)
            tracer = Tracer()
            snapshots = []
            tracer.install()
            try:
                run_rounds(wl, run, tmp, traced, on_round_end=lambda: snapshots.append(tracer.snapshot()))
            finally:
                tracer.uninstall()
            tracer.save(workloads.OUT_DIR / f"trace-{args.workload}-s{args.seed}.npz")
            per_round = [{k: v - (snapshots[i - 1][k] if i else 0) for k, v in s.items()}
                         for i, s in enumerate(snapshots)]
            run.check(all(c == per_round[0] for c in per_round),
                      f"traced counts differ between identical rounds: {per_round}")
            walls = [sum(e[1] for e in run.best(rounds)) for rounds in
                     (run.rounds[:untraced], run.rounds[untraced:])]
            metrics = per_layer(tracer, traced, per_round[0], walls[1], walls[0])
    finally:
        workloads.remove_dir(tmp)

    for name, message in run.failures.items():
        print(f"FAILED {name}: {message}")
    for err in run.errors:
        print(f"CHECK {err}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
