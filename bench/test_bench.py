"""Tests of the benchmark itself: its references, checks, generator and output.

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
from program import load_rfeas  # noqa: E402

rfeas = load_rfeas(ROOT)

import reference as ref  # noqa: E402
import run as bench_run  # noqa: E402
import surrogate  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, tree_sizes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _disc(a):
    return (a["x"] ** 2 + a["y"] ** 2 - 1.0)[None, :]


DISC_BOX = (("x", -1.5, 1.5), ("y", -1.5, 1.5))


# --- the references agree with what they stand in for -------------------

def test_stream_matches_the_program_stream():
    for seed in (0, 1, 2**40 + 7):
        assert np.array_equal(ref.stream(seed, 123, 4096), rfeas.rng.uniforms(seed, 123, 4096))


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "ex7"])
def test_closed_forms_match_the_builtin_text(name):
    p = rfeas.get_builtin(name)
    gen = np.random.default_rng(3)
    arrays = {v.name: gen.uniform(v.lo, v.hi, 200) for v in p.variables if v.role != "design"}
    env = {**arrays, **{k: np.full(200, v) for k, v in p.design_values().items()}}
    program = np.stack([rfeas.eval_arrays(g, env) for _, g in p.constraints])
    assert np.allclose(ref.CONSTRAINTS[name](arrays), program, rtol=1e-12, atol=1e-9)


def test_exact_psi_formulas_match_dense_scans():
    theta = np.linspace(1.0, 2.0, 11)
    scan5 = ref.DenseScan("ex5", ("z", -20.0, 20.0), 40001)
    assert np.all(np.abs(scan5({"theta": theta}) - ref.psi_ex5(theta)) <= scan5.err + 1e-12)
    gen = np.random.default_rng(4)
    pts = {f"theta{i}": gen.uniform(0.0, 4.0, 20) for i in (1, 2, 3)}
    z = np.linspace(-100.0, 100.0, 200001)
    for k in range(20):
        env = {n: np.full(z.size, v[k]) for n, v in pts.items()}
        scan = ref.max_g(ref.CONSTRAINTS["ex7"], {**env, "z": z}).min()
        exact = ref.psi_ex7({n: v[k:k + 1] for n, v in pts.items()})[0]
        assert exact <= scan + 1e-12 and scan - exact <= 1e-3


def test_grid_area_of_a_disc():
    g = ref.GridReference(_disc, DISC_BOX, 1000)
    assert abs(g.area - math.pi) <= g.err
    assert g.err < 0.05


# --- every check rejects a deliberately wrong answer ---------------------

def test_mc_checks_reject_perturbed_answers():
    box = DISC_BOX
    mref = ref.MCReference(ref.max_of(_disc), box, 5, 100000)
    assert mref.hits_ok(mref.hits)
    assert not mref.hits_ok(mref.hits + mref.ambiguous + 1)
    volume = mref.hits / mref.samples * 9.0
    assert ref.mc_volume_ok(volume, mref.samples, 9.0, math.pi, 0.0)
    assert not ref.mc_volume_ok(volume * 1.05, mref.samples, 9.0, math.pi, 0.0)
    dims = tuple((n, float(lo), float(hi)) for (n, _, _), lo, hi in zip(box, mref.sure_lo, mref.sure_hi))
    assert mref.bounds_ok(dims)
    assert not mref.bounds_ok(((dims[0][0], dims[0][1] + 1e-3, dims[0][2]), dims[1]))


def test_psi_checks_reject_sign_flips_and_wrong_values():
    assert ref.alpha1_psi_ok(0.25, 0.25)
    assert not ref.alpha1_psi_ok(-0.25, 0.25)
    assert not ref.alpha1_psi_ok(1.9e-6, 1e-6)
    assert ref.sign_ok(True, -0.5) and not ref.sign_ok(False, -0.5)
    assert ref.sign_ok(False, 1e-13)  # within ATOL either verdict is allowed
    scan = ref.DenseScan("ex6", ("z", -20.0, 20.0), 40001)
    theta = 1.9
    exact = (max(theta, 6 * theta - 9) - (2 * theta - 1)) / 2
    assert scan.check(exact, {"theta": theta})
    assert not scan.check(exact + 1e-3, {"theta": theta})
    assert not scan.check(exact - 1e-2, {"theta": theta})
    assert not scan.check(-exact, {"theta": theta})


def test_grid_checks_reject_wrong_bounds():
    g = ref.GridReference(_disc, DISC_BOX, 1000)
    exact = (("x", -1.0, 1.0), ("y", -1.0, 1.0))
    assert g.bounds_match(exact, 1e-9) and g.bounds_contain(exact)
    assert not g.bounds_match((("x", -1.0, 0.9), ("y", -1.0, 1.0)), 1e-9)
    assert not g.bounds_contain((("x", -1.1, 1.0), ("y", -1.0, 1.0)))


def test_shoelace_of_a_square():
    assert ref.shoelace([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]) == pytest.approx(1.0)


def test_known_faults_are_still_detected():
    p = rfeas.parse_problem(ref.SCALED_PAIR_TEXT)
    r = rfeas.build_region(p)
    psi = rfeas.psi_open(p, {"x": 1e-7, "y": 0.0}, region=r).psi
    assert not (ref.alpha1_psi_ok(psi, 1e-7) and ref.sign_ok(psi <= 0.0, 1e-7))


# --- the surrogate generator ---------------------------------------------

@pytest.mark.parametrize("J,d,alpha", [(4, 2, 1.0), (12, 3, 1.0), (6, 2, 0.5), (5, 4, 0.5)])
def test_surrogates_are_deterministic_and_feasible(J, d, alpha):
    a = surrogate.generate(11, 3, J, d, alpha)
    assert a.text == surrogate.generate(11, 3, J, d, alpha).text
    assert a.text != surrogate.generate(12, 3, J, d, alpha).text
    x0 = {n: np.array([v]) for n, v in zip(a.names, a.x0)}
    assert np.all(a.values(x0) < 0.0)
    gen = np.random.default_rng(0)
    pts = {n: gen.uniform(-surrogate.BOX, surrogate.BOX, 2000) for n in a.names}
    corners = np.array(np.meshgrid(*[[-surrogate.BOX, surrogate.BOX]] * d)).reshape(d, -1)
    assert np.abs(a.values(pts)).max() < surrogate.G_MAX
    assert np.abs(a.values(dict(zip(a.names, corners)))).max() < surrogate.G_MAX
    p = rfeas.parse_problem(a.text)
    assert p.alpha == alpha and len(p.constraints) == J
    program = np.stack([rfeas.eval_arrays(g, pts) for _, g in p.constraints])
    assert np.allclose(program, a.values(pts), rtol=1e-12, atol=1e-12)
    assert rfeas.psi_open(p, {n: v for n, v in zip(a.names, a.x0)}).psi < 0.0


# --- tracing --------------------------------------------------------------

def test_tree_sizes_count_shared_subtrees():
    x = rfeas.var("x")
    e = x + x
    assert tree_sizes(e * e) == (7, 3)


def test_tracer_rebinds_by_importing_name_and_restores():
    p = rfeas.get_builtin("ex2")
    r = rfeas.build_region(p)
    original = rfeas.rfuncs.eval_expr
    tracer = Tracer()
    tracer.install()
    try:
        rfeas.psi_open(p, {"theta1": 0.0, "theta2": 0.0}, region=r)
    finally:
        tracer.uninstall()
    assert rfeas.rfuncs.eval_expr is original is rfeas.expr.eval_expr
    times = tracer.layer_times()
    assert times["rfuncs.psi_open_calls"] == 1
    assert times["expr.eval_expr_calls"] == 1 + len(p.constraints)  # recursion is not counted


# --- what a run measures ------------------------------------------------

def test_round_count_depends_on_seconds_only():
    for wl in workloads.WORKLOADS.values():
        assert bench_run.round_count(wl, 20) == max(wl.MIN_ROUNDS, math.ceil(20 / wl.ROUND_S))
        assert bench_run.round_count(wl, 0.1) == wl.MIN_ROUNDS


def test_latencies_are_each_points_median_and_best_each_operations_fastest():
    run = workloads.Run()
    for r in range(3):
        run.begin_round()
        for i in range(4):
            run.op("psi", lambda: None, key=("psi", i), population=True)
            run.rounds[-1][-1][1] = 10.0 * (r + 1) + i
        run.op("mc", lambda: None, work=5)
        run.rounds[-1][-1][1] = 1.0 + r
        for k in range(2):  # a repeat within the round is the same operation
            run.op("boundary", lambda: None, key=("boundary",))
            run.rounds[-1][-1][1] = 7.0 - r - 2 * k
    assert sorted(run.latencies()) == [20.0, 21.0, 22.0, 23.0]
    assert [dt for _, dt, _ in run.best()] == [10.0, 11.0, 12.0, 13.0, 1.0, 3.0, 3.0]
    assert [dt for _, dt, _ in run.best(run.rounds[:1])] == [10.0, 11.0, 12.0, 13.0, 1.0, 5.0, 5.0]


def test_population_chunks_make_whole_passes():
    for passes in (1, 2, 3):
        chunks = workloads._population_chunks(passes)
        assert all(len(c) == workloads.PSI_CHUNK for c in chunks)
        calls = [i for c in chunks for i in c]
        assert sorted(calls) == sorted(list(range(workloads.PSI_POPULATION)) * passes)


# --- output format --------------------------------------------------------

def test_metric_names_match_benchmark_json():
    run = workloads.Run()
    for _ in range(2):
        run.begin_round()
        for kind, work in (("mc", 10), ("psi", 0), ("critical", 0), ("boundary", 5), ("heatmap", 4)):
            run.op(kind, lambda: None, work=work, key=("psi", 0) if kind == "psi" else None,
                   population=kind == "psi")
    e2e = bench_run.end_to_end(run, 1.0)
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    counts = dict(tracer.counts)
    layer = bench_run.per_layer(tracer, 1, counts, 1.0, 1.0)
    assert {k: u for k, (_, u) in layer.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WORKLOADS[w["name"]].why for w in SPEC["workloads"])


def test_outputs_are_ignored_by_git():
    assert "/bench/out/" in (ROOT / ".gitignore").read_text().splitlines()
