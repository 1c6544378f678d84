"""The four benchmark workloads.

Each workload makes its inputs from the seed, builds its problems
(``build``, which is also what the set-up probe times), computes its
references once (``prepare``), and then runs whole rounds of the same fixed
list of operations (``round``).  Every operation goes through ``Run.op`` so
that it is timed and counted, and every output is checked against
``reference``.  The program is called through the ``rfeas`` module
attributes at call time, so the traced run can rebind them.

Every workload runs each kind of operation the end-to-end metrics time (Monte
Carlo sampling, psi calls, a worst-case search, a boundary, a heatmap), but
each puts most of its time on a different layer; see README.md.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np

import rfeas
import rfeas.outputs
import reference as ref
import surrogate

warnings.simplefilter("ignore", rfeas.UnreferencedVariableWarning)

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
PSI_POPULATION = 1000  # points of one problem, for psi_p50_ms / psi_p99_ms
ENCLOSING = {"ex4": (("theta1", -2.0, 2.0), ("theta2", -1.05, 1.05))}
EX6_PLANE = (("theta", 0.9, 2.1), ("z", -0.5, 3.5))  # the whole (theta, z) region of ex6
EX7_PROJECTED_VOLUME = 24.7331


class Run:
    """Times, counts and checks of one benchmark run.

    Rounds repeat the same operations in the same order, so the i-th call of
    every round is the same operation, and so is every call with the same
    ``key`` (a repeat within a round, or a psi population point in any
    pass); ``best`` keeps each operation's fastest time over all its calls
    in the given rounds.  ``latencies`` gives each psi population point's
    median call.
    """

    def __init__(self):
        self.rounds: list[list[list]] = []  # per round: [kind, seconds, work, key, population]
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.errors: list[str] = []

    def begin_round(self):
        self.rounds.append([])

    def op(self, kind: str, fn, *args, work: int = 0, key=None, population: bool = False, **kwargs):
        """Call the program once, timing it under ``kind``; calls with the same
        ``key`` are the same operation, and ``population`` marks a call of the
        psi latency population."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.attempted += 1
        self.rounds[-1].append([kind, dt, work, key, population])
        return result

    def add_work(self, amount: int):
        """Work of the last call that is known only from its result."""
        self.rounds[-1][-1][2] += amount

    @staticmethod
    def _key(i: int, key):
        return ("call", i) if key is None else key

    def _fastest(self, rounds) -> dict:
        first = [(e[0], e[2], e[3]) for e in rounds[0]]
        for other in rounds[1:]:
            if [(e[0], e[2], e[3]) for e in other] != first:
                raise RuntimeError("rounds made different calls")
        fastest: dict = {}
        for r in rounds:
            for i, (_, dt, _, key, _) in enumerate(r):
                k = self._key(i, key)
                fastest[k] = min(dt, fastest.get(k, dt))
        return fastest

    def best(self, rounds=None) -> list[tuple[str, float, int]]:
        """Every call of a round with its operation's fastest time over ``rounds`` (all by default)."""
        rounds = self.rounds if rounds is None else rounds
        fastest = self._fastest(rounds)
        return [(kind, fastest[self._key(i, key)], work) for i, (kind, _, work, key, _) in enumerate(rounds[0])]

    def latencies(self) -> list[float]:
        """Each psi population point's median time over all its calls in the run."""
        calls = defaultdict(list)
        for r in self.rounds:
            for e in r:
                if e[4]:
                    calls[e[3]].append(e[1])
        return [statistics.median(v) for v in calls.values()]

    def check(self, ok, what: str):
        if not ok and len(self.errors) < 50:
            self.errors.append(what)

    def probe_failed(self, name: str, message: str):
        """A known fault: the operation failed, the run stays correct."""
        self.failed += 1
        self.failures.setdefault(name, message)


def _points(gen, box, count):
    names = [name for name, _, _ in box]
    cols = np.column_stack([gen.uniform(lo, hi, count) for _, lo, hi in box])
    return [dict(zip(names, map(float, row))) for row in cols]


def _columns(points):
    return {k: np.array([p[k] for p in points]) for k in points[0]}


def _parse_build(run, text):
    p = run.op("build", rfeas.parse_problem, text)
    return p, run.op("build", rfeas.build_region, p)


class Workload:
    name = ""
    why = ""
    MIN_ROUNDS = 2  # every call's fastest time needs repeats
    ROUND_S = 1.0  # nominal length of a round, which fixes the rounds of a run
    PSI_PASSES = 1  # passes over the psi latency population per round
    # Calls per round of the short operations that keep every metric present
    # (boundaries, heatmaps, worst-case searches outside their own workload):
    # their fastest time is taken over every repeat of every round.
    REPEATS = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.gen = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.refs: dict = {}

    # Set-up: what a user pays before the first answer.
    def build(self):
        return {key: rfeas.build_region(rfeas.parse_problem(text)) for key, text in self.texts().items()}

    def texts(self) -> dict[str, str]:
        raise NotImplementedError

    def prepare(self):
        """Compute the references once; rounds only compare against them."""

    def round(self, run: Run, tmp: Path):
        raise NotImplementedError

    # Shared operations and their checks ---------------------------------

    def _chunks(self):
        """The population's index chunks for one round; a round uses them all."""
        return iter(_population_chunks(self.PSI_PASSES))

    def _psi_open_points(self, run, key, p, r, points, gfun, alpha, indices=None, population=False):
        indices = range(len(points)) if indices is None else indices
        ms = ref.max_g(gfun, _columns([points[i] for i in indices]))
        for i, m in zip(indices, ms):
            x = points[i]
            pe = run.op("psi", rfeas.psi_open, p, x, region=r,
                        key=("psi", i) if population else None, population=population)
            if alpha == 1.0:
                run.check(ref.alpha1_psi_ok(pe.psi, m), f"{key}: psi_open {pe.psi!r} != max g {m!r} at {x}")
            run.check(ref.sign_ok(pe.psi <= 0.0, m), f"{key}: psi_open sign {pe.psi!r} vs max g {m!r} at {x}")

    def _critical_open(self, run, key, p, gfun, box):
        res = run.op("critical", rfeas.critical_search, p, key=("critical", key))
        if ("critical", key) not in self.refs:
            axes = [np.linspace(lo, hi, 201) for _, lo, hi in box]
            mesh = np.meshgrid(*axes, indexing="ij")
            grid = {n: m.ravel() for (n, _, _), m in zip(box, mesh)}
            self.refs[("critical", key)] = float(ref.max_g(gfun, grid).max())
        best = self.refs[("critical", key)]
        at_star = float(ref.max_g(gfun, {k: np.array([v]) for k, v in res.x_star.items()})[0])
        run.check(res.psi_max >= best - ref.ATOL, f"{key}: critical psi_max {res.psi_max} below grid max {best}")
        run.check(ref.alpha1_psi_ok(res.psi_max, at_star), f"{key}: critical psi_max {res.psi_max} != max g {at_star} at x_star")

    def _mc_ref(self, key, value, box, samples, tol=ref.ATOL):
        """The reference of one sampling call; ``value`` gives max g (or psi) per sample."""
        self.refs[("mc", key)] = ref.MCReference(value, box, self.seed, samples, tol)

    def _mc(self, run, key, fn, r, box, samples, threads=None, bbox=False):
        res = run.op("mc", fn, r, box=box, samples=samples, seed=self.seed, threads=threads, work=samples,
                     key=("mc", key, bbox))
        mref = self.refs[("mc", key)]
        if bbox:
            run.check(mref.bounds_ok(res.dims), f"{key}: mc_bbox {res.dims} differs from the reference samples")
        else:
            run.check(mref.hits_ok(res.hits), f"{key}: mc_volume hits {res.hits} != reference {mref.hits} (+-{mref.ambiguous})")
        return res

    def _grid_ref(self, key, gfun, box, n=2000):
        gkey = ("grid", key, box)
        if gkey not in self.refs:
            self.refs[gkey] = ref.GridReference(gfun, box, n)
        return self.refs[gkey]

    def _boundary(self, run, key, r, gfun, box, grid_n):
        b = run.op("boundary", rfeas.boundary_2d, r, box=box, grid_n=grid_n, tol=1e-8, key=("boundary", key, grid_n))
        verts = np.array([v for poly in b.polylines for v in poly])
        run.add_work(len(verts))
        run.check(len(verts) > 0, f"{key}: boundary_2d found no vertex")
        if len(verts):
            m = ref.max_g(gfun, {box[0][0]: verts[:, 0], box[1][0]: verts[:, 1]})
            run.check(np.all(np.abs(m) <= b.tol + ref.ATOL), f"{key}: boundary vertex with |max g| = {np.abs(m).max()!r}")
        if b.polylines and all(b.closed):
            g = self._grid_ref(key, gfun, box)
            cell = _area(box) / grid_n**2
            area = sum(abs(ref.shoelace(poly)) for poly in b.polylines)
            run.check(abs(area - g.area) <= g.err + len(verts) * cell,
                      f"{key}: boundary area {area} vs grid area {g.area} (+-{g.err})")
        return b

    def _heatmap(self, run, key, r, gfun, box, n, path):
        field = run.op("heatmap", rfeas.grid_field, r, box=box, nx=n, ny=n, work=n * n, key=("field", key, n))
        run.op("heatmap", rfeas.outputs.write_ppm, str(path), field, key=("ppm", key, n))
        run.check(ref.heatmap_ok(gfun, box, -field.values), f"{key}: heatmap cell values differ from -max g")
        run.check(path.stat().st_size == len(f"P6\n{n} {n}\n255\n") + 3 * n * n, f"{key}: pixmap size")


def _builtin(name):
    return rfeas.builtin_source(name)


def _rotated(n: int, start: int) -> list[int]:
    """0..n-1 beginning at ``start``."""
    return list(range(start, n)) + list(range(start))


# Population calls made in one go.  A pass is cut into chunks spread over
# the round, so that a slow spell of the machine slows about its share of
# the calls rather than a whole pass; the first call of a chunk runs with
# cold caches at about twice the time, and at 4 per 1000 calls those stay
# below the 99th percentile.
PSI_CHUNK = 250


def _population_chunks(passes: int) -> list[list[int]]:
    """``passes`` passes over the population, each beginning at another
    point, cut into chunks of ``PSI_CHUNK``."""
    chunks = []
    for k in range(passes):
        order = _rotated(PSI_POPULATION, k * PSI_POPULATION // passes)
        chunks += [order[c:c + PSI_CHUNK] for c in range(0, PSI_POPULATION, PSI_CHUNK)]
    return chunks


def _all_used(chunks):
    if next(chunks, None) is not None:
        raise RuntimeError("a round must make whole passes over the psi population")


def _box(name):
    p = rfeas.get_builtin(name)
    return tuple((v.name, v.lo, v.hi) for v in p.variables if v.role in ("uncertain", "control"))


def _area(box):
    return (box[0][2] - box[0][1]) * (box[1][2] - box[1][1])


# The library's default lattice of boundary_2d and grid_field, for the
# boundaries and heatmaps that only keep every metric present on a workload.
DEFAULT_GRID = 256


class VolumeOpen(Workload):
    name = "volume_open"
    why = ("mc_volume and mc_bbox at 2M samples on ex2-ex4 with two threads: "
           "the random stream and large-batch eval_arrays, no inner solver")
    SAMPLES = 1 << 21
    PROBLEMS = ("ex2", "ex3", "ex4")
    ROUND_S = 2.0

    def texts(self):
        return {nm: _builtin(nm) for nm in self.PROBLEMS}

    def __init__(self, seed):
        super().__init__(seed)
        self.psi_points = _points(self.gen, _box("ex3"), PSI_POPULATION)

    def prepare(self):
        for nm in self.PROBLEMS:
            self._grid_ref(nm, ref.CONSTRAINTS[nm], _box(nm))
            self._grid_ref(nm, ref.CONSTRAINTS[nm], ENCLOSING.get(nm) or _box(nm))
            self._mc_ref(nm, ref.max_of(ref.CONSTRAINTS[nm]), _box(nm), self.SAMPLES)

    def round(self, run, tmp):
        built = {nm: _parse_build(run, _builtin(nm)) for nm in self.PROBLEMS}
        chunks = self._chunks()

        def psi():
            p, r = built["ex3"]
            self._psi_open_points(run, "ex3", p, r, self.psi_points, ref.CONSTRAINTS["ex3"], 1.0,
                                  next(chunks), population=True)

        psi()
        for nm, (p, r) in built.items():
            gfun, box = ref.CONSTRAINTS[nm], rfeas.box_of(r)
            g = self._grid_ref(nm, gfun, box)
            v = self._mc(run, nm, rfeas.mc_volume, r, box, self.SAMPLES, threads=2)
            run.check(ref.mc_volume_ok(v.volume, v.samples, _area(box), g.area, g.err),
                      f"{nm}: mc_volume {v.volume} vs grid area {g.area}")
            bb = self._mc(run, nm, rfeas.mc_bbox, r, box, self.SAMPLES, threads=2, bbox=True)
            run.check(g.bounds_contain(bb.dims), f"{nm}: mc_bbox {bb.dims} outside grid bounds")
            self._critical_open(run, nm, p, gfun, box)
            self._boundary(run, nm, r, gfun, ENCLOSING.get(nm) or box, DEFAULT_GRID)
            self._heatmap(run, nm, r, gfun, box, DEFAULT_GRID, tmp / f"{nm}.ppm")
            psi()
        _all_used(chunks)


class ClosedLoop(Workload):
    name = "closed_loop"
    why = ("psi_closed points, critical_search and a projected volume on ex1, ex5-ex7: "
           "the inner minimizer, substitute and scalar eval_expr")
    PSI_COUNTS = (("ex5", PSI_POPULATION), ("ex1", 20), ("ex6", 50), ("ex7", 30))
    ROUND_S = 4.0
    REPEATS = 4
    PROJECTED_SAMPLES = 1 << 15

    def texts(self):
        t = {nm: _builtin(nm) for nm in ("ex1", "ex5", "ex6", "ex7")}
        t["two_well"] = ref.TWO_WELL_TEXT
        return t

    def build(self):
        built = super().build()
        built["ex7_projected"] = rfeas.ProjectedRegion(rfeas.parse_problem(_builtin("ex7")))
        return built

    def __init__(self, seed):
        super().__init__(seed)
        self.psi_points = {}
        for nm, count in self.PSI_COUNTS:
            p = rfeas.get_builtin(nm)
            self.psi_points[nm] = _points(self.gen, [(v.name, v.lo, v.hi) for v in p.uncertain], count)

    def prepare(self):
        self.scans = {
            "ex1": ref.DenseScan("ex1", ("Q_c", 0.0, 300.0), 30001),
            "ex6": ref.DenseScan("ex6", ("z", -20.0, 20.0), 40001),
            "two_well": ref.DenseScan("two_well", ("z", 0.0, 100.0), 1000001),
        }
        for nm, xname, (lo, hi), n in (("ex1", "F_H1", (1.0, 1.8), 401), ("ex6", "theta", (1.0, 2.0), 501)):
            self.refs[("critical", nm)] = float(self.scans[nm]({xname: np.linspace(lo, hi, n)}).max())
            self.refs[("psi", nm)] = self.scans[nm](_columns(self.psi_points[nm]))
        corners = np.array(np.meshgrid([0.0, 4.0], [0.0, 4.0], [0.0, 4.0], indexing="ij")).reshape(3, -1)
        self.refs[("critical", "ex7")] = float(ref.psi_ex7(dict(zip(("theta1", "theta2", "theta3"), corners))).max())
        self._grid_ref("ex6", ref.CONSTRAINTS["ex6"], EX6_PLANE, 1000)
        ex7_box = tuple((n, lo, hi) for n, lo, hi in _box("ex7") if n != "z")
        self._mc_ref("ex7_projected", ref.psi_ex7, ex7_box, self.PROJECTED_SAMPLES, ref.PSI_TOL)
        self.two_well_scan = float(self.scans["two_well"]({"t": np.array([0.5])})[0])

    def _psi_ok(self, nm, i, x, pe):
        if nm == "ex5":
            return abs(pe.psi - float(ref.psi_ex5(x["theta"]))) <= ref.PSI_TOL
        if nm == "ex7":
            return abs(pe.psi - float(ref.psi_ex7({k: np.array([v]) for k, v in x.items()})[0])) <= ref.PSI_TOL
        s = self.refs[("psi", nm)][i]
        return s - self.scans[nm].err - ref.PSI_TOL <= pe.psi <= s + ref.PSI_TOL

    def _psi(self, run, built, nm, indices):
        p, r = built[nm]
        population = nm == "ex5"
        for i in indices:
            x = self.psi_points[nm][i]
            pe = run.op("psi", rfeas.psi_closed, p, x, region=r,
                        key=("psi", i) if population else None, population=population)
            run.check(pe.converged and self._psi_ok(nm, i, x, pe),
                      f"{nm}: psi_closed {pe.psi!r} at {x} disagrees with the reference")

    def _critical(self, run, built, nm):
        res = run.op("critical", rfeas.critical_search, built[nm][0], key=("critical", nm))
        best = self.refs[("critical", nm)]
        if nm == "ex7":
            at_star = float(ref.psi_ex7({k: np.array([v]) for k, v in res.x_star.items()})[0])
            ok = res.psi_max >= best - ref.PSI_TOL and abs(res.psi_max - at_star) <= ref.PSI_TOL
        else:
            scan = self.scans[nm]
            ok = res.psi_max >= best - scan.err - ref.PSI_TOL and all(
                scan.check(psi, x) for x, psi in res.candidates)
        run.check(ok, f"{nm}: critical_search psi_max {res.psi_max} at {res.x_star} vs reference {best}")

    def round(self, run, tmp):
        built = {nm: _parse_build(run, text) for nm, text in self.texts().items()}
        projected = run.op("build", rfeas.ProjectedRegion, built["ex7"][0])
        chunks = self._chunks()
        self._psi(run, built, "ex5", next(chunks))
        for nm in ("ex1", "ex6", "ex7"):
            self._psi(run, built, nm, range(len(self.psi_points[nm])))
            self._critical(run, built, nm)
            self._psi(run, built, "ex5", next(chunks))
        _all_used(chunks)
        v = self._mc(run, "ex7_projected", rfeas.mc_volume, projected, rfeas.box_of(projected),
                     self.PROJECTED_SAMPLES)
        run.check(ref.mc_volume_ok(v.volume, v.samples, 64.0, EX7_PROJECTED_VOLUME, 1e-3),
                  f"ex7: projected volume {v.volume} vs {EX7_PROJECTED_VOLUME}")
        p, r = built["ex6"]
        for _ in range(self.REPEATS):
            self._boundary(run, "ex6", r, ref.CONSTRAINTS["ex6"], EX6_PLANE, DEFAULT_GRID)
            self._heatmap(run, "ex6", r, ref.CONSTRAINTS["ex6"], EX6_PLANE, DEFAULT_GRID, tmp / "ex6.ppm")
        p, r = built["two_well"]
        pe = run.op("probe", rfeas.psi_closed, p, {"t": 0.5}, region=r)
        if not self.scans["two_well"].within(pe.psi, self.two_well_scan):
            run.probe_failed(
                "two_well",
                f"psi_closed = {pe.psi:.6g} (converged={pe.converged}) but a dense control scan reaches "
                f"{self.two_well_scan:.6g}: the inner minimizer stops in the shallow well at z = 10 "
                "(solver.py _min_1d_scalar / _min_1d_batch)",
            )


class Contour2D(Workload):
    name = "contour_2d"
    why = ("boundary_2d at grid 1024, heatmaps and file writers on ex2-ex4, opt_bbox on ex2: "
           "small-batch eval_arrays, Python-level region code, output")
    GRID = 1024
    PROBLEMS = ("ex2", "ex3", "ex4")
    SAMPLES = 100_000  # the library's default
    ROUND_S = 5.0
    PSI_PASSES = 2
    REPEATS = 3

    def texts(self):
        return {nm: _builtin(nm) for nm in self.PROBLEMS}

    def __init__(self, seed):
        super().__init__(seed)
        self.psi_points = _points(self.gen, _box("ex4"), PSI_POPULATION)

    def prepare(self):
        for nm in self.PROBLEMS:
            self._grid_ref(nm, ref.CONSTRAINTS[nm], _box(nm))
            self._grid_ref(nm, ref.CONSTRAINTS[nm], ENCLOSING.get(nm) or _box(nm))
            self._mc_ref(nm, ref.max_of(ref.CONSTRAINTS[nm]), _box(nm), self.SAMPLES)

    def round(self, run, tmp):
        built = {nm: _parse_build(run, _builtin(nm)) for nm in self.PROBLEMS}
        chunks = self._chunks()

        def psi():
            p, r = built["ex4"]
            self._psi_open_points(run, "ex4", p, r, self.psi_points, ref.CONSTRAINTS["ex4"], 1.0,
                                  next(chunks), population=True)

        for nm, (p, r) in built.items():
            gfun, box = ref.CONSTRAINTS[nm], ENCLOSING.get(nm) or rfeas.box_of(r)
            b = self._boundary(run, nm, r, gfun, box, self.GRID)
            n_closed = sum(b.closed)
            run.check(n_closed == len(b.polylines) == (2 if nm == "ex4" else 1),
                      f"{nm}: {len(b.polylines)} polylines, {n_closed} closed")
            csv = run.op("write", rfeas.outputs.boundary_csv, b)
            run.op("write", rfeas.outputs.write_text, str(tmp / f"{nm}.csv"), csv)
            svg = run.op("write", rfeas.outputs.boundary_svg, b, box)
            run.op("write", rfeas.outputs.write_text, str(tmp / f"{nm}.svg"), svg)
            rows = (tmp / f"{nm}.csv").read_text().count("\n") - 1
            run.check(rows == sum(len(poly) for poly in b.polylines) and svg.count("<polyline") == len(b.polylines),
                      f"{nm}: written boundary files do not match the polylines")
            psi()
            box = rfeas.box_of(r)
            self._heatmap(run, nm, r, gfun, box, self.GRID, tmp / f"{nm}.ppm")
            psi()
            g = self._grid_ref(nm, gfun, box)
            for _ in range(self.REPEATS):
                self._critical_open(run, nm, p, gfun, box)
                v = self._mc(run, nm, rfeas.mc_volume, r, box, self.SAMPLES)
                run.check(ref.mc_volume_ok(v.volume, v.samples, _area(box), g.area, g.err),
                          f"{nm}: mc_volume {v.volume} vs grid area {g.area}")
        psi()
        p, r = built["ex2"]
        bb = run.op("bbox", rfeas.opt_bbox, r, seed=self.seed)
        run.check(self._grid_ref("ex2", ref.CONSTRAINTS["ex2"], rfeas.box_of(r)).bounds_match(bb.dims, 1e-5),
                  f"ex2: opt_bbox {bb.dims} differs from the grid bounds")
        psi()
        _all_used(chunks)


class SurrogateFold(Workload):
    name = "surrogate_fold"
    why = ("seeded polynomial surrogates, J = 4-12 at alpha 1 and 3-6 at alpha 0.5: "
           "the symbolic fold, whose tree grows like 2^J or 4^J")
    # (J, d, alpha, Monte Carlo samples, psi points); the sample counts keep
    # each problem's share of the round within a factor of a few.
    SPECS = (
        (4, 2, 1.0, 1 << 14, PSI_POPULATION), (6, 3, 1.0, 1 << 14, 8), (8, 4, 1.0, 1 << 14, 8),
        (10, 2, 1.0, 1 << 13, 8), (12, 3, 1.0, 1 << 11, 4),
        (3, 2, 0.5, 1 << 14, 8), (4, 3, 0.5, 1 << 14, 8), (5, 4, 0.5, 1 << 13, 8), (6, 2, 0.5, 1 << 12, 4),
    )
    POPULATION = 0  # the surrogate whose psi calls give psi_p50_ms / psi_p99_ms
    PSI_PASSES = 3
    ROUND_S = 5.0
    REPEATS = 3
    # The worst-case searches, the boundary and the heatmap use surrogates of
    # a fixed seed: their cost depends on the region's shape, which would
    # otherwise change with the seed.
    FIXED = ((4, 2, 1.0), (3, 2, 0.5))

    def __init__(self, seed):
        super().__init__(seed)
        self.surrogates = [surrogate.generate(seed, i, J, d, a) for i, (J, d, a, _, _) in enumerate(self.SPECS)]
        self.psi_points = [_points(self.gen, s.box, spec[4]) for s, spec in zip(self.surrogates, self.SPECS)]
        self.fixed = [surrogate.generate(0, 100 + i, J, d, a) for i, (J, d, a) in enumerate(self.FIXED)]

    def texts(self):
        t = {s.name: s.text for s in self.surrogates + self.fixed}
        t["scaled_pair"] = ref.SCALED_PAIR_TEXT
        return t

    def prepare(self):
        s = self.fixed[0]
        self._grid_ref(s.name, s.values, s.box)
        for s, spec in zip(self.surrogates, self.SPECS):
            self._mc_ref(s.name, ref.max_of(s.values), s.box, spec[3])

    def _critical(self, run, built, s):
        if s.alpha == 1.0:
            self._critical_open(run, s.name, built[s.name][0], s.values, s.box)
            return
        res = run.op("critical", rfeas.critical_search, built[s.name][0], key=("critical", s.name))
        m = float(ref.max_g(s.values, {k: np.array([v]) for k, v in res.x_star.items()})[0])
        run.check(ref.sign_ok(res.psi_max <= 0.0, m), f"{s.name}: critical psi_max sign vs max g {m}")

    def round(self, run, tmp):
        built = {nm: _parse_build(run, text) for nm, text in self.texts().items()}
        pop = self.surrogates[self.POPULATION]
        chunks = self._chunks()

        def psi():
            p, r = built[pop.name]
            self._psi_open_points(run, pop.name, p, r, self.psi_points[self.POPULATION], pop.values, pop.alpha,
                                  next(chunks), population=True)

        for i, (s, spec, points) in enumerate(zip(self.surrogates, self.SPECS, self.psi_points)):
            p, r = built[s.name]
            self._mc(run, s.name, rfeas.mc_volume, r, s.box, spec[3])
            if i != self.POPULATION:
                self._psi_open_points(run, s.name, p, r, points, s.values, s.alpha)
            psi()
        s = self.fixed[0]
        p, r = built[s.name]
        for _ in range(self.REPEATS):
            self._critical(run, built, s)
            self._boundary(run, s.name, r, s.values, s.box, DEFAULT_GRID)
            self._heatmap(run, s.name, r, s.values, s.box, DEFAULT_GRID, tmp / "surrogate.ppm")
            self._critical(run, built, self.fixed[1])
            psi()
        _all_used(chunks)
        p, r = built["scaled_pair"]
        for xv in ref.SCALED_PAIR_PROBES:
            pe = run.op("probe", rfeas.psi_open, p, {"x": xv, "y": 0.0}, region=r)
            if not (ref.alpha1_psi_ok(pe.psi, xv) and ref.sign_ok(pe.psi <= 0.0, xv)):
                run.probe_failed(
                    f"scaled_pair x={xv:g}",
                    f"psi_open = {pe.psi!r} where max g = {xv!r}: the alpha = 1 form ((a+b) - |a-b|)/2 "
                    "loses x against the 1e10-scale inactive constraint (rfuncs.py conj_expr)",
                )


WORKLOADS = {w.name: w for w in (VolumeOpen, ClosedLoop, Contour2D, SurrogateFold)}


def temp_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"tmp-{os.getpid()}-", dir=OUT_DIR))


def remove_dir(path: Path):
    shutil.rmtree(path, ignore_errors=True)
