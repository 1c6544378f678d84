"""Reference computations made apart from the program.

Nothing here imports ``rfeas``.  The builtins' constraints are written out
again as numpy closed forms, the Monte Carlo stream is re-derived from its
documented definition (splitmix64 over ``(seed, index)``, sample i taking d
consecutive draws), and every tolerance is derived from the method:

* ``ATOL`` = 1e-11, a hundredth of the program's boundary tolerance (1e-9),
  so that a value within it can never flip a feasibility verdict.  Rounding
  in the R-function fold is far below it for constraints of magnitude up to
  100 (about J * 1e-14); values closer to zero than ``ATOL`` count as
  ambiguous for sign checks.
* ``PSI_TOL`` = 1e-8, the inner solver's control tolerance times the
  largest control slope (1) of the closed-loop builtins.
* Grid quantities carry the size of one cell times the number of cells the
  boundary crosses; Monte Carlo quantities carry five standard errors.
"""

from __future__ import annotations

import math

import numpy as np

ATOL = 1e-11
PSI_TOL = 1e-8
MC_SIGMAS = 5.0
# Points per block of every reference computation: small enough that the
# references' temporaries (a few MB) stay well below what the program's own
# calls allocate, so that peak_rss_mb is set by the program.
CHUNK = 1 << 15


# ----------------------------------------------------------------------
# Constraints as numpy closed forms.  Each function maps name -> array to
# an array of shape (J, n) holding g_j; design values are written in.
# ----------------------------------------------------------------------

def _g_ex1(a):
    f, q = a["F_H1"], a["Q_c"]
    return np.stack([
        -25.0 + q * (1.0 / f - 0.5) + 10.0 / f,
        -190.0 + 10.0 / f + q / f,
        -270.0 + 250.0 / f + q / f,
        260.0 - 250.0 / f - q / f,
    ])


def _g_ex2(a):
    t1, t2 = a["theta1"], a["theta2"]
    return np.stack([t2 + t1**2 - t1 - 40.0, t1**2 + t1 - t2 - 2.0, t2 - 4.0 * t1 - 30.0])


def _g_ex3(a):
    t1, t2 = a["theta1"], a["theta2"]
    return np.stack([
        t2 - 2.0 * t1 - 15.0,
        t1**2 / 2.0 + 4.0 * t1 - 5.0 - t2,
        t2 * (6.0 + t1) - 80.0,
        10.0 - (t1 - 4.0) ** 2 / 5.0 - 2.0 * t2**2,
    ])


def _g_ex4(a):
    t1, t2 = a["theta1"], a["theta2"]
    return np.stack([
        4.0 * t1**2 - 2.1 * t1**4 + t1**6 / 3.0 + t1 * t2 - 4.0 * t2**2 + 4.0 * t2**4,
        2.0 * t1 - t2 - 3.0,
        -0.8 * t1 + t2 - 1.8,
    ])


def _g_ex5(a):
    t, z = a["theta"], a["z"]
    return np.stack([-z + t, z - 2.0 * t + 2.0 - 0.5])


def _g_ex6(a):
    t, z = a["theta"], a["z"]
    return np.stack([-z + t, z - 2.0 * t + 2.0 - 1.0, -z + 6.0 * t - 9.0])


def _g_ex7(a):
    t1, t2, t3, z = a["theta1"], a["theta2"], a["theta3"], a["z"]
    d1, d2 = 3.0, 1.0
    return np.stack([
        -z - t1 + 0.5 * t2**2 + 2.0 * t3**2 + d1 - 3.0 * d2 - 8.0,
        -z - t1 / 3.0 - t2 - t3 / 3.0 + d2 + 8.0 / 3.0,
        z + t1 * t1 - t2 - d1 + t3 - 4.0,
    ])


def _g_two_well(a):
    z = a["z"]
    return np.minimum(0.01 * np.abs(z - 10.0) + 0.001, 10.0 * np.abs(z - 57.1) - 0.01)[None, :]


def _g_scaled_pair(a):
    return np.stack([np.asarray(a["x"], dtype=float), a["y"] - 1e10])


CONSTRAINTS = {
    "ex1": _g_ex1, "ex2": _g_ex2, "ex3": _g_ex3, "ex4": _g_ex4, "ex5": _g_ex5,
    "ex6": _g_ex6, "ex7": _g_ex7, "two_well": _g_two_well, "scaled_pair": _g_scaled_pair,
}

# Largest |dg_j/dz| over the control box, for the dense-scan error bound.
CONTROL_SLOPE = {"ex1": 1.0, "ex5": 1.0, "ex6": 1.0, "two_well": 10.0}

TWO_WELL_TEXT = """\
problem two_well
# A shallow well at z = 10 and a narrow deep one at z = 57.1; the deep one
# is the global minimum of the closed-loop objective.
param t in [0, 1]
control z in [0, 100]
constraint g1: min(0.01*abs(z - 10) + 0.001, 10*abs(z - 57.1) - 0.01) <= 0
"""

SCALED_PAIR_TEXT = """\
problem scaled_pair
# Two constraints ten orders of magnitude apart; at alpha = 1 psi must equal
# max(g1, g2) = x whatever the scale of the inactive g2.
param x in [-1, 1]
param y in [-1, 1]
constraint g1: x <= 0
constraint g2: y - 1e10 <= 0
"""
SCALED_PAIR_PROBES = (-1e-7, 1e-7, -3e-7, 3e-7, -1e-6, 1e-6, 1e-3)


def max_g(gfun, arrays) -> np.ndarray:
    return np.max(gfun(arrays), axis=0)


def max_of(gfun):
    return lambda arrays: max_g(gfun, arrays)


# ----------------------------------------------------------------------
# The Monte Carlo stream, re-derived
# ----------------------------------------------------------------------

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(x: int) -> int:
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def stream(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms in [0, 1): the top 53 bits of splitmix64((i + 1) * golden + key)."""
    key = _mix(_mix(seed & _M64) ^ _GOLDEN)
    i = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = i * np.uint64(_GOLDEN) + np.uint64(key)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def mc_points(box, seed: int, start: int, count: int) -> dict:
    d = len(box)
    u = stream(seed, start * d, count * d).reshape(count, d)
    return {name: lo + u[:, k] * (hi - lo) for k, (name, lo, hi) in enumerate(box)}


class MCReference:
    """Hits and feasible-sample bounds of a sampling run, from ``value``.

    ``value(points)`` returns max_j g_j (or closed-loop psi) per sample;
    a sample is feasible when it is <= 0.  Samples within ``tol`` of zero are
    counted apart, so a check can allow exactly them to go either way.
    """

    def __init__(self, value, box, seed: int, samples: int, tol: float = ATOL):
        self.samples = samples
        d = len(box)
        self.hits = self.ambiguous = 0
        inf = np.full(d, np.inf)
        self.sure_lo, self.sure_hi = inf.copy(), -inf
        self.maybe_lo, self.maybe_hi = inf.copy(), -inf
        for start in range(0, samples, CHUNK):
            n = min(CHUNK, samples - start)
            pts = mc_points(box, seed, start, n)
            m = value(pts)
            xs = np.stack([pts[name] for name, _, _ in box], axis=1)
            self.hits += int(np.count_nonzero(m <= 0.0))
            self.ambiguous += int(np.count_nonzero(np.abs(m) <= tol))
            for mask, lo, hi in ((m < -tol, self.sure_lo, self.sure_hi),
                                 (m <= tol, self.maybe_lo, self.maybe_hi)):
                if mask.any():
                    np.minimum(lo, xs[mask].min(axis=0), out=lo)
                    np.maximum(hi, xs[mask].max(axis=0), out=hi)

    def hits_ok(self, hits: int) -> bool:
        return abs(hits - self.hits) <= self.ambiguous

    def bounds_ok(self, dims) -> bool:
        """Bounds of the program's feasible samples match the reference's."""
        for k, (_, lo, hi) in enumerate(dims):
            if not (self.maybe_lo[k] <= lo <= self.sure_lo[k]):
                return False
            if not (self.sure_hi[k] <= hi <= self.maybe_hi[k]):
                return False
        return True


# ----------------------------------------------------------------------
# Dense midpoint grids
# ----------------------------------------------------------------------

class GridReference:
    """Midpoint-grid area and feasible bounds of a 2-D region.

    ``err`` bounds the area error by the area of every cell whose midpoint
    has a neighbour of the other sign; ``h`` is the cell size per axis.
    """

    def __init__(self, gfun, box, n: int):
        (xn, xlo, xhi), (yn, ylo, yhi) = box
        hx, hy = (xhi - xlo) / n, (yhi - ylo) / n
        xs = xlo + (np.arange(n) + 0.5) * hx
        ys = ylo + (np.arange(n) + 0.5) * hy
        # Row blocks with one extra row on each side, so that no n x n array
        # is ever held.
        rows = max(1, CHUNK // n)
        feasible = mixed = 0
        any_x = np.zeros(n, dtype=bool)
        any_y = np.zeros(n, dtype=bool)
        for i in range(0, n, rows):
            lo, hi = max(i - 1, 0), min(i + rows + 1, n)
            gx, gy = np.meshgrid(xs[lo:hi], ys, indexing="ij")
            blk = (max_g(gfun, {xn: gx.ravel(), yn: gy.ravel()}) <= 0.0).reshape(gx.shape)
            m = np.zeros_like(blk)
            d = blk[:-1] != blk[1:]
            m[:-1] |= d
            m[1:] |= d
            d = blk[:, :-1] != blk[:, 1:]
            m[:, :-1] |= d
            m[:, 1:] |= d
            own = slice(i - lo, i - lo + min(rows, n - i))
            feasible += np.count_nonzero(blk[own])
            mixed += np.count_nonzero(m[own])
            any_x[i:i + rows] = blk[own].any(axis=1)
            any_y |= blk[own].any(axis=0)
        cell = hx * hy
        self.area = float(feasible) * cell
        self.err = float(mixed) * cell
        self.h = (hx, hy)
        ix = np.flatnonzero(any_x)
        iy = np.flatnonzero(any_y)
        self.lo = (float(xs[ix[0]]), float(ys[iy[0]]))
        self.hi = (float(xs[ix[-1]]), float(ys[iy[-1]]))

    def bounds_contain(self, dims) -> bool:
        """An inner approximation: every bound lies within the grid bounds plus a cell."""
        for k, (_, lo, hi) in enumerate(dims):
            h = self.h[k]
            if lo < self.lo[k] - h or hi > self.hi[k] + h or lo > hi:
                return False
        return True

    def bounds_match(self, dims, slack: float) -> bool:
        """The true bounds: within one cell outside the extreme feasible midpoints."""
        for k, (_, lo, hi) in enumerate(dims):
            h = self.h[k]
            if not (self.lo[k] - h - slack <= lo <= self.lo[k] + slack):
                return False
            if not (self.hi[k] - slack <= hi <= self.hi[k] + h + slack):
                return False
        return True


def heatmap_ok(gfun, box, values) -> bool:
    """Every cell of an (ny, nx) heatmap equals max_j g_j at its centre.

    Compared a block of rows at a time, so that the reference never holds
    more than ``CHUNK`` cells: its memory stays below the program's.
    """
    (xn, xlo, xhi), (yn, ylo, yhi) = box
    ny, nx = values.shape
    xs = xlo + (np.arange(nx) + 0.5) * (xhi - xlo) / nx
    ys = ylo + (np.arange(ny) + 0.5) * (yhi - ylo) / ny
    rows = max(1, CHUNK // nx)
    for i in range(0, ny, rows):
        gx, gy = np.meshgrid(xs, ys[i:i + rows], indexing="xy")
        m = max_g(gfun, {xn: gx.ravel(), yn: gy.ravel()}).reshape(gx.shape)
        if not np.all(alpha1_psi_ok(values[i:i + rows], m)):
            return False
    return True


def shoelace(poly) -> float:
    xy = np.asarray(poly, dtype=float)
    x, y = xy[:, 0], xy[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


# ----------------------------------------------------------------------
# Closed-loop psi
# ----------------------------------------------------------------------

def psi_ex5(theta):
    return 0.75 - np.asarray(theta) / 2.0


def psi_ex7(a):
    """Exact psi of ex7: every g_j is affine in z with slope -1, -1, +1."""
    g = _g_ex7({**a, "z": np.zeros_like(np.asarray(a["theta1"], dtype=float))})
    return (np.maximum(g[0], g[1]) + g[2]) / 2.0


class DenseScan:
    """psi(x) = min over a dense control grid of max_j g_j.

    The scan value is an upper bound of the true psi and exceeds it by at
    most ``err`` = slope * spacing / 2.
    """

    def __init__(self, name: str, control: tuple[str, float, float], points: int):
        self.gfun = CONSTRAINTS[name]
        self.zname, self.zlo, self.zhi = control
        self.points = points
        self.err = CONTROL_SLOPE[name] * (self.zhi - self.zlo) / (points - 1) / 2.0

    def __call__(self, arrays) -> np.ndarray:
        n = len(next(iter(arrays.values())))
        out = np.empty(n)
        per = max(1, CHUNK // self.points)
        zper = min(self.points, CHUNK)
        step = (self.zhi - self.zlo) / (self.points - 1)
        for i in range(0, n, per):
            k = min(per, n - i)
            best = np.full(k, np.inf)
            for j in range(0, self.points, zper):
                z = self.zlo + step * np.arange(j, min(j + zper, self.points))
                env = {nm: np.repeat(np.asarray(v[i:i + k], dtype=float), len(z))
                       for nm, v in arrays.items()}
                env[self.zname] = np.tile(z, k)
                best = np.minimum(best, max_g(self.gfun, env).reshape(k, len(z)).min(axis=1))
            out[i:i + k] = best
        return out

    def check(self, psi: float, point) -> bool:
        return self.within(psi, float(self({k: [v] for k, v in point.items()})[0]))

    def within(self, psi: float, scanned: float) -> bool:
        """psi agrees with the scan value ``scanned`` at the same point."""
        return scanned - self.err - PSI_TOL <= psi <= scanned + PSI_TOL


def alpha1_psi_ok(psi: float, m: float) -> bool:
    """At alpha = 1, R is min(phi_j), so psi must equal max_j g_j."""
    return abs(psi - m) <= 1e-9 * abs(m) + ATOL


def sign_ok(value_feasible: bool, m: float) -> bool:
    """The program's verdict agrees with max_j g_j <= 0, unless m is ambiguous."""
    return abs(m) <= ATOL or value_feasible == (m <= 0.0)


def mc_volume_ok(volume: float, samples: int, box_volume: float, area: float, area_err: float) -> bool:
    p = min(max(area / box_volume, 0.0), 1.0)
    se = box_volume * math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
    return abs(volume - area) <= MC_SIGMAS * se + area_err
