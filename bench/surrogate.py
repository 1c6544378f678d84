"""Seeded polynomial surrogate problems for the surrogate_fold workload.

Each surrogate has J quadratic constraints in d uncertain parameters on the
box [-2, 2]^d:

    g_j(x) = c_j + sum_i b_ji x_i + sum_{i <= k} a_jik x_i x_k <= 0

The generator first draws a known interior point x0 in [-1, 1]^d and a
margin m_j in [0.25, 2], then chooses c_j so that g_j(x0) = -m_j (up to the
rounding of c_j to three decimals, at most 5e-4).  Every region is therefore
non-empty.  Coefficient ranges: b in [-2, 2], a_ii in [0.2, 1.5],
a_ik (i < k) in [-0.3, 0.3], so every
d = 2 surrogate has convex constraints and a convex region.  Over the box every |g_j| stays below
``G_MAX`` = 100, which the rounding tolerances in ``reference`` rely on.

The program receives only the problem text; ``values`` evaluates the same
polynomials directly from the coefficients, as the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOX = 2.0
G_MAX = 100.0


@dataclass(frozen=True)
class Surrogate:
    name: str
    alpha: float
    x0: tuple[float, ...]
    c: np.ndarray  # (J,)
    b: np.ndarray  # (J, d)
    a: np.ndarray  # (J, d, d), upper triangular
    text: str

    @property
    def J(self) -> int:
        return len(self.c)

    @property
    def d(self) -> int:
        return self.b.shape[1]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.d))

    @property
    def box(self) -> tuple[tuple[str, float, float], ...]:
        return tuple((n, -BOX, BOX) for n in self.names)

    def values(self, arrays) -> np.ndarray:
        """Every g_j at the points ``arrays`` (name -> array), shape (J, n)."""
        x = np.stack([np.asarray(arrays[n], dtype=float) for n in self.names])
        lin = self.b @ x
        quad = np.einsum("jik,in,kn->jn", self.a, x, x)
        return self.c[:, None] + lin + quad


def _term(coef: float, factor: str) -> str:
    sign = "-" if coef < 0 else "+"
    return f" {sign} {abs(coef)!r}*{factor}"


def generate(seed: int, index: int, J: int, d: int, alpha: float) -> Surrogate:
    """The ``index``-th surrogate of ``seed``; the same arguments give the same problem."""
    if J < 2 or d < 1:
        raise ValueError("need J >= 2 and d >= 1")
    gen = np.random.default_rng([seed, index, J, d])
    r3 = lambda v: np.round(v, 3)  # noqa: E731 - coefficients are written with three decimals
    x0 = r3(gen.uniform(-1.0, 1.0, d))
    b = r3(gen.uniform(-2.0, 2.0, (J, d)))
    a = np.zeros((J, d, d))
    for i in range(d):
        a[:, i, i] = r3(gen.uniform(0.2, 1.5, J))
        for k in range(i + 1, d):
            a[:, i, k] = r3(gen.uniform(-0.3, 0.3, J))
    margin = gen.uniform(0.25, 2.0, J)
    at_x0 = b @ x0 + np.einsum("jik,i,k->j", a, x0, x0)
    c = r3(-margin - at_x0)

    names = [f"x{i + 1}" for i in range(d)]
    name = f"surrogate_s{seed}_i{index}_J{J}_d{d}"
    lines = [f"problem {name}", f"alpha {alpha!r}"]
    lines += [f"param {n} in [-{BOX!r}, {BOX!r}]" for n in names]
    for j in range(J):
        expr = repr(float(c[j]))
        for i in range(d):
            expr += _term(float(b[j, i]), names[i])
        for i in range(d):
            for k in range(i, d):
                if a[j, i, k] != 0.0:
                    factor = f"{names[i]}^2" if i == k else f"{names[i]}*{names[k]}"
                    expr += _term(float(a[j, i, k]), factor)
        lines.append(f"constraint g{j + 1}: {expr} <= 0")
    return Surrogate(
        name=name, alpha=alpha, x0=tuple(float(v) for v in x0),
        c=c, b=b, a=a, text="\n".join(lines) + "\n",
    )
