"""Reference figures for README.md: thread scaling and J scaling.

    python3 bench/figures.py

Prints ``mc_volume`` samples per second on ex2-ex4 at 2M samples with
``threads=1`` and ``threads=2`` (median of three calls each), and, for
surrogates of growing J (d = 2, seed 1), the tree size of the folded region
and the Monte Carlo samples per second at 4096 samples.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from program import load_rfeas


def _rate(fn, samples: int, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return samples / statistics.median(times)


def main():
    rfeas = load_rfeas(Path.cwd())
    import surrogate
    from spans import tree_sizes

    samples = 1 << 21
    print("mc_volume samples/s at 2M samples")
    for nm in ("ex2", "ex3", "ex4"):
        r = rfeas.build_region(rfeas.get_builtin(nm))
        rates = [_rate(lambda: rfeas.mc_volume(r, samples=samples, seed=1, threads=t), samples) for t in (1, 2)]
        print(f"  {nm}: threads=1 {rates[0]:.3g}/s  threads=2 {rates[1]:.3g}/s  ratio {rates[1] / rates[0]:.2f}")
    samples = 1 << 12
    print("J scaling, d = 2: tree nodes, unique nodes, samples/s at 4096 samples")
    for alpha, js in ((1.0, range(2, 13, 2)), (0.5, range(2, 7))):
        for J in js:
            s = surrogate.generate(1, 100 + J, J, 2, alpha)
            r = rfeas.build_region(rfeas.parse_problem(s.text))
            nodes, unique = tree_sizes(r.expr)
            rate = _rate(lambda: rfeas.mc_volume(r, samples=samples, seed=1), samples, 1)
            print(f"  alpha={alpha} J={J:2d}: {nodes:8d} nodes {unique:5d} unique {rate:10.4g}/s")


if __name__ == "__main__":
    main()
