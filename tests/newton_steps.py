"""Newton-step counts of the barrier engine on five pools of `solve_rdp` instances.

Not a test module (pytest does not collect it).  Run it from the repository
root as

    PYTHONPATH=src python3 tests/newton_steps.py

For each pool it prints one line: the status counts, the total and largest
Newton steps, the worst certified gap, and the sha256 of every solution,
serialized and concatenated in pool order.  A change to the engine's
schedule shows its cost in steps here, and a change that claims to leave the
engine's floats alone shows it in the digests.

1. `solve_mix`: the 76 `solve_rdp` instances of the benchmark's pool,
   `perfbench/data/solve_pool.json`, built by `perfbench/pool.py` (read only).
2. `engine`: `_engine_pool()` of `tests/test_solver.py`.
3. `sweep`: the ternary source (0.5, 0.3, 0.2) with |i - j| under TV, W2 and
   KL, over 40 even D in (0, 0.7] and P in {0.02, 0.1, 0.3}.
4. `k-scan`: k = 8, 16 and 32, sources from Dirichlet(1) drawn with
   `default_rng(k)` and `default_rng(k + 100)`, |i - j| distortion and D =
   0.3 p'Delta p, under TV, W2 and the |i - j| coupling cost at P = 0.05 and
   KL at P = 0.02.
5. `random`: 400 solves from `default_rng(4242)`, drawn in this order for
   each: k in 2-8; p from Dirichlet(0.3) for every fourth source and
   Dirichlet(1) otherwise; P uniform in [0.02, 0.1] bits for KL and in
   [0.01, 0.3] otherwise; D a uniform 5-95 % of p'Delta p.  The distortion
   is |i - j|, squared for every fifth solve, and the kind cycles TV, W2,
   KL and the coupling cost of the distortion.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import sys

import numpy as np

from rdplab import serialize
from rdplab.divergences import coupling_cost, kullback_leibler, total_variation, wasserstein_sq
from rdplab.pmf import Pmf
from rdplab.solver import INFEASIBLE, RdpProblem, solve_rdp, sweep_curve

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, os.pardir, "perfbench")]

import pool  # noqa: E402  perfbench/pool.py
from test_solver import _engine_pool  # noqa: E402


def _abs_diff(k: int) -> np.ndarray:
    idx = np.arange(k)
    return np.abs(idx[:, None] - idx[None, :]).astype(float)


def solve_mix_pool() -> list[RdpProblem]:
    with open(os.path.join(HERE, os.pardir, "perfbench", "data", "solve_pool.json")) as f:
        return [pool.build_problem(spec) for spec in json.load(f)["instances"]]


def sweep_solutions() -> list:
    source, delta = Pmf.from_probs((0, 1, 2), (0.5, 0.3, 0.2)), _abs_diff(3)
    dists = np.linspace(0.7 / 40.0, 0.7, 40)
    return [sol for div in (total_variation(), wasserstein_sq(), kullback_leibler())
            for _, _, sol in sweep_curve(RdpProblem(source, delta, div), dists, [0.02, 0.1, 0.3])]


def k_scan_problems(k: int, seed: int) -> list[RdpProblem]:
    """TV, W2, the |i - j| coupling cost and KL on one Dirichlet(1) source of k labels."""
    delta = _abs_diff(k)
    source = Pmf.from_probs(tuple(range(k)), np.random.default_rng(seed).dirichlet(np.ones(k)))
    dist = float(0.3 * (source.probs @ delta @ source.probs))
    return [RdpProblem(source, delta, div, dist, perc) for div, perc in (
        (total_variation(), 0.05), (wasserstein_sq(), 0.05), (coupling_cost(delta), 0.05),
        (kullback_leibler(), 0.02))]


def k_scan_pool() -> list[RdpProblem]:
    return [prob for k in (8, 16, 32) for seed in (k, k + 100) for prob in k_scan_problems(k, seed)]


def random_pool() -> list[RdpProblem]:
    rng = np.random.default_rng(4242)
    probs = []
    for i in range(400):
        k = int(rng.integers(2, 9))
        source = Pmf.from_probs(tuple(range(k)), rng.dirichlet(np.full(k, 0.3 if i % 4 == 0 else 1.0)))
        p, delta = source.probs, _abs_diff(k) ** (2 if i % 5 == 4 else 1)
        kind = i % 4
        div = (total_variation(), wasserstein_sq(), kullback_leibler(), coupling_cost(delta))[kind]
        perc = float(rng.uniform(0.02, 0.1) if kind == 2 else rng.uniform(0.01, 0.3))
        dist = float(rng.uniform(0.05, 0.95) * (p @ delta @ p))
        probs.append(RdpProblem(source, delta, div, dist, perc))
    return probs


def report(name: str, sols) -> None:
    sols = list(sols)
    counts = collections.Counter(sol.status for sol in sols)
    steps = [sol.iterations for sol in sols]
    gap = max((sol.primal_gap_estimate for sol in sols if sol.status != INFEASIBLE), default=0.0)
    text = "".join(serialize.dumps(serialize.to_dict(sol)) for sol in sols)
    print(f"{name}: " + ", ".join(f"{status} {n}" for status, n in sorted(counts.items()))
          + f"; Newton steps {sum(steps)} (max {max(steps)}); worst gap {gap:.3g} bits;"
          + f" sha256 {hashlib.sha256(text.encode()).hexdigest()}")


def main() -> None:
    report("solve_mix", map(solve_rdp, solve_mix_pool()))
    report("engine", map(solve_rdp, _engine_pool()))
    report("sweep", sweep_solutions())
    report("k-scan", map(solve_rdp, k_scan_pool()))
    report("random", map(solve_rdp, random_pool()))


if __name__ == "__main__":
    main()
