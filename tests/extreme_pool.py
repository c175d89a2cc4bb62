"""A pool of extreme `solve_rdp` instances, and a report of how the engine ends on them.

Not a test module (pytest does not collect it): some instances carry atoms of
mass 1e-300, which overflow at the engine's Hessian line with a
`RuntimeWarning` that the test suite turns into an error.  Run it as

    PYTHONPATH=src python3 tests/extreme_pool.py

to print the status counts, the indices that end `iter_limit`, the worst
certified gap, the total Newton steps and the sha256 of every solution,
serialized and concatenated in pool order: a change that leaves the engine's
floats alone leaves that line as it was.  Two more lines follow: the status
counts and Newton steps of a pool of solves at the distortion floor, and the
outcome counts of a pool of `rd_function_grid` calls with the sha256 of
their values' `float.hex()`, in pool order.

Instances 0-299 come from `default_rng(2026)`: k in 2-5, a source from
Dirichlet(0.05) or Dirichlet(1) with masses floored at 1e-300, off-diagonal
distortions uniform in [0.1, 1.1), and D a fraction of D_max, the least
distortion of a constant output.  By index mod 3: TV at P = 0 with D / D_max
in {1e-7, 1e-3, 0.5}; KL with P in [0.5, 2] bits and D / D_max in [0.02, 1];
TV with P in [0, 0.3] and D / D_max in [0.02, 1].  Instances 300-303 are
Bernoulli(0.25) with Hamming distortion at D = 0.2 under a coupling cost:
off-diagonal cost 1e-9 at P = 1e-300 and at P = 1e-12, and the all-zero cost
at P = 1e-12 and at P = 0.

The floor pool has 120 instances from `default_rng(2038)`, each at D =
D_min = sum_x p_x min_y Delta(x, y) onto outputs other than the source
labels: m in 2-4 atoms, one of them at mass 1e-300 in every third instance;
k in 2-5 uniform real outputs, half of them with an atom tied between two
least-cost outputs; squared or absolute distortion; W2 or the |x - y|
coupling cost; P in (0, 0.1, 0.5, 2, 10).  Its 1e-300 atoms overflow too.

The grid pool has 400 instances from `default_rng(2039)`: m in 2-6 atoms
from Dirichlet(0.05) or Dirichlet(1); k in 2-8 uniform real outputs, with
squared or absolute cost; D at the floor in one instance of ten, and
otherwise a uniform fraction of the way from the floor to the least cost of
a constant output.
"""

from __future__ import annotations

import collections
import hashlib

import numpy as np

from rdplab import serialize
from rdplab.divergences import coupling_cost, kullback_leibler, total_variation, wasserstein_sq
from rdplab.pmf import Pmf
from rdplab.solver import INFEASIBLE, ITER_LIMIT, RdpProblem, rd_function_grid, solve_rdp

HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


def extreme_pool() -> list[RdpProblem]:
    rng = np.random.default_rng(2026)
    probs = []
    for i in range(300):
        k = int(rng.integers(2, 6))
        alpha = 0.05 if rng.random() < 0.5 else 1.0
        p = np.maximum(rng.dirichlet(np.full(k, alpha)), 1e-300)
        p /= p.sum()
        delta = rng.uniform(0.1, 1.1, (k, k))
        np.fill_diagonal(delta, 0.0)
        d_max = float(np.min(p @ delta))
        if i % 3 == 0:
            div, perc, frac = total_variation(), 0.0, (1e-7, 1e-3, 0.5)[int(rng.integers(3))]
        elif i % 3 == 1:
            div, perc, frac = kullback_leibler(), float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.02, 1.0))
        else:
            div, perc, frac = total_variation(), float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.02, 1.0))
        probs.append(RdpProblem(Pmf.from_probs(tuple(range(k)), p), delta, div, frac * d_max, perc))
    source = Pmf.bernoulli(0.25)
    for off, perc in ((1e-9, 1e-300), (1e-9, 1e-12), (0.0, 1e-12), (0.0, 0.0)):
        probs.append(RdpProblem(source, HAMMING, coupling_cost(off * HAMMING), 0.2, perc))
    return probs


def floor_pool(count: int = 120, seed: int = 2038, light: float = 1e-300) -> list[RdpProblem]:
    """Solves at D = D_min onto other outputs, one atom of mass `light` in
    every third; the test suite draws its own with `light` = 0."""
    rng = np.random.default_rng(seed)
    probs = []
    for i in range(count):
        m, k = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(m))
        if i % 3 == 0:
            p[int(rng.integers(m))] = light
        p /= p.sum()
        y = rng.uniform(-0.5, m - 0.5, k)
        if i % 4 in (1, 2):  # y_1 mirrors y_0 around its nearest atom
            y[1] = 2.0 * np.round(np.clip(y[0], 0.0, m - 1.0)) - y[0]
        gap = np.abs(np.arange(m)[:, None] - y)
        delta = gap ** 2 if i % 2 == 0 else gap
        # W2 whenever k == m: the pool was drawn when a square coupling cost
        # had to vanish on its diagonal, and it stays as drawn
        div = wasserstein_sq() if k == m or rng.random() < 0.5 else coupling_cost(gap)
        perc = (0.0, 0.1, 0.5, 2.0, 10.0)[i % 5]
        probs.append(RdpProblem(Pmf.from_probs(tuple(range(m)), p), delta, div, float(p @ delta.min(axis=1)), perc,
                                tuple(y.tolist())))
    return probs


def grid_pool() -> list[tuple[Pmf, tuple, np.ndarray, float]]:
    rng = np.random.default_rng(2039)
    calls = []
    for i in range(400):
        m, k = int(rng.integers(2, 7)), int(rng.integers(2, 9))
        p = rng.dirichlet(np.full(m, 0.05 if rng.random() < 0.5 else 1.0))
        y = rng.uniform(-0.5, m - 0.5, k)
        gap = np.abs(np.arange(m)[:, None] - y)
        cost = gap ** 2 if rng.random() < 0.5 else gap
        source = Pmf.from_probs(tuple(range(m)), p)
        p = source.probs
        floor, top = float(p @ cost.min(axis=1)), float(np.min(p @ cost))
        dist = floor if i % 10 == 0 else floor + float(rng.uniform()) * (top - floor)
        calls.append((source, tuple(y.tolist()), cost, dist))
    return calls


def main() -> None:
    sols = [solve_rdp(prob) for prob in extreme_pool()]
    counts = collections.Counter(sol.status for sol in sols)
    print("status:", ", ".join(f"{name} {n}" for name, n in sorted(counts.items())))
    print("iter_limit indices:", [i for i, sol in enumerate(sols) if sol.status == ITER_LIMIT])
    gap, worst = max((sol.primal_gap_estimate, i) for i, sol in enumerate(sols) if sol.status != INFEASIBLE)
    print(f"worst gap: {gap:.3g} bits (index {worst})")
    print("Newton steps:", sum(sol.iterations for sol in sols))
    text = "".join(serialize.dumps(serialize.to_dict(sol)) for sol in sols)
    print("solutions sha256:", hashlib.sha256(text.encode()).hexdigest())
    sols = [solve_rdp(prob) for prob in floor_pool()]
    counts = collections.Counter(sol.status for sol in sols)
    print("floor pool:", ", ".join(f"{name} {n}" for name, n in sorted(counts.items()))
          + f"; Newton steps {sum(sol.iterations for sol in sols)}")
    counts, values = collections.Counter(), []
    for call in grid_pool():
        try:
            values.append(rd_function_grid(*call).hex())
            counts["certified"] += 1
        except RuntimeError:
            counts["not certified"] += 1
    print("grid pool:", ", ".join(f"{name} {n}" for name, n in sorted(counts.items()))
          + f"; values sha256 {hashlib.sha256(''.join(values).encode()).hexdigest()}")


if __name__ == "__main__":
    main()
