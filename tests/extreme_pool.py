"""A pool of extreme `solve_rdp` instances, and a report of how the engine ends on them.

Not a test module (pytest does not collect it): some instances carry atoms of
mass 1e-300, which overflow at the engine's Hessian line with a
`RuntimeWarning` that the test suite turns into an error.  Run it as

    PYTHONPATH=src python3 tests/extreme_pool.py

to print the status counts, the indices that end `iter_limit`, the worst
certified gap, the total Newton steps and the sha256 of every solution,
serialized and concatenated in pool order: a change that leaves the engine's
floats alone leaves that line as it was.

Instances 0-299 come from `default_rng(2026)`: k in 2-5, a source from
Dirichlet(0.05) or Dirichlet(1) with masses floored at 1e-300, off-diagonal
distortions uniform in [0.1, 1.1), and D a fraction of D_max, the least
distortion of a constant output.  By index mod 3: TV at P = 0 with D / D_max
in {1e-7, 1e-3, 0.5}; KL with P in [0.5, 2] bits and D / D_max in [0.02, 1];
TV with P in [0, 0.3] and D / D_max in [0.02, 1].  Instances 300-303 are
Bernoulli(0.25) with Hamming distortion at D = 0.2 under a coupling cost:
off-diagonal cost 1e-9 at P = 1e-300 and at P = 1e-12, and the all-zero cost
at P = 1e-12 and at P = 0.
"""

from __future__ import annotations

import collections
import hashlib

import numpy as np

from rdplab import serialize
from rdplab.divergences import coupling_cost, kullback_leibler, total_variation
from rdplab.pmf import Pmf
from rdplab.solver import INFEASIBLE, ITER_LIMIT, RdpProblem, solve_rdp

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


def main() -> None:
    sols = [solve_rdp(prob) for prob in extreme_pool()]
    counts = collections.Counter(sol.status for sol in sols)
    print("status:", ", ".join(f"{name} {n}" for name, n in sorted(counts.items())))
    print("iter_limit indices:", [i for i, sol in enumerate(sols) if sol.status == ITER_LIMIT])
    gap, worst = max((sol.primal_gap_estimate, i) for i, sol in enumerate(sols) if sol.status != INFEASIBLE)
    print(f"worst gap: {gap:.3g} bits (index {worst})")
    print("Newton steps:", sum(sol.iterations for sol in sols))
    text = "".join(serialize.dumps(serialize.solution_to_dict(sol)) for sol in sols)
    print("solutions sha256:", hashlib.sha256(text.encode()).hexdigest())


if __name__ == "__main__":
    main()
