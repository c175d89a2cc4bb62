"""The fixed pool of `solve_rdp` instances behind the solve_mix workload.

The pool is drawn once from POOL_SEED.  Every instance of alphabet size 3 or
4 needs a stored reference rate from a certified solve, and the seed
commit's time for each op decides which timeouts are known failures; both
are properties of a fixed instance set, so the run seed orders the pool
rather than redrawing it.
"""

from __future__ import annotations

import numpy as np

POOL_SEED = 20240817
KINDS = ("p0", "tv", "w2", "cc", "kl")
SIZES = (2, 3, 4)
# distortion budget as a share of the zero-rate distortion p' Delta p at P = 0
REGIMES = {"tight": 0.15, "interior": 0.5, "zero": 1.05}
# perception budgets are drawn uniformly from these ranges
PERC_RANGE = {"p0": (0.0, 0.0), "tv": (0.05, 0.2), "w2": (0.05, 0.3),
              "cc": (0.05, 0.3), "kl": (0.02, 0.1)}


def distortion_matrix(k: int) -> np.ndarray:
    """|i - j| on the labels 0..k-1 (Hamming for k = 2)."""
    idx = np.arange(k)
    return np.abs(idx[:, None] - idx[None, :]).astype(float)


def pool_specs() -> list[dict]:
    """Every (kind, k, regime) instance of the pool, as plain JSON data."""
    rng = np.random.default_rng(POOL_SEED)
    specs = []
    for k in SIZES:
        delta = distortion_matrix(k)
        for kind in KINDS:
            for regime, frac in REGIMES.items():
                p = 0.6 * rng.dirichlet(np.ones(k)) + 0.4 / k
                if k == 2:
                    p = np.sort(p)[::-1]  # P(X = 1) <= 1/2, the closed forms' domain
                lo, hi = PERC_RANGE[kind]
                perc = float(rng.uniform(lo, hi))
                specs.append({
                    "id": f"{kind}-k{k}-{regime}",
                    "kind": kind,
                    "k": k,
                    "regime": regime,
                    "probs": [float(x) for x in p / p.sum()],
                    "D": float(frac * (p @ delta @ p)),
                    "P": perc,
                })
    # the KL crash reported in ROADMAP item 3: random k = 4 source, D = 0.5, P = 0.05
    p = 0.6 * rng.dirichlet(np.ones(4)) + 0.1
    specs.append({"id": "kl-k4-item3", "kind": "kl", "k": 4, "regime": "interior",
                  "probs": [float(x) for x in p / p.sum()], "D": 0.5, "P": 0.05})
    # two more draws of every binary stratum: binary solves are cheap, and
    # with them the median op falls inside the binary cluster of op times
    # instead of on the step up to the k >= 3 solves
    binary = [s for s in specs if s["k"] == 2]
    for replica in (2, 3):
        for spec in binary:
            p = np.sort(0.6 * rng.dirichlet(np.ones(2)) + 0.2)[::-1]
            lo, hi = PERC_RANGE[spec["kind"]]
            perc = float(rng.uniform(lo, hi))
            delta = distortion_matrix(2)
            specs.append(dict(spec, id=f"{spec['id']}-r{replica}", probs=[float(x) for x in p / p.sum()],
                              D=float(REGIMES[spec["regime"]] * (p @ delta @ p)), P=perc))
    return specs


# rd_function_grid points of acceptance criterion 07: Bernoulli(0.25) source,
# squared error on a 513-point output grid, target D / 2; reference varphi.
GRID_POINTS = (0.15, 0.2, 0.25)
GRID_RHO = 0.25
GRID_SIZE = 513


def build_problem(spec: dict):
    """The RdpProblem of one pool spec."""
    from rdplab import (
        Pmf, RdpProblem, coupling_cost, kullback_leibler, total_variation, wasserstein_sq,
    )

    k = spec["k"]
    delta = distortion_matrix(k)
    div = {
        "p0": total_variation,
        "tv": total_variation,
        "w2": wasserstein_sq,
        "cc": lambda: coupling_cost(delta),
        "kl": kullback_leibler,
    }[spec["kind"]]()
    source = Pmf.from_probs(tuple(range(k)), np.array(spec["probs"]))
    perc = 0.0 if spec["kind"] == "p0" else spec["P"]
    return RdpProblem(source, delta, div, spec["D"], perc)
