"""Divergences between finite pmfs, optimal and maximal couplings.

Supported divergence kinds, all convex in their second argument:

* total variation, TV(p, q) = (1/2) sum |p - q|
* Kullback-Leibler in bits, oriented as KL(p_source || p_output); the
  orientation matters because convexity is required in the second slot
* coupling cost, inf over couplings of E[c(X, Y)] for a given cost matrix
* squared quadratic Wasserstein on real-valued atoms (exact 1-D quantile form)

The transportation problem behind the coupling-cost divergence is solved by
successive shortest paths, each found by a dense Dijkstra in O((m+n)^2), until
both masses are shipped; instances here are tiny, so no external LP machinery
is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pmf import AlphabetMismatchError, Coupling, Pmf

TV = "total_variation"
KL = "kullback_leibler"
COUPLING_COST = "coupling_cost"
WASSERSTEIN_SQ = "wasserstein_sq"

_KINDS = (TV, KL, COUPLING_COST, WASSERSTEIN_SQ)


@dataclass(frozen=True, eq=False)
class DivergenceSpec:
    """A named divergence; `cost` is only used by the coupling-cost kind."""

    kind: str
    cost: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown divergence kind {self.kind!r}")
        if self.kind == COUPLING_COST:
            if self.cost is None:
                raise ValueError("coupling-cost divergence needs a cost matrix")
            c = np.asarray(self.cost, dtype=float)
            if c.ndim != 2:
                raise ValueError("cost matrix must be 2-D")
            if np.any(c < 0.0) or not np.all(np.isfinite(c)):
                raise ValueError("cost matrix must be finite and nonnegative")
            if c.shape[0] == c.shape[1] and np.any(np.diag(c) != 0.0):
                raise ValueError("square cost matrix must vanish on the diagonal")
            object.__setattr__(self, "cost", c)
        elif self.cost is not None:
            raise ValueError(f"{self.kind} takes no cost matrix")


def total_variation() -> DivergenceSpec:
    return DivergenceSpec(TV)


def kullback_leibler() -> DivergenceSpec:
    return DivergenceSpec(KL)


def coupling_cost(cost: np.ndarray) -> DivergenceSpec:
    return DivergenceSpec(COUPLING_COST, cost=np.asarray(cost, dtype=float))


def wasserstein_sq() -> DivergenceSpec:
    return DivergenceSpec(WASSERSTEIN_SQ)


def _require_shared_alphabet(p: Pmf, q: Pmf) -> None:
    if p.labels != q.labels:
        raise AlphabetMismatchError(f"alphabets differ: {p.labels} vs {q.labels}")


def divergence(d: DivergenceSpec, p: Pmf, q: Pmf) -> float:
    """Evaluate d(p, q).  KL returns +inf when support(p) is not in support(q)."""
    if d.kind == TV:
        _require_shared_alphabet(p, q)
        return float(0.5 * np.abs(p.probs - q.probs).sum())
    if d.kind == KL:
        _require_shared_alphabet(p, q)
        pv, qv = p.probs, q.probs
        if np.any((pv > 0.0) & (qv == 0.0)):
            return math.inf
        mask = pv > 0.0
        return float(np.sum(pv[mask] * np.log2(pv[mask] / qv[mask])))
    if d.kind == COUPLING_COST:
        cost = d.cost
        if cost.shape != (len(p.atoms), len(q.atoms)):
            raise AlphabetMismatchError(
                f"cost matrix shape {cost.shape} does not match alphabets"
            )
        _, value = min_cost_coupling(p, q, cost)
        return value
    if d.kind == WASSERSTEIN_SQ:
        return wasserstein_sq_1d(p, q)
    raise ValueError(d.kind)


def wasserstein_sq_1d(p: Pmf, q: Pmf) -> float:
    """Exact squared W2 between 1-D pmfs via the monotone quantile coupling."""
    xs, ps = _sorted_real(p)
    ys, qs = _sorted_real(q)
    i = j = 0
    rem_p = float(ps[0])
    rem_q = float(qs[0])
    total = 0.0
    while i < len(xs) and j < len(ys):
        m = min(rem_p, rem_q)
        total += m * (xs[i] - ys[j]) ** 2
        rem_p -= m
        rem_q -= m
        if rem_p <= 1e-15:
            i += 1
            rem_p = float(ps[i]) if i < len(xs) else 0.0
        if rem_q <= 1e-15:
            j += 1
            rem_q = float(qs[j]) if j < len(ys) else 0.0
    return float(total)


def _sorted_real(p: Pmf) -> tuple[np.ndarray, np.ndarray]:
    vals = p.real_values()
    order = np.argsort(vals, kind="stable")
    return vals[order], p.probs[order]


def min_cost_coupling(p: Pmf, q: Pmf, cost: np.ndarray) -> tuple[Coupling, float]:
    """Optimal-transport coupling of p and q under a finite nonnegative cost.

    Successive shortest augmenting paths with Johnson potentials, until no
    supply or demand above roundoff dust is left to ship.  Each path comes
    from a dense Dijkstra over the residual bipartite graph (a row reaches
    every column, a column the rows that ship to it), O((m+n)^2) per path.
    Nodes settle by least distance, then lower index, then column before row.
    """
    c = np.asarray(cost, dtype=float)
    if c.shape != (len(p.atoms), len(q.atoms)):
        raise AlphabetMismatchError("cost matrix shape does not match alphabets")
    if np.any(c < 0.0) or not np.all(np.isfinite(c)):
        raise ValueError("cost matrix must be finite and nonnegative")
    m, n = c.shape
    supply = p.probs.copy()
    demand = q.probs.copy()
    flow = np.zeros((m, n))
    pi_r = np.zeros(m)
    pi_c = np.zeros(n)
    eps = 1e-15
    while (supply > eps).any() and (demand > eps).any():
        # node (idx, 0) is column idx and (idx, 1) row idx, so the first
        # minimum of the flattened distances is the next node to settle
        shape = (max(m, n), 2)
        dist = np.full(shape, np.inf)
        parent = np.full(shape, -1)  # a column's row, a row's column (-1: source)
        done = np.zeros(shape, dtype=bool)
        dist_c, dist_r = dist[:n, 0], dist[:m, 1]
        par_c, par_r = parent[:n, 0], parent[:m, 1]
        done_c, done_r = done[:n, 0], done[:m, 1]
        dist_r[supply > eps] = 0.0
        while True:
            open_ = np.where(done, np.inf, dist)
            idx, is_row = divmod(int(np.argmin(open_)), 2)
            d = open_[idx, is_row]
            if d == np.inf:
                break
            done[idx, is_row] = True
            if is_row:
                cand = d + c[idx] + pi_r[idx] - pi_c
                upd = (cand < dist_c - 1e-18) & ~done_c
                dist_c[upd] = cand[upd]
                par_c[upd] = idx
            else:
                back = np.where(flow[:, idx] > eps, d - c[:, idx] + pi_c[idx] - pi_r, np.inf)
                upd = (back < dist_r - 1e-18) & ~done_r
                dist_r[upd] = back[upd]
                par_r[upd] = idx
        cand = np.where(demand > eps, dist_c, np.inf)
        j = int(np.argmin(cand))
        if not np.isfinite(cand[j]):
            break  # only roundoff dust remains
        # backtrack alternating col <- row <- col ... to a supply node
        arcs: list[tuple[int, int, bool]] = []  # (row, col, forward?)
        col = j
        for _ in range(2 * (m + n) + 1):
            row = par_c[col]
            arcs.append((row, col, True))
            prev_col = par_r[row]
            if prev_col < 0:
                break
            arcs.append((row, prev_col, False))
            col = prev_col
        else:
            raise RuntimeError("transportation backtrack did not terminate")
        src = arcs[-1][0]
        amount = min(supply[src], demand[j])
        for i_, j_, fwd in arcs:
            if not fwd:
                amount = min(amount, flow[i_, j_])
        for i_, j_, fwd in arcs:
            flow[i_, j_] += amount if fwd else -amount
        supply[src] -= amount
        demand[j] -= amount
        # keep reduced costs nonnegative for the next Dijkstra
        d_cap = cand[j]
        pi_r += np.minimum(dist_r, d_cap)
        pi_c += np.minimum(dist_c, d_cap)
    flow = np.clip(flow, 0.0, None)
    value = float(np.sum(flow * c))
    return Coupling(left=p, right=q, joint=flow), value


def maximal_coupling(p: Pmf, q: Pmf) -> Coupling:
    """Coupling maximizing P(X = Y); off-diagonal mass equals TV(p, q).

    Diagonal mass is min(p, q) pointwise; residuals are coupled as the product
    r_p(x) r_q(y) / kappa with kappa = TV(p, q).  When kappa = 0 this is the
    diagonal coupling.
    """
    _require_shared_alphabet(p, q)
    pv, qv = p.probs, q.probs
    b = np.minimum(pv, qv)
    r_p = pv - b
    r_q = qv - b
    kappa = float(0.5 * (r_p.sum() + r_q.sum()))
    joint = np.diag(b)
    if kappa > 0.0:
        joint = joint + np.outer(r_p, r_q) / kappa
    return Coupling(left=p, right=q, joint=joint)
