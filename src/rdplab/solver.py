"""Numerical computation of the rate-distortion-perception function.

Minimizes I(X; Xhat) over channels subject to a distortion budget
E[Delta] <= D and a perception budget d(p_X, p_Xhat) <= P.

Algorithms:

* polyhedral perception constraints (total variation, coupling cost,
  squared Wasserstein) and the P = 0 marginal-equality case: away-step
  Frank-Wolfe with exact line search; every linear subproblem is an LP over
  the channel polytope intersected with the constraints (scipy HiGHS);
* Kullback-Leibler perception with P > 0: outer dual bisection on the
  perception multiplier with an inner Frank-Wolfe solve of
  I + mu * KL(p_X || p_Xhat) over the distortion polytope;
* the classical R(D) on a gridded output alphabet (`rd_function_grid`):
  Csiszar's dual, a geometric program in |X| + 1 variables with one
  log-sum-exp constraint per grid point, solved by damped barrier Newton.
  The value is the rate of an explicit channel that meets D, certified by
  a dual-feasible point of the same solve to within 1e-7 bits of the grid
  optimum; numpy only.

A channel with independent output (rate zero) is tried first, for every
divergence kind; when some product channel satisfies both budgets the
optimum is exactly zero.  For KL with P > 0 the check is the closed form:
q = p_X has zero divergence, so it is feasible iff p' Delta p <= D.  One LP
builder, `_Polytope`, writes the distortion and perception rows for both
the Frank-Wolfe channel polytope and this zero-rate check: the two differ
only in the linear map from their variables to the output law.

scipy is imported lazily: `linprog` loads scipy.optimize on its first
call, so importing rdplab, and everything that runs no LP, stays free of
scipy's import cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .divergences import (
    COUPLING_COST,
    KL,
    TV,
    WASSERSTEIN_SQ,
    DivergenceSpec,
    divergence,
)
from .pmf import Channel, Pmf, _distortion_matrix, _real_values, mutual_information_matrix

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITER_LIMIT = "iter_limit"

_LOG2 = math.log(2.0)
_CLIP = 1e-300


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-6  # Frank-Wolfe duality-gap target, in bits
    max_iter: int = 20000
    feas_tol: float = 1e-9


@dataclass(frozen=True, eq=False)
class RdpProblem:
    """One instance (p_X, Delta, d, D, P) with an optional output alphabet."""

    source: Pmf
    distortion: np.ndarray = field(repr=False)
    divergence: DivergenceSpec = field(default_factory=lambda: DivergenceSpec(TV))
    dist_budget: float = 0.0
    perc_budget: float = 0.0
    output_alphabet: tuple | None = None

    def __post_init__(self) -> None:
        out = self.output_alphabet
        if out is None:
            out = self.source.labels
        out = tuple(out)
        object.__setattr__(self, "output_alphabet", out)
        m, k = len(self.source.atoms), len(out)
        if m > 256 or k > 256:
            raise ValueError("alphabets beyond 256 symbols are out of scope")
        delta = np.asarray(self.distortion, dtype=float)
        if delta.shape != (m, k):
            raise ValueError(f"distortion matrix shape {delta.shape}, expected {(m, k)}")
        if np.any(delta < 0.0) or not np.all(np.isfinite(delta)):
            raise ValueError("distortion matrix must be finite and nonnegative")
        if out == self.source.labels:
            if np.any(np.diag(delta) != 0.0):
                raise ValueError("Delta(x, x) must vanish when alphabets coincide")
            off = delta + np.where(np.eye(m, dtype=bool), np.inf, 0.0)
            if np.any(off <= 0.0):
                raise ValueError("Delta(x, xhat) must be positive off the diagonal")
        object.__setattr__(self, "distortion", delta)
        budgets = (self.dist_budget, self.perc_budget)
        if not all(math.isfinite(b) and b >= 0.0 for b in budgets):
            raise ValueError("budgets must be finite and nonnegative")
        if not self.divergence.convex_in_second:
            raise ValueError("divergence must be convex in its second argument")
        if self.divergence.kind in (TV, KL) and out != self.source.labels:
            raise ValueError(f"{self.divergence.kind} needs matching alphabets")
        if self.divergence.kind == COUPLING_COST and self.divergence.cost.shape != (m, k):
            raise ValueError("perception cost matrix shape does not match alphabets")
        if self.divergence.kind == WASSERSTEIN_SQ:
            self.source.real_values()
            _real_values(out)

    def perception_cost_matrix(self) -> np.ndarray | None:
        """Cost matrix of the embedded-coupling perception constraint, if any."""
        if self.divergence.kind == COUPLING_COST:
            return self.divergence.cost
        if self.divergence.kind == WASSERSTEIN_SQ:
            x = self.source.real_values()
            y = _real_values(self.output_alphabet)
            return (x[:, None] - y[None, :]) ** 2
        return None


@dataclass(frozen=True, eq=False)
class RdpSolution:
    rate: float
    channel: Channel
    achieved_dist: float
    achieved_perc: float
    status: str
    primal_gap_estimate: float
    iterations: int


# ---------------------------------------------------------------------------
# LP subproblems
# ---------------------------------------------------------------------------


# perception constraints an LP can carry (None: distortion only)
_EQUAL = "equal"  # the output law equals the source law (P = 0)
_TV_SLACK = "tv_slack"  # TV <= P through one slack per output atom
_COUPLING = "coupling"  # an embedded coupling of p_X and the output law


def _perception(prob: RdpProblem) -> str | None:
    """The perception constraint of the LPs; None sends KL to the dual path."""
    if prob.perc_budget == 0.0:
        return _EQUAL
    if prob.divergence.kind == KL:
        return None
    return _TV_SLACK if prob.divergence.kind == TV else _COUPLING


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


class _Polytope:
    """LP data for min <c, v> over row-stochastic v >= 0 and the budgets.

    `marg` maps v to the output law, `stoch` gives the normalization rows
    (each sums to one) and `dist_row` the expected distortion.  Auxiliary
    variables follow v: a TV slack per output atom, or an embedded coupling.
    """

    def __init__(self, prob: RdpProblem, marg, stoch, dist_row, perception):
        p = prob.source.probs
        m, k = prob.distortion.shape
        n = marg.shape[1]
        n_aux = {_TV_SLACK: k, _COUPLING: m * k}.get(perception, 0)
        self.n = n
        self.shape = (len(stoch), n // len(stoch))
        eq = [np.hstack([stoch, np.zeros((len(stoch), n_aux))])]
        b_eq = [np.ones(len(stoch))]
        ub = [np.concatenate([dist_row, np.zeros(n_aux)])[None, :]]
        b_ub = [[prob.dist_budget]]
        if perception == _EQUAL:
            target = dict(prob.source.atoms)
            eq.append(marg)
            b_eq.append([target.get(lab, 0.0) for lab in prob.output_alphabet])
        elif perception == _TV_SLACK:
            # q_j - t_j <= p_j and -q_j - t_j <= -p_j, then sum(t) / 2 <= P
            tv = np.empty((2 * k, n + k))
            tv[0::2] = np.hstack([marg, -np.eye(k)])
            tv[1::2] = np.hstack([-marg, -np.eye(k)])
            ub += [tv, np.concatenate([np.zeros(n), np.full(k, 0.5)])[None, :]]
            b_ub += [np.column_stack([p, -p]).ravel(), [prob.perc_budget]]
        elif perception == _COUPLING:
            # coupling rows sum to p_X, its columns to the output law
            eq.append(np.hstack([np.zeros((m, n)), np.kron(np.eye(m), np.ones(k))]))
            eq.append(np.hstack([-marg, np.kron(np.ones(m), np.eye(k))]))
            b_eq += [p, np.zeros(k)]
            cost = prob.perception_cost_matrix().ravel()
            ub.append(np.concatenate([np.zeros(n), cost])[None, :])
            b_ub.append([prob.perc_budget])
        self.a_eq = np.vstack(eq)
        self.b_eq = np.concatenate(b_eq)
        self.a_ub = np.vstack(ub)
        self.b_ub = np.concatenate(b_ub)

    def minimize(self, grad: np.ndarray | None) -> np.ndarray | None:
        """Vertex minimizing <grad, v>; None when the polytope is empty."""
        c = np.zeros(self.a_eq.shape[1])
        if grad is not None:
            c[: self.n] = grad.ravel()
        res = linprog(
            c,
            A_ub=self.a_ub,
            b_ub=self.b_ub,
            A_eq=self.a_eq,
            b_eq=self.b_eq,
            bounds=(0.0, None),
            method="highs",
        )
        if not res.success:
            return None
        return res.x[: self.n].reshape(self.shape)


def _channel_polytope(prob: RdpProblem, perception: str | None) -> _Polytope:
    """The feasible channels p(xhat|x), as m*k row-major variables."""
    p = prob.source.probs
    m, k = prob.distortion.shape
    marg = np.kron(p, np.eye(k))
    dist_row = (p[:, None] * prob.distortion).ravel()
    return _Polytope(prob, marg, np.kron(np.eye(m), np.ones(k)), dist_row, perception)


def _zero_rate_channel(prob: RdpProblem, perception: str) -> np.ndarray | None:
    """Feasible product channel p(xhat|x) = q(xhat), which has rate zero."""
    k = len(prob.output_alphabet)
    dist_row = prob.source.probs @ prob.distortion
    q = _Polytope(prob, np.eye(k), np.ones((1, k)), dist_row, perception).minimize(None)
    if q is None:
        return None
    q = np.clip(q, 0.0, None)
    return np.tile(q / q.sum(), (len(prob.source.atoms), 1))


# ---------------------------------------------------------------------------
# Objective and away-step Frank-Wolfe
# ---------------------------------------------------------------------------


def _mi_grad(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    q = np.clip(p @ w, _CLIP, None)
    wc = np.clip(w, _CLIP, None)
    return p[:, None] * np.log2(wc / q[None, :])


def _kl_to_marginal(px: np.ndarray, q: np.ndarray) -> float:
    qc = np.clip(q, _CLIP, None)
    mask = px > 0.0
    return float(np.sum(px[mask] * np.log2(px[mask] / qc[mask])))


class _Objective:
    """Gradient of I(X; Xhat) plus an optional mu * KL(p_X || p_Xhat) penalty."""

    def __init__(self, p: np.ndarray, mu: float = 0.0):
        self.p = p
        self.mu = mu

    def grad(self, w: np.ndarray) -> np.ndarray:
        g = _mi_grad(self.p, w)
        if self.mu > 0.0:
            q = np.clip(self.p @ w, _CLIP, None)
            g = g - self.mu * np.outer(self.p, self.p / (q * _LOG2))
        return g


def _line_search(obj: _Objective, w: np.ndarray, d: np.ndarray, t_max: float) -> float:
    """Exact minimization of the convex 1-D restriction via derivative bisection."""

    def dphi(t: float) -> float:
        return float(np.sum(obj.grad(w + t * d) * d))

    if dphi(t_max) <= 0.0:
        return t_max
    lo, hi = 0.0, t_max
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dphi(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _frank_wolfe(
    obj: _Objective,
    polytope: _Polytope,
    w0: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float, int]:
    """Away-step Frank-Wolfe; returns (iterate, duality gap, iterations)."""
    atoms: list[np.ndarray] = [w0.copy()]
    weights: list[float] = [1.0]
    w = w0.copy()
    gap = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        g = obj.grad(w)
        s = polytope.minimize(g)
        if s is None:
            raise RuntimeError("LP subproblem became infeasible")
        gap = float(np.sum(g * (w - s)))
        if gap < tol:
            break
        scores = [float(np.sum(g * a)) for a in atoms]
        vi = int(np.argmax(scores))
        away_gap = scores[vi] - float(np.sum(g * w))
        if gap >= away_gap or weights[vi] >= 1.0 - 1e-12:
            d = s - w
            t = _line_search(obj, w, d, 1.0)
            if t <= 0.0:
                break
            weights = [x * (1.0 - t) for x in weights]
            key = np.round(s, 12).tobytes()
            for i, a in enumerate(atoms):
                if np.round(a, 12).tobytes() == key:
                    weights[i] += t
                    break
            else:
                atoms.append(s)
                weights.append(t)
        else:
            d = w - atoms[vi]
            t_max = weights[vi] / (1.0 - weights[vi])
            t = _line_search(obj, w, d, t_max)
            if t <= 0.0:
                break
            weights = [x * (1.0 + t) for x in weights]
            weights[vi] -= t
        w = w + t * d
        # prune dead atoms and merge duplicates to keep the active set small
        keep = [i for i, x in enumerate(weights) if x > 1e-14]
        atoms = [atoms[i] for i in keep]
        weights = [weights[i] for i in keep]
        if it % 32 == 0:
            total = sum(weights)
            weights = [x / total for x in weights]
            w = sum(x * a for x, a in zip(weights, atoms))
    return np.clip(w, 0.0, None), gap, it


# ---------------------------------------------------------------------------
# Public solver entry points
# ---------------------------------------------------------------------------


def solve_rdp(prob: RdpProblem, opts: SolverOptions | None = None) -> RdpSolution:
    """Minimize I(X; Xhat) subject to the distortion and perception budgets."""
    opts = opts or SolverOptions()
    perception = _perception(prob)
    if perception is None:
        p = prob.source.probs
        if p @ prob.distortion @ p <= prob.dist_budget:
            # the product channel q = p_X meets D and has KL(p_X || q) = 0
            return _finish(prob, np.tile(p, (len(p), 1)), 0.0, 0, OPTIMAL)
        return _solve_kl_dual(prob, opts)
    zr = _zero_rate_channel(prob, perception)
    if zr is not None:
        return _finish(prob, zr, 0.0, 0, OPTIMAL)
    polytope = _channel_polytope(prob, perception)
    w0 = polytope.minimize(None)
    if w0 is None:
        return _infeasible(prob)
    obj = _Objective(prob.source.probs)
    w, gap, it = _frank_wolfe(obj, polytope, w0, opts.tol, opts.max_iter)
    status = OPTIMAL if gap < opts.tol else ITER_LIMIT
    return _finish(prob, w, gap, it, status)


def _solve_kl_dual(prob: RdpProblem, opts: SolverOptions) -> RdpSolution:
    """Dual bisection on the KL-perception multiplier, Frank-Wolfe inner solves."""
    p = prob.source.probs
    min_dist = float(np.sum(p * prob.distortion.min(axis=1)))
    if min_dist > prob.dist_budget + opts.feas_tol:
        return _infeasible(prob)
    polytope = _channel_polytope(prob, None)
    w0 = polytope.minimize(None)
    if w0 is None:
        return _infeasible(prob)
    inner_tol = opts.tol / 4.0
    cache: dict[float, tuple[np.ndarray, float, int]] = {}
    total_iters = 0

    def inner(mu: float, start: np.ndarray):
        nonlocal total_iters
        if mu not in cache:
            w, gap, it = _frank_wolfe(
                _Objective(p, mu), polytope, start, inner_tol, opts.max_iter
            )
            total_iters += it
            cache[mu] = (w, _kl_to_marginal(p, p @ w), gap)
        return cache[mu]

    w, kl, gap = inner(0.0, w0)
    if kl <= prob.perc_budget:
        status = OPTIMAL if gap < opts.tol else ITER_LIMIT
        return _finish(prob, w, gap, total_iters, status)
    mu_lo, mu_hi = 0.0, 1.0
    for _ in range(64):
        _, kl_hi, _ = inner(mu_hi, w)
        if kl_hi <= prob.perc_budget:
            break
        mu_lo, mu_hi = mu_hi, mu_hi * 2.0
    else:
        # not even a huge multiplier drives the divergence below budget
        return _infeasible(prob)
    for _ in range(200):
        slack = mu_hi * max(0.0, prob.perc_budget - cache[mu_hi][1])
        if slack + cache[mu_hi][2] < opts.tol or mu_hi - mu_lo < 1e-12 * mu_hi:
            break
        mid = 0.5 * (mu_lo + mu_hi)
        _, kl_mid, _ = inner(mid, cache[mu_hi][0])
        if kl_mid <= prob.perc_budget:
            mu_hi = mid
        else:
            mu_lo = mid
    w, kl, inner_gap = cache[mu_hi]
    gap_est = inner_gap + mu_hi * max(0.0, prob.perc_budget - kl)
    status = OPTIMAL if gap_est < 10.0 * opts.tol else ITER_LIMIT
    return _finish(prob, w, gap_est, total_iters, status)


def _finish(prob, w, gap, iterations, status) -> RdpSolution:
    w = np.clip(w, 0.0, None)
    w = w / w.sum(axis=1, keepdims=True)
    channel = Channel(prob.source.labels, prob.output_alphabet, w)
    p = prob.source.probs
    rate = mutual_information_matrix(p, channel.matrix)
    achieved_d = float(np.sum(p[:, None] * channel.matrix * prob.distortion))
    q = Pmf.from_probs(prob.output_alphabet, p @ channel.matrix)
    achieved_p = divergence(prob.divergence, prob.source, q)
    return RdpSolution(
        rate=rate,
        channel=channel,
        achieved_dist=achieved_d,
        achieved_perc=achieved_p,
        status=status,
        primal_gap_estimate=float(gap),
        iterations=iterations,
    )


def _infeasible(prob: RdpProblem) -> RdpSolution:
    k = len(prob.output_alphabet)
    uniform = np.full((len(prob.source.atoms), k), 1.0 / k)
    channel = Channel(prob.source.labels, prob.output_alphabet, uniform)
    p = prob.source.probs
    q = Pmf.from_probs(prob.output_alphabet, p @ uniform)
    return RdpSolution(
        rate=math.inf,
        channel=channel,
        achieved_dist=float(np.sum(p[:, None] * uniform * prob.distortion)),
        achieved_perc=divergence(prob.divergence, prob.source, q),
        status=INFEASIBLE,
        primal_gap_estimate=math.inf,
        iterations=0,
    )


def sweep_curve(
    prob_template: RdpProblem,
    dist_grid,
    perc_grid=None,
    opts: SolverOptions | None = None,
) -> list[tuple[float, float, RdpSolution]]:
    """Solve over a sorted (D, P) grid, one instance per point.

    An infeasible point is recorded with status `infeasible` and the sweep
    continues; a solver error propagates and stops the sweep.
    """
    dist_grid = list(dist_grid)
    perc_grid = list(perc_grid) if perc_grid is not None else [prob_template.perc_budget]
    if not dist_grid or not perc_grid:
        raise ValueError("grids must be nonempty")
    if sorted(dist_grid) != dist_grid or sorted(perc_grid) != perc_grid:
        raise ValueError("grids must be sorted ascending")
    out = []
    for perc in perc_grid:
        for dist in dist_grid:
            prob = replace(prob_template, dist_budget=dist, perc_budget=perc)
            out.append((float(dist), float(perc), solve_rdp(prob, opts)))
    return out


# ---------------------------------------------------------------------------
# Classic rate-distortion on a gridded output alphabet (Csiszar's dual)
# ---------------------------------------------------------------------------

# the returned grid R(D) is within this many bits of the grid optimum
_CERT_BITS = 1e-7
_WEIGHT_FLOOR = 1e-6  # least barrier weight of a grid point
_WEIGHT_DECAY = 0.1  # a weight falls at most this factor per barrier round
_T_GROWTH = 10.0  # barrier parameter growth per round
_STEP_CAP = 4.0  # largest move of one u_x in one Newton step
_MAX_ROUNDS = 14
_MAX_STEPS = 100  # Newton steps per barrier round


class GridInfeasibleError(ValueError):
    """The distortion target is below the best achievable on the output grid."""


def rd_function_grid(p_x: Pmf, output_atoms, cost, dist: float) -> float:
    """Classical R(D) on a finite output grid, in bits, certified to 1e-7.

    Solves Csiszar's dual: maximize sum_x p_x u_x - s D over u and s > 0
    subject to log sum_x p_x exp(u_x - s Delta(x, y)) <= 0 at every grid
    point y.  The value returned is the rate of an explicit channel with
    expected cost at most `dist`; a dual-feasible (u, s) from the same solve
    certifies it within `_CERT_BITS` of the grid optimum, or RuntimeError
    is raised.
    """
    if math.isnan(dist):
        raise ValueError("distortion budget must be a number, got nan")
    p = p_x.probs
    cmat = _distortion_matrix(cost, p_x.labels, list(output_atoms))
    d_floor = float(np.sum(p * cmat.min(axis=1)))
    if dist < d_floor - 1e-12:
        raise GridInfeasibleError(
            f"target {dist} below grid floor {d_floor}"
        )
    if dist >= float(np.min(p @ cmat)):
        return 0.0
    keep = p > 0.0  # atoms without mass have no dual variable (log 0)
    p = p[keep]
    excess = cmat[keep] - cmat[keep].min(axis=1, keepdims=True)
    if dist <= d_floor + 1e-12:
        # the floor is the limit s -> inf: each x may use its least-cost points only
        return _csiszar_dual(p, np.where(excess == 0.0, 0.0, np.inf), None)
    # costs above each row's least, in units of the zero-rate distortion
    scale = float(np.min(p @ excess))
    return _csiszar_dual(p, excess / scale, (dist - d_floor) / scale)


def _csiszar_dual(p, cmat, dist) -> float:
    """Certified rate, in bits, by a weighted barrier method on Csiszar's dual.

    `cmat` has a zero in every row.  `dist=None` is the floor: `cmat` is
    zero on the pairs the channel may use and infinite elsewhere, and s is
    fixed at one and dropped from the variables.

    Centring minimizes t (s D - p.u) - sum_y w_y log(-g_y) - log s by damped
    Newton steps.  At a centre, nu_y = w_y / (t (-g_y)) is the output law and
    J = pi diag(nu) the joint law of the primal channel, with pi_.y the
    softmax inside g_y.  The weights start at w_y = -g_y q_y, with q the
    output law of one alternating-minimization step from the uniform law,
    which centres the first point in u at t = 1; they then follow nu, so
    that grid points without mass stop costing 1/t each in the duality
    gap.  Each round multiplies t by `_T_GROWTH`.
    """
    cmat = cmat[:, np.isfinite(cmat).any(axis=0)]
    m = len(p)
    free_s = dist is not None
    log_p = np.log(p)[:, None]

    def constraints(u, s):
        """g_y and the softmax pi over x inside each g_y."""
        logw = log_p + u[:, None] - s * cmat
        top = logw.max(axis=0)
        e = np.exp(logw - top)
        tot = e.sum(axis=0)
        return top + np.log(tot), e / tot

    def feasible_u(s):
        """Dual value and u of the uniform output law at slope s, feasible."""
        u = -np.log(np.mean(np.exp(-s * cmat), axis=1))
        u -= constraints(u, s)[0].max()
        return p @ u - s * (dist if free_s else 0.0), u

    def newton_step(u, s, g, pi, weights, t):
        """Newton direction and decrement of the centring objective."""
        w = weights / (-g)
        # columns: grad g_y; cmat is finite whenever s is free
        grads = np.vstack([pi, -np.sum(pi * cmat, axis=0)]) if free_s else pi
        grad = grads @ w
        grad[:m] -= t * p
        hess = (grads * (w * w / weights - w)) @ grads.T
        hess[np.arange(m), np.arange(m)] += pi @ w
        if free_s:
            grad[m] += t * dist - 1.0 / s
            cross = (pi * cmat) @ w
            hess[:m, m] -= cross
            hess[m, :m] -= cross
            hess[m, m] += (pi * cmat * cmat).sum(axis=0) @ w + 1.0 / (s * s)
        try:
            dz = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            dz = -np.linalg.lstsq(hess, grad, rcond=None)[0]
        return dz, float(-grad @ dz)

    s = 1.0
    if free_s:
        slopes = 2.0 ** np.arange(-4, 40)
        s = float(slopes[int(np.argmax([feasible_u(x)[0] for x in slopes]))])
    u = feasible_u(s)[1] - 1.0
    g, pi = constraints(u, s)
    chan = np.exp(-s * cmat)
    weights = np.maximum(-g * (p @ (chan / chan.sum(axis=1, keepdims=True))), _WEIGHT_FLOOR)
    t = 1.0
    gap = math.inf
    for _ in range(_MAX_ROUNDS):
        centred = False
        prev_dec = math.inf
        for _ in range(_MAX_STEPS):
            dz, dec = newton_step(u, s, g, pi, weights, t)
            # the decrement is at round-off once it stops falling
            if dec < 1e-20 or (dec >= prev_dec and dec < 1e-8):
                centred = True
                break
            prev_dec = dec
            # exp(u) is far from its quadratic model: cap the moves of u and s
            a = 1.0 / max(1.0, float(np.abs(dz[:m]).max()) / _STEP_CAP, abs(dz[m]) / s if free_s else 0.0)
            while a > 1e-12:
                u_new = u + a * dz[:m]
                s_new = s + a * dz[m] if free_s else s
                if s_new > 0.0:
                    g_new, pi_new = constraints(u_new, s_new)
                    if np.all(g_new < 0.0):
                        # barrier change over t, from ratios so that it stays exact at large t
                        df = -a * (p @ dz[:m]) - (weights @ np.log(g_new / g)) / t
                        if free_s:
                            df += a * dz[m] * dist - math.log(s_new / s) / t
                        # a round-off-sized decrement takes the full step
                        if dec < 1e-6 or df <= -0.25 * a * dec / t:
                            break
                a *= 0.5
            else:
                centred = dec < 1e-8  # backtracking makes no progress
                break
            u, s, g, pi = u_new, s_new, g_new, pi_new
        nu = weights / (t * (-g))
        rate, lower = _grid_certificate(p, cmat, u, s, g, pi, nu, dist)
        gap = rate - lower
        if gap <= _CERT_BITS:
            return rate
        if centred:
            weights = np.maximum(np.maximum(nu, _WEIGHT_DECAY * weights), _WEIGHT_FLOOR)
            t *= _T_GROWTH
    raise RuntimeError(f"grid R(D) not certified: duality gap {gap:.3g} bits at t = {t:.3g}")


def _grid_certificate(p, cmat, u, s, g, pi, nu, dist) -> tuple[float, float]:
    """(rate of an explicit channel, dual lower bound), both in bits.

    Lowering every u_x by max(g) makes (u, s) dual-feasible.  The channel
    is J = pi diag(nu) with its rows normalized; when that overshoots the
    budget it is mixed with the least-cost channel, whose cost is zero.
    """
    lower = (p @ u - s * (dist if dist is not None else 0.0) - max(0.0, float(g.max()))) / _LOG2
    joint = pi * nu
    chan = joint / joint.sum(axis=1, keepdims=True)
    if dist is not None:
        d_chan = float(p @ np.sum(chan * cmat, axis=1))
        if d_chan > dist:
            least = np.zeros_like(chan)
            least[np.arange(len(p)), np.argmin(cmat, axis=1)] = 1.0
            theta = (d_chan - dist) / d_chan
            chan = (1.0 - theta) * chan + theta * least
    return mutual_information_matrix(p, chan), lower


# ---------------------------------------------------------------------------
# Exhaustive oracle for binary sources
# ---------------------------------------------------------------------------


def brute_force_rdp(prob: RdpProblem, resolution: float = 1e-3) -> float:
    """Grid search over binary-input channels; the solver's independent oracle.

    Returns the minimum feasible mutual information, or +inf when no grid
    point is feasible.  Guaranteed within O(resolution) of the optimum away
    from degenerate boundaries; output alphabets of size up to 3.
    """
    m = len(prob.source.atoms)
    k = len(prob.output_alphabet)
    if m != 2:
        raise ValueError("brute force supports binary sources only")
    if k == 2:
        best = _brute_binary(prob, resolution)
        if best is None:
            return math.inf
        # refine around the coarse minimizer
        a0, b0, val = best
        window = 4.0 * resolution
        fine = _brute_binary(
            prob,
            resolution / 40.0,
            a_range=(max(0.0, a0 - window), min(1.0, a0 + window)),
            b_range=(max(0.0, b0 - window), min(1.0, b0 + window)),
        )
        return val if fine is None else min(val, fine[2])
    if k == 3:
        return _brute_ternary(prob, max(resolution, 0.02))
    raise ValueError("output alphabet too large for brute force")


def _brute_binary(prob, res, a_range=(0.0, 1.0), b_range=(0.0, 1.0)):
    p = prob.source.probs
    delta = prob.distortion
    n_a = max(2, int(round((a_range[1] - a_range[0]) / res)) + 1)
    n_b = max(2, int(round((b_range[1] - b_range[0]) / res)) + 1)
    a = np.linspace(a_range[0], a_range[1], n_a)
    if prob.perc_budget == 0.0:
        # marginal equality pins b to a; outputs must carry the source labels
        target = {lab: pr for lab, pr in prob.source.atoms}
        if set(prob.output_alphabet) != set(prob.source.labels):
            return None
        t1 = target[prob.output_alphabet[1]]
        b = (p[0] * a + p[1] - t1) / p[1]
        ok = (b >= 0.0) & (b <= 1.0)
        a, b = a[ok], b[ok]
        if a.size == 0:
            return None
        aa, bb = a, b
    else:
        b = np.linspace(b_range[0], b_range[1], n_b)
        aa, bb = np.meshgrid(a, b, indexing="ij")
        aa, bb = aa.ravel(), bb.ravel()
    w01, w10 = aa, bb
    w00, w11 = 1.0 - w01, 1.0 - w10
    e_d = p[0] * (w00 * delta[0, 0] + w01 * delta[0, 1]) + p[1] * (
        w10 * delta[1, 0] + w11 * delta[1, 1]
    )
    q1 = p[0] * w01 + p[1] * w11
    q0 = 1.0 - q1
    feasible = e_d <= prob.dist_budget + 1e-12
    if prob.perc_budget > 0.0:
        perc = _binary_divergence_grid(prob, q0, q1)
        feasible &= perc <= prob.perc_budget + 1e-12
    if not np.any(feasible):
        return None
    joint = np.stack(
        [p[0] * w00, p[0] * w01, p[1] * w10, p[1] * w11], axis=0
    )
    qs = np.stack([q0, q1, q0, q1], axis=0)
    ps = np.array([p[0], p[0], p[1], p[1]])[:, None]
    terms = np.where(joint > 0.0, joint * np.log2(np.clip(joint, 1e-300, None) / np.clip(ps * qs, 1e-300, None)), 0.0)
    mi = np.clip(terms.sum(axis=0), 0.0, None)
    mi = np.where(feasible, mi, np.inf)
    idx = int(np.argmin(mi))
    return float(w01[idx]), float(w10[idx]), float(mi[idx])


def _binary_divergence_grid(prob, q0, q1):
    px = prob.source.probs
    kind = prob.divergence.kind
    if kind == TV:
        return 0.5 * (np.abs(q0 - px[0]) + np.abs(q1 - px[1]))
    if kind == KL:
        with np.errstate(divide="ignore"):
            t0 = np.where(px[0] > 0, px[0] * (np.log2(px[0]) - np.log2(q0)), 0.0)
            t1 = np.where(px[1] > 0, px[1] * (np.log2(px[1]) - np.log2(q1)), 0.0)
        return t0 + t1
    cost = prob.perception_cost_matrix()
    # 2x2 transport is linear in the free joint entry: check both endpoints
    lo = np.maximum(0.0, px[1] + q1 - 1.0)
    hi = np.minimum(px[1], q1)

    def cost_at(t):
        return (
            cost[0, 0] * (1.0 - px[1] - q1 + t)
            + cost[0, 1] * (q1 - t)
            + cost[1, 0] * (px[1] - t)
            + cost[1, 1] * t
        )

    return np.minimum(cost_at(lo), cost_at(hi))


def _brute_ternary(prob, res):
    p = prob.source.probs
    delta = prob.distortion
    grid = np.arange(0.0, 1.0 + res / 2, res)
    rows = [
        (x, y, 1.0 - x - y)
        for x in grid
        for y in grid
        if x + y <= 1.0 + 1e-12
    ]
    rows = [(x, y, max(z, 0.0)) for x, y, z in rows]
    best = math.inf
    rows_arr = np.array(rows)
    for r0 in rows_arr:
        w = np.empty((2, 3))
        w[0] = r0
        e0 = p[0] * float(r0 @ delta[0])
        cand = p[1] * (rows_arr @ delta[1])
        e_d = e0 + cand
        q = p[0] * r0[None, :] + p[1] * rows_arr
        feasible = e_d <= prob.dist_budget + 1e-12
        if prob.perc_budget == 0.0:
            target = np.array(
                [dict(prob.source.atoms).get(lab, 0.0) for lab in prob.output_alphabet]
            )
            feasible &= np.max(np.abs(q - target[None, :]), axis=1) <= res
        else:
            pvals = np.array(
                [
                    divergence(
                        prob.divergence,
                        prob.source,
                        Pmf.from_probs(prob.output_alphabet, qrow / qrow.sum()),
                    )
                    for qrow in q
                ]
            )
            feasible &= pvals <= prob.perc_budget + 1e-12
        if not np.any(feasible):
            continue
        mi = _mi_rows(p, r0, rows_arr, q)
        mi = np.where(feasible, mi, np.inf)
        best = min(best, float(np.min(mi)))
    return best


def _mi_rows(p, r0, rows, q):
    out = np.zeros(len(rows))
    for col in range(rows.shape[1]):
        j0 = p[0] * r0[col]
        j1 = p[1] * rows[:, col]
        qc = np.clip(q[:, col], 1e-300, None)
        t0 = np.where(j0 > 0.0, j0 * np.log2(np.clip(j0, 1e-300, None) / (p[0] * qc)), 0.0)
        t1 = np.where(j1 > 0.0, j1 * np.log2(np.clip(j1, 1e-300, None) / (p[1] * qc)), 0.0)
        out += t0 + t1
    return np.clip(out, 0.0, None)
