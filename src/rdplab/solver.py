"""Numerical computation of the rate-distortion-perception function.

Minimizes I(X; Xhat) over channels subject to a distortion budget
E[Delta] <= D and a perception budget d(p_X, p_Xhat) <= P.  One engine,
numpy only, serves every divergence kind and the classical R(D) on a
gridded output alphabet: weighted barrier Newton on Csiszar's dual (IEEE
Trans. IT 1974), in nats,

    maximize p.u - s D - sigma(v)
    subject to log sum_x p_x exp(u_x - s Delta(x, y)) <= v_y for every y,

with sigma(v) = max{v.q : d(p_X, q) <= P} the support function of the
perception ball.  The grid R(D) has no ball (v = 0).  At P = 0 the ball is
the one law q = p_X, sigma(v) = q.v and v is eliminated: the dual is smooth.
Total variation (the least P(X != Xhat) over couplings), squared
Wasserstein and coupling costs give sigma(v) = min over lam >= 0 of
lam P + sum_x p_x max_y (v_y - lam C(x, y)), carried by lam and one epigraph
variable per x.  Kullback-Leibler gives sigma(v) <= -exp(-P) prod_x
(-v_x)^p_x for v < 0, the budget's multiplier eliminated.

The engine sees the ball as an object, one class per kind: `_Ball` has no
variables (the grid R(D), or with `law` the fixed law of P = 0),
`_CouplingBall` serves TV, W2 and coupling costs, and `_KlBall` KL.  Each
gives its variables' start, cost and gauge, its slacks with its barrier's
gradient and Hessian, its smooth term (KL's), support(v) and perception(q).
The engine tests no kind.  It has two modes, and both change the (u, s)
block: the fixed law removes v, and the floor fixes the slope s.

Every solve, `solve_rdp`'s and `rd_function_grid`'s, enters the engine
through one reduction, `_reduced_dual`: atoms without mass and outputs a
fixed law leaves empty drop out, and the costs become each row's excess over
its least, scaled by the zero-rate distortion.  One floor rule holds for
both: within 1e-12 of D_min = sum_x p_x min_y Delta(x, y) the slope is fixed
and each atom keeps only its least-cost outputs.  (With matching alphabets
D_min = 0, and `solve_rdp` answers there with the identity channel.)

Each barrier round centres the weighted barrier problem at a larger t: with
a barrier the first at t = 10 and each next at a twentyfold larger t, and
the one round of a fixed law at t = 1 (Boyd and Vandenberghe, Convex
Optimization, 11.3, leave both free).  A round whose barrier gap bound is
already at most the target (or the last round, or any round at P = 0)
centres until the Newton decrement is at round-off and tries a
certificate; every earlier round stops at a decrement of 1e-7, since its
centre only starts the next round.  A Newton step whose cap would leave no
trial step holds, for that step, the coordinates whose move alone forces
it (u_x of a near-massless atom).

A solve returns the rate of an explicit channel, the centre's joint law
repaired with a reference channel until both budgets hold, and a dual lower
bound from the same point: their difference is the certified gap, never
negative, since the optimum lies between them and only round-off can put the
bound above the rate.  The reference is the identity when the output
alphabet is the source's.  A product channel (rate zero) is tried first, in
closed form: the output law of least expected distortion in the ball (for
KL, on the support of p_X: q proportional to p_X / (a + c), a = p_X Delta,
c by bisection).  scipy is imported lazily and for one job: when the output
alphabet differs from the source labels, one HiGHS LP finds the
least-distortion channel within the perception budget, which decides
feasibility and is the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, partial
from typing import ClassVar

import numpy as np

from .divergences import (
    COUPLING_COST,
    KL,
    TV,
    WASSERSTEIN_SQ,
    DivergenceSpec,
    divergence,
    require_vanishing_diagonal,
)
from .pmf import Channel, Pmf, _distortion_matrix, _real_values, mutual_information_matrix

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITER_LIMIT = "iter_limit"

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-6  # certified duality-gap target, in bits
    feas_tol: ClassVar[float] = 1e-9  # slack on both budgets in the feasibility tests

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")


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
        if len(set(out)) != len(out):
            raise ValueError(f"the output alphabet {out} repeats a label")
        object.__setattr__(self, "output_alphabet", out)
        m, k = len(self.source.atoms), len(out)
        if m > 256 or k > 256:
            raise ValueError("alphabets beyond 256 symbols are out of scope")
        delta = _distortion_matrix(self.distortion, self.source.labels, out)
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
        if self.divergence.kind in (TV, KL) and out != self.source.labels:
            raise ValueError(f"{self.divergence.kind} needs matching alphabets")
        if self.divergence.kind == COUPLING_COST:
            if self.divergence.cost.shape != (m, k):
                raise ValueError("perception cost matrix shape does not match alphabets")
            require_vanishing_diagonal(self.divergence, self.source.labels, out)
        if self.divergence.kind == WASSERSTEIN_SQ:
            self.source.real_values()
            _real_values(out)

    def perception_cost_matrix(self) -> np.ndarray | None:
        """Cost matrix whose least coupling cost is the perception (None for KL)."""
        if self.divergence.kind == TV:
            return 1.0 - np.eye(len(self.source.atoms))
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
# Public solver entry points
# ---------------------------------------------------------------------------


def solve_rdp(prob: RdpProblem, opts: SolverOptions | None = None) -> RdpSolution:
    """Minimize I(X; Xhat) subject to the distortion and perception budgets.

    P = 0 fixes the output law to p_X for every divergence kind.  So for a
    coupling cost with a zero off-diagonal entry, R(D, 0) lies above the
    limit of R(D, P) as P -> 0: for Bernoulli(0.25) with Hamming distortion
    at D = 0.2 and the all-zero cost, P = 0 gives 0.14366 bits and
    P = 1e-12 gives 0.08935, the classical R(D).

    `status` is `optimal` when the certified gap, `primal_gap_estimate`, is
    at most `opts.tol` bits, `iter_limit` (with a channel that meets both
    budgets) when the barrier rounds ran out first, and `infeasible` when no
    channel meets both budgets, with a witness channel: the least-cost one,
    or the least-distortion one within P.  `iterations` counts Newton steps.
    """
    opts = opts or SolverOptions()
    p, delta = prob.source.probs, prob.distortion
    dist, perc = prob.dist_budget, prob.perc_budget
    if p @ delta.min(axis=1) > dist + opts.feas_tol:
        return _finish(prob, _least_cost(delta), math.inf, 0, INFEASIBLE)
    matching = prob.output_alphabet == prob.source.labels
    if matching:
        ref = np.eye(len(p))
    else:
        ref = _least_distortion_channel(prob)
        if ref is None or p @ np.sum(ref * delta, axis=1) > dist + opts.feas_tol:
            return _finish(prob, _least_cost(delta) if ref is None else ref, math.inf, 0, INFEASIBLE)
    keep = p > 0.0  # the ball's atoms: those with mass
    pk = p[keep]
    a = p @ delta
    law = _target_law(prob) if perc == 0.0 else None

    def perception(q):
        return divergence(prob.divergence, prob.source, Pmf.from_probs(prob.output_alphabet, q))

    # the ball's output law q of least distortion (None: none is tried), and
    # the ball, built only once the zero-rate answers below are passed
    if law is not None:
        q, ball = law, partial(_Ball, law)
    elif prob.divergence.kind == KL:
        q = _kl_least_law(prob, a)
        ball = partial(_KlBall, pk, np.flatnonzero(keep), len(a), perc, perception)
    else:
        cost = prob.perception_cost_matrix()[keep]
        q = _coupling_support(pk, cost, perc, -a)[1]
        ball = partial(_CouplingBall, pk, cost, perc, perception)
    # the product channel of that law has rate zero
    if q is not None and a @ q <= dist:
        return _finish(prob, np.tile(q, (len(p), 1)), 0.0, 0, OPTIMAL)
    if matching and dist <= 1e-12:
        # at the floor (to 1e-12, as for every solve) only the identity is left
        return _finish(prob, ref, 0.0, 0, OPTIMAL)
    w, _, gap, steps = _reduced_dual(p, delta, dist, ref, opts.tol, ball())
    return _finish(prob, w, gap, steps, OPTIMAL if gap <= opts.tol else ITER_LIMIT)


def _finish(prob, w, gap, iterations, status) -> RdpSolution:
    channel, q = _output_law(prob, w)
    p = prob.source.probs
    return RdpSolution(
        rate=math.inf if status == INFEASIBLE else mutual_information_matrix(p, channel.matrix),
        channel=channel,
        achieved_dist=float(np.sum(p[:, None] * channel.matrix * prob.distortion)),
        achieved_perc=divergence(prob.divergence, prob.source, q),
        status=status,
        primal_gap_estimate=math.inf if status == INFEASIBLE else float(gap),
        iterations=iterations,
    )


def _output_law(prob, w) -> tuple[Channel, Pmf]:
    """The channel of a nonnegative kernel, its rows normalized, and its output law."""
    w = np.clip(w, 0.0, None)
    channel = Channel(prob.source.labels, prob.output_alphabet, w / w.sum(axis=1, keepdims=True))
    return channel, Pmf.from_probs(prob.output_alphabet, prob.source.probs @ channel.matrix)


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
    d_floor = float(p @ cmat.min(axis=1))
    if dist < d_floor - 1e-12:
        raise GridInfeasibleError(f"target {dist} below grid floor {d_floor}")
    if dist >= float(np.min(p @ cmat)):
        return 0.0
    _, rate, gap, _ = _reduced_dual(p, cmat, dist, _least_cost(cmat), _CERT_BITS, _Ball())
    if gap > _CERT_BITS:
        raise RuntimeError(f"grid R(D) not certified: duality gap {gap:.3g} bits")
    return rate


class GridInfeasibleError(ValueError):
    """The distortion target is below the best achievable on the output grid."""


# ---------------------------------------------------------------------------
# The perception ball: its LP, its support function, its dual variables
# ---------------------------------------------------------------------------


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _target_law(prob: RdpProblem) -> np.ndarray:
    """The output law that P = 0 pins: the source law, read by label."""
    target = dict(prob.source.atoms)
    return np.array([target.get(lab, 0.0) for lab in prob.output_alphabet])


def _kl_least_law(prob, a):
    """The law of least a.q on the support of p_X within the KL budget, or None
    when no law there can meet the distortion budget.

    The least is q proportional to p / (a + c), which runs from p (c = inf)
    to p on the least a (c = -min a, where KL is infinite): with a scaled to
    b in [0, 1], q_t is proportional to p / (1 - t + t b), found by bisection
    on t in [0, 1).  The side kept must meet the budget as `_finish` measures
    the product channel; when round-off carries the plain KL sum's answer
    over, the bisection runs again on that measure.
    """
    p, dist, budget = prob.source.probs, prob.dist_budget, prob.perc_budget
    if p @ a <= dist:
        return p
    on = p > 0.0
    lo_a, hi_a = a[on].min(), a[on].max()
    if lo_a > dist or lo_a == hi_a:  # with equal a, every law costs what p does
        return None
    b = (a[on] - lo_a) / (hi_a - lo_a)

    def law(t):
        q = np.zeros(len(p))
        q[on] = p[on] / (1.0 - t + t * b)
        return q / q.sum()

    def measured(t):
        q = _output_law(prob, np.tile(law(t), (len(p), 1)))[1]
        return divergence(prob.divergence, prob.source, q) <= budget

    def bisect(within):
        lo, hi = 0.0, 1.0
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if within(mid) else (lo, mid)
        return lo

    t = bisect(lambda t: p[on] @ np.log2(p[on] / law(t)[on]) <= budget)
    return law(t if measured(t) else bisect(measured))


def _least_cost(cmat: np.ndarray) -> np.ndarray:
    """The channel sending each input to its least-cost output."""
    least = np.zeros(cmat.shape)
    least[np.arange(len(cmat)), np.argmin(cmat, axis=1)] = 1.0
    return least


def _least_distortion_channel(prob: RdpProblem) -> np.ndarray | None:
    """The least-distortion channel within the perception budget, by one LP;
    None when no channel meets it.  Only other output alphabets need it."""
    p = prob.source.probs
    m, k = prob.distortion.shape
    n = m * k
    marg = np.kron(p, np.eye(k))  # the output law of the m*k channel entries
    rows = np.kron(np.eye(m), np.ones(k))
    c = (p[:, None] * prob.distortion).ravel()
    a_ub = b_ub = None
    if prob.perc_budget == 0.0:
        a_eq = np.vstack([rows, marg])
        b_eq = np.concatenate([np.ones(m), _target_law(prob)])
    else:
        # an embedded coupling of p_X (its rows) and the output law (its columns)
        zero = np.zeros((m, n))
        a_eq = np.block([[rows, zero], [zero, rows], [-marg, np.kron(np.ones(m), np.eye(k))]])
        b_eq = np.concatenate([np.ones(m), p, np.zeros(k)])
        a_ub = np.concatenate([np.zeros(n), prob.perception_cost_matrix().ravel()])[None, :]
        b_ub = [prob.perc_budget]
        c = np.concatenate([c, np.zeros(n)])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
    if not res.success:
        return None
    w = np.clip(res.x[:n].reshape(m, k), 0.0, None)
    return w / w.sum(axis=1, keepdims=True)


def _coupling_support(p, cost, budget, v):
    """max v.q over the laws q within coupling cost `budget` of p, and a maximizer.

    The value is the least over lam >= 0 of lam budget + sum_x p_x max_y
    (v_y - lam cost(x, y)), piecewise linear in lam: walk its breakpoints up
    from lam = 0, each x moving to the cheaper output whose line overtakes
    its choice, and mix the choices either side of the least so that the
    coupling costs `budget`.  The value returned is that dual function, an
    upper bound whatever the round-off; (inf, None) when no coupling fits.
    """
    x = np.arange(len(p))
    y = np.where(v == v.max(), cost, np.inf).argmin(axis=1)  # ties go to the cheaper output
    lam, prev = 0.0, None
    while p @ cost[x, y] > budget:
        spend = cost[x, y][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.maximum((v[y][:, None] - v[None, :]) / (spend - cost), lam)
        cross = np.where(cost < spend, cross, np.inf)
        lam = float(cross.min())
        if lam == math.inf:
            return math.inf, None
        prev = y.copy()
        hit = cross == lam
        rows = hit.any(axis=1)
        y[rows] = np.where(hit, cost, np.inf)[rows].argmin(axis=1)
    q = np.bincount(y, weights=p, minlength=len(v))
    if prev is not None:
        over, under = p @ cost[x, prev], p @ cost[x, y]
        theta = (over - budget) / (over - under)
        q = theta * q + (1.0 - theta) * np.bincount(prev, weights=p, minlength=len(v))
    return lam * budget + p @ np.max(v - lam * cost, axis=1), q


class _Ball:
    """The perception ball as the dual engine sees it; this one has no variables.

    Alone it is no ball (the grid R(D), v = 0), or with `law` the fixed output
    law of P = 0, which eliminates v.  A subclass has variables e, v = e[:k],
    starting at `e0`: the objective gains cost.e + smooth(e), and slacks(e) =
    rows @ e > 0, in a barrier with weights guessed at mult0 * slacks, keeps e
    inside sigma's epigraph; the entries `gauge` of e are held at their start.
    `support(v)` bounds sigma(v) from above, and `perception(q)` is the exact
    divergence of an output law, against `budget` (none here: it reads 0).
    """

    e0 = mult0 = cost = np.zeros(0)
    gauge = np.zeros(0, dtype=int)
    rows = np.zeros((0, 0))
    budget = 0.0
    law = None

    def __init__(self, law=None):
        self.law = law

    def slacks(self, e):
        return self.rows @ e

    def barrier(self, w, r):
        """Gradient and Hessian of -sum_i w_i log slacks_i(e) at r = slacks(e)."""
        return -(self.rows.T @ (w / r)), (self.rows.T * (w / (r * r))) @ self.rows

    def smooth(self, e):
        return 0.0

    def add_smooth(self, grad, hess, e, t, value):
        """Add t times the smooth term's gradient and Hessian at e, where it is `value`."""

    def support(self, v):
        return 0.0

    def perception(self, q):
        return 0.0

    def outputs(self, cols):
        """The ball on the outputs `cols` only.  KL's ball is never narrowed: it
        needs matching alphabets, whose solves keep every output."""
        return self if self.law is None else _Ball(self.law[cols])


class _CouplingBall(_Ball):
    """Variables e = (v, lam, t): t_x >= v_y - lam C(x, y) and lam >= 0, with
    v_0 the gauge (sigma(v + c) = sigma(v) + c)."""

    gauge = np.zeros(1, dtype=int)

    def __init__(self, p, cost, budget, perception):
        m, k = cost.shape
        self.rows = np.zeros((m * k + 1, k + 1 + m))
        self.rows[:-1, :k] = -np.tile(np.eye(k), (m, 1))
        self.rows[:-1, k] = cost.ravel()
        self.rows[:-1, k + 1:] = np.repeat(np.eye(m), k, axis=0)
        self.rows[-1, k] = 1.0
        self.e0 = np.concatenate([np.full(k, -0.5), [1.0], np.zeros(m)])
        self.mult0 = np.concatenate([np.repeat(p / k, k), [1.0]])
        self.cost = np.concatenate([np.zeros(k), [budget], p])
        self.p, self.coupling_cost, self.budget, self.perception = p, cost, budget, perception

    def support(self, v):
        return _coupling_support(self.p, self.coupling_cost, self.budget, v)[0]

    def outputs(self, cols):
        idx, k = np.flatnonzero(cols), len(cols)
        return _CouplingBall(self.p, self.coupling_cost[:, idx], self.budget,
                             lambda q: self.perception(np.bincount(idx, q, k)))


class _KlBall(_Ball):
    """Variables v < 0, the gauge c = 0 of sigma's minimization over c > max v;
    the smooth term is support(v), on the outputs `idx` of the source atoms."""

    def __init__(self, p, idx, k, budget, perception):
        self.rows = -np.eye(k)
        self.e0 = np.full(k, -0.5)
        self.mult0 = np.full(k, _WEIGHT_FLOOR)
        self.cost = np.zeros(k)
        self.p, self.idx, self.budget, self.perception = p, idx, budget, perception

    def smooth(self, e):
        return self.support(e)

    def add_smooth(self, grad, hess, e, t, value):
        # the smooth term is -val, val = exp(-budget) prod_x (-v_x)^p_x
        val, v = -value, e[self.idx]
        ratio = self.p / v
        grad[self.idx] -= t * val * ratio
        curv = ratio[:, None] * ratio  # then minus diag(ratio / v)
        curv.reshape(-1)[:: len(ratio) + 1] -= ratio / v
        hess[self.idx[:, None], self.idx] -= t * val * curv

    def support(self, v):
        return -math.exp(self.p @ np.log(-v[self.idx]) - self.budget * _LOG2)


# ---------------------------------------------------------------------------
# The engine: weighted barrier Newton on Csiszar's dual
# ---------------------------------------------------------------------------

# the returned grid R(D) is within this many bits of the grid optimum
_CERT_BITS = 1e-7
_WEIGHT_FLOOR = 1e-6  # least barrier weight of a row
_WEIGHT_DECAY = 0.1  # a weight falls at most this factor per barrier round
# the barrier parameter of the first round with a barrier, and its growth per
# round.  Costs are in units of the zero-rate distortion, so rounds below t =
# 10 only carried the start to where a later round began anyway; a first
# round at 30 left 5 more grid calls of `tests/extreme_pool.py` uncertified,
# and one at 300 took a k = 32 W2 solve from 104 Newton steps to 780
_T_START = 10.0
_T_GROWTH = 20.0
_STEP_CAP = 4.0  # first cap on one variable's move in a Newton step; doubles when a capped step holds
_MAX_ROUNDS = 14
_MAX_STEPS = 100  # Newton steps per barrier round
# the Newton decrement that ends a round which builds no certificate, whose
# centre only sets the next round's weights and start.  A row of weight w and
# slack r adds w (dr / r)^2 to the decrement, so below a tenth of the weight
# floor every slack, and every multiplier w / (t r) that becomes a weight, is
# within about a third of its centre's.  1e-6 turned 5 `optimal` KL solves
# of `tests/extreme_pool.py`, each with an atom of mass below 3e-6, to
# `iter_limit`
_ROUGH_DECREMENT = 1e-7


def _reduced_dual(p, delta, dist, ref, tol, ball):
    """(channel, rate, gap, Newton steps) of one solve, the way into the engine.

    `p`, `delta` and the reference channel `ref` are on the full alphabets,
    the ball on the atoms with mass.  Atoms without mass have no dual
    variable (log 0) and outputs a fixed law leaves empty have free v_y:
    both drop out.  The costs become each row's excess over its least, in
    units of the zero-rate distortion.  Within 1e-12 of the floor D_min =
    sum_x p_x min_y Delta(x, y) the slope is fixed (s -> inf) and each atom
    keeps only its least-cost outputs: an output no atom keeps leaves the
    costs, the reference and the ball, and a reference row left with no mass
    takes its least-cost output.  Off the floor a dual point (u', s') of the
    reduced problem is (u' + s' f / sigma, s' / sigma) on the full one, f
    the row floors and sigma the scale.  The channel comes back on the full
    alphabets, rows without mass the reference's; the optimum lies in
    [lower, rate], so a negative gap is round-off and reads zero.
    """
    keep = p > 0.0
    cols = ball.law > 0.0 if ball.law is not None else np.ones(delta.shape[1], dtype=bool)
    pk, sub = p[keep], delta[keep][:, cols]
    floor = sub.min(axis=1, keepdims=True)
    excess = sub - floor
    d_floor = float(pk @ floor[:, 0])
    if dist <= d_floor + 1e-12:
        # the limit s -> inf: each x may use its least-cost outputs only
        cmat, dist = np.where(excess == 0.0, 0.0, np.inf), None
    else:
        # costs above each row's least, in units of the zero-rate distortion
        scale = float(np.min(pk @ excess)) or 1.0
        cmat, dist = excess / scale, (dist - d_floor) / scale
    used = np.isfinite(cmat).any(axis=0)  # outputs some atom may use
    cmat = cmat[:, used]
    cols[cols] = used
    if not cols.all():
        ball = ball.outputs(cols)
    ref_k = ref[keep][:, cols]
    empty = ref_k.sum(axis=1) == 0.0
    ref_k[empty] = _least_cost(cmat[empty])
    chan, rate, lower, steps = _csiszar_dual(pk, cmat, dist, ref_k / ref_k.sum(axis=1, keepdims=True), tol, ball)
    w = np.where(keep[:, None], 0.0, ref)
    w[np.ix_(keep, cols)] = chan
    return w, rate, max(rate - lower, 0.0), steps


def _csiszar_dual(p, cmat, dist, ref, tol, ball):
    """(channel, rate, lower bound, Newton steps), in bits, on Csiszar's dual.

    `cmat` has a zero in every row and a finite entry in every column, and
    `ref` is a channel within both budgets: `_reduced_dual` sees to both.
    The engine has two modes, and neither depends on the ball's kind: a
    ball with a fixed `law` eliminates v, and `dist=None`, the floor, fixes
    s at one (`cmat` is zero on the pairs the channel may use, infinite
    elsewhere).  Centring minimizes t (s D - p.u + cost.e + smooth(e)) -
    sum_y w_y log(v_y - g_y) - sum_i w_i log slacks_i(e) - log s over z =
    (u, s, e) by damped Newton steps, with g_y the log-sum-exp constraint and
    cost, smooth and slacks the ball's.  At a centre nu_y = w_y / (t (v_y -
    g_y)) is the output law and J = pi diag(nu), pi_.y the softmax inside
    g_y, the primal joint law.  The weights start at (v_y - g_y) q_y, q one
    alternating-minimization step from the uniform law, the weights that
    centre u at t = 1, then follow nu (and the slacks' weights their
    multipliers) so that massless outputs stop costing 1/t each in the gap.
    A fixed law has no barrier and one round, at t = 1, which certifies.
    With a barrier the first round is at t = `_T_START`, and each round
    multiplies t by `_T_GROWTH`.  A round certifies when, at its start, the
    barrier's gap bound (its weights over t, in bits) is at most `tol`, or
    it is the last round: only such a round centres until the decrement is
    at round-off and builds a certificate, and the solve ends once the
    certified gap is at most `tol` bits.  Every other round stops at a
    decrement below `_ROUGH_DECREMENT`.  A step whose cap leaves no trial
    step (a <= 1e-12) holds the coordinates of u and e whose move alone
    forces that, and takes the Newton direction of the others.  A
    line-search trial is tested against the ball's linear slacks before the
    log-sum-exp constraints.
    """
    m, k = cmat.shape
    free_s = dist is not None
    elim = ball.law is not None
    barrier_s = free_s and not elim  # the weight-one barrier -log s
    o = m + free_s  # where e starts in z
    nz = o + len(ball.e0)
    log_p = np.log(p)[:, None]
    free = np.ones(nz, dtype=bool)
    free[o + ball.gauge] = False
    if elim:
        free[0] = False  # the gauge: a fixed law sums to one, so u + c changes nothing
    pot = free.copy()  # everything but s, which a step at most doubles
    pot[m:o] = False
    free_idx = np.flatnonzero(free)
    # the Newton system's buffers: entries no step writes stay zero
    grad = np.zeros(nz)
    hess = np.zeros((nz, nz))
    diag = hess.reshape(-1)[:: nz + 1]  # a view: writes land in hess
    # columns grad g_y over (u, s).  The operand memory order is part of the
    # bits: cmat, a column selection, is F-ordered, and so are pi and gh
    gh = np.empty((o, k), order="F")

    def constraints(z):
        """g_y and the softmax pi over x inside each g_y."""
        s = z[m] if free_s else 1.0
        logw = log_p + z[:m, None] - s * cmat
        top = np.maximum.reduce(logw, axis=0)
        logw -= top
        np.exp(logw, out=logw)
        tot = np.add.reduce(logw, axis=0)
        logw /= tot
        return top + np.log(tot), logw

    def out_mult(z):
        return z[o:o + k] if nz > o else np.zeros(k)

    def newton_step(z, pi, r, rl, w, wl, t, f):
        """Newton direction and decrement of the centring objective; its
        gradient and Hessian stay in `grad` and `hess`."""
        c1 = t * ball.law if elim else w / r
        c2 = 0.0 if elim else c1 * c1 / w
        if free_s:  # cmat is finite whenever s is free
            pc = pi * cmat
            gh[:m] = pi
            gh[m] = -np.add.reduce(pc, axis=0)
        cols = gh if free_s else pi
        grad[:o] = cols @ c1
        grad[:m] -= t * p
        hess[:o, :o] = (cols * (c2 - c1)) @ cols.T
        diag[:m] += pi @ c1
        if free_s:
            grad[m] += t * dist - (1.0 / z[m] if barrier_s else 0.0)
            cross = pc @ c1
            hess[:m, m] -= cross
            hess[m, :m] -= cross
            hess[m, m] += np.add.reduce(pc * cmat, axis=0) @ c1 + (1.0 / (z[m] * z[m]) if barrier_s else 0.0)
        if nz > o:
            grad_e, hess[o:, o:] = ball.barrier(wl, rl)
            grad[o:] = t * ball.cost + grad_e
            # v_y enters g_y - v_y with slope -1
            grad[o:o + k] -= c1
            hess[o:o + k, :o] = -(cols * c2).T
            hess[:o, o:o + k] = hess[o:o + k, :o].T
            diag[o:o + k] += c2
            ball.add_smooth(grad[o:], hess[o:, o:], z[o:], t, f)
        return direction(free_idx)

    def direction(idx):
        """Newton direction and decrement on the coordinates `idx`, the others held."""
        gf, hf = (grad[idx], hess.take(idx, 0).take(idx, 1)) if len(idx) < nz else (grad, hess)
        # the ball's barrier spans many scales: solve the diagonally scaled system
        scale = np.sqrt(np.maximum(hf.diagonal(), 1e-300)) if nz > o else 1.0
        try:
            step = -np.linalg.solve(hf / scale / scale[:, None] if nz > o else hf, gf / scale) / scale
        except np.linalg.LinAlgError:
            step = -np.linalg.lstsq(hf, gf, rcond=None)[0]
        dz = np.zeros(nz)
        dz[idx] = step
        return dz, float(-gf @ step)

    def step_bound(dz):
        """The largest step along dz within the cap, and below doubling s."""
        return 1.0 / max(1.0, float(np.abs(dz[pot]).max()) / cap, abs(dz[m]) / z[m] if free_s else 0.0)

    def certificate(z, g, pi, nu):
        """(channel within both budgets, its rate, dual lower bound), in bits.

        Lowering every u_x by max(g - v) makes the point dual-feasible.  J =
        pi diag(nu) is rounded (Altschuler, Weed and Rigollet 2017) onto the
        couplings of p and the fixed law, or of p and J's output law moved
        toward the reference's until within the perception budget, which
        with a small budget costs far less rate than moving the channel.  A
        distortion overshoot is then mixed away with `ref`; both budgets
        being convex, the perception budget still holds.
        """
        def normalized(joint):  # a row that underflows to no mass takes the reference's
            tot = joint.sum(axis=1, keepdims=True)
            return np.divide(joint, tot, out=ref.copy(), where=tot > 0.0)

        lower = p @ z[:m] - (z[m] * dist if free_s else 0.0)
        if elim:
            lower -= ball.law @ g
        else:
            v = out_mult(z)
            lower -= max(0.0, float((g - v).max())) + ball.support(v)
        joint = pi * nu
        q = p @ normalized(joint)
        theta = _mix_weight(ball.perception(q), ref_perc, ball.budget)
        law = (1.0 - theta) * q + theta * (p @ ref) if theta > 0.0 else ball.law
        if law is not None:
            joint *= np.minimum(1.0, p / joint.sum(axis=1))[:, None]
            joint *= np.minimum(1.0, law / joint.sum(axis=0))
            short_p, short_q = p - joint.sum(axis=1), law - joint.sum(axis=0)
            if short_p.sum() > 0.0:
                joint += np.outer(short_p, short_q) / short_p.sum()
        chan = normalized(joint)
        if free_s:
            theta = _mix_weight(float(p @ np.sum(chan * cmat, axis=1)), ref_dist, dist)
            if theta > 0.0:
                chan = (1.0 - theta) * chan + theta * ref
        return chan, mutual_information_matrix(p, chan), lower / _LOG2

    s = 1.0
    if free_s:
        # the slope whose uniform-output u has the best dual value, all slopes at once
        slopes = 2.0 ** np.arange(-12, 40)[:, None, None]
        u = -np.log(np.mean(np.exp(-slopes * cmat), axis=2))
        logw = log_p + u[:, :, None] - slopes * cmat
        top = logw.max(axis=1)
        g = top + np.log(np.sum(np.exp(logw - top[:, None]), axis=1))
        s = float(slopes[int(np.argmax(u @ p - g.max(axis=1) - slopes[:, 0, 0] * dist)), 0, 0])
    # u of the uniform output law at slope s, made feasible
    u = -np.log(np.mean(np.exp(-s * cmat), axis=1))
    u = u - constraints(np.concatenate([u, [s] if free_s else []]))[0].max()
    z = np.concatenate([u - 1.0, [s] if free_s else [], ball.e0])
    g, pi = constraints(z)
    r = out_mult(z) - g
    rl = ball.slacks(z[o:])
    chan = np.exp(-s * cmat)
    w = np.maximum(r * (p @ (chan / chan.sum(axis=1, keepdims=True))), _WEIGHT_FLOOR)
    wl = np.maximum(ball.mult0 * rl, _WEIGHT_FLOOR)
    # the reference's costs, measured at most once, and only if a certificate mixes
    ref_dist = cache(lambda: float(p @ np.sum(ref * cmat, axis=1)))
    ref_perc = cache(lambda: ball.perception(p @ ref))
    t = 1.0 if elim else _T_START
    steps = 0
    cap = _STEP_CAP
    for rnd in range(_MAX_ROUNDS):
        # w, wl and t hold through a round, so the barrier's own gap, its
        # weights over t, says up front whether a certificate can succeed
        certify = elim or rnd == _MAX_ROUNDS - 1 or (w.sum() + wl.sum() + barrier_s) / (t * _LOG2) <= tol
        centred = False
        prev_dec = math.inf
        for _ in range(_MAX_STEPS):
            f = ball.smooth(z[o:])
            dz, dec = newton_step(z, pi, r, rl, w, wl, t, f)
            # a certifying round centres until the decrement is at round-off,
            # once it stops falling; the others only approximately
            if (dec < 1e-20 or (dec >= prev_dec and dec < 1e-8)) if certify else dec < _ROUGH_DECREMENT:
                centred = True
                break
            prev_dec = dec
            steps += 1
            # exp(u) can be far from its quadratic model: cap the moves
            a0 = step_bound(dz)
            if a0 <= 1e-12:
                # no trial would run.  A coordinate whose move alone forces
                # that (u_x of a near-massless atom) is held for this step
                held = pot & (np.abs(dz) > 1e12 * cap)
                if held.any():
                    dz, dec = direction(np.flatnonzero(free & ~held))
                    a0 = step_bound(dz)
            a = a0
            # the objective's linear terms along dz, per unit of a
            lin_u = p @ dz[:m]
            lin_e = ball.cost @ dz[o:]
            while a > 1e-12:
                z_new = z + a * dz
                # the ball's slacks are linear, one product: a trial they
                # refuse costs no log-sum-exp.  A NaN fails every test
                rl_new = ball.slacks(z_new[o:])
                if (not free_s or z_new[m] > 0.0) and (nz == o or np.minimum.reduce(rl_new) > 0.0):
                    g_new, pi_new = constraints(z_new)
                    r_new = out_mult(z_new) - g_new
                    if elim or np.minimum.reduce(r_new) > 0.0:
                        # barrier change over t, from ratios so that it stays exact at large t
                        df = -a * lin_u
                        if elim:
                            df += ball.law @ (g_new - g)
                        else:
                            df -= (w @ np.log(r_new / r)) / t
                        if free_s:
                            df += a * dz[m] * dist - (math.log(z_new[m] / z[m]) / t if barrier_s else 0.0)
                        if nz > o:
                            df += a * lin_e - (wl @ np.log(rl_new / rl)) / t
                            df += ball.smooth(z_new[o:]) - f
                        # a round-off-sized decrement takes the full step
                        if dec < 1e-6 or df <= -0.25 * a * dec / t:
                            break
                a *= 0.5
            else:
                centred = dec < 1e-8  # backtracking makes no progress
                break
            z, g, pi, r, rl = z_new, g_new, pi_new, r_new, rl_new
            # a capped step taken whole: the model held, so widen the cap
            if a == a0 < 1.0:
                cap *= 2.0
        nu = ball.law if elim else w / (t * r)
        if certify:
            chan, rate, lower = certificate(z, g, pi, nu)
            if rate - lower <= tol or elim:
                break
        if centred:
            w = np.maximum(np.maximum(nu, _WEIGHT_DECAY * w), _WEIGHT_FLOOR)
            wl = np.maximum(np.maximum(wl / (t * rl), _WEIGHT_DECAY * wl), _WEIGHT_FLOOR)
            t *= _T_GROWTH
    return chan, rate, lower, steps


def _mix_weight(value, ref_value, budget):
    """Least weight on the reference that brings a convex cost from `value` within budget.

    `ref_value()` gives the reference's cost; it is called only when `value`
    is over budget, so a certificate that needs no mixing never measures the
    reference.
    """
    aim = budget * (1.0 - 1e-12)  # just inside, so that round-off stays within it
    if value <= aim:
        return 0.0
    ref = ref_value()
    return (value - aim) / (value - ref) if ref < aim else 1.0


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
        e0 = p[0] * float(r0 @ delta[0])
        cand = p[1] * (rows_arr @ delta[1])
        e_d = e0 + cand
        q = p[0] * r0[None, :] + p[1] * rows_arr
        feasible = e_d <= prob.dist_budget + 1e-12
        if prob.perc_budget == 0.0:
            feasible &= np.max(np.abs(q - _target_law(prob)), axis=1) <= res
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
