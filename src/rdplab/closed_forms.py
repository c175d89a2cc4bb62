"""Exact rate-distortion-perception curves and optimality certificates.

Covers the Bernoulli and Gaussian sources:

* ``phi_*``     -- rate under an exact output-marginal match (P = 0)
* ``varphi_*``  -- rate when the whole reconstruction block must match the
                   source law and only private randomness is available; under
                   squared distortion this equals the classical rate-distortion
                   function evaluated at D/2 over an unconstrained real output
* ``rd_*``      -- classical rate-distortion reference curves

plus the explicit optimal binary test channel, its KKT certificate, the
mirror construction that doubles a test-channel distortion while preserving
the source marginal exactly, and the analytic one-bit unit-circle distortions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pmf import Channel, Pmf, binary_entropy


def _check_dist(dist: float) -> None:
    if not dist >= 0.0:
        raise ValueError(f"D={dist} negative" if dist < 0.0 else f"D={dist} is not a number")


def _check_binary_domain(rho: float, dist: float) -> None:
    if not 0.0 < rho <= 0.5:
        raise ValueError(f"rho={rho} outside (0, 0.5]")
    _check_dist(dist)


def _mirror_level(dist: float) -> float:
    """a = (1 - sqrt(1 - 2D)) / 2, the level of V on {a, 1 - a}."""
    return (1.0 - math.sqrt(1.0 - 2.0 * dist)) / 2.0


def phi_binary(rho: float, dist: float) -> float:
    """Exact-marginal-match rate for a Bernoulli(rho) source, Hamming distortion."""
    _check_binary_domain(rho, dist)
    if dist >= 2.0 * rho * (1.0 - rho):
        return 0.0
    h2 = 2.0 * binary_entropy(rho)
    terms = 0.0
    for coeff, arg in (
        ((2.0 - 2.0 * rho - dist) / 2.0, (2.0 - 2.0 * rho - dist) / 2.0),
        (dist, dist / 2.0),
        ((2.0 * rho - dist) / 2.0, (2.0 * rho - dist) / 2.0),
    ):
        if coeff > 0.0:  # 0 log 0 := 0 handles the D = 0 endpoint
            terms += coeff * math.log2(arg)
    return h2 + terms


def varphi_binary(rho: float, dist: float) -> float:
    """Strong-sense private-randomness rate for Bernoulli(rho)."""
    _check_binary_domain(rho, dist)
    if dist >= 2.0 * rho * (1.0 - rho):
        return 0.0
    return binary_entropy(rho) - binary_entropy(_mirror_level(dist))


def rd_half_binary(rho: float, dist: float) -> float:
    """H_b(rho) - H_b(D/2): the rate-distortion curve at D/2 with binary output."""
    _check_binary_domain(rho, dist)
    if dist >= 2.0 * rho:
        return 0.0
    return binary_entropy(rho) - binary_entropy(dist / 2.0)


def _check_gaussian_domain(var: float, dist: float) -> None:
    if not 0.0 < var < math.inf:
        raise ValueError(f"variance {var} must be " + ("positive" if var <= 0.0 else "finite"))
    _check_dist(dist)


def phi_gaussian(var: float, dist: float) -> float:
    """Exact-marginal-match rate for N(mu, var), squared distortion."""
    _check_gaussian_domain(var, dist)
    if dist == 0.0:
        return math.inf
    if dist >= 2.0 * var:
        return 0.0
    return 0.5 * math.log2(4.0 * var * var / (4.0 * var * dist - dist * dist))


def varphi_gaussian(var: float, dist: float) -> float:
    """Strong-sense private-randomness rate for N(mu, var)."""
    _check_gaussian_domain(var, dist)
    if dist == 0.0:
        return math.inf
    if dist >= 2.0 * var:
        return 0.0
    return 0.5 * math.log2(2.0 * var / dist)


def rd_gaussian(var: float, dist: float) -> float:
    """Classical quadratic-Gaussian R(D) = max(0, (1/2) log2(var / D))."""
    _check_gaussian_domain(var, dist)
    if dist == 0.0:
        return math.inf
    if dist >= var:
        return 0.0
    return 0.5 * math.log2(var / dist)


# ---------------------------------------------------------------------------
# Optimal binary construction and its KKT certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryOptimalSolution:
    """Optimal auxiliary variable V for a Bernoulli source under E[(X-V)^2] <= D/2.

    V lives on {a, 1-a} with a = (1 - sqrt(1 - 2D)) / 2, and `lam` is the
    positive multiplier log2((1-a)/a) / (1-2a) certifying optimality.
    """

    a: float
    lam: float
    p_v: Pmf
    p_v_given_x: Channel
    rate: float


def binary_optimal_construction(rho: float, dist: float) -> BinaryOptimalSolution:
    """Explicit optimal (p_V, p_V|X, lambda) for Bernoulli(rho) at distortion D.

    Requires D strictly inside (0, 2 rho (1-rho)); at the endpoints the
    support collapses (a = 0 or p_V(1-a) = 0).
    """
    _check_binary_domain(rho, dist)
    if not 0.0 < dist < 2.0 * rho * (1.0 - rho):
        raise ValueError(
            f"D={dist} outside the open interval (0, {2.0 * rho * (1.0 - rho)})"
        )
    a = _mirror_level(dist)
    one_two_a = 1.0 - 2.0 * a
    lam = math.log2((1.0 - a) / a) / one_two_a
    p_v = Pmf.from_pairs(
        [(a, (1.0 - a - rho) / one_two_a), (1.0 - a, (rho - a) / one_two_a)]
    )
    w = np.array(
        [
            [
                (1.0 - a) * (1.0 - a - rho) / ((1.0 - rho) * one_two_a),
                a * (rho - a) / ((1.0 - rho) * one_two_a),
            ],
            [
                a * (1.0 - a - rho) / (rho * one_two_a),
                (1.0 - a) * (rho - a) / (rho * one_two_a),
            ],
        ]
    )
    channel = Channel((0, 1), (a, 1.0 - a), w)
    return BinaryOptimalSolution(
        a=a, lam=lam, p_v=p_v, p_v_given_x=channel, rate=varphi_binary(rho, dist)
    )


@dataclass(frozen=True)
class KktReport:
    """Residuals of the three stationarity/feasibility conditions.

    `equality_residual` is max |LHS - 1| over the support, `inequality_margin`
    is min (1 - LHS) over an off-support grid of [0, 1], and
    `distortion_residual` is |achieved - D/2|.
    """

    equality_residual: float
    inequality_margin: float
    distortion_residual: float
    passed: bool
    tol: float = 1e-9


def kkt_verify(
    rho: float,
    dist: float,
    sol: BinaryOptimalSolution,
    grid_size: int = 1001,
) -> KktReport:
    """Check that (p_V, lambda) certifies optimality for the binary problem,
    each residual within `KktReport.tol`."""
    if grid_size < 101:
        raise ValueError("grid_size must be at least 101")
    support = np.array([float(v) for v in sol.p_v.labels])
    weights = sol.p_v.probs
    lam = sol.lam

    def exp_weights(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.exp2(-lam * v**2), np.exp2(-lam * (1.0 - v) ** 2)

    e0, e1 = exp_weights(support)
    z0 = float(np.sum(weights * e0))
    z1 = float(np.sum(weights * e1))

    def lhs(w0: np.ndarray, w1: np.ndarray) -> np.ndarray:
        return (1.0 - rho) * w0 / z0 + rho * w1 / z1

    equality_residual = float(np.max(np.abs(lhs(e0, e1) - 1.0)))
    grid = np.linspace(0.0, 1.0, grid_size)
    off = grid[np.all(np.abs(grid[:, None] - support[None, :]) > 1e-9, axis=1)]
    inequality_margin = float(np.min(1.0 - lhs(*exp_weights(off))))
    achieved = (1.0 - rho) * float(np.sum(weights * e0 * support**2)) / z0 + rho * float(
        np.sum(weights * e1 * (1.0 - support) ** 2)
    ) / z1
    distortion_residual = abs(achieved - dist / 2.0)
    tol = KktReport.tol
    passed = (
        equality_residual <= tol
        and inequality_margin >= -tol
        and distortion_residual <= tol
    )
    return KktReport(
        equality_residual=equality_residual,
        inequality_margin=inequality_margin,
        distortion_residual=distortion_residual,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Mirror construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MirrorConstruction:
    """Joint law of (X, U, Xhat) with U = E[X|V] and Xhat drawn from p_{X|U}.

    By construction the output marginal equals the source marginal exactly and
    E[(X - Xhat)^2] = 2 E[(X - U)^2].
    """

    x_atoms: tuple[float, ...]
    u_atoms: tuple[float, ...]
    joint: np.ndarray  # indexed (x, u, xhat)

    def marginal_xhat(self) -> Pmf:
        return Pmf.from_probs(self.x_atoms, self.joint.sum(axis=(0, 1)))

    def expected_sq_distortion(self) -> float:
        x = np.array(self.x_atoms)
        return float(np.sum(self.joint * (x[:, None, None] - x[None, None, :]) ** 2))

    def expected_sq_to_u(self) -> float:
        x = np.array(self.x_atoms)
        u = np.array(self.u_atoms)
        return float(np.sum(self.joint.sum(axis=2) * (x[:, None] - u[None, :]) ** 2))


def mirror_construction(p_x: Pmf, p_v_given_x: Channel) -> MirrorConstruction:
    """Build the (X, U, Xhat) joint: U = E[X|V], Xhat ~ p_{X|U} given U.

    Atoms of `p_x` must be real-valued; V atoms with zero marginal mass are
    dropped before conditioning.
    """
    x_vals = p_x.real_values()
    if p_x.labels != p_v_given_x.inputs:
        raise ValueError("channel inputs must match the source alphabet")
    joint_xv = p_x.probs[:, None] * p_v_given_x.matrix
    p_v = joint_xv.sum(axis=0)
    keep = p_v > 0.0
    joint_xv = joint_xv[:, keep]
    p_v = p_v[keep]
    u_of_v = (x_vals[:, None] * joint_xv).sum(axis=0) / p_v
    # deterministic relabeling: group V atoms sharing one conditional mean
    u_atoms: list[float] = []
    groups: dict[float, list[int]] = {}
    for idx, u in enumerate(u_of_v):
        u = float(u)
        if u not in groups:
            groups[u] = []
            u_atoms.append(u)
        groups[u].append(idx)
    n_x = len(x_vals)
    n_u = len(u_atoms)
    joint_xu = np.zeros((n_x, n_u))
    for k, u in enumerate(u_atoms):
        joint_xu[:, k] = joint_xv[:, groups[u]].sum(axis=1)
    p_u = joint_xu.sum(axis=0)
    x_given_u = joint_xu / p_u[None, :]
    joint = joint_xu[:, :, None] * x_given_u.T[None, :, :]
    return MirrorConstruction(
        x_atoms=tuple(float(v) for v in x_vals),
        u_atoms=tuple(u_atoms),
        joint=joint,
    )


# ---------------------------------------------------------------------------
# One-shot unit-circle distortions
# ---------------------------------------------------------------------------


def circle_analytic() -> dict[str, float]:
    """Analytic one-bit expected squared distance of each scheme for a source
    uniform on the unit circle; its keys, in order, are `coding.CIRCLE_SCHEMES`."""
    midpoint = 2.0 - 4.0 / math.pi  # the common and antipodal schemes
    return {
        "private": 2.0 - 8.0 / math.pi**2,
        "common": midpoint,
        "antipodal": midpoint,
        "unconstrained": 1.0 - 4.0 / math.pi**2,
    }
