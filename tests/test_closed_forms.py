import math

import numpy as np
import pytest

from rdplab.pmf import Channel, Pmf, binary_entropy, mutual_information
from rdplab.closed_forms import (
    binary_optimal_construction,
    circle_analytic,
    kkt_verify,
    mirror_construction,
    phi_binary,
    phi_gaussian,
    rd_gaussian,
    rd_half_binary,
    varphi_binary,
    varphi_gaussian,
)


def test_phi_binary_spot_values():
    assert phi_binary(0.25, 0.375) == 0.0
    assert phi_binary(0.25, 0.5) == 0.0
    assert phi_binary(0.25, 0.0) == pytest.approx(binary_entropy(0.25), abs=1e-12)
    assert phi_binary(0.25, 0.2) == pytest.approx(0.143658, abs=1e-5)


def test_varphi_binary_spot_values():
    assert varphi_binary(0.25, 0.375) == 0.0
    assert varphi_binary(0.25, 0.0) == pytest.approx(0.811278, abs=1e-5)
    # frozen from a 50-digit evaluation of H_b(rho) - H_b(a); the mutual
    # information of the explicit optimal channel agrees to full precision
    assert varphi_binary(0.25, 0.2) == pytest.approx(0.3032665275070845, abs=1e-10)


def test_binary_domain_errors():
    for bad in (0.0, 0.6, -0.1):
        with pytest.raises(ValueError):
            phi_binary(bad, 0.1)
        with pytest.raises(ValueError):
            varphi_binary(bad, 0.1)
    with pytest.raises(ValueError):
        phi_binary(0.25, -0.01)


def test_binary_curve_ordering_and_shape():
    rho = 0.25
    dmax = 2 * rho * (1 - rho)
    grid = np.linspace(0.0, dmax, 200)
    phi = np.array([phi_binary(rho, d) for d in grid])
    var = np.array([varphi_binary(rho, d) for d in grid])
    rdh = np.array([rd_half_binary(rho, d) for d in grid])
    assert np.all(phi <= var + 1e-9)
    assert np.all(var <= rdh + 1e-9)
    assert np.all(np.diff(phi) <= 1e-9)
    assert np.all(np.diff(var) <= 1e-9)
    assert phi[-1] == 0.0 and var[-1] == 0.0
    assert phi[-2] > 0.0 and var[-2] > 0.0  # vanish exactly at the boundary
    # continuity toward the boundary
    assert phi_binary(rho, dmax - 1e-9) < 1e-6


def test_rd_half_binary_vanishes_from_twice_rho():
    rho = 0.25
    assert rd_half_binary(rho, 2 * rho) == rd_half_binary(rho, 0.7) == rd_half_binary(rho, math.inf) == 0.0
    assert 0.0 < rd_half_binary(rho, 2 * rho - 1e-9) < 1e-8


def test_gaussian_spot_values():
    assert phi_gaussian(1.0, 2.0) == 0.0
    assert varphi_gaussian(1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert phi_gaussian(1.0, 1.0) == pytest.approx(0.5 * math.log2(4.0 / 3.0), abs=1e-12)
    assert phi_gaussian(1.0, 1.0) == pytest.approx(0.207519, abs=1e-6)
    assert phi_gaussian(1.0, 0.0) == math.inf
    assert varphi_gaussian(1.0, 0.0) == math.inf
    assert rd_gaussian(1.0, 0.25) == pytest.approx(1.0, abs=1e-12)
    assert rd_gaussian(1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        phi_gaussian(0.0, 0.5)


def test_gaussian_ordering():
    grid = np.linspace(1e-3, 2.0 - 1e-3, 200)
    phi = np.array([phi_gaussian(1.0, d) for d in grid])
    var = np.array([varphi_gaussian(1.0, d) for d in grid])
    assert np.all(phi <= var + 1e-9)
    assert np.all(phi < var)  # equality nowhere in the interior
    assert phi_gaussian(1.0, 2.0) == varphi_gaussian(1.0, 2.0) == 0.0


def test_binary_optimal_construction_values():
    sol = binary_optimal_construction(0.25, 0.2)
    assert sol.a == pytest.approx(0.1127016653792583, abs=1e-12)
    assert sol.rate == pytest.approx(0.3032665275070845, abs=1e-12)
    assert sol.lam > 0.0
    assert sol.lam == pytest.approx(math.log2((1 - sol.a) / sol.a) / (1 - 2 * sol.a), abs=1e-12)
    # mutual information of the construction equals the closed-form rate
    mi = mutual_information(Pmf.bernoulli(0.25), sol.p_v_given_x)
    assert mi == pytest.approx(sol.rate, abs=1e-10)
    # expected squared distortion to V equals D/2
    x = np.array([0.0, 1.0])
    v = np.array([float(l) for l in sol.p_v_given_x.outputs])
    joint = Pmf.bernoulli(0.25).probs[:, None] * sol.p_v_given_x.matrix
    dist = float(np.sum(joint * (x[:, None] - v[None, :]) ** 2))
    assert dist == pytest.approx(0.1, abs=1e-10)
    # induced reverse channel rows are (1-a, a) and (a, 1-a)
    p_v = joint.sum(axis=0)
    rev = joint.T / p_v[:, None]
    assert rev[0] == pytest.approx([1 - sol.a, sol.a], abs=1e-12)
    assert rev[1] == pytest.approx([sol.a, 1 - sol.a], abs=1e-12)


def test_binary_optimal_construction_symmetry_and_errors():
    sol = binary_optimal_construction(0.5, 0.4)
    assert np.allclose(sol.p_v.probs, [0.5, 0.5], atol=1e-12)
    with pytest.raises(ValueError):
        binary_optimal_construction(0.25, 0.375)
    with pytest.raises(ValueError):
        binary_optimal_construction(0.25, 0.0)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: phi_gaussian(1.0, -0.1), "D=-0.1 negative", id="phi-gaussian-negative-D"),
    pytest.param(lambda: varphi_gaussian(1.0, -0.1), "D=-0.1 negative", id="varphi-gaussian-negative-D"),
    pytest.param(lambda: rd_gaussian(1.0, -0.1), "D=-0.1 negative", id="rd-gaussian-negative-D"),
    pytest.param(lambda: binary_optimal_construction(0.0, 0.1), r"rho=0.0 outside \(0, 0.5\]", id="rho-zero"),
    pytest.param(lambda: binary_optimal_construction(0.6, 0.1), r"rho=0.6 outside \(0, 0.5\]", id="rho-above-half"),
    pytest.param(lambda: mirror_construction(Pmf.bernoulli(0.5), Channel.identity((1, 2))),
                 "channel inputs must match the source alphabet", id="mirror-alphabets"),
    # NaN D and a non-finite variance; an infinite D is a budget that binds nowhere
    pytest.param(lambda: phi_binary(0.25, math.nan), "D=nan is not a number", id="phi-binary-nan-D"),
    pytest.param(lambda: varphi_binary(0.25, math.nan), "D=nan is not a number", id="varphi-binary-nan-D"),
    pytest.param(lambda: rd_half_binary(0.25, math.nan), "D=nan is not a number", id="rd-half-binary-nan-D"),
    pytest.param(lambda: binary_optimal_construction(0.25, math.nan), "D=nan is not a number",
                 id="construction-nan-D"),
    pytest.param(lambda: phi_gaussian(1.0, math.nan), "D=nan is not a number", id="phi-gaussian-nan-D"),
    pytest.param(lambda: varphi_gaussian(math.nan, 0.5), "variance nan must be finite", id="varphi-gaussian-nan-var"),
    pytest.param(lambda: rd_gaussian(math.inf, 0.5), "variance inf must be finite", id="rd-gaussian-inf-var"),
    pytest.param(lambda: phi_gaussian(-math.inf, 0.5), "variance -inf must be positive", id="phi-gaussian-minus-inf-var"),
])
def test_closed_form_inputs_fail_fast(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_kkt_verify_passes_and_fails():
    rho, dist = 0.25, 0.2
    sol = binary_optimal_construction(rho, dist)
    report = kkt_verify(rho, dist, sol)
    assert report.passed
    assert report.equality_residual <= 1e-9
    assert report.inequality_margin >= -1e-9
    assert report.distortion_residual <= 1e-9
    # perturbed multiplier breaks the stationarity equalities
    bad_lam = sol.__class__(
        a=sol.a, lam=sol.lam * 1.01, p_v=sol.p_v,
        p_v_given_x=sol.p_v_given_x, rate=sol.rate,
    )
    assert not kkt_verify(rho, dist, bad_lam).passed
    # swapped weights break the distortion condition
    swapped = Pmf.from_pairs([(sol.a, sol.p_v.probs[1]), (1 - sol.a, sol.p_v.probs[0])])
    bad_pv = sol.__class__(
        a=sol.a, lam=sol.lam, p_v=swapped,
        p_v_given_x=sol.p_v_given_x, rate=sol.rate,
    )
    assert not kkt_verify(rho, dist, bad_pv).passed
    with pytest.raises(ValueError):
        kkt_verify(rho, dist, sol, grid_size=50)


def test_kkt_grid():
    for rho in np.linspace(0.05, 0.5, 10):
        for frac in np.linspace(0.1, 0.9, 10):
            dist = frac * 2 * rho * (1 - rho)
            sol = binary_optimal_construction(rho, dist)
            assert kkt_verify(rho, dist, sol).passed


def test_mirror_construction_identity_channel():
    p = Pmf.bernoulli(0.25)
    mc = mirror_construction(p, Channel.identity((0, 1)))
    assert mc.expected_sq_distortion() == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(mc.marginal_xhat().probs, p.probs, atol=1e-15)


def test_mirror_construction_constant_channel():
    p = Pmf.bernoulli(0.25)
    const = Channel((0, 1), ("v",), np.array([[1.0], [1.0]]))
    mc = mirror_construction(p, const)
    var = 0.25 * 0.75
    assert mc.expected_sq_distortion() == pytest.approx(2 * var, abs=1e-12)
    assert np.allclose(mc.marginal_xhat().probs, p.probs, atol=1e-14)
    assert mc.u_atoms == (0.25,)


def test_mirror_construction_appendix_channel():
    p = Pmf.bernoulli(0.25)
    sol = binary_optimal_construction(0.25, 0.2)
    mc = mirror_construction(p, sol.p_v_given_x)
    assert np.allclose(mc.marginal_xhat().probs, p.probs, atol=1e-12)
    assert mc.expected_sq_distortion() == pytest.approx(2 * mc.expected_sq_to_u(), abs=1e-12)
    assert mc.expected_sq_distortion() <= 0.2 + 1e-12


def test_mirror_construction_random_binary():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = Pmf.bernoulli(float(rng.uniform(0.05, 0.95)))
        w = rng.dirichlet(np.ones(2), size=2)
        ch = Channel((0, 1), ("u", "v"), w)
        mc = mirror_construction(p, ch)
        assert np.max(np.abs(mc.marginal_xhat().probs - p.probs)) < 1e-12
        assert abs(mc.expected_sq_distortion() - 2 * mc.expected_sq_to_u()) < 1e-12


def test_circle_constants():
    table = circle_analytic()
    assert tuple(table) == ("private", "common", "antipodal", "unconstrained")
    assert table["private"] == pytest.approx(1.189431, abs=1e-6)
    assert table["common"] == table["antipodal"] == pytest.approx(0.726760, abs=1e-6)
    assert table["unconstrained"] == pytest.approx(0.594715, abs=1e-6)
