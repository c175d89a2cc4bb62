import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdplab.divergences
import rdplab.solver
from rdplab import serialize
from rdplab.pmf import Pmf, binary_entropy
from rdplab.divergences import (
    coupling_cost,
    kullback_leibler,
    total_variation,
    wasserstein_sq,
)
from rdplab.closed_forms import phi_binary, varphi_binary
from rdplab.solver import (
    GridInfeasibleError,
    INFEASIBLE,
    OPTIMAL,
    RdpProblem,
    SolverOptions,
    brute_force_rdp,
    rd_function_grid,
    solve_rdp,
    sweep_curve,
)
from rdplab.divergences import divergence

HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


def binary_problem(rho, dist, perc, div=None, labels=(0, 1)):
    return RdpProblem(
        source=Pmf.from_probs(labels, (1 - rho, rho)),
        distortion=HAMMING,
        divergence=div or total_variation(),
        dist_budget=dist,
        perc_budget=perc,
        output_alphabet=labels,
    )


def test_problem_validation():
    with pytest.raises(ValueError):
        RdpProblem(
            source=Pmf.bernoulli(0.3),
            distortion=np.array([[0.5, 1.0], [1.0, 0.0]]),
            dist_budget=0.1,
        )
    with pytest.raises(ValueError):
        RdpProblem(
            source=Pmf.bernoulli(0.3),
            distortion=HAMMING,
            dist_budget=-0.1,
        )


def test_problem_takes_a_callable_distortion():
    prob = RdpProblem(source=Pmf.bernoulli(0.3), distortion=lambda x, y: float(x != y), dist_budget=0.1)
    assert np.array_equal(prob.distortion, HAMMING)


def _other_outputs(div):
    return RdpProblem(Pmf.bernoulli(0.3), np.ones((2, 3)), div, output_alphabet=(0, 1, 2))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: RdpProblem(Pmf.bernoulli(0.3), [[0.0, 0.0], [1.0, 0.0]]),
                 "positive off the diagonal", id="zero-off-diagonal"),
    pytest.param(lambda: _other_outputs(total_variation()), "total_variation needs matching alphabets",
                 id="tv-other-alphabet"),
    pytest.param(lambda: _other_outputs(kullback_leibler()), "kullback_leibler needs matching alphabets",
                 id="kl-other-alphabet"),
    pytest.param(lambda: _other_outputs(coupling_cost(HAMMING)), "perception cost matrix shape",
                 id="coupling-cost-shape"),
    pytest.param(lambda: RdpProblem(Pmf.from_probs(tuple(range(257)), np.full(257, 1 / 257)), np.zeros((257, 257))),
                 "beyond 256 symbols", id="257-symbols"),
    pytest.param(lambda: sweep_curve(binary_problem(0.25, 0.1, 0.1), []), "nonempty", id="empty-D-grid"),
    pytest.param(lambda: sweep_curve(binary_problem(0.25, 0.1, 0.1), [0.1], []), "nonempty", id="empty-P-grid"),
    pytest.param(lambda: sweep_curve(binary_problem(0.25, 0.1, 0.1), [0.2, 0.1]), "sorted", id="unsorted-D-grid"),
    pytest.param(lambda: sweep_curve(binary_problem(0.25, 0.1, 0.1), [0.1], [0.2, 0.1]), "sorted",
                 id="unsorted-P-grid"),
    pytest.param(lambda: brute_force_rdp(RdpProblem(Pmf.uniform((0, 1, 2)), 1.0 - np.eye(3), dist_budget=0.1)),
                 "binary sources only", id="brute-force-ternary-source"),
    pytest.param(lambda: brute_force_rdp(RdpProblem(Pmf.bernoulli(0.3), np.ones((2, 4)), wasserstein_sq(),
                                                    output_alphabet=(0, 1, 2, 3))),
                 "output alphabet too large for brute force", id="brute-force-four-outputs"),
])
def test_solver_inputs_fail_fast(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_classical_rd_when_perception_inactive():
    sol = solve_rdp(binary_problem(0.25, 0.2, 1.0))
    expect = binary_entropy(0.25) - binary_entropy(0.2)
    assert sol.status == OPTIMAL
    assert sol.rate == pytest.approx(expect, abs=1e-3)
    assert sol.achieved_dist <= 0.2 + 1e-6
    assert sol.achieved_perc <= 1.0 + 1e-6


def test_perfect_perception_matches_phi():
    sol = solve_rdp(binary_problem(0.25, 0.2, 0.0))
    assert sol.status == OPTIMAL
    assert sol.rate == pytest.approx(phi_binary(0.25, 0.2), abs=1e-3)
    assert sol.achieved_perc <= 1e-6


def test_zero_branch():
    for div in (total_variation(), wasserstein_sq(), kullback_leibler()):
        sol = solve_rdp(binary_problem(0.25, 0.375, 0.0, div=div))
        assert sol.status == OPTIMAL
        assert sol.rate == pytest.approx(0.0, abs=1e-6)


def test_rate_equals_mutual_information_of_channel():
    from rdplab.pmf import mutual_information

    sol = solve_rdp(binary_problem(0.25, 0.1, 0.05))
    assert sol.rate == pytest.approx(
        mutual_information(Pmf.bernoulli(0.25), sol.channel), abs=1e-10
    )


def test_p_zero_is_divergence_independent():
    tv_sol = solve_rdp(binary_problem(0.3, 0.15, 0.0, div=total_variation()))
    w2_sol = solve_rdp(binary_problem(0.3, 0.15, 0.0, div=wasserstein_sq()))
    assert tv_sol.rate == pytest.approx(w2_sol.rate, abs=1e-9)


def test_infeasible_forced_marginal():
    prob = RdpProblem(
        source=Pmf.bernoulli(0.25),
        distortion=np.array([[1.0, 2.0], [2.0, 1.0]]),
        divergence=wasserstein_sq(),
        dist_budget=5.0,
        perc_budget=0.0,
        output_alphabet=(5.0, 7.0),
    )
    sol = solve_rdp(prob)
    assert sol.status == INFEASIBLE
    assert brute_force_rdp(prob) == math.inf


def test_zero_rate_constant_output():
    # with a large budget the best constant reconstruction is feasible
    sol = solve_rdp(binary_problem(0.25, 0.9, 1.0))
    assert sol.status == OPTIMAL
    assert sol.rate == pytest.approx(0.0, abs=1e-12)


def test_kl_zero_rate_needs_no_lp(monkeypatch):
    # D >= p' Delta p = 0.375: the product channel q = p_X has KL = 0
    calls = []
    monkeypatch.setattr(rdplab.solver, "linprog", lambda *a, **kw: calls.append(None))
    sol = solve_rdp(binary_problem(0.25, 0.4, 0.05, div=kullback_leibler()))
    assert sol.status == OPTIMAL
    assert sol.rate <= 1e-12
    assert sol.iterations == 0
    assert calls == []
    assert sol.achieved_perc == 0.0
    assert sol.achieved_dist <= 0.4


# KL instances that reach rate zero through a product law other than p_X
# (positions 97 and 183 of the scan below); without the KL zero-rate law the
# engine crawls toward that law and ends iter_limit 0.124 and 0.300 bits high
KL_ZERO_RATE = {
    "k4": ((0.9545693073763193, 0.009374073599149308, 0.005024636517081585, 0.031031982507449863),
           ((0.0, 0.5814700680359065, 0.2748252856388649, 0.3134014889019616),
            (0.23602197653355642, 0.0, 0.3014927835619302, 0.7198444458862083),
            (1.077435229529123, 0.7191717574762696, 0.0, 0.26403377522318106),
            (0.3818345136065857, 0.5804472636918431, 0.3129745762872864, 0.0)),
           0.019884002315830505, 1.6864193220596113),
    "k3": ((0.022552593799120363, 0.31588806139107883, 0.6615593448098009),
           ((0.0, 1.0436800509465864, 0.5118888030247755),
            (0.9076554047857914, 0.0, 0.3018613235043922),
            (0.6214985995706065, 0.36100872893462577, 0.0)),
           0.10810261136880216, 1.6386515230679013),
}


@pytest.mark.parametrize("name", sorted(KL_ZERO_RATE))
def test_kl_zero_rate_through_another_law(name):
    probs, delta, dist, perc = KL_ZERO_RATE[name]
    prob = RdpProblem(Pmf.from_probs(tuple(range(len(probs))), probs), np.array(delta),
                      kullback_leibler(), dist, perc)
    opts = SolverOptions()
    sol = solve_rdp(prob, opts)
    assert sol.status == OPTIMAL
    assert sol.rate <= opts.tol
    assert sol.achieved_dist <= dist + opts.feas_tol
    assert sol.achieved_perc <= perc


def _kl_scan(n):
    """Seeded KL instances: k in 2-5, p from Dirichlet(1), off-diagonal Delta
    in [0.1, 1.1), P in [0.5, 2] bits, D a random share of p' Delta p."""
    rng = np.random.default_rng(2026)
    for _ in range(n):
        k = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(k))
        delta = rng.uniform(0.1, 1.1, (k, k))
        np.fill_diagonal(delta, 0.0)
        perc = float(rng.uniform(0.5, 2.0))
        dist = float(rng.uniform(0.02, 1.0) * (p @ delta @ p))
        yield RdpProblem(Pmf.from_probs(tuple(range(k)), p), delta, kullback_leibler(), dist, perc)


def test_kl_scan_is_optimal_within_both_budgets():
    opts = SolverOptions()
    for prob in _kl_scan(100):
        sol = solve_rdp(prob, opts)
        assert sol.status == OPTIMAL
        assert sol.achieved_dist <= prob.dist_budget + opts.feas_tol
        assert sol.achieved_perc <= prob.perc_budget


def test_brute_force_matches_known_values():
    prob = binary_problem(0.25, 0.2, 1.0)
    expect = binary_entropy(0.25) - binary_entropy(0.2)
    assert brute_force_rdp(prob, resolution=1e-3) == pytest.approx(expect, abs=1e-3)
    prob0 = binary_problem(0.25, 0.2, 0.0)
    assert brute_force_rdp(prob0, resolution=1e-4) == pytest.approx(
        phi_binary(0.25, 0.2), abs=1e-3
    )
    # both budgets zero force the identity channel
    hard = binary_problem(0.25, 0.0, 0.0)
    assert brute_force_rdp(hard, resolution=1e-3) == pytest.approx(
        binary_entropy(0.25), abs=1e-9
    )
    assert solve_rdp(hard).rate == pytest.approx(binary_entropy(0.25), abs=1e-9)


def test_solver_vs_brute_force_random():
    rng = np.random.default_rng(101)
    for trial in range(12):
        rho = float(rng.uniform(0.1, 0.5))
        delta = np.array(
            [[0.0, float(rng.uniform(0.3, 2.0))], [float(rng.uniform(0.3, 2.0)), 0.0]]
        )
        div = total_variation() if trial % 2 == 0 else wasserstein_sq()
        dist = float(rng.uniform(0.05, 0.5)) * max(delta[0, 1], delta[1, 0])
        perc = float(rng.uniform(0.0, 0.4))
        prob = RdpProblem(
            source=Pmf.bernoulli(rho),
            distortion=delta,
            divergence=div,
            dist_budget=dist,
            perc_budget=perc,
        )
        sol = solve_rdp(prob)
        oracle = brute_force_rdp(prob, resolution=2e-3)
        if sol.status == INFEASIBLE:
            assert oracle == math.inf
        else:
            assert sol.rate == pytest.approx(oracle, abs=2e-3)
            # recheck feasibility from first principles
            w = sol.channel.matrix
            e_d = float(np.sum(prob.source.probs[:, None] * w * delta))
            q = Pmf.from_probs(sol.channel.outputs, prob.source.probs @ w)
            from rdplab.divergences import divergence

            assert e_d <= dist + 1e-6
            assert divergence(div, prob.source, q) <= perc + 1e-6


def test_kl_perception_vs_brute_force():
    prob = binary_problem(0.3, 0.15, 0.05, div=kullback_leibler())
    sol = solve_rdp(prob)
    oracle = brute_force_rdp(prob, resolution=1e-3)
    assert sol.status == OPTIMAL
    assert sol.rate == pytest.approx(oracle, abs=2e-3)
    assert sol.achieved_perc <= 0.05 + 1e-6


def test_sweep_monotone():
    template = binary_problem(0.25, 0.1, 0.0)
    rows = sweep_curve(template, np.linspace(0.05, 0.35, 7), [0.0, 0.1])
    by_p = {}
    for dist, perc, sol in rows:
        by_p.setdefault(perc, []).append(sol.rate)
    for rates in by_p.values():
        assert all(b <= a + 1e-6 for a, b in zip(rates, rates[1:]))
    # nonincreasing in P as well
    for i in range(7):
        assert rows[7 + i][2].rate <= rows[i][2].rate + 1e-6


def test_sweep_matches_closed_form():
    template = binary_problem(0.25, 0.1, 0.0)
    grid = np.linspace(0.05, 0.35, 7)
    rows = sweep_curve(template, grid)
    for (dist, _, sol) in rows:
        assert sol.rate == pytest.approx(phi_binary(0.25, dist), abs=1e-3)


def test_sweep_huge_p_matches_classic_rd():
    # a vacuous perception budget reduces to the plain rate-distortion curve
    template = binary_problem(0.25, 0.1, 1.0)
    for dist, _, sol in sweep_curve(template, [0.05, 0.1, 0.15, 0.2], [1.0]):
        ba = rd_function_grid(
            Pmf.bernoulli(0.25), (0, 1), lambda x, v: float(x != v), dist
        )
        assert sol.rate == pytest.approx(ba, abs=1e-3)


def test_sweep_curve_propagates_solver_errors(monkeypatch):
    real = rdplab.solver.solve_rdp

    def failing(prob, opts=None):
        if prob.dist_budget == 0.2:
            raise RuntimeError("LP subproblem became infeasible")
        return real(prob, opts)

    monkeypatch.setattr(rdplab.solver, "solve_rdp", failing)
    with pytest.raises(RuntimeError, match="LP subproblem"):
        sweep_curve(binary_problem(0.25, 0.1, 0.0), [0.1, 0.2, 0.3])


def test_rd_function_grid_binary():
    grid = np.linspace(0.0, 1.0, 513)
    rate = rd_function_grid(Pmf.bernoulli(0.25), grid, lambda x, v: (x - v) ** 2, 0.1)
    assert rate == pytest.approx(varphi_binary(0.25, 0.2), abs=2e-3)


def test_rd_function_grid_gaussian():
    from scipy.stats import norm

    pts = np.linspace(-4.0, 4.0, 65)
    edges = np.concatenate([[-np.inf], 0.5 * (pts[1:] + pts[:-1]), [np.inf]])
    masses = np.diff(norm.cdf(edges))
    p = Pmf.from_probs(tuple(pts), masses / masses.sum())
    rate = rd_function_grid(p, pts, lambda x, v: (x - v) ** 2, 0.25)
    assert rate == pytest.approx(1.0, abs=0.05)


def test_rd_function_grid_degenerate():
    p = Pmf.bernoulli(0.25)
    grid = np.linspace(0.0, 1.0, 65)
    var = 0.25 * 0.75
    assert rd_function_grid(p, grid, lambda x, v: (x - v) ** 2, var + 0.01) == 0.0
    with pytest.raises(GridInfeasibleError):
        rd_function_grid(p, [0.4, 0.6], lambda x, v: (x - v) ** 2, 1e-6)


def test_rd_function_grid_rejects_bad_costs():
    p = Pmf.bernoulli(0.25)
    for cost in ([[0.0, -1.0], [1.0, 0.0]], lambda x, v: math.nan):
        with pytest.raises(ValueError, match="finite and nonnegative") as info:
            rd_function_grid(p, (0, 1), cost, 0.1)
        assert not isinstance(info.value, GridInfeasibleError)


def test_rd_function_grid_edge_budgets():
    p = Pmf.bernoulli(0.25)
    # at the floor only least-cost outputs remain: the identity channel, H(X)
    assert rd_function_grid(p, (0, 1), HAMMING, 0.0) == pytest.approx(0.8112781244591328, abs=1e-12)
    for dist in (0.25, 0.3, math.inf):  # min(p @ Delta) = 0.25
        assert rd_function_grid(p, (0, 1), HAMMING, dist) == 0.0
    assert rd_function_grid(p, (0.5,), lambda x, v: (x - v) ** 2, 0.25) == 0.0
    # an atom without mass drops out before its log is taken
    fair = Pmf.from_probs((0, 1, 2), (0.5, 0.5, 0.0))
    assert rd_function_grid(fair, (0, 1, 2), lambda x, v: float(x != v), 0.1) == pytest.approx(
        1.0 - binary_entropy(0.1), abs=1e-7
    )


def test_rd_function_grid_rejects_nan_budget():
    with pytest.raises(ValueError, match="must be a number") as info:
        rd_function_grid(Pmf.bernoulli(0.25), (0, 1), HAMMING, math.nan)
    assert not isinstance(info.value, GridInfeasibleError)


def test_rdp_problem_rejects_nonfinite_budgets():
    for dist, perc in ((math.nan, 0.1), (0.1, math.inf), (math.inf, 0.0), (0.1, -1.0)):
        with pytest.raises(ValueError, match="budgets must be finite and nonnegative"):
            binary_problem(0.25, dist, perc)


def test_bad_tol_fails_fast():
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            SolverOptions(tol=tol)


@pytest.mark.parametrize("div", [total_variation(), wasserstein_sq(), coupling_cost([[0.0, 2.0], [1.0, 0.0]])])
def test_budgets_hold_just_below_the_zero_rate_threshold(div):
    # within 0.1 of Bernoulli(0.3), in TV, W2 or this coupling cost, the product
    # channel of least Hamming distortion reaches 0.38: 4e-8 below it, no product
    # channel meets both budgets and the certified rate is positive
    dist = 0.379999962
    sol = solve_rdp(binary_problem(0.3, dist, 0.1, div=div))
    assert sol.status == OPTIMAL and sol.primal_gap_estimate <= 1e-6
    assert sol.rate > 0.0
    assert sol.achieved_dist <= dist
    assert sol.achieved_perc <= 0.1
    assert solve_rdp(binary_problem(0.3, 0.38, 0.1, div=div)).rate <= 1e-12


@pytest.mark.parametrize("probs, reads", [
    pytest.param((0.5, 0.5), 0, id="never-mixes"),
    pytest.param((0.5, 0.3, 0.2), 1, id="mixes"),
])
def test_engine_measures_the_reference_only_to_mix(monkeypatch, probs, reads):
    """A coupling-cost certificate measures the reference's output law, p_X
    itself under the identity reference, only when its own law is over P;
    then the solve measures it once, however many certificates mix."""
    real = rdplab.divergences.min_cost_coupling
    rights = []

    def spy(p, q, cost):
        rights.append(q.probs.tolist())
        return real(p, q, cost)

    monkeypatch.setattr(rdplab.divergences, "min_cost_coupling", spy)
    source = Pmf.from_probs(tuple(range(len(probs))), probs)
    delta = np.abs(np.subtract.outer(np.arange(len(probs)), np.arange(len(probs)))).astype(float)
    p = source.probs
    sol = solve_rdp(RdpProblem(source, delta, coupling_cost(delta), 0.5 * (p @ delta @ p), 0.1))
    assert sol.status == OPTIMAL and sol.iterations > 0
    assert rights.count(p.tolist()) == reads


def test_infeasible_solutions_carry_a_witness(monkeypatch):
    real = rdplab.solver.linprog
    calls = []
    monkeypatch.setattr(rdplab.solver, "linprog", lambda *a, **kw: calls.append(None) or real(*a, **kw))
    # below the distortion floor, 0.75 * 4 + 0.25 * 1: the least-cost channel, with no LP
    floor = RdpProblem(Pmf.bernoulli(0.25), np.array([[4.0, 9.0], [1.0, 4.0]]), wasserstein_sq(),
                       0.5, 0.5, output_alphabet=(2, 3))
    sol = solve_rdp(floor)
    assert sol.status == INFEASIBLE and calls == []
    assert sol.achieved_dist == 3.25
    # the floor is 0, but within W2 0.3 of the source no channel gets below 0.475
    forced = RdpProblem(Pmf.bernoulli(0.25), np.array([[1.0, 0.0], [0.0, 1.0]]), wasserstein_sq(),
                        0.01, 0.3, output_alphabet=(0.5, 1.5))
    sol = solve_rdp(forced)
    assert sol.status == INFEASIBLE and len(calls) == 1
    assert sol.achieved_dist == pytest.approx(0.475, abs=1e-9)
    assert sol.achieved_perc <= 0.3 + 1e-9


def test_rd_function_grid_is_certified():
    # acceptance criterion 07's points: the grid optimum lies above varphi by
    # its grid error only, and the solver must land within 1e-7 bits of it
    grid = np.linspace(0.0, 1.0, 513)
    for dist in (0.10, 0.15, 0.20, 0.25, 0.30):
        rate = rd_function_grid(Pmf.bernoulli(0.25), grid, lambda x, v: (x - v) ** 2, dist / 2.0)
        assert -1e-7 <= rate - varphi_binary(0.25, dist) <= 2e-6, dist


_COST = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 10.0))


@st.composite
def grid_instances(draw):
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8))
    weights = draw(st.lists(st.integers(0, 9), min_size=m, max_size=m).filter(any))
    cost = draw(st.lists(_COST, min_size=m * k, max_size=m * k))
    fracs = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    w = np.array(weights, dtype=float)
    return Pmf.from_probs(tuple(range(m)), w / w.sum()), np.reshape(cost, (m, k)), sorted(fracs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(grid_instances())
def test_rd_function_grid_invariants(case):
    source, cost, fracs = case
    p = source.probs
    k = cost.shape[1]
    floor, zero_rate = float(p @ cost.min(axis=1)), float(np.min(p @ cost))
    entropy = -sum(x * math.log2(x) for x in p if x > 0.0)
    rates = [
        rd_function_grid(source, range(k), cost, floor + f * (zero_rate - floor)) for f in fracs
    ]
    for rate in rates:
        assert 0.0 <= rate <= min(entropy, math.log2(k)) + 1e-9
    # each rate is certified within 1e-7 bits of a non-increasing curve
    for hi, lo in zip(rates, rates[1:]):
        assert lo <= hi + 1e-7


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    rho=st.floats(0.05, 0.95),
    off=st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)),
    frac=st.floats(0.0, 1.2),
)
def test_rd_function_grid_matches_solver_without_perception(rho, off, frac):
    delta = np.array([[0.0, off[0]], [off[1], 0.0]])
    source = Pmf.bernoulli(rho)
    dist = frac * float(np.min(source.probs @ delta))
    prob = RdpProblem(source, delta, total_variation(), dist, 1.0)  # TV <= 1 always holds
    assert rd_function_grid(source, (0, 1), delta, dist) == pytest.approx(
        solve_rdp(prob).rate, abs=1e-5
    )


_KINDS = ("p0", "tv", "w2", "cc", "kl")


def _divergence_of(kind, delta):
    return {"p0": total_variation, "tv": total_variation, "w2": wasserstein_sq,
            "cc": lambda: coupling_cost(delta), "kl": kullback_leibler}[kind]()


@st.composite
def rdp_instances(draw):
    k = draw(st.integers(2, 4))
    weights = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any))
    kind = draw(st.sampled_from(_KINDS))
    fracs = sorted(draw(st.lists(st.floats(0.05, 1.1), min_size=2, max_size=2)))
    percs = sorted(draw(st.lists(st.floats(0.01, 0.5), min_size=2, max_size=2)))
    w = np.array(weights, dtype=float)
    return Pmf.from_probs(tuple(range(k)), w / w.sum()), kind, fracs, percs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rdp_instances())
def test_solve_rdp_invariants(case):
    source, kind, fracs, percs = case
    p = source.probs
    k = len(p)
    delta = np.abs(np.subtract.outer(np.arange(k), np.arange(k))).astype(float)
    dists = [f * float(p @ delta @ p) for f in fracs]
    if kind == "p0":
        percs = [0.0, 0.0]
    entropy = -sum(x * math.log2(x) for x in p if x > 0.0)
    opts = SolverOptions()

    def solve(dist, perc, kind=kind):
        div = _divergence_of(kind, delta)
        sol = solve_rdp(RdpProblem(source, delta, div, dist, perc), opts)
        assert 0.0 <= sol.rate <= entropy + 1e-9
        if sol.status == OPTIMAL:
            assert sol.primal_gap_estimate <= opts.tol
        # the budgets, recomputed from the channel
        w = sol.channel.matrix
        assert float(np.sum(p[:, None] * w * delta)) <= dist + opts.feas_tol
        q = Pmf.from_probs(source.labels, p @ w)
        assert divergence(div, source, q) <= perc + opts.feas_tol
        return sol

    base = solve(dists[0], percs[0])
    assert solve(dists[1], percs[0]).rate <= base.rate + 2.0 * opts.tol
    assert solve(dists[0], percs[1]).rate <= base.rate + 2.0 * opts.tol
    # P = 0 pins the output law whatever the divergence
    rates = {solve(dists[0], 0.0, kind=other).rate for other in _KINDS[1:]}
    assert max(rates) - min(rates) <= 1e-12
    again = solve_rdp(RdpProblem(source, delta, _divergence_of(kind, delta), dists[0], percs[0]), opts)
    assert serialize.dumps(serialize.solution_to_dict(again)) == serialize.dumps(
        serialize.solution_to_dict(base)
    )


# solve_mix pool instances (perfbench/data/solve_pool.json) on the benchmark's
# known-timeout list: (kind, probabilities, D, P, rate) with the pool's
# certified rates, and the rate of ROADMAP item 3 for kl-k4-item3
FORMER_TIMEOUTS = {
    "kl-k4-item3": ("kl", (0.4531644982308245, 0.26108379155997097, 0.11422219162654146,
                           0.17152951858266308), 0.5, 0.05, 0.3989099),
    "tv-k4-interior": ("tv", (0.1669345271155776, 0.23817604796288872, 0.31039904281629294,
                              0.2844903821052407), 0.5836189924051916, 0.18018547874316132,
                       0.30994805652398594),
    "cc-k4-interior": ("cc", (0.3542131503073654, 0.16893136551677437, 0.3066776384435556,
                              0.17017784573230468), 0.6194278723981798, 0.18254040375765468,
                       0.28254559298014015),
    "kl-k3-interior": ("kl", (0.189215844754097, 0.49402384279133377, 0.3167603124545692),
                       0.36983642575634323, 0.08904200091133085, 0.2356879274023195),
}


@pytest.mark.parametrize("name", sorted(FORMER_TIMEOUTS))
def test_former_timeouts_are_certified(name):
    kind, probs, dist, perc, rate = FORMER_TIMEOUTS[name]
    k = len(probs)
    delta = np.abs(np.subtract.outer(np.arange(k), np.arange(k))).astype(float)
    prob = RdpProblem(Pmf.from_probs(tuple(range(k)), probs), delta, _divergence_of(kind, delta), dist, perc)
    start = time.perf_counter()
    sol = solve_rdp(prob)
    elapsed = time.perf_counter() - start
    assert sol.status == OPTIMAL and sol.primal_gap_estimate <= 1e-6
    assert sol.rate == pytest.approx(rate, abs=1e-6)
    assert elapsed < 1.0


def test_brute_force_ternary_output():
    # adding a third reconstruction letter cannot hurt, and helps at most
    prob2 = binary_problem(0.3, 0.15, 0.2, div=wasserstein_sq())
    base = brute_force_rdp(prob2, resolution=2e-3)
    prob3 = RdpProblem(
        source=Pmf.bernoulli(0.3),
        distortion=np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]),
        divergence=wasserstein_sq(),
        dist_budget=0.15,
        perc_budget=0.2,
        output_alphabet=(0, 1, 2),
    )
    val3 = brute_force_rdp(prob3, resolution=0.05)
    sol3 = solve_rdp(prob3)
    assert sol3.rate <= base + 1e-4  # extra letter cannot hurt
    # the coarse grid value upper-bounds the optimum, within O(resolution)
    assert sol3.rate - 1e-6 <= val3 <= sol3.rate + 0.06


@pytest.mark.parametrize("kind", ["wasserstein_sq", "coupling_cost"])
def test_brute_force_ternary_output_at_zero_perception(kind):
    # P = 0 pins the output law to the source's, so the third letter gets no
    # mass and the oracle reads phi_binary up to its grid
    delta = np.abs(np.subtract.outer([0.0, 1.0], [0.0, 1.0, 2.0]))
    div = wasserstein_sq() if kind == "wasserstein_sq" else coupling_cost(delta)
    prob = RdpProblem(Pmf.bernoulli(0.25), delta, div, 0.2, 0.0, output_alphabet=(0, 1, 2))
    assert abs(brute_force_rdp(prob, resolution=0.02) - phi_binary(0.25, 0.2)) < 1e-3


def test_convex_curve_fixed_p():
    template = binary_problem(0.25, 0.1, 0.1)
    grid = np.linspace(0.06, 0.3, 9)
    rates = [sol.rate for _, _, sol in sweep_curve(template, grid, [0.1])]
    for i in range(1, len(rates) - 1):
        assert rates[i] <= 0.5 * (rates[i - 1] + rates[i + 1]) + 1e-5


# One instance per kind of solve (P = 0, TV, W2 and a coupling cost, W2 onto
# outputs other than the source labels, KL with the budget slack and binding,
# a zero-rate hit per divergence kind, and an infeasible problem), with the
# HiGHS call count and the sha256 of the serialized solution.  Only the
# three-output W2 instance runs an LP, once: its outputs are not the source
# labels, so no channel is known in advance to meet the perception budget.
_CC = coupling_cost(np.array([[0.0, 2.0], [1.0, 0.0]]))
PINNED_SOLVES = {
    "p0-equality": (
        binary_problem(0.25, 0.2, 0.0),
        0, "af7c0b3fcf8dbdd761fea628d6b869c88b2bba6400b1d86699e25594d7c28af2",
    ),
    "tv-slack": (
        binary_problem(0.25, 0.1, 0.05),
        0, "ace5f582d931d71a00c6269c6c082a3013f63c6d6472ef9f8655d03125254d07",
    ),
    "w2-coupling": (
        binary_problem(0.3, 0.15, 0.2, div=wasserstein_sq()),
        0, "b722f0fc7e76f3f312cae4e1f501d4ba5b8440d091827fdb2d79ee98433f0ef2",
    ),
    "cc-coupling": (
        binary_problem(0.3, 0.1, 0.1, div=_CC),
        0, "934bc8d00efb321fa18dc326c8fe25eefbb641796e4cc0f4dd35936ae11e2d15",
    ),
    "w2-three-outputs": (
        RdpProblem(
            source=Pmf.bernoulli(0.3),
            distortion=np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]),
            divergence=wasserstein_sq(),
            dist_budget=0.15,
            perc_budget=0.2,
            output_alphabet=(0, 1, 2),
        ),
        1, "d916e65b76e39ab8547c56d10cae43faf867add8e90e6ec69c35ee79a6af2eea",
    ),
    "kl-dual-inactive": (
        binary_problem(0.3, 0.15, 0.05, div=kullback_leibler()),
        0, "4083bc00079d721ecc231405c7f8f315dc3dcc0278f84266f108b14e37c6df6f",
    ),
    "kl-dual-bisection": (
        binary_problem(0.3, 0.2, 0.01, div=kullback_leibler()),
        0, "513622fbbd6ea47096611c21f2c54c3f49e3a8aeaea9a0dc3c5a13ce159a6d8f",
    ),
    "zero-rate-equality": (
        binary_problem(0.25, 0.375, 0.0),
        0, "0a5957f499abffde44760f1aac47abdd4f1fca9a668df859b186318714c6ba1c",
    ),
    "zero-rate-tv": (
        binary_problem(0.25, 0.35, 0.1),
        0, "1b750bc11fb890045f6560be856d1a17a4f846feed378a208fbf144a3632f000",
    ),
    "zero-rate-w2": (
        binary_problem(0.25, 0.35, 0.1, div=wasserstein_sq()),
        0, "1089b598f4ffb55313b2565eb492641ed9e086799ba85f983bb4c0d2f2f2a6b6",
    ),
    "zero-rate-cc": (
        binary_problem(0.25, 0.35, 0.1, div=_CC),
        0, "1089b598f4ffb55313b2565eb492641ed9e086799ba85f983bb4c0d2f2f2a6b6",
    ),
    "w2-infeasible": (
        RdpProblem(
            source=Pmf.bernoulli(0.25),
            distortion=np.array([[4.0, 9.0], [1.0, 4.0]]),
            divergence=wasserstein_sq(),
            dist_budget=0.5,
            perc_budget=0.5,
            output_alphabet=(2, 3),
        ),
        0, "710d32e08cc3110c4f1128acce2dc28c8552023c4505e8698ed5879be0e2bbf0",
    ),
}


def test_solve_outputs_are_pinned(monkeypatch):
    real = rdplab.solver.linprog
    calls = []

    def counting_linprog(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(rdplab.solver, "linprog", counting_linprog)
    got, want = {}, {}
    for name, (prob, n_calls, digest) in PINNED_SOLVES.items():
        calls.clear()
        text = serialize.dumps(serialize.solution_to_dict(solve_rdp(prob)))
        got[name] = (len(calls), hashlib.sha256(text.encode()).hexdigest())
        want[name] = (n_calls, digest)
    assert got == want


def _engine_pool():
    """Three seeded solves of every kind at k = 2-5 on |i - j|, and one W2
    solve onto outputs other than the source labels (the HiGHS reference)."""
    rng = np.random.default_rng(1974)
    probs = []
    for k in (2, 3, 4, 5):
        idx = np.arange(k)
        delta = np.abs(idx[:, None] - idx[None, :]).astype(float)
        kinds = {
            "p0": total_variation(),
            "tv": total_variation(),
            "w2": wasserstein_sq(),
            "cc": coupling_cost(delta ** 2),
            "kl": kullback_leibler(),
        }
        for kind, div in kinds.items():
            for _ in range(3):
                p = rng.dirichlet(np.ones(k))
                dist = float(rng.uniform(0.1, 0.9) * (p @ delta @ p))
                perc = 0.0 if kind == "p0" else float(rng.uniform(0.02, 0.3))
                probs.append(RdpProblem(Pmf.from_probs(tuple(range(k)), p), delta, div, dist, perc))
    probs.append(RdpProblem(
        Pmf.from_probs((0, 1, 2), (0.5, 0.3, 0.2)), lambda x, y: (x - y) ** 2,
        wasserstein_sq(), 0.3, 0.1, output_alphabet=(0.0, 0.5, 1.0, 1.5, 2.0)))
    return probs


def test_engine_outputs_are_pinned():
    """The barrier Newton engine's floats, iteration counts included, through
    `solve_rdp`, `rd_function_grid` and `sweep_curve`."""
    def digest(solutions):
        text = "".join(serialize.dumps(serialize.solution_to_dict(sol)) for sol in solutions)
        return hashlib.sha256(text.encode()).hexdigest()

    grid = np.linspace(0.0, 1.0, 513)
    ternary = RdpProblem(
        Pmf.from_probs((0, 1, 2), (0.5, 0.3, 0.2)),
        np.abs(np.subtract.outer(np.arange(3), np.arange(3))).astype(float))
    got = (
        digest(solve_rdp(prob) for prob in _engine_pool()),
        [rd_function_grid(Pmf.bernoulli(0.25), grid, lambda x, v: (x - v) ** 2, d / 2.0).hex()
         for d in (0.15, 0.2, 0.25)],
        digest(sol for _, _, sol in sweep_curve(ternary, [0.1, 0.2, 0.3, 0.4, 0.5], [0.05, 0.2])),
    )
    assert got == (
        "0375047b9a2d6bb44ae10fd155c21fbb954e665efc07f3864ad291e664b65ebf",
        ["0x1.9ceb901722268p-2", "0x1.368bd09d0530ap-2", "0x1.aee74ca952828p-3"],
        "100753f351b7623611459459949d918557e5405180f94c4b508cc5eb90e60158",
    )


# (rate, certified gap) of every `_engine_pool()` solve and of the ternary
# sweep that `test_engine_outputs_are_pinned` hashes, all `optimal`, and its
# three grid rates, each certified within `_CERT_BITS`.  The optimum lies in
# both [rate - gap, rate] brackets, so an engine change that moves those
# digests keeps each rate within the larger of the two gaps.
_ENGINE_POOL_ANSWERS = (
    (0.05938800319573938, 2.9522911892954085e-13),
    (0.1623086339660051, 6.378231276471524e-14),
    (0.1774943693338326, 3.9335201762469296e-13),
    (0.06946285995974573, 2.885193491897198e-07),
    (0.34106464264128317, 3.107692873038914e-07),
    (0.0, 0.0),
    (0.0011338070648000032, 2.886973565338277e-07),
    (0.42144502560786196, 2.9862205996877833e-07),
    (0.0630127636738933, 2.981241316868388e-07),
    (0.657273401185008, 3.016139914491234e-07),
    (0.10783144126138824, 2.883598938518972e-07),
    (0.10695615663132892, 3.122737941702036e-07),
    (0.0, 0.0),
    (0.0006078651902793782, 2.885404775908318e-07),
    (0.14457990662640077, 2.8858908929230154e-07),
    (0.0801529052281085, 1.999650445227985e-13),
    (0.5565786354208535, 5.941913627793838e-13),
    (0.182792144306055, 5.261069357942461e-13),
    (0.0, 0.0),
    (0.0, 0.0),
    (0.1002420964537773, 2.885315765893681e-07),
    (0.2915478310811458, 2.8850915106959363e-07),
    (0.47340449312678984, 2.8854193123706295e-07),
    (0.04276790942770637, 2.885444382733082e-07),
    (0.02214207867466325, 2.8853430937558766e-07),
    (0.4518144666644053, 2.8850293037896435e-07),
    (0.0027108103415839115, 2.885334893574891e-07),
    (0.0, 0.0),
    (0.18218320423162157, 2.872241173512702e-07),
    (1.3974906766074484e-17, 0.0),
    (0.686336808080705, 6.306066779870889e-13),
    (0.5017952970902512, 5.364597654988756e-13),
    (0.3116593099874486, 4.932720898409571e-13),
    (0.027149054919847353, 2.88407562748505e-07),
    (0.26799836696272367, 2.9106103455189825e-07),
    (1.1719407482981484e-16, 0.0),
    (0.36864604905440085, 2.883946358389622e-07),
    (1.1072002329363688, 3.0412553542191745e-07),
    (0.08179260206448222, 2.8854869187078247e-07),
    (0.08921236761833021, 2.8855763867241535e-07),
    (8.06944234599462e-17, 0.0),
    (0.11556752628311658, 2.8848331758146717e-07),
    (1.6740509462943514e-16, 0.0),
    (0.35008929060778504, 2.885884755610135e-07),
    (0.006607200671289917, 2.885207377387178e-07),
    (1.0151810571178947, 7.063238882665246e-13),
    (0.23336340963397872, 4.219125049331751e-13),
    (0.8065704596640803, 7.736034035588091e-13),
    (0.0, 0.0),
    (0.18667499156962672, 2.885624744985993e-07),
    (0.04232317726021783, 2.884963988952771e-07),
    (0.010324840044405037, 2.885150571351608e-07),
    (0.13306767137016187, 2.8850310337946716e-07),
    (0.808157955999287, 2.886040524341382e-07),
    (0.9289121646828328, 2.99292769789794e-07),
    (0.46122048374682645, 2.8881127300817155e-07),
    (0.00014249834932160755, 2.885437684674091e-07),
    (0.40607595661761614, 2.8867215723371586e-07),
    (0.0011196652960915373, 2.885381847558561e-07),
    (0.9897564908147367, 2.8862896694903384e-07),
    (0.46263477461188407, 2.8738746288281547e-07),
)
_ENGINE_GRID_RATES = (0.4032423520740991, 0.3032677263657784, 0.21040210675420187)
_ENGINE_SWEEP_ANSWERS = (
    (0.9739704330890229, 2.9359767739212117e-07),
    (0.6672106260158994, 2.9115410205005077e-07),
    (0.439907187992383, 2.8865759649221445e-07),
    (0.2709510128819256, 2.885722522050216e-07),
    (0.14790568693776698, 2.8818856684376115e-07),
    (0.9739704329707618, 3.153210332840217e-07),
    (0.6672106260812705, 3.130985165578082e-07),
    (0.4390360967819811, 3.077369042370215e-07),
    (0.2609641918213423, 2.9946922419643585e-07),
    (0.1187092450418776, 2.885428371374177e-07),
)


def test_engine_answers_hold_within_their_gaps():
    ternary = RdpProblem(
        Pmf.from_probs((0, 1, 2), (0.5, 0.3, 0.2)),
        np.abs(np.subtract.outer(np.arange(3), np.arange(3))).astype(float))
    sols = [solve_rdp(prob) for prob in _engine_pool()]
    sols += [sol for _, _, sol in sweep_curve(ternary, [0.1, 0.2, 0.3, 0.4, 0.5], [0.05, 0.2])]
    assert len(sols) == len(_ENGINE_POOL_ANSWERS) + len(_ENGINE_SWEEP_ANSWERS)
    for sol, (rate, gap) in zip(sols, _ENGINE_POOL_ANSWERS + _ENGINE_SWEEP_ANSWERS):
        assert sol.status == OPTIMAL
        assert abs(sol.rate - rate) <= max(sol.primal_gap_estimate, gap)
    grid = np.linspace(0.0, 1.0, 513)
    for d, rate in zip((0.15, 0.2, 0.25), _ENGINE_GRID_RATES):
        got = rd_function_grid(Pmf.bernoulli(0.25), grid, lambda x, v: (x - v) ** 2, d / 2.0)
        assert abs(got - rate) <= rdplab.solver._CERT_BITS


def test_certified_gap_is_never_negative():
    # at P = 0 the dual bound can exceed the rate by round-off (1e-16 to
    # 2e-15 bits on 11 of these instances), which would make the bracket
    # [rate - gap, rate] empty
    from extreme_pool import extreme_pool  # tests/, on the path pytest gives test modules

    pool = extreme_pool()
    gaps = {i: solve_rdp(pool[i]).primal_gap_estimate for i in range(0, 300, 3)}
    assert all(pool[i].perc_budget == 0.0 for i in gaps)
    assert [i for i, gap in gaps.items() if gap < 0.0] == []
