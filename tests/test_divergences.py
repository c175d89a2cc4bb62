import hashlib
import itertools
import math

import numpy as np
import pytest

from rdplab.pmf import AlphabetMismatchError, Pmf
from rdplab.divergences import (
    DivergenceSpec,
    coupling_cost,
    divergence,
    kullback_leibler,
    maximal_coupling,
    min_cost_coupling,
    total_variation,
    wasserstein_sq,
)
from rdplab.solver import RdpProblem


def random_pmf(rng, labels):
    return Pmf.from_probs(labels, rng.dirichlet(np.ones(len(labels))))


def test_tv_basics():
    p = Pmf.bernoulli(0.25)
    assert divergence(total_variation(), p, p) == 0.0
    assert divergence(total_variation(), p, Pmf.bernoulli(0.5)) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(AlphabetMismatchError):
        divergence(total_variation(), p, Pmf.delta("a"))


def test_kl_direction_and_infinity():
    p = Pmf.bernoulli(0.25)
    q = Pmf.bernoulli(0.5)
    expect = 0.25 * math.log2(0.25 / 0.5) + 0.75 * math.log2(0.75 / 0.5)
    assert divergence(kullback_leibler(), p, q) == pytest.approx(expect, abs=1e-14)
    # support(p) not inside support(q) -> +inf
    assert divergence(kullback_leibler(), q, Pmf.from_probs((0, 1), (1.0, 0.0))) == math.inf


def test_wasserstein_point_masses():
    assert divergence(wasserstein_sq(), Pmf.delta(0.0), Pmf.delta(1.0)) == pytest.approx(1.0)
    p = Pmf.from_probs((-1.0, 2.0), (0.5, 0.5))
    assert divergence(wasserstein_sq(), p, p) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        divergence(wasserstein_sq(), Pmf.delta("a"), Pmf.delta("a"))


def test_coupling_cost_spec_validation():
    with pytest.raises(ValueError):
        DivergenceSpec("coupling_cost")
    with pytest.raises(ValueError):
        coupling_cost(np.array([[0.0, -1.0], [1.0, 0.0]]))
    spec = coupling_cost(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert spec.kind == "coupling_cost"
    # a diagonal means something only where the two alphabets coincide, which
    # the problem knows and the spec does not
    shifted = coupling_cost(np.array([[0.5, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="must vanish when alphabets coincide"):
        RdpProblem(Pmf.bernoulli(0.3), 1.0 - np.eye(2), shifted, 0.1)


def test_coupling_cost_diagonal_counts_only_between_like_labels():
    # under c(x, x) = 0.5 a law would be 0.5 from itself: refused between
    # laws on the same labels, and an ordinary cost onto other labels
    spec = coupling_cost(np.array([[0.5, 1.0], [1.0, 0.0]]))
    p = Pmf.bernoulli(0.3)
    with pytest.raises(ValueError, match="must vanish when alphabets coincide"):
        divergence(spec, p, p)
    # the most mass from 0 to 0.25 (0.4 at 0.5), the rest of 0 to 1.25 (0.3
    # at 1), 1 to 1.25 free
    shifted = Pmf.from_probs((0.25, 1.25), (0.4, 0.6))
    assert divergence(spec, p, shifted) == pytest.approx(0.5)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: DivergenceSpec("hellinger"), ValueError, "unknown divergence kind", id="unknown-kind"),
    pytest.param(lambda: coupling_cost(np.zeros(3)), ValueError, "must be 2-D", id="1-D-cost"),
    pytest.param(lambda: min_cost_coupling(Pmf.bernoulli(0.5), Pmf.bernoulli(0.5), np.zeros((2, 3))),
                 AlphabetMismatchError, "shape does not match", id="coupling-shape"),
    pytest.param(lambda: min_cost_coupling(Pmf.bernoulli(0.5), Pmf.bernoulli(0.5), [[0, -1.0], [1.0, 0]]),
                 ValueError, "finite and nonnegative", id="coupling-negative-cost"),
])
def test_divergence_inputs_fail_fast(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_min_cost_coupling_identity():
    p = Pmf.from_probs((0, 1, 2), (0.2, 0.3, 0.5))
    cost = 1.0 - np.eye(3)
    coup, value = min_cost_coupling(p, p, cost)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(coup.joint, np.diag(p.probs), atol=1e-12)


def test_hamming_cost_equals_tv():
    rng = np.random.default_rng(11)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        p = random_pmf(rng, tuple(range(k)))
        q = random_pmf(rng, tuple(range(k)))
        ham = 1.0 - np.eye(k)
        _, value = min_cost_coupling(p, q, ham)
        assert value == pytest.approx(divergence(total_variation(), p, q), abs=1e-10)
    p = Pmf.bernoulli(0.25)
    q = Pmf.bernoulli(0.5)
    _, value = min_cost_coupling(p, q, 1.0 - np.eye(2))
    assert value == pytest.approx(0.25, abs=1e-12)


def bruteforce_transport(p, q, cost):
    """Vertex enumeration over the transportation polytope (test oracle)."""
    m, n = cost.shape
    cells = list(itertools.product(range(m), range(n)))
    best = math.inf
    nbasis = m + n - 1
    rows_eq = []
    rhs = np.concatenate([p.probs, q.probs])
    for i in range(m):
        r = np.zeros(m * n)
        r[i * n : (i + 1) * n] = 1.0
        rows_eq.append(r)
    for j in range(n):
        r = np.zeros(m * n)
        r[j::n] = 1.0
        rows_eq.append(r)
    A = np.array(rows_eq)
    for basis in itertools.combinations(range(m * n), nbasis):
        sub = A[:, basis]
        sol, res, rank, _ = np.linalg.lstsq(sub, rhs, rcond=None)
        if rank < nbasis:
            continue
        x = np.zeros(m * n)
        x[list(basis)] = sol
        if np.any(x < -1e-9):
            continue
        if np.max(np.abs(A @ x - rhs)) > 1e-9:
            continue
        val = float(np.dot(x, cost.ravel()))
        best = min(best, val)
    return best


def test_min_cost_coupling_vs_vertex_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(15):
        p = random_pmf(rng, (0, 1, 2))
        q = random_pmf(rng, (0, 1, 2))
        cost = rng.uniform(0.0, 2.0, size=(3, 3))
        np.fill_diagonal(cost, 0.0)
        _, value = min_cost_coupling(p, q, cost)
        assert value == pytest.approx(bruteforce_transport(p, q, cost), abs=1e-9)


def test_wasserstein_quantile_matches_lp():
    rng = np.random.default_rng(9)
    for _ in range(30):
        k = int(rng.integers(2, 7))
        xs = np.sort(rng.uniform(-2, 2, size=k))
        ys = np.sort(rng.uniform(-2, 2, size=k))
        p = Pmf.from_probs(tuple(xs), rng.dirichlet(np.ones(k)))
        q = Pmf.from_probs(tuple(ys), rng.dirichlet(np.ones(k)))
        cost = (xs[:, None] - ys[None, :]) ** 2
        _, lp_value = min_cost_coupling(p, q, cost)
        assert divergence(wasserstein_sq(), p, q) == pytest.approx(lp_value, abs=1e-9)


def _integer_w2_instance(m, weights):
    # p uniform on {0..m-1}, q ∝ weights on {0..n-1}, squared-index cost
    n = len(weights)
    p = Pmf.from_probs(tuple(float(i) for i in range(m)), np.full(m, 1.0 / m))
    q = Pmf.from_probs(tuple(float(j) for j in range(n)), weights / weights.sum())
    return p, q, (np.arange(m)[:, None] - np.arange(n)[None, :]) ** 2.0


def test_min_cost_coupling_ships_every_mass_under_squared_cost():
    # squared-index costs can need more than 4(m+n) augmenting paths; every
    # mass must still ship, at the exact quantile W2 of these supports
    _, value = min_cost_coupling(*_integer_w2_instance(25, np.arange(12, 0, -1.0)))
    assert value == 88.93641025641023
    rng = np.random.default_rng(3)
    for _ in range(16):
        m, n = (int(v) for v in rng.integers(9, 33, size=2))
        weights = np.arange(n, 0, -1.0) if rng.integers(2) else rng.dirichlet(np.ones(n))
        p, q, cost = _integer_w2_instance(m, weights)
        _, value = min_cost_coupling(p, q, cost)
        assert value == pytest.approx(divergence(wasserstein_sq(), p, q), abs=1e-12)


def test_min_cost_coupling_vs_scipy_lp():
    from scipy.optimize import linprog

    rng = np.random.default_rng(77)
    for trial in range(60):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        p = random_pmf(rng, tuple(range(m)))
        q = random_pmf(rng, tuple(range(n)))
        cost = rng.uniform(0.0, 3.0, size=(m, n))
        if trial % 3 == 0:
            cost = np.round(cost)  # structured costs with many ties
        _, val = min_cost_coupling(p, q, cost)
        a_eq = []
        for i in range(m):
            r = np.zeros(m * n)
            r[i * n : (i + 1) * n] = 1.0
            a_eq.append(r)
        for j in range(n):
            r = np.zeros(m * n)
            r[j::n] = 1.0
            a_eq.append(r)
        res = linprog(
            cost.ravel(),
            A_eq=np.array(a_eq),
            b_eq=np.concatenate([p.probs, q.probs]),
            bounds=(0, None),
            method="highs",
        )
        assert val == pytest.approx(res.fun, abs=1e-9)


def _transport_cost(rng, family, m, n):
    i, j = np.indices((m, n))
    if family == 0:
        return rng.uniform(0.0, 3.0, size=(m, n))
    if family == 1:
        return rng.integers(0, 3, size=(m, n)).astype(float)
    if family == 2:
        return np.abs(i - j).astype(float)
    return ((i - j) ** 2).astype(float)


def _transport_digest():
    rng = np.random.default_rng(2024)
    h = hashlib.sha256()
    for trial in range(200):
        m, n = (int(v) for v in rng.integers(1, 9, size=2))
        p = random_pmf(rng, tuple(range(m)))
        q = random_pmf(rng, tuple(range(n)))
        coup, value = min_cost_coupling(p, q, _transport_cost(rng, trial % 4, m, n))
        h.update(coup.joint.tobytes())
        h.update(repr(value).encode())
    return h.hexdigest()


# sha256 of the joints and values of 200 seeded transports (uniform, integer
# 0-2, |i-j| and (i-j)^2 costs, m, n <= 8), recorded before the Dijkstra
# became a dense scan; any change to a path, flow or value shows here.
TRANSPORT_DIGEST = "557ada90ff4fb0432b44a11c246eae8b46c1b3dd5387733ec8d2cef8d2ad69c6"


def test_min_cost_coupling_is_pinned():
    assert _transport_digest() == TRANSPORT_DIGEST


def test_maximal_coupling_properties():
    p = Pmf.bernoulli(0.25)
    q = Pmf.bernoulli(0.5)
    coup = maximal_coupling(p, q)
    assert coup.off_diagonal_mass() == pytest.approx(0.25, abs=1e-12)
    assert maximal_coupling(p, p).off_diagonal_mass() == pytest.approx(0.0, abs=1e-15)
    d0 = Pmf.from_probs((0, 1), (1.0, 0.0))
    d1 = Pmf.from_probs((0, 1), (0.0, 1.0))
    assert maximal_coupling(d0, d1).off_diagonal_mass() == pytest.approx(1.0, abs=1e-15)


def test_maximal_coupling_random_and_optimality():
    rng = np.random.default_rng(13)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        labels = tuple(range(k))
        p = random_pmf(rng, labels)
        q = random_pmf(rng, labels)
        tv = divergence(total_variation(), p, q)
        coup = maximal_coupling(p, q)
        assert coup.off_diagonal_mass() == pytest.approx(tv, abs=1e-12)
        assert np.max(np.abs(coup.joint.sum(axis=1) - p.probs)) < 1e-12
        assert np.max(np.abs(coup.joint.sum(axis=0) - q.probs)) < 1e-12
        # no coupling does better: Hamming transport cost is exactly TV
        _, ham = min_cost_coupling(p, q, 1.0 - np.eye(k))
        assert coup.off_diagonal_mass() <= ham + 1e-10


def test_convexity_in_second_argument():
    rng = np.random.default_rng(21)
    specs = [total_variation(), kullback_leibler(), wasserstein_sq()]
    for _ in range(25):
        k = int(rng.integers(2, 5))
        labels = tuple(float(v) for v in np.sort(rng.uniform(-1, 1, k)))
        p = random_pmf(rng, labels)
        q1 = random_pmf(rng, labels)
        q2 = random_pmf(rng, labels)
        lam = float(rng.uniform())
        mix = Pmf.from_probs(labels, lam * q1.probs + (1 - lam) * q2.probs)
        cost = rng.uniform(0.1, 2.0, size=(k, k))
        np.fill_diagonal(cost, 0.0)
        for spec in specs + [coupling_cost(cost)]:
            d_mix = divergence(spec, p, mix)
            d_sum = lam * divergence(spec, p, q1) + (1 - lam) * divergence(spec, p, q2)
            assert d_mix <= d_sum + 1e-9


def test_identity_of_indiscernibles():
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        labels = tuple(float(v) for v in np.sort(rng.uniform(-1, 1, k)))
        p = random_pmf(rng, labels)
        q = random_pmf(rng, labels)
        cost = rng.uniform(0.1, 2.0, size=(k, k))
        np.fill_diagonal(cost, 0.0)
        for spec in (total_variation(), kullback_leibler(), wasserstein_sq(), coupling_cost(cost)):
            assert divergence(spec, p, p) == pytest.approx(0.0, abs=1e-12)
            if np.max(np.abs(p.probs - q.probs)) > 1e-6:
                assert divergence(spec, p, q) > 0.0


def _product_pmf(p, q):
    """Product law of p and q; labels become (a, b) tuples."""
    return Pmf.from_pairs([((a, b), pa * pb) for a, pa in p.atoms for b, pb in q.atoms])


def test_tensorization_kl_and_w2():
    rng = np.random.default_rng(29)
    for _ in range(10):
        parts_p, parts_q = [], []
        for _ in range(3):
            k = int(rng.integers(2, 4))
            labels = tuple(float(v) for v in np.sort(rng.uniform(-1, 1, k)))
            parts_p.append(random_pmf(rng, labels))
            parts_q.append(random_pmf(rng, labels))
        prod_p = _product_pmf(_product_pmf(parts_p[0], parts_p[1]), parts_p[2])
        prod_q = _product_pmf(_product_pmf(parts_q[0], parts_q[1]), parts_q[2])
        kl_sum = sum(divergence(kullback_leibler(), a, b) for a, b in zip(parts_p, parts_q))
        assert divergence(kullback_leibler(), prod_p, prod_q) == pytest.approx(kl_sum, abs=1e-9)
        # W2^2 on the product space as a coupling-cost with additive squared cost
        def flat(lbl):
            (a, b), c = lbl
            return (a, b, c)
        cost = np.array(
            [
                [sum((u - v) ** 2 for u, v in zip(flat(x), flat(y))) for y in prod_q.labels]
                for x in prod_p.labels
            ]
        )
        _, joint_cost = min_cost_coupling(prod_p, prod_q, cost)
        w2_sum = sum(divergence(wasserstein_sq(), a, b) for a, b in zip(parts_p, parts_q))
        assert joint_cost == pytest.approx(w2_sum, abs=1e-9)
