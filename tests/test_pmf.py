import math

import numpy as np
import pytest

from rdplab.pmf import (
    AlphabetMismatchError,
    Channel,
    Coupling,
    Pmf,
    binary_entropy,
    empirical_pmf,
    entropy,
    is_delta_typical,
    mutual_information,
)


def _coupling(joint, right=(0, 1)):
    return Coupling(Pmf.bernoulli(0.5), Pmf.uniform(right), np.array(joint))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: Pmf.from_probs((0, 1), (1.0,)), ValueError, "labels/probs length mismatch",
                 id="from-probs-length"),
    pytest.param(lambda: Pmf.bernoulli(1.5), ValueError, r"rho=1.5 outside \[0, 1\]", id="bernoulli-range"),
    pytest.param(lambda: Pmf.bernoulli(0.5).prob(2), KeyError, "2", id="prob-missing-label"),
    pytest.param(lambda: Channel((0, 1), (), np.zeros((2, 0))), ValueError, "empty pmf", id="empty-pmf"),
    pytest.param(lambda: Channel((0, 1), (0, 1), np.eye(3)), ValueError,
                 r"matrix shape \(3, 3\) does not match alphabets", id="channel-shape"),
    pytest.param(lambda: Channel((0, 0), (0, 1), np.eye(2)), ValueError, "duplicate input labels",
                 id="channel-duplicate-inputs"),
    pytest.param(lambda: Channel((0, 1), (1, 1), np.eye(2)), ValueError, "duplicate output labels",
                 id="channel-duplicate-outputs"),
    pytest.param(lambda: Channel.identity((1, 2)).push(Pmf.bernoulli(0.5)), AlphabetMismatchError,
                 "channel inputs .* do not match pmf labels", id="push-mismatch"),
    pytest.param(lambda: _coupling(np.eye(3) / 3), ValueError, "joint shape does not match marginals",
                 id="coupling-shape"),
    pytest.param(lambda: _coupling([[0.6, -0.1], [-0.1, 0.6]]), ValueError, "negative joint mass",
                 id="coupling-negative"),
    pytest.param(lambda: _coupling([[0.5, 0.25], [0.0, 0.25]]), ValueError,
                 "row sums do not match left marginal", id="coupling-rows"),
    pytest.param(lambda: _coupling([[0.5, 0.0], [0.5, 0.0]]), ValueError,
                 "column sums do not match right marginal", id="coupling-columns"),
    pytest.param(lambda: _coupling(np.eye(2) / 2, right=(1, 2)).off_diagonal_mass(), AlphabetMismatchError,
                 "off-diagonal mass needs a shared alphabet", id="off-diagonal-alphabets"),
    pytest.param(lambda: is_delta_typical([], Pmf.bernoulli(0.5), 0.1), ValueError, "empty sequence",
                 id="typical-empty-sequence"),
    pytest.param(lambda: is_delta_typical([0, 1, 0, 0], Pmf.bernoulli(0.25), math.nan), ValueError,
                 "delta must be positive", id="typical-nan-slack"),
])
def test_pmf_inputs_fail_fast(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_pmf_validation():
    with pytest.raises(ValueError):
        Pmf(((0, 0.6), (1, 0.6)))
    with pytest.raises(ValueError):
        Pmf(((0, 0.5), (0, 0.5)))
    with pytest.raises(ValueError):
        Pmf(((0, -0.1), (1, 1.1)))
    p = Pmf.bernoulli(0.25)
    assert p.prob(1) == pytest.approx(0.25, abs=1e-15)
    assert abs(sum(p.probs) - 1.0) < 1e-15


def test_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # high-precision evaluation of H_b(0.25)
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)
    assert entropy(Pmf.bernoulli(0.25)) == pytest.approx(binary_entropy(0.25), abs=1e-14)
    assert entropy(Pmf.delta("a")) == 0.0
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_mutual_information_trivial():
    p = Pmf.bernoulli(0.5)
    assert mutual_information(p, Channel.identity((0, 1))) == pytest.approx(1.0, abs=1e-12)
    const = Channel((0, 1), (0, 1), np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert mutual_information(Pmf.bernoulli(0.3), const) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(AlphabetMismatchError):
        mutual_information(Pmf.bernoulli(0.5), Channel.identity(("a", "b")))


def test_mutual_information_against_double_sum():
    # B(0.25) through BSC(0.2), oracle: direct sum over the joint
    p = Pmf.bernoulli(0.25)
    ch = Channel.bsc(0.2)
    joint = p.probs[:, None] * ch.matrix
    q = joint.sum(axis=0)
    expect = sum(
        joint[i, j] * np.log2(joint[i, j] / (p.probs[i] * q[j]))
        for i in range(2)
        for j in range(2)
    )
    assert mutual_information(p, ch) == pytest.approx(expect, abs=1e-12)


def test_mutual_information_nonnegative_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = rng.integers(2, 5)
        p = Pmf.from_probs(range(k), rng.dirichlet(np.ones(k)))
        w = rng.dirichlet(np.ones(k), size=k)
        ch = Channel(tuple(range(k)), tuple(range(k)), w)
        mi = mutual_information(p, ch)
        assert mi >= 0.0
    # identical rows give exactly zero
    row = rng.dirichlet(np.ones(3))
    ch = Channel((0, 1), ("a", "b", "c"), np.array([row, row]))
    assert mutual_information(Pmf.bernoulli(0.4), ch) == pytest.approx(0.0, abs=1e-12)


def test_empirical_pmf():
    assert empirical_pmf(["a"] * 4, ["a"]).probs[0] == 1.0
    p = empirical_pmf([0, 1, 0, 1], [0, 1])
    assert p.prob(0) == pytest.approx(0.5)
    p = empirical_pmf([0, 0, 0, 1], [0, 1])
    assert p.prob(1) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        empirical_pmf([], [0, 1])
    with pytest.raises(AlphabetMismatchError):
        empirical_pmf([2], [0, 1])


def test_delta_typicality():
    p = Pmf.bernoulli(0.25)
    assert is_delta_typical((0, 0, 0, 1), p, 0.01)  # empirical equals p exactly
    assert not is_delta_typical((0, 0, 0, 0), p, 0.1)  # |1 - 0.75| > 0.1 * 0.75
    assert is_delta_typical((0, 0, 0, 1), p, 1e-9)
    # symbol outside the support is atypical, not an error
    assert not is_delta_typical((0, 2), p, 0.5)
    with pytest.raises(ValueError):
        is_delta_typical((0, 1), p, 0.0)
