import hashlib
import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdplab.pmf import Channel, Pmf, is_delta_typical
from rdplab.divergences import divergence, total_variation, wasserstein_sq
from rdplab.serialize import dumps, sim_report_to_dict
from rdplab.closed_forms import binary_optimal_construction, mirror_construction
from rdplab import coding
from rdplab.coding import (
    Codebook,
    DERANDOMIZED,
    SHARED_SEED,
    empirical_perception_check,
    encode_min_distortion,
    private_randomness_channel_sim,
    random_typical_codebook,
    shift_ensemble_sim,
    simulate_circle,
    simulate_seed_map,
    soft_covering_tv,
)

HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_circle_schemes_match_analytic():
    for scheme in ("private", "common", "antipodal", "unconstrained"):
        est = simulate_circle(scheme, samples=200_000, seed=3)
        assert abs(est.mean - est.analytic) <= 4 * est.std_error, scheme


def test_circle_exact_quadrature():
    est = simulate_circle("antipodal", samples=1, exact=True)
    assert est.mean == pytest.approx(2 - 4 / math.pi, abs=1e-9)
    assert est.std_error == 0.0
    est = simulate_circle("unconstrained", samples=1, exact=True)
    assert est.mean == pytest.approx(1 - 4 / math.pi**2, abs=1e-9)
    with pytest.raises(ValueError):
        simulate_circle("private", samples=1, exact=True)
    with pytest.raises(ValueError):
        simulate_circle("nope", samples=10)


def test_circle_determinism():
    a = simulate_circle("common", samples=1000, seed=11)
    b = simulate_circle("common", samples=1000, seed=11)
    assert a.mean == b.mean and a.std_error == b.std_error


def test_circle_three_sigma_coverage_over_seeds():
    # deterministic seed battery: nearly all runs sit inside 3 standard errors
    for scheme in ("private", "common"):
        hits = 0
        for seed in range(100):
            est = simulate_circle(scheme, samples=50_000, seed=seed)
            if abs(est.mean - est.analytic) <= 3 * est.std_error:
                hits += 1
        assert hits >= 99, f"{scheme}: only {hits}/100 runs inside 3 se"


def test_codebook_balanced_words():
    cb = random_typical_codebook(Pmf.bernoulli(0.5), n=4, rate_bits=0.75, delta=0.01, seed=5)
    assert len(cb) == 8
    assert np.all(cb.words.sum(axis=1) == 2)  # only the balanced type is typical


def test_codebook_size_and_typicality():
    target = Pmf.from_probs((0, 1), (0.75, 0.25))
    cb = random_typical_codebook(target, n=16, rate_bits=0.5, delta=0.3, seed=9)
    assert len(cb) == 2**8
    assert cb.rate_bits == pytest.approx(0.5)
    for m in range(len(cb)):
        assert is_delta_typical(cb.word_labels(m), target, 0.3)


def test_codebook_single_word_and_vacuous_delta():
    cb = random_typical_codebook(Pmf.bernoulli(0.5), n=6, rate_bits=0.0, delta=0.5, seed=1)
    assert len(cb) == 1
    # vacuous typicality: every length-2 word over the support can appear
    cb = random_typical_codebook(Pmf.bernoulli(0.5), n=2, rate_bits=1.0, delta=10.0, seed=2)
    assert len(cb) == 4
    seen = {tuple(w) for w in cb.words}
    assert seen <= {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_codebook_errors():
    with pytest.raises(ValueError):
        random_typical_codebook(Pmf.bernoulli(0.25), n=5, rate_bits=0.1, delta=0.01, seed=0)
    with pytest.raises(ValueError):
        random_typical_codebook(Pmf.bernoulli(0.5), n=64, rate_bits=0.9, delta=0.1, seed=0)
    with pytest.raises(ValueError):
        random_typical_codebook(Pmf.from_probs((0, 1), (1.0, 0.0)), 4, 0.5, 0.1)


def test_codebook_determinism():
    a = random_typical_codebook(Pmf.bernoulli(0.3), n=10, rate_bits=0.4, delta=0.5, seed=21)
    b = random_typical_codebook(Pmf.bernoulli(0.3), n=10, rate_bits=0.4, delta=0.5, seed=21)
    assert np.array_equal(a.words, b.words)


def test_encode_min_distortion():
    target = Pmf.bernoulli(0.5)
    words = np.array([[0, 0, 1, 1], [1, 1, 0, 0], [0, 1, 0, 1]])
    cb = Codebook(n=4, words=words, target=target, delta=1.0, rate_bits=math.log2(3) / 4)
    assert encode_min_distortion(cb, (1, 1, 0, 0), HAMMING) == 1
    # equidistant from words 0 and 1: lowest index wins
    assert encode_min_distortion(cb, (0, 1, 1, 0), HAMMING) == 0
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = tuple(rng.integers(0, 2, size=4))
        best = min(
            range(3), key=lambda m: sum(HAMMING[a, b] for a, b in zip(x, words[m]))
        )
        assert encode_min_distortion(cb, x, HAMMING) == best


def test_encode_threshold_mode():
    target = Pmf.bernoulli(0.5)
    words = np.array([[1, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 0]])
    cb = Codebook(n=4, words=words, target=target, delta=1.0, rate_bits=0.4)
    x = (0, 0, 0, 0)
    # first word within per-letter distortion 0.5 is index 1
    assert encode_min_distortion(cb, x, HAMMING, mode="threshold", threshold=0.5) == 1
    # nothing qualifies: fall back to index 0
    assert encode_min_distortion(cb, x, HAMMING, mode="threshold", threshold=-0.1) == 0
    with pytest.raises(ValueError):
        encode_min_distortion(cb, x, HAMMING, mode="threshold")


def test_seed_map_dyadic_exact():
    sm = simulate_seed_map(Pmf.bernoulli(0.5), n0=4, n=16)
    assert sm.tv_to_uniform == pytest.approx(0.0, abs=1e-15)
    sm = simulate_seed_map(Pmf.bernoulli(0.3), n0=3, n=1)
    assert sm.tv_to_uniform <= 1e-15


def test_seed_map_bound_and_assign():
    p = Pmf.bernoulli(0.25)
    sm = simulate_seed_map(p, n0=8, n=8)
    assert sm.bound == pytest.approx(8 * 0.75**8, rel=1e-12)
    assert sm.tv_to_uniform <= sm.bound
    assert sm.tv_to_uniform < 0.2  # greedy does far better than the bound
    idx = np.array([[0] * 8, [1] * 8])
    ranks = sm.assign(idx)
    assert ranks[0] == sm.bins[0]
    assert ranks[1] == sm.bins[2**8 - 1]


def test_seed_map_errors():
    with pytest.raises(ValueError):
        simulate_seed_map(Pmf.bernoulli(0.5), n0=0, n=4)
    with pytest.raises(ValueError):
        simulate_seed_map(Pmf.uniform(tuple(range(10))), n0=8, n=4)


def _heap_seed_map_bins(p_x, n0, n):
    """The atom-by-atom greedy rule: largest atom first into the lightest bin."""
    probs = p_x.probs
    masses = probs.copy()
    for _ in range(n0 - 1):
        masses = np.multiply.outer(masses, probs).ravel()
    bins = np.empty(len(masses), dtype=np.int64)
    heap = [(0.0, b) for b in range(n)]
    heapq.heapify(heap)
    for rank in np.argsort(-masses, kind="stable"):
        total, b = heapq.heappop(heap)
        bins[rank] = b
        heapq.heappush(heap, (total + float(masses[rank]), b))
    return bins


@pytest.mark.parametrize(
    "p, n0, n",
    [
        # acceptance criterion 12
        (Pmf.bernoulli(0.5), 4, 16),
        (Pmf.bernoulli(0.5), 3, 8),
        (Pmf.bernoulli(0.5), 5, 32),
        (Pmf.bernoulli(0.25), 8, 8),
        (Pmf.bernoulli(0.3), 6, 10),
        (Pmf.uniform((0, 1, 2)), 5, 9),
        (Pmf.from_probs((0, 1, 2), (0.6, 0.3, 0.1)), 7, 12),
        # the derandomized block-coding cases at n = 64
        (Pmf.from_probs((0, 1, 2), (0.5, 0.3, 0.2)), 13, 64),
        (Pmf.bernoulli(0.25), 16, 64),
        # massless atoms, and masses too small to move a bin total
        (Pmf.bernoulli(1.0), 5, 7),
        (Pmf.bernoulli(1e-6), 12, 64),
    ],
)
def test_seed_map_matches_atom_by_atom_rule(p, n0, n):
    assert np.array_equal(simulate_seed_map(p, n0, n).bins, _heap_seed_map_bins(p, n0, n))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    weights=st.lists(st.integers(0, 12), min_size=1, max_size=4).filter(any),
    n0=st.integers(1, 7),
    n=st.integers(1, 40),
)
def test_seed_map_matches_atom_by_atom_rule_drawn(weights, n0, n):
    w = np.array(weights, dtype=float)
    p = Pmf.from_probs(tuple(range(len(w))), w / w.sum())
    assert np.array_equal(simulate_seed_map(p, n0, n).bins, _heap_seed_map_bins(p, n0, n))


def _ternary_case(mode):
    p3 = Pmf.from_probs((0, 1, 2), (0.5, 0.3, 0.2))
    ch3 = Channel((0, 1, 2), (0, 1, 2), 0.3 * np.eye(3) + 0.7 * np.tile(p3.probs, (3, 1)))
    lab = np.arange(3, dtype=float)
    # a tight budget, so that some of the 8 compositions in the codebook violate it
    kw = dict(
        n=12, rate_bits=0.6, delta=0.5, trials=300, seed=11, mode=mode, alpha=0.5,
        perception_budget=0.12,
    )
    return ch3, p3, np.abs(lab[:, None] - lab[None, :]), kw


def _binary_case(mode):
    kw = dict(n=16, rate_bits=0.35, delta=0.4, trials=300, seed=7, mode=mode, alpha=0.5)
    return _test_channel(), Pmf.bernoulli(0.25), lambda x, v: (x - v) ** 2, kw


SIM_CASES = {"binary": _binary_case, "ternary": _ternary_case}


# sha256 of the serialized report, recorded before the seed map and the
# perception audit were vectorized; any change to a report or to the random
# streams behind it shows here
GOLDEN_REPORTS = {
    ("binary", SHARED_SEED): "fd1623d08a6da88437adaefdd28314142d5d4000d7de4a4c386f816acd99c96d",
    ("binary", DERANDOMIZED): "ac6dda18a9964afe2e986216fad4091a970e6928b0c568b817b868fc4d651b07",
    ("ternary", SHARED_SEED): "b60afaca141389b8ce185c50b960154685753776d23ba085a9aaa4ec132ff170",
    ("ternary", DERANDOMIZED): "8b26635990a16f35aa3456f774fa81d8938e4e39144c177ed3f19555cf27f03d",
}


@pytest.mark.parametrize("case, mode", sorted(GOLDEN_REPORTS))
def test_shift_ensemble_report_is_pinned(case, mode):
    channel, p_x, dist, kw = SIM_CASES[case](mode)
    rep = shift_ensemble_sim(channel, p_x, dist, **kw)
    digest = hashlib.sha256(dumps(sim_report_to_dict(rep)).encode()).hexdigest()
    assert digest == GOLDEN_REPORTS[case, mode]


@pytest.mark.parametrize("case", sorted(SIM_CASES))
@pytest.mark.parametrize("mode", [SHARED_SEED, DERANDOMIZED])
def test_perception_audit_matches_per_word_loop(case, mode, monkeypatch):
    channel, p_x, dist, kw = SIM_CASES[case](mode)
    encoded = []
    batch_encode = coding._batch_encode

    def spy(*args, **kwargs):
        m_star, best = batch_encode(*args, **kwargs)
        encoded.append(m_star)
        return m_star, best

    monkeypatch.setattr(coding, "_batch_encode", spy)
    rep = shift_ensemble_sim(channel, p_x, dist, **kw)
    budget = rep.diagnostics["perception_budget"]
    pushed = channel.push(p_x)
    target = Pmf.from_pairs([(a, pushed.prob(a)) for a in pushed.support()])
    cb = random_typical_codebook(target, kw["n"], kw["rate_bits"], kw["delta"], kw["seed"])
    assert len(cb) == rep.diagnostics["codebook_words"]
    dv = total_variation() if p_x.labels == target.labels else wasserstein_sq()
    k = len(target.atoms)
    word_divs = [
        divergence(dv, p_x, Pmf.from_probs(target.labels, np.bincount(w, minlength=k) / kw["n"]))
        for w in cb.words
    ]
    expected = sum(word_divs[m] > budget for m in encoded[0])
    assert rep.perception_violations == expected
    if case == "ternary":
        assert expected > 0


def _test_channel(rho=0.25, dist=0.3):
    sol = binary_optimal_construction(rho, dist)
    return sol.p_v_given_x


def test_shift_ensemble_shared_seed_basics():
    ch = _test_channel()
    rep = shift_ensemble_sim(
        ch,
        Pmf.bernoulli(0.25),
        lambda x, v: (x - v) ** 2,
        n=16,
        rate_bits=0.35,
        delta=0.4,
        trials=400,
        seed=7,
        mode=SHARED_SEED,
    )
    assert rep.n == 16 and rep.trials == 400
    assert len(rep.per_letter_marginals) == 16
    assert rep.avg_distortion >= 0.0
    # shift averaging keeps the per-letter marginals nearly identical
    p1 = np.array([m.probs[1] for m in rep.per_letter_marginals])
    assert p1.max() - p1.min() <= 4 * 0.5 / math.sqrt(400) * 2


def test_shift_ensemble_determinism():
    ch = _test_channel()
    kw = dict(
        n=12, rate_bits=0.3, delta=0.5, trials=128, seed=17, mode=SHARED_SEED
    )
    a = shift_ensemble_sim(ch, Pmf.bernoulli(0.25), lambda x, v: (x - v) ** 2, **kw)
    b = shift_ensemble_sim(ch, Pmf.bernoulli(0.25), lambda x, v: (x - v) ** 2, **kw)
    assert a.avg_distortion == b.avg_distortion
    assert a.max_perletter_divergence == b.max_perletter_divergence
    for ma, mb in zip(a.per_letter_marginals, b.per_letter_marginals):
        assert np.array_equal(ma.probs, mb.probs)


def test_shift_ensemble_single_word():
    ch = _test_channel()
    rep = shift_ensemble_sim(
        ch,
        Pmf.bernoulli(0.25),
        lambda x, v: (x - v) ** 2,
        n=1,
        rate_bits=0.0,
        delta=20.0,
        trials=64,
        seed=3,
    )
    marg = rep.per_letter_marginals[0].probs
    assert set(np.round(marg, 12)) <= {0.0, 1.0}  # point mass on the single word


def test_shift_ensemble_derandomized_runs():
    ch = _test_channel()
    rep = shift_ensemble_sim(
        ch,
        Pmf.bernoulli(0.25),
        lambda x, v: (x - v) ** 2,
        n=16,
        rate_bits=0.35,
        delta=0.4,
        trials=400,
        seed=7,
        mode=DERANDOMIZED,
        alpha=0.5,
    )
    assert rep.diagnostics["n0"] == 8
    assert rep.diagnostics["seed_map_tv"] is not None
    assert rep.avg_distortion >= 0.0


def test_soft_covering_point_mass():
    target = Pmf.bernoulli(0.5)
    words = np.array([[0, 1, 0]])
    cb = Codebook(n=3, words=words, target=target, delta=5.0, rate_bits=0.0)
    p = Pmf.bernoulli(0.25)
    tv = soft_covering_tv(Channel.identity((0, 1)), cb, p)
    # point mass vs product law: TV = 1 - p^n(word)
    assert tv == pytest.approx(1.0 - 0.75 * 0.25 * 0.75, abs=1e-12)


def test_soft_covering_decreases_with_n():
    p = Pmf.bernoulli(0.5)
    bsc = Channel.bsc(0.11)
    values = []
    for n in (4, 8):
        tvs = []
        for seed in range(5):
            cb = random_typical_codebook(p, n=n, rate_bits=1.0, delta=0.6, seed=seed)
            tvs.append(soft_covering_tv(bsc, cb, p))
        values.append(np.mean(tvs))
    assert values[1] < values[0]


def test_empirical_perception_check():
    p = Pmf.bernoulli(0.25)
    assert empirical_perception_check((0, 0, 0, 1), p, total_variation(), 0.0)
    # constant sequences: TV oracle gives 0.25 (zeros) and 0.75 (ones)
    assert empirical_perception_check((0,) * 8, p, total_variation(), 0.5)
    assert not empirical_perception_check((1,) * 8, p, total_variation(), 0.5)
    assert empirical_perception_check((0.0, 1.0), Pmf.bernoulli(0.5), wasserstein_sq(), 1e-12)


def test_private_randomness_identity():
    p = Pmf.bernoulli(0.25)
    rep = private_randomness_channel_sim(
        p, Channel.identity((0, 1)), Channel.identity((0, 1)), trials=2000, seed=5
    )
    assert rep.avg_distortion == 0.0
    assert rep.per_letter_marginals[0].prob(1) == pytest.approx(0.25, abs=0.05)


def test_private_randomness_mirror():
    p = Pmf.bernoulli(0.25)
    sol = binary_optimal_construction(0.25, 0.2)
    mc = mirror_construction(p, sol.p_v_given_x)
    trials = 200_000
    rep = private_randomness_channel_sim(
        p, mc.u_channel(), mc.decoder_channel(), trials=trials, seed=12
    )
    sigma = math.sqrt(0.25 * 0.75 / trials)
    assert abs(rep.per_letter_marginals[0].prob(1.0) - 0.25) <= 4 * sigma
    expect = mc.expected_sq_distortion()
    assert abs(rep.avg_distortion - expect) <= 5 * sigma
    for info in rep.diagnostics.values():
        mc_err = 3 / math.sqrt(info["pairs"])
        assert abs(info["mismatch_rate"] - info["tv"]) <= mc_err + 1e-12
