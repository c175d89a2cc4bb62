import functools
import hashlib
import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdplab.pmf import Channel, Pmf, is_delta_typical
from rdplab.divergences import coupling_cost, divergence, total_variation, wasserstein_sq
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


def test_codebook_rejects_empty_length(recwarn):
    with pytest.raises(ValueError, match="n must be positive"):
        random_typical_codebook(Pmf.bernoulli(0.5), n=0, rate_bits=1.0, delta=0.6, seed=0)
    assert not recwarn.list


def test_codebook_rejects_words_of_length_zero():
    with pytest.raises(ValueError, match="n must be positive"):
        Codebook(n=0, words=np.empty((2, 0), dtype=int), target=Pmf.bernoulli(0.5))


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


def _soft_covering_tv_oracle(channel_out, cb, p_x):
    """Reference: one product law per codeword, summed in codebook order."""
    rows = channel_out.matrix
    p_out = np.zeros(len(p_x.atoms) ** cb.n)
    for word in cb.words:
        p_out += functools.reduce(np.multiply.outer, rows[word]).ravel()
    p_out /= len(cb)
    prod = functools.reduce(np.multiply.outer, [p_x.probs] * cb.n).ravel()
    return float(0.5 * np.abs(p_out - prod).sum())


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), k_in=st.integers(1, 3), n_x=st.integers(1, 3), n=st.integers(1, 7))
def test_soft_covering_fold_matches_per_word_sum(data, k_in, n_x, n):
    weights = st.floats(0.05, 1.0)
    rows = np.array(data.draw(st.lists(
        st.lists(weights, min_size=n_x, max_size=n_x), min_size=k_in, max_size=k_in)))
    ref = np.array(data.draw(st.lists(weights, min_size=n_x, max_size=n_x)))
    # distinct ranks, then repeats of some of them, in a drawn order
    ranks = data.draw(st.lists(st.integers(0, k_in**n - 1), min_size=1, max_size=25))
    repeats = data.draw(st.lists(st.integers(0, 24), max_size=25))
    ranks = data.draw(st.permutations(ranks + [ranks[i % len(ranks)] for i in repeats]))
    words = np.array(np.unravel_index(ranks, (k_in,) * n)).T
    outputs = tuple("abc"[:n_x])
    channel = Channel(tuple(range(k_in)), outputs, rows / rows.sum(axis=1, keepdims=True))
    p_x = Pmf.from_probs(outputs, ref / ref.sum())
    cb = Codebook(n=n, words=words, target=Pmf.uniform(range(k_in)))
    assert soft_covering_tv(channel, cb, p_x) == pytest.approx(
        _soft_covering_tv_oracle(channel, cb, p_x), abs=1e-12)


@pytest.mark.parametrize(
    "channel, n, message",
    [
        (Channel.identity((1, 0)), 4, "channel inputs must match the codebook alphabet"),
        (Channel((0, 1), ("a", "b"), np.eye(2)), 4, "channel outputs must match the reference alphabet"),
        (Channel.bsc(0.11), 25, "output space too large for exact enumeration"),
    ],
    ids=["inputs", "outputs", "enumeration"],
)
def test_soft_covering_guards(channel, n, message):
    p = Pmf.bernoulli(0.5)
    cb = Codebook(n=n, words=np.zeros((1, n), dtype=int), target=p)
    with pytest.raises(ValueError, match=message):
        soft_covering_tv(channel, cb, p)


def test_soft_covering_rejects_an_empty_codebook(recwarn):
    p = Pmf.bernoulli(0.5)
    cb = Codebook(n=3, words=np.empty((0, 3), dtype=int), target=p)
    with pytest.raises(ValueError, match="codebook has no words"):
        soft_covering_tv(Channel.bsc(0.11), cb, p)
    assert not recwarn.list


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
    # a coupling cost is indexed by the source labels, in their order, seen
    # in the sequence or not
    hamming = coupling_cost(1.0 - np.eye(2))
    assert empirical_perception_check((0, 0, 0, 0), p, hamming, 0.25)
    assert not empirical_perception_check((0, 0, 0, 0), p, hamming, 0.2)
    ba = Pmf.from_probs(("b", "a"), (0.75, 0.25))
    asymmetric = coupling_cost(np.array([[0.0, 1.0], [5.0, 0.0]]))
    assert empirical_perception_check(("a", "b", "b", "b"), ba, asymmetric, 0.0)


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


def _words_digest(cb):
    return hashlib.sha256(cb.words.tobytes()).hexdigest()


def _ternary_block_target():
    # the ternary target of the n = 64 block-coding benchmark
    p3 = Pmf.from_probs((0, 1, 2), (0.5, 0.3, 0.2))
    ch3 = Channel((0, 1, 2), (0, 1, 2), 0.3 * np.eye(3) + 0.7 * np.tile(p3.probs, (3, 1)))
    return ch3.push(p3)


CODEBOOK_CASES = {
    # exact path: acceptance criterion 10's binary codebooks
    "binary-n12": lambda: random_typical_codebook(Pmf.bernoulli(0.5), 12, 1.0, 0.6, seed=3),
    "ternary-n64": lambda: random_typical_codebook(_ternary_block_target(), 64, 0.2, 0.05, seed=8),
    "quaternary-n24": lambda: random_typical_codebook(
        Pmf.from_probs((0, 1, 2, 3), (0.375, 0.25, 0.125, 0.25)), 24, 0.5, 1 / 3, seed=0
    ),
    # a typical set of about 2^1760 words, beyond any list of its members
    "bernoulli-n2000": lambda: random_typical_codebook(Pmf.bernoulli(0.3), 2000, 0.005, 0.5, seed=4),
}


def _soft_covering_digest():
    p = Pmf.bernoulli(0.5)
    bsc = Channel.bsc(0.11)
    tvs = [
        soft_covering_tv(bsc, random_typical_codebook(p, n, rate, 0.6, seed=s), p)
        for n in (4, 8, 12)
        for rate in (1.0, 0.1)
        for s in range(2)
    ]
    return hashlib.sha256(repr(tvs).encode()).hexdigest()


def _seed_map_digest():
    h = hashlib.sha256()
    for p, n0, n in [
        (Pmf.from_probs((0, 1, 2), (0.6, 0.3, 0.1)), 1, 4),
        (Pmf.from_probs((0, 1, 2), (0.6, 0.3, 0.1)), 3, 5),
        (Pmf.bernoulli(0.3), 6, 10),
        (Pmf.from_probs((0, 1, 2), (0.5, 0.3, 0.2)), 6, 64),
    ]:
        sm = simulate_seed_map(p, n0, n)
        h.update(sm.bins.tobytes())
        h.update(repr(sm.tv_to_uniform).encode())
        h.update(sm.assign(np.indices((3,) * n0).reshape(n0, -1).T % len(p.atoms)).tobytes())
    return h.hexdigest()


PINNED_CODING = {
    **{case: (lambda f=f: _words_digest(f())) for case, f in CODEBOOK_CASES.items()},
    "soft-covering-tv": _soft_covering_digest,
    "seed-map": _seed_map_digest,
}

# sha256 of codebook words, soft-covering TVs and seed maps, recorded before
# the typicality test and the product laws were shared; any change to these
# outputs or to the random streams behind them shows here.  bernoulli-n2000
# was recorded again when its words became uniform on the typical set, and
# soft-covering-tv when the mixture law came to be summed over the
# codebook's prefix trie (8 of its 12 TVs moved, by at most 8.3e-16).
CODING_DIGESTS = {
    "bernoulli-n2000": "a3e9050784a6a2e4af1875527be4b85053a4bcc6a3b9c6216d117540edc32e2e",
    "binary-n12": "399c1350379064ebd52b93f476cc7c0e8079682311d5697ca14569cb8adb6232",
    "quaternary-n24": "7059f32d064f3a61a39a29093d1f64de4b197a96994d8eb02aadb390048f270c",
    "seed-map": "7084c07dfcc3ffe7f35893ac9edc3153cde0c3da28f169955ba2c84a137ac7ec",
    "soft-covering-tv": "41ffe89504e8ca8a1fd41b3dce195f6181b58a1db4658a109c3631a718b04b29",
    "ternary-n64": "7e00eddf601b2231311d7a2dcfe2a2f9cbda1a01f072bcd82d9394594002f75d",
}


@pytest.mark.parametrize("case", sorted(PINNED_CODING))
def test_coding_outputs_are_pinned(case):
    assert PINNED_CODING[case]() == CODING_DIGESTS[case]


def test_codebook_words_pass_is_delta_typical():
    cb = CODEBOOK_CASES["quaternary-n24"]()
    assert all(is_delta_typical(cb.word_labels(m), cb.target, cb.delta) for m in range(len(cb)))


def _compositions(n, k):
    """All count vectors of length k summing to n, in lexicographic order."""
    if k == 1:
        return [(n,)]
    return [(c,) + rest for c in range(n + 1) for rest in _compositions(n - c, k - 1)]


def test_codebook_ranks_cover_the_typical_compositions(monkeypatch):
    # the rank bound is the size of the typical set that is_delta_typical
    # defines, boundary cases included, and the first rank of each
    # composition's block (lexicographic order) draws a word of it
    bounds, ranks = [], []

    def scripted(gen, bound):
        bounds.append(bound)
        return ranks.pop(0)

    monkeypatch.setattr(coding, "randint_below", scripted)
    targets = [
        (0.5, 0.5),
        (0.75, 0.25),
        (0.7, 0.3),
        (0.5, 0.3, 0.2),
        (0.6, 0.3, 0.1),
        (1 / 3, 1 / 3, 1 / 3),
        (0.375, 0.25, 0.125, 0.25),
    ]
    grid = [
        (probs, n, (0.1, 0.25, 1 / 3, 0.5, 0.6, 1.0, 2.0))
        for probs in targets
        for n in (1, 2, 3, 5, 8, 12, 24)
    ]
    # every word is typical, and the per-symbol count ranges span 27^4
    # count vectors
    grid.append(((0.25,) * 4, 21, (4.0,)))
    for probs, n, deltas in grid:
        k = len(probs)
        target = Pmf.from_probs(tuple(range(k)), probs)
        comps = _compositions(n, k)
        seqs = [np.repeat(np.arange(k), c).tolist() for c in comps]
        for delta in deltas:
            typical = [c for c, seq in zip(comps, seqs) if is_delta_typical(seq, target, delta)]
            sizes = [math.factorial(n) // math.prod(map(math.factorial, c)) for c in typical]
            bounds.clear()
            if not typical:
                with pytest.raises(ValueError, match="typical set empty"):
                    random_typical_codebook(target, n, 0.0, delta)
                assert bounds == []
            elif n > 12:
                ranks[:] = [0]
                random_typical_codebook(target, n, 0.0, delta)
                assert bounds == [sum(sizes)], (probs, n, delta)
            else:
                ranks[:] = [sum(sizes[:i]) for i in range(len(sizes))]
                # floor(2^{nR}) = len(typical): one word per composition
                cb = random_typical_codebook(target, n, math.log2(len(typical) + 0.5) / n, delta)
                assert bounds == [sum(sizes)] * len(typical), (probs, n, delta)
                drawn = [tuple(np.bincount(w, minlength=k)) for w in cb.words]
                assert drawn == typical, (probs, n, delta)


def test_codebook_is_uniform_on_the_typical_set():
    # Bernoulli(0.3), n = 2000, delta = 0.5: the float test admits 300-899
    # ones; under the uniform law the count of ones has this mean and spread
    n = 2000
    s0, s1, s2 = (sum(c**i * math.comb(n, c) for c in range(300, 900)) for i in range(3))
    mean, var = s1 / s0, (s2 * s0 - s1 * s1) / (s0 * s0)
    cb = random_typical_codebook(Pmf.bernoulli(0.3), n, 0.005, 0.5, seed=4)
    assert mean == pytest.approx(894.92, abs=0.005)
    assert abs(cb.words.sum(axis=1).mean() - mean) <= 5 * math.sqrt(var / len(cb))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    weights=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    n=st.integers(1, 16),
    delta=st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 0.6, 1.0, 2.0]),
    rate_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_codebook_words_typical_sized_and_reproducible(weights, n, delta, rate_share, seed):
    k = len(weights)
    target = Pmf.from_probs(tuple(range(k)), tuple(w / sum(weights) for w in weights))
    rate = rate_share * 6 / n  # at most 64 words
    try:
        cb = random_typical_codebook(target, n, rate, delta, seed=seed)
    except ValueError as exc:
        assert "typical set empty" in str(exc)
        assert not any(
            is_delta_typical(np.repeat(np.arange(k), c).tolist(), target, delta)
            for c in _compositions(n, k)
        )
        return
    assert len(cb) == max(1, int(2 ** (n * rate)))
    assert all(is_delta_typical(cb.word_labels(m), target, delta) for m in range(len(cb)))
    again = random_typical_codebook(target, n, rate, delta, seed=seed)
    assert again.words.tobytes() == cb.words.tobytes()
