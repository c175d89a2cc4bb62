"""Executable coding schemes: one-shot circle coders, typical-set block codes
with circular-shift derandomization, seed simulation, soft covering, and
perception auditing.

Every simulation is bit-reproducible given (seed, parameters): randomness
comes from Philox counter streams, block trials each own the stream
`TRIAL_BASE + trial`, and codebook generation owns `CODEBOOK_STREAM`.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import circle_analytic
from .divergences import WASSERSTEIN_SQ, DivergenceSpec, divergence, maximal_coupling, total_variation, wasserstein_sq
from .pmf import Channel, Pmf, _distortion_matrix, _typical_counts, empirical_pmf
from .rng import AUX_STREAM, CODEBOOK_STREAM, TRIAL_BASE, randint_below, stream

MAX_CODEBOOK_WORDS = 1 << 20
MAX_ENUMERATION = 1 << 24
MAX_SEED_ATOMS = 1 << 22
_ENCODE_CHUNK_ELEMS = 50_000_000  # trials x codewords per block of _batch_encode


@dataclass(frozen=True, eq=False)
class Codebook:
    """Fixed list of length-n words over the target alphabet.

    `words` holds symbol indices into `target.labels`; all words are
    delta-typical for the target distribution.
    """

    n: int
    words: np.ndarray = field(repr=False)
    target: Pmf = None  # type: ignore[assignment]
    delta: float = 0.0
    rate_bits: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        w = np.asarray(self.words, dtype=np.int64)
        if w.ndim != 2 or w.shape[1] != self.n:
            raise ValueError("words must be an (M, n) index array")
        if w.size and (w.min() < 0 or w.max() >= len(self.target.atoms)):
            raise ValueError("word symbol index out of range")
        object.__setattr__(self, "words", w)

    @property
    def alphabet(self) -> tuple:
        return self.target.labels

    def word_labels(self, m: int) -> tuple:
        labels = self.target.labels
        return tuple(labels[i] for i in self.words[m])

    def __len__(self) -> int:
        return self.words.shape[0]


@dataclass(frozen=True, eq=False)
class SimReport:
    n: int
    trials: int
    rate_bits: float
    avg_distortion: float
    per_letter_marginals: list[Pmf]
    max_perletter_divergence: float
    perception_violations: int
    seed: int
    diagnostics: dict | None = None


@dataclass(frozen=True)
class CircleEstimate:
    scheme: str
    samples: int
    mean: float
    std_error: float
    analytic: float


# ---------------------------------------------------------------------------
# One-shot circle schemes
# ---------------------------------------------------------------------------

CIRCLE_SCHEMES = ("private", "common", "antipodal", "unconstrained")


def simulate_circle(
    scheme: str, samples: int, seed: int = 0, exact: bool = False
) -> CircleEstimate:
    """One-bit coding of a uniform point on the unit circle.

    private:       K = half-plane of the angle; the decoder resimulates the
                   half-circle with its own uniform W.
    common:        one-bit dithered quantization of the angle with a shared
                   dither W; the decoder outputs the dithered cell midpoint.
    antipodal:     deterministic K, reconstruction points (0, +-1).
    unconstrained: deterministic K, reconstruction points (0, +-2/pi) inside
                   the circle.

    `exact` integrates the deterministic schemes over the angle instead of
    sampling.
    """
    if scheme not in CIRCLE_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    consts = circle_analytic()
    analytic = {
        "private": consts.private,
        "common": consts.common_or_antipodal,
        "antipodal": consts.common_or_antipodal,
        "unconstrained": consts.unconstrained,
    }[scheme]
    if exact:
        from scipy.integrate import quad

        if scheme == "antipodal":
            val = quad(lambda t: 2.0 - 2.0 * math.cos(t - math.pi / 2), 0.0, math.pi)[0]
            val += quad(
                lambda t: 2.0 - 2.0 * math.cos(t - 3 * math.pi / 2), math.pi, 2 * math.pi
            )[0]
            mean = val / (2 * math.pi)
        elif scheme == "unconstrained":
            val = quad(
                lambda t: 1.0 + 4.0 / math.pi**2 - (4.0 / math.pi) * abs(math.sin(t)),
                0.0,
                2 * math.pi,
                limit=200,
            )[0]
            mean = val / (2 * math.pi)
        else:
            raise ValueError(f"exact integration needs a deterministic scheme, not {scheme!r}")
        return CircleEstimate(scheme, 0, float(mean), 0.0, analytic)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    gen = stream(seed, AUX_STREAM)
    theta = 2.0 * math.pi * gen.random(samples)
    if scheme == "private":
        k = (theta >= math.pi).astype(float)
        w = gen.random(samples)
        dist = 2.0 - 2.0 * np.cos(theta - (k + w) * math.pi)
    elif scheme == "common":
        w = gen.random(samples)
        cell = np.floor(theta / math.pi + w)
        dist = 2.0 - 2.0 * np.cos(theta - (cell + 0.5 - w) * math.pi)
    elif scheme == "antipodal":
        k = (theta >= math.pi).astype(float)
        dist = 2.0 - 2.0 * np.cos(theta - (0.5 + k) * math.pi)
    else:
        dist = 1.0 + 4.0 / math.pi**2 - (4.0 / math.pi) * np.abs(np.sin(theta))
    mean = float(dist.mean())
    std_error = float(dist.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return CircleEstimate(scheme, samples, mean, std_error, analytic)


# ---------------------------------------------------------------------------
# Typical-set codebooks
# ---------------------------------------------------------------------------


def check_typical_codebook(target: Pmf, n: int, rate_bits: float, delta: float) -> None:
    """Raise ValueError unless `random_typical_codebook` accepts these
    arguments; cheap, so callers can check before drawing."""
    if n < 1:
        raise ValueError("n must be positive")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if rate_bits < 0.0:
        raise ValueError("rate must be nonnegative")
    if np.any(target.probs <= 0.0):
        raise ValueError("target must have full support; restrict the alphabet first")
    if 2.0 ** (n * rate_bits) > MAX_CODEBOOK_WORDS:
        raise ValueError("codebook larger than 2^20 words")


def random_typical_codebook(
    target: Pmf, n: int, rate_bits: float, delta: float, seed: int = 0
) -> Codebook:
    """Draw floor(2^{n R}) words independently and uniformly from the
    delta-typical set of `target`, at every n.

    A word is drawn by unranking (Cover's enumerative code inverted): a
    uniform rank r below the size of the set picks the composition, in
    lexicographic order of count vectors with blocks as large as the type
    classes, and a uniform permutation of that composition is the word.
    The count of symbol j is the block of r among C(m, c) * (completions
    of the other m - c letters), and r // C(m, c) ranks those completions.
    """
    check_typical_codebook(target, n, rate_bits, delta)
    probs = target.probs
    n_words = max(1, int(2.0 ** (n * rate_bits)))
    k = len(probs)
    # the typicality test is per symbol, so it is the allowed counts of each
    allowed = [
        np.flatnonzero(_typical_counts(np.arange(n + 1)[:, None], n, probs[j : j + 1], delta))
        for j in range(k)
    ]
    last_allowed = set(allowed[-1].tolist())
    # (j, m) -> with m letters left for symbols j, ..., k - 1: the counts c
    # of symbol j that have completions, cumulative block sizes (python
    # ints: they overflow int64), C(m, c), and the state each c leads to
    # (None after symbol k - 2); only states a walk reaches are built.
    states: dict[tuple[int, int], tuple] = {}

    def walk_state(j: int, m: int) -> tuple:
        if (j, m) not in states:
            counts, cum, combs, nexts = [], [0], [], []
            for c in allowed[j][allowed[j] <= m].tolist():
                if j == k - 2:
                    nxt, completions = None, int(m - c in last_allowed)
                else:
                    nxt = walk_state(j + 1, m - c)
                    completions = nxt[1][-1]
                if completions:
                    counts.append(c)
                    combs.append(math.comb(m, c))
                    cum.append(cum[-1] + combs[-1] * completions)
                    nexts.append(nxt)
            states[j, m] = (counts, cum, combs, nexts if j < k - 2 else None)
        return states[j, m]

    root = walk_state(0, n) if k > 1 else None
    total = root[1][-1] if k > 1 else int(n in last_allowed)
    if total == 0:
        raise ValueError(f"delta-typical set empty for n={n}, delta={delta}")
    gen = stream(seed, CODEBOOK_STREAM)
    # composition, without its implied last count -> its sorted multiset
    multisets: dict[tuple[int, ...], np.ndarray] = {}
    words = np.empty((n_words, n), dtype=np.int64)
    for w in range(n_words):
        r = randint_below(gen, total)
        node, comp = root, ()
        while node is not None:
            counts, cum, combs, nexts = node
            t = bisect.bisect_right(cum, r) - 1
            comp += (counts[t],)
            if nexts is None:
                break
            r = (r - cum[t]) // combs[t]
            node = nexts[t]
        multiset = multisets.get(comp)
        if multiset is None:
            multiset = multisets[comp] = np.repeat(np.arange(k), comp + (n - sum(comp),))
        words[w] = gen.permutation(multiset)
    return Codebook(
        n=n,
        words=words,
        target=target,
        delta=delta,
        rate_bits=math.log2(n_words) / n,
    )


def encode_min_distortion(
    cb: Codebook,
    xn,
    dist,
    source_alphabet=None,
    mode: str = "min_distortion",
    threshold: float | None = None,
) -> int:
    """Index of the codeword minimizing the blockwise distortion to `xn`.

    Ties break toward the lowest index.  mode="threshold" instead returns the
    first word whose per-letter distortion is at most `threshold`, falling
    back to index 0 (the construction the covering argument analyses).
    """
    src = tuple(source_alphabet) if source_alphabet is not None else cb.alphabet
    mat = _distortion_matrix(dist, src, cb.alphabet)
    index = {a: i for i, a in enumerate(src)}
    x_idx = np.array([index[s] for s in xn], dtype=np.int64)
    if len(x_idx) != cb.n:
        raise ValueError(f"sequence length {len(x_idx)} != block length {cb.n}")
    lookup = mat[x_idx]  # (n, |alphabet|)
    totals = lookup[np.arange(cb.n)[None, :], cb.words].sum(axis=1)
    if mode == "min_distortion":
        return int(np.argmin(totals))
    if mode == "threshold":
        if threshold is None:
            raise ValueError("threshold mode needs a threshold")
        hits = np.nonzero(totals / cb.n <= threshold)[0]
        return int(hits[0]) if hits.size else 0
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Seed simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SeedMap:
    """Deterministic map from n0 source symbols to a near-uniform value in [0:n-1]."""

    n0: int
    n_bins: int
    alphabet: tuple
    bins: np.ndarray = field(repr=False)
    tv_to_uniform: float = 0.0
    bound: float = 0.0

    def assign(self, idx: np.ndarray) -> np.ndarray:
        """Bin of each row of an (T, n0) array of symbol indices."""
        idx = np.asarray(idx, dtype=np.int64)
        return self.bins[np.ravel_multi_index(tuple(idx.T), (len(self.alphabet),) * self.n0)]


def simulate_seed_map(p_x: Pmf, n0: int, n: int) -> SeedMap:
    """Greedy near-uniform binning of the |X|^{n0} product atoms into n bins.

    Atoms are placed largest-first (ties by atom index) into the currently
    lightest bin (ties by bin index), so each bin overshoots 1/n by at most
    p_max^{n0}; hence the total variation to Unif[0:n-1] is at most
    n * p_max^{n0} (checked, and returned exactly).

    The greedy rule is evaluated per run of equal masses rather than per
    atom (see `_place_run`); the bins and float totals are exactly those of
    the atom-by-atom rule.
    """
    if n0 < 1 or n < 1:
        raise ValueError("n0 and n must be positive")
    k = len(p_x.atoms)
    if k**n0 > MAX_SEED_ATOMS:
        raise ValueError(f"{k}^{n0} product atoms exceed the enumeration cap")
    probs = p_x.probs
    masses = functools.reduce(np.multiply.outer, [probs] * n0).ravel()
    order = np.argsort(-masses, kind="stable")
    sorted_masses = masses[order]
    starts = np.flatnonzero(np.r_[True, sorted_masses[1:] != sorted_masses[:-1]])
    ends = np.r_[starts[1:], len(order)]
    bins = np.empty(len(masses), dtype=np.int64)
    totals = np.zeros(n)
    for start, end in zip(starts.tolist(), ends.tolist()):
        bins[order[start:end]] = _place_run(totals, float(sorted_masses[start]), end - start)
    bin_totals = np.zeros(n)
    np.add.at(bin_totals, bins, masses)
    tv = float(0.5 * np.abs(bin_totals - 1.0 / n).sum())
    bound = n * float(probs.max()) ** n0
    if tv > bound + 1e-12:
        raise RuntimeError(f"seed-map TV {tv} violates the bound {bound}")
    return SeedMap(
        n0=n0,
        n_bins=n,
        alphabet=p_x.labels,
        bins=bins,
        tv_to_uniform=tv,
        bound=bound,
    )


def _place_run(totals: np.ndarray, mass: float, count: int) -> np.ndarray:
    """Bins of `count` atoms of equal `mass`, in placement order, under the
    lightest-bin rule; `totals` is updated in place.

    Each placement takes the least (total, bin) and gives that bin the total
    total + mass, so the placements are the first `count` keys, in
    (key, bin, j) order, of the per-bin sequences t_b, t_b + mass,
    (t_b + mass) + mass, ...  np.cumsum adds sequentially, so these keys
    are the same floats as one-at-a-time placement.  Each bin gets keys up
    to the level the run fills to, plus a margin; if a bin uses all of its
    keys, its next key might have come earlier, so the margin doubles.
    """
    n = len(totals)
    if mass == 0.0:
        # a massless atom leaves the lightest bin lightest
        return np.full(count, np.argmin(totals), dtype=np.int64)
    # the level that count * mass fills the lightest bins up to, as if mass
    # were divisible; a bin takes about (level - total) / mass atoms
    s = np.sort(totals)
    levels = (mass * count + np.cumsum(s)) / np.arange(1, n + 1)
    level = levels[np.flatnonzero(levels >= s)[-1]]
    depth = np.floor((level - totals) / mass)
    margin = 2
    while True:
        n_keys = np.clip(depth + margin, 1, count + 1).astype(np.int64)
        ends = np.cumsum(n_keys)
        starts = ends - n_keys
        keys = np.full(ends[-1], mass)
        keys[starts] = totals
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            np.cumsum(keys[lo:hi], out=keys[lo:hi])
        owner = np.repeat(np.arange(n), n_keys)
        picks = np.argsort(keys, kind="stable")[:count]
        used = np.bincount(owner[picks], minlength=n)
        if np.all(used < n_keys):
            break
        margin *= 2
    totals[:] = keys[starts + used]
    return owner[picks]


# ---------------------------------------------------------------------------
# Shift-ensemble block coding
# ---------------------------------------------------------------------------

SHARED_SEED = "shared_seed"
DERANDOMIZED = "derandomized"


def shift_ensemble_sim(
    target_channel: Channel,
    p_x: Pmf,
    dist,
    n: int,
    rate_bits: float,
    delta: float,
    trials: int,
    seed: int = 0,
    mode: str = SHARED_SEED,
    alpha: float = 0.1,
    perception_divergence: DivergenceSpec | None = None,
    perception_budget: float | None = None,
) -> SimReport:
    """Block-code simulation over the ensemble of circularly shifted codebooks.

    One typical-set codebook is drawn for the pushforward of `p_x` through
    `target_channel`; shift q encodes s_{-q}(x^n) with the base code and
    shifts the chosen word back.  shared_seed draws q uniformly per trial;
    derandomized computes q from floor(alpha*n) extra source symbols through
    a seed map and reuses the first reconstructions for that tail.

    The report carries per-letter reconstruction marginals, their worst total
    variation to the target marginal, the average distortion (tail included
    in derandomized mode), and the number of trials whose reconstruction
    block violates the empirical perception budget (default: divergence of
    the target marginal from the source plus the typicality slack
    2 * delta * |support|).
    """
    if mode not in (SHARED_SEED, DERANDOMIZED):
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_tilde_full = target_channel.push(p_x)
    support = p_tilde_full.support()
    p_tilde = Pmf.from_pairs([(a, p_tilde_full.prob(a)) for a in support])
    cb = random_typical_codebook(p_tilde, n, rate_bits, delta, seed)
    src_labels = p_x.labels
    mat = _distortion_matrix(dist, src_labels, p_tilde_full.labels)
    col_idx = [p_tilde_full.labels.index(a) for a in support]
    mat = mat[:, col_idx]
    k_src = len(src_labels)
    n0 = 0
    seed_map = None
    if mode == DERANDOMIZED:
        n0 = int(math.floor(alpha * n))
        cap = int(math.floor(math.log(MAX_SEED_ATOMS, max(2, k_src))))
        n0 = min(n0, cap)
        if n0 < 1:
            raise ValueError("alpha * n below one symbol; derandomized mode needs a tail")
        seed_map = simulate_seed_map(p_x, n0, n)
    # per-trial streams: source block and the shared shift
    cum_src = np.cumsum(p_x.probs)
    x_all = np.empty((trials, n + n0), dtype=np.int64)
    qs = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        gen = stream(seed, TRIAL_BASE + t)
        u = gen.random(n + n0)
        x_all[t] = np.searchsorted(cum_src, u, side="right")
        if mode == SHARED_SEED:
            qs[t] = gen.integers(0, n)
    if mode == DERANDOMIZED:
        qs = seed_map.assign(x_all[:, n:])
    x_head = x_all[:, :n]
    cols_enc = (np.arange(n)[None, :] - qs[:, None]) % n
    xs = np.take_along_axis(x_head, cols_enc, axis=1)
    m_star, dist_head = _batch_encode(xs, cb.words, mat, k_src)
    base = cb.words[m_star]
    cols_dec = (np.arange(n)[None, :] + qs[:, None]) % n
    xhat = np.take_along_axis(base, cols_dec, axis=1)
    if mode == DERANDOMIZED:
        tail_d = np.zeros(trials)
        for j in range(n0):
            tail_d += mat[x_all[:, n + j], xhat[:, j]]
        avg_distortion = float(np.mean((dist_head + tail_d) / (n + n0)))
    else:
        avg_distortion = float(np.mean(dist_head / n))
    k_tgt = len(support)
    counts = np.zeros((n, k_tgt))
    for b in range(k_tgt):
        counts[:, b] = (xhat == b).sum(axis=0)
    marginals = [Pmf.from_probs(support, counts[t] / trials) for t in range(n)]
    max_div = max(
        divergence(total_variation(), p_tilde, marg) for marg in marginals
    )
    dv, budget = _perception_setup(
        perception_divergence, perception_budget, p_x, p_tilde, delta
    )
    violations = 0
    if dv is not None:
        # a word's divergence depends only on its composition
        word_comps = np.stack([(cb.words == b).sum(axis=1) for b in range(k_tgt)], axis=1)
        comps, comp_of_word = np.unique(word_comps, axis=0, return_inverse=True)
        comp_divs = np.array(
            [divergence(dv, p_x, Pmf.from_probs(support, c / n)) for c in comps]
        )
        violations = int(np.sum(comp_divs[comp_of_word.ravel()[m_star]] > budget))
    return SimReport(
        n=n,
        trials=trials,
        rate_bits=cb.rate_bits,
        avg_distortion=avg_distortion,
        per_letter_marginals=marginals,
        max_perletter_divergence=float(max_div),
        perception_violations=violations,
        seed=seed,
        diagnostics={
            "mode": mode,
            "n0": n0,
            "codebook_words": len(cb),
            "seed_map_tv": seed_map.tv_to_uniform if seed_map else None,
            "perception_budget": budget,
            "reference_distortion": float(
                np.sum(p_x.probs[:, None] * target_channel.matrix[:, col_idx] * mat)
            ),
        },
    )


def _batch_encode(xs, words, mat, k_src):
    """Min-distortion encoding of many blocks at once via one-hot products."""
    trials, n = xs.shape
    n_words = words.shape[0]
    word_costs = [mat[a][words] for a in range(k_src)]  # (M, n) each
    m_star = np.empty(trials, dtype=np.int64)
    best = np.empty(trials)
    step = max(1, _ENCODE_CHUNK_ELEMS // max(1, n_words))
    for start in range(0, trials, step):
        sl = slice(start, min(trials, start + step))
        totals = np.zeros((sl.stop - sl.start, n_words))
        for a in range(k_src):
            mask = (xs[sl] == a).astype(float)
            totals += mask @ word_costs[a].T
        m_star[sl] = np.argmin(totals, axis=1)
        best[sl] = totals[np.arange(sl.stop - sl.start), m_star[sl]]
    return m_star, best


def _perception_setup(dv, budget, p_x, p_tilde, delta):
    if dv is None:
        if p_x.labels == p_tilde.labels:
            dv = total_variation()
        else:
            try:
                p_x.real_values()
                p_tilde.real_values()
                dv = wasserstein_sq()
            except ValueError:
                return None, None
    if budget is None:
        budget = divergence(dv, p_x, p_tilde) + 2.0 * delta * len(p_tilde.atoms)
    return dv, float(budget)


# ---------------------------------------------------------------------------
# Soft covering
# ---------------------------------------------------------------------------


def check_soft_covering(channel_out: Channel, alphabet: tuple, p_x: Pmf, n: int) -> None:
    """Raise ValueError unless `soft_covering_tv` can score a length-n
    codebook over `alphabet`; cheap, so callers can check before drawing."""
    if channel_out.inputs != alphabet:
        raise ValueError("channel inputs must match the codebook alphabet")
    if channel_out.outputs != p_x.labels:
        raise ValueError("channel outputs must match the reference alphabet")
    if len(p_x.atoms) ** n > MAX_ENUMERATION:
        raise ValueError("output space too large for exact enumeration")


def soft_covering_tv(channel_out: Channel, cb: Codebook, p_x: Pmf) -> float:
    """Exact TV between the codebook-mixture output law and the i.i.d. law.

    Enumerates all |X|^n output sequences; the mixture is the uniform average
    over codewords of the product channel law.  It is folded over the
    codebook's prefix trie, last letter first: each distinct j-prefix carries
    the summed law of its words on letters j+1..n, which is the sum over its
    children (one per next letter a) of W[a] x (the child's law).

    With k_in channel inputs, k_in <= |X|, work is O(n * k_in * |X|^n),
    against M * |X|^n for M separate product laws; the level-j laws hold at
    most min(M, k_in^j) * |X|^(n - j) floats, never more than the |X|^n
    output law, and the products that form them at most k_in times that.
    Equal to the per-word sum in exact arithmetic; the float sums run in
    another order.
    """
    check_soft_covering(channel_out, cb.alphabet, p_x, cb.n)
    if len(cb) == 0:
        raise ValueError("codebook has no words")
    words = cb.words[np.lexsort(cb.words.T[::-1])]
    # first letter at which each sorted word differs from the next, n if equal
    differs = words[1:] != words[:-1]
    split = np.where(differs.any(axis=1), differs.argmax(axis=1), cb.n)
    # starts[g]: first word of the g-th distinct prefix at the current level
    starts = np.flatnonzero(np.r_[True, split < cb.n])
    law = np.add.reduceat(np.ones(len(cb)), starts)[:, None]
    rows = channel_out.matrix
    for j in range(cb.n - 1, -1, -1):
        law = (rows[words[starts, j]][:, :, None] * law[:, None, :]).reshape(len(starts), -1)
        # a group opens a new j-prefix iff its first word's split from the
        # word before it comes before letter j
        new_prefix = np.r_[True, split[starts[1:] - 1] < j]
        law = np.add.reduceat(law, np.flatnonzero(new_prefix))
        starts = starts[new_prefix]
    p_out = law[0] / len(cb)
    prod = functools.reduce(np.multiply.outer, [p_x.probs] * cb.n).ravel()
    return float(0.5 * np.abs(p_out - prod).sum())


def empirical_perception_check(
    xhat_seq, p_x: Pmf, d: DivergenceSpec, budget: float
) -> bool:
    """True iff d(p_X, empirical law of the sequence) is within the budget.

    The law is over the labels of `p_x` (W2: over the values seen)."""
    if d.kind == WASSERSTEIN_SQ:
        gamma = empirical_pmf(xhat_seq, sorted(set(xhat_seq)))
    else:
        gamma = empirical_pmf(xhat_seq, p_x.labels)
    return divergence(d, p_x, gamma) <= budget


# ---------------------------------------------------------------------------
# Per-letter private-randomness pipeline
# ---------------------------------------------------------------------------


def private_randomness_channel_sim(
    p_x: Pmf,
    channel: Channel,
    decoder: Channel,
    trials: int,
    seed: int = 0,
    dist=None,
) -> SimReport:
    """Simulate X -> V -> Xhat with independent private randomness per letter.

    When the decoder mirrors the posterior (p_{Xhat|V} = p_{X|V}), the output
    marginal reproduces the source.  Diagnostics sample, for each source
    symbol, the maximal coupling of the encoder row against the V-marginal
    and record the disagreement rate next to the exact total variation.
    """
    if channel.inputs != p_x.labels:
        raise ValueError("channel inputs must match the source alphabet")
    if decoder.inputs != channel.outputs:
        raise ValueError("decoder inputs must match the channel outputs")
    if dist is None:
        try:
            x_vals = p_x.real_values()
            y_vals = np.array([float(a) for a in decoder.outputs])
            mat = (x_vals[:, None] - y_vals[None, :]) ** 2
        except (ValueError, TypeError):
            if set(decoder.outputs) != set(p_x.labels):
                raise ValueError("provide a distortion for non-real alphabets")
            mat = np.array(
                [[0.0 if a == b else 1.0 for b in decoder.outputs] for a in p_x.labels]
            )
    else:
        mat = _distortion_matrix(dist, p_x.labels, decoder.outputs)
    gen = stream(seed, AUX_STREAM)
    x_idx = np.searchsorted(np.cumsum(p_x.probs), gen.random(trials), side="right")
    cum_enc = np.cumsum(channel.matrix, axis=1)
    v_idx = (gen.random(trials)[:, None] > cum_enc[x_idx]).sum(axis=1)
    cum_dec = np.cumsum(decoder.matrix, axis=1)
    xh_idx = (gen.random(trials)[:, None] > cum_dec[v_idx]).sum(axis=1)
    avg_d = float(np.mean(mat[x_idx, xh_idx]))
    counts = np.bincount(xh_idx, minlength=len(decoder.outputs))
    marginal = Pmf.from_probs(decoder.outputs, counts / trials)
    v_marginal = channel.push(p_x)
    diagnostics = {}
    diag_trials = min(trials, 200_000)
    for i, lab in enumerate(p_x.labels):
        row = channel.row(lab)
        coup = maximal_coupling(row, v_marginal)
        flat = coup.joint.ravel()
        flat = flat / flat.sum()
        draw = np.searchsorted(np.cumsum(flat), gen.random(diag_trials), side="right")
        k_v = len(v_marginal.atoms)
        mismatch = float(np.mean((draw // k_v) != (draw % k_v)))
        diagnostics[str(lab)] = {
            "tv": divergence(total_variation(), row, v_marginal),
            "mismatch_rate": mismatch,
            "pairs": diag_trials,
        }
    max_div = math.inf
    if set(decoder.outputs) == set(p_x.labels):
        reordered = Pmf.from_pairs(
            [(a, marginal.prob(a)) for a in p_x.labels]
        )
        max_div = divergence(total_variation(), p_x, reordered)
    return SimReport(
        n=1,
        trials=trials,
        rate_bits=0.0,
        avg_distortion=avg_d,
        per_letter_marginals=[marginal],
        max_perletter_divergence=float(max_div),
        perception_violations=0,
        seed=seed,
        diagnostics=diagnostics,
    )
