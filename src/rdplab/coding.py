"""Executable coding schemes: one-shot circle coders, typical-set block codes
with circular-shift derandomization, seed simulation, soft covering, and
perception auditing.

Every simulation is bit-reproducible given (seed, parameters): randomness
comes from Philox counter streams, block trials each own the stream
`TRIAL_BASE + trial`, and codebook generation owns `CODEBOOK_STREAM`.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .closed_forms import circle_analytic
from .divergences import WASSERSTEIN_SQ, DivergenceSpec, divergence, total_variation, wasserstein_sq
from .pmf import Channel, Pmf, _check_slack, _distortion_matrix, _typical_counts, empirical_pmf
from .rng import AUX_STREAM, CODEBOOK_STREAM, TRIAL_BASE, randint_below, stream, streams

MAX_CODEBOOK_WORDS = 1 << 20
MAX_ENUMERATION = 1 << 24
MAX_SEED_ATOMS = 1 << 22
_INT64_RANKS = 1 << 63  # rank walks and soft-covering word codes run in int64 below this
_TABLE_SEQUENCES = 1 << 12  # codebooks with at most this many sequences (k^n) are drawn from a table
_ENCODE_GROUP_ROWS = 2048  # trials per sweep over the word side
_ENCODE_BUFFER_FLOATS = 3 << 18  # float32 S values of a sweep's chunk buffer (3 MiB)


def _index_rows(a, width: int, k: int, what: str, shape: str) -> np.ndarray:
    """`a` as an int64 array of rows of `width` symbol indices in [0, k),
    or ValueError; an int64 array is returned as given, not copied."""
    a = np.asarray(a)
    if a.dtype.kind == "f" and not np.all(np.isfinite(a) & (np.trunc(a) == a)):
        raise ValueError(f"{what} symbol indices must be integers")
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2 or a.shape[1] != width:
        raise ValueError(f"{what}s must be {shape} index array")
    # a negative int64 reads as >= 2^63 in uint64, so one max checks both ends
    if a.size and a.view(np.uint64).max() >= k:
        raise ValueError(f"{what} symbol index out of range")
    return a


@dataclass(frozen=True, eq=False)
class Codebook:
    """Fixed list of length-n words over the target alphabet.

    `words` holds symbol indices into `target.labels`; all words are
    delta-typical for the target distribution.  An int64 array is held as
    given, not copied, so the codebook shares it with the caller; any other
    input (integer-valued floats, other integer dtypes, nested lists) is
    checked and converted to a new int64 array.
    """

    n: int
    words: np.ndarray = field(repr=False)
    target: Pmf
    delta: float = 0.0
    rate_bits: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        object.__setattr__(self, "words", _index_rows(self.words, self.n, len(self.target.atoms), "word", "an (M, n)"))

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
    # wall seconds per stage; machine-dependent, so never serialized
    timings: dict | None = field(default=None, compare=False, repr=False)


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

CIRCLE_SCHEMES = tuple(circle_analytic())


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

    Sampling draws the angles, then (private and common only) the uniforms
    W, from one stream.  `exact` instead averages a deterministic scheme's
    distortion over 32 Gauss-Legendre nodes on each half-circle, where it is
    smooth; the mean is within a few 1e-16 of the closed form.
    """
    if scheme not in CIRCLE_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    analytic = circle_analytic()[scheme]
    randomized = scheme in ("private", "common")
    if exact:
        if randomized:
            raise ValueError(f"exact integration needs a deterministic scheme, not {scheme!r}")
        nodes, weights = np.polynomial.legendre.leggauss(32)
        theta = np.concatenate([nodes + 1.0, nodes + 3.0]) * (math.pi / 2)
        mean = np.average(_circle_distortion(scheme, theta, None), weights=np.tile(weights, 2))
        return CircleEstimate(scheme, 0, float(mean), 0.0, analytic)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    gen = stream(seed, AUX_STREAM)
    theta = 2.0 * math.pi * gen.random(samples)
    dist = _circle_distortion(scheme, theta, gen.random(samples) if randomized else None)
    mean = float(dist.mean())
    std_error = float(dist.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return CircleEstimate(scheme, samples, mean, std_error, analytic)


def _circle_distortion(scheme: str, theta: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Squared distance from the point at angle `theta` to the scheme's
    reconstruction; `w` is the private or common uniform."""
    if scheme == "unconstrained":
        return 1.0 + 4.0 / math.pi**2 - (4.0 / math.pi) * np.abs(np.sin(theta))
    if scheme == "common":
        angle = (np.floor(theta / math.pi + w) + 0.5 - w) * math.pi
    else:
        k = (theta >= math.pi).astype(float)
        angle = (k + w) * math.pi if scheme == "private" else (0.5 + k) * math.pi
    return 2.0 - 2.0 * np.cos(theta - angle)


# ---------------------------------------------------------------------------
# Typical-set codebooks
# ---------------------------------------------------------------------------


def check_typical_codebook(target: Pmf, n: int, rate_bits: float, delta: float) -> None:
    """Raise ValueError unless `random_typical_codebook` accepts these
    arguments; cheap, so callers can check before drawing."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_slack(delta)
    if not rate_bits >= 0.0:
        raise ValueError("rate must be nonnegative")
    if np.any(target.probs <= 0.0):
        raise ValueError("target must have full support; restrict the alphabet first")
    if n * rate_bits > math.log2(MAX_CODEBOOK_WORDS):
        raise ValueError("codebook larger than 2^20 words")


def random_typical_codebook(
    target: Pmf, n: int, rate_bits: float, delta: float, seed: int = 0
) -> Codebook:
    """Draw floor(2^{n R}) words independently and uniformly from the
    delta-typical set of `target`, at every n.

    All ranks come from one `randint_below` call: a uniform rank r below the
    size of the set, in Cover's enumerative code (inverted).  The code orders
    count vectors lexicographically, with blocks as large as the type
    classes: the count of symbol j is the block of r among C(m, c) *
    (completions of the other m - c letters), r // C(m, c) ranks those
    completions, and r mod C(m, c) picks the places of symbol j.  So r fixes
    the word's composition, and with it the word.  Which of two draws reads
    the words off the ranks depends on the number k^n of sequences of length
    n over the target's k letters:

    - Up to `_TABLE_SEQUENCES` (2^12) the word of rank r is row r of
      `_typical_table`, every typical word in rank order, built once per
      (target, n, delta).  The rows are taken with one `np.take` along
      axis 0, which gives the words of fancy indexing at less overhead.
      The stream yields the ranks and nothing else.
    - Above it the ranks are unranked to compositions only, and each word is
      a uniform permutation of its composition.  The counts of symbol j come
      from one search of each state's block sizes for all the words that
      reached it, and the words from one `gen.permuted` call over the
      stacked sorted multisets, so the stream yields every rank first and
      then every permutation.  Every word starts at the root state, so the
      first symbol's step is one search over all ranks, and the last
      symbol's step keeps no remainder (its one completion has rank 0).
      The block sizes of every state come from `_rank_trie`, built once per
      (target, n, delta).  The ranks are int64 when the set has fewer than
      2^63 words and Python ints (an object array) otherwise, and go to
      int64 at the first step whose states all have fewer than 2^63
      completions: the second for a ternary set of 2^91 words at n = 64,
      whose states after the first symbol hold fewer than 2^30.  The
      search, difference and floor division give the same integers in
      both.

    Either way a rank gives a word of the composition the walk gives it.
    """
    check_typical_codebook(target, n, rate_bits, delta)
    n_words = max(1, int(2.0 ** (n * rate_bits)))
    k = len(target.atoms)
    key = (tuple(target.probs.tolist()), n, delta)
    total, states = _rank_trie(*key)
    if total == 0:
        raise ValueError(f"delta-typical set empty for n={n}, delta={delta}")
    gen = stream(seed, CODEBOOK_STREAM)
    ranks = np.asarray(randint_below(gen, total, n_words), dtype=np.int64 if total < _INT64_RANKS else object)
    return Codebook(
        n=n,
        words=np.take(_typical_table(*key), ranks, axis=0) if k**n <= _TABLE_SEQUENCES
        else _unrank(ranks, states, k, n, gen),
        target=target,
        delta=delta,
        rate_bits=math.log2(n_words) / n,
    )


def _unrank(ranks: np.ndarray, states: MappingProxyType, k: int, n: int, gen: np.random.Generator) -> np.ndarray:
    """The words of `ranks` by the rank walk over the trie `states`, each
    arranged by one `gen.permuted` call (see `random_typical_codebook`)."""
    n_words = len(ranks)
    comps = np.empty((n_words, k), dtype=np.int64)
    left = np.full(n_words, n, dtype=np.int64)
    reached = [(n, slice(None))]  # (m, its words): every word starts at state (0, n)
    for j in range(k - 1):
        if j:
            # the words with m letters left are at state (j, m)
            order = np.argsort(left, kind="stable")
            ms, starts = np.unique(left[order], return_index=True)
            ms = ms.tolist()
            # a rank, block size or C(m, c) at a state is at most its completion
            # count, so int64 holds them all once every state reached has fewer
            # than 2^63; until then the walk runs in python ints (object arrays)
            if ranks.dtype == object and max(states[j, m][-1] for m in ms) < _INT64_RANKS:
                ranks = ranks.astype(np.int64)
            reached = zip(ms, np.split(order, starts[1:]))
        for m, at in reached:
            counts, cum, combs, _ = states[j, m]
            cum = cum.astype(ranks.dtype, copy=False)
            r = ranks[at]
            t = np.searchsorted(cum, r, side="right") - 1
            comps[at, j] = counts[t]
            if j < k - 2:  # after the last step the remainder is 0 and unread
                ranks[at] = (r - cum[t]) // combs.astype(ranks.dtype, copy=False)[t]
        left -= comps[:, j]
    comps[:, -1] = left
    words = np.repeat(np.tile(np.arange(k), n_words), comps.ravel()).reshape(n_words, n)
    gen.permuted(words, axis=1, out=words)
    return words


@functools.lru_cache(maxsize=8)
def _typical_table(probs: tuple, n: int, delta: float) -> np.ndarray:
    """The delta-typical words of `probs` at length n in rank order: row r
    is the word of rank r in the enumerative code of `_rank_trie`, so it has
    the composition the rank walk gives r, and r fixes its arrangement too.

    At state (j, m) the rows of count c of symbol j form the block the walk
    gives c, and within it row q * C(m, c) + a puts symbol j at the a-th
    choice of c of the m places and fills the other places, in order, with
    row q of state (j + 1, m - c).  Built once per (target, n, delta), for
    sets of at most `_TABLE_SEQUENCES` sequences; every draw shares the
    table, so it is read-only.  Such a set has n <= 12 letters unless k = 1
    (one row), so a table holds at most 2^12 * 12 int64 (384 KiB) and the
    memo of eight at most 3 MiB.  At that limit a binary set at n = 12
    builds in about 0.6 ms, about as long as one rank walk and permutation
    of its 2^12 words; at 2^16 it took about 7 ms, which a one-off draw
    does not win back.
    """
    k = len(probs)
    states = _rank_trie(probs, n, delta)[1]

    @functools.cache
    def places(m: int, c: int) -> np.ndarray:
        # the C(m, c) ways to take c of m places, one row each: a free place
        # holds its rank among the free ones, a taken place -1
        if c == 0 or c == m:
            return np.arange(m)[None, :] if c == 0 else np.full((1, m), -1)
        free, taken = places(m - 1, c), places(m - 1, c - 1)  # the last place free, then taken
        out = np.empty((len(free) + len(taken), m), dtype=np.intp)
        out[: len(free), :-1], out[: len(free), -1] = free, m - 1 - c
        out[len(free) :, :-1], out[len(free) :, -1] = taken, -1
        return out

    rows = {}  # each state's completions in rank order; the trie lists a state after its children
    for (j, m), (counts, *_, size) in states.items():
        # the last symbol takes every place left; a state with no completion has no row
        if j == k - 1 or not size:
            rows[j, m] = np.full((size, m), j, dtype=np.int64)
            continue
        blocks = []
        for c in counts.tolist():
            rest = rows[j + 1, m - c]
            at = places(m, c)
            # each place reads its letter from the row of rest with j appended:
            # a free place at its rank, a taken one at -1
            blocks.append(np.column_stack([rest, np.full(len(rest), j)])[:, at].reshape(len(rest) * len(at), m))
        rows[j, m] = np.concatenate(blocks)
    table = rows[0, n]
    # the recursive memo is a reference cycle: free its arrays now, not at
    # the next garbage collection
    places.cache_clear()
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=8)
def _rank_trie(probs: tuple, n: int, delta: float) -> tuple[int, MappingProxyType]:
    """The size of the delta-typical set of `probs` at length n, and the
    trie states of its enumerative code that a rank walk can reach.

    State (j, m), with m letters left for symbols j, ..., k - 1, is (the
    counts c of symbol j that have completions, the cumulative block sizes
    C(m, c) * (completions of the other m - c letters), C(m, c), the
    state's completion count).  The block sizes and C(m, c) are int64 when
    the state has fewer than `_INT64_RANKS` completions and Python ints (an
    object array) otherwise; a walk casts them to its ranks' dtype.  Every
    draw of the same (target, n, delta) shares the trie, so the map and its
    arrays are read-only.

    The states a walk reaches are found symbol by symbol from (0, n), and
    their counts are filled in from the last symbol back, so no step
    recurses (a target of thousands of letters builds) and the map lists
    each state after the states it leads to.
    """
    k = len(probs)
    # the typicality test is per symbol, so it is the allowed counts of each
    ok = _typical_counts(np.arange(n + 1)[:, None, None], n, np.array(probs)[:, None], delta)
    allowed = [np.flatnonzero(ok[:, j]).tolist() for j in range(k)]
    reached = [{n}]  # the m of the states (j, m) a walk reaches, symbol by symbol
    for j in range(k - 1):
        reached.append({m - c for m in reached[-1] for c in allowed[j] if c <= m})
    states: dict[tuple[int, int], tuple] = {}
    below = {0: 1}  # past the last symbol: one completion iff no letter is left
    for j in range(k - 1, -1, -1):
        for m in reached[j]:
            counts, cum, combs = [], [0], []
            for c in allowed[j]:  # ascending
                if c > m:
                    break
                rest = below.get(m - c, 0)
                if rest:
                    counts.append(c)
                    combs.append(math.comb(m, c))
                    cum.append(cum[-1] + combs[-1] * rest)
            dtype = np.int64 if cum[-1] < _INT64_RANKS else object
            arrays = (np.array(counts, dtype=np.int64), np.array(cum, dtype=dtype), np.array(combs, dtype=dtype))
            for a in arrays:
                a.flags.writeable = False
            states[j, m] = (*arrays, cum[-1])
        below = {m: states[j, m][-1] for m in reached[j]}
    return below[n], MappingProxyType(states)


# ---------------------------------------------------------------------------
# Seed simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SeedMap:
    """Deterministic map from n0 source symbols to a near-uniform value in
    [0:n-1], read through `assign`.

    It holds no per-atom bin.  `steps[i]` takes each distinct float mass of
    the i-letter prefixes and a letter to the distinct mass of the longer
    prefix (state x letter -> next state), `start[v]` is where run v (the
    atoms of the v-th smallest mass) begins in `placed`, and `placed` holds
    every run's bins in placement order.  The atoms of one mass take their
    run's placements in index order, so an atom's bin is placed[start[v] +
    its rank among the atoms of mass v].
    """

    n0: int
    n_bins: int
    alphabet: tuple
    steps: tuple = field(repr=False)
    start: np.ndarray = field(repr=False)
    placed: np.ndarray = field(repr=False)
    tv_to_uniform: float = 0.0
    bound: float = 0.0

    def assign(self, idx: np.ndarray) -> np.ndarray:
        """Bin of each row of an (T, n0) array of symbol indices, as int64.

        The walk takes each row's letters through `steps` to its mass v and
        keeps its state after every prefix.  The row's rank among the atoms
        of mass v, in index order, counts the atoms of mass v that share its
        first i letters and have a smaller letter at position i, summed over
        the positions i.  At the last position each such atom is a letter
        whose step lands on v.  Before it they are the completions of the
        row's state at i that reach v, over the letters below the row's:
        tables of completion counts (letters x states x masses), built
        backward from the last position and summed over the letters in
        place.  They are built for the rows' masses only, and in chunks of
        masses, so that no table holds more entries than the map has atoms.
        With one chunk every row takes part at once.

        Raises ValueError for a shape other than (T, n0), non-integer
        entries or a letter outside [0, k): a gather in the walk would read
        a negative letter from the end of its row.
        """
        k = len(self.alphabet)
        # letters[i]: every row's letter at position i, contiguous
        letters = np.ascontiguousarray(_index_rows(idx, self.n0, k, "tail", "a (T, n0)").T)
        path = [np.zeros(letters.shape[1], dtype=np.intp)]  # every row's state after i letters
        for step, x in zip(self.steps, letters):
            path.append(step[path[-1], x])
        masses = np.flatnonzero(np.bincount(path[-1], minlength=len(self.start)))  # the rows' masses
        col = np.searchsorted(masses, path[-1])
        last = self.steps[-1]
        # at the last position a letter leads to one mass
        rank = ((np.arange(k) < letters[-1][:, None]) & (last[path[-2]] == path[-1][:, None])).sum(axis=1)
        # masses a chunk: no table below holds more entries than the map has atoms
        width = k ** (self.n0 - 1) // max(map(len, self.steps[:-1]), default=1)
        for lo in range(0, len(masses) if self.n0 > 1 else 0, width):
            cols = masses[lo : lo + width]
            rows = np.flatnonzero((col >= lo) & (col < lo + width)) if len(masses) > width else slice(None)
            # reach[s, c]: the letters that take state s at position n0 - 1 to mass cols[c]
            pos = np.minimum(np.searchsorted(cols, last), len(cols) - 1)
            flat = (np.arange(len(last))[:, None] * len(cols) + pos)[cols[pos] == last]
            reach = np.bincount(flat, minlength=len(last) * len(cols)).reshape(len(last), len(cols))
            for i in range(self.n0 - 2, -1, -1):
                # upto[a, s, c]: the completions of state s at position i that
                # reach mass cols[c], over the letters up to a at i
                upto = reach[self.steps[i].T]
                for a in range(1, k):
                    upto[a] += upto[a - 1]
                x = letters[i][rows]
                rank[rows] += np.where(x > 0, upto[x - 1, path[i][rows], col[rows] - lo], 0)
                reach = upto[-1]
        return self.placed[self.start[path[-1]] + rank].astype(np.int64)


def simulate_seed_map(p_x: Pmf, n0: int, n: int) -> SeedMap:
    """Greedy near-uniform binning of the |X|^{n0} product atoms into n bins.

    Atoms are placed largest-first (ties by atom index) into the currently
    lightest bin (ties by bin index), so each bin overshoots 1/n by at most
    p_max^{n0}; hence the total variation to Unif[0:n-1] is at most
    n * p_max^{n0} (checked, and returned exactly).

    The greedy rule is evaluated per run of equal masses rather than per
    atom, with one cumulative sum over a grid of per-bin totals (see
    `_place_run`); the bins and float totals are exactly those of the
    atom-by-atom rule, and the TV is taken from those totals, summed in
    placement order.

    An atom's mass is the left-to-right float product p(x_1) p(x_2) ...
    p(x_n0).  It is built one letter at a time over the distinct masses
    only: the products of the distinct prefix masses with each letter's
    probability are made unique again, which gives each position's table
    of (prefix mass, letter) -> next prefix mass (310 distinct masses for
    the 3^13 atoms of a ternary source).  The atom counts of each prefix
    mass are carried forward with one `np.bincount` per position, and the
    last position's counts are the runs' sizes.  The runs are placed
    largest mass first, and every run's placements go into one array in
    run order.  No atom is binned here: `SeedMap.assign` finds a tail's
    place in its run by its enumerative rank (Cover, "Enumerative source
    encoding", 1973), as `random_typical_codebook` ranks typical words.

    Per atom the map holds only the placement (1 byte up to n = 256 bins, 2
    beyond); everything else is per mass, or the grid of the run being
    placed.
    """
    if n0 < 1 or n < 1:
        raise ValueError("n0 and n must be positive")
    k = len(p_x.atoms)
    if k**n0 > MAX_SEED_ATOMS:
        raise ValueError(f"{k}^{n0} product atoms exceed the enumeration cap")
    # distinct masses (ascending), each position's transition table in the
    # smallest unsigned type, and the atom count of each prefix mass
    vals, sizes, steps = np.ones(1), np.ones(1, dtype=np.int64), []
    for _ in range(n0):
        vals, inv = np.unique(vals[:, None] * p_x.probs[None, :], return_inverse=True)
        steps.append(inv.astype(np.min_scalar_type(len(vals) - 1)).reshape(-1, k))
        sizes = np.bincount(steps[-1].ravel(), np.repeat(sizes, k), len(vals)).astype(np.int64)
    # runs of equal mass, largest first; run v takes
    # placed[start[v] : start[v] + sizes[v]], in placement order
    start = k**n0 - np.cumsum(sizes)
    placed = np.empty(k**n0, dtype=np.min_scalar_type(n - 1))
    totals = np.zeros(n)
    for v in range(len(vals) - 1, -1, -1):
        placed[start[v] : start[v] + sizes[v]] = _place_run(totals, float(vals[v]), int(sizes[v]))
    tv = float(0.5 * np.abs(totals - 1.0 / n).sum())
    bound = n * float(p_x.probs.max()) ** n0
    if tv > bound + 1e-12:
        raise RuntimeError(f"seed-map TV {tv} violates the bound {bound}")
    return SeedMap(n0, n, p_x.labels, tuple(steps), start, placed, tv, bound)


def _place_run(totals: np.ndarray, mass: float, count: int) -> np.ndarray:
    """Bins of `count` atoms of equal `mass`, in placement order, under the
    lightest-bin rule, in the smallest unsigned type that holds n - 1;
    `totals` is updated in place.

    Each placement takes the least (total, bin) and gives that bin the total
    total + mass, so the placements are the first `count` keys, in
    (key, bin, j) order, of the per-bin sequences t_b, t_b + mass,
    (t_b + mass) + mass, ...  The keys sit in one (bins x width) grid whose
    row b holds t_b, mass, mass, ... before one np.cumsum along the rows;
    np.cumsum adds left to right, so these are the same floats as
    one-at-a-time placement.  A stable sort of the flattened grid lists
    them in (key, bin, j) order, and a pick's bin is its flat index //
    width, divided in place.  Every row is a prefix of its bin's
    sequence, as long as the lightest bin needs to reach the level the run
    fills to, plus a margin; if a bin uses all of its keys, its next key
    might have come earlier, so the margin doubles.  The work is n times
    that width.  When the mass does not move the lightest total
    (t + mass == t, as for a massless atom), that bin stays the least
    (total, bin) and takes the whole run.

    The grid is freed before the picks are narrowed, so one huge run (a
    uniform source has a single run) peaks at the grid and its sort, 16
    bytes a key.
    """
    n = len(totals)
    lightest = int(np.argmin(totals))
    small = np.min_scalar_type(n - 1)
    if totals[lightest] + mass == totals[lightest]:
        return np.full(count, lightest, dtype=small)
    # the level that count * mass fills the lightest bins up to, as if mass
    # were divisible; a bin takes about (level - total) / mass atoms
    s = np.sort(totals)
    levels = (mass * count + np.cumsum(s)) / np.arange(1, n + 1)
    level = levels[np.flatnonzero(levels >= s)[-1]]
    depth = int(np.floor((level - s[0]) / mass))
    margin = 2
    while True:
        width = min(depth + margin, count + 1)
        keys = np.full((n, width), mass)
        keys[:, 0] = totals
        np.cumsum(keys, axis=1, out=keys)
        picks = np.argsort(keys.ravel(), kind="stable")[:count]
        np.floor_divide(picks, width, out=picks)  # each pick's bin
        used = np.bincount(picks, minlength=n)
        if used.max() < width:
            break
        margin *= 2
    totals[:] = keys[np.arange(n), used]
    del keys
    return picks.astype(small)


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
    shifts the chosen word back.  Both modes run one pipeline over a block
    of n source symbols and a tail of n0 more; the mode fixes only n0, the
    seed map and where q comes from.  shared_seed has no tail (n0 = 0) and
    draws q uniformly from the trial's stream after its source block;
    derandomized takes n0 = floor(alpha*n) (capped at 2^22 atoms, the seed
    map's limit), computes q from the tail through a seed map and reuses the
    first n0 reconstructions for the tail.  The average distortion is the
    mean over trials of (block + tail distortion) / (n + n0).

    The report carries per-letter reconstruction marginals, their worst total
    variation to the target marginal, the average distortion (tail included
    in derandomized mode), and the number of trials whose reconstruction
    block violates the empirical perception budget (default: divergence of
    the target marginal from the source plus the typicality slack
    2 * delta * |support|); the audit takes the compositions of the chosen
    words only, one divergence per distinct composition.
    `diagnostics["seed_map_tv"]` is None in shared_seed mode; in
    derandomized mode the seed map is released once the shifts are
    assigned (`SeedMap.assign` ranks each trial's tail, so no atom but the
    trials' is binned), and only its TV is kept.

    The mode, trial count, tail length, distortion, perception divergence
    and codebook arguments are checked before any work.  The seed map is
    built, the shifts assigned and the map dropped before the codebook is
    drawn, so the two never share memory; the codebook and the trials own
    separate streams, so the order changes no draw.  `timings` holds the
    wall seconds of the codebook draw, the seed map (near 0 in shared_seed
    mode), the encoding (source blocks, shifts, encode, decode and tail)
    and the audit.
    """
    if mode not in (SHARED_SEED, DERANDOMIZED):
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_tilde_full = target_channel.push(p_x)
    support = p_tilde_full.support()
    p_tilde = Pmf.from_pairs([(a, p_tilde_full.prob(a)) for a in support])
    col_idx = [p_tilde_full.labels.index(a) for a in support]
    mat = _distortion_matrix(dist, p_x.labels, p_tilde_full.labels)[:, col_idx]
    # the mode picks n0, the seed map and where each trial's shift q comes
    # from; n0, the audit and the codebook are checked before any work
    n0 = 0
    if mode == DERANDOMIZED:
        if not math.isfinite(alpha):
            raise ValueError(f"alpha={alpha} must be finite")
        cap = int(math.floor(math.log(MAX_SEED_ATOMS, max(2, len(p_x.atoms)))))
        n0 = min(int(math.floor(alpha * n)), cap)
        if n0 < 1:
            raise ValueError("alpha * n below one symbol; derandomized mode needs a tail")
    dv, budget = _perception_setup(perception_divergence, perception_budget, p_x, p_tilde, delta)
    check_typical_codebook(p_tilde, n, rate_bits, delta)
    t_map = time.perf_counter()
    seed_map = simulate_seed_map(p_x, n0, n) if n0 else None
    t_blocks = time.perf_counter()
    # per-trial streams: source block and tail, then (shared seed) the shift
    u = np.empty((trials, n + n0))
    qs = np.empty(trials, dtype=np.int64)
    for t, gen in enumerate(streams(seed, TRIAL_BASE, trials)):
        gen.random(out=u[t])
        if seed_map is None:
            qs[t] = gen.integers(0, n)
    x_head, x_tail = np.split(np.searchsorted(np.cumsum(p_x.probs), u, side="right"), [n], axis=1)
    seed_map_tv = None
    if seed_map is not None:
        # the map's placements (a byte or two per atom) are not needed past
        # the shifts: drop them before the codebook is drawn
        qs, seed_map_tv = seed_map.assign(x_tail), seed_map.tv_to_uniform
        del seed_map
    xs = np.take_along_axis(x_head, (np.arange(n) - qs[:, None]) % n, axis=1)
    t_draw = time.perf_counter()
    cb = random_typical_codebook(p_tilde, n, rate_bits, delta, seed)
    t_encode = time.perf_counter()
    m_star, dist_head = _batch_encode(xs, cb.words, mat)
    xhat = np.take_along_axis(cb.words[m_star], (np.arange(n) + qs[:, None]) % n, axis=1)
    # the tail reuses the first n0 reconstructions; empty in shared-seed mode
    tail_d = np.zeros(trials)
    for j in range(n0):
        tail_d += mat[x_tail[:, j], xhat[:, j]]
    avg_distortion = float(np.mean((dist_head + tail_d) / (n + n0)))
    t_audit = time.perf_counter()
    k_tgt = len(support)
    # counts[t, b]: the trials whose letter t is b
    counts = np.bincount((np.arange(n) * k_tgt + xhat).ravel(), minlength=n * k_tgt).reshape(n, k_tgt)
    marginals = [Pmf.from_probs(support, counts[t] / trials) for t in range(n)]
    max_div = max(divergence(total_variation(), p_tilde, marg) for marg in marginals)
    violations = 0
    if dv is not None:
        # a word's divergence depends only on its composition, and only the
        # words some trial chose are audited (at most `trials` of them)
        chosen, word_of_trial = np.unique(m_star, return_inverse=True)
        words = cb.words[chosen]
        word_comps = np.stack([(words == b).sum(axis=1) for b in range(k_tgt)], axis=1)
        comps, comp_of_word = np.unique(word_comps, axis=0, return_inverse=True)
        comp_divs = np.array([divergence(dv, p_x, Pmf.from_probs(support, c / n)) for c in comps])
        violations = int(np.sum(comp_divs[comp_of_word.ravel()[word_of_trial.ravel()]] > budget))
    t_end = time.perf_counter()
    reference = float(np.sum(p_x.probs[:, None] * target_channel.matrix[:, col_idx] * mat))
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
            "seed_map_tv": seed_map_tv,
            "perception_budget": budget,
            "reference_distortion": reference,
        },
        timings={
            "draw_s": t_encode - t_draw,
            "seed_map_s": t_blocks - t_map,
            "encode_s": (t_draw - t_blocks) + (t_audit - t_encode),
            "audit_s": t_end - t_audit,
        },
    )


def _batch_encode(xs, words, mat):
    """Min-distortion encoding of many blocks at once, from joint-type counts.

    The distortion of trial t against word m is fixed by the counts
    N_ab(t, m) = #{i : x_i = a, w_i = b}.  With the reference cell (0, 0)
    and kappa_ab = mat[a, b] - mat[a, 0] - mat[0, b] + mat[0, 0], which is
    zero in row 0 and column 0, it is A_t + B_m + sum_ab kappa_ab N_ab,
    where A_t = sum_i mat[x_i, 0] and B_m = sum_i (mat[0, w_i] - mat[0, 0]).

    Let q be the nonzero kappa of least |kappa| (the first such cell on a
    tie).  Every kappa_ab = q * r_ab with integer r_ab and |r_ab| * n < 2^24
    joins one shared group (q, r); every other nonzero kappa is a group of
    its own with r = 1.  Binary alphabets have one nonzero kappa, and
    Hamming, |i - j| or squared error on integer labels give one group.  A
    group's S = sum_ab r_ab N_ab is one float32 GEMM: the trial side holds
    r[x_i, b] and the word side the indicators [w_i = b], for each column b
    where r is nonzero.  Every partial sum is an integer of magnitude below
    2^24 (a lone cell's are at most n), so the GEMM is exact.  A_t and B_m
    are summed from symbol counts, and a word's total is the float64
    (B_m + q_1 S_1) + q_2 S_2 + ..., added in one fixed order, so it
    depends on the joint type alone: words of equal joint type tie bit for
    bit, the lowest index wins, and the result depends neither on the BLAS
    kernel nor on how the trials or words are split.  Returns the chosen
    word of each trial and A_t plus its total.

    With one group a total is fl(fl(q S) + B_m), and the words of one B_m
    form a composition class.  Rounding is monotone, so within a class the
    least total sits at the extreme sign(q) S.  The word side then keeps
    each class's words together, in index order; with several groups, or
    none, it is one run of all words in index order.  `_sweep` streams it
    past up to `_ENCODE_GROUP_ROWS` trials at a time, so the word side is
    read once per group of trials.  With one group it first takes each
    trial's extreme S of a class and its first word, totals that in
    float64, and takes the lowest word index among the classes tied at the
    least total.  That is the float64 rule's word and total exactly when
    the next integer S raises every tied class's total.  A trial where it
    does not (a rounding collapse: kappa at round-off, or |q| below the ulp
    of B) passes over the same chunks once more under the float64 rule,
    which forms each chunk's totals; every trial of a cost with several
    groups, or none, takes only that pass.

    Each group's GEMM has inner dimension n times its number of nonzero
    columns: n (k - 1) for one group on k letters, against n k for a plain
    per-symbol product, but up to n (k - 1)^2 over the groups when the
    kappa share no common factor.  Each output letter's indicator
    `words == b` is built once, for B_m and every group's word side, and
    freed before the sweep.  The word side is held for the whole call as
    float32, 4 bytes per word, letter and unit of the inner dimension (5 MB
    at 20 000 words of 64 binary letters).  A sweep holds one float32
    buffer of at most `_ENCODE_BUFFER_FLOATS` S values (3 MiB) whatever the
    number of trials or words, the float64 rule's totals of one chunk, and
    a few values per trial of its group (a trial side per group).
    """
    n = xs.shape[1]
    kappa = (mat - mat[:, :1]) - (mat[0] - mat[0, 0])
    nonzero = np.flatnonzero(kappa)
    groups = []  # (q, r) with kappa = q * r on r's support
    if nonzero.size:
        q = kappa.flat[nonzero[np.argmin(np.abs(kappa.flat[nonzero]))]]
        r = np.round(kappa / q)
        shared = (q * r == kappa) & (np.abs(r) * n < 1 << 24)
        groups.append((q, np.where(shared, r, 0.0)))
        for c in np.flatnonzero(~shared):
            groups.append((kappa.flat[c], np.arange(kappa.size).reshape(kappa.shape) == c))
    a_tot = np.zeros(len(xs))
    for a in range(mat.shape[0]):
        a_tot += (xs == a).sum(axis=1) * mat[a, 0]
    # each output letter's indicator, built once for B_m and the word sides
    hits = {b: words == b for b in range(1, mat.shape[1])}
    b_tot = np.zeros(len(words))
    for b, hit in hits.items():
        b_tot += hit.sum(axis=1) * (mat[0, b] - mat[0, 0])
    # word side row j is word order[j]; with one group each composition
    # class (one B_m) is a run, otherwise all words are one run
    order, bounds = np.arange(len(words)), [0, len(words)]
    if len(groups) == 1:
        cls = np.unique(b_tot, return_inverse=True)[1]
        order = np.argsort(cls, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(np.bincount(cls))]).tolist()
    factors = []  # (q, r's nonzero columns as float32 rows, word side: one row per word)
    for q, r in groups:
        cols = np.flatnonzero(r.any(axis=0))
        w_side = np.empty((len(words), n * len(cols)), dtype=np.float32)
        for j, b in enumerate(cols):
            w_side[:, j * n : (j + 1) * n] = np.take(hits[b], order, axis=0)
        factors.append((q, r[:, cols].T.astype(np.float32), w_side))
    del hits
    m_star = np.empty(len(xs), dtype=np.int64)
    best = np.empty(len(xs))
    for lo in range(0, len(xs), _ENCODE_GROUP_ROWS):
        grp = slice(lo, lo + _ENCODE_GROUP_ROWS)
        rest = np.arange(len(xs))[grp]
        if len(groups) == 1:  # the class rule; a collapse is left to the float64 rule
            m_star[grp], low, undecided = _sweep(xs[grp], factors, b_tot, order, bounds, True)
            best[grp] = a_tot[grp] + low
            rest = rest[undecided]
        if len(rest):
            m_star[rest], low, _ = _sweep(xs[rest], factors, b_tot, order, bounds, False)
            best[rest] = a_tot[rest] + low
    return m_star, best


def _sweep(x, factors, b_tot, order, bounds, classes):
    """Each trial row of `x`'s word and least B_m + sum kappa_ab N_ab, and
    whether a rounding collapse leaves it undecided.

    Row j of the word sides is word order[j], and each run from bounds[c]
    to bounds[c + 1] holds its words in index order.  A run passes in
    chunks of at most as many words as fill `_ENCODE_BUFFER_FLOATS` S
    values.  With `classes` (one group, whose runs are the composition
    classes) a chunk is one GEMM into the buffer and one argmin (argmax
    when q < 0) of S; at the end of the class its extreme is totalled in
    float64 once.  Otherwise a chunk's values are the float64 rule's
    totals (B_m + q_1 S_1) + q_2 S_2 + ..., one GEMM per group into the
    buffer, and its argmin.  A later chunk of a run takes a trial's value
    only by strict improvement, so the first word of the run's extreme is
    kept; across runs a lower total takes the trial, and an equal one the
    lower word.
    """
    rows = len(x)
    t_sides = [np.concatenate(u[:, x], axis=1) for _, u, _ in factors]
    width = max(1, _ENCODE_BUFFER_FLOATS // rows)
    buf = np.empty(rows * min(width, len(order)), dtype=np.float32)
    q = factors[0][0] if classes else 1.0
    pick, better = (np.argmin, np.less) if q > 0 else (np.argmax, np.greater)
    at = np.arange(rows)
    low = np.full(rows, np.inf)
    m = np.full(rows, len(order))
    collapse = np.zeros(rows, dtype=bool)
    for start, end in zip(bounds[:-1], bounds[1:]):
        for lo in range(start, end, width):
            hi = min(lo + width, end)
            out = buf[: rows * (hi - lo)].reshape(rows, hi - lo)
            if classes:
                s = np.matmul(t_sides[0], factors[0][2][lo:hi].T, out=out)
            else:
                s = np.broadcast_to(b_tot[order[lo:hi]], out.shape)
                for (q_g, _, w_side), t_side in zip(factors, t_sides):
                    term = np.multiply(np.matmul(t_side, w_side[lo:hi].T, out=out), q_g, dtype=np.float64)
                    term += s
                    s = term
            pos = pick(s, axis=1)
            val = s[at, pos]
            if lo == start:
                extreme, first = val, lo + pos
            else:
                up = better(val, extreme)
                extreme = np.where(up, val, extreme)
                first = np.where(up, lo + pos, first)
        word, tot, stuck = order[first], extreme, False
        if classes:
            b = b_tot[order[start]]
            tot = np.multiply(extreme, q, dtype=np.float64) + b
            # unless the next integer S raises the total, a word of this
            # class beyond its extreme may tie too
            stuck = np.multiply(extreme + np.sign(q), q, dtype=np.float64) + b == tot
        # a lower total takes the trial, and an equal one a lower word
        lower, tied = tot < low, tot == low
        m = np.where(lower | (tied & (word < m)), word, m)
        collapse = np.where(lower, stuck, collapse | (tied & stuck))
        low = np.where(lower, tot, low)
    return m, low, collapse


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
    codebook's prefix trie, last letter first: each j-prefix carries the
    summed law of its words on letters j+1..n, which is the sum over its
    children (one per next letter a) of W[a] x (the child's law).

    The trie is read off integer word codes in base k_in (the number of
    channel inputs), c = sum_i w_i k_in^(n-1-i), formed as one matrix
    product of the words with the place values.  They are int64 when
    k_in^n < 2^63, the rule the codebook draw uses for its ranks, and
    python ints in an object array otherwise.  Two folds share the codes
    and the final TV; they give the same floats, as both sum a node's
    children in the order of `np.add.reduceat` over lexsorted word rows:
    the first child plus numpy's pairwise sum of the rest.

    With k_in <= min(3, |X|) the fold is dense (`_dense_fold`): one
    np.bincount of the codes is the leaf law over all k_in^n words, and
    level j is W[0] x c_0 + (W[1] x c_1 + W[2] x c_2) over every j-prefix at
    once.  With at most three letters that is the reduceat order, and the
    zero law of an absent child changes no nonnegative finite float
    (x + 0 = x).  Work is about n * k_in * |X|^n whatever the number of
    words, so a few words at large n cost more than the trie fold would.
    Besides the codes and the leaf counts it holds at most three arrays of
    k_in^j * |X|^(n - j) <= |X|^n floats: the level's input, its output and
    one product.

    Otherwise (`_trie_fold`) one np.unique gives the distinct words in
    lexicographic order with their counts, the leaf laws, and only the
    prefixes present are folded.  At each level a (j+1)-prefix's code
    divides into its j-prefix c // k_in and its letter c % k_in, and a group
    opens a new j-prefix where that quotient changes, so the products and
    the summed groups, and their order, are those of the lexsorted fold.
    With k_in >= 4 a fixed-slot sum would differ from it (a node that lacks
    letter 0 and has three or more children), and with k_in > |X| the
    k_in^n leaves would outgrow the output law.  The level-j laws hold at
    most min(M, k_in^j) * |X|^(n - j) floats, and the products that form
    them at most k_in times that.

    No (M, n) copy of the words is made.  The TV subtracts the i.i.d. law
    p_X^{⊗n} from the mixture law and takes the absolute value in place, so
    it holds one array of |X|^n floats besides the law.  The i.i.d. law
    depends on (p_X, n) only: up to `_TABLE_SEQUENCES` (2^12) output
    sequences it comes from the memo `_product_law`, eight read-only laws of
    at most 32 KiB each (256 KiB in all), and above that limit it is built
    by the same outer products on every call.  Equal to the per-word sum in
    exact arithmetic; the float sums run in another order.
    """
    check_soft_covering(channel_out, cb.alphabet, p_x, cb.n)
    if len(cb) == 0:
        raise ValueError("codebook has no words")
    k = len(cb.alphabet)
    dtype = np.int64 if k**cb.n < _INT64_RANKS else object
    place = np.array([k**i for i in range(cb.n - 1, -1, -1)], dtype=dtype)
    fold = _dense_fold if k <= min(3, len(p_x.atoms)) else _trie_fold
    p_out = fold(channel_out.matrix, cb.words @ place, k, cb.n)
    p_out /= len(cb)
    key = (tuple(p_x.probs.tolist()), cb.n)
    iid = _product_law if len(p_x.atoms) ** cb.n <= _TABLE_SEQUENCES else _product_law.__wrapped__
    p_out -= iid(*key)
    return float(0.5 * np.abs(p_out, out=p_out).sum())


@functools.lru_cache(maxsize=8)
def _product_law(probs: tuple, n: int) -> np.ndarray:
    """The i.i.d. law of `probs` at length n, flattened in the order of the
    output codes (the first letter most significant), read-only; memoized
    only up to 2^12 sequences (see `soft_covering_tv`)."""
    law = functools.reduce(np.multiply.outer, [np.array(probs)] * n).ravel()
    law.flags.writeable = False
    return law


def _dense_fold(rows: np.ndarray, codes: np.ndarray, k: int, n: int) -> np.ndarray:
    """Summed output law of the words with base-k int64 `codes`, k <= 3,
    folded over every prefix (see `soft_covering_tv`)."""
    # laws are held (later letters' outputs, prefix code): with the prefix
    # innermost, each product and sum is one strided loop of k^j |X|^(n-j-1)
    law = np.bincount(codes, minlength=k**n).astype(float)
    # letter 0's product last: (W1 c1 + W2 c2) + W0 c0 is reduceat's
    # W0 c0 + (W1 c1 + W2 c2), since + is commutative
    first, *rest = [*range(1, k), 0]
    for j in range(n - 1, -1, -1):
        child = law.reshape(-1, k**j, k)  # (outputs j+2..n, j-prefix, letter j)
        spare = None
        law = np.multiply(rows[first][:, None, None], child[:, :, first])
        for a in rest:
            spare = np.multiply(rows[a][:, None, None], child[:, :, a], out=spare)
            law += spare
    return law.ravel()


def _trie_fold(rows: np.ndarray, codes: np.ndarray, k: int, n: int) -> np.ndarray:
    """Summed output law of the words with base-k `codes`, folded over the
    prefixes present only (see `soft_covering_tv`)."""
    # the distinct words' codes in lexicographic order, and their counts
    codes, counts = np.unique(codes, return_counts=True)
    law = counts.astype(float)[:, None]
    opens = np.empty(len(codes), dtype=bool)
    opens[0] = True
    for _ in range(n):
        # codes of the current (j+1)-prefixes -> their j-prefixes and letter j
        letter = (codes % k).astype(np.intp)
        codes = codes // k
        law = (rows[letter][:, :, None] * law[:, None, :]).reshape(len(codes), -1)
        # a group opens a new j-prefix where its j-prefix code changes
        new = opens[: len(codes)]
        np.not_equal(codes[1:], codes[:-1], out=new[1:])
        law = np.add.reduceat(law, np.flatnonzero(new))
        codes = codes[new]
    return law[0]


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
