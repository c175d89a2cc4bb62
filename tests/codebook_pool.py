"""Compositions, words and draw time of `random_typical_codebook` on a seeded
pool, on both sides of its table limit, and the soft-covering TVs of the
benchmark's op mix.

Not a test module (pytest does not collect it).  Run it from the repository
root as

    PYTHONPATH=src python3 tests/codebook_pool.py

A codebook whose k letters and block length n give at most
`coding._TABLE_SEQUENCES` (2^12) sequences is read from a table of the
typical words; a larger one is unranked by the rank walk and arranged by
one permutation per word.  For each pool and side the script prints one
line: the number of codebooks and words, the sha256 of every word and the
sha256 of every word's count vector (int64, concatenated in pool order),
and the wall time of the pool's draws, best of three passes (each memo
holds eight sets, so a pool of many sets rebuilds them).  A change that keeps the compositions and moves the arrangements
shows as a new words digest beside an unchanged counts digest.

1. `pinned`: the 30 draws (29 distinct) behind the pinned digests of the
   test suite:
   `CODEBOOK_CASES` and the soft-covering TVs of `tests/test_coding.py`,
   the codebooks of its `GOLDEN_REPORTS`, and the codebooks of the
   `simulate-block`, `simulate-softcover` and `simulate-softcover-ternary`
   runs of `CLI_STDOUT_PINS` in `tests/test_cli.py`.
2. `random`: 300 draws from `default_rng(4040)`, drawn in this order for
   each: k in 1-4; probabilities from Dirichlet(1); n in 1-24 for k <= 2,
   1-14 for k = 3 and 1-12 for k = 4, so that about half fall on each
   side; delta from (0.25, 0.5, 1.0, 2.0); at most 2^10 words; a seed below
   2^32.  Draws whose typical set is empty are skipped and counted.
3. `softcover`: the op mix of the `softcover_scan` benchmark on fixed
   seeds.  Each op draws a codebook of Bernoulli(0.5) at delta = 0.6 and
   scores it with `soft_covering_tv` through BSC(0.11) against
   Bernoulli(0.5), at n in (4, 8, 12) and R in (1, 0.1), with the
   benchmark's codebooks per (R, n) cell; the pool repeats the mix for
   seed bases 0, 1000, ..., 9000, so codebook c of a cell has seed base + c.
   The line gives the number of ops, the sha256 of every TV's `float.hex()`
   (newline-terminated, in pool order) and the wall time of the pool's ops,
   best of three passes.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

import numpy as np

from rdplab import coding
from rdplab.pmf import Channel, Pmf

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from test_coding import _ternary_block_target, _test_channel  # noqa: E402


def pinned_pool() -> list[tuple[Pmf, int, float, float, int]]:
    binary, ternary = Pmf.bernoulli(0.5), Pmf.from_probs((0, 1, 2), (0.5, 0.3, 0.2))
    # shift_ensemble_sim draws over the support of the channel's output law
    sim = _test_channel().push(Pmf.bernoulli(0.25))
    sim = Pmf.from_pairs([(a, sim.prob(a)) for a in sim.support()])
    draws = [
        # CODEBOOK_CASES
        (binary, 12, 1.0, 0.6, 3),
        (_ternary_block_target(), 64, 0.2, 0.05, 8),
        (Pmf.from_probs((0, 1, 2, 3), (0.375, 0.25, 0.125, 0.25)), 24, 0.5, 1 / 3, 0),
        (Pmf.bernoulli(0.3), 2000, 0.005, 0.5, 4),
        *((binary, n, 8 / n, 1.0, 11) for n in (62, 63, 64)),
        # soft-covering-tv
        *((binary, n, rate, 0.6, s) for n in (4, 8, 12) for rate in (1.0, 0.1) for s in range(2)),
        # GOLDEN_REPORTS: the binary sims at n = 16 and the ternary ones at n = 12
        (sim, 16, 0.35, 0.4, 7),
        (ternary, 12, 0.6, 0.5, 11),
        # CLI_STDOUT_PINS: simulate-block, then both soft-covering scans
        (Pmf.from_probs((0, 1), (0.75, 0.25)), 8, 0.5, 0.5, 2),
        *((binary, n, 1.0, 0.6, s) for n in (4, 6) for s in (1, 2)),
        *((ternary, n, 0.8, 0.6, s) for n in (4, 6) for s in (1, 2)),
    ]
    return draws


def random_pool(count: int = 300, seed: int = 4040) -> list[tuple[Pmf, int, float, float, int]]:
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        k = int(rng.integers(1, 5))
        probs = rng.dirichlet(np.ones(k))
        n = int(rng.integers(1, (25, 25, 15, 13)[k - 1]))
        delta = (0.25, 0.5, 1.0, 2.0)[int(rng.integers(4))]
        rate = float(rng.uniform(0.0, 10.0 / n))
        draws.append((Pmf.from_probs(tuple(range(k)), probs), n, rate, delta, int(rng.integers(2**32))))
    return draws


def report(name: str, draws) -> None:
    sides = {"table": [], "walk": []}
    empty = 0
    for target, n, rate, delta, seed in draws:
        try:
            coding.random_typical_codebook(target, n, rate, delta, seed)
        except ValueError as exc:
            assert "typical set empty" in str(exc), exc
            empty += 1
            continue
        side = "table" if len(target.atoms) ** n <= coding._TABLE_SEQUENCES else "walk"
        sides[side].append((target, n, rate, delta, seed))
    for side, pool in sides.items():
        words, counts, best = hashlib.sha256(), hashlib.sha256(), float("inf")
        for _ in range(3):
            start = time.perf_counter()
            books = [coding.random_typical_codebook(*draw) for draw in pool]
            best = min(best, time.perf_counter() - start)
        for cb in books:
            words.update(cb.words.tobytes())
            k = len(cb.target.atoms)
            counts.update((cb.words[:, :, None] == np.arange(k)).sum(axis=1).astype(np.int64).tobytes())
        print(f"{name} {side}: {len(pool)} codebooks, {sum(map(len, books))} words;"
              f" words sha256 {words.hexdigest()}; counts sha256 {counts.hexdigest()};"
              f" draws {best * 1e3:.1f} ms")
    if empty:
        print(f"{name}: {empty} draws skipped, their typical set empty")


# codebooks per (R, n) cell in one pass of the softcover_scan benchmark
SOFT_CODEBOOKS = {(1.0, 4): 5, (1.0, 8): 5, (1.0, 12): 16, (0.1, 4): 1, (0.1, 8): 1, (0.1, 12): 1}


def softcover_pool() -> list[tuple[int, float, int]]:
    return [(n, rate, base + c) for base in range(0, 10000, 1000)
            for (rate, n), count in SOFT_CODEBOOKS.items() for c in range(count)]


def report_softcover(name: str, ops) -> None:
    p, bsc = Pmf.bernoulli(0.5), Channel.bsc(0.11)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        tvs = [coding.soft_covering_tv(bsc, coding.random_typical_codebook(p, n, rate, 0.6, seed), p)
               for n, rate, seed in ops]
        best = min(best, time.perf_counter() - start)
    digest = hashlib.sha256("".join(tv.hex() + "\n" for tv in tvs).encode()).hexdigest()
    print(f"{name}: {len(ops)} ops; TVs sha256 {digest}; ops {best * 1e3:.1f} ms")


def main() -> None:
    report("pinned", pinned_pool())
    report("random", random_pool())
    report_softcover("softcover", softcover_pool())


if __name__ == "__main__":
    main()
