"""Bins, TVs, build time and peak memory of `simulate_seed_map` on seeded
pools of maps.

Not a test module (pytest does not collect it).  Run it from the repository
root as

    PYTHONPATH=src python3 tests/seed_map_pool.py

Every atom's bin is read through `SeedMap.assign`, in atom index order and
in batches of 2^18 atoms, so the script runs unchanged on any version of the
map that has `assign`.  For each pool it prints one line: the number of
maps, the sha256 of every map's int64 bins (concatenated in pool order), the
sha256 of the reprs of their TVs, the wall time of the pool's builds, best of
three passes, and the largest tracemalloc peak of one build.  A change that
keeps every bin but sums the TV in another order shows as a new TV digest
beside an unchanged bins digest.

1. `pinned`: the maps behind the test suite's seed-map checks: the heap
   comparisons, digests and sampled maps of `tests/test_coding.py`, the
   seed maps of its derandomized `GOLDEN_REPORTS`, acceptance criterion 12,
   and the `simulate-block` run of `CLI_STDOUT_PINS` in `tests/test_cli.py`.
2. `block_code`: the two derandomized maps of the `block_code` benchmark
   (n = 64, alpha = 0.25): Bernoulli(0.25) at n0 = 16 and (0.5, 0.3, 0.2) at
   n0 = 13.
3. `n96`: ROADMAP item 8's Bernoulli(0.25) maps at n = 96 for alpha = 0.05,
   0.1, 0.15 and 0.25 (n0 = 4, 9, 14 and 22, the cap of 2^22 atoms).
4. `generic8`: eight letters from Dirichlet(1) (`default_rng(0)`) at n0 = 7
   and 64 bins: 13 507 distinct masses, so 13 507 runs.
5. `random`: 300 maps from `default_rng(4141)`, drawn in this order for
   each: k in 1-5; equal probabilities one time in four, else Dirichlet(1);
   n0 in 1 up to the largest with k^n0 <= 2^16 (16 for k = 1); n in 1-300.
"""

from __future__ import annotations

import hashlib
import math
import time
import tracemalloc

import numpy as np

from rdplab import coding
from rdplab.pmf import Pmf

_BATCH = 1 << 18


def _pmf(probs) -> Pmf:
    return Pmf.from_probs(tuple(range(len(probs))), probs)


def pinned_pool() -> list[tuple[Pmf, int, int]]:
    p3 = _pmf((0.5, 0.3, 0.2))
    p631 = _pmf((0.6, 0.3, 0.1))
    u3, u4 = Pmf.uniform((0, 1, 2)), Pmf.uniform((0, 1, 2, 3))
    b25, b3, b5 = Pmf.bernoulli(0.25), Pmf.bernoulli(0.3), Pmf.bernoulli(0.5)
    return [
        # test_seed_map_matches_atom_by_atom_rule
        (b5, 4, 16), (b5, 3, 8), (b5, 5, 32), (b25, 8, 8), (b3, 6, 10), (u3, 5, 9), (p631, 7, 12),
        (p3, 13, 64), (b25, 16, 64), (Pmf.bernoulli(1.0), 5, 7), (Pmf.bernoulli(1e-6), 12, 64),
        (_pmf((0.999,) + (0.001 / 15,) * 15), 3, 64),
        (_pmf((0.988998999, 0.01, 0.001, 1e-6, 1e-9)), 6, 28),
        (u4, 5, 64), (_pmf((0.5, 0.25, 0.25)), 2, 2),
        (p3, 7, 1), (p3, 7, 255), (p3, 7, 256), (p3, 7, 257),
        # the seed-map digests, then seed-map-equal-totals
        (p631, 1, 4), (p631, 3, 5), (b3, 6, 10), (p3, 6, 64),
        (u4, 6, 10), (u4, 5, 64), (b5, 8, 7), (_pmf((0.5, 0.25, 0.25)), 2, 2),
        # the sampled large maps, the fail-fast map, the bound and the dyadic checks
        (p3, 13, 64), (b25, 22, 96), (p3, 3, 5), (b3, 3, 1),
        # GOLDEN_REPORTS in derandomized mode, then the CLI's simulate-block
        (b25, 8, 16), (p3, 6, 12), (_pmf((0.75, 0.25)), 4, 8),
    ]


def block_code_pool() -> list[tuple[Pmf, int, int]]:
    return [(Pmf.bernoulli(0.25), 16, 64), (_pmf((0.5, 0.3, 0.2)), 13, 64)]


def n96_pool() -> list[tuple[Pmf, int, int]]:
    # shift_ensemble_sim caps n0 so that k^n0 <= 2^22: alpha = 0.25 gives 22, not 24
    return [(Pmf.bernoulli(0.25), min(int(math.floor(alpha * 96)), 22), 96) for alpha in (0.05, 0.1, 0.15, 0.25)]


def generic8_pool() -> list[tuple[Pmf, int, int]]:
    return [(_pmf(np.random.default_rng(0).dirichlet(np.ones(8))), 7, 64)]


def random_pool(count: int = 300, seed: int = 4141) -> list[tuple[Pmf, int, int]]:
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(count):
        k = int(rng.integers(1, 6))
        probs = np.full(k, 1.0 / k) if rng.integers(4) == 0 else rng.dirichlet(np.ones(k))
        top = 16 if k == 1 else int(math.floor(16 / math.log2(k) + 1e-9))
        n0 = int(rng.integers(1, top + 1))
        maps.append((_pmf(probs), n0, int(rng.integers(1, 301))))
    return maps


def _bins(sm: coding.SeedMap) -> np.ndarray:
    """Every atom's bin in index order, read through `assign` in batches."""
    k, atoms = len(sm.alphabet), len(sm.alphabet) ** sm.n0
    shape = (k,) * sm.n0
    out = [sm.assign(np.stack(np.unravel_index(np.arange(lo, min(lo + _BATCH, atoms)), shape), axis=1))
           for lo in range(0, atoms, _BATCH)]
    return np.concatenate(out).astype(np.int64)


def report(name: str, maps) -> None:
    bins, tvs = hashlib.sha256(), []
    for p, n0, n in maps:
        sm = coding.simulate_seed_map(p, n0, n)
        bins.update(_bins(sm).tobytes())
        tvs.append(repr(sm.tv_to_uniform))
        del sm
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for p, n0, n in maps:
            coding.simulate_seed_map(p, n0, n)
        best = min(best, time.perf_counter() - start)
    peak = 0.0
    for p, n0, n in maps:
        tracemalloc.start()
        try:
            coding.simulate_seed_map(p, n0, n)
            peak = max(peak, tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    tv_digest = hashlib.sha256("\n".join(tvs).encode()).hexdigest()
    print(f"{name}: {len(maps)} maps; bins sha256 {bins.hexdigest()}; tv sha256 {tv_digest};"
          f" builds {best * 1e3:.1f} ms; peak {peak:.1f} MiB")


def main() -> None:
    report("pinned", pinned_pool())
    report("block_code", block_code_pool())
    report("n96", n96_pool())
    report("generic8", generic8_pool())
    report("random", random_pool())


if __name__ == "__main__":
    main()
