"""Counter-based random streams (Philox) with explicit stream splitting.

Every simulation derives its generators as `stream(seed, k)`; distinct stream
indices are statistically independent, so per-trial streams can be consumed
in any order (or in parallel) without changing results.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# reserved stream indices; trial t uses TRIAL_BASE + t
CODEBOOK_STREAM = 0
AUX_STREAM = 1
TRIAL_BASE = 2


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator for (seed, stream_id); identical inputs, identical output."""
    return np.random.Generator(
        np.random.Philox(key=[int(seed) & _MASK64, int(stream_id) & _MASK64])
    )


def randint_below(gen: np.random.Generator, bound: int, size: int) -> list[int]:
    """`size` independent exact uniform integers in [0, bound), as Python
    ints, for arbitrary-precision bounds.

    Masked rejection: each candidate is the low bit_length(bound) bits of
    its own bytes, kept when below `bound` (at least half are).  Each round
    draws the candidates for every rank still missing from one `gen.bytes`
    buffer, and the kept ones are appended in buffer order.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    bits = bound.bit_length()
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    ranks: list[int] = []
    while len(ranks) < size:
        buf = gen.bytes((size - len(ranks)) * nbytes)
        for i in range(0, len(buf), nbytes):
            r = int.from_bytes(buf[i : i + nbytes], "little") & mask
            if r < bound:
                ranks.append(r)
    return ranks
