"""Counter-based random streams (Philox) with explicit stream splitting.

Every simulation derives its generators as `stream(seed, k)` (or, for a run
of consecutive indices, `streams`); distinct stream indices are statistically
independent, so per-trial streams can be consumed in any order (or in
parallel) without changing results.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1

# reserved stream indices; trial t uses TRIAL_BASE + t
CODEBOOK_STREAM = 0
AUX_STREAM = 1
TRIAL_BASE = 2


def _key(seed: int, stream_id: int) -> list[int]:
    return [int(seed) & _MASK64, int(stream_id) & _MASK64]


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator for (seed, stream_id); identical inputs, identical output."""
    # an explicit uint64 key: Philox reads a list holding an int of 2^63 or
    # more through float64, which merges nearby seeds
    key = np.array(_key(seed, stream_id), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def streams(seed: int, first: int, count: int) -> Iterator[np.random.Generator]:
    """The generators `stream(seed, first + t)` for t = 0, ..., count - 1.

    One Philox is re-keyed through its `state` setter for each stream, with
    the state a new Philox starts from: counter 0, an empty buffer and no
    saved 32-bit half.  Each stream draws exactly what `stream` gives, at a
    fraction of the cost of a new bit generator.  The same Generator object
    is yielded every time, so finish drawing from one before taking the next.
    """
    bitgen = np.random.Philox(key=0)  # re-keyed before each use
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    for t in range(count):
        fresh["state"]["key"] = _key(seed, first + t)
        bitgen.state = fresh
        yield gen


def randint_below(gen: np.random.Generator, bound: int, size: int) -> np.ndarray:
    """`size` independent exact uniform integers in [0, bound), for
    arbitrary-precision bounds: an int64 array when bound <= 2^63, and an
    object array of Python ints above that.

    Masked rejection: each candidate is the low bit_length(bound) bits of
    its own nbytes = ceil(bit_length / 8) little-endian bytes, kept when
    below `bound` (at least half are).  Each round draws the candidates for
    every rank still missing from one `gen.bytes` buffer, and the kept ones
    follow in buffer order.  A round is vectorized: limb i of a candidate is
    the little-endian uint64 at byte 8i of it, read in place from the buffer
    (a strided view), and the top limb is masked to the candidate's
    remaining bits, which clears the bytes it reads past the candidate's
    end.  Candidates are compared with `bound` limb by limb from the most
    significant.  Below 2^63 the kept uint64 limbs are cast to int64, so no
    Python int is built; up to 2^64 each kept one becomes a Python int, and
    above it they are built from the top limb down, by one object-array
    shift and or per further limb.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    dtype = np.int64 if bound <= 1 << 63 else object
    bits = bound.bit_length()
    nbytes = (bits + 7) // 8
    limbs = (nbytes + 7) // 8
    top_mask = np.uint64((1 << (bits - 64 * (limbs - 1))) - 1)
    bound_limbs = [np.uint64((bound >> (64 * i)) & _MASK64) for i in range(limbs)]
    rounds = [np.empty(0, dtype=dtype)]
    missing = size
    while missing > 0:
        # 8 zero bytes at the end keep the last top-limb read inside the buffer
        buf = gen.bytes(missing * nbytes) + bytes(8)
        limb = np.ndarray((limbs, missing), dtype="<u8", buffer=buf, strides=(8, nbytes))
        top = limb[-1] & top_mask
        below = top < bound_limbs[-1]
        equal = top == bound_limbs[-1]
        for i in reversed(range(limbs - 1)):
            below |= equal & (limb[i] < bound_limbs[i])
            equal &= limb[i] == bound_limbs[i]
        value = top[below].astype(dtype)
        for i in reversed(range(limbs - 1)):
            value = (value << 64) | limb[i][below].astype(object)
        rounds.append(value)
        missing -= len(value)
    return np.concatenate(rounds)
