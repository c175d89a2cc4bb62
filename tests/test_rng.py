import numpy as np
import pytest

from rdplab.rng import randint_below, stream, streams


@pytest.mark.parametrize(
    "bound", [2**j + 1 for j in range(0, 70, 3)] + [2**64 + 1, 3**100, 2**1761 - 7]
)
def test_randint_below_stays_below_the_bound(bound):
    ranks = randint_below(stream(5, 0), bound, 500)
    assert ranks.shape == (500,)
    assert all(type(r) is int and 0 <= r < bound for r in ranks.tolist())


def test_randint_below_sizes_zero_and_one():
    none = randint_below(stream(1, 0), 10, 0)
    assert none.shape == (0,) and none.dtype == np.int64
    (r,) = randint_below(stream(1, 0), 2**100, 1)
    assert type(r) is int and 0 <= r < 2**100


def _scalar_randint_below(gen, bound, size):
    """Masked rejection one candidate at a time, with int.from_bytes."""
    bits = bound.bit_length()
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    ranks = []
    while len(ranks) < size:
        buf = gen.bytes((size - len(ranks)) * nbytes)
        for i in range(0, len(buf), nbytes):
            r = int.from_bytes(buf[i : i + nbytes], "little") & mask
            if r < bound:
                ranks.append(r)
    return ranks


@pytest.mark.parametrize(
    "bound",
    [1, 2, 255, 256, 257, 2**56 - 1, 2**56, 2**63 - 1, 2**63, 2**63 + 1]
    + [2**64 - 1, 2**64, 2**64 + 1, 3**50, 2**1000 + 3]
    # candidates 3, 4, 5, 6 and 7 bytes wide
    + [2**16 + 1, 2**24 + 1, 2**32 + 1, 2**40 + 1, 2**48 + 1],
)
@pytest.mark.parametrize("size", [0, 1, 1000])
def test_randint_below_matches_the_scalar_rule(bound, size):
    gen, ref = stream(23, 4), stream(23, 4)
    got = randint_below(gen, bound, size)
    assert got.shape == (size,) and got.dtype == (np.int64 if bound <= 2**63 else object)
    assert got.tolist() == _scalar_randint_below(ref, bound, size)
    # the same bytes were consumed: the next draw agrees
    assert gen.random() == ref.random()


@pytest.mark.parametrize("bound, dtype", [
    (2**63 - 1, np.int64),
    (2**63, np.int64),
    (2**63 + 1, object),
    (2**64 - 1, object),
    (2**64, object),
    (2**100, object),
])
def test_randint_below_is_int64_up_to_two_to_the_63(bound, dtype):
    # int64 holds every rank below a bound of at most 2^63; above it the
    # ranks are Python ints in an object array
    gen, ref = stream(29, 1), stream(29, 1)
    got = randint_below(gen, bound, 300)
    assert got.dtype == dtype
    assert all(type(r) is int for r in (got if dtype is object else got.tolist()))
    assert got.tolist() == _scalar_randint_below(ref, bound, 300)
    assert gen.random() == ref.random()


@pytest.mark.parametrize("bound", [0, -3])
def test_randint_below_rejects_a_nonpositive_bound(bound):
    with pytest.raises(ValueError, match="bound must be positive"):
        randint_below(stream(1, 0), bound, 4)


def test_randint_below_is_reproducible_per_stream():
    a = randint_below(stream(7, 3), 3**50, 200).tolist()
    assert a == randint_below(stream(7, 3), 3**50, 200).tolist()
    assert a != randint_below(stream(7, 4), 3**50, 200).tolist()


@pytest.mark.parametrize("seed", [0, 7, 2**62 + 3, 2**63 + 5, 2**64 - 1, -1])
@pytest.mark.parametrize("first", [2, 2**64 - 3])
def test_streams_draw_what_stream_draws(seed, first):
    # random() then a 32-bit bounded draw, so each stream leaves a half-used
    # word behind that the next one must not see
    got = [(g.random(65), g.integers(0, 64)) for g in streams(seed, first, 5)]
    for t, (u, q) in enumerate(got):
        ref = stream(seed, first + t)
        assert np.array_equal(u, ref.random(65))
        assert q == ref.integers(0, 64)


@pytest.mark.parametrize("seed", [2**63, 2**63 + 5, 2**64 - 1, -1])
def test_stream_keys_every_bit_of_a_large_seed(seed):
    key = stream(seed, 9).bit_generator.state["state"]["key"]
    assert key.tolist() == [seed % 2**64, 9]
    assert not np.array_equal(stream(seed, 9).random(4), stream(seed - 1, 9).random(4))
