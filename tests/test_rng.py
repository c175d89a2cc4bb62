import numpy as np
import pytest

from rdplab.rng import randint_below, stream


@pytest.mark.parametrize(
    "bound", [2**j + 1 for j in range(0, 70, 3)] + [2**64 + 1, 3**100, 2**1761 - 7]
)
def test_randint_below_stays_below_the_bound(bound):
    ranks = randint_below(stream(5, 0), bound, 500)
    assert len(ranks) == 500
    assert all(type(r) is int and 0 <= r < bound for r in ranks)


def test_randint_below_sizes_zero_and_one():
    assert randint_below(stream(1, 0), 10, 0) == []
    (r,) = randint_below(stream(1, 0), 2**100, 1)
    assert 0 <= r < 2**100


@pytest.mark.parametrize("bound", [0, -3])
def test_randint_below_rejects_a_nonpositive_bound(bound):
    with pytest.raises(ValueError, match="bound must be positive"):
        randint_below(stream(1, 0), bound, 4)


def test_randint_below_is_reproducible_per_stream():
    a = randint_below(stream(7, 3), 3**50, 200)
    assert a == randint_below(stream(7, 3), 3**50, 200)
    assert a != randint_below(stream(7, 4), 3**50, 200)
