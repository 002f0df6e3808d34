"""Every seed in [0, 2^64) keys its own Philox stream.

A Philox key given as a plain list of Python ints passes through float64
above 2^63, so seed 2^64 - 1 ran seed 0's stream and 2^63 + 1 ran 2^63's.
"""

import numpy as np
import pytest

from approxhad.flatten import flat_orthogonal
from approxhad.linalg import philox
from approxhad.rounding import RoundingPlan, round_once
from approxhad.search import StructureClass, anneal

COLLIDING_PAIRS = [(2**64 - 1, 0), (2**63, 2**63 + 1)]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31, 2**62, 2**63 - 1])
@pytest.mark.parametrize("counter", [0, 5, 2**40])
def test_streams_below_2_63_unchanged(seed, counter):
    legacy = np.random.Generator(np.random.Philox(key=[seed, counter]))
    assert np.array_equal(philox(seed, counter).integers(0, 2**63, 8),
                          legacy.integers(0, 2**63, 8))


@pytest.mark.parametrize("seed, counter", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_key_outside_64_bits_rejected(seed, counter):
    with pytest.raises(ValueError):
        philox(seed, counter)


@pytest.mark.parametrize("a, b", COLLIDING_PAIRS)
def test_round_streams_distinct(a, b):
    orth, _ = flat_orthogonal(11)  # k = 1: entries are not all +-1, so draws matter

    def draw(seed):
        return round_once(RoundingPlan(target=orth, trials=1, master_seed=seed), 0).entries

    assert not np.array_equal(draw(a), draw(b))


@pytest.mark.parametrize("a, b", COLLIDING_PAIRS)
def test_anneal_streams_distinct(a, b):
    def best(seed):
        return anneal(8, StructureClass("general"), seed, 50).matrix.entries

    assert not np.array_equal(best(a), best(b))


@pytest.mark.parametrize("a, b", COLLIDING_PAIRS)
def test_flatten_streams_distinct(a, b):
    assert not np.array_equal(flat_orthogonal(12, seed=a)[0].entries,
                              flat_orthogonal(12, seed=b)[0].entries)
