"""Every seed in [0, 2^64) keys its own Philox stream.

A Philox key given as a plain list of Python ints passes through float64
above 2^63, so seed 2^64 - 1 ran seed 0's stream and 2^63 + 1 ran 2^63's.

Every seeded draw -- anneal's moves, round_once's bits53 draws and the
permutations of flat_orthogonal(seed=) -- is read from the raw Philox
outputs through linalg.Draws; the draw-for-draw tests hold it to
numpy.random.Generator on the same key.
"""

import math
import random

import numpy as np
import pytest

from approxhad import search
from approxhad.constructions import build_catalog
from approxhad.flatten import OrthMatrix, flat_orthogonal, submatrix_orthogonalize
from approxhad.linalg import Draws, SignMatrix
from approxhad.rounding import RoundingPlan, round_once
from approxhad.search import StructureClass, anneal
from test_search_determinism import ANNEAL_PANEL, BUDGET, pattern

COLLIDING_PAIRS = [(2**64 - 1, 0), (2**63, 2**63 + 1)]


def generator(seed, counter=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, counter], dtype=np.uint64)))


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31, 2**62, 2**63 - 1])
@pytest.mark.parametrize("counter", [0, 5, 2**40])
def test_streams_below_2_63_unchanged(seed, counter):
    legacy = np.random.Generator(np.random.Philox(key=[seed, counter]))
    assert np.array_equal(Draws(seed, counter).bits53(8) * 2.0**-53, legacy.random(8))


@pytest.mark.parametrize("seed, counter", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_key_outside_64_bits_rejected(seed, counter):
    with pytest.raises(ValueError):
        Draws(seed, counter)


@pytest.mark.parametrize("a, b", COLLIDING_PAIRS)
def test_round_streams_distinct(a, b):
    orth, _ = flat_orthogonal(11)  # k = 1: entries are not all +-1, so draws matter

    def draw(seed):
        plan = RoundingPlan(target=orth, trials=1, master_seed=seed)
        return SignMatrix(round_once(plan, 0)).entries

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


DRAW_SEEDS = [0, 5, 2**63 + 1, 2**64 - 1]
# 3 * 2^30 and 2^31 + 1 reject about a quarter and half of their 32-bit
# draws, so Lemire's rejection loop runs too
HIGHS = [1, 2, 3, 4, 7, 8, 17, 105, 576, 841, 2**31, 2**32, 3 * 2**30, 2**31 + 1]


@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_draws_match_generator(seed):
    draws, gen = Draws(seed, 0), generator(seed)
    script = random.Random(seed)
    for step in range(20000):
        pick = script.random()
        if pick < 0.15:
            assert draws.random() == gen.random(), step
        elif pick < 0.2:
            m = script.randrange(40)
            bits = [draws.integers(2) for _ in range(m)]
            assert bits == gen.integers(0, 2, m).tolist(), step
        else:
            high = script.choice(HIGHS)
            assert draws.integers(high) == gen.integers(high), (step, high)


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_bits53_continues_the_stream(seed):
    # after an integer draw the reader holds buffered outputs and a kept
    # 32-bit half: bits53 reads on from the buffer and leaves the half
    draws, gen = Draws(seed, 0), generator(seed)
    for k in (3, 300, 1):
        assert draws.integers(7) == gen.integers(7)
        assert np.array_equal(draws.bits53(k) * 2.0**-53, gen.random(k))
    assert draws.integers(1000) == gen.integers(1000)
    assert draws.random() == gen.random()
    # on a fresh reader bits53 keeps the block it fetched, uncopied, as the
    # buffer, and the draws after it read on from there
    for k in (1, 3, 300):
        draws, gen = Draws(seed, 0), generator(seed)
        assert np.array_equal(draws.bits53(k) * 2.0**-53, gen.random(k))
        assert draws.integers(7) == gen.integers(7)
        assert draws.random() == gen.random()


PERMUTATION_SEEDS = [0, 1, 7, 123, 2**64 - 1]
PERMUTATION_SIZES = [1, 2, 3, 4, 12, 24, 28, 96, 100, 128, 256, 1000]


@pytest.mark.parametrize("seed", PERMUTATION_SEEDS)
def test_permutation_matches_generator(seed):
    for m in PERMUTATION_SIZES:
        draws, gen = Draws(seed, 0), generator(seed)
        # two calls in a row, as flat_orthogonal makes: the second starts
        # on the 32-bit half the first may leave pending
        for call in range(2):
            assert np.array_equal(draws.permutation(m), gen.permutation(m)), (m, call)
        assert draws.random() == gen.random(), m
        assert draws.integers(7) == gen.integers(7), m


# 2^31 + 1 and 3 * 2^30 give a Lemire low word below high in about half
# and a quarter of the moves, where a peek stops
PEEK_HIGHS = [2, 3, 30, 576, 2**31 + 1, 3 * 2**30]
PEEK_MOVES = 600  # past the first 256-output block


def positioned(seed, kept_half, high, moves):
    """The generator after the 37 doubles, the kept-half integer and then
    moves scalar (integers(high), random()) moves."""
    gen = generator(seed)
    for _ in range(37):
        gen.random()
    if kept_half:
        gen.integers(7)
    for _ in range(moves):
        gen.integers(high)
        gen.random()
    return gen


# the commits of successive peeks; a second peek reads first what the
# first one read ahead and left unconsumed
PEEK_COMMITS = [("none",), ("one",), ("all",), ("one", "all"), ("none", "one"), ("all", "one")]


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
@pytest.mark.parametrize("high", PEEK_HIGHS)
def test_peek_matches_scalar_draws(seed, high):
    for kept_half in (False, True):
        for commits in PEEK_COMMITS:
            draws, gen = Draws(seed, 0), generator(seed)
            for _ in range(37):
                assert draws.random() == gen.random()
            if kept_half:
                assert draws.integers(7) == gen.integers(7)
            assert (draws._half is not None) == kept_half
            done = 0
            for cycle, commit in enumerate(commits):
                ints, us = draws.peek(high, PEEK_MOVES)
                gen = positioned(seed, kept_half, high, done)
                for i in range(len(ints)):
                    assert ints[i] == gen.integers(high), (kept_half, cycle, i)
                    assert us[i] == gen.random(), (kept_half, cycle, i)
                if high in (2**31 + 1, 3 * 2**30):
                    assert len(ints) < PEEK_MOVES
                else:
                    assert len(ints) == PEEK_MOVES
                j = {"none": 0, "one": min(1, len(ints)), "all": len(ints)}[commit]
                draws.commit(j)
                done += j
            # after commits of `done` moves in all, every draw is the
            # generator's after that many scalar moves
            ref = positioned(seed, kept_half, high, done)
            for step in range(700):
                if step % 3 == 0:
                    assert draws.random() == ref.random(), step
                else:
                    h = high if step % 3 == 1 else 2
                    assert draws.integers(h) == ref.integers(h), step


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_peek_reads_nothing_when_high_is_1(seed):
    draws, gen = Draws(seed, 0), generator(seed)
    assert draws.integers(5) == gen.integers(5)
    ints, us = draws.peek(1, 100)
    assert len(ints) == len(us) == 0
    draws.commit(0)
    for _ in range(300):
        assert draws.random() == gen.random()
        assert draws.integers(30) == gen.integers(30)


@pytest.mark.parametrize("t0", [2.5, 1e-3, 123.456, 1e-290])
def test_run_temperatures_match_sequential_decay(t0):
    temps = search._temperatures(t0, 10**4)
    t = t0
    for step in range(10**4 + 1):
        assert temps[step] == t, step
        t *= 0.995


@pytest.mark.parametrize("high", [0, -1, 2**32 + 1])
def test_draws_reject_high_outside_32_bits(high):
    with pytest.raises(ValueError):
        Draws(0, 0).integers(high)


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_round_once_draws_generator_uniforms(seed):
    plan = RoundingPlan(target=flat_orthogonal(22)[0], trials=64, master_seed=seed)
    for t in (0, 1, 63):
        want = np.where(generator(seed, t).random((22, 22)) < (1.0 + plan.scaled) / 2.0, 1, -1)
        assert np.array_equal(SignMatrix(round_once(plan, t)).entries, want), t


def flattened_by_generator(n, seed):
    """flat_orthogonal(n, seed=seed) by its rule, with the two permutations
    drawn by Generator.permutation on the key (seed, 0)."""
    catalog = build_catalog(256)
    m = min(m for m in catalog.orders() if m >= n)
    gen = generator(seed)
    h = catalog.build(m).entries
    h = h[gen.permutation(m), :][:, gen.permutation(m)]
    return submatrix_orthogonalize(OrthMatrix.from_array(h / math.sqrt(m)), m - n).entries


def no_generator(*args, **kwargs):
    raise AssertionError("a numpy.random.Generator was made")


@pytest.mark.parametrize("name", ["circulant_core", "general"])
def test_anneal_draws_only_raw_outputs(monkeypatch, name):
    (n, _, seed, kappa_hex, restarts, plus), = [
        row for row in ANNEAL_PANEL if row[1:3] == (name, 0) and row[0] in (7, 11)]
    sclass = StructureClass(name)
    want = anneal(9, sclass, 3, 400)
    monkeypatch.setattr(np.random, "Generator", no_generator)
    got = anneal(9, sclass, 3, 400)
    assert (got.kappa, got.effort) == (want.kappa, want.effort)
    assert np.array_equal(got.matrix.entries, want.matrix.entries)
    rec = anneal(n, sclass, seed, BUDGET)
    assert (rec.kappa.hex(), rec.effort["restarts"], pattern(rec.matrix)) == \
        (kappa_hex, restarts, plus)


def test_no_generator_is_made(monkeypatch):
    plan = RoundingPlan(target=flat_orthogonal(22)[0], trials=2, master_seed=5)
    want_round = np.where(generator(5, 1).random((22, 22)) < plan.plus_probability, 1, -1)
    want_flat = flattened_by_generator(23, 5)
    monkeypatch.setattr(np.random, "Generator", no_generator)
    assert np.array_equal(SignMatrix(round_once(plan, 1)).entries, want_round)
    assert np.array_equal(flat_orthogonal(23, seed=5)[0].entries, want_flat)
