"""Property tests of the spectral screen against the exact path.

For random and near-singular bits of every screened class, including the
smallest orders, each neighbour's screened extreme Gram eigenvalues lie
within eta / 2 of what eigvalsh returns on its exact Gram (anneal trusts
them to eta), and the screen's kappa bounds contain the neighbour's
exact-path kappa; lo bounds it also where hi = inf, as anneal's floors
rely on.  So does the floor under all neighbours that anneal's rejection
runs read (SpectralScreen.kappa_floors, built from those bounds).

For random and near-singular general and symmetric matrices, again down
to the smallest orders, the Ritz values lie on the right side of the
neighbour's eigvalsh extremes up to eta / 2, so the Ritz floor is never
above the neighbour's exact-path kappa.  RitzScreen.flip, which anneal
uses in place of a build, gives the neighbour's matrix.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from approxhad import search  # noqa: E402
from approxhad.linalg import SINGULAR_TOLERANCE_PER_N, eigvalsh_margin, gram  # noqa: E402
from approxhad.search import StructureClass  # noqa: E402

CASES = [
    ("circulant", 1), ("circulant", 2), ("circulant", 3), ("circulant", 10),
    ("circulant", 19), ("circulant", 31),
    ("circulant_core", 2), ("circulant_core", 3), ("circulant_core", 4),
    ("circulant_core", 21), ("circulant_core", 29),
    ("two_block_circulant", 2), ("two_block_circulant", 4),
    ("two_block_circulant", 18), ("two_block_circulant", 30),
    ("block_circulant1", 1), ("block_circulant1", 5),
    ("block_circulant3", 3), ("block_circulant3", 9), ("block_circulant3", 27),
    ("block_circulant9", 9), ("block_circulant9", 27),
    ("block_circulant6", 12),
]


def exact_path(sclass, n, bits):
    ev = np.linalg.eigvalsh(gram(sclass.build(n, bits)))
    kappa = math.inf if ev[0] <= n * SINGULAR_TOLERANCE_PER_N else math.sqrt(ev[-1] / ev[0])
    return ev[0], ev[-1], kappa


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(case=st.sampled_from(CASES), data=st.data())
def test_screen_matches_eigvalsh(case, data):
    name, n = case
    sclass = StructureClass.parse(name)
    nbits = sclass.n_bits(n)
    bits = data.draw(st.one_of(
        st.lists(st.integers(0, 1), min_size=nbits, max_size=nbits).map(
            lambda b: np.array(b, dtype=np.int64)),
        near_singular_bits(nbits)))
    screen = search._layout(sclass, n)[2]
    spectra = screen.spectra(bits)
    floors = screen.kappa_floors(spectra)
    assert floors.shape == (nbits,)
    for i in range(nbits):
        flipped = bits.copy()
        flipped[i] ^= 1
        lmin_exact, lmax_exact, kappa = exact_path(sclass, n, flipped)
        lmin, lmax = screen.extremes(spectra, i)
        half_eta = eigvalsh_margin(n, lmax) / 2
        assert abs(lmin - lmin_exact) <= half_eta, (name, n, i)
        assert abs(lmax - lmax_exact) <= half_eta, (name, n, i)
        lo, hi = screen.kappa_bounds(spectra, i)
        assert lo <= kappa <= hi, (name, n, i)
        assert floors[i] <= kappa, (name, n, i)


def near_singular_bits(nbits):
    """Bit vectors whose Grams are often singular or nearly so: a short
    pattern repeated (a periodic row has DFT zeros), then a few bits
    flipped."""
    @st.composite
    def draw(draw):
        period = draw(st.integers(1, max(1, min(nbits, 4))))
        pattern = draw(st.lists(st.integers(0, 1), min_size=period, max_size=period))
        bits = np.array([pattern[i % period] for i in range(nbits)], dtype=np.int64)
        for i in draw(st.lists(st.integers(0, max(nbits - 1, 0)), max_size=2)):
            if nbits:
                bits[i] ^= 1
        return bits
    return draw()


RITZ_CASES = [
    ("general", 2), ("general", 3), ("general", 4), ("general", 7), ("general", 13),
    ("general", 25),
    ("symmetric", 2), ("symmetric", 3), ("symmetric", 4), ("symmetric", 9),
    ("symmetric", 17),
]


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(case=st.sampled_from(RITZ_CASES), data=st.data())
def test_ritz_floor_is_below_eigvalsh(case, data):
    kind, n = case
    sclass = StructureClass(kind)
    nbits = sclass.n_bits(n)
    bits = data.draw(st.one_of(
        st.lists(st.integers(0, 1), min_size=nbits, max_size=nbits).map(
            lambda b: np.array(b, dtype=np.int64)),
        near_singular_bits(nbits)))
    ritz = search._layout(sclass, n)[2]
    a = sclass.build(n, bits)
    bottom, top = ritz.extremes(a)
    lo = ritz.kappa_floors(a)
    assert bottom.shape == top.shape == lo.shape == (nbits,)
    half_eta = ritz.eta / 2
    for i in range(nbits):
        flipped = bits.copy()
        flipped[i] ^= 1
        assert np.array_equal(ritz.flip(a, i), sclass.build(n, flipped)), (kind, n, i)
        lmin_exact, lmax_exact, kappa = exact_path(sclass, n, flipped)
        assert bottom[i] >= lmin_exact - half_eta, (kind, n, i)
        assert top[i] <= lmax_exact + half_eta, (kind, n, i)
        assert lo[i] <= kappa, (kind, n, i)
