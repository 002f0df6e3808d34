import functools
import math

import numpy as np
import pytest

from approxhad.constructions import CatalogGapError, Recipe, build_catalog
from approxhad.flatten import (
    FlatCertificate,
    OrthMatrix,
    SingularSplitError,
    flat_orthogonal,
    submatrix_orthogonalize,
)
from approxhad.rounding import BernsteinCertificate, RoundingPlan


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return OrthMatrix.from_array(q * np.sign(np.diag(r)))


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(256)


class TestOrthMatrix:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            OrthMatrix.from_array(np.ones((3, 3)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
            OrthMatrix.from_array(np.zeros((2, 3)))

    def test_caches_max_entry(self):
        m = OrthMatrix.from_array(np.eye(4))
        assert m.max_abs_entry == 1.0
        assert m.orthogonality_defect == 0.0

    def test_entries_are_the_whole_evidence(self):
        # max entry and defect were once stored beside the entries: a
        # quarter of the max entry gave rounding probabilities in
        # [-1.5, 2.02] and a finite Bernstein bound where the true one is inf
        M = flat_orthogonal(22)[0]
        with pytest.raises(TypeError):
            OrthMatrix(entries=M.entries, max_abs_entry=M.max_abs_entry / 4,
                       orthogonality_defect=0.0)
        hand = OrthMatrix(M.entries)
        assert hand.max_abs_entry == np.abs(M.entries).max()
        assert hand.orthogonality_defect == np.abs(M.entries.T @ M.entries - np.eye(22)).max()
        p = RoundingPlan(hand, trials=1, master_seed=0).plus_probability
        assert 0.0 <= p.min() and p.max() <= 1.0
        assert BernsteinCertificate(22, hand.max_abs_entry).kappa_bound == math.inf
        assert OrthMatrix(2.0 * np.eye(3)).orthogonality_defect == 3.0


class TestSubmatrixOrthogonalize:
    def test_rotation_collapses_to_minus_one(self):
        for theta in (0.3, 1.0, 2.5):
            c, s = math.cos(theta), math.sin(theta)
            m = OrthMatrix.from_array(np.array([[c, s], [-s, c]]))
            out = submatrix_orthogonalize(m, 1)
            assert out.entries.shape == (1, 1)
            assert out.entries[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_zero_block_reduces_to_d_plus_cb(self):
        # [[0, Q1], [Q2, 0]] is orthogonal with a zero leading block, so the
        # collapse is exactly D + C B = Q2 Q1
        rng = np.random.default_rng(0)
        q1 = random_orthogonal(rng, 4).entries
        q2 = random_orthogonal(rng, 4).entries
        m = OrthMatrix.from_array(np.block([
            [np.zeros((4, 4)), q1],
            [q2, np.zeros((4, 4))],
        ]))
        out = submatrix_orthogonalize(m, 4)
        assert np.allclose(out.entries, q2 @ q1, atol=1e-12)

    def test_sylvester_h4_gives_permutation(self):
        from approxhad.constructions import sylvester

        m = OrthMatrix.from_array(sylvester(2).entries / 2.0)
        out = submatrix_orthogonalize(m, 1)
        assert np.allclose(out.entries, [[0, 1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)
        assert out.max_abs_entry == pytest.approx(1.0, abs=1e-12)

    def test_identity_block_is_singular(self):
        m = OrthMatrix.from_array(np.eye(5))
        with pytest.raises(SingularSplitError) as exc:
            submatrix_orthogonalize(m, 2)
        assert exc.value.sigma_min <= 1e-8

    def test_k_out_of_range(self):
        m = OrthMatrix.from_array(np.eye(4))
        with pytest.raises(ValueError):
            submatrix_orthogonalize(m, 4)

    def test_orthogonality_preserved_sample(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(4, 65))
            m = random_orthogonal(rng, n)
            k = int(rng.integers(1, max(2, math.isqrt(n - 1)) + 1))
            out = submatrix_orthogonalize(m, k)
            assert out.orthogonality_defect <= 1e-9 * n

    def test_norm_preservation(self):
        rng = np.random.default_rng(9)
        m = random_orthogonal(rng, 16)
        out = submatrix_orthogonalize(m, 3)
        for _ in range(20):
            u = rng.standard_normal(13)
            assert np.linalg.norm(out.entries @ u) == pytest.approx(
                np.linalg.norm(u), rel=1e-9
            )


class TestFlatOrthogonal:
    def test_n3_signed_permutation(self):
        orth, cert = flat_orthogonal(3)
        assert (cert.m, cert.k) == (4, 1)
        assert cert.bound == pytest.approx(1.0)
        a = np.abs(orth.entries)
        assert np.allclose(np.sort(a, axis=None), [0] * 6 + [1] * 3, atol=1e-12)

    def test_n4_is_scaled_hadamard(self):
        orth, cert = flat_orthogonal(4)
        assert (cert.m, cert.k) == (4, 0)
        assert orth.max_abs_entry == pytest.approx(0.5, abs=1e-15)

    def test_n11_paley(self):
        orth, cert = flat_orthogonal(11)
        assert (cert.m, cert.k) == (12, 1)
        assert cert.bound == pytest.approx(1.0 / (math.sqrt(12) - 1))
        assert orth.max_abs_entry <= cert.bound + 1e-12

    def test_n92_uses_96(self):
        orth, cert = flat_orthogonal(92)
        assert (cert.m, cert.k) == (96, 4)
        assert orth.max_abs_entry <= cert.bound + 1e-12
        assert orth.orthogonality_defect <= 1e-9 * 96

    def test_certificate_holds_n_and_m(self):
        cert = FlatCertificate(n=92, m=96)
        assert (cert.k, cert.bound) == (4, 1.0 / (math.sqrt(96) - 4))
        with pytest.raises(TypeError):
            FlatCertificate(n=92, m=96, k=0, bound=1.0)
        # a stored max entry once stood beside n and m with nothing to tie
        # it to a matrix: 0.01 where the order-22 matrix has 0.302
        with pytest.raises(TypeError):
            FlatCertificate(n=22, m=24, max_entry=0.01)

    def test_seeded_split_differs_but_stays_flat(self):
        a, ca = flat_orthogonal(11, seed=1)
        b, cb = flat_orthogonal(11, seed=2)
        base, _ = flat_orthogonal(11)
        assert not np.allclose(a.entries, b.entries)
        assert a.max_abs_entry <= ca.bound + 1e-12
        assert b.max_abs_entry <= cb.bound + 1e-12
        # determinism: same seed, same matrix
        a2, _ = flat_orthogonal(11, seed=1)
        assert np.array_equal(a.entries, a2.entries)

    def test_neumann_bound_on_hadamard_blocks(self, catalog):
        for n in (11, 30, 60, 92):
            m, recipe = None, None
            orth, cert = flat_orthogonal(n)
            assert orth.max_abs_entry >= 1.0 / math.sqrt(n) - 1e-12
            if cert.k == 0:
                continue
            H = catalog.build(cert.m).entries / math.sqrt(cert.m)
            A = H[: cert.k, : cert.k]
            inv = np.linalg.inv(np.eye(cert.k) - A)
            opnorm = np.linalg.svd(inv, compute_uv=False)[0]
            assert opnorm <= 1.0 / (1.0 - cert.k / math.sqrt(cert.m)) + 1e-9


# The Hadamard orders flat_orthogonal picks for n <= 300: every order it
# uses is the smallest constructible m >= n.  3 is not a Hadamard order,
# the skipped multiples of 4 are catalog gaps, and n = 5 has no m with
# m - n < sqrt(m).
CHOSEN_ORDERS = [1, 2] + [
    m for m in range(4, 301, 4)
    if m not in (92, 116, 156, 172, 184, 188, 232, 236, 260, 268, 292)
]


class TestOrderChoice:
    def test_gap_at_5(self):
        with pytest.raises(CatalogGapError) as exc:
            flat_orthogonal(5)
        assert (exc.value.below, exc.value.above) == (4, 8)
        assert str(exc.value) == (
            "catalog gap at n=5: no order m >= n with m - n < sqrt(m) "
            "(nearest orders: 4, 8)"
        )

    def test_m_and_k_up_to_300(self, monkeypatch):
        # only the choice of (m, k) is under test: build each Hadamard once
        monkeypatch.setattr(Recipe, "build", functools.cache(Recipe.build))
        for n in range(1, 301):
            if n == 5:
                continue
            _, cert = flat_orthogonal(n)
            m = min(o for o in CHOSEN_ORDERS if o >= n)
            assert (cert.m, cert.k) == (m, m - n), n

