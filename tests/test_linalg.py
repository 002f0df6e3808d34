import math

import numpy as np
import pytest

from approxhad import linalg
from approxhad.families import circulant
from approxhad.linalg import (
    IntPolynomial,
    SignMatrix,
    SINGULAR_TOLERANCE_PER_N,
    condition_number,
    gram,
    gram_eigvalsh,
    gram_kappa,
    kronecker,
    operator_norm,
)
from approxhad.constructions import sylvester


def random_sign(rng, n):
    return SignMatrix(rng.integers(0, 2, (n, n)) * 2 - 1)


class TestSignMatrix:
    def test_rejects_non_pm1(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            SignMatrix(np.array([[1, 0], [1, 1]]))

    def test_rejects_rect(self):
        with pytest.raises(ValueError):
            SignMatrix(np.ones((2, 3)))

    def test_rejects_non_integer_before_cast(self):
        # an int64 cast first would truncate 1.9 to 1 and -1.2 to -1
        with pytest.raises(ValueError, match=r"entry at \(0, 0\) is 1.9, not \+-1"):
            SignMatrix(np.array([[1.9, -1.2], [1, 1]]))

    def test_leaves_callers_array_writable(self):
        a = np.ones((2, 2), dtype=np.int64)
        m = SignMatrix(a)
        a[0, 0] = -1
        assert m.entries.tolist() == [[1, 1], [1, 1]]
        assert not m.entries.flags.writeable


class TestGram:
    def test_h2(self):
        g = gram(SignMatrix([[1, 1], [1, -1]]).entries)
        assert g.tolist() == [[2, 0], [0, 2]]

    def test_all_ones_3(self):
        g = gram(SignMatrix(np.ones((3, 3))).entries)
        assert (g == 3).all()

    def test_barba_circulant_5(self):
        g = gram(SignMatrix(circulant([1, 1, 1, 1, -1])).entries)
        expected = 4 * np.eye(5, dtype=np.int64) + 1
        assert np.array_equal(g, expected)

    def test_parity_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(2, 17))
            g = gram(random_sign(rng, n).entries)
            off = g[~np.eye(n, dtype=bool)]
            assert ((off - n) % 2 == 0).all()
            assert (np.abs(off) <= n).all()


class TestGramFloat64:
    def test_equals_integer_gram_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 30, 64, 116):
            a = random_sign(rng, n).entries
            exact = (a.T @ a).astype(np.float64)
            assert gram(a).tobytes() == exact.tobytes()

    def test_stack(self):
        rng = np.random.default_rng(6)
        stack = rng.integers(0, 2, (4, 5, 5)) * 2 - 1
        for a, g in zip(stack, gram(stack)):
            assert g.tobytes() == (a.T @ a).astype(np.float64).tobytes()


def sign_stack(n, seed):
    """Five +-1 matrices of order n: three random, the all-ones and one
    with a repeated row (both singular for n >= 2)."""
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, 2, (5, n, n)) * 2 - 1
    stack[3] = 1
    stack[4, -1] = stack[4, 0]
    return stack


class TestGramEigvalsh:
    @pytest.mark.parametrize("n", [1, 2, 15, 17, 25, 46, 116])
    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
    def test_equals_eigvalsh_of_the_gram_bit_for_bit(self, n, dtype):
        stack = sign_stack(n, n).astype(dtype)
        want = np.linalg.eigvalsh(gram(stack))
        assert gram_eigvalsh(stack).tobytes() == want.tobytes()
        for a, ev in zip(stack, want):
            assert gram_eigvalsh(a).tobytes() == ev.tobytes()

    def test_non_convergence_raises(self, monkeypatch):
        # LAPACK's failure reaches the gufunc's caller as NaN eigenvalues
        monkeypatch.setattr(linalg, "_eigvalsh_lo", lambda g: np.full(g.shape[:-1], np.nan))
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            gram_eigvalsh(sign_stack(5, 0)[0])
        with pytest.raises(np.linalg.LinAlgError):
            condition_number(SignMatrix(sign_stack(5, 0)[0]))

    def test_non_convergence_of_one_slice_raises(self, monkeypatch):
        solve = linalg._eigvalsh_lo

        def third_fails(g):
            ev = solve(g)
            ev[2] = np.nan
            return ev

        monkeypatch.setattr(linalg, "_eigvalsh_lo", third_fails)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            gram_eigvalsh(sign_stack(5, 0))


class TestOperatorNorm:
    def test_start_vector_in_lower_eigenspace(self):
        # power iteration from the all-ones vector stays on the eigenvalue 1
        q = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        E = q @ np.diag([1.0, 3.0]) @ q.T
        assert operator_norm(E) == pytest.approx(3.0, rel=1e-14)

    def test_matches_svd(self):
        rng = np.random.default_rng(8)
        for n in (1, 3, 10, 46):
            E = rng.standard_normal((n, n))
            top = float(np.linalg.svd(E, compute_uv=False)[0])
            assert operator_norm(E) == pytest.approx(top, rel=1e-12)

    def test_zero_and_empty(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0
        assert operator_norm(np.zeros((0, 0))) == 0.0

    def test_early_exit_returns_a_bound_above_the_value_to_beat(self):
        E = np.diag([3.0, 1.0])
        e1 = np.array([1.0, 0.0])
        floor = operator_norm(E, e1, above=2.0)
        assert 2.0 < floor < 3.0
        # a value to beat the bound does not clear gets the eigensolve
        assert operator_norm(E, e1, above=3.0) == operator_norm(E)
        assert operator_norm(E, np.array([0.0, 1.0]), above=2.0) == operator_norm(E)
        for probe in (np.zeros(2), np.array([np.nan, 1.0])):
            assert operator_norm(E, probe, above=0.0) == operator_norm(E)


class TestConditionNumber:
    def test_hadamard_4(self):
        assert condition_number(sylvester(2)).kappa == 1.0

    def test_singular_is_inf(self):
        rep = condition_number(SignMatrix(np.ones((2, 2))))
        assert math.isinf(rep.kappa)
        assert rep.sigma_min == 0.0

    @pytest.mark.parametrize("n", [1, 5, 29])
    def test_gram_kappa_singular_boundary(self, n):
        boundary = n * 2.0 ** -40
        assert boundary == n * SINGULAR_TOLERANCE_PER_N
        assert gram_kappa(boundary, 2.0 * n, n) == math.inf
        above = math.nextafter(boundary, math.inf)
        assert gram_kappa(above, 2.0 * n, n) == math.sqrt(2.0 * n / above)

    def test_early_exit_only_when_kappa_exceeds_the_value_to_beat(self):
        A = SignMatrix(np.ones((2, 2)))
        probes = (np.array([1.0, 1.0]), np.array([1.0, -1.0]))
        # w spans the null space, so the bound is inf: None for any finite
        # value to beat, but kappa = inf only ties a value to beat of inf
        assert condition_number(A, probes, above=1e300) is None
        assert condition_number(A, probes, above=math.inf) == condition_number(A)
        nan = (np.full(2, np.nan),) * 2
        assert condition_number(A, nan, above=1.0) == condition_number(A)
        H = sylvester(2)
        assert condition_number(H, (np.ones(4), np.ones(4)), above=1.0) == condition_number(H)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
    def test_pm1_array_gives_the_sign_matrix_result(self, dtype):
        # round_best passes its int8 draws unwrapped
        def bits(report):
            return None if report is None else tuple(map(float.hex, vars(report).values()))

        rng = np.random.default_rng(3)
        singular = np.ones((6, 6), dtype=np.int64)
        singular[:, 1::2] = -1
        for a in [random_sign(rng, n).entries for n in (1, 7, 30, 92)] + [singular]:
            A, x, n = SignMatrix(a), a.astype(dtype), len(a)
            probes = (np.cos(np.arange(n)), np.sin(np.arange(n) + 1.0))
            exact = condition_number(A)
            assert bits(condition_number(x)) == bits(exact)
            for above in (math.inf, exact.kappa, 1.0):
                assert bits(condition_number(x, probes, above=above)) == \
                    bits(condition_number(A, probes, above=above)), (n, above)
        assert math.isinf(condition_number(singular.astype(dtype)).kappa)

    @pytest.mark.parametrize("a, match", [
        (np.array([[1, 1], [1, 2]], dtype=np.int8), r"entry at \(1, 1\) is 2, not \+-1"),
        (np.array([[1.0, 0.5], [1.0, -1.0]]), r"entry at \(0, 1\) is 0.5, not \+-1"),
        (np.full((2, 2), 2.0), r"entry at \(0, 0\)"),  # eta at n^2 would be too small
        (np.ones((2, 3), dtype=np.int8), "expected a square matrix"),
        (np.ones((0, 0), dtype=np.int8), "order must be >= 1"),
    ])
    def test_array_is_checked_as_a_sign_matrix(self, a, match):
        n = a.shape[-1]
        for probes in (None, (np.ones(n), np.ones(n))):
            with pytest.raises(ValueError, match=match):
                condition_number(a, probes, above=1.0)

    def test_barba_5(self):
        rep = condition_number(SignMatrix(circulant([1, 1, 1, 1, -1])))
        assert rep.kappa == pytest.approx(1.5, abs=1e-12)

    def test_sign_flip_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            A = random_sign(rng, n)
            k0 = condition_number(A).kappa
            p, q = rng.permutation(n), rng.permutation(n)
            dl = np.diag(rng.integers(0, 2, n) * 2 - 1)
            dr = np.diag(rng.integers(0, 2, n) * 2 - 1)
            B = SignMatrix(dl @ A.entries[p][:, q] @ dr)
            k1 = condition_number(B).kappa
            if math.isinf(k0):
                assert math.isinf(k1)
            else:
                assert k1 == pytest.approx(k0, rel=1e-12)

    def test_kappa_one_iff_hadamard_gram(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            A = random_sign(rng, n)
            rep = condition_number(A)
            is_had = np.array_equal(gram(A.entries), n * np.eye(n, dtype=np.int64))
            if is_had:
                assert abs(rep.kappa - 1.0) <= 1e-12
            else:
                assert math.isinf(rep.kappa) or rep.kappa > 1.0 + 1e-12
            assert math.isinf(rep.kappa) or rep.kappa >= 1.0


class TestMinpolyResidual:
    def test_linear_root(self):
        assert IntPolynomial((-2, 1))(2.0) == 0.0

    def test_table_13(self):
        kappa = 1.443375673  # rounded to 10 digits; the exact root is 5/(2 sqrt 3)
        assert abs(IntPolynomial((-25, 0, 12))(kappa)) <= 1e-8

    def test_signed_value(self):
        assert IntPolynomial((-3, 2))(1.0) == -1.0

    def test_zero_poly_rejected(self):
        for make in (lambda: IntPolynomial((0,)), lambda: IntPolynomial(()),
                     lambda: IntPolynomial.parse("0,0")):
            with pytest.raises(ValueError, match="^polynomial must be nonzero$"):
                make()
        assert IntPolynomial((1, 0, 0)).coefficients == (1,)

    def test_exact_rational_evaluation(self):
        # float64 Horner would lose ~1e-9 here; rational evaluation must not
        p = IntPolynomial((354061, 0, -1045624, 0, 1266560, 0, -806784, 0,
                           285440, 0, -53248, 0, 4096))
        x = 1.5
        from fractions import Fraction

        exact = sum(c * Fraction(x) ** i for i, c in enumerate(p.coefficients))
        assert p(x) == pytest.approx(float(exact), rel=1e-15)


class TestKronecker:
    def test_h2_h2_is_h4(self):
        h4 = kronecker(sylvester(1), sylvester(1))
        assert np.array_equal(h4.entries, sylvester(2).entries)
        assert condition_number(h4).kappa == 1.0

    def test_kappa_multiplicative_with_order3(self):
        A3 = SignMatrix(circulant([1, 1, -1]))  # kappa = 2
        prod = kronecker(sylvester(1), A3)
        assert prod.n == 6
        assert condition_number(prod).kappa == pytest.approx(2.0, rel=1e-10)

    def test_entry_pattern(self):
        rng = np.random.default_rng(2)
        A, B = random_sign(rng, 3), random_sign(rng, 4)
        K = kronecker(A, B)
        for i in range(3):
            for j in range(3):
                for k in range(4):
                    for l in range(4):
                        assert K.entries[i * 4 + k, j * 4 + l] == A.entries[i, j] * B.entries[k, l]

    def test_kappa_multiplicative_random(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 25:
            na, nb = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            A, B = random_sign(rng, na), random_sign(rng, nb)
            ka, kb = condition_number(A).kappa, condition_number(B).kappa
            if math.isinf(ka) or math.isinf(kb):
                continue
            kprod = condition_number(kronecker(A, B)).kappa
            assert kprod == pytest.approx(ka * kb, rel=1e-10)
            done += 1
