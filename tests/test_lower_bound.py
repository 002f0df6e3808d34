import dataclasses
import itertools
import math
import signal

import numpy as np
import pytest

from approxhad.constructions import sylvester
from approxhad.families import circulant
from approxhad.linalg import SignMatrix, condition_number, gram
from approxhad.lower_bound import (
    CliqueCertificate,
    best_clique_certificate,
    kappa_floor,
    max_clique,
    orthogonal_triple_exists,
    verify_certificate,
)


def random_sign(rng, n):
    return SignMatrix(rng.integers(0, 2, (n, n)) * 2 - 1)


def gram_signs(A):
    """Entrywise sign of the Gram, the coloring the clique bound reads;
    diagonal zeroed."""
    signs = np.sign(gram(A.entries)).astype(np.int64)
    np.fill_diagonal(signs, 0)
    return signs


class TestSignColoring:
    def test_hadamard_all_zero(self):
        colors = gram_signs(sylvester(2))
        assert (colors == 0).all()

    def test_barba5_all_positive(self):
        colors = gram_signs(SignMatrix(circulant([1, 1, 1, 1, -1])))
        off = colors[~np.eye(5, dtype=bool)]
        assert (off == 1).all()

    def test_odd_orders_never_zero(self):
        rng = np.random.default_rng(23)
        for n in (3, 5, 7, 9, 11):
            for _ in range(30):
                colors = gram_signs(random_sign(rng, n))
                off = colors[~np.eye(n, dtype=bool)]
                assert (off != 0).all()


class TestMaxClique:
    def test_empty_graph(self):
        adj = np.zeros((5, 5), dtype=bool)
        assert len(max_clique(adj)) == 1

    def test_no_vertices(self):
        assert max_clique(np.zeros((0, 0), dtype=bool)) == []

    def test_complete_graph(self):
        adj = np.ones((7, 7), dtype=bool)
        np.fill_diagonal(adj, False)
        assert max_clique(adj) == list(range(7))

    def test_known_graph(self):
        # two triangles sharing an edge plus a pendant: max clique 3
        edges = [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (3, 4)]
        adj = np.zeros((5, 5), dtype=bool)
        for i, j in edges:
            adj[i, j] = adj[j, i] = True
        assert len(max_clique(adj)) == 3

    def test_exact_vs_random_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(4, 13))
            adj = rng.random((n, n)) < 0.5
            adj = np.triu(adj, 1)
            adj = adj | adj.T
            got = len(max_clique(adj))
            # brute-force reference
            best = 1
            for size in range(n, 0, -1):
                found = False
                for sub in itertools.combinations(range(n), size):
                    if all(adj[a, b] for a, b in itertools.combinations(sub, 2)):
                        found = True
                        break
                if found:
                    best = size
                    break
            assert got == best

    @pytest.mark.parametrize("n", [10, 25])
    def test_diagonal_entries_are_ignored(self, n):
        # on the greedy path (n > 20) a self-adjacent vertex must not stay
        # in its own candidate set
        adj = np.zeros((n, n), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[3, 3] = True

        def timeout(signum, frame):
            raise TimeoutError("max_clique did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(5)
        try:
            assert max_clique(adj) == [0, 1]
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestCliqueCertificate:
    def test_barba5_equality_case(self):
        A = SignMatrix(circulant([1, 1, 1, 1, -1]))
        cert = best_clique_certificate(A)
        assert cert.sign == "positive"
        assert cert.k == 5
        assert cert.bound == pytest.approx(1.5, abs=1e-12)
        assert cert.bound == pytest.approx(condition_number(A).kappa, abs=1e-12)

    def test_hadamard_vacuous(self):
        cert = best_clique_certificate(sylvester(3))
        assert cert.k == 1
        assert cert.bound == 1.0

    def test_all_512_order3(self):
        # every sign-normalized 3x3 matrix: bound is always sound
        for bits in itertools.product((-1, 1), repeat=9):
            A = SignMatrix(np.array(bits).reshape(3, 3))
            cert = best_clique_certificate(A)
            kappa = condition_number(A).kappa
            assert cert.bound <= (kappa if math.isfinite(kappa) else math.inf) + 1e-9
            verify_certificate(cert, A)

    def test_soundness_random(self):
        rng = np.random.default_rng(6)
        for n in (3, 5, 6, 7, 9, 10, 11):
            for _ in range(40):
                A = random_sign(rng, n)
                cert = best_clique_certificate(A)
                kappa = condition_number(A).kappa
                if math.isfinite(kappa):
                    assert cert.bound <= kappa + 1e-9
                verify_certificate(cert, A)

    def test_certificate_must_fit_the_matrix(self):
        # a clique restated at another order, repeated columns, and indices
        # outside 0..n-1 are refused, however consistent the bound formula
        from approxhad.table import bundled_fixtures

        A29 = bundled_fixtures([29])[29]["matrix"]
        cert = best_clique_certificate(A29)
        assert (cert.sign, cert.k) == ("positive", 9)
        restated = dataclasses.replace(cert, n=2)
        A5 = SignMatrix(circulant([1, 1, 1, 1, -1]))  # Gram 4 I + J, kappa 1.5

        def positive(indices):
            return CliqueCertificate(indices, "positive", 5)

        for bad, A in ((restated, A29), (positive((0, 0, 0, 0, 0, 1)), A5),
                       (positive((0, -1)), A5), (positive((0, 7)), A5)):
            with pytest.raises(AssertionError):
                verify_certificate(bad, A)
        verify_certificate(positive((0, 4)), A5)

    def test_verify_refuses_an_unknown_sign_or_a_non_integer_index(self):
        # any sign but "positive" was once read as negative and printed as
        # given, and an index that is not an integer escaped as IndexError
        # or TypeError
        A = SignMatrix(np.array([[1, 1, 1], [1, -1, 1], [1, 1, -1]]))  # kappa 2
        for bad in (CliqueCertificate((1, 2), "zero", 3),
                    CliqueCertificate((1.0, 2), "negative", 3),
                    CliqueCertificate((True, 2), "negative", 3),
                    CliqueCertificate((np.bool_(True), 2), "negative", 3)):
            with pytest.raises(AssertionError):
                verify_certificate(bad, A)
        verify_certificate(CliqueCertificate((1, 2), "negative", 3), A)
        verify_certificate(CliqueCertificate((np.int64(1), np.intp(2)), "negative", 3), A)

    def test_verify_refuses_a_pair_without_the_common_sign(self):
        # well-formed evidence whose Gram entries have the other sign, or
        # are zero, is refused by the pair check alone
        from approxhad.table import bundled_fixtures

        A29 = bundled_fixtures([29])[29]["matrix"]
        cert = best_clique_certificate(A29)
        assert (cert.sign, cert.k) == ("positive", 9)
        H4 = sylvester(2)  # Gram 4 I: every pair is orthogonal
        A3 = SignMatrix(np.array([[1, 1, 1], [1, -1, 1], [1, 1, -1]]))
        for bad, A in ((dataclasses.replace(cert, sign="negative"), A29),
                       (CliqueCertificate((0, 1), "positive", 4), H4),
                       (CliqueCertificate((0, 1), "negative", 4), H4),
                       (CliqueCertificate((1, 2), "positive", 3), A3)):
            with pytest.raises(AssertionError, match="breaks the"):
                verify_certificate(bad, A)

    def test_conclusions_follow_the_evidence(self):
        # k and the bound are computed from the columns, the sign and the
        # order, so a certificate cannot carry a stale conclusion
        from approxhad.lower_bound import _bound
        from approxhad.table import bundled_fixtures

        cert = best_clique_certificate(bundled_fixtures([29])[29]["matrix"])
        assert (cert.sign, cert.k) == ("positive", 9)
        assert cert.k == len(cert.indices)
        assert cert.bound.hex() == _bound("positive", 9, 29).hex()
        assert dataclasses.replace(cert, n=30).bound == _bound("positive", 9, 30)
        for extra in ({"k": 9}, {"bound": cert.bound}):
            with pytest.raises(TypeError):
                CliqueCertificate(cert.indices, "positive", 29, **extra)

    def test_positive_clique_bound_equality_gram(self):
        # Gram (n-1) I_k + J_k: kappa of the underlying matrix equals the
        # k-clique bound exactly
        for n, k in ((5, 5), (9, 4), (13, 13)):
            g = (n - 1) * np.eye(k, dtype=np.int64) + 1
            ev = np.linalg.eigvalsh(g.astype(float))
            kappa = math.sqrt(ev[-1] / ev[0])
            assert kappa == pytest.approx(math.sqrt(1 + k / (n - 1)), abs=1e-12)

    def test_negative_clique_bound_equality_gram(self):
        # Gram (n+1) I_k - J_k: kappa equals the negative-clique bound
        for n, k in ((5, 3), (9, 6), (13, 8)):
            g = (n + 1) * np.eye(k, dtype=np.int64) - 1
            ev = np.linalg.eigvalsh(g.astype(float))
            kappa = math.sqrt(ev[-1] / ev[0])
            assert kappa == pytest.approx(math.sqrt(1 + k / (n + 1 - k)), abs=1e-12)


class TestOrthogonalTriples:
    def test_exhaustive_up_to_8(self):
        for n in range(1, 9):
            assert orthogonal_triple_exists(n) == (n % 4 == 0)

    def test_structured_up_to_12(self):
        for n in (9, 10, 11, 12):
            assert orthogonal_triple_exists(n) == (n % 4 == 0)

    def test_refuses_above_12(self):
        with pytest.raises(ValueError, match="n <= 12 only"):
            orthogonal_triple_exists(13)


class TestKappaFloor:
    def test_n3(self):
        assert kappa_floor(3) == pytest.approx(math.sqrt(2))

    def test_n5_below_actual(self):
        assert kappa_floor(5) == pytest.approx(math.sqrt(1.5))
        assert kappa_floor(5) <= 1.5

    def test_multiple_of_4_rejected(self):
        with pytest.raises(ValueError, match="no unconditional floor"):
            kappa_floor(4)

    def test_tiny_orders_rejected(self):
        with pytest.raises(ValueError):
            kappa_floor(2)

    def test_floor_below_best_known(self):
        from approxhad.table import TARGETS

        for n, target in TARGETS.items():
            if n % 4 != 0:
                assert kappa_floor(n) <= target.kappa_value + 1e-9
