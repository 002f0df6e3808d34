import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from approxhad.families import (
    BarbaRejection,
    FamilyMatrix,
    SdsPair,
    _canonical_codes,
    circulant,
    conference_plus_identity,
    sds_block_matrix,
    sds_family,
    sds_search,
    verify_barba,
)
from approxhad.certify import detect_gram_class
from approxhad.linalg import SignMatrix, condition_number, gram
from approxhad.constructions import sylvester


class TestCirculant:
    def test_right_shift_convention(self):
        c = circulant([1, 2, 3])
        assert c.tolist() == [[1, 2, 3], [3, 1, 2], [2, 3, 1]]


class TestFamilyMatrix:
    def test_checks_the_identity_it_names(self):
        # the record once took any matrix with any closed form
        with pytest.raises(AssertionError, match="the barba Gram identity fails"):
            FamilyMatrix(sylvester(1), "barba")
        with pytest.raises(TypeError):
            FamilyMatrix(matrix=sylvester(1), kappa_closed_form=0.5)

    @pytest.mark.parametrize("make,other", [
        (lambda: conference_plus_identity(10), "sds_block"),
        (lambda: sds_family(10), "conference_plus_I"),
        (lambda: sds_family(14), "barba"),
        (lambda: verify_barba(SignMatrix(circulant([1, 1, 1, 1, -1]))), "sds_block"),
    ])
    def test_refuses_a_matrix_of_another_family(self, make, other):
        fam = make()
        assert detect_gram_class(fam.matrix) == fam.identity
        with pytest.raises(AssertionError, match=f"the {other} Gram identity fails"):
            FamilyMatrix(fam.matrix, other)

    @pytest.mark.parametrize("entries,identity,expected,least", [
        ([[1]], "barba", [[1]], 2),                               # (n-1) I + J
        ([[1, 1], [1, 1]], "conference_plus_I", [[2, 2], [2, 2]], 3),  # (n-2) I + 2A
    ])
    def test_order_outside_the_closed_form_domain(self, entries, identity, expected, least):
        # each identity holds exactly here; its closed form once divided by zero
        assert np.array_equal(gram(np.array(entries)), expected)
        with pytest.raises(ValueError, match=f"needs order >= {least}, not {len(entries)}$"):
            FamilyMatrix(SignMatrix(entries), identity)

    @pytest.mark.parametrize("entries,identity,text", [
        ([[1]], "barba", "the Barba closed form sqrt((2n-1)/(n-1)) needs order >= 2, not 1"),
        ([[1, 1], [1, -1]], "sds_block",
         "the SDS closed form sqrt((2n-2)/(n-2)) needs order >= 4, not 2"),
        ([[1, 1], [1, 1]], "conference_plus_I",
         "the conference + I closed form (sqrt(n-1)+1)/(sqrt(n-1)-1) needs order >= 3, not 2"),
    ])
    def test_the_record_refuses_its_domain_with_the_printed_text(self, entries, identity, text):
        # `construct family` prints these texts, and no builder checks the order itself
        with pytest.raises(ValueError) as exc:
            FamilyMatrix(SignMatrix(entries), identity)
        assert str(exc.value) == text

    @pytest.mark.parametrize("n,symmetric", [(2, False), (3, False), (4, False), (6, True)])
    def test_conference_identity_is_one_gram_equation(self, n, symmetric):
        # A^T A = (n-2) I + 2A, the one test, against the three conditions on
        # C = A - I it replaced: over every +-1 matrix of order n, or at n = 6
        # every symmetric one with unit diagonal
        cells = np.argwhere(np.triu(np.ones((n, n)), 1) if symmetric else np.ones((n, n)))
        bits = (np.arange(2 ** len(cells))[:, None] >> np.arange(len(cells))) & 1
        a = np.ones((len(bits), n, n), dtype=np.int64)
        a[:, cells[:, 0], cells[:, 1]] = 2 * bits - 1
        if symmetric:
            a = a * a.swapaxes(1, 2)  # mirrors the upper triangle onto the +1s below
        eye = np.eye(n, dtype=np.int64)
        c = a - eye
        old = ((np.abs(c) == 1 - eye).all(axis=(1, 2)) & (c == c.swapaxes(1, 2)).all(axis=(1, 2))
               & (gram(c) == (n - 1) * eye).all(axis=(1, 2)))
        new = (gram(a) == (n - 2) * eye + 2 * a).all(axis=(1, 2))
        assert np.array_equal(old, new)
        assert old.any() == (n % 4 == 2)


class TestConferencePlusIdentity:
    def test_n6(self):
        fam = conference_plus_identity(6)
        golden = (3 + math.sqrt(5)) / 2
        assert fam.kappa_closed_form == pytest.approx(golden, rel=1e-12)
        assert condition_number(fam.matrix).kappa == pytest.approx(golden, rel=1e-10)

    def test_n10_kappa_2(self):
        fam = conference_plus_identity(10)
        assert fam.kappa_closed_form == pytest.approx(2.0, rel=1e-12)
        assert condition_number(fam.matrix).kappa == pytest.approx(2.0, rel=1e-10)

    def test_order_is_the_matrix_order(self):
        # a family record once stored its order beside its matrix
        fam = conference_plus_identity(6)
        assert fam.n == fam.matrix.n == 6
        with pytest.raises(TypeError):
            FamilyMatrix(matrix=fam.matrix, n=7, identity=fam.identity)

    def test_n8_rejected(self):
        with pytest.raises(ValueError):
            conference_plus_identity(8)

    @pytest.mark.parametrize("n", [6, 10, 14, 18, 26, 30])
    def test_closed_form_across_supported_orders(self, n):
        fam = conference_plus_identity(n)
        expected = (math.sqrt(n - 1) + 1) / (math.sqrt(n - 1) - 1)
        assert fam.kappa_closed_form == pytest.approx(expected, rel=1e-12)
        assert condition_number(fam.matrix).kappa == pytest.approx(expected, rel=1e-10)


class TestBarba:
    @staticmethod
    def _assert_barba_spectrum(fam):
        # (n-1) I + J has eigenvalue 2n-1 once and n-1 with multiplicity n-1
        n = fam.n
        ev = np.linalg.eigvalsh(gram(fam.matrix.entries))
        assert ev == pytest.approx([n - 1] * (n - 1) + [2 * n - 1], abs=1e-9)

    def test_n5_circulant_accepted(self):
        fam = verify_barba(SignMatrix(circulant([1, 1, 1, 1, -1])))
        assert fam.kappa_closed_form == pytest.approx(1.5, abs=1e-15)
        self._assert_barba_spectrum(fam)

    def test_n13_fixture_charpoly(self):
        from approxhad.table import bundled_fixtures

        fam = verify_barba(bundled_fixtures()[13]["matrix"])
        self._assert_barba_spectrum(fam)

    def test_hadamard_rejected(self):
        with pytest.raises(BarbaRejection) as exc:
            verify_barba(sylvester(2))
        assert exc.value.got == 0
        assert exc.value.expected == 1

    def test_rejection_names_first_entry(self):
        A = SignMatrix(np.ones((3, 3)))
        with pytest.raises(BarbaRejection) as exc:
            verify_barba(A)
        assert exc.value.position == (0, 1)

    @pytest.mark.parametrize("entry", [1, -1])
    def test_order_1_has_no_closed_form(self, entry):
        # [[+-1]] has Gram [[1]] = (n-1) I + J, but sqrt((2n-1)/(n-1)) has no value
        with pytest.raises(ValueError) as exc:
            verify_barba(SignMatrix([[entry]]))
        assert str(exc.value) == (
            "the Barba closed form sqrt((2n-1)/(n-1)) needs order >= 2, not 1")

    def test_rejection_of_a_flipped_n13_fixture(self):
        from approxhad.table import bundled_fixtures

        flipped = bundled_fixtures()[13]["matrix"].entries.copy()
        flipped[4, 7] = -flipped[4, 7]
        with pytest.raises(BarbaRejection) as exc:
            verify_barba(SignMatrix(flipped))
        assert (exc.value.position, exc.value.got, exc.value.expected) == ((0, 7), 3, 1)
        assert str(exc.value) == "Gram entry (0, 7) is 3, expected 1"

    def test_forms_the_gram_once(self, monkeypatch):
        from approxhad import families
        from approxhad.table import bundled_fixtures

        calls = []
        monkeypatch.setattr(families, "gram", lambda a: calls.append(a) or gram(a))
        verify_barba(bundled_fixtures()[13]["matrix"])
        assert len(calls) == 1


class TestSdsSearch:
    def test_half_1_vacuous(self):
        pairs = sds_search(1)
        assert pairs == [SdsPair((1,), (1,))]

    def test_half_3_contains_known_pair(self):
        pairs = sds_search(3)
        canon = {(p.r, p.s) for p in pairs}
        assert ((1, 1, 1), (1, 1, -1)) in canon

    def test_half_5_gives_kappa_15(self):
        pairs = sds_search(5)
        assert pairs
        fam = sds_block_matrix(pairs[0])
        assert condition_number(fam.matrix).kappa == pytest.approx(1.5, rel=1e-10)

    def test_pair_invariant_enforced(self):
        with pytest.raises(ValueError, match="autocorrelation"):
            SdsPair((1, 1, 1), (1, 1, 1))

    @pytest.mark.parametrize("r,s,message", [
        ((1, 1), (1,), "sequences must have equal length"),
        ((1, 0), (1, 1), "sequence entries must be +-1"),
    ])
    def test_pair_shape_enforced(self, r, s, message):
        with pytest.raises(ValueError) as exc:
            SdsPair(r, s)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "r,s,message",
        [
            ((1, 1, 1), (1, 1, 1), "shift 1: 3 + 3 = 6 != 2"),
            # shift 1 holds (1 + 1 = 2), shifts 2 and 3 fail
            ((1, 1, 1, 1, 1), (1, 1, -1, 1, -1), "shift 2: 5 + 1 = 6 != 2"),
        ],
    )
    def test_pair_rejection_names_the_first_failing_shift(self, r, s, message):
        with pytest.raises(ValueError) as exc:
            SdsPair(r, s)
        assert str(exc.value) == f"autocorrelation identity fails at {message}"

    def test_too_large(self):
        with pytest.raises(ValueError):
            sds_search(17)

    def test_table_row_6_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on first use, which a fresh table
        # process reaching an even order would pay for; table runs no SDS
        # search, so run it directly
        code = ("import sys\nfrom approxhad.cli import main\n"
                "from approxhad.families import sds_family\n"
                "assert main(['table', '--min', '6', '--max', '6']) == 0\n"
                "sds_family(6)\n"
                "print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.splitlines()[-1] == "False", out.stdout

    @pytest.mark.parametrize("half", [2, 3, 4, 5, 6, 7, 8, 9])
    def test_all_returned_pairs_valid(self, half):
        # row t of circulant(x) @ x is x's periodic autocorrelation at shift t
        for pair in sds_search(half):
            r, s = np.array(pair.r), np.array(pair.s)
            assert ((circulant(r) @ r + circulant(s) @ s)[1:] == 2).all()


def _brute_canonical(seq):
    # largest tuple among the rotations of seq and of its negation
    L = len(seq)
    return max(
        tuple(sign * seq[(i + shift) % L] for i in range(L))
        for sign in (1, -1)
        for shift in range(L)
    )


def _encode(seq):
    return sum(1 << (len(seq) - 1 - k) for k, v in enumerate(seq) if v > 0)


def _decode(code, half):
    return tuple(1 if (code >> (half - 1 - k)) & 1 else -1 for k in range(half))


class TestCanonicalCode:
    @pytest.mark.parametrize("half", range(2, 17))
    def test_decodes_to_the_largest_rotation_or_negation(self, half):
        rng = np.random.default_rng(half)
        seqs = [tuple(int(v) for v in rng.choice((-1, 1), size=half)) for _ in range(64)]
        codes = np.array([_encode(seq) for seq in seqs], dtype=np.int64)
        canon = _canonical_codes(codes, half)
        for seq, code in zip(seqs, canon.tolist()):
            assert _decode(code, half) == _brute_canonical(seq)

    def test_code_order_is_lexicographic_order(self):
        seqs = list(itertools.product((-1, 1), repeat=6))
        assert sorted(seqs, key=_encode) == sorted(seqs)


class TestSdsBlockMatrix:
    @pytest.mark.parametrize(
        "half,expected",
        [(3, 1.5811388301), (5, 1.5), (7, 1.4719601444), (9, 1.4577379737)],
    )
    def test_table_rows(self, half, expected):
        pairs = sds_search(half)
        assert pairs, f"no pair at half={half}"
        fam = sds_block_matrix(pairs[0])
        assert fam.n == 2 * half
        assert condition_number(fam.matrix).kappa == pytest.approx(expected, abs=5e-10)
        closed = math.sqrt((2 * fam.n - 2) / (fam.n - 2))
        assert fam.kappa_closed_form == pytest.approx(closed, rel=1e-12)

    def test_order_2_has_no_closed_form(self):
        with pytest.raises(ValueError) as exc:
            sds_block_matrix(sds_search(1)[0])
        assert str(exc.value) == "the SDS closed form sqrt((2n-2)/(n-2)) needs order >= 4, not 2"

    def test_circulants_commute(self):
        pair = sds_search(7)[0]
        R, S = circulant(pair.r), circulant(pair.s)
        assert np.array_equal(R @ S, S @ R)

    def test_block_gram_identity_exact(self):
        pair = sds_search(9)[0]
        fam = sds_block_matrix(pair)
        n, half = fam.n, pair.half
        block = (n - 2) * np.eye(half, dtype=np.int64) + 2
        expected = np.kron(np.eye(2, dtype=np.int64), block)
        assert np.array_equal(gram(fam.matrix.entries), expected)

    @pytest.mark.parametrize("n", range(4, 33, 2))
    def test_sds_family_is_the_block_matrix_of_the_first_pair(self, n):
        pairs = sds_search(n // 2)
        if not pairs:
            with pytest.raises(ValueError, match=f"no two-circulant pair exists at order {n}$"):
                sds_family(n)
            return
        assert np.array_equal(sds_family(n).matrix.entries,
                              sds_block_matrix(pairs[0]).matrix.entries)

    def test_sds_beats_conference_at_same_order(self):
        # both exist at n = 6, 10, 14, 18; the block construction wins
        for n in (6, 10, 14, 18):
            sds = sds_block_matrix(sds_search(n // 2)[0])
            conf = conference_plus_identity(n)
            assert sds.kappa_closed_form < conf.kappa_closed_form
