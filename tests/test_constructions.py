import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from approxhad.constructions import (
    CatalogGapError,
    Recipe,
    build_catalog,
    gap_bound,
    gap_bound_exponent,
    paley_conference,
    paley_i,
    paley_ii,
    smallest_order_at_least,
    sylvester,
)
from approxhad.finite_field import PrimePowerField, is_prime, supported_field_orders
from approxhad.linalg import condition_number, gram


def assert_hadamard(A):
    n = A.n
    assert np.array_equal(gram(A.entries), n * np.eye(n, dtype=np.int64))


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(256)


class TestFiniteField:
    @pytest.mark.parametrize("q", [9, 25, 27, 49, 81, 121, 125])
    def test_prime_power_fields_are_fields(self, q):
        f = PrimePowerField(q)
        # squares make up exactly half the nonzero elements in odd
        # characteristic, which fails if the defining polynomial is reducible
        squares = sum(1 for x in range(1, q) if f.quadratic_character(x) == 1)
        assert squares == (q - 1) // 2

    def test_unsupported(self):
        with pytest.raises(ValueError, match="unsupported"):
            PrimePowerField(15)

    def test_zero_and_one_are_not_prime(self):
        assert not is_prime(0) and not is_prime(1)

    def test_jacobsthal_row_sums(self):
        Q = PrimePowerField(13).jacobsthal()
        assert (Q.sum(axis=1) == 0).all()
        assert (np.diag(Q) == 0).all()

    def test_tables_pinned(self):
        # sha256 over every supported q <= 256 of the subtraction table, the
        # sorted nonzero squares and the Jacobsthal matrix, each as int64
        digests = {k: hashlib.sha256() for k in ("sub", "squares", "jacobsthal")}
        for q in supported_field_orders(256):
            f = PrimePowerField(q)
            squares = [x for x in range(1, q) if f.quadratic_character(x) == 1]
            for key, table in (("sub", f.sub), ("squares", squares),
                               ("jacobsthal", f.jacobsthal())):
                digests[key].update(np.asarray(table, dtype=np.int64).tobytes())
        assert {k: d.hexdigest() for k, d in digests.items()} == {
            "sub": "faf4472f1cbb53f752301fa1a4261edb625f242e2a84e544e0f3799a6723c727",
            "squares": "f17f3f7a781cc1424091dca9e45f4435a889ca598b4f2a0f4f6fd411913abdc6",
            "jacobsthal": "8af36d87574a76f86daf23a3aaabf475a93228aa27c8a7967a5029dd18e26822",
        }


class TestSylvester:
    def test_order_1(self):
        assert sylvester(0).entries.tolist() == [[1]]

    def test_order_2(self):
        assert sylvester(1).entries.tolist() == [[1, 1], [1, -1]]

    def test_order_32(self):
        H = sylvester(5)
        assert H.n == 32
        assert_hadamard(H)
        assert condition_number(H).kappa == 1.0

    def test_overflow(self):
        with pytest.raises(ValueError):
            sylvester(60)

    def test_negative_exponent(self):
        with pytest.raises(ValueError, match="exponent must be >= 0"):
            sylvester(-1)


class TestPaley:
    @pytest.mark.parametrize("q", [3, 7, 11, 19, 23, 27, 31])
    def test_paley_i_gram(self, q):
        H = paley_i(q)
        assert H.n == q + 1
        assert_hadamard(H)

    def test_paley_i_wrong_residue(self):
        with pytest.raises(ValueError, match="3 mod 4"):
            paley_i(5)

    @pytest.mark.parametrize("q", [5, 9, 13, 17, 25, 29])
    def test_conference(self, q):
        C = paley_conference(q)
        n = q + 1
        assert (np.diag(C) == 0).all()
        assert np.array_equal(C, C.T)
        assert np.isin(C[~np.eye(n, dtype=bool)], (-1, 1)).all()
        assert np.array_equal(C.T @ C, q * np.eye(n, dtype=np.int64))

    def test_conference_wrong_residue(self):
        with pytest.raises(ValueError, match="1 mod 4"):
            paley_conference(7)

    @pytest.mark.parametrize("q", [5, 9, 13, 25])
    def test_paley_ii_gram(self, q):
        H = paley_ii(q)
        assert H.n == 2 * (q + 1)
        assert_hadamard(H)


class TestCatalog:
    def test_seeds_present(self, catalog):
        orders = catalog.orders()
        assert 1 in orders and 2 in orders

    def test_all_orders_divisible_by_4(self, catalog):
        for m in catalog.orders():
            if m > 2:
                assert m % 4 == 0

    def test_closed_under_products(self, catalog):
        orders = catalog.orders()
        for a in orders:
            for b in orders:
                if a * b <= catalog.max_order:
                    assert a * b in catalog.constructible

    def test_known_gaps(self, catalog):
        # desk-scale recipes miss a handful of orders; they must be gaps,
        # not wrong entries
        for m in (92, 116, 156, 172):
            assert m not in catalog.constructible

    def test_every_entry_builds_hadamard(self, catalog):
        for m in catalog.orders():
            if m <= 64:
                assert_hadamard(catalog.build(m))

    def test_build_gap_raises(self, catalog):
        with pytest.raises(CatalogGapError) as exc:
            catalog.build(92)
        assert exc.value.below == 88
        assert exc.value.above == 96

    def test_no_order_above_max(self):
        assert build_catalog(1).orders() == [1]
        assert build_catalog(0).orders() == build_catalog(-5).orders() == []

    def test_json_dump(self, catalog):
        rows = json.loads(catalog.to_json())
        assert {"order": 4, "recipe": "paley1(q=3)"} in rows or any(
            r["order"] == 4 for r in rows
        )
        assert all(set(r) == {"order", "recipe"} for r in rows)


class TestRecipe:
    @pytest.mark.parametrize("kind,factors", [
        ("bogus", None),
        ("kron", None),
        ("kron", (Recipe("sylvester", 1),)),
        ("sylvester", (Recipe("sylvester", 1), Recipe("sylvester", 1))),
        ("paley1", (Recipe("sylvester", 1), Recipe("sylvester", 1))),
    ])
    def test_refused_when_made(self, kind, factors):
        # str() and build() of a kron recipe without factors once raised
        # TypeError from unpacking None, and an unknown kind surfaced only in build()
        with pytest.raises(ValueError):
            Recipe(kind, factors=factors)

    def test_kron_recipe_builds_and_prints(self):
        r = Recipe("kron", factors=(Recipe("sylvester", 1), Recipe("paley1", 3)))
        assert str(r) == "kron(sylvester(2^1), paley1(q=3))"
        assert_hadamard(r.build())
        assert r.build().n == 8


class TestSmallestOrder:
    def test_n3(self, catalog):
        m, recipe = smallest_order_at_least(3, catalog)
        assert m == 4

    def test_n93(self, catalog):
        m, recipe = smallest_order_at_least(93, catalog)
        assert m == 96
        built = recipe.build()
        assert built.n == 96
        assert_hadamard(built)

    def test_idempotent_on_constructible(self, catalog):
        m, _ = smallest_order_at_least(4, catalog)
        assert m == 4

    def test_monotone(self, catalog):
        prev = 1
        for n in range(1, 200):
            m, _ = smallest_order_at_least(n, catalog)
            assert m >= prev
            prev = m

    def test_out_of_range(self, catalog):
        with pytest.raises(CatalogGapError):
            smallest_order_at_least(10_000, catalog)

    def test_nothing_above_in_range(self):
        # orders 1, 2 and 4 fit under 7; none is >= 5
        with pytest.raises(CatalogGapError, match="no constructible order >= 5") as exc:
            smallest_order_at_least(5, build_catalog(7))
        assert (exc.value.below, exc.value.above) == (4, None)

    def test_gap_within_bound_above_64(self, catalog):
        for n in range(64, 257):
            m, _ = smallest_order_at_least(n, catalog)
            assert m - n <= gap_bound(4, 6, 6, n)


class TestGapBound:
    def test_exponent_exact_rationals(self):
        assert gap_bound_exponent(4, 6) == Fraction(2, 5)
        assert gap_bound_exponent(6, 40) == Fraction(3, 23)

    def test_n1(self):
        a, b, c = 4, 6, 6
        assert gap_bound(a, b, c, 1) == pytest.approx(
            2 * 2 ** (b * (a + c + 1) / (a + b))
        )

    def test_monotone_in_n(self):
        vals = [gap_bound(4, 6, 6, n) for n in (10, 100, 1000)]
        assert vals[0] < vals[1] < vals[2]
