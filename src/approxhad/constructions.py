"""Explicit Hadamard and conference matrix constructions and the order catalog.

Recipes: Sylvester powers of two, the two quadratic-residue (Paley)
Hadamard constructions, the symmetric quadratic-residue conference
matrix, and Kronecker products of anything already constructible.  The
catalog answers "smallest constructible Hadamard order m >= n"; orders it
cannot reach (92, 116, ... at desk scale) are reported as gaps, never
silently filled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .finite_field import PrimePowerField, supported_field_orders
from .linalg import SignMatrix, kronecker

__all__ = [
    "Recipe",
    "HadamardOrderCatalog",
    "CatalogGapError",
    "sylvester",
    "paley_i",
    "paley_ii",
    "paley_conference",
    "build_catalog",
    "smallest_order_at_least",
    "gap_bound",
    "gap_bound_exponent",
]


class CatalogGapError(ValueError):
    """No constructible order satisfies the request."""

    def __init__(self, message: str, below: int | None = None, above: int | None = None):
        super().__init__(message)
        self.below = below
        self.above = above


def sylvester(t: int) -> SignMatrix:
    """Hadamard matrix of order 2^t by repeated doubling."""
    if t < 0:
        raise ValueError("exponent must be >= 0")
    if t > 12:
        raise ValueError(f"order 2^{t} exceeds the supported dense range")
    h = np.array([[1]], dtype=np.int64)
    for _ in range(t):
        h = np.block([[h, h], [h, -h]])
    return SignMatrix(h)


def _bordered_jacobsthal(q: int, residue: int) -> np.ndarray:
    """[[0, 1^T], [s 1, Q]] for the Jacobsthal matrix Q of GF(q), q == residue
    mod 4, with s = +1 for residue 1 and s = -1 for residue 3."""
    jacobsthal = PrimePowerField(q).jacobsthal()  # an unsupported q fails first
    if q % 4 != residue:
        raise ValueError(f"q = {q} is not {residue} mod 4")
    c = np.zeros((q + 1, q + 1), dtype=np.int64)
    c[0, 1:] = 1
    c[1:, 0] = 1 if residue == 1 else -1
    c[1:, 1:] = jacobsthal
    return c


def paley_i(q: int) -> SignMatrix:
    """Hadamard matrix of order q + 1 for a prime power q == 3 mod 4.

    I + S where S borders the Jacobsthal matrix; S is skew because -1 is a
    non-square in these fields.
    """
    return SignMatrix(_bordered_jacobsthal(q, 3) + np.eye(q + 1, dtype=np.int64))


def paley_conference(q: int) -> np.ndarray:
    """Symmetric conference matrix of order q + 1 for a prime power
    q == 1 mod 4: zero diagonal, +-1 off-diagonal, C^T C = q I, C = C^T.

    Returned as a plain integer array (the zero diagonal keeps it out of
    SignMatrix).
    """
    return _bordered_jacobsthal(q, 1)


def paley_ii(q: int) -> SignMatrix:
    """Hadamard matrix of order 2(q + 1) for a prime power q == 1 mod 4,
    assembled from the symmetric conference matrix."""
    C = paley_conference(q)
    n = C.shape[0]
    p = np.array([[1, 1], [1, -1]], dtype=np.int64)
    k = np.array([[1, -1], [-1, -1]], dtype=np.int64)
    return SignMatrix(np.kron(C, p) + np.kron(np.eye(n, dtype=np.int64), k))


# --- recipes and the catalog ---------------------------------------------


_MAKERS = {"sylvester": sylvester, "paley1": paley_i, "paley2": paley_ii}


@dataclass(frozen=True)
class Recipe:
    """How to build a Hadamard matrix of a given order; checked when made."""

    kind: str            # "sylvester" | "paley1" | "paley2" | "kron"
    param: int = 0       # exponent t or field order q
    factors: tuple["Recipe", "Recipe"] | None = None

    def __post_init__(self):
        if self.kind not in _MAKERS and self.kind != "kron":
            raise ValueError(f"unknown recipe kind {self.kind!r}")
        if len(self.factors or ()) != (2 if self.kind == "kron" else 0):
            raise ValueError(f"{self.kind} recipe with factors {self.factors!r}: only kron takes two")

    def build(self) -> SignMatrix:
        if self.kind == "kron":
            return kronecker(*(f.build() for f in self.factors))
        return _MAKERS[self.kind](self.param)

    def __str__(self) -> str:
        if self.kind == "sylvester":
            return f"sylvester(2^{self.param})"
        if self.kind == "kron":
            return "kron({}, {})".format(*self.factors)
        return f"{self.kind}(q={self.param})"


@dataclass(frozen=True)
class HadamardOrderCatalog:
    """Constructible Hadamard orders up to max_order, each with a recipe.

    Closed under pairwise products; every order above 2 is a multiple of 4.
    """

    max_order: int
    constructible: dict[int, Recipe]

    def orders(self) -> list[int]:
        return sorted(self.constructible)

    def build(self, m: int) -> SignMatrix:
        if m not in self.constructible:
            raise CatalogGapError(
                f"order {m} is not constructible", *self.nearest(m)
            )
        return self.constructible[m].build()

    def nearest(self, n: int) -> tuple[int | None, int | None]:
        """The largest catalog order below n and the smallest above it."""
        orders = self.orders()
        below = max((m for m in orders if m < n), default=None)
        above = min((m for m in orders if m > n), default=None)
        return below, above

    def to_json(self) -> str:
        rows = [
            {"order": m, "recipe": str(r)}
            for m, r in sorted(self.constructible.items())
        ]
        return json.dumps(rows, indent=2)


def build_catalog(max_order: int = 256) -> HadamardOrderCatalog:
    known: dict[int, Recipe] = {}
    for t in range(max(max_order, 0).bit_length()):
        known[1 << t] = Recipe("sylvester", t)
    for q in supported_field_orders(max_order - 1):
        if q % 4 == 3 and q + 1 <= max_order:
            known.setdefault(q + 1, Recipe("paley1", q))
        elif q % 4 == 1 and 2 * (q + 1) <= max_order:
            known.setdefault(2 * (q + 1), Recipe("paley2", q))
    # product closure, smallest factors first for readable recipes
    changed = True
    while changed:
        changed = False
        orders = sorted(known)
        for i, a in enumerate(orders):
            if a * a > max_order:
                break
            for b in orders[i:]:
                m = a * b
                if m > max_order:
                    break
                if m not in known:
                    known[m] = Recipe("kron", factors=(known[a], known[b]))
                    changed = True
    return HadamardOrderCatalog(max_order=max_order, constructible=known)


def smallest_order_at_least(
    n: int, catalog: HadamardOrderCatalog
) -> tuple[int, Recipe]:
    """Minimal constructible m >= n with its recipe."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > catalog.max_order:
        raise CatalogGapError(
            f"{n} exceeds the catalog range (max_order={catalog.max_order})",
            below=max(catalog.orders()),
        )
    for m in catalog.orders():
        if m >= n:
            return m, catalog.constructible[m]
    raise CatalogGapError(f"no constructible order >= {n}", *catalog.nearest(n))


def gap_bound(a: int, b: int, c: int, n: int) -> float:
    """Worst-case Hadamard order gap 2 * 2^(b(a+c+1)/(a+b)) * n^(a/(a+b))."""
    return 2.0 * 2.0 ** (b * (a + c + 1) / (a + b)) * float(n) ** (a / (a + b))


def gap_bound_exponent(a: int, b: int) -> Fraction:
    """The exponent a/(a+b) of the gap bound, as an exact rational."""
    return Fraction(a, a + b)
