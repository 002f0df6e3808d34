"""Flat orthogonal matrices of arbitrary order via submatrix orthogonalization.

A scaled Hadamard matrix of order m, split as [[A, B], [C, D]] with A of
size k x k, collapses to the orthogonal matrix D + C (I - A)^-1 B of order
m - k.  When k < sqrt(m) every entry of the result is at most
1/(sqrt(m) - k) in absolute value, so picking the smallest constructible
m >= n yields flat orthogonal matrices at every order n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constructions import CatalogGapError, build_catalog, smallest_order_at_least
from .linalg import Draws

__all__ = [
    "OrthMatrix",
    "FlatCertificate",
    "SingularSplitError",
    "submatrix_orthogonalize",
    "flat_orthogonal",
]

ORTH_DEFECT_PER_N = 1e-10


class SingularSplitError(ValueError):
    """I - A is numerically singular for the requested split."""

    def __init__(self, sigma_min: float):
        super().__init__(
            f"I - A is numerically singular: smallest singular value "
            f"{sigma_min:.3e} <= 1e-08"
        )
        self.sigma_min = sigma_min


@dataclass(frozen=True)
class OrthMatrix:
    """Real orthogonal matrix; max entry and orthogonality defect are computed once."""

    entries: np.ndarray

    @classmethod
    def from_array(cls, m: np.ndarray, defect_tol_per_n: float = ORTH_DEFECT_PER_N):
        m = np.array(m, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        m.setflags(write=False)
        out = cls(m)
        tol = defect_tol_per_n * out.n
        if out.orthogonality_defect > tol:
            raise ValueError(f"matrix is not orthogonal: defect "
                             f"{out.orthogonality_defect:.3e} > {tol:.3e}")
        return out

    @cached_property
    def max_abs_entry(self) -> float:
        return float(np.abs(self.entries).max())

    @cached_property
    def orthogonality_defect(self) -> float:
        return float(np.abs(self.entries.T @ self.entries - np.eye(self.n)).max())

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class FlatCertificate:
    """The flatness bound of an order-n matrix cut from an order-m Hadamard."""

    n: int
    m: int

    @property
    def k(self) -> int:
        return self.m - self.n

    @property
    def bound(self) -> float:
        return 1.0 / (math.sqrt(self.m) - self.k)


def submatrix_orthogonalize(M: OrthMatrix, k: int) -> OrthMatrix:
    """Collapse the leading k x k block: returns D + C (I - A)^-1 B.

    The output has order n - k and is orthogonal whenever I - A is
    invertible (checked: smallest singular value above 1e-8).
    """
    n = M.n
    if not 0 < k < n:
        raise ValueError(f"block size k={k} must be in [1, {n - 1}]")
    E = M.entries
    A, B = E[:k, :k], E[:k, k:]
    C, D = E[k:, :k], E[k:, k:]
    IA = np.eye(k) - A
    smin = float(np.linalg.svd(IA, compute_uv=False)[-1])
    if smin <= 1e-8:
        raise SingularSplitError(smin)
    out = D + C @ np.linalg.solve(IA, B)
    # output defect tolerance scales with the input order, not the output's
    return OrthMatrix.from_array(out, defect_tol_per_n=1e-9 * n / (n - k))


def flat_orthogonal(n: int, *, seed: int | None = None) -> tuple[OrthMatrix, FlatCertificate]:
    """Orthogonal matrix of order n with max entry <= 1/(sqrt(m) - k).

    Uses the smallest constructible Hadamard order m >= n with
    k = m - n < sqrt(m).  With a seed, the Hadamard rows/columns are
    permuted before the split (different splits give different flat
    matrices); the default split is the deterministic leading block.
    """
    # smallest_order_at_least rejects n < 1; else 2^t in [n, 2n] is an order m >= n
    catalog = build_catalog(2 * n)
    m, _ = smallest_order_at_least(n, catalog)
    # m - sqrt(m) increases with m: no order above the smallest m >= n fits
    if m - n >= math.sqrt(m):
        below, above = catalog.nearest(n)
        raise CatalogGapError(
            f"catalog gap at n={n}: no order m >= n with m - n < sqrt(m) "
            f"(nearest orders: {below}, {above})",
            below=below,
            above=above,
        )
    k = m - n
    H = catalog.build(m).entries
    if seed is not None:
        draws = Draws(seed, 0)
        H = H[draws.permutation(m), :][:, draws.permutation(m)]
    M = OrthMatrix.from_array(H / math.sqrt(m))
    out = M if k == 0 else submatrix_orthogonalize(M, k)
    return out, FlatCertificate(n=n, m=m)

