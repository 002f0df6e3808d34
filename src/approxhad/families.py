"""Explicit infinite families with closed-form condition numbers.

Three families, each certified by an exact integer Gram identity:

* conference-plus-identity: C + I for a symmetric conference matrix C,
  kappa = (sqrt(n-1) + 1)/(sqrt(n-1) - 1);
* Barba matrices: A^T A = (n-1) I + J, kappa = sqrt((2n-1)/(n-1));
* two-circulant block matrices [[R, S], [S^T, -R^T]] whose first rows
  satisfy the autocorrelation identity PAF_r(t) + PAF_s(t) = 2, giving
  A^T A = I_2 (x) ((n-2) I + 2 J) and kappa = sqrt((2n-2)/(n-2));
  `sds_search` matches only canonical sequences, so finds each pair once.

This module is the one home of these identities and of the Hadamard one,
A^T A = n I: `detect_gram_class` (which `certify` reads) and `FamilyMatrix`
test them through one predicate, `_expected_gram`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constructions import paley_conference
from .linalg import SignMatrix, condition_number, gram

__all__ = [
    "SdsPair",
    "FamilyMatrix",
    "BarbaRejection",
    "circulant",
    "conference_plus_identity",
    "verify_barba",
    "sds_search",
    "sds_block_matrix",
    "sds_family",
    "detect_gram_class",
]

_KAPPA_RTOL = 1e-10


def circulant(first_row) -> np.ndarray:
    """Row i is the first row cyclically right-shifted by i."""
    row = np.asarray(first_row, dtype=np.int64)
    L = len(row)
    idx = (np.arange(L)[None, :] - np.arange(L)[:, None]) % L
    return row[idx]


@dataclass(frozen=True)
class SdsPair:
    """Two +-1 sequences of equal length whose periodic autocorrelations
    sum to 2 at every nonzero shift."""

    r: tuple[int, ...]
    s: tuple[int, ...]

    def __post_init__(self):
        r, s = tuple(self.r), tuple(self.s)
        if len(r) != len(s):
            raise ValueError("sequences must have equal length")
        if not all(v in (-1, 1) for v in r + s):
            raise ValueError("sequence entries must be +-1")
        # row t of circulant(x) @ x is the periodic autocorrelation
        # sum_i x_i x_(i+t mod L), every shift in one product
        paf_r = (circulant(r) @ np.asarray(r, dtype=np.int64)).tolist()
        paf_s = (circulant(s) @ np.asarray(s, dtype=np.int64)).tolist()
        for t in range(1, len(r)):
            total = paf_r[t] + paf_s[t]
            if total != 2:
                raise ValueError(
                    f"autocorrelation identity fails at shift {t}: "
                    f"{paf_r[t]} + {paf_s[t]} = {total} != 2"
                )
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    @property
    def half(self) -> int:
        return len(self.r)


# each family's closed form as printed, the least order at which it has a
# value, and kappa at order n of a matrix satisfying the family's identity
_CLOSED_FORMS = {
    "barba": ("Barba closed form sqrt((2n-1)/(n-1))", 2,
              lambda n: math.sqrt((2 * n - 1) / (n - 1))),
    "sds_block": ("SDS closed form sqrt((2n-2)/(n-2))", 4,
                  lambda n: math.sqrt((2 * n - 2) / (n - 2))),
    "conference_plus_I": ("conference + I closed form (sqrt(n-1)+1)/(sqrt(n-1)-1)", 3,
                          lambda n: (math.sqrt(n - 1) + 1.0) / (math.sqrt(n - 1) - 1.0)),
}


class _IdentityFails(AssertionError):
    """The Gram of a FamilyMatrix is not the one its identity names."""

    def __init__(self, identity: str, g: np.ndarray, expected: np.ndarray):
        super().__init__(f"the {identity} Gram identity fails")
        self.gram, self.expected = g, expected


@dataclass(frozen=True)
class FamilyMatrix:
    """A matrix of the family whose identity, a key of _CLOSED_FORMS, it names;
    made only if that identity holds exactly and kappa matches its closed form."""

    matrix: SignMatrix
    identity: str

    def __post_init__(self):
        text, least, _ = _CLOSED_FORMS[self.identity]
        if self.n < least:
            raise ValueError(f"the {text} needs order >= {least}, not {self.n}")
        a = self.matrix.entries
        g, expected = gram(a), _expected_gram(self.identity, a)
        if not np.array_equal(g, expected):
            raise _IdentityFails(self.identity, g, expected)
        closed, kappa = self.kappa_closed_form, condition_number(self.matrix).kappa
        if abs(kappa - closed) > _KAPPA_RTOL * closed:
            raise AssertionError(f"{self.identity}: computed kappa {kappa!r} does not "
                                 f"match the closed form {closed!r}")

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def kappa_closed_form(self) -> float:
        return _CLOSED_FORMS[self.identity][2](self.n)


class BarbaRejection(ValueError):
    """The Gram is not (n-1) I + J; carries the first offending entry."""

    def __init__(self, i: int, j: int, got: int, expected: int):
        super().__init__(
            f"Gram entry ({i}, {j}) is {got}, expected {expected}"
        )
        self.position = (i, j)
        self.got = got
        self.expected = expected


def _expected_gram(identity: str, a: np.ndarray) -> np.ndarray:
    """A^T A of the +-1 matrix a if a satisfies `identity`.

    At odd n the SDS block Gram is (n-1) x (n-1), so it equals no Gram of
    order n.  A^T A = (n-2) I + 2A holds iff A = C + I for a symmetric
    conference matrix C: the left side is symmetric with diagonal n, so A
    is symmetric with unit diagonal, and A^T A = C^2 + 2C + I."""
    n = len(a)
    eye = np.eye(n, dtype=np.int64)
    if identity == "hadamard":
        return n * eye
    if identity == "barba":
        return (n - 1) * eye + 1
    if identity == "conference_plus_I":
        return (n - 2) * eye + 2 * a
    block = (n - 2) * np.eye(n // 2, dtype=np.int64) + 2
    return np.kron(np.eye(2, dtype=np.int64), block)


def detect_gram_class(A: SignMatrix) -> str:
    """Which exact Gram identity A satisfies, if any, tried in the order below."""
    g = gram(A.entries)
    for identity in ("hadamard", "barba", "sds_block", "conference_plus_I"):
        if np.array_equal(g, _expected_gram(identity, A.entries)):
            return identity
    return "none"


def conference_plus_identity(n: int) -> FamilyMatrix:
    """C + I for the symmetric conference matrix C of order n = q + 1.

    The record checks A^T A = (n-2) I + 2A for A = C + I in exact integers,
    which holds iff C is a symmetric conference matrix: eigenvalues +-sqrt(n-1).
    """
    try:
        C = paley_conference(n - 1)
    except ValueError as exc:
        raise ValueError(f"no supported conference matrix of order {n}: {exc}")
    return FamilyMatrix(SignMatrix(C + np.eye(n, dtype=np.int64)), "conference_plus_I")


def verify_barba(A: SignMatrix) -> FamilyMatrix:
    """Accept A iff its Gram is exactly (n-1) I + J, at order n >= 2."""
    try:
        return FamilyMatrix(A, "barba")
    except _IdentityFails as exc:
        g, expected = exc.gram, exc.expected
        i, j = (int(v) for v in np.argwhere(g != expected)[0])
        raise BarbaRejection(i, j, int(g[i, j]), int(expected[i, j])) from None


def _canonical_codes(codes: np.ndarray, half: int) -> np.ndarray:
    """Canonical code of each sequence, coded as in `sds_search`.

    Rotations and global negation preserve the autocorrelation.  The
    largest among the bit rotations of the code and of its complement
    codes the lexicographically largest of those representatives.
    """
    mask = (1 << half) - 1
    best = np.zeros_like(codes)
    for x in (codes, codes ^ mask):
        for t in range(half):
            best = np.maximum(best, ((x << t) | (x >> (half - t))) & mask)
    return best


def sds_search(half: int) -> list[SdsPair]:
    """All sequence pairs of length `half` satisfying the autocorrelation
    identity, up to cyclic rotation and global negation of each sequence.

    Exhaustive over the canonical sequences (see `_canonical_codes`), which
    all start with +1: PAF is invariant under rotation and negation, so
    matching their complementary PAF keys finds each pair exactly once.
    A sequence is coded as a `half`-bit integer, bit 1 for +1 and
    the first entry most significant; for equal lengths the numeric order
    of codes is the lexicographic order of the sequences, so the pairs,
    sorted by (r, s) code, come out in tuple order.
    """
    if half < 1:
        raise ValueError("length must be >= 1")
    if half > 16:
        raise ValueError("exhaustive search supports lengths up to 16")
    mask = (1 << half) - 1
    codes = np.arange(1 << (half - 1), 1 << half, dtype=np.int64)
    codes = codes[_canonical_codes(codes, half) == codes]
    popcount = np.zeros(1 << half, dtype=np.int64)
    for k in range(half):
        popcount[1 << k : 2 << k] = popcount[: 1 << k] + 1
    # PAF(t) = half - 2 * (entries that differ from the rotation by t), and
    # PAF(t) = PAF(half - t).  Digits are PAF + half for the key and
    # 2 - PAF + half for the wanted partner key, both in [0, 2 half + 2].
    base = 2 * half + 3
    key = np.zeros_like(codes)
    want = np.zeros_like(codes)
    for t in range(1, half // 2 + 1):
        rotated = ((codes << t) | (codes >> (half - t))) & mask
        p = half - 2 * popcount[codes ^ rotated]
        key = key * base + (p + half)
        want = want * base + (2 - p + half)
    # sequence i matches the partners order[lo[i]:lo[i] + counts[i]]
    order = np.argsort(key)
    sorted_keys = key[order]
    lo = np.searchsorted(sorted_keys, want, side="left")
    counts = np.searchsorted(sorted_keys, want, side="right") - lo
    i = np.repeat(np.arange(len(codes)), counts)
    # position of each match within its sequence's block of partners
    offsets = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    j = order[np.repeat(lo, counts) + offsets]
    found = np.sort((codes[i] << half) | codes[j])
    signs = ((found[:, None] >> np.arange(2 * half - 1, -1, -1)) & 1) * 2 - 1
    return [SdsPair(tuple(row[:half]), tuple(row[half:])) for row in signs.tolist()]


def sds_block_matrix(pair: SdsPair) -> FamilyMatrix:
    """Assemble [[R, S], [S^T, -R^T]], at order n = 2 * pair.half >= 4."""
    R = circulant(pair.r)
    S = circulant(pair.s)
    return FamilyMatrix(SignMatrix(np.block([[R, S], [S.T, -R.T]])), "sds_block")


def sds_family(n: int) -> FamilyMatrix:
    """The block matrix of the first pair `sds_search` finds at order n."""
    if n % 2:
        raise ValueError(f"SDS block matrices have even order, not {n}")
    pairs = sds_search(n // 2)
    if not pairs:
        raise ValueError(f"no two-circulant pair exists at order {n}")
    return sds_block_matrix(pairs[0])
