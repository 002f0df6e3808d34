"""Exact integer Gram algebra and floating spectral computations.

Condition numbers are always derived from the exact Gram matrix A^T A
of a +-1 matrix, and kappa is sqrt(lambda_max / lambda_min) of a
symmetric eigendecomposition.  `gram` is the one function that forms
the Gram of a +-1 (or {-1, 0, 1}) matrix, for the eigensolves and for
every exact Gram identity the package checks.  It is a float64 BLAS
product, which is exact: every entry of A^T A and every partial sum on
the way to it is an integer of magnitude <= n, and binary64 represents
all integers up to 2^53, so no summation order or fused multiply-add can
round.  The float64 Gram therefore equals the int64 one bit for bit for
any n < 2^53, and its eigenvalues are those of the exact Gram up to the
eigensolver's error.  No fixed relative accuracy is assumed for that
error: rounding runs at orders well above 64, and every bound in the
package trusts an eigenvalue of an order-n matrix only to
eta = n^2 lambda 2^-52 with lambda >= lambda_max, from `eigvalsh_margin`.

`gram_eigvalsh` is the one place a +-1 matrix becomes the eigenvalues of
its exact Gram, and the package's one eigenvalue-only solve (`operator_norm`
calls it on a real E).  It calls `eigvalsh_lo`, the LAPACK gufunc in NumPy's
private `numpy.linalg._umath_linalg` that `np.linalg.eigvalsh` itself
calls on float64 input, so the bits are the same.  Skipping the public
wrapper saves a few microseconds per call, a sizeable share of each of
the thousands of small eigensolves that an anneal makes.  A NumPy
without that module fails this import.  The wrapper's LinAlgError on
non-convergence is kept: the gufunc then returns NaN, which a finite
Gram cannot otherwise give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.linalg._umath_linalg import eigvalsh_lo as _eigvalsh_lo

__all__ = [
    "SignMatrix",
    "SpectralReport",
    "IntPolynomial",
    "SINGULAR_TOLERANCE_PER_N",
    "ETA_PER_N2_LMAX",
    "Draws",
    "eigvalsh_margin",
    "gram",
    "gram_eigvalsh",
    "gram_kappa",
    "gram_kappas",
    "condition_number",
    "kronecker",
    "operator_norm",
]

# lambda_min <= n * 2^-40 is treated as exact singularity (kappa = inf);
# nonsingular integer Grams at desk scale have lambda_min >> this.
SINGULAR_TOLERANCE_PER_N = 2.0 ** -40

# an eigenvalue that eigvalsh returns for an order-n symmetric matrix whose
# largest eigenvalue is at most lambda is trusted to eta = n^2 lambda 2^-52
ETA_PER_N2_LMAX = 2.0 ** -52


def eigvalsh_margin(n: int, lam):
    """The eta above at order n and lambda = lam: n^2 2^-52 is exact, so
    only the product with lam rounds."""
    return n * n * ETA_PER_N2_LMAX * lam


def _checked_signs(a) -> np.ndarray:
    """a as an array, after checking that it is square, of order >= 1,
    with every entry +-1; a ValueError names the first fault."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("order must be >= 1")
    bad = (a != 1) & (a != -1)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"entry at ({i}, {j}) is {a[i, j]}, not +-1")
    return a


@dataclass(frozen=True)
class SignMatrix:
    """Square matrix with every entry in {-1, +1}."""

    entries: np.ndarray

    def __post_init__(self):
        # checked before the cast, which would truncate 1.9 to 1; then a
        # copy, so freezing it leaves the caller's array writable
        a = np.array(_checked_signs(self.entries), dtype=np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralReport:
    sigma_min: float
    sigma_max: float
    kappa: float


@dataclass(frozen=True)
class IntPolynomial:
    """Nonzero integer polynomial, constant term first."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        if not any(coeffs):
            raise ValueError("polynomial must be nonzero")
        while coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, x: float) -> float:
        """Evaluate at a binary64 point, exactly in rational arithmetic."""
        if math.isinf(x) or math.isnan(x):
            return math.inf
        xf = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * xf + c
        return float(acc)

    @classmethod
    def parse(cls, text: str) -> "IntPolynomial":
        """Parse comma-separated integer coefficients, constant first."""
        return cls(tuple(int(t.strip()) for t in text.split(",")))


def gram(a: np.ndarray) -> np.ndarray:
    """Exact A^T A of a +-1 matrix, or of each in a stack (..., n, n), as
    float64 through BLAS; see the module docstring for why it is exact."""
    f = np.asarray(a, dtype=np.float64)
    return f.swapaxes(-1, -2) @ f


def gram_eigvalsh(a: np.ndarray) -> np.ndarray:
    """The eigenvalues, ascending, of the exact Gram of a +-1 matrix or of
    each in a stack (..., n, n), n >= 1: `np.linalg.eigvalsh` of
    `gram(a)`, the one Gram kernel, bit for bit, with less overhead per
    call.  A real matrix gets those of its float64 a^T a.  Pass float64
    to spare the conversion.  Raises LinAlgError where LAPACK does not
    converge, which the gufunc reports as NaN."""
    ev = _eigvalsh_lo(gram(a))
    # a scalar test for one matrix: np.isnan(...).any() costs a few us
    nan = ev[0] != ev[0] if ev.ndim == 1 else np.isnan(ev[..., 0]).any()
    if nan:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return ev


class Draws:
    """Every seeded draw of the package, read from the raw outputs of the
    Philox4x64 stream keyed by (seed, counter), both in [0, 2^64), where a
    NumPy release cannot change the rule (NEP 19).  integers, random and
    permutation return what NumPy 2.4.6's Generator methods of those names
    return on that key, draw for draw; bits53(k) gives the integers that k
    draws of random scale by 2^-53.

    A bounded integer takes Lemire's method (Lemire 2019) on 32-bit draws,
    each 64-bit output giving its low half first and keeping its high half
    for the next 32-bit draw; high == 1 draws nothing.  A double takes the
    top 53 bits of a fresh 64-bit output and leaves a kept half in place.
    """

    __slots__ = ("_raw", "_buf", "_at", "_half")
    _BLOCK = 256  # raw outputs fetched per refill of the buffer

    def __init__(self, seed: int, counter: int):
        if not (0 <= seed < 2**64 and 0 <= counter < 2**64):
            raise ValueError("seed and counter must lie in [0, 2^64)")
        # a uint64 key: a list passes through float64 above 2^63 and merges seeds
        self._raw = np.random.Philox(key=np.array([seed, counter], dtype=np.uint64)).random_raw
        # the last outputs read, in stream order, as a memoryview (whose items
        # are Python ints); those from _at on are not yet consumed
        self._buf = memoryview(np.empty(0, dtype=np.uint64))
        self._at = 0
        self._half: int | None = None

    def _next64(self) -> int:
        at = self._at
        if at == len(self._buf):
            self._buf, at = memoryview(self._raw(self._BLOCK)), 0
        self._at = at + 1
        return self._buf[at]

    def _next32(self) -> int:
        half = self._half
        if half is None:
            x = self._next64()
            self._half = x >> 32
            return x & 0xFFFFFFFF
        self._half = None
        return half

    def _ahead(self, need: int) -> np.ndarray:
        """The next `need` or more unconsumed outputs, without consuming them."""
        unread = np.asarray(self._buf)[self._at:]
        if need > len(unread):
            fresh = self._raw(need - len(unread))
            # nothing buffered: the fresh block itself, with no copy
            unread = np.concatenate([unread, fresh]) if len(unread) else fresh
            self._buf, self._at = memoryview(unread), 0
        return unread

    def integers(self, high: int) -> int:
        """A uniform integer in [0, high), 1 <= high <= 2^32."""
        if not 1 <= high <= 1 << 32:
            raise ValueError(f"high must lie in [1, 2^32], got {high}")
        if high == 1:
            return 0
        m = self._next32() * high
        if m & 0xFFFFFFFF < high:
            # reject the low products that would bias the result
            threshold = (1 << 32) % high
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * high
        return m >> 32

    def random(self) -> float:
        """A uniform double in [0, 1)."""
        return (self._next64() >> 11) * 2.0 ** -53

    def bits53(self, k: int) -> np.ndarray:
        """The top 53 bits of the next k outputs, as a uint64 array: the
        integers that k draws of `random` scale by 2^-53."""
        raw = self._ahead(k)[:k]
        self._at += k
        return raw >> np.uint64(11)

    def permutation(self, m: int) -> np.ndarray:
        """A uniform permutation of range(m), m <= 2^32: Fisher-Yates from the
        top, j <= i the first 32-bit draw masked to i's bit length that is <= i."""
        p = list(range(m))
        for i in range(m - 1, 0, -1):
            mask, j = (1 << i.bit_length()) - 1, i + 1
            while j > i:
                j = self._next32() & mask
            p[i], p[j] = p[j], p[i]
        return np.array(p, dtype=np.int64)

    def peek(self, high: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """What k moves of integers(high) then random() would draw, as an
        int64 and a float64 array, without consuming them.

        Cut before the first move whose Lemire product has a low word
        below high, where integers may draw again; empty when high == 1,
        which draws no integer.
        """
        if not 2 <= high <= 1 << 32:
            return np.empty(0, dtype=np.int64), np.empty(0)
        # A move takes one 32-bit half and one fresh output, so moves pair
        # up on output triples (a, b, c): low(a) and b, then high(a) and c.
        # A kept half is the high half of a triple before the stream whose
        # first move is spent.
        s = 0 if self._half is None else 1
        pairs = (s + k + 1) // 2
        need = 3 * pairs - 2 * s
        out = np.empty((pairs, 3), dtype="<u8")
        out.reshape(-1)[2 * s:] = self._ahead(need)[:need]
        if s:
            out[0, 0] = self._half << 32
        # the little-endian 32-bit view of a is (low(a), high(a))
        words = out.view("<u4")[:, :2].reshape(-1)[s:s + k]
        m = words.astype(np.uint64) * np.uint64(high)
        retry = (m & np.uint64(0xFFFFFFFF)) < high
        cut = int(retry.argmax()) if retry.any() else k
        doubles = out[:, 1:].reshape(-1)[s:s + cut]
        return (m[:cut] >> np.uint64(32)).astype(np.int64), (doubles >> np.uint64(11)) * 2.0 ** -53

    def commit(self, j: int) -> None:
        """Consume the first j moves of the last `peek`, with nothing drawn
        in between: the outputs it read are still in the buffer from _at on."""
        if j == 0:
            return
        s = 0 if self._half is None else 1
        done = s + j
        at = self._at + 3 * (done // 2) - 2 * s  # output a of triple done // 2
        self._half = self._buf[at] >> 32 if done % 2 else None
        self._at = at + 2 * (done % 2)


def gram_kappa(lmin: float, lmax: float, n: int) -> float:
    """kappa from the extreme eigenvalues of an order-n Gram, and the one
    place a kappa is formed: sqrt(lmax / lmin) rounds twice, where
    sigma_max / sigma_min would round three times."""
    return math.inf if lmin <= n * SINGULAR_TOLERANCE_PER_N else math.sqrt(lmax / lmin)


def gram_kappas(lmin: np.ndarray, lmax: np.ndarray, n: int) -> np.ndarray:
    """`gram_kappa` elementwise over arrays, equal to it bit for bit."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lmin <= n * SINGULAR_TOLERANCE_PER_N, math.inf, np.sqrt(lmax / lmin))


def _quotient(a: np.ndarray, v: np.ndarray) -> float:
    """||a v||^2 / ||v||^2 in float64, which lies between the least and the
    largest eigenvalue of a^T a for any v; NaN where it cannot be formed."""
    av = a @ v
    num, den = float(av @ av), float(v @ v)
    return num / den if 0.0 < den < math.inf and math.isfinite(num) else math.nan


def condition_number(A: SignMatrix | np.ndarray, probes=None,
                     above: float = math.inf) -> SpectralReport | None:
    """kappa(A) = sigma_max/sigma_min, formed by `gram_kappa` from the
    eigenvalues of the exact Gram; sigma_min is 0 when kappa is inf.

    A is a SignMatrix or a square +-1 array of any dtype, which is checked
    as SignMatrix checks it (ValueError otherwise) but not copied to int64;
    the eigensolve and the quotients see the same float64 matrix either
    way, so it gives the SignMatrix's result bit for bit.

    Early exit: given `probes` = (v, w), the quotients at v and w bound
    lambda_max and lambda_min of A^T A from the inside, whatever the
    vectors.  Moved outwards by the margin eta (at lambda = n^2 = ||A||_F^2,
    which also covers the rounding of the quotients) they give a kappa
    that the eigensolve's cannot fall below.  If it exceeds `above`, None
    is returned without the eigensolve: kappa(A) > above.
    """
    a = A.entries if isinstance(A, SignMatrix) else _checked_signs(A)
    n = a.shape[-1]
    if probes is not None:
        a = np.asarray(a, dtype=np.float64)
        eta = eigvalsh_margin(n, n * n)
        hi = _quotient(a, probes[0]) - eta
        lo = _quotient(a, probes[1]) + eta
        if hi > 0 and gram_kappa(lo, hi, n) > above:
            return None
    ev = gram_eigvalsh(a)
    lmin, lmax = float(ev[0]), float(ev[-1])
    kappa = gram_kappa(lmin, lmax, n)
    sigma_min = 0.0 if math.isinf(kappa) else math.sqrt(lmin)
    return SpectralReport(sigma_min, math.sqrt(lmax), kappa)


def operator_norm(E: np.ndarray, probe=None, above: float = math.inf) -> float:
    """Largest singular value of a dense matrix: sqrt of the top eigenvalue
    of E^T E, from `gram_eigvalsh`.  A full symmetric eigensolve cannot
    miss the top eigenvalue, as power iteration does when its start vector
    lies in another eigenspace.

    Early exit: the quotient at `probe`, lowered by the margin eta (at
    lambda = ||E||_F^2), bounds the eigensolve's value from below.  If its
    square root exceeds `above`, that bound is returned without the
    eigensolve, so min(above, result) is exact either way.
    """
    E = np.asarray(E, dtype=np.float64)
    if E.size == 0:
        return 0.0
    if probe is not None:
        m = E.shape[1]
        floor = _quotient(E, probe) - eigvalsh_margin(m, float(np.vdot(E, E)))
        if floor > 0 and math.sqrt(floor) > above:
            return math.sqrt(floor)
    return math.sqrt(max(float(gram_eigvalsh(E)[-1]), 0.0))


def kronecker(A: SignMatrix, B: SignMatrix) -> SignMatrix:
    """Kronecker product; singular values multiply pairwise, so
    kappa(A (x) B) = kappa(A) * kappa(B)."""
    return SignMatrix(np.kron(A.entries, B.entries))
