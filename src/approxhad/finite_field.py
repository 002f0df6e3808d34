"""Small prime-power fields for the quadratic-residue constructions.

Only the handful of fields the construction catalog needs: GF(p) for any
prime p, plus GF(q) for q in {9, 25, 27, 49, 81, 121, 125} via hardcoded
irreducible polynomials.  Elements are integers 0..q-1 encoding base-p
coefficient vectors, and GF(p) is the case k = 1 with defining polynomial
t; every table is built by array arithmetic on those vectors.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PrimePowerField", "is_prime", "supported_field_orders"]

# monic irreducible polynomials over GF(p), constant term first
_IRREDUCIBLE = {
    9: (3, 2, (1, 0, 1)),        # x^2 + 1
    25: (5, 2, (1, 1, 1)),       # x^2 + x + 1
    27: (3, 3, (1, 2, 0, 1)),    # x^3 + 2x + 1
    49: (7, 2, (1, 0, 1)),       # x^2 + 1
    81: (3, 4, (2, 0, 0, 2, 1)), # x^4 + 2x^3 + 2
    121: (11, 2, (1, 0, 1)),     # x^2 + 1
    125: (5, 3, (1, 1, 0, 1)),   # x^3 + x + 1
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def supported_field_orders(limit: int) -> list[int]:
    """Every field order q <= limit that PrimePowerField accepts, ascending."""
    return sorted([q for q in range(2, limit + 1) if is_prime(q)]
                  + [q for q in _IRREDUCIBLE if q <= limit])


class PrimePowerField:
    """GF(q), q = p^k, with its subtraction table and set of nonzero squares."""

    def __init__(self, q: int):
        if is_prime(q):
            p, k, poly = q, 1, (0, 1)
        elif q in _IRREDUCIBLE:
            p, k, poly = _IRREDUCIBLE[q]
        else:
            raise ValueError(
                f"unsupported field order {q}: must be prime or one of "
                f"{sorted(_IRREDUCIBLE)}"
            )
        self.q = q
        weights = p ** np.arange(k)
        digits = np.arange(q)[:, None] // weights % p  # digit i: coefficient of t^i
        self.sub = sum((digits[:, None, i] - digits[None, :, i]) % p * weights[i]
                       for i in range(k))
        # x^2 by convolving each digit vector with itself, then reduced by
        # the monic defining polynomial from the top degree down
        prod = np.zeros((q, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            prod[:, i:i + k] += digits[:, i:i + 1] * digits
        for d in range(2 * k - 2, k - 1, -1):
            prod[:, d - k:d + 1] -= prod[:, d:d + 1] * np.array(poly)
        self._squares = frozenset((prod[1:, :k] % p @ weights).tolist())

    def quadratic_character(self, x: int) -> int:
        """chi(0) = 0; chi(x) = +1 iff x is a nonzero square."""
        if x == 0:
            return 0
        return 1 if x in self._squares else -1

    def jacobsthal(self) -> np.ndarray:
        """Matrix Q with Q[a, b] = chi(a - b) over the element enumeration."""
        chi = np.array([self.quadratic_character(x) for x in range(self.q)])
        return chi[self.sub]
