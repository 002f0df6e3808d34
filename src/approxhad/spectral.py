"""Spectral screen: Gram eigenvalues of circulant-type matrices from the DFT.

The DFT diagonalizes the Gram of every circulant-type structure class, so
its eigenvalues are sums of squared moduli of DFT values of the +-1 bits
(the PSD test of Fletcher, Gysin and Seberry; the compression idea of
Djokovic and Kotsireas):

* circulant C = circ(x): |x_k|^2;
* two_block_circulant [[R, S], [S^T, -R^T]]: the Gram is
  I_2 (x) (R^T R + S^T S), with eigenvalues |r_k|^2 + |s_k|^2;
* block_circulant, a b x b circulant arrangement of s x s circulant
  blocks: the squared moduli of the 2-D DFT of the b x s bit array;
* circulant_core [[1, 1^T], [1, circ(c)]]: |c_k|^2 for k != 0, and the two
  eigenvalues of a closed-form 2 x 2 block for the border and frequency 0.

`SpectralScreen` gives these for every single-bit neighbour of a bit
vector at once: the real and imaginary DFT parts are one product with a
cached cos/sin table, and flipping bit i subtracts 2 x_i times row i of
that table.  A screened extreme eigenvalue lies within
eta = n^2 * lambda_max * 2^-52 of what eigvalsh returns on the exact Gram
(tests/test_screen_properties.py checks eta / 2), so a screened kappa is
a pair of bounds on the exact-path kappa.  `kappa_bounds` is the one
bound function, per neighbour; the floor under all neighbours that
anneal's rejection runs read, `kappa_floors`, is its lo for each bit.

`RitzScreen` gives the general and symmetric classes, which no DFT
diagonalizes, a one-sided bound instead: a floor under every single-bit
neighbour's kappa from one eigh of the current Gram (Rayleigh-Ritz).

Neither screen knows a class by name: each class builds its screen next
to its bit layout in `search`, from the DFT angles or the bit positions.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import eigvalsh_margin, gram, gram_kappa, gram_kappas

__all__ = ["SpectralScreen", "RitzScreen", "dft_phases"]

_PLUS_MINUS = np.array([-1.0, 1.0])


def dft_phases(b: int, s: int) -> np.ndarray:
    """Angles of the 2-D DFT of a b x s array whose entries are numbered
    row-major: row t*s + j, column (p, q) holds 2 pi (p t / b + q j / s).

    Only frequencies q <= s // 2 are kept: the DFT of a real array at
    (-p, -q) is the conjugate of the one at (p, q), so the kept columns
    take every modulus.
    """
    n = b * s
    t, j = np.divmod(np.arange(n), s)
    p, q = np.divmod(np.arange(b * (s // 2 + 1)), s // 2 + 1)
    return 2 * np.pi * ((np.outer(t, p) * s + np.outer(j, q) * b) % n) / n


class SpectralScreen:
    """Approximate extreme Gram eigenvalues of all single-bit neighbours
    in one circulant-type class at order n.

    theta holds the DFT angle of each bit (row) at each kept frequency
    (column), as `dft_phases` gives them.  With channels > 1 the bits are
    that many equal blocks, each with theta as its angles, and an
    eigenvalue sums one frequency's squared moduli over the blocks.  core
    > 0 is the order of a circulant core under an all-+1 border.
    """

    def __init__(self, n: int, theta: np.ndarray, channels: int = 1, core: int = 0):
        self.n = n
        self.core = core
        # each channel's columns, zero on the other channels' bits
        self.table = np.hstack([np.kron(np.eye(channels), f(theta)) for f in (np.cos, np.sin)])
        self.table2 = 2 * self.table
        # sums the squared cos and sin columns of each frequency
        self.groups = np.vstack([np.eye(theta.shape[1])] * (2 * channels))

    def spectra(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The screen's view of every neighbour of bits, by flipped bit:
        its DFT eigenvalues, and the +-1 bits of bits itself."""
        pm = _PLUS_MINUS[bits]
        z = pm @ self.table - pm[:, None] * self.table2
        return (z * z) @ self.groups, pm

    def extremes(self, spectra, i: int) -> tuple[float, float]:
        """(lambda_min, lambda_max) of the Gram of neighbour i."""
        lam, pm = spectra
        row = lam[i].tolist()
        lmin = min(row, default=math.inf)
        lmax = max(row, default=0.0)
        if self.core:
            # the border couples frequency 0 of the core into the block
            # [[1 + m, (1 + c0) sqrt(m)], [(1 + c0) sqrt(m), m + c0^2]], c0 the
            # core's row sum; its determinant is (m - c0)^2
            m = self.core
            c0 = float(pm.sum() - 2 * pm[i])
            trace = 1 + 2 * m + c0 * c0
            det = (m - c0) ** 2
            big = (trace + math.sqrt(trace * trace - 4 * det)) / 2
            lmin = min(lmin, det / big)
            lmax = max(lmax, big)
        return lmin, lmax

    def kappa_bounds(self, spectra, i: int) -> tuple[float, float]:
        """lo <= kappa <= hi for the kappa that eigvalsh of neighbour i's
        exact Gram gives, both from `gram_kappa` with the eigenvalues
        moved by eta.

        (inf, inf) when the screen proves the Gram singular; hi = inf when
        lambda_min is within eta of the singular tolerance.  Every
        operation rounds monotonically, so the float bounds hold.
        """
        lmin, lmax = self.extremes(spectra, i)
        eta = eigvalsh_margin(self.n, lmax)
        return (gram_kappa(lmin + eta, lmax - eta, self.n),
                gram_kappa(lmin - eta, lmax + eta, self.n))

    def kappa_floors(self, spectra) -> np.ndarray:
        """The lo of `kappa_bounds` for every neighbour, by flipped bit: the
        floor that anneal's rejection runs read."""
        return np.array([self.kappa_bounds(spectra, i)[0] for i in range(len(spectra[0]))])


class RitzScreen:
    """Floors under the exact-path kappa of all single-bit neighbours of a
    +-1 matrix of order n >= 2 whose bit b is entry (rows[b], cols[b]),
    and with mirrored also entry (cols[b], rows[b]).

    Flipping bit b adds d e_r e_c^T to A, d = -2 a_rc, and for an
    off-diagonal mirrored bit also d e_c e_r^T.  For Q with orthonormal
    columns, Rayleigh-Ritz (Cauchy interlacing for the compression
    Q^T G' Q; Parlett, The Symmetric Eigenvalue Problem) gives lambda_min(G') <= lambda_min(Q^T G' Q)
    and lambda_max(G') >= lambda_max(Q^T G' Q).  Here Q is the bottom or
    the top two eigenvectors of the current Gram.  With P = A Q, a flip
    adds x = d Q[c] to row r of P (and d Q[r] to row c), which changes
    the 2 x 2 matrix P^T P by x y^T + y x^T with y = P[r] + x / 2.  So every
    neighbour's compressions, and their extreme eigenvalues in closed
    form, are one array pass.

    The margin is eta at lambda = n^2 = ||A'||_F^2, as in
    `linalg.condition_number`.  It covers eigvalsh on the neighbour's
    Gram and the rounding of Q and of the compressions
    (tests/test_screen_properties.py checks eta / 2).
    """

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray, mirrored: bool):
        self.n = n
        self.rows, self.cols = rows, cols
        self.mirrored = mirrored
        self.eta = eigvalsh_margin(n, n * n)

    def flip(self, a: np.ndarray, i: int) -> np.ndarray:
        """The matrix a with bit i flipped, as float64: the entries of what
        `StructureClass.build` gives for the flipped bits."""
        b = a.astype(np.float64)
        r, c = self.rows[i], self.cols[i]
        b[r, c] = -b[r, c]
        if self.mirrored:
            b[c, r] = b[r, c]
        return b

    def extremes(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each bit flipped in the matrix a, the least Ritz value on
        Q- and the largest on Q+ of the neighbour's Gram."""
        n = self.n
        f = np.asarray(a, dtype=np.float64)
        # (row, side, vector): side 0 the bottom two, side 1 the top two
        q = np.linalg.eigh(gram(f))[1][:, [0, 1, n - 2, n - 1]].reshape(n, 2, 2)
        p = (f @ q.reshape(n, 4)).reshape(n, 2, 2)
        g = np.einsum("ksi,ksj->sij", p, p)
        m00, m01, m11 = g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]
        rows, cols = self.rows, self.cols
        d = -2.0 * f[rows, cols]
        # (row r of P, row c of Q, d): row r of A'Q is P[r] + d Q[c]
        terms = [(rows, cols, d)]
        if self.mirrored:
            terms.append((cols, rows, d * (rows != cols)))
        for r, c, dr in terms:
            x = dr[:, None, None] * q[c]
            y = p[r] + x / 2
            m00 = m00 + 2 * x[..., 0] * y[..., 0]
            m11 = m11 + 2 * x[..., 1] * y[..., 1]
            m01 = m01 + (x[..., 0] * y[..., 1] + y[..., 0] * x[..., 1])
        mid = (m00 + m11) / 2
        rad = np.hypot((m00 - m11) / 2, m01)
        return (mid - rad)[:, 0], (mid + rad)[:, 1]

    def kappa_floors(self, a: np.ndarray) -> np.ndarray:
        """lo <= the kappa that eigvalsh of each neighbour's exact Gram
        gives, by flipped bit: `gram_kappa` of the Ritz values moved
        inwards by eta (inf where that proves the Gram singular)."""
        bottom, top = self.extremes(a)
        return gram_kappas(bottom + self.eta, np.maximum(top - self.eta, 0.0), self.n)
