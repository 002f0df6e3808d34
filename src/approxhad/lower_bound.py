"""Per-matrix condition number lower bounds from sign cliques in the Gram.

The signs of the off-diagonal Gram entries color the complete graph on
the columns.  A monochromatic k-clique exposes a poorly conditioned
principal submatrix: all-positive cliques give
kappa >= sqrt(1 + k/(n-1)), all-negative cliques give
kappa >= sqrt(1 + k/(n+1-k)).  For orders not divisible by 4 there is no
zero-colored triangle (three mutually orthogonal +-1 columns require
4 | n), which guarantees a monochromatic edge among any three columns.

Gram signs come from the exact float64 Gram.  Both clique searches run
on one neighbour table of bit masks, and the greedy search's tie-breaks
(listed in `max_clique`) belong to the determinism contract, because
`certify` prints the clique's indices.  The greedy search walks all its
starts in lockstep, one matrix product per step, under the same tie
rules as one start at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import SignMatrix, gram

__all__ = [
    "CliqueCertificate",
    "best_clique_certificate",
    "verify_certificate",
    "kappa_floor",
    "max_clique",
    "orthogonal_triple_exists",
]

EXACT_CLIQUE_LIMIT = 20


@dataclass(frozen=True)
class CliqueCertificate:
    """Columns of an order-n matrix whose pairwise Gram entries share a
    strict sign: the whole evidence, from which k and the bound follow.

    k = 1 is the vacuous certificate with bound 1 (a single column says
    nothing); it is still emitted so downstream reports have a uniform
    shape.
    """

    indices: tuple[int, ...]
    sign: str  # "positive" | "negative"
    n: int

    @property
    def k(self) -> int:
        return len(self.indices)

    @property
    def bound(self) -> float:
        return _bound(self.sign, self.k, self.n)


def _bound(sign: str, k: int, n: int) -> float:
    if k <= 1:
        return 1.0
    if sign == "positive":
        return math.sqrt(1.0 + k / (n - 1.0))
    return math.sqrt(1.0 + k / (n + 1.0 - k))


def max_clique(adjacency: np.ndarray) -> list[int]:
    """Maximum clique of a small undirected graph, as sorted vertex indices.

    Row v of the adjacency becomes one int, bit u set when u is adjacent
    to v; both searches read that table.  Up to EXACT_CLIQUE_LIMIT
    vertices the search is exact branch and bound with greedy-coloring
    pruning.  Beyond that it is greedy with single swaps, and these rules
    fix its result.  Starts go by falling degree, ties to the smaller
    index.  Each step adds the candidate with the most neighbours among
    the candidates, ties to the smaller index.  A swap drops the first
    member, in the clique's list order (order of addition, sorted after a
    swap), whose removal leaves outside vertices adjacent to every other
    member that contain an adjacent pair, and adds the first such pair in
    itertools.combinations order.  Swaps repeat until none applies, and a
    start's clique replaces the best only when strictly larger.  Diagonal
    entries are ignored.
    """
    adj = adjacency != 0
    np.fill_diagonal(adj, False)
    packed = np.packbits(adj, axis=1, bitorder="little")
    nb = [int.from_bytes(row.tobytes(), "little") for row in packed]
    if len(nb) <= EXACT_CLIQUE_LIMIT:
        return _max_clique_exact(nb)
    return _max_clique_greedy(adj, nb)


def _greedy_color_order(cand: list[int], nb: list[int]) -> tuple[list[int], list[int]]:
    # classes of mutually nonadjacent vertices; clique size within cand is
    # at most the number of classes used
    classes: list[list[int]] = []
    masks: list[int] = []
    for v in cand:
        for ci, mask in enumerate(masks):
            if not nb[v] & mask:
                classes[ci].append(v)
                masks[ci] |= 1 << v
                break
        else:
            classes.append([v])
            masks.append(1 << v)
    order = [v for cls in classes for v in cls]
    return order, [ci + 1 for ci, cls in enumerate(classes) for _ in cls]


def _max_clique_exact(nb: list[int]) -> list[int]:
    best: list[int] = []

    def expand(current: list[int], cand: list[int]):
        nonlocal best
        order, bounds = _greedy_color_order(cand, nb)
        for i in range(len(order) - 1, -1, -1):
            if len(current) + bounds[i] <= len(best):
                return
            v = order[i]
            new_cand = [u for u in order[:i] if nb[v] >> u & 1]
            current.append(v)
            if len(current) > len(best):
                best = sorted(current)
            if new_cand:
                expand(current, new_cand)
            current.pop()

    expand([], list(range(len(nb))))
    return best


def _first_swap(clique: list[int], nb: list[int]) -> list[int] | None:
    """The clique with one member swapped for an adjacent pair, or None."""
    outside = ((1 << len(nb)) - 1) & ~sum(1 << w for w in clique)
    for drop in clique:
        adds = outside
        for w in clique:
            if w != drop:
                adds &= nb[w]
        while adds:
            low = adds & -adds
            adds ^= low  # leaves the adds above a
            a = low.bit_length() - 1
            if pair := nb[a] & adds:
                b = (pair & -pair).bit_length() - 1
                return sorted([w for w in clique if w != drop] + [a, b])
    return None


def _max_clique_greedy(adj: np.ndarray, nb: list[int]) -> list[int]:
    """The greedy walks of all starts run in lockstep: row s of `cand` is
    start s's candidate set, and one product counts, for every start and
    vertex, the vertex's neighbours among the candidates."""
    starts = np.argsort(-adj.sum(axis=1), kind="stable")
    cand = adj[starts]
    weights = adj.T.astype(np.float64)
    walks = [[int(s)] for s in starts]
    live = np.flatnonzero(cand.any(axis=1))
    while live.size:
        c = cand[live]
        # argmax takes the first maximum: ties go to the smaller index
        picks = np.where(c, c @ weights, -1.0).argmax(axis=1)
        for row, v in zip(live.tolist(), picks.tolist()):
            walks[row].append(v)
        c &= adj[picks]
        cand[live] = c
        live = live[c.any(axis=1)]
    best: list[int] = []
    for clique in walks:
        while (swapped := _first_swap(clique, nb)) is not None:
            clique = swapped
        if len(clique) > len(best):
            best = sorted(clique)
    return best


def best_clique_certificate(A: SignMatrix) -> CliqueCertificate:
    """The sign-clique certificate with the largest bound.

    Searches both color classes; the returned certificate is re-verified
    independently of the search, so it is sound regardless of whether the
    clique is maximum.
    """
    g = gram(A.entries)
    best = CliqueCertificate((0,), "positive", A.n)
    for sign_name, adj in (("positive", g > 0), ("negative", g < 0)):
        cert = CliqueCertificate(tuple(max_clique(adj)), sign_name, A.n)
        if cert.bound > best.bound:
            best = cert
    verify_certificate(best, A)
    return best


def verify_certificate(cert: CliqueCertificate, A: SignMatrix) -> None:
    """Independent check of the evidence: the certificate's order is the
    matrix's, its sign is positive or negative, its indices are distinct
    integer columns (a bool is not one), and every pair has the strict
    common sign.  k and the bound follow from these."""
    if cert.n != A.n:
        raise AssertionError(f"certificate order {cert.n} is not the matrix order {A.n}")
    if cert.sign not in ("positive", "negative"):
        raise AssertionError(f"certificate sign {cert.sign!r} is neither positive nor negative")
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < A.n
               for i in cert.indices) or len(set(cert.indices)) != cert.k:
        raise AssertionError(f"certificate indices {cert.indices} are not distinct columns")
    g = gram(A.entries)
    want = 1 if cert.sign == "positive" else -1
    for i, j in itertools.combinations(cert.indices, 2):
        entry = int(g[i, j])
        if entry == 0 or (1 if entry > 0 else -1) != want:
            raise AssertionError(
                f"Gram entry ({i}, {j}) = {entry} breaks the {cert.sign} clique"
            )


def kappa_floor(n: int) -> float:
    """Unconditional lower bound on the best kappa at order n != 0 mod 4.

    Odd orders have no zero-sign column pairs at all; orders 2 mod 4 have
    no zero triangle among any three columns.  Either way some pair shares
    a strict sign, giving the k = 2 bound sqrt(1 + 2/(n-1)).  Requires
    n >= 3: both arguments need three columns or a nonzero pair, and
    Hadamard matrices exist at n = 1, 2.
    """
    if n % 4 == 0:
        raise ValueError(f"n = {n}: no unconditional floor above 1")
    if n < 3:
        raise ValueError(f"n = {n}: Hadamard matrices exist, the floor is 1")
    return _bound("positive", 2, n)


def orthogonal_triple_exists(n: int) -> bool:
    """Whether three mutually orthogonal vectors exist in {+-1}^n.

    Exhaustive for n <= 12: coordinate sign flips allow fixing the first
    vector to all-ones, so the other two run over balanced vectors.
    """
    if n > 12:
        raise ValueError("exhaustive check supported for n <= 12 only")
    if n % 2 == 1:
        return False  # odd dot products: not even one orthogonal pair
    half = n // 2
    cands = []
    for pos in itertools.combinations(range(n), half):
        v = -np.ones(n, dtype=np.int64)
        v[list(pos)] = 1
        cands.append(v)
    # the candidates as columns, so the Gram holds their dot products
    dots = gram(np.stack(cands, axis=1))
    np.fill_diagonal(dots, 1)
    return bool((dots == 0).any())
