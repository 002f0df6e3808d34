#!/usr/bin/env python3
"""Regenerate the bundled witness matrices in src/approxhad/fixtures/.

Every fixture is a direct construction (circulant rows, two-circulant
blocks, a projective-plane incidence), an exact orbit-matrix search, or the
output of the package's own annealing with a pinned (class, seed, budget);
for an anneal row the script scans a seed panel and keeps the first seed
whose result matches the row's target kappa.

The orbit rows are 15 and 25.  Z_3 acts on rows and columns, and the search
finds the first matrix, in a fixed order, whose Gram is exactly the row's
target: 12 I + 4 diag(J4, J4, J4, J3) - J at 15 (five orbits of 3) and the
Barba Gram 24 I + J at 25 (one fixed point and eight orbits of 3).  Their
index entries record p, f, b, the target Gram and the target index of each
column; both witnesses are in class `general`.

A rerun reproduces every fixture byte for byte but one:
n30-two_block_circulant.mat comes out with the same seed and kappa but
another matrix, because the anneal breaks kappa ties on a float log|det|.

Usage: python scripts/generate_fixtures.py [--out DIR]   (NumPy >= 2.0)
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from approxhad.families import circulant, sds_family, verify_barba
from approxhad.linalg import SignMatrix, condition_number
from approxhad.matrixio import write_sign_matrix
from approxhad.search import SEED_PANEL, StructureClass, anneal, format_kappa
from approxhad.table import MATCH_TOLERANCE, TARGETS


def pg2_barba_13() -> SignMatrix:
    """13x13 Barba matrix from the incidence of the projective plane of
    order 3 (points vs lines of PG(2,3)): A = J - 2N has A^T A = 12 I + J.

    A point is a nonzero vector of GF(3)^3 whose first nonzero entry is 1,
    the first member of its projective class in product order."""
    points = np.array([v for v in itertools.product(range(3), repeat=3)
                       if next((x for x in v if x), 0) == 1])
    incidence = points @ points.T % 3 == 0
    return verify_barba(SignMatrix(1 - 2 * incidence)).matrix


# Orbit-matrix (Kramer-Mesner) search.  Z_p acts on rows and columns alike,
# with f <= 1 fixed points and b orbits of size p, so A is a border around a
# b x b array of circulant p x p blocks.  A column is coded as an n-bit
# integer, entry 0 most significant and bit 1 for +1, in orbit order: the
# fixed point, then orbit 0's p entries, and so on.  R turns every orbit's
# entries by one place (i -> i + 1), so column j of orbit v is R^j y_v for
# y_v its first column, and the Gram entry of columns (v, j) and (w, k) is
# y_v . R^(k-j) y_w: one condition per column orbit (the shifts of y_v
# against itself, and with f = 1 the all-ones fixed column against y_v) and
# one per pair of orbits.


def _turn(codes, d: int, p: int, b: int):
    """R^d of each coded column: each orbit's p bits turned by d places."""
    seg = (1 << p) - 1
    out = codes >> (b * p) << (b * p)
    for u in range(b):
        s = (codes >> (u * p)) & seg
        out |= (((s >> d) | (s << (p - d))) & seg) << (u * p)
    return out


def _self_consistent(want: list[int], n: int, f: int, p: int, b: int) -> np.ndarray:
    """Sorted codes of the columns y with y . R^d y = want[d - 1] for
    d = 1..p//2 and, when f = 1, sum(y) = want[-1]: the halves of the code
    are enumerated apart and matched on these sums (meet in the middle)."""
    # a sum lies in [-n, n], so a wanted right-half sum lies in [-2n, 2n]
    base = 4 * n + 1

    def half(bits: int, border: int):
        codes = np.arange(1 << bits, dtype=np.int64)
        y = ((codes[:, None] >> np.arange(bits - 1, -1, -1)) & 1) * 2 - 1
        segs = y[:, border:].reshape(len(codes), -1, p)
        sums = [(segs * np.roll(segs, -d, axis=2)).sum(axis=(1, 2)) + border
                for d in range(1, p // 2 + 1)]
        if f:
            sums.append(y.sum(axis=1))
        return codes, np.stack(sums, axis=1)

    right_bits = (b - b // 2) * p
    lc, lsums = half(n - right_bits, f)
    rc, rsums = half(right_bits, 0)
    weights = base ** np.arange(len(want))
    rkey = (rsums + 2 * n) @ weights
    wkey = (np.array(want) - lsums + 2 * n) @ weights
    order = np.argsort(rkey, kind="stable")
    lo = np.searchsorted(rkey[order], wkey, side="left")
    counts = np.searchsorted(rkey[order], wkey, side="right") - lo
    i = np.repeat(np.arange(len(lc)), counts)
    offsets = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.sort((lc[i] << right_bits) | rc[order[np.repeat(lo, counts) + offsets]])


def orbit_search(target: np.ndarray, orbits: list[list[int]]) -> SignMatrix:
    """The first +-1 matrix, in the search order below, whose Gram is the
    integer matrix `target` and on which Z_p acts with the given column
    orbits: lists of target indices, fixed points first, each orbit in the
    order the group moves it.  Rows and columns come out in orbit order.

    A fixed point's column is all +1 (negating a row orbit keeps the Gram).
    Where the target allows, the search takes orbit v + 1's column above
    orbit v's (swapping them keeps the Gram) and each first column the least
    of its turns (turning one orbit keeps the Gram).  Orbit 0's column is the
    least of its class under the row symmetries: each orbit's entries turned,
    and negated when f = 0, and the orbits sorted.  Then it backtracks over
    orbits in order and codes in ascending order, filtering every later
    orbit's candidates at each level.  No random numbers are drawn.
    """
    f = sum(len(o) == 1 for o in orbits)
    p, b = len(orbits[-1]), len(orbits) - f
    if f > 1 or any(len(o) != p for o in orbits[f:]):
        raise ValueError("the search takes at most one fixed point, then orbits of one size")
    layout = [c for o in orbits for c in o]
    n = len(layout)
    g = np.asarray(target, dtype=np.int64)[np.ix_(layout, layout)]
    first = [f + v * p for v in range(b)]
    idx = np.arange(n)

    def keeps(perm) -> bool:
        return np.array_equal(g[np.ix_(perm, perm)], g)

    swaps = [keeps(np.r_[idx[:first[v]], idx[first[v] + p:first[v] + 2 * p],
                         idx[first[v]:first[v] + p], idx[first[v] + 2 * p:]])
             for v in range(b - 1)]
    turns = [keeps(np.r_[idx[:first[v]], np.roll(idx[first[v]:first[v] + p], 1),
                         idx[first[v] + p:]]) for v in range(b)]
    # orbits from v to the end of v's run of swappable orbits
    room = [1] * b
    for v in range(b - 2, -1, -1):
        room[v] += room[v + 1] * swaps[v]
    # differ[w][v][d]: entries in which y_w and R^d y_v differ
    differ = [[[(n - int(g[first[w], first[v] + d])) // 2 for d in range(p)]
               for v in range(b)] for w in range(b)]

    # candidates of each orbit: row i holds R^d of a coded column in column d
    cands, found = [], {}
    for v in range(b):
        want = [int(g[first[v], first[v] + d]) for d in range(1, p // 2 + 1)]
        want += [int(g[0, first[v]])] * f
        if (tuple(want), turns[v]) not in found:
            codes = _self_consistent(want, n, f, p, b)
            turned = np.stack([_turn(codes, d, p, b) for d in range(p)], axis=1)
            found[tuple(want), turns[v]] = (
                turned[codes == turned.min(axis=1)] if turns[v] else turned)
        cands.append(found[tuple(want), turns[v]])
    # orbit 0: each orbit's entries the least of their class, in ascending order
    seg = (1 << p) - 1
    classes = [_turn(np.arange(seg + 1), d, p, 1) for d in range(p)]
    if not f:
        classes += [c ^ seg for c in classes]
    least = np.min(classes, axis=0)
    segs = np.stack([(cands[0][:, 0] >> ((b - 1 - u) * p)) & seg for u in range(b)], axis=1)
    cands[0] = cands[0][(least[segs] == segs).all(axis=1) & (np.diff(segs, axis=1) >= 0).all(axis=1)]

    chosen = []

    def extend(v: int, cands: list[np.ndarray]) -> bool:
        if v == b:
            return True
        for turned in cands[0]:
            # later orbits that share candidates and a condition share the filtering
            later, memo = [], {}
            for k, c in enumerate(cands[1:], v + 1):
                above = all(swaps[v:k])
                key = (id(c), tuple(differ[k][v]), above)
                if key not in memo:
                    keep = (np.bitwise_count(c[:, :1] ^ turned) == differ[k][v]).all(axis=1)
                    memo[key] = c[keep & (c[:, 0] > turned[0])] if above else c[keep]
                later.append(memo[key])
                if len(later[-1]) < room[k]:
                    break
            else:
                chosen.append(turned)
                if extend(v + 1, later):
                    return True
                chosen.pop()
        return False

    if not extend(0, cands):
        raise ValueError("no matrix with this Gram and these orbits")
    bits = np.arange(n - 1, -1, -1)
    columns = [np.ones(n, dtype=np.int64)] * f + [
        (code >> bits & 1) * 2 - 1 for turned in chosen for code in turned]
    a = np.stack(columns, axis=1)
    if not np.array_equal(a.T @ a, g):
        raise AssertionError("the orbit search built a matrix off its target Gram")
    return SignMatrix(a)


def ehlich_gram_15() -> np.ndarray:
    """12 I + 4 diag(J4, J4, J4, J3) - J, the block Gram of Ehlich's (1964)
    determinant bound for n = 3 mod 4 at n = 15: its eigenvalues are 12
    (12 times), 25 and 28 (twice), so kappa^2 = 7/3."""
    block = np.repeat(np.arange(4), [4, 4, 4, 3])
    return 12 * np.eye(15, dtype=np.int64) + 4 * (block[:, None] == block) - 1


# table row: (target Gram as text, target Gram, column orbits of Z_3).  At 15
# orbit v < 4 takes column v of each J4 block and orbit 4 is the J3 block; at
# 25 the target is a Barba Gram (Barba 1933), with one fixed point.
ORBIT_ROWS = {
    15: ("12I + 4 diag(J4, J4, J4, J3) - J", ehlich_gram_15(),
         [[v, v + 4, v + 8] for v in range(4)] + [[12, 13, 14]]),
    25: ("24I + J", 24 * np.eye(25, dtype=np.int64) + 1,
         [[0]] + [[3 * v + 1, 3 * v + 2, 3 * v + 3] for v in range(8)]),
}


def orbit_fixture(n: int) -> tuple[SignMatrix, dict]:
    """The orbit-search witness of table row n and its index fields: the
    group order p, the fixed points f, the orbits b, the target Gram, and
    the target index of each of the witness's columns."""
    gram_text, target, orbits = ORBIT_ROWS[n]
    f = sum(len(o) == 1 for o in orbits)
    return orbit_search(target, orbits), {
        "p": len(orbits[-1]), "f": f, "b": len(orbits) - f, "gram": gram_text,
        "columns": [c for o in orbits for c in o]}


# (n, class, budget) of the rows whose witness is the package's own anneal
ANNEAL_ROWS = [
    (7, "symmetric", 20000),
    (9, "symmetric", 40000),
    (11, "symmetric", 40000),
    (19, "circulant", 40000),
    (21, "circulant_core", 40000),
    (22, "two_block_circulant", 40000),
    (23, "circulant_core", 100000),
    (26, "two_block_circulant", 40000),
    (27, "block_circulant9", 40000),
    (29, "circulant_core", 100000),
    (30, "two_block_circulant", 40000),
]

# the two-circulant-block search at n = 22 beats the published table value;
# its exhaustively verified in-class optimum is the fixture target
OVERRIDE_TARGET = {22: 1.4974930872}


def main() -> int:
    parser = argparse.ArgumentParser()
    default_out = Path(__file__).resolve().parents[1] / "src" / "approxhad" / "fixtures"
    parser.add_argument("--out", default=str(default_out))
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    entries = []

    def emit(n, matrix, cls, seed, source, **fields):
        kappa = condition_number(matrix).kappa
        fname = f"n{n:02d}-{cls}.mat"
        (out / fname).write_text(write_sign_matrix(matrix))
        entries.append(
            {
                "n": n,
                "class": cls,
                "kappa": format_kappa(kappa),
                "seed": seed,
                "source": source,
                "file": fname,
                **fields,
            }
        )
        print(f"n={n:2d} {cls:22s} kappa={kappa:.10f} seed={seed} ({source})")

    emit(3, SignMatrix(circulant([1, 1, -1])), "circulant", 0, "construction")
    emit(5, SignMatrix(circulant([1, 1, 1, 1, -1])), "circulant", 0, "construction")
    for half in (3, 5, 7, 9):
        emit(2 * half, sds_family(2 * half).matrix, "two_block_circulant", 0, "sds-search")
    emit(13, pg2_barba_13(), "symmetric", 0, "projective-plane incidence")
    for n in ORBIT_ROWS:
        matrix, fields = orbit_fixture(n)
        emit(n, matrix, "general", 0, "orbit-search", **fields)

    for n, cls, budget in ANNEAL_ROWS:
        target = OVERRIDE_TARGET.get(n, TARGETS[n].kappa_value)
        sclass = StructureClass.parse(cls)
        hit = None
        for seed in SEED_PANEL:
            rec = anneal(n, sclass, seed, budget)
            if abs(rec.kappa - target) <= MATCH_TOLERANCE:
                hit = (seed, rec)
                break
        if hit is None:
            print(f"n={n}: no seed in the panel reached {target} "
                  f"(class {cls}, budget {budget}); row left without a fixture")
            continue
        seed, rec = hit
        emit(n, rec.matrix, cls, seed, f"anneal(budget={budget})")

    entries.sort(key=lambda e: e["n"])
    (out / "index.json").write_text(json.dumps(entries, indent=2) + "\n")
    print(f"wrote {len(entries)} fixtures to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
