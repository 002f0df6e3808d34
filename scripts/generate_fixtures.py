#!/usr/bin/env python3
"""Regenerate the bundled witness matrices in src/approxhad/fixtures/.

Every fixture is either a direct construction (circulant rows, two-circulant
blocks, a projective-plane incidence) or the output of the package's own
annealing with a pinned (class, seed, budget).  Rerunning this script must
reproduce the fixtures byte for byte; it scans a seed panel and keeps the
first seed whose result matches the row's target kappa.

Usage: python scripts/generate_fixtures.py [--out DIR]
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


# (n, class, seed panel, budget); None seed panel means a direct construction
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

    def emit(n, matrix, cls, seed, source):
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
            }
        )
        print(f"n={n:2d} {cls:22s} kappa={kappa:.10f} seed={seed} ({source})")

    emit(3, SignMatrix(circulant([1, 1, -1])), "circulant", 0, "construction")
    emit(5, SignMatrix(circulant([1, 1, 1, 1, -1])), "circulant", 0, "construction")
    for half in (3, 5, 7, 9):
        emit(2 * half, sds_family(2 * half).matrix, "two_block_circulant", 0, "sds-search")
    emit(13, pg2_barba_13(), "symmetric", 0, "projective-plane incidence")

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
