#!/usr/bin/env python3
"""One SHA-256 per group of CLI outputs, to check that two checkouts print
the same bytes.

Each command runs in-process through approxhad.cli.main, inside one fresh
temporary directory.  A group's digest covers, command by command, the
arguments, the exit code, stdout, stderr and every file the command writes:
the --out files, and for the search group the registry's matrices and
index.json.  Timestamps and the temporary directory's path are replaced by
fixed text first, and the fixture directory's path by `<fixtures>`.

Groups: table (3 to 30, then again with the search registry), certify
(every bundled fixture, as JSON and as CSV with a minimal polynomial, then
the singular ++/++ with a minimal polynomial), round (46 and 92, each
certified; 46 again as CSV, 92 again on two workers), search (six
structured anneals into one registry), construct (the default family at
seven orders, each --kind at the orders it builds and at some it refuses,
two conference matrices and a Hadamard matrix), catalog, flatten (JSON
with --out, then CSV) and plot (the search registry).

OPENBLAS_NUM_THREADS is 1 unless already set, before NumPy loads, because
round's empirical_E_norm depends on the BLAS thread count.  approxhad is
imported from sys.path, so any checkout can be digested:

Usage: PYTHONPATH=<checkout>/src python scripts/output_digest.py
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import approxhad  # noqa: E402  (after the thread count is fixed)
from approxhad import cli  # noqa: E402

FIXTURES = Path(approxhad.__file__).parent / "fixtures"
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
SEARCHES = ((18, "two_block_circulant"), (22, "two_block_circulant"),
            (29, "circulant_core"), (27, "block_circulant9"), (15, "symmetric"),
            (19, "circulant"))


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _commands(tmp: Path):
    """(group, argv, files and directories written) in run order."""
    fixtures = sorted(p.name for p in FIXTURES.glob("*.mat"))
    yield "catalog", ["catalog", "--max-order", "256"], []
    for order in (5, 6, 10, 13, 14, 25, 26):
        yield "construct", ["construct", "family", "--order", str(order)], []
    # every family maker, and each of its refusals (exit 1)
    for kind, orders in (("conference_plus_identity", (6, 10, 14, 18, 26, 30, 8, 22)),
                         ("sds", (2, 7, 8)), ("barba", (9, 25))):
        for order in orders:
            yield "construct", ["construct", "family", "--order", str(order), "--kind", kind], []
    for what, order in (("conference", 10), ("conference", 14), ("hadamard", 12)):
        yield "construct", ["construct", what, "--order", str(order)], []
    for name in fixtures:
        path = str(FIXTURES / name)
        yield "certify", ["certify", "--input", path], []
        yield "certify", ["certify", "--input", path, "--minpoly=-2,1", "--csv"], []
    singular = tmp / "j2.mat"
    singular.write_text("++\n++\n")
    yield "certify", ["certify", "--input", str(singular), "--minpoly=-2,1"], []
    yield "table", ["table", "--min", "3", "--max", "30"], []
    for n in (46, 92):
        out = tmp / f"round{n}.mat"
        yield "round", ["round", "--n", str(n), "--trials", "64", "--seed", "1",
                        "--out", str(out)], [out]
        yield "round", ["certify", "--input", str(out)], []
    yield "round", ["round", "--n", "46", "--trials", "64", "--seed", "1", "--csv"], []
    # --workers must not change a byte
    yield "round", ["round", "--n", "92", "--trials", "64", "--seed", "1", "--workers", "2"], []
    out = tmp / "flat92.csv"
    yield "flatten", ["flatten", "--n", "92", "--seed", "3", "--out", str(out)], [out]
    yield "flatten", ["flatten", "--n", "70", "--csv"], []
    registry = tmp / "registry"
    for n, structure in SEARCHES:
        out = tmp / f"search{n}.mat"
        yield "search", ["search", "--n", str(n), "--structure", structure, "--seed", "3",
                         "--budget", "5000", "--registry", str(registry),
                         "--out", str(out)], [out, registry]
    yield "table", ["table", "--min", "3", "--max", "30", "--registry", str(registry)], []
    plot = tmp / "kappa.svg"
    yield "plot", ["plot", "--registry", str(registry), "--out", str(plot)], [plot]


def digests() -> dict[str, str]:
    """SHA-256 of each group's normalized outputs, by group."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):

        def clean(text: str) -> str:
            text = text.replace(str(FIXTURES), "<fixtures>").replace(tmp, "<tmp>")
            return TIMESTAMP.sub('"timestamp": null', text)

        for group, argv, files in _commands(Path(tmp)):
            code, out, err = _run(argv)
            parts = [" ".join(argv), str(code), out, err]
            paths = [f for p in files for f in (sorted(p.rglob("*")) if p.is_dir() else [p])]
            parts += [f"{p}\n{p.read_text()}" for p in paths if p.is_file()]
            h = hashes.setdefault(group, hashlib.sha256())
            h.update(clean("\0".join(parts) + "\0").encode())
    return {group: h.hexdigest() for group, h in hashes.items()}


def main() -> int:
    argparse.ArgumentParser(description="One SHA-256 per group of CLI outputs.").parse_args()
    # a registry named in the environment would feed table and plot
    os.environ.pop(cli.REGISTRY_ENV, None)
    for group, digest in digests().items():
        print(group, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
