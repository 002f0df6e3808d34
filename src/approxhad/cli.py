"""Command-line frontend.

Numeric reports are JSON (stable key order, floats as 10-digit decimal
plus exact hex) unless --csv asks for flattened key,value rows.  Matrices
travel in the +/- text format.  Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from . import __version__
from .certify import certify, float_field
from .constructions import build_catalog, paley_conference
from .families import conference_plus_identity, detect_gram_class, sds_family, verify_barba
from .flatten import flat_orthogonal
from .linalg import IntPolynomial
from .matrixio import (
    load_matrix_file,
    write_conference_matrix,
    write_orth_csv,
    write_sign_matrix,
)
from .plotting import plot_kappa_curve
from .rounding import RoundingPlan, round_best
from .search import DEFAULT_BUDGET, Registry, StructureClass, anneal, exhaustive_min
from .table import TARGETS, bundled_fixtures, reproduce_table, table_csv

REGISTRY_ENV = "APPROXHAD_REGISTRY"


def _seed(value: str) -> int:
    s = int(value)
    if not 0 <= s < 2**64:
        raise argparse.ArgumentTypeError("seed must be a 64-bit unsigned decimal")
    return s


def _seeds(value: str) -> tuple[int, ...]:
    return tuple(_seed(s) for s in value.split(","))


def _at_least(low: int):
    """An argparse type: a decimal integer >= low."""
    def parse(value: str) -> int:
        v = int(value)
        if v < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return v
    return parse


def _emit(report: dict, as_csv: bool) -> None:
    if not as_csv:
        print(json.dumps(report, indent=2))
        return
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(["key", "value"])

    def walk(prefix, obj):
        if isinstance(obj, dict):
            if set(obj) == {"dec", "hex"}:
                w.writerow([prefix, obj["dec"]])
                return
            for k, v in obj.items():
                walk(f"{prefix}.{k}" if prefix else k, v)
        elif isinstance(obj, (list, tuple)):
            w.writerow([prefix, " ".join(str(v) for v in obj)])
        else:
            w.writerow([prefix, obj])

    walk("", report)


def _registry(args) -> Registry | None:
    # empty means none: Registry("") would write into the working directory
    path = getattr(args, "registry", None) or os.environ.get(REGISTRY_ENV)
    return Registry(path) if path else None


def _write_or_print(text: str, out: str | None) -> None:
    if out is not None:
        with open(out, "w") as f:
            f.write(text)
    else:
        print(text, end="")


def cmd_construct(args) -> int:
    if args.what == "hadamard":
        _write_or_print(write_sign_matrix(build_catalog(args.order).build(args.order)), args.out)
        return 0
    if args.what == "conference":
        _write_or_print(write_conference_matrix(paley_conference(args.order - 1)), args.out)
        return 0
    # family: pick by --kind, default to whatever exists at this order
    n = args.order
    kind = args.kind
    if kind is None:
        kind = "sds" if n % 2 == 0 else "barba"
    if kind == "sds":
        fam = sds_family(n)
    elif kind == "conference_plus_identity":
        fam = conference_plus_identity(n)
    else:
        fx = bundled_fixtures((n,)).get(n)
        if fx is None or detect_gram_class(fx["matrix"]) != "barba":
            raise ValueError(f"no bundled Barba witness at order {n}")
        fam = verify_barba(fx["matrix"])
    _write_or_print(write_sign_matrix(fam.matrix), args.out)
    return 0


def cmd_catalog(args) -> int:
    print(build_catalog(args.max_order).to_json())
    return 0


def cmd_flatten(args) -> int:
    orth, cert = flat_orthogonal(args.n, seed=args.seed)
    report = {
        "n": cert.n,
        "m": cert.m,
        "k": cert.k,
        "max_entry": float_field(orth.max_abs_entry),
        "bound": float_field(cert.bound),
        "orthogonality_defect": float_field(orth.orthogonality_defect),
        "seed": args.seed,
    }
    if args.out is not None:
        _write_or_print(write_orth_csv(orth.entries), args.out)
    _emit(report, args.csv)
    return 0


def cmd_round(args) -> int:
    orth, cert = flat_orthogonal(args.n)
    plan = RoundingPlan(target=orth, trials=args.trials, master_seed=args.seed)
    result = round_best(plan, workers=args.workers)
    b = result.certificate
    report = {
        "n": args.n,
        "m": cert.m,
        "k": cert.k,
        "u": float_field(b.u),
        "e_n": float_field(b.e_n),
        "kappa_bound": float_field(b.kappa_bound),
        "kappa_bound_doubled": float_field(b.kappa_bound_doubled),
        "best_kappa": float_field(result.report.kappa),
        "best_trial": result.best_trial,
        "empirical_E_norm": float_field(result.empirical_error_norm),
        "seed": args.seed,
    }
    if args.out is not None:
        _write_or_print(write_sign_matrix(result.matrix), args.out)
    _emit(report, args.csv)
    return 0


def cmd_search(args) -> int:
    if args.exhaustive:
        record = exhaustive_min(args.n)
    else:
        sclass = StructureClass.parse(args.structure)
        record = anneal(args.n, sclass, args.seed, args.budget)
    # before the registry update, so a failed --out stores nothing
    if args.out is not None:
        _write_or_print(write_sign_matrix(record.matrix), args.out)
    registry = _registry(args)
    stored = registry.update(record) if registry is not None else None
    report = {
        "n": record.n,
        "structure": record.structure,
        "kappa": float_field(record.kappa),
        "seed": record.seed,
        "effort": record.effort,
        "stored": stored,
        "timestamp": record.timestamp,
    }
    _emit(report, args.csv)
    return 0


def cmd_certify(args) -> int:
    matrix = load_matrix_file(args.input)
    poly = IntPolynomial.parse(args.minpoly) if args.minpoly is not None else None
    report = certify(matrix, minpoly=poly)
    _emit(report.to_dict(), args.csv)
    return 0


def cmd_table(args) -> int:
    rows = reproduce_table(args.min, args.max, registry=_registry(args),
                           anneal_budget=args.anneal_budget, seeds=args.seeds)
    _write_or_print(table_csv(rows), args.out)
    return 0


def cmd_plot(args) -> int:
    if (registry := _registry(args)) is None:
        raise ValueError(f"no registry to plot: --registry and {REGISTRY_ENV} are empty")
    plot_kappa_curve(registry, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="approxhad",
        description="Construct, search for, and certify approximate Hadamard matrices.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="emit a matrix in the +/- text format")
    c.add_argument("what", choices=["hadamard", "conference", "family"])
    c.add_argument("--order", type=int, required=True)
    c.add_argument("--kind", choices=["sds", "conference_plus_identity", "barba"])
    c.add_argument("--out")
    c.set_defaults(func=cmd_construct)

    g = sub.add_parser("catalog", help="dump constructible Hadamard orders as JSON")
    g.add_argument("--max-order", type=_at_least(1), default=256)
    g.set_defaults(func=cmd_catalog)

    f = sub.add_parser("flatten", help="flat orthogonal matrix of order n")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--seed", type=_seed, help="permute the split (default: leading block)")
    f.add_argument("--out", help="write the matrix as CSV (17 significant digits)")
    f.add_argument("--csv", action="store_true")
    f.set_defaults(func=cmd_flatten)

    r = sub.add_parser("round", help="randomized rounding with a Bernstein certificate")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--trials", type=_at_least(1), required=True)
    r.add_argument("--seed", type=_seed, required=True)
    r.add_argument("--workers", type=_at_least(1), default=1)
    r.add_argument("--out", help="write the best matrix in +/- format")
    r.add_argument("--csv", action="store_true")
    r.set_defaults(func=cmd_round)

    s = sub.add_parser("search", help="minimize kappa in a structure class")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--structure", default="general")
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--budget", type=_at_least(1), default=DEFAULT_BUDGET)
    s.add_argument("--exhaustive", action="store_true",
                   help="exact optimum over all +-1 matrices of order n <= 6, "
                        "one per class of row-sorted normalized matrices")
    s.add_argument("--registry")
    s.add_argument("--out", help="write the best matrix in +/- format")
    s.add_argument("--csv", action="store_true")
    s.set_defaults(func=cmd_search)

    y = sub.add_parser("certify", help="full certificate for a matrix file")
    y.add_argument("--input", required=True)
    y.add_argument("--minpoly", help="integer coefficients, constant first: c0,c1,...")
    y.add_argument("--csv", action="store_true")
    y.set_defaults(func=cmd_certify)

    t = sub.add_parser("table", help="reproduce the best-known-kappa table as CSV")
    t.add_argument("--min", type=int, default=min(TARGETS))
    t.add_argument("--max", type=int, default=max(TARGETS))
    t.add_argument("--out")
    t.add_argument("--registry")
    t.add_argument("--anneal-budget", type=_at_least(1), default=DEFAULT_BUDGET,
                   help="moves per fresh search: each --seeds run, or the fallback")
    t.add_argument("--seeds", type=_seeds, default=(),
                   help="comma-separated seed panel for fresh searches")
    t.set_defaults(func=cmd_table)

    q = sub.add_parser("plot", help="SVG of best kappa vs certified bounds")
    q.add_argument("--registry", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_plot)
    return p


# the tree is built once per process: building it takes longer than a
# table row read from a fixture
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "search" and args.exhaustive and args.structure != "general":
        # exhaustive_min enumerates the general class only
        parser.exit(2, f"approxhad search: error: --exhaustive searches the general "
                       f"class, not --structure {args.structure}\n")
    if args.command == "construct" and args.kind is not None and args.what != "family":
        parser.exit(2, f"approxhad construct: error: --kind applies to family, not {args.what}\n")
    if args.command == "table" and args.min > args.max:
        parser.exit(2, f"approxhad table: error: --min {args.min} exceeds --max {args.max}\n")
    if args.command == "table" and not any(args.min <= n <= args.max for n in TARGETS):
        parser.exit(2, f"approxhad table: error: no target order in [{args.min}, {args.max}] "
                       f"(targets: {', '.join(map(str, sorted(TARGETS)))})\n")
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
