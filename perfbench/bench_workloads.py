"""Workloads, op execution and output checks of the approxhad benchmark.

An op is one or two `approxhad` CLI commands run in-process through
`approxhad.cli.main(argv)` with stdout and stderr captured.  The ops of a
workload form a pass: a fixed list generated from the workload seed.  A run
repeats whole passes, so every pass carries the same mix of cheap and costly
ops and the per-op statistics do not depend on where the clock stopped.

Checks never run inside the timed interval: `run_pass` only executes and
times, and `check_pass` inspects the captured outputs and the files the ops
wrote afterwards.  Every failed check marks its execution as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from approxhad import cli
from approxhad.linalg import condition_number
from approxhad.matrixio import parse_sign_matrix
from approxhad.search import Registry
from approxhad.table import TARGETS

WORKLOADS = ("anneal_structured", "round_certify", "table_rows")

# Orders whose best-known winner lies in a circulant-type class.
ANNEAL_PAIRS = (
    (18, "two_block_circulant"),
    (22, "two_block_circulant"),
    (26, "two_block_circulant"),
    (30, "two_block_circulant"),
    (19, "circulant"),
    (21, "circulant_core"),
    (23, "circulant_core"),
    (29, "circulant_core"),
    (27, "block_circulant9"),
)
ANNEAL_SEEDS_PER_PAIR = 6
ANNEAL_BUDGET = 5000

# n = m - k for Hadamard orders m = 48/72/96/120 with k = 2/2/4/4.  Orders
# with k = 0 round deterministically (kappa = 1) and would measure nothing.
# Op time grows with n, so the ops of one order form a cluster of times.
# With 12/17/24/26 seeds per order, the median of a pass (ops 40 of 79)
# falls inside the n = 92 cluster and p75 inside the n = 116 one, not on
# a boundary between clusters, where it would swing between the slowest
# op of one order and the fastest of the next.
ROUND_SEEDS = {46: 12, 70: 17, 92: 24, 116: 26}
ROUND_TRIALS = 64

KAPPA_TOL = 1e-9

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "approxhad" / "fixtures"


@dataclass(frozen=True)
class Op:
    key: str
    n: int
    structure: str | None = None
    seed: int | None = None


@dataclass
class Execution:
    op: Op
    pass_dir: Path
    elapsed: float
    results: list[tuple[object, str, str]]  # (exit code, stdout, stderr)
    kappa: float | None = None
    errors: list[str] = field(default_factory=list)
    start: float = 0.0  # perf_counter at the start of the op


def make_ops(workload: str, seed: int) -> list[Op]:
    """The pass of `workload`: same seed, same ops in the same order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "anneal_structured":
        ops = [
            Op(f"n{n}-{c}-s{j}", n, c, rng.getrandbits(32))
            for n, c in ANNEAL_PAIRS
            for j in range(ANNEAL_SEEDS_PER_PAIR)
        ]
    elif workload == "round_certify":
        ops = [
            Op(f"n{n}-s{j}", n, seed=rng.getrandbits(32))
            for n, count in ROUND_SEEDS.items()
            for j in range(count)
        ]
    elif workload == "table_rows":
        ops = [Op(f"n{n}", n) for n in sorted(TARGETS)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def op_argvs(workload: str, op: Op, pass_dir: Path) -> list[list[str]]:
    if workload == "anneal_structured":
        return [[
            "search", "--n", str(op.n), "--structure", op.structure,
            "--seed", str(op.seed), "--budget", str(ANNEAL_BUDGET),
            "--registry", str(pass_dir / "registry"),
            "--out", str(pass_dir / f"{op.key}.mat"),
        ]]
    if workload == "round_certify":
        out = str(pass_dir / f"{op.key}.mat")
        return [
            ["round", "--n", str(op.n), "--trials", str(ROUND_TRIALS),
             "--seed", str(op.seed), "--out", out],
            ["certify", "--input", out],
        ]
    return [["table", "--min", str(op.n), "--max", str(op.n)]]


def warmup_argvs(workload: str, work_dir: Path) -> list[list[str]]:
    """A small op of the workload that touches the same code paths."""
    if workload == "anneal_structured":
        return [["search", "--n", "18", "--structure", "two_block_circulant",
                 "--budget", "64", "--registry", str(work_dir / "registry"),
                 "--out", str(work_dir / "warmup.mat")]]
    if workload == "round_certify":
        out = str(work_dir / "warmup.mat")
        return [["round", "--n", "46", "--trials", "2", "--seed", "0", "--out", out],
                ["certify", "--input", out]]
    return [["table", "--min", "3", "--max", "3"]]


def invoke(argv: list[str]) -> tuple[object, str, str]:
    """Run one CLI command in-process; never raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)  # looked up per call so a traced run sees the wrapper
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "exception"
            traceback.print_exc(file=err)
    return rc, out.getvalue(), err.getvalue()


def run_pass(workload: str, ops: list[Op], pass_dir: Path, tracer=None,
             gauge=None) -> list[Execution]:
    """Execute ops closed-loop (one at a time), timing each op.

    With a tracer, the layers are traced during each op and only then; the
    install and uninstall stay outside the timed interval.  With a speed
    gauge, it samples between ops and after the last one, never inside
    an op.
    """
    pass_dir.mkdir(parents=True, exist_ok=True)
    executions = []
    for op in ops:
        argvs = op_argvs(workload, op, pass_dir)
        if gauge is not None:
            gauge.maybe_sample()
        if tracer is not None:
            tracer.op += 1
            tracer.install()
        try:
            t0 = time.perf_counter()
            results = [invoke(argv) for argv in argvs]
            elapsed = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        executions.append(Execution(op, pass_dir, elapsed, results, start=t0))
    if gauge is not None:
        gauge.sample()
    return executions


# --- checks ------------------------------------------------------------------


def _hex(field_: dict) -> float:
    return float.fromhex(field_["hex"]) if field_["hex"] != "inf" else math.inf


def _check_exit_codes(ex: Execution) -> bool:
    for rc, _, err in ex.results:
        if rc != 0:
            ex.errors.append(f"exit code {rc}: {err.strip()[-200:]}")
            return False
    return True


def _check_anneal(ex: Execution) -> None:
    report = json.loads(ex.results[0][1])
    if (report["n"], report["structure"]) != (ex.op.n, ex.op.structure):
        ex.errors.append(f"report is for {report['n']}/{report['structure']}")
        return
    ex.kappa = _hex(report["kappa"])
    matrix = parse_sign_matrix((ex.pass_dir / f"{ex.op.key}.mat").read_text())
    recomputed = condition_number(matrix).kappa
    if not abs(recomputed - ex.kappa) <= KAPPA_TOL:
        ex.errors.append(f"--out matrix has kappa {recomputed!r}, report says {ex.kappa!r}")


def _check_round(ex: Execution) -> None:
    rounded = json.loads(ex.results[0][1])
    cert = json.loads(ex.results[1][1])
    ex.kappa = _hex(rounded["best_kappa"])
    if cert["n"] != ex.op.n or rounded["n"] != ex.op.n:
        ex.errors.append("order mismatch between op, round and certify")
    if _hex(cert["kappa"]) != ex.kappa:
        ex.errors.append(f"certify kappa {cert['kappa']['hex']} != round best_kappa "
                         f"{rounded['best_kappa']['hex']}")
    if not _hex(cert["clique_certificate"]["bound"]) <= ex.kappa:
        ex.errors.append("clique lower bound exceeds kappa")
    if not _hex(rounded["empirical_E_norm"]) <= 2.0 * _hex(rounded["e_n"]):
        ex.errors.append("empirical_E_norm exceeds 2 e_n")


def _check_table(ex: Execution, witnesses: dict) -> None:
    rows = list(csv.DictReader(io.StringIO(ex.results[0][1])))
    if len(rows) != 1 or int(rows[0]["n"]) != ex.op.n:
        ex.errors.append(f"expected one row for n = {ex.op.n}, got {len(rows)}")
        return
    ex.kappa = float(rows[0]["kappa"])
    n = ex.op.n
    if n not in witnesses:
        witnesses[n] = witness_kappa(n)
    witness = witnesses[n]
    if witness is not None and not ex.kappa <= witness + KAPPA_TOL:
        ex.errors.append(f"row kappa {ex.kappa!r} is worse than witness {witness!r}")
    # every order in the table is odd or 2 mod 4: some column pair shares a
    # strict sign, so kappa >= sqrt(1 + 2/(n-1)) holds for every matrix
    if not ex.kappa >= math.sqrt(1.0 + 2.0 / (n - 1.0)) - KAPPA_TOL:
        ex.errors.append(f"row kappa {ex.kappa!r} is below the unconditional floor")


def _svd_kappa(entries: np.ndarray) -> float:
    s = np.linalg.svd(np.asarray(entries, dtype=np.float64), compute_uv=False)
    return float(s[0] / s[-1])


def witness_kappa(n: int) -> float | None:
    """kappa of an independent witness at order n, or None if there is none.

    The bundled fixture is read straight from its file and conditioned by
    SVD, bypassing the package's parser and Gram path; orders without a
    fixture fall back to the two-circulant SDS family when n is even.
    """
    index = json.loads((FIXTURE_DIR / "index.json").read_text())
    for entry in index:
        if entry["n"] == n:
            lines = (FIXTURE_DIR / entry["file"]).read_text().split()
            return _svd_kappa([[1 if ch == "+" else -1 for ch in line] for line in lines])
    if n % 2 == 0:
        from approxhad.families import sds_block_matrix, sds_search

        pairs = sds_search(n // 2)
        if pairs:
            return _svd_kappa(sds_block_matrix(pairs[0]).matrix.entries)
    return None


def check_execution(workload: str, ex: Execution, witnesses: dict) -> None:
    if not _check_exit_codes(ex):
        return
    try:
        if workload == "anneal_structured":
            _check_anneal(ex)
        elif workload == "round_certify":
            _check_round(ex)
        else:
            _check_table(ex, witnesses)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        ex.errors.append(f"unreadable output: {exc!r}")
        return
    if ex.kappa is not None and not math.isfinite(ex.kappa):
        ex.errors.append("kappa is not finite")


def check_pass(workload: str, executions: list[Execution], witnesses: dict) -> None:
    """Check the executions of one pass (one pass directory)."""
    for ex in executions:
        check_execution(workload, ex, witnesses)
    if workload != "anneal_structured" or not executions:
        return
    # the pass's registry must hold, per (n, class), the least kappa reported
    registry = Registry(executions[0].pass_dir / "registry")
    by_pair: dict[tuple[int, str], list[Execution]] = {}
    for ex in executions:
        by_pair.setdefault((ex.op.n, ex.op.structure), []).append(ex)
    for (n, structure), group in by_pair.items():
        kappas = [ex.kappa for ex in group if ex.kappa is not None]
        try:
            best = registry.best(n, structure)
            ok = bool(kappas) and best is not None and abs(best["kappa"] - min(kappas)) <= KAPPA_TOL
        except (ValueError, OSError, KeyError, TypeError) as exc:
            best, ok = f"unreadable: {exc!r}", False
        if not ok:
            for ex in group:
                ex.errors.append(f"registry best for {n}/{structure} is {best!r}, "
                                 f"not the least reported kappa")


def check_repeats(executions: list[Execution]) -> None:
    """A repeated op must report exactly the kappa of its first execution."""
    first: dict[str, float] = {}
    for ex in executions:
        if ex.kappa is None:
            continue
        ref = first.setdefault(ex.op.key, ex.kappa)
        if ex.kappa != ref:
            ex.errors.append(f"kappa {ex.kappa!r} differs from the first run's {ref!r}")


def kappa_gmean(executions: list[Execution]) -> float:
    """Geometric mean of kappa over the distinct ops (first execution each)."""
    first: dict[str, float] = {}
    for ex in executions:
        if ex.kappa is not None and math.isfinite(ex.kappa):
            first.setdefault(ex.op.key, ex.kappa)
    if not first:
        return math.inf
    return math.exp(sum(math.log(k) for k in first.values()) / len(first))
