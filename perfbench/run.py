#!/usr/bin/env python3
"""Benchmark of the approxhad CLI: one closed-loop client, one op at a time.

Run from the repository root:

    python3 perfbench/run.py --workload anneal_structured --seed 1 --seconds 30 --trace 0

Workloads: anneal_structured, round_certify, table_rows (see README.md in
this directory).  `--trace 0` measures the end-to-end metrics untraced;
`--trace 1` runs every op untraced and then traced, back to back, and
reports the per-layer metrics from the traced copies.  End-to-end times
are rescaled to a fixed machine speed by the gauge in bench_gauge.py; the
raw times are printed beside them on `#` lines.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  A full record with the environment goes to .perfbench_out/ in
the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
# op_tail_s is this percentile; MIN_SAMPLES ops per run leave >= 10 beyond it
TAIL_PERCENTILE = 75
MIN_SAMPLES = 40
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "ok_ratio",
              "kappa_gmean", "peak_rss_mb")
UNITS = {"ops_per_s": "1/s", "ok_ratio": "ratio", "kappa_gmean": "1", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if ".us_per_eval." in name:
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("anneal_structured", "round_certify", "table_rows"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_once(workload: str, work_dir: Path, gauge) -> tuple[float, float]:
    """One set-up: fresh-interpreter import, catalog and fixture load, a
    temp registry and a warm-up op.  Returns its raw and rescaled seconds."""
    from approxhad.constructions import build_catalog
    from approxhad.table import bundled_fixtures
    from bench_workloads import invoke, warmup_argvs

    env = dict(os.environ, PYTHONPATH=str(SRC))
    gauge.sample()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import approxhad.cli"], env=env, check=True)
    build_catalog(256)
    bundled_fixtures()
    rep_dir = Path(tempfile.mkdtemp(dir=work_dir, prefix="setup-"))
    for argv in warmup_argvs(workload, rep_dir):
        rc, _, err = invoke(argv)
        if rc != 0:
            raise RuntimeError(f"warm-up {argv} failed ({rc}): {err}")
    elapsed = time.perf_counter() - t0
    gauge.sample()
    shutil.rmtree(rep_dir)
    return elapsed, gauge.rescale(t0, elapsed)


def run_passes(workload, ops, work_dir, seconds, min_passes, gauge):
    """Whole untraced passes, at least `min_passes`, then more while the
    next one still fits in `seconds`."""
    from bench_workloads import run_pass

    executions = []
    passes = 0
    t0 = time.perf_counter()
    while True:
        executions += run_pass(workload, ops, work_dir / f"pass{passes}", gauge=gauge)
        passes += 1
        elapsed = time.perf_counter() - t0
        if passes >= min_passes and elapsed * (passes + 1) / passes > seconds:
            return executions, passes


def run_paired_passes(workload, ops, work_dir, seconds, tracer):
    """Whole passes in which every op runs untraced and then traced, back to
    back, so both copies meet the same machine state.  Each copy has its
    own pass directory and registry."""
    from bench_workloads import run_pass

    plain, traced = [], []
    passes = 0
    t0 = time.perf_counter()
    while True:
        for op in ops:
            plain += run_pass(workload, [op], work_dir / f"pass{passes}")
            traced += run_pass(workload, [op], work_dir / f"traced{passes}", tracer)
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (passes + 1) / passes > seconds:
            return plain, traced, passes


def time_metrics(setup_times, op_times) -> dict:
    import numpy as np

    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(op_times),
        "op_tail_s": float(np.percentile(op_times, TAIL_PERCENTILE)),
        # one client, closed loop: ops completed per second of op time
        "ops_per_s": len(op_times) / sum(op_times),
    }


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "approxhad").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(args, op_counts) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v, "unset (library default)")
                         for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_counts": op_counts,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "approxhad" / "cli.py").is_file():
        print(f"perfbench: no approxhad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import approxhad

    if Path(approxhad.__file__).resolve().parent != SRC / "approxhad":
        print(f"perfbench: imported approxhad from {approxhad.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench_gauge
    import bench_trace
    import bench_workloads as bw

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix=f"work-{args.workload}-"))
    try:
        return _run(args, work_dir, bw, bench_trace, bench_gauge)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, work_dir, bw, bench_trace, bench_gauge) -> int:
    gauge = bench_gauge.SpeedGauge()
    setups = [setup_once(args.workload, work_dir, gauge) for _ in range(SETUP_REPEATS)]
    ops = bw.make_ops(args.workload, args.seed)
    if args.trace:
        tracer = bench_trace.Tracer()
        plain, traced, passes = run_paired_passes(
            args.workload, ops, work_dir, args.seconds, tracer)
        executions = plain + traced
    else:
        min_passes = -(-MIN_SAMPLES // len(ops))
        executions, passes = run_passes(
            args.workload, ops, work_dir, args.seconds, min_passes, gauge)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    witnesses: dict = {}
    by_pass: dict[str, list] = {}
    for ex in executions:
        by_pass.setdefault(ex.pass_dir.name, []).append(ex)
    for group in by_pass.values():
        bw.check_pass(args.workload, group, witnesses)
    bw.check_repeats(executions)
    attempted = len(executions)
    failed = sum(1 for ex in executions if ex.errors)

    if args.trace:
        overhead = (sum(ex.elapsed for ex in traced) / sum(ex.elapsed for ex in plain)) - 1.0
        metrics = bench_trace.layer_metrics(tracer.spans, passes, overhead)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        raw = time_metrics([s[0] for s in setups], [ex.elapsed for ex in executions])
        values = time_metrics([s[1] for s in setups],
                              [gauge.rescale(ex.start, ex.elapsed) for ex in executions])
        values.update({
            "ok_ratio": (attempted - failed) / attempted,
            "kappa_gmean": bw.kappa_gmean(executions),
            "peak_rss_mb": peak_rss_mb,
        })
        metrics = {name: values[name] for name in END_TO_END}
    reported = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}

    op_counts = {"ops_per_pass": len(ops), "passes": passes, "attempted": attempted,
                 "failed": failed}
    env = environment(args, op_counts)
    record = {
        "env": env,
        "failed_ratio": failed / attempted,
        "tail_percentile": TAIL_PERCENTILE if not args.trace else None,
        "gauge": {"ref_seconds": bench_gauge.REF_SECONDS,
                  "samples": len(gauge.seconds),
                  "median_factor": gauge.median_factor()},
        "raw_time_metrics": None if args.trace else raw,
        "pass_op_seconds": {name: sum(ex.elapsed for ex in group)
                            for name, group in by_pass.items()},
        "errors": [f"{ex.op.key} {ex.pass_dir.name}: {e}"
                   for ex in executions for e in ex.errors][:50],
        "metrics": reported,
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"# env {json.dumps(env)}")
    for line in record["errors"]:
        print(f"# FAILED {line}")
    print(f"# workload {args.workload}: {attempted} ops attempted, {failed} failed, "
          f"failed_ratio {failed / attempted:.6g}")
    if not args.trace:
        print(f"# op_tail_s is p{TAIL_PERCENTILE} of {attempted} op times")
    if not args.trace:
        print(f"# times rescaled by the speed gauge: {len(gauge.seconds)} kernel samples, "
              f"median factor {gauge.median_factor():.4g}")
    for name, m in reported.items():
        print(f"# {name} {m['value']!r} {m['unit']}")
    if not args.trace:
        for name, value in raw.items():
            print(f"# raw {name} {value!r}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
