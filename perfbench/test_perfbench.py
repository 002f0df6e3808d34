"""Tests of the benchmark itself: minimal runs, failure detection, tracing."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench_gauge  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run  # noqa: E402

# the cheapest ops of each workload
MINIMAL = {
    "anneal_structured": {"n23-circulant_core-s0", "n23-circulant_core-s1"},
    "round_certify": {"n46-s0"},
    "table_rows": {"n3", "n7"},
}


def _minimal_run(workload, tmp_path, tracer=None, gauge=None):
    ops = [op for op in bw.make_ops(workload, 7) if op.key in MINIMAL[workload]]
    return bw.run_pass(workload, ops, tmp_path, tracer, gauge)


def _check(workload, executions):
    bw.check_pass(workload, executions, {})
    bw.check_repeats(executions)
    return sum(1 for ex in executions if ex.errors)


def test_ops_follow_the_seed():
    for workload in bw.WORKLOADS:
        assert bw.make_ops(workload, 3) == bw.make_ops(workload, 3)
    assert bw.make_ops("round_certify", 3) != bw.make_ops("round_certify", 4)
    assert len(bw.make_ops("table_rows", 0)) == 21


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_minimal_run_has_no_failures(workload, tmp_path):
    gauge = bench_gauge.SpeedGauge()
    executions = _minimal_run(workload, tmp_path, gauge=gauge)
    assert len(executions) == len(MINIMAL[workload])
    # sampled before the first op and after the last, never inside an op
    assert gauge.times[0] < executions[0].start
    assert gauge.times[-1] > executions[-1].start + executions[-1].elapsed
    for ex in executions:
        assert not any(ex.start < t < ex.start + ex.elapsed for t in gauge.times)
        assert gauge.rescale(ex.start, ex.elapsed) > 0
    assert _check(workload, executions) == 0, [ex.errors for ex in executions]
    assert all(math.isfinite(ex.kappa) for ex in executions)
    assert math.isfinite(bw.kappa_gmean(executions))


def test_gauge_rescales_to_the_reference_speed():
    ref = bench_gauge.REF_SECONDS
    gauge = bench_gauge.SpeedGauge()
    w = bench_gauge.WINDOW_S
    gauge.times = [0.0, w, 2 * w, 10 * w]
    gauge.seconds = [2 * ref, 2 * ref, 2 * ref, ref]
    # the kernel ran twice as slow around this op: it counts half its time
    assert gauge.rescale(w, 0.5) == pytest.approx(0.25)
    assert gauge.rescale(10 * w, 1.0) == pytest.approx(1.0)
    # no sample within the window: the nearest ones on each side
    assert gauge.rescale(5 * w, 0.1) == pytest.approx(0.1 / 1.5)
    with pytest.raises(ValueError):
        bench_gauge.SpeedGauge().factor(0.0, 1.0)


def _tamper_anneal(ex):
    report = json.loads(ex.results[0][1])
    report["kappa"]["hex"] = (float.fromhex(report["kappa"]["hex"]) * 0.99).hex()
    ex.results[0] = (0, json.dumps(report), "")


def _tamper_round(ex):
    report = json.loads(ex.results[1][1])
    report["kappa"]["hex"] = (float.fromhex(report["kappa"]["hex"]) * 1.01).hex()
    ex.results[1] = (0, json.dumps(report), "")


def _tamper_table(ex):
    header, row = ex.results[0][1].splitlines()
    cells = row.split(",")
    cells[1] = "2.500000000"
    ex.results[0] = (0, f"{header}\n{','.join(cells)}\n", "")


@pytest.mark.parametrize("workload,tamper", [
    ("anneal_structured", _tamper_anneal),
    ("round_certify", _tamper_round),
    ("table_rows", _tamper_table),
])
def test_tampered_kappa_counts_as_failure(workload, tamper, tmp_path):
    executions = _minimal_run(workload, tmp_path)
    tamper(executions[-1])
    assert _check(workload, executions) >= 1
    assert executions[-1].errors


def test_registry_without_the_least_kappa_counts_as_failure(tmp_path):
    executions = _minimal_run("anneal_structured", tmp_path)
    index_file = tmp_path / "registry" / "23" / "index.json"
    index = json.loads(index_file.read_text())
    index["best"]["circulant_core"]["kappa"] += 0.1
    index_file.write_text(json.dumps(index))
    assert _check("anneal_structured", executions) == len(executions)


def test_changed_kappa_on_repeat_counts_as_failure(tmp_path):
    executions = _minimal_run("table_rows", tmp_path)
    bw.check_pass("table_rows", executions, {})
    again = bw.Execution(executions[0].op, tmp_path, 0.0, list(executions[0].results))
    _tamper_table(again)
    bw.check_pass("table_rows", [again], {})
    bw.check_repeats(executions + [again])
    assert any("first run" in e for e in again.errors)


def test_trace_reports_every_listed_layer_and_restores(tmp_path):
    import approxhad.rounding

    original = approxhad.rounding.condition_number
    tracer = bench_trace.Tracer()
    executions = _minimal_run("round_certify", tmp_path, tracer)
    assert approxhad.rounding.condition_number is original
    assert _check("round_certify", executions) == 0
    metrics = bench_trace.layer_metrics(tracer.spans, 1, 0.0)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["rounding.round_once.calls"] == bw.ROUND_TRIALS
    assert metrics["linalg.operator_norm.calls"] == bw.ROUND_TRIALS
    # one call per trial through the name rounding imported, one from certify
    assert metrics["linalg.condition_number.calls"] == bw.ROUND_TRIALS + 1
    assert metrics["rounding.trials_within_2en_ratio"] == 1.0
    assert metrics["lower_bound.max_clique.greedy.busy_s"] > 0
    for name, st in bench_trace.layer_stats(tracer.spans).items():
        assert 0 <= st["self_s"] <= st["busy_s"] + 1e-9, name


def test_end_to_end_metric_names_match_the_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"], m["name"]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "table_rows",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
