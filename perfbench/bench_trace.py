"""Span tracer for the benchmark's traced run, and the per-layer metrics.

`Tracer.install` wraps the public functions of each layer and rebinds every
name under which a module of the package imported them (for example
`approxhad.rounding.condition_number` as well as
`approxhad.linalg.condition_number`); methods are wrapped on their class.
Nothing in the package itself is edited.  Spans (name, start, end, parent
span, op id, probed value) stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path


def _anneal_probe(record):
    effort = record.effort
    # one initial state, a 256-move temperature probe, the budget, and one
    # fresh state per restart
    return record.structure, 1 + 256 + effort["budget"] + effort["restarts"], effort["restarts"]


# (module under approxhad, attribute, span name or None for "<module>.<attribute>",
#  probe applied to the return value)
LAYERS = (
    ("cli", "main", None, None),
    ("search", "anneal", None, _anneal_probe),
    ("search", "StructureClass.build", None, None),
    ("search", "Registry.update", None, bool),
    ("search", "exhaustive_min", None, None),
    ("families", "sds_search", None, None),
    ("table", "bundled_fixtures", None, None),
    ("matrixio", "parse_sign_matrix", None, None),
    ("matrixio", "write_sign_matrix", None, None),
    ("constructions", "HadamardOrderCatalog.build", None, None),
    ("flatten", "flat_orthogonal", None, None),
    ("flatten", "submatrix_orthogonalize", None, None),
    ("rounding", "round_once", None, None),
    ("rounding", "round_best", None, lambda result: result.certificate.e_n),
    ("linalg", "operator_norm", None, float),
    ("linalg", "condition_number", None, None),
    ("linalg", "gram", None, None),
    ("lower_bound", "best_clique_certificate", None, None),
    # max_clique dispatches on EXACT_CLIQUE_LIMIT to one of these two
    ("lower_bound", "_max_clique_exact", "lower_bound.max_clique.exact", None),
    ("lower_bound", "_max_clique_greedy", "lower_bound.max_clique.greedy", None),
    ("certify", "detect_gram_class", None, None),
    ("certify", "certify", None, None),
)

# structure classes annealed by some workload
ANNEAL_CLASSES = ("two_block_circulant", "circulant", "circulant_core",
                  "block_circulant9", "symmetric", "general")

NAME, START, END, PARENT, OP, VALUE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if probe is not None:
                span[VALUE] = probe(out)
            return out

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        importlib.import_module("approxhad")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "approxhad" or key.startswith("approxhad.")]
        for module, attr, name, probe in LAYERS:
            mod = importlib.import_module(f"approxhad.{module}")
            name = name or f"{module}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(mod, cls_name)
                self._set(owner, method, self._wrap(name, owner.__dict__[method], probe))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, probe)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            f.write("name,start,end,parent,op\n")
            for s in self.spans:
                f.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[OP]}\n")


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """calls, busy_s (outermost spans of a name) and self_s per span name."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for i, s in enumerate(spans):
        duration = s[END] - s[START]
        st = stats[s[NAME]]
        st["calls"] += 1
        st["self_s"] += duration - child_time[i]
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] != s[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:  # a recursive call's time is already in its caller's span
            st["busy_s"] += duration
    return stats


def _ancestor(spans, i, name):
    parent = spans[i][PARENT]
    while parent >= 0 and spans[parent][NAME] != name:
        parent = spans[parent][PARENT]
    return parent


def layer_metrics(spans: list[list], passes: int, overhead_ratio: float) -> dict[str, float]:
    """The per-layer metrics, per pass of the workload's op list."""
    stats = layer_stats(spans)

    def stat(name, key):
        return stats[name][key] / passes if name in stats else 0.0

    m: dict[str, float] = {}
    for name, keys in (
        ("search.anneal", ("calls", "busy_s", "self_s")),
        ("search.StructureClass.build", ("calls", "busy_s")),
        ("search.Registry.update", ("calls", "busy_s")),
        ("families.sds_search", ("calls", "busy_s")),
        ("search.exhaustive_min", ("busy_s",)),
        ("table.bundled_fixtures", ("busy_s",)),
        ("matrixio.parse_sign_matrix", ("calls", "busy_s")),
        ("matrixio.write_sign_matrix", ("busy_s",)),
        ("cli.main", ("self_s",)),
        ("constructions.HadamardOrderCatalog.build", ("busy_s",)),
        ("flatten.flat_orthogonal", ("busy_s",)),
        ("flatten.submatrix_orthogonalize", ("busy_s",)),
        ("rounding.round_once", ("calls", "busy_s")),
        ("rounding.round_best", ("self_s",)),
        ("linalg.operator_norm", ("calls", "busy_s")),
        ("linalg.condition_number", ("calls", "busy_s")),
        ("linalg.gram", ("busy_s",)),
        ("lower_bound.best_clique_certificate", ("busy_s",)),
        ("lower_bound.max_clique.exact", ("busy_s",)),
        ("lower_bound.max_clique.greedy", ("busy_s",)),
        ("certify.detect_gram_class", ("busy_s",)),
        ("certify.certify", ("self_s",)),
    ):
        for key in keys:
            m[f"{name}.{key}"] = stat(name, key)

    evals = restarts = 0
    class_time: dict[str, float] = defaultdict(float)
    class_evals: dict[str, int] = defaultdict(int)
    stored = updates = within = norms = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        if name == "search.anneal" and s[VALUE] is not None:
            structure, n_evals, n_restarts = s[VALUE]
            evals += n_evals
            restarts += n_restarts
            class_time[structure] += s[END] - s[START]
            class_evals[structure] += n_evals
        elif name == "search.Registry.update" and s[VALUE] is not None:
            updates += 1
            stored += s[VALUE]
        elif name == "linalg.operator_norm" and s[VALUE] is not None:
            best = _ancestor(spans, i, "rounding.round_best")
            if best >= 0 and spans[best][VALUE] is not None:
                norms += 1
                within += s[VALUE] <= 2.0 * spans[best][VALUE]
    m["search.anneal.evals"] = evals / passes
    m["search.anneal.restarts"] = restarts / passes
    for c in ANNEAL_CLASSES:
        m[f"search.anneal.us_per_eval.{c}"] = (
            1e6 * class_time[c] / class_evals[c] if class_evals[c] else 0.0)
    m["search.Registry.update.stored_ratio"] = stored / updates if updates else 0.0
    m["rounding.trials_within_2en_ratio"] = within / norms if norms else 0.0
    m["trace.overhead_ratio"] = overhead_ratio
    return m
