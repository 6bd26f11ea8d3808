"""Spans around the calls into tdse's modules, recorded from outside the
program, and the per-layer metrics computed from them.

`installed` replaces each target function with a wrapper on the module
that calls it; `from ... import` binds names when the caller is imported,
so the wrappers go where the caller looks the names up, not where the
functions are defined.  Spans stay in memory until the run ends, when
`write_spans` writes them out once.
"""

import csv
import gzip
import importlib
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top
    op: int  # operation id: spans of one operation share it
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self._open = []

    def wrap(self, name: str, fn, attrs=None):
        """fn wrapped to record a span per call; attrs(args, result) -> dict
        adds counts taken at the call boundary."""

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self.op)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced


def _propagate_attrs(args, trajectory):
    return {"steps": args[3].steps, "snapshots": len(trajectory.snapshots)}


def _compare_attrs(args, report):
    initial, potential, params, _, oracle_cfg = args
    key = (initial.alphas.tobytes(), initial.time, repr(potential), params, oracle_cfg)
    return {"steps": oracle_cfg.steps, "key": key}


def _grid_attrs(args, grid):
    return {"points": grid.npoints}


def _points_attrs(args, values):
    return {"points": len(values)}


# (calling module, function name, span name, attrs)
TARGETS = (
    ("tdse.integrators", "coefficient_velocity", "state.velocity", None),
    ("tdse.integrators", "eval_taylor_coefficients", "potential.eval", None),
    ("tdse.oracle", "propagate", "integrators.propagate", _propagate_attrs),
    ("tdse.oracle", "eval_taylor_coefficients", "potential.eval", None),
    ("tdse.oracle", "evaluate_at", "reconstruction.eval", _points_attrs),
    ("tdse.oracle", "observables", "reconstruction.observables", None),
    ("tdse.oracle", "norm_squared", "reconstruction.norm", None),
    ("tdse.oracle", "l2_distance", "oracle.l2_distance", None),
    ("tdse.cli", "propagate", "integrators.propagate", _propagate_attrs),
    ("tdse.cli", "compare_methods", "oracle.compare", _compare_attrs),
    ("tdse.cli", "evaluate_on_grid", "reconstruction.eval", _grid_attrs),
    ("tdse.cli", "observables", "reconstruction.observables", None),
    ("tdse.cli", "fit_log_polynomial", "initialization.fit", None),
    ("tdse.cli", "load_config", "config.load", None),
)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore the
    original functions."""
    saved = []
    try:
        for module_name, attr, span_name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, attrs))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def write_spans(spans: list, path: str) -> None:
    """All spans as one gzipped CSV: name, start, end, parent, op (parent is
    the row index of the enclosing span, empty at the top)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("name", "start", "end", "parent", "op"))
        writer.writerows(
            (s.name, repr(s.start), repr(s.end), "" if s.parent is None else s.parent, s.op)
            for s in spans
        )


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(spans[i])
    result = []
    for i, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
            cursor = max(cursor, hi)
        result.append(span.end - span.start - covered)
    return result


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def operation_metrics(spans: list, selfs: list) -> dict:
    """Per-layer metrics of one operation's spans (times in seconds)."""
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    attr = defaultdict(float)
    keys = []
    for span, self_s in zip(spans, selfs):
        calls[span.name] += 1
        total[span.name] += span.end - span.start
        own[span.name] += self_s
        for k, v in span.attrs.items():
            if k == "key":
                keys.append(v)
            else:
                attr[span.name, k] += v

    recon_s = total["reconstruction.eval"]
    points = attr["reconstruction.eval", "points"]
    steps = attr["integrators.propagate", "steps"]
    oracle_steps = attr["oracle.compare", "steps"]
    runs = calls["oracle.compare"]
    return {
        "potential.eval_calls": calls["potential.eval"],
        "potential.eval_s": total["potential.eval"],
        "potential.eval_us": _ratio(total["potential.eval"], calls["potential.eval"], 1e6),
        "state.velocity_calls": calls["state.velocity"],
        "state.velocity_s": total["state.velocity"],
        "state.velocity_us": _ratio(total["state.velocity"], calls["state.velocity"], 1e6),
        "integrators.steps": steps,
        "integrators.snapshots": attr["integrators.propagate", "snapshots"],
        "integrators.propagate_s": total["integrators.propagate"],
        "integrators.self_s": own["integrators.propagate"],
        "integrators.step_us": _ratio(total["integrators.propagate"], steps, 1e6),
        "oracle.runs": runs,
        "oracle.steps": oracle_steps,
        "oracle.self_s": own["oracle.compare"],
        "oracle.step_us": _ratio(own["oracle.compare"], oracle_steps, 1e6),
        "oracle.unique_run_ratio": _ratio(len(set(keys)), runs),
        "reconstruction.grid_calls": calls["reconstruction.eval"],
        "reconstruction.points": points,
        "reconstruction.eval_s": recon_s,
        "reconstruction.observables_calls": calls["reconstruction.observables"],
        "reconstruction.observables_s": total["reconstruction.observables"],
        "reconstruction.ns_per_point": _ratio(recon_s, points, 1e9),
        "initialization.fit_calls": calls["initialization.fit"],
        "initialization.fit_s": total["initialization.fit"],
        "cli.self_s": own["cli.main"],
    }


def layer_metrics(spans: list) -> dict:
    """Median over operations of each operation's per-layer metrics."""
    selfs = self_times(spans)
    by_op = defaultdict(lambda: ([], []))
    for span, self_s in zip(spans, selfs):
        by_op[span.op][0].append(span)
        by_op[span.op][1].append(self_s)
    per_op = [operation_metrics(s, t) for s, t in by_op.values()]
    return {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
