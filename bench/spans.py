"""Outside-in span recorder for the traced benchmark run.

The program has no spans of its own, so this module wraps the bindings
through which one layer of ``homdetect`` calls another (for example the
``build_distribution`` name that ``homdetect.bayes`` imported) and records
a span around every call.  Nothing under ``src/`` is edited: the wrappers
are installed by ``install`` and removed when it exits.

Each span holds its name, start and end (``perf_counter_ns``), the index
of its parent span and the id of the benchmark op that caused it.  Spans
stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass, field

# Span name -> the bindings wrapped under it, as (module, attribute path).
# A layer keeps one span name however many modules import its function.
BINDINGS: dict[str, tuple[tuple[str, str], ...]] = {
    "photon_stats.build_distribution": (
        ("homdetect.bayes", "build_distribution"),
        ("homdetect.cli", "build_distribution"),
    ),
    "photon_stats.apply_saturation": (
        ("homdetect.bayes", "apply_saturation"),
        ("homdetect.cli", "apply_saturation"),
    ),
    "bayes.from_params": (("homdetect.bayes", "HypothesisPair.from_params"),),
    "bayes.loglik_moments": (
        ("homdetect.sweep", "loglik_moments"),
        ("homdetect.montecarlo", "loglik_moments"),
    ),
    "bayes.n_search": (
        ("homdetect.sweep", "_n_real"),
        ("homdetect.sweep", "n_for_confidence"),
    ),
    "sweep.optimize_nc": (
        ("homdetect.sweep", "optimize_nc"),
        ("homdetect.cli", "optimize_nc"),
    ),
    "sweep.run_sweep": (
        ("homdetect.sweep", "run_sweep"),
        ("homdetect.cli", "run_sweep"),
    ),
    "montecarlo.simulate_ensemble": (
        ("homdetect.montecarlo", "simulate_ensemble"),
        ("homdetect.cli", "simulate_ensemble"),
    ),
    "fock_oracle.compare_with_closed_form": (
        ("homdetect.fock_oracle", "compare_with_closed_form"),
        ("homdetect.cli", "compare_with_closed_form"),
    ),
    "cli.main": (("homdetect.cli", "main"),),
}


# Which end-to-end metric each layer should move, and on which workload.
EXPECTED_EFFECTS = {
    "photon_stats.build_distribution": "work_per_s and op_tail_ms (p90) on sweep-optimize",
    "photon_stats.apply_saturation": "work_per_s on sweep-optimize (its t = 2 rows)",
    "bayes.from_params": "work_per_s on sweep-optimize; builds_per_pair 2.0 means no rebuild",
    "bayes.loglik_moments": "work_per_s on sweep-optimize",
    "bayes.n_search": "work_per_s and op_p50_ms on point-queries; work_per_s on sweep-optimize",
    "sweep.optimize_nc": "work_per_s on sweep-optimize; evals_per_call multiplies every layer below",
    "sweep.run_sweep": "work_per_s on sweep-optimize; op_tail_ms (p99) on point-queries",
    "montecarlo.simulate_ensemble": "work_per_s and peak_rss_mb on ensemble",
    "fock_oracle.compare_with_closed_form":
        "work_per_s on point-queries (about 5 % of its time; its p99 falls among the sweeps)",
    "cli.main": "op_p50_ms on point-queries (parsing, serialization, atomic writes)",
}

# Every per-layer metric with its unit, in report order.
METRIC_UNITS = {
    **{f"{name}.{kind}": unit for name in BINDINGS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "photon_stats.cells": "count",
    "photon_stats.k_max_max": "count",
    "bayes.from_params.builds_per_pair": "ratio",
    "sweep.optimize_nc.evals_per_call": "ratio",
    "sweep.at_bound_rows": "count",
    "sweep.error_rows": "count",
    "montecarlo.traj_steps": "count",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
}


def _build_fields(result) -> dict:
    return {"cells": int(result.probs.size), "k_max": int(result.k_max)}


def _sweep_fields(result) -> dict:
    return {
        "rows": len(result.rows),
        "at_bound": sum(1 for r in result.rows if r.at_bound),
        "errors": sum(1 for r in result.rows if r.error is not None),
    }


def _ensemble_fields(result) -> dict:
    cfg = result.config
    return {"traj_steps": int(cfg.n_trajectories) * int(cfg.n_measurements)}


# Counts read from a call's result, at the boundary where the work happens.
FIELDS = {
    "photon_stats.build_distribution": _build_fields,
    "sweep.run_sweep": _sweep_fields,
    "montecarlo.simulate_ensemble": _ensemble_fields,
}


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int = -1
    op: int = -1
    fields: dict = field(default_factory=dict)


class SpanRecorder:
    """Collects nested spans from a single thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        on_result = FIELDS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                name,
                time.perf_counter_ns(),
                parent=self._stack[-1] if self._stack else -1,
                op=self.op,
            )
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
            if on_result is not None:
                span.fields = on_result(result)
            return result

        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start_ns": s.start,
                                     "end_ns": s.end, "parent": s.parent, "op": s.op,
                                     **s.fields}) + "\n")


def _resolve(module: str, path: str):
    """(owner, attribute, raw value) for a dotted attribute path, or None
    when any part of it no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


@contextlib.contextmanager
def install(recorder: SpanRecorder, bindings=BINDINGS):
    """Wrap every binding that exists; yield {span name: [missing bindings]}.

    A span name whose bindings are all missing is absent: its metrics are
    not reported, rather than reported as zero.
    """
    restore = []
    missing: dict[str, list[str]] = {}
    try:
        for name, targets in bindings.items():
            for module, path in targets:
                found = _resolve(module, path)
                if found is None:
                    missing.setdefault(name, []).append(f"{module}.{path}")
                    continue
                owner, attr, raw = found
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(recorder.wrap(name, raw.__func__))
                else:
                    wrapped = recorder.wrap(name, raw)
                setattr(owner, attr, wrapped)
                restore.append((owner, attr, raw))
        yield missing
    finally:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)


def absent_names(missing: dict[str, list[str]], bindings=BINDINGS) -> list[str]:
    return sorted(n for n, m in missing.items() if len(m) == len(bindings[n]))


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover,
    in ns.  Children are merged as intervals, so overlapping children are
    not subtracted twice."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered)
    return out


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span], absent: list[str]) -> dict[str, float]:
    """Per-layer counts and self times from the recorded spans.

    Ratios whose base is zero (the layer did no work on this workload)
    are reported as 0.
    """
    self_ns = self_times(spans)
    calls: dict[str, int] = {n: 0 for n in BINDINGS}
    busy: dict[str, int] = {n: 0 for n in BINDINGS}
    for s, t in zip(spans, self_ns):
        calls[s.name] += 1
        busy[s.name] += t

    def total(name: str, key: str) -> int:
        return sum(s.fields.get(key, 0) for s in spans if s.name == name)

    builds_in_pairs = sum(
        1 for s in spans
        if s.name == "photon_stats.build_distribution" and s.parent >= 0
        and spans[s.parent].name == "bayes.from_params"
    )
    pairs_in_optimize = sum(
        1 for i, s in enumerate(spans)
        if s.name == "bayes.from_params" and _has_ancestor(spans, i, "sweep.optimize_nc")
    )
    k_maxes = [s.fields["k_max"] for s in spans if "k_max" in s.fields]

    m: dict[str, float] = {}
    for name in BINDINGS:
        if name in absent:
            continue
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = busy[name] / 1e9
    derived = {
        "photon_stats.build_distribution": {
            "photon_stats.cells": total("photon_stats.build_distribution", "cells"),
            "photon_stats.k_max_max": max(k_maxes, default=0),
        },
        "bayes.from_params": {
            "bayes.from_params.builds_per_pair":
                builds_in_pairs / calls["bayes.from_params"] if calls["bayes.from_params"] else 0.0,
        },
        "sweep.optimize_nc": {
            "sweep.optimize_nc.evals_per_call":
                pairs_in_optimize / calls["sweep.optimize_nc"] if calls["sweep.optimize_nc"] else 0.0,
        },
        "sweep.run_sweep": {
            "sweep.at_bound_rows": total("sweep.run_sweep", "at_bound"),
            "sweep.error_rows": total("sweep.run_sweep", "errors"),
        },
        "montecarlo.simulate_ensemble": {
            "montecarlo.traj_steps": total("montecarlo.simulate_ensemble", "traj_steps"),
        },
    }
    for name, values in derived.items():
        if name not in absent:
            m.update(values)
    return m
