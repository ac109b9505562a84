"""homdetect benchmark: one workload, one seed, traced or not.

Usage:
    python3 bench/run.py --workload {sweep-optimize,ensemble,point-queries}
                         --seed N --seconds S --trace {0,1}

Untraced (``--trace 0``) it times the public API from outside, in this one
process, and reports the end-to-end metrics, with op times scaled to a
reference host speed (see ``Calibration``).  Traced (``--trace 1``) it
runs the first rounds of the same plan once untraced and once with spans
wrapped around every cross-module binding, checks that both produce
identical bytes, and reports the per-layer metrics.  Every op's output is checked against
``bench/reference``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(machine, library versions, source digest, seed, op counts, all
percentiles, mismatches) goes to ``.bench_results/`` in the checkout, with
the spans of a traced run beside it.  The exit code is 1 when any output
is wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

import common

# Three probes, not more: with the minimum op counts in workloads.MIN_OPS,
# 22 runs of each workload must fit in under an hour even when the host
# runs a third slower than usual.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
MAX_ROUNDS = 1000
MAX_LISTED_MISMATCHES = 20

# Op times are reported at a reference host speed.  On a shared 2-core Xeon
# VM the speed given to this process drifts as other guests come and go:
# the median wall time of the figS4 rows moved from 135 to 210 ms within hours.
# A fixed kernel that does not touch homdetect (an interpreter loop and one
# numpy table of the size the figS4 sweep builds) is timed before the first
# op, between ops at least every CAL_EVERY_S of CPU time and after the last
# op; each op's time is scaled by CAL_REF_S (a round figure inside the
# 9-13 ms the kernel took on that VM) over the mean of the kernel samples
# just before and just after it.  Both are CPU times (common.clock).  With
# one or two busy co-runners switched on in 40 s phases, the spread
# (IQR/median of 5-op medians) of a sweep row, an ensemble, ten CLI calls
# and a fig2b-sized sweep was 0.54, 0.52, 0.49 and 0.55 in wall time,
# 0.15, 0.31, 0.52 and 0.49 in CPU time, and 0.07, 0.07, 0.20 and 0.15 in
# CPU time scaled this way.  setup_s is wall time and never scaled.
CAL_REF_S = 0.010
CAL_EVERY_S = 0.25
CAL_LOOP = 50_000
CAL_TABLE = 700


class Calibration:
    """Kernel samples taken between ops, and the scaling they give."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._a, self._b = rng.random(CAL_TABLE), rng.random(CAL_TABLE)
        self.samples: list[float] = []
        self._last = 0.0
        self._kernel()  # warm-up, not kept

    def _kernel(self) -> None:
        import numpy as np

        s = 0
        for i in range(CAL_LOOP):
            s += i * i % 7
        np.exp(-np.add.outer(self._a, self._b)).sum()

    def sample(self) -> None:
        # the benchmark runs single-threaded; the CPU time of another thread
        # would count in the kernel samples and op times alike
        if common.thread_count() > 1:
            sys.exit("bench: extra threads in the benchmark process")
        start = common.clock()
        self._kernel()
        self._last = common.clock()
        self.samples.append(self._last - start)

    def due(self) -> None:
        """Take a sample if CAL_EVERY_S has passed since the last one."""
        if common.clock() - self._last >= CAL_EVERY_S:
            self.sample()

    def mark(self) -> int:
        """Call when an op starts; the op is paired with the samples on
        either side of this mark."""
        return len(self.samples)

    def scale(self, seconds: float, mark: int) -> float:
        """An op's time at the reference speed."""
        return seconds * CAL_REF_S / ((self.samples[mark - 1] + self.samples[mark]) / 2)


def _percentile(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _median(values: list[float]) -> float:
    return _percentile(sorted(values), 50)[0]


def _setup_times(workload: str, tmpdir: str) -> list[float]:
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, probe, workload, tmpdir], check=True,
                       timeout=PROBE_TIMEOUT_S, cwd=common.ROOT)
        times.append(time.perf_counter() - start)
    return times


class Check:
    """Counts ops and compares each output with its reference."""

    def __init__(self, runner, refs: dict, cal: Calibration | None = None) -> None:
        self.runner = runner
        self.refs = refs
        self.cal = cal
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def fail(self, cid: str, whys: list[str]) -> None:
        self.failed += len(whys)
        self.mismatches += [f"{cid}: {why}" for why in whys]

    def run(self, cid: str):
        """Run one case; return (its ops as (latency in s, calibration
        mark) pairs, its Output or None if any of its ops failed)."""
        import workloads

        units = self.runner.units(cid)
        self.attempted += units
        self.runner.prepare(cid)
        mark = None
        if self.cal is not None:
            self.cal.due()
            mark = self.cal.mark()
        start = common.clock()
        try:
            result = self.runner.call(cid, self.cal)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            elapsed = common.clock() - start
            self.fail(cid, [f"raised {type(exc).__name__}: {exc}"] * units)
            return [(elapsed, mark)], None
        elapsed = common.clock() - start
        out = self.runner.collect(cid, result)
        times = out.rows_timed or [(elapsed, mark)]
        whys = workloads.mismatches(self.runner.cases[cid], out, self.refs[cid])
        if whys:
            self.fail(cid, whys)
            return times, None
        return times, out


def _untraced(args, runner, check) -> tuple[dict, dict]:
    import workloads

    setup = _setup_times(args.workload, runner.tmpdir)
    rounds = workloads.plan(args.workload, args.seed, MAX_ROUNDS)
    check.cal = cal = Calibration()
    cal.sample()
    ops: list[tuple[float, int]] = []
    n_rounds = 0
    start = time.perf_counter()
    min_ops = workloads.min_ops(args.workload)
    # whole rounds only, so every run measures the same mix of ops
    while n_rounds < len(rounds) and (len(ops) < min_ops
                                      or time.perf_counter() - start < args.seconds):
        for cid in rounds[n_rounds]:
            ops += check.run(cid)[0]
        n_rounds += 1
    cal.sample()
    wall = time.perf_counter() - start

    tail_p = workloads.TAIL_PERCENTILE[args.workload]
    raw = sorted(t for t, _ in ops)
    ordered = sorted(cal.scale(t, m) for t, m in ops)
    tail, tail_beyond = _percentile(ordered, tail_p)
    p50, _ = _percentile(ordered, 50)
    if tail_p > 50 and tail_beyond < workloads.TAIL_BEYOND:
        print(f"bench: only {tail_beyond} ops beyond p{tail_p}", file=sys.stderr)
    per_s = len(ops) * workloads.WORK_PER_OP[args.workload]
    metrics = {
        "setup_s": (_median(setup), "s"),
        "work_per_s": (per_s / sum(ordered), "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
    }
    detail = {
        "unscaled": {"work_per_s": per_s / sum(raw), "op_p50_ms": _median(raw) * 1e3,
                     "op_tail_ms": _percentile(raw, tail_p)[0] * 1e3},
        "calibration": {"samples": len(cal.samples), "median_s": _median(cal.samples),
                        "reference_s": CAL_REF_S},
        "setup_runs_s": setup,
        "rounds": n_rounds,
        "ops": len(ops),
        "busy_s": sum(raw),
        "wall_s": wall,
        "tail_percentile": tail_p,
        "percentiles_ms": {
            f"p{p}": {"value": v * 1e3, "samples_beyond": b}
            for p in (50, 90, 99) for v, b in [_percentile(ordered, p)]
        },
    }
    return metrics, detail


def _traced(args, runner, check) -> tuple[dict, dict]:
    import spans
    import workloads

    rounds = workloads.plan(args.workload, args.seed, workloads.TRACE_ROUNDS[args.workload])
    ops = [cid for r in rounds for cid in r]

    recorder = spans.SpanRecorder()

    def run_traced(cid: str):
        with spans.install(recorder) as missing:
            return (*check.run(cid), missing)

    # each op runs untraced and traced back to back, in alternating order,
    # so that the overhead compares like with like on a host whose speed
    # drifts
    plain_s = traced_s = 0.0
    traced = []
    for i, cid in enumerate(ops):
        recorder.op = i
        if i % 2:
            t_traced, out, missing = run_traced(cid)
            t_plain, plain = check.run(cid)
        else:
            t_plain, plain = check.run(cid)
            t_traced, out, missing = run_traced(cid)
        plain_s += sum(t for t, _ in t_plain)
        traced_s += sum(t for t, _ in t_traced)
        traced.append(out)
        if plain is not None and out is not None and plain.raw != out.raw:
            check.fail(cid, ["traced output differs from untraced"] * runner.units(cid))
    absent = spans.absent_names(missing)
    if absent:
        print(f"bench: absent layers (not reported): {', '.join(absent)}", file=sys.stderr)

    layer = spans.layer_metrics(recorder.spans, absent)
    layer["trace.overhead_frac"] = traced_s / plain_s - 1.0
    if "cli.main" not in absent:
        cli_ops = traced if args.workload == "point-queries" else []
        layer["cli.bytes_written"] = sum(len(out.raw) for out in cli_ops if out is not None)
    metrics = {name: (layer[name], unit) for name, unit in spans.METRIC_UNITS.items()
               if name in layer}

    spans_path = os.path.join(args.results_dir, _stem(args) + ".spans.jsonl")
    recorder.write_jsonl(spans_path)
    detail = {"ops": len(ops), "rounds": len(rounds), "untraced_busy_s": plain_s,
              "traced_busy_s": traced_s, "spans": len(recorder.spans),
              "spans_file": os.path.relpath(spans_path, common.ROOT),
              "missing_bindings": missing, "absent_layers": absent,
              "expected_effects": spans.EXPECTED_EFFECTS}
    return metrics, detail


def _stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", default=os.path.join(common.ROOT, ".bench_results"))
    args = parser.parse_args(argv)
    common.prepare_process()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference",
                           f"{args.workload}.json")) as fh:
        reference = json.load(fh)
    os.makedirs(args.results_dir, exist_ok=True)

    tmpdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=common.ROOT)
    try:
        runner = workloads.Runner(args.workload, tmpdir)
        if set(runner.cases) != set(reference["cases"]):
            sys.exit("bench: the reference file does not cover this workload's cases")
        check = Check(runner, reference["cases"])
        workloads.warm_up(args.workload, tmpdir)
        if args.trace:
            metrics, detail = _traced(args, runner, check)
        else:
            metrics, detail = _untraced(args, runner, check)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    failed = check.failed
    line = {
        "correct": failed == 0,
        "attempted": check.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        **line,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": failed / check.attempted,
        "mismatches": check.mismatches[:MAX_LISTED_MISMATCHES],
        "detail": detail,
        "machine": common.machine(),
        "versions": common.versions(),
        "git_sha": common.git_sha(),
        "src_sha256": common.src_digest(),
        "reference": reference["meta"],
        "threads_at_exit": common.thread_count(),
    }
    with open(os.path.join(args.results_dir, _stem(args) + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for m in check.mismatches[:MAX_LISTED_MISMATCHES]:
        print(f"bench: mismatch {m}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
