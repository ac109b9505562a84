"""Workload inputs, the ops that run them, and the reference check.

Inputs come from a fixed pool of cases per workload.  The pool is a pure
function of ``POOL_SEED``; reference outputs for every pool case are
stored under ``bench/reference``.  The ``--seed`` of a run chooses which
cases run and in what order, so any seed can be checked against the
stored references and the same seed always gives the same inputs.

Workloads (op = the unit whose latency is reported):

``sweep-optimize``  op = one row of a figS4 sweep.  A round is one whole
    ``run_sweep`` over a variant of the figS4 grid, as users run it; the
    seed picks two of the variants.  Row latencies are taken inside that
    one call (see ``row_clock``).
``ensemble``        op = one ``simulate_ensemble`` at 100k x 50 plus its
    CSV and summary files.  A round is the headline coherent point and
    the low-noise direct point, truth present and absent.
``point-queries``   op = one in-process ``homdetect.cli.main`` call.  A
    round is one block of calls, one per command cell the CLI offers.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, replace

import numpy as np

import common

POOL_SEED = 2505_00950

WORKLOADS = ("sweep-optimize", "ensemble", "point-queries")

# Per-op latency percentile reported as op_tail_ms.  A run measures at least
# enough ops to leave TAIL_BEYOND of them beyond it (see min_ops).
TAIL_PERCENTILE = {"sweep-optimize": 90, "ensemble": 50, "point-queries": 99}
TAIL_BEYOND = 10

# Ops a run measures at least, however short --seconds is: two whole figS4
# sweeps (about 40 s on a 2-core Xeon VM), three rounds of ensembles (about
# 30 s) and one pass over the BLOCKS blocks of CLI calls (1536 calls, about
# 20 s), so that medians and tails rest on enough ops to stay steady when the
# host's speed drifts.  A whole pass runs the same calls under every seed,
# in another order; the p99 falls among the fig2-sized sweeps, whose cost
# depends on which blocks ran.
MIN_OPS = {"sweep-optimize": 200, "ensemble": 12, "point-queries": 1536}

# Rounds measured by a traced run (once untraced, once traced).
TRACE_ROUNDS = {"sweep-optimize": 1, "ensemble": 1, "point-queries": 4}

# Dist tables are compared elementwise within this tolerance, so a change
# that only reorders float64 arithmetic still passes.
TABLE_TOL = 1024 * float(np.finfo(np.float64).eps)

# n_c from optimize_nc is compared to the optimizer's own relative tolerance.
NC_REL_TOL = 1e-3

# The oracle's worst deviation is float noise (2e-18 to 1.2e-15 on the pool);
# it is compared within this factor either way.
ORACLE_DEV_FACTOR = 10.0

# --- sweep-optimize: the figS4 grid -----------------------------------------

SWEEP_PRESET = "figS4"
# A seed runs variants seed % SWEEP_VARIANTS and (seed + 1) % SWEEP_VARIANTS
# of the preset grid, so that no run's figures rest on one variant alone.
# Variant 0 is the preset itself; the others move every eta and n_e by a
# seeded factor of up to ETA_JITTER and NE_JITTER (relative) inside the
# preset's ranges and shuffle both axes, so that a claim tuned on one seed
# can be re-checked on a seed with another pair of variants.
SWEEP_VARIANTS = 3
ETA_JITTER = 0.01
NE_JITTER = 0.05

# --- ensemble ---------------------------------------------------------------

ENSEMBLE_POINTS = {
    "headline": {"protocol": "coherent", "xi": 0.1, "eta": 0.9, "epsilon": 0.9,
                 "n_c": 6.0, "n_e": 1.0, "n_i": 1.0},
    "low-noise": {"protocol": "direct", "xi": 0.1, "eta": 0.8, "n_e": 0.02, "n_i": 0.02},
}
ENSEMBLE_TRAJECTORIES = 100_000
ENSEMBLE_STEPS = 50
ENSEMBLE_KEYS = 16

# Units of work one op completes, for work_per_s: a sweep row, the
# trajectory x step updates of one ensemble, one CLI call.
WORK_PER_OP = {"sweep-optimize": 1,
               "ensemble": ENSEMBLE_TRAJECTORIES * ENSEMBLE_STEPS,
               "point-queries": 1}

# --- point-queries ---------------------------------------------------------

# A block holds one call per cell the CLI offers: nmeas, dist (CSV) and
# dist --diff --format json once per (protocol, saturation); speedup once
# per (two-detector protocol, saturation), as it rejects direct detection;
# validate-oracle once per two-detector protocol, as it takes no
# saturation; and one sweep the size of each of the fig2a and fig2b
# presets.  Blocks differ only in the continuous parameters.
_PROTOCOLS = ("direct", "coherent", "incoherent")
_TWO_DETECTOR = _PROTOCOLS[1:]
_SATURATIONS = ("inf", "1", "2", "4")
BLOCK_SLOTS = (
    [(kind, p, t) for kind in ("nmeas", "dist", "dist-diff")
     for p in _PROTOCOLS for t in _SATURATIONS]
    + [("speedup", p, t) for p in _TWO_DETECTOR for t in _SATURATIONS]
    + [("oracle", p, None) for p in _TWO_DETECTOR]
    + [("sweep-fig2a", None, None), ("sweep-fig2b", None, None)]
)
BLOCKS = 32


def min_ops(workload: str) -> int:
    """Ops a run measures at least, however long they take."""
    p = TAIL_PERCENTILE[workload]
    tail = math.ceil(TAIL_BEYOND * 100 / (100 - p)) if p > 50 else 1
    return max(tail, MIN_OPS.get(workload, 1))


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(list(key)))


def _loguniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def _param_flags(protocol: str, eta: float, ne: float, ni: float, nc: float) -> list[str]:
    flags = ["--protocol", protocol, "--xi", "0.1", "--eta", _fmt(eta),
             "--ne", _fmt(ne), "--ni", _fmt(ni)]
    if protocol != "direct":
        flags += ["--epsilon", "0.9", "--nc", _fmt(nc)]
    return flags


def _query(rng: np.random.Generator, kind: str, protocol: str | None, t: str | None) -> dict:
    eta = float(rng.uniform(0.5, 0.99))
    ne = _loguniform(rng, 1e-2, 10.0)
    ni = _loguniform(rng, 1e-2, 10.0)
    nc = _loguniform(rng, 0.1, 10.0)
    if kind == "oracle":
        nc = _loguniform(rng, 0.1, 4.0)  # the oracle's own limit
        return {"argv": ["validate-oracle", *_param_flags(protocol, eta, ne, ni, nc)]}
    if kind in ("nmeas", "speedup", "dist"):
        return {"argv": [kind, *_param_flags(protocol, eta, ne, ni, nc), "--saturation", t]}
    if kind == "dist-diff":
        return {"argv": ["dist", "--diff", "--format", "json",
                         *_param_flags(protocol, eta, ne, ni, nc), "--saturation", t]}
    from homdetect import sweep

    # the preset's grids, at a drawn efficiency and the drawn value of the
    # quantity the preset holds fixed
    if kind == "sweep-fig2a":
        spec = dict(sweep.preset("fig2a").to_dict(), eta=[float(_fmt(eta))],
                    n_c=[float(_fmt(nc))])
    else:
        spec = dict(sweep.preset("fig2b").to_dict(), eta=[float(_fmt(eta))],
                    n_e=[float(_fmt(ne))])
    return {"argv": ["sweep"], "spec": spec}


def _jitter(rng: np.random.Generator, values, rel: float, lo: float, hi: float) -> list[float]:
    """Each value times a factor of up to 1 +- rel, mirrored back into
    [lo, hi], in a shuffled order."""
    out = []
    for v in values:
        x = float(v * np.exp(rng.uniform(-rel, rel)))
        out.append(lo * lo / x if x < lo else hi * hi / x if x > hi else x)
    rng.shuffle(out)
    return out


def sweep_spec(case: dict):
    """The SweepSpec of a sweep-optimize case."""
    from homdetect import sweep

    return replace(sweep.preset(SWEEP_PRESET), eta=tuple(case["eta"]), n_e=tuple(case["n_e"]))


def pool(workload: str) -> dict[str, dict]:
    """Every case the workload can run, keyed by case id."""
    cases: dict[str, dict] = {}
    if workload == "sweep-optimize":
        from homdetect import sweep

        grid = sweep.preset(SWEEP_PRESET)
        eta_lo, eta_hi = min(grid.eta), max(grid.eta)
        ne_lo, ne_hi = min(grid.n_e), max(grid.n_e)
        for v in range(SWEEP_VARIANTS):
            eta, ne = list(grid.eta), list(grid.n_e)
            if v:
                rng = _rng(POOL_SEED, 4, v)
                eta = _jitter(rng, eta, ETA_JITTER, eta_lo, eta_hi)
                ne = _jitter(rng, ne, NE_JITTER, ne_lo, ne_hi)
            cid = f"V{v}"
            cases[cid] = {"id": cid, "kind": "sweep", "eta": eta, "n_e": ne}
    elif workload == "ensemble":
        keys = _rng(POOL_SEED, 1).integers(0, 2**63 - 1, size=ENSEMBLE_KEYS)
        for point in ENSEMBLE_POINTS:
            for truth in ("present", "absent"):
                for i, key in enumerate(keys):
                    cid = f"E-{point}-{truth}-{i:02d}"
                    cases[cid] = {"id": cid, "kind": "ensemble", "point": point,
                                  "truth": truth, "key": int(key)}
    elif workload == "point-queries":
        for b in range(BLOCKS):
            rng = _rng(POOL_SEED, 2, b)
            for i, (kind, protocol, t) in enumerate(BLOCK_SLOTS):
                cid = f"Q{b:02d}-{i:03d}"
                cases[cid] = {"id": cid, "kind": kind, **_query(rng, kind, protocol, t)}
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return cases


def _round_groups(workload: str, seed: int, cases: dict[str, dict]) -> list[list[str]]:
    """Case ids grouped so that any one group is a complete round."""
    ids = sorted(cases)
    if workload == "sweep-optimize":
        return [[f"V{(seed + i) % SWEEP_VARIANTS}"] for i in range(2)]
    if workload == "ensemble":
        return [[c for c in ids if c.endswith(f"-{k:02d}")] for k in range(ENSEMBLE_KEYS)]
    return [[c for c in ids if c.startswith(f"Q{b:02d}-")] for b in range(BLOCKS)]


def plan(workload: str, seed: int, n_rounds: int) -> list[list[str]]:
    """The first n_rounds rounds of case ids for a seed.

    Rounds walk the groups in a seeded order (reshuffled on each pass, so
    no group repeats before all have run) and shuffle the ops inside each
    round.  On sweep-optimize the seed picks two variants of the grid.  A
    pure function of (workload, seed, n_rounds).
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    groups = _round_groups(workload, seed, pool(workload))
    rng = _rng(POOL_SEED, 3, WORKLOADS.index(workload), seed)
    rounds: list[list[str]] = []
    while len(rounds) < n_rounds:
        for g in rng.permutation(len(groups)):
            ops = list(groups[g])
            rng.shuffle(ops)
            rounds.append(ops)
    return rounds[:n_rounds]


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def row_clock(cal=None):
    """Record when ``homdetect.sweep`` starts each ``optimize_nc`` call.

    ``run_sweep`` evaluates each optimized row with one such call, in row
    order, so these calls split one sweep's time into row latencies.
    Yields a list that gets one (previous row's end, this row's start,
    calibration mark) per call.  Between rows it gives ``cal``
    (run.Calibration) the chance to take a sample, outside both rows'
    times.  The wrapper costs about a microsecond against some 100 ms per
    row.
    """
    from homdetect import sweep

    inner = sweep.optimize_nc
    bounds: list[tuple[float, float, int | None]] = []

    def timed(*args, **kwargs):
        end = common.clock()
        if cal is not None and bounds:
            cal.due()
        bounds.append((end, common.clock(), None if cal is None else cal.mark()))
        return inner(*args, **kwargs)

    sweep.optimize_nc = timed
    try:
        yield bounds
    finally:
        sweep.optimize_nc = inner


@dataclass
class Output:
    """What one op produced: the raw bytes (compared between traced and
    untraced runs) and the parts the reference check reads."""

    raw: bytes
    rc: int = 0
    rows: list[dict] | None = None
    rows_timed: list[tuple[float, int | None]] | None = None  # (latency s, calibration mark)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.raw).hexdigest()


class Runner:
    """Turns case ids into timed calls.  ``call`` is the part a user waits
    for; ``collect`` reads the result back and is not timed."""

    def __init__(self, workload: str, tmpdir: str) -> None:
        self.workload = workload
        self.cases = pool(workload)
        self.tmpdir = tmpdir
        self._argv: dict[str, list[str]] = {}
        self._spec: dict = {}

    def units(self, cid: str) -> int:
        """Ops in one case: the rows of a sweep-optimize case, else 1."""
        if self.workload != "sweep-optimize":
            return 1
        spec = sweep_spec(self.cases[cid])
        return len(spec.protocols) * len(spec.eta) * len(spec.n_e) * len(spec.saturations)

    def prepare(self, cid: str) -> None:
        """Build the op's inputs and write its input files; not timed."""
        case = self.cases[cid]
        if self.workload == "sweep-optimize":
            self._spec[cid] = sweep_spec(case)
        if self.workload != "point-queries" or cid in self._argv:
            return
        argv = list(case["argv"])
        if "spec" in case:
            cfg = os.path.join(self.tmpdir, f"{cid}.json")
            with open(cfg, "w") as fh:
                json.dump(case["spec"], fh)
            argv += ["--config", cfg]
        if case["kind"] != "oracle":
            argv += ["-o", os.path.join(self.tmpdir, f"{cid}.out")]
        self._argv[cid] = argv

    def call(self, cid: str, cal=None):
        """Run the op; on sweep-optimize, ``cal`` may sample between rows
        (see ``row_clock``)."""
        case = self.cases[cid]
        if self.workload == "sweep-optimize":
            from homdetect import sweep

            mark = None if cal is None else cal.mark()
            with row_clock(cal) as bounds:
                start = common.clock()
                result = sweep.run_sweep(self._spec[cid])
                end = common.clock()
            # row 0 runs from the sweep's start, the last row to its end
            starts = [start] + [b[1] for b in bounds[1:]]
            ends = [b[0] for b in bounds[1:]] + [end]
            marks = [mark] + [b[2] for b in bounds[1:]]
            return result, list(zip(starts, ends, marks)), len(bounds)
        if self.workload == "ensemble":
            from homdetect import bayes, montecarlo, photon_stats

            params = photon_stats.ProtocolParams(**ENSEMBLE_POINTS[case["point"]])
            pair = bayes.HypothesisPair.from_params(params)
            ens = montecarlo.simulate_ensemble(montecarlo.EnsembleConfig(
                pair=pair, truth=case["truth"], n_measurements=ENSEMBLE_STEPS,
                n_trajectories=ENSEMBLE_TRAJECTORIES, seed=case["key"]))
            path = os.path.join(self.tmpdir, "ensemble.csv")
            ens.to_csv(path)
            ens.to_summary_json(os.path.join(self.tmpdir, "ensemble.summary.json"))
            return 0
        from homdetect import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(self._argv[cid])
        return rc, out.getvalue()

    def collect(self, cid: str, result) -> Output:
        case = self.cases[cid]
        if self.workload == "sweep-optimize":
            result, timed, calls = result
            if calls != len(result.rows):
                raise RuntimeError(
                    f"{calls} optimize_nc calls for {len(result.rows)} rows: per-row latency "
                    "needs one call per row (see row_clock)")
            rows = [{"protocol": r.protocol, "eta": r.eta, "n_e": r.n_e, "n_i": r.n_i,
                     "t": r.t, "N": r.n_2sigma, "speedup": r.speedup, "at_bound": r.at_bound,
                     "error": r.error, "n_c": r.n_c} for r in result.rows]
            return Output(raw=result.csv_text().encode(), rows=rows,
                          rows_timed=[(end - start, mark) for start, end, mark in timed])
        if self.workload == "ensemble":
            raw = b""
            for name in ("ensemble.csv", "ensemble.summary.json"):
                with open(os.path.join(self.tmpdir, name), "rb") as fh:
                    raw += fh.read()
            return Output(raw=raw)
        rc, stdout = result
        if case["kind"] == "oracle":
            return Output(raw=stdout.encode(), rc=rc)
        path = os.path.join(self.tmpdir, f"{cid}.out")
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            os.unlink(path)
        except FileNotFoundError:
            raw = b""
        return Output(raw=raw, rc=rc)


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------


def _table(raw: bytes) -> tuple[str, list[float]]:
    """Split a dist output into its exact skeleton and its float values."""
    text = raw.decode()
    if text.startswith("{"):
        doc = json.loads(text)
        values = [e[-1] for e in doc["entries"]]
        doc["entries"] = [e[:-1] for e in doc["entries"]]
        skeleton = json.dumps(doc, sort_keys=True)
    else:
        lines = text.rstrip("\n").split("\n")
        values = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
        skeleton = "\n".join([lines[0]] + [line.rsplit(",", 1)[0] for line in lines[1:]])
    return hashlib.sha256(skeleton.encode()).hexdigest(), values


_ORACLE_REPORT = re.compile(r"(\w+: max \|closed - oracle\| = )(\S+)( at \(j, k\) = .*)", re.S)


def _oracle(raw: bytes) -> tuple[str, float]:
    """Split a validate-oracle report into its text without the worst
    deviation (status, its (j, k), the cells covered, the tolerance) and
    that deviation."""
    m = _ORACLE_REPORT.fullmatch(raw.decode())
    if m is None:
        raise ValueError(f"not an oracle report: {raw[:80]!r}")
    return m[1] + m[3], float(m[2])


def reference_entry(case: dict, out: Output) -> dict:
    """What the reference file stores for one case."""
    kind = case["kind"]
    if kind == "sweep":
        return {"rows": out.rows}
    if kind in ("dist", "dist-diff"):
        skeleton, values = _table(out.raw)
        packed = base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()
        return {"rc": out.rc, "skeleton": skeleton, "values_f64": packed}
    if kind == "oracle":
        text, worst = _oracle(out.raw)
        return {"rc": out.rc, "text": text, "worst": worst}
    return {"rc": out.rc, "sha256": out.digest}


def _row_mismatch(got: dict | None, want: dict | None) -> str | None:
    if got is None or want is None:
        return "row missing" if got is None else "unexpected row"
    for key, value in want.items():
        if key == "n_c":
            if not abs(got[key] - value) <= NC_REL_TOL * abs(value):
                return f"n_c {got[key]!r} != {value!r} within {NC_REL_TOL}"
        elif got[key] != value:
            return f"{key} {got[key]!r} != {value!r}"
    return None


def _output_mismatch(case: dict, out: Output, ref: dict) -> str | None:
    kind = case["kind"]
    if out.rc != ref["rc"]:
        return f"exit code {out.rc} != {ref['rc']}"
    if kind in ("dist", "dist-diff"):
        try:
            skeleton, values = _table(out.raw)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable table: {exc}"
        got = np.asarray(values)
        want = np.frombuffer(base64.b64decode(ref["values_f64"]), dtype="<f8")
        if skeleton != ref["skeleton"] or got.shape != want.shape:
            return "table layout differs"
        if not np.allclose(got, want, rtol=TABLE_TOL, atol=TABLE_TOL):
            worst = float(np.max(np.abs(got - want)))
            return f"table values differ by up to {worst:.3e} (tolerance {TABLE_TOL:.3e})"
        return None
    if kind == "oracle":
        try:
            text, worst = _oracle(out.raw)
        except ValueError as exc:
            return str(exc)
        if text != ref["text"]:
            return f"oracle report {text!r} != {ref['text']!r}"
        want = ref["worst"]
        if not want / ORACLE_DEV_FACTOR <= worst <= want * ORACLE_DEV_FACTOR:
            return f"oracle deviation {worst:.3e} not within x{ORACLE_DEV_FACTOR} of {want:.3e}"
        return None
    if out.digest != ref["sha256"]:
        return "output bytes differ"
    return None


def mismatches(case: dict, out: Output, ref: dict) -> list[str]:
    """One entry per op of the case whose output disagrees with its
    reference: per row for a sweep-optimize case, else at most one.

    Exact: N, speedup, at_bound, protocol, grid columns, exit codes, the
    bytes of ensemble, nmeas, speedup and sweep outputs, and the oracle's
    report except its worst deviation.  Within a tolerance: n_c from
    optimize_nc (NC_REL_TOL), dist tables (TABLE_TOL), the oracle's worst
    deviation (ORACLE_DEV_FACTOR).
    """
    if case["kind"] == "sweep":
        got, want = out.rows, ref["rows"]
        pairs = [(got[i] if i < len(got) else None, want[i] if i < len(want) else None)
                 for i in range(max(len(got), len(want)))]
        return [f"row {i}: {why}" for i, (g, w) in enumerate(pairs)
                if (why := _row_mismatch(g, w)) is not None]
    why = _output_mismatch(case, out, ref)
    return [] if why is None else [why]


def warm_up(workload: str, tmpdir: str) -> None:
    """One small call of the workload's kind, so that lazy set-up is done
    before the first timed op."""
    from homdetect import bayes, cli, montecarlo, photon_stats, sweep

    headline = photon_stats.ProtocolParams(**ENSEMBLE_POINTS["headline"])
    if workload == "sweep-optimize":
        sweep.n_two_sigma(headline, 2)
    elif workload == "ensemble":
        montecarlo.simulate_ensemble(montecarlo.EnsembleConfig(
            pair=bayes.HypothesisPair.from_params(headline), truth="present",
            n_measurements=ENSEMBLE_STEPS, n_trajectories=1000))
    else:
        argv = ["nmeas", *_param_flags("coherent", 0.9, 1.0, 1.0, 6.0),
                "-o", os.path.join(tmpdir, "warm-up.out")]
        if cli.main(argv) != 0:
            raise RuntimeError("warm-up call failed")
