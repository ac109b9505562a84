"""Tests of the benchmark itself.  Run with: python3 -m pytest bench -q"""

import json
import os

import pytest

import common

# before numpy is first imported, so that its thread pools stay at one thread
common.prepare_process()

import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent)


def test_self_time_subtracts_children():
    recorded = [
        _span("outer", 0, 100),
        _span("child", 10, 30, parent=0),
        _span("grandchild", 12, 20, parent=1),
        _span("child", 50, 90, parent=0),
    ]
    assert spans.self_times(recorded) == [40, 12, 8, 40]


def test_self_time_counts_overlapping_children_once():
    recorded = [
        _span("outer", 0, 100),
        _span("a", 10, 60, parent=0),
        _span("b", 40, 120, parent=0),  # overlaps a and runs past the parent
    ]
    assert spans.self_times(recorded)[0] == 10


def test_layer_ratios_from_nested_spans():
    recorded = [
        _span("sweep.optimize_nc", 0, 100),
        _span("bayes.from_params", 1, 10, parent=0),
        _span("photon_stats.build_distribution", 2, 4, parent=1),
        _span("photon_stats.build_distribution", 4, 6, parent=1),
        _span("photon_stats.build_distribution", 6, 8, parent=1),
        _span("bayes.from_params", 11, 20, parent=0),
        _span("photon_stats.build_distribution", 12, 14, parent=5),
    ]
    for s in recorded:
        if s.name == "photon_stats.build_distribution":
            s.fields = {"cells": 4, "k_max": 1}
    m = spans.layer_metrics(recorded, absent=[])
    assert m["sweep.optimize_nc.evals_per_call"] == 2.0
    assert m["bayes.from_params.builds_per_pair"] == 2.0
    assert m["photon_stats.cells"] == 16
    assert m["sweep.optimize_nc.self_s"] == pytest.approx((100 - 18) / 1e9)


def test_missing_binding_is_absent_not_zero():
    bindings = {"photon_stats.build_distribution": (("homdetect.bayes", "no_such_name"),),
                **{k: v for k, v in spans.BINDINGS.items()
                   if k != "photon_stats.build_distribution"}}
    recorder = spans.SpanRecorder()
    with spans.install(recorder, bindings) as missing:
        pass
    absent = spans.absent_names(missing, bindings)
    assert absent == ["photon_stats.build_distribution"]
    m = spans.layer_metrics([], absent)
    assert "photon_stats.build_distribution.calls" not in m
    assert "photon_stats.cells" not in m
    assert m["bayes.from_params.calls"] == 0


def test_install_restores_bindings():
    import homdetect.bayes as bayes
    import homdetect.cli as cli

    before = (bayes.build_distribution, bayes.HypothesisPair.__dict__["from_params"], cli.main)
    with spans.install(spans.SpanRecorder()) as missing:
        assert missing == {}
        assert bayes.build_distribution is not before[0]
    after = (bayes.build_distribution, bayes.HypothesisPair.__dict__["from_params"], cli.main)
    assert after == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload):
    assert workloads.pool(workload) == workloads.pool(workload)
    assert workloads.plan(workload, 7, 3) == workloads.plan(workload, 7, 3)
    assert workloads.plan(workload, 7, 3) != workloads.plan(workload, 8, 3)
    # every round holds the same multiset of op kinds, whatever the seed
    cases = workloads.pool(workload)
    kinds = [sorted(cases[c]["kind"] for c in r) for r in workloads.plan(workload, 7, 3)]
    assert all(k == kinds[0] for k in kinds)


def _reference(workload):
    path = os.path.join(os.path.dirname(__file__), "reference", f"{workload}.json")
    with open(path) as fh:
        return json.load(fh)["cases"]


def test_references_cover_every_case():
    for workload in workloads.WORKLOADS:
        assert set(_reference(workload)) == set(workloads.pool(workload))


def test_sweep_variants_jitter_the_preset_grid():
    from homdetect import sweep

    grid = sweep.preset(workloads.SWEEP_PRESET)
    cases = workloads.pool("sweep-optimize")
    assert workloads.sweep_spec(cases["V0"]) == grid
    for cid in ("V1", "V2"):
        spec = workloads.sweep_spec(cases[cid])
        assert spec != grid and spec.protocols == grid.protocols
        assert all(min(grid.eta) <= v <= max(grid.eta) for v in spec.eta)
        assert all(min(grid.n_e) <= v <= max(grid.n_e) for v in spec.n_e)
        for got, base in zip(sorted(spec.eta), grid.eta):
            assert abs(got / base - 1) <= workloads.ETA_JITTER * 1.01
    assert [sorted(r[0] for r in workloads.plan("sweep-optimize", s, 2)) for s in (3, 4, 5)] == [
        ["V0", "V1"], ["V1", "V2"], ["V0", "V2"]]


@pytest.mark.parametrize("kind", ["nmeas", "dist-diff", "oracle"])
def test_reference_outputs_match(tmp_path, kind):
    import run

    cases = workloads.pool("point-queries")
    cid = next(c for c in sorted(cases) if cases[c]["kind"] == kind)
    check = run.Check(workloads.Runner("point-queries", str(tmp_path)),
                      _reference("point-queries"))
    check.run(cid)
    assert (check.attempted, check.mismatches) == (1, [])


def _small_sweep_runner(tmp_path):
    """A sweep-optimize runner whose V0 case is one (eta, n_e) point."""
    runner = workloads.Runner("sweep-optimize", str(tmp_path))
    runner.cases["V0"] = dict(runner.cases["V0"], eta=[0.9], n_e=[1.0])
    return runner


@pytest.mark.parametrize("workload,kind", [("point-queries", "speedup"),
                                           ("point-queries", "sweep-fig2b"),
                                           ("sweep-optimize", "sweep")])
def test_tracing_leaves_outputs_unchanged(tmp_path, workload, kind):
    if workload == "sweep-optimize":
        runner, cid = _small_sweep_runner(tmp_path), "V0"
    else:
        runner = workloads.Runner(workload, str(tmp_path))
        cid = next(c for c in sorted(runner.cases) if runner.cases[c]["kind"] == kind)
    runner.prepare(cid)
    plain = runner.collect(cid, runner.call(cid))
    recorder = spans.SpanRecorder()
    with spans.install(recorder):
        traced = runner.collect(cid, runner.call(cid))
    assert traced.raw == plain.raw
    assert recorder.spans


def test_row_clock_splits_a_sweep_into_row_latencies(tmp_path):
    import run
    from homdetect import sweep

    runner = _small_sweep_runner(tmp_path)
    before = sweep.optimize_nc
    check = run.Check(runner, {"V0": {"rows": []}})
    times, out = check.run("V0")
    assert sweep.optimize_nc is before
    assert runner.units("V0") == len(times) == 4
    assert all(t > 0 and mark is None for t, mark in times)
    # every row of the small sweep is unexpected against an empty reference
    assert (check.attempted, check.failed, out) == (4, 4, None)


def test_calibration_samples_between_rows_outside_their_time(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "CAL_EVERY_S", 0.0)  # a sample before every row
    runner = _small_sweep_runner(tmp_path)
    cal = run.Calibration()
    check = run.Check(runner, {"V0": {"rows": []}}, cal)
    times = check.run("V0")[0]
    cal.sample()
    assert [mark for _, mark in times] == [1, 2, 3, 4] and len(cal.samples) == 5
    # a kernel sample lies between rows, not inside one
    assert all(t < 10 * max(cal.samples) + 0.5 for t, _ in times)


def test_calibration_pairs_each_op_with_the_samples_beside_it():
    import run

    cal = run.Calibration.__new__(run.Calibration)
    cal.samples = [run.CAL_REF_S, run.CAL_REF_S, 3 * run.CAL_REF_S]
    # an op that ran while the host was at reference speed keeps its time
    assert cal.scale(0.5, 1) == pytest.approx(0.5)
    # one between a reference-speed sample and a 3x slower one is halved
    assert cal.scale(0.5, 2) == pytest.approx(0.25)


def _perturb_first_value(raw: bytes) -> bytes:
    doc = json.loads(raw)
    doc["entries"][0][-1] += 1e-9
    return json.dumps(doc, indent=1).encode()


def test_perturbed_output_counts_as_failed(tmp_path):
    cases = workloads.pool("point-queries")
    refs = _reference("point-queries")
    runner = workloads.Runner("point-queries", str(tmp_path))
    nmeas = next(c for c in sorted(cases) if cases[c]["kind"] == "nmeas")
    diff = next(c for c in sorted(cases) if cases[c]["kind"] == "dist-diff")
    outs = {}
    for cid in (nmeas, diff):
        runner.prepare(cid)
        outs[cid] = runner.collect(cid, runner.call(cid))
        assert workloads.mismatches(cases[cid], outs[cid], refs[cid]) == []

    changed = workloads.Output(raw=outs[nmeas].raw.replace(b",", b";", 1))
    assert workloads.mismatches(cases[nmeas], changed, refs[nmeas]) == ["output bytes differ"]
    far = workloads.Output(raw=_perturb_first_value(outs[diff].raw))
    assert "table values differ" in workloads.mismatches(cases[diff], far, refs[diff])[0]

    import run

    class Perturbing(workloads.Runner):
        def collect(self, cid, result):
            out = super().collect(cid, result)
            return workloads.Output(raw=_perturb_first_value(out.raw), rc=out.rc)

    check = run.Check(Perturbing("point-queries", str(tmp_path)), refs)
    check.run(diff)
    assert check.attempted == 1 and check.failed == 1


def test_oracle_report_checks_location_and_deviation_scale():
    cases = workloads.pool("point-queries")
    cid = next(c for c in sorted(cases) if cases[c]["kind"] == "oracle")
    ref = _reference("point-queries")[cid]
    text, worst = ref["text"], ref["worst"]

    def report(dev, location=None):
        body = text if location is None else text.replace(
            text[text.index("(j, k) = "):text.index(" over")], f"(j, k) = {location}")
        head, tail = body.split(" at ", 1)
        return workloads.Output(raw=f"{head}{dev:.3e} at {tail}".encode())

    assert workloads.mismatches(cases[cid], report(worst * 3), ref) == []
    assert workloads.mismatches(cases[cid], report(worst / 3), ref) == []
    assert "not within" in workloads.mismatches(cases[cid], report(worst * 30), ref)[0]
    assert "not within" in workloads.mismatches(cases[cid], report(worst / 30), ref)[0]
    moved = report(worst, "(9, 9)" if "(9, 9)" not in text else "(0, 0)")
    assert "oracle report" in workloads.mismatches(cases[cid], moved, ref)[0]
    fewer = workloads.Output(raw=report(worst).raw.replace(b"j + k <= 10", b"j + k <= 5"))
    assert "oracle report" in workloads.mismatches(cases[cid], fewer, ref)[0]


def test_sweep_row_tolerates_nc_within_optimizer_tolerance():
    case = workloads.pool("sweep-optimize")["V0"]
    ref = _reference("sweep-optimize")["V0"]
    first = ref["rows"][0]

    def check(**change):
        rows = [dict(first, **change), *ref["rows"][1:]]
        return workloads.mismatches(case, workloads.Output(raw=b"", rows=rows), ref)

    assert check() == []
    assert check(n_c=first["n_c"] * (1 + 0.5 * workloads.NC_REL_TOL)) == []
    assert check(n_c=first["n_c"] * (1 + 2 * workloads.NC_REL_TOL)) != []
    assert check(N=first["N"] + 1) == [f"row 0: N {first['N'] + 1} != {first['N']}"]
    short = workloads.Output(raw=b"", rows=ref["rows"][:-2])
    assert workloads.mismatches(case, short, ref) == ["row 98: row missing", "row 99: row missing"]


def test_benchmark_json_names_every_metric():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == list(spans.METRIC_UNITS)
    assert all(m["unit"] == spans.METRIC_UNITS[m["name"]] for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
