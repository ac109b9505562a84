"""Tests for trial-count comparisons, brightness optimization, and sweeps."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from homdetect import sweep as sweep_module
from homdetect.bayes import HypothesesIndistinguishableError
from homdetect.photon_stats import (
    DegenerateParameterError,
    ParameterError,
    Protocol,
    ProtocolParams,
)
from homdetect.sweep import (
    SweepResult,
    SweepSpec,
    TWO_SIGMA,
    n_two_sigma,
    optimize_nc,
    preset,
    preset_names,
    run_sweep,
    speedup,
)

LOW_DIRECT = ProtocolParams(protocol=Protocol.DIRECT, xi=0.1, eta=0.8, n_e=0.02, n_i=0.02)
HIGH_DIRECT = ProtocolParams(protocol=Protocol.DIRECT, xi=0.1, eta=0.8, n_e=1.0, n_i=1.0)
HEADLINE = ProtocolParams(
    protocol=Protocol.COHERENT_HOM, xi=0.1, eta=0.9, epsilon=0.9, n_c=6.0, n_e=1.0, n_i=1.0
)


# ---------------------------------------------------------------------------
# trial counts and speed-up
# ---------------------------------------------------------------------------


def test_n_two_sigma_frozen_values():
    assert n_two_sigma(LOW_DIRECT) == 117
    assert n_two_sigma(HIGH_DIRECT) == 3254
    assert n_two_sigma(HEADLINE) == 57


def test_two_sigma_constant():
    assert TWO_SIGMA == 0.954


def test_speedup_is_direct_over_protocol():
    ratio = speedup(HEADLINE)
    n_direct = n_two_sigma(
        ProtocolParams(protocol=Protocol.DIRECT, xi=0.1, eta=0.9, n_e=1.0, n_i=1.0)
    )
    assert ratio == pytest.approx(n_direct / 57, rel=1e-15)
    assert ratio > 10.0


def test_speedup_of_direct_is_one():
    assert speedup(LOW_DIRECT) == 1.0


def test_speedup_keeps_emitter_and_noise_fixed():
    # changing only the reference brightness must leave the baseline alone
    a = speedup(HEADLINE)
    b = speedup(replace(HEADLINE, n_c=2.0))
    assert a / n_two_sigma(replace(HEADLINE, n_c=2.0)) == pytest.approx(
        b / n_two_sigma(HEADLINE), rel=1e-12
    )


def test_saturation_reduces_information():
    # harsher detector cutoffs can only increase the required trials
    counts = [n_two_sigma(HEADLINE, t) for t in (None, 4, 2, 1)]
    assert counts[0] <= counts[1] <= counts[2] <= counts[3]


def test_coherent_n_decreases_with_brightness():
    values = [n_two_sigma(replace(HEADLINE, n_c=nc)) for nc in (0.1, 0.5, 1.0, 4.0, 10.0)]
    assert values == sorted(values, reverse=True)


# ---------------------------------------------------------------------------
# brightness optimization
# ---------------------------------------------------------------------------


def test_optimize_rejects_direct_and_bad_bounds():
    with pytest.raises(ParameterError):
        optimize_nc(LOW_DIRECT)
    with pytest.raises(ParameterError):
        optimize_nc(HEADLINE, bounds=(0.0, 1.0))
    with pytest.raises(ParameterError):
        optimize_nc(HEADLINE, bounds=(2.0, 1.0))


def test_coherent_optimum_saturates_at_the_bound():
    opt = optimize_nc(HEADLINE)
    assert opt.at_bound
    assert opt.n_c_star == 1e3
    assert opt.n_star == n_two_sigma(replace(HEADLINE, n_c=1e3))


def test_incoherent_low_noise_prefers_dark_reference():
    params = ProtocolParams(
        protocol=Protocol.INCOHERENT_HOM, xi=0.1, eta=0.95, epsilon=0.9, n_e=0.02, n_i=0.02
    )
    opt = optimize_nc(params)
    assert opt.n_c_star == 0.0
    assert not opt.at_bound
    assert opt.n_star == n_two_sigma(replace(params, n_c=0.0))
    # the dark reference beats a bright one here, but not direct detection
    assert opt.n_star <= n_two_sigma(replace(params, n_c=1.0))
    assert speedup(replace(params, n_c=0.0)) < 1.0


def test_optimum_beats_a_brightness_scan():
    params = ProtocolParams(
        protocol=Protocol.INCOHERENT_HOM, xi=0.1, eta=0.9, epsilon=0.9, n_e=1.0, n_i=1.0
    )
    opt = optimize_nc(params, 2)
    scan = [
        n_two_sigma(replace(params, n_c=nc), 2)
        for nc in (0.0, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
    ]
    assert opt.n_star <= min(scan)


def test_optimize_flags_indistinguishable_grid():
    hopeless = ProtocolParams(protocol=Protocol.INCOHERENT_HOM, xi=0.0, eta=0.9, epsilon=0.9)
    with pytest.raises(HypothesesIndistinguishableError):
        optimize_nc(hopeless)


def test_flat_optimum_at_unscorable_dark_reference_is_an_error_row(monkeypatch):
    # every brightness scores alike except the dark reference, which cannot
    # be evaluated; the flat optimum n_c = 0 must report that failure
    real = sweep_module._moments_at

    def moments_at(params, t, tail_tol):
        if params.n_c == 0.0:
            raise DegenerateParameterError("dark reference undefined")
        return real(replace(params, n_c=1.0), t, tail_tol)

    monkeypatch.setattr(sweep_module, "_moments_at", moments_at)
    with pytest.raises(DegenerateParameterError, match="dark reference"):
        optimize_nc(HEADLINE)
    (row,) = run_sweep(tiny_spec(protocols=("coherent",), eta=(0.9,), n_e=(1.0,),
                                 n_c="optimize")).rows
    assert row.error == "dark reference undefined"
    assert math.isnan(row.n_c) and row.n_2sigma is None


# ---------------------------------------------------------------------------
# sweep specification
# ---------------------------------------------------------------------------


def test_spec_normalizes_saturations_and_protocols():
    spec = SweepSpec(protocols=("direct",), saturations=("inf", 2))
    assert spec.saturations == (None, 2)
    assert spec.protocols == ("direct",)
    with pytest.raises(ValueError):
        SweepSpec(protocols=("telepathy",))
    with pytest.raises(ParameterError):
        SweepSpec(n_c="maximize")


def test_spec_saturations_are_integers_or_inf():
    spec = SweepSpec(saturations=[None, "inf", 2, "3", 4.0, np.int64(5)])
    assert spec.saturations == (None, None, 2, 3, 4, 5)
    assert all(type(t) is int for t in spec.saturations[2:])
    # refused, never truncated: 2.7 used to run at t = 2 and true at t = 1
    for bad in (2.7, True, "Inf", "2.5", float("inf"), [2]):
        with pytest.raises(ParameterError, match="saturation must be"):
            SweepSpec(saturations=(bad,))


def test_spec_normalizes_nc_bounds_to_a_tuple():
    spec = SweepSpec(nc_bounds=[1e-3, 1e3])
    assert spec.nc_bounds == (1e-3, 1e3)
    assert spec == SweepSpec(nc_bounds=(1e-3, 1e3))
    assert hash(spec) == hash(SweepSpec(nc_bounds=(1e-3, 1e3)))
    # no float cast: integer bounds keep their JSON spelling
    assert SweepSpec(nc_bounds=[1, 10]).to_dict()["nc_bounds"] == [1, 10]


def test_spec_round_trips_through_json():
    spec = SweepSpec(
        protocols=("coherent", "incoherent"),
        xi=0.2,
        eta=(0.8, 0.9),
        n_e=(0.1, 1.0),
        n_c="optimize",
        saturations=(None, 2),
    )
    doc = json.loads(json.dumps(spec.to_dict()))
    assert SweepSpec.from_dict(doc) == spec
    grid = SweepSpec(n_c=(0.5, 6.0))
    assert SweepSpec.from_dict(json.loads(json.dumps(grid.to_dict()))) == grid


def test_spec_rejects_unknown_keys():
    with pytest.raises(ParameterError, match="noise"):
        SweepSpec.from_dict({"protocols": ["direct"], "noise": [1.0]})


# ---------------------------------------------------------------------------
# running sweeps
# ---------------------------------------------------------------------------


def tiny_spec(**kw):
    base = dict(
        protocols=("direct", "coherent"),
        xi=0.1,
        epsilon=0.9,
        eta=(0.8, 0.9),
        n_e=(0.5, 1.0),
        n_c=(2.0, 6.0),
        saturations=(None,),
    )
    base.update(kw)
    return SweepSpec(**base)


def test_row_count_and_order():
    result = run_sweep(tiny_spec())
    # direct collapses the brightness axis: 2 eta x 2 noise = 4 rows,
    # then coherent: 2 eta x 2 noise x 2 nc = 8 rows
    assert len(result.rows) == 12
    assert [r.protocol for r in result.rows[:4]] == ["direct"] * 4
    assert [r.protocol for r in result.rows[4:]] == ["coherent"] * 8
    # protocol-major, then eta, then noise, then brightness
    coherent = result.rows[4:]
    assert [r.eta for r in coherent] == [0.8] * 4 + [0.9] * 4
    assert [r.n_c for r in coherent[:4]] == [2.0, 6.0, 2.0, 6.0]


def test_direct_rows_are_baseline():
    result = run_sweep(tiny_spec())
    for row in result.rows[:4]:
        assert row.n_c == 0.0
        assert row.speedup == 1.0
        assert row.at_bound is False
        assert row.error is None


def test_tied_noise_and_explicit_pairs():
    tied = run_sweep(tiny_spec(protocols=("direct",), n_e=(0.1, 1.0)))
    assert [(r.n_e, r.n_i) for r in tied.rows] == [(0.1, 0.1), (1.0, 1.0)] * 2
    crossed = run_sweep(
        tiny_spec(protocols=("direct",), eta=(0.9,), n_e=(0.1, 1.0), n_i=(0.0, 2.0))
    )
    assert [(r.n_e, r.n_i) for r in crossed.rows] == [
        (0.1, 0.0),
        (0.1, 2.0),
        (1.0, 0.0),
        (1.0, 2.0),
    ]


def test_speedup_column_consistency():
    result = run_sweep(tiny_spec())
    direct_n = {(r.eta, r.n_e): r.n_2sigma for r in result.rows[:4]}
    for row in result.rows[4:]:
        assert row.speedup == pytest.approx(
            direct_n[(row.eta, row.n_e)] / row.n_2sigma, rel=1e-12
        )


def test_error_rows_capture_failures():
    # xi = 0 makes every hypothesis pair identical; all rows must carry
    # error text instead of aborting the sweep
    result = run_sweep(tiny_spec(xi=0.0))
    assert all(r.error is not None for r in result.rows)
    assert all(r.n_2sigma is None for r in result.rows)


def test_csv_layout(tmp_path):
    result = run_sweep(tiny_spec(protocols=("direct", "coherent"), eta=(0.9,), n_e=(1.0,)))
    text = result.csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "protocol,eta,n_e,n_i,n_c,t,N,speedup,at_bound"
    assert len(lines) == 1 + 3
    direct_cells = lines[1].split(",")
    assert direct_cells[0] == "direct"
    assert direct_cells[5] == "inf"
    assert direct_cells[8] == "false"
    path = tmp_path / "sweep.csv"
    result.to_csv(path)
    assert path.read_text() == text


def test_csv_error_rows_leave_result_cells_empty():
    result = run_sweep(tiny_spec(xi=0.0, protocols=("coherent",), eta=(0.9,), n_e=(1.0,)))
    line = result.csv_text().strip().split("\n")[1]
    cells = line.split(",")
    assert len(cells) == 9
    assert cells[6] == cells[7] == cells[8] == ""


def test_json_rows_carry_errors_and_values():
    ok = run_sweep(tiny_spec(protocols=("coherent",), eta=(0.9,), n_e=(1.0,), n_c=(6.0,)))
    doc = ok.json_dict()
    assert doc["spec"]["protocols"] == ["coherent"]
    row = doc["rows"][0]
    assert row["error"] is None and row["N"] == ok.rows[0].n_2sigma
    assert row["t"] == "inf"
    bad = run_sweep(tiny_spec(xi=0.0, protocols=("coherent",), eta=(0.9,), n_e=(1.0,)))
    assert bad.json_dict()["rows"][0]["error"]


def test_saturated_sweep_uses_integer_thresholds():
    result = run_sweep(
        tiny_spec(protocols=("coherent",), eta=(0.9,), n_e=(1.0,), saturations=(2,))
    )
    assert all(r.t == 2 for r in result.rows)
    assert "2" in result.csv_text().split("\n")[1].split(",")[5]


def test_optimizing_sweep_emits_optimum_per_row():
    spec = SweepSpec(
        protocols=("incoherent",),
        xi=0.1,
        epsilon=0.9,
        eta=(0.95,),
        n_e=(0.02,),
        n_c="optimize",
        saturations=(None,),
    )
    result = run_sweep(spec)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.n_c == 0.0
    assert row.n_2sigma == 119
    assert row.speedup < 1.0


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_preset_names_are_stable():
    assert preset_names() == ("fig2a", "fig2b", "fig3a", "fig3b", "fig3c", "figS4")


def test_preset_lookup():
    with pytest.raises(ParameterError):
        preset("fig9z")
    spec = preset("fig2a")
    assert spec.protocols == ("direct", "coherent", "incoherent")
    assert len(spec.n_e) == 13
    assert spec.saturations == (None, 4, 2, 1)
    assert preset("fig3a").n_c == "optimize"
    assert preset("fig3c").saturations == (4, 2, 1)
    assert preset("figS4").protocols == ("coherent", "incoherent")


def test_presets_are_fresh_instances():
    assert preset("fig2b") is not preset("fig2b")
    assert preset("fig2b") == preset("fig2b")
