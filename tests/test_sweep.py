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

    def moments_at(params, t):
        if params.n_c == 0.0:
            raise DegenerateParameterError("dark reference undefined")
        return real(replace(params, n_c=1.0), t)

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
    # bounds are spec numbers like every other: floats, equal to the ints given
    assert SweepSpec(nc_bounds=[1, 10]).to_dict()["nc_bounds"] == [1, 10]


@pytest.mark.parametrize("field, value, same_as", [
    ("c_target", "0.9", 0.9),
    ("epsilon", "0.5", 0.5),
    ("xi", "0.1", 0.1),
    ("nc_bounds", ["1", "1000"], [1.0, 1000.0]),
    ("eta", ["0.9", 1], [0.9, 1.0]),
    ("xi", True, None),
    ("eta", [True], None),
    ("nc_bounds", [False, 1000], None),
    ("c_target", "two sigma", None),
    # nc_bounds is two finite numbers with 0 < lo < hi
    ("nc_bounds", [1], None),
    ("nc_bounds", [10, 1], None),
    ("nc_bounds", [0, 10], None),
    ("nc_bounds", [1, 10, 100], None),
    ("nc_bounds", [1, "inf"], None),
])
def test_spec_numbers_follow_one_rule(field, value, same_as):
    # a numeric string used to stay a string in scalar fields (a TypeError
    # deep in the sweep, or echoed in the JSON spec) and a boolean ran as 1
    if same_as is None:
        with pytest.raises(ParameterError, match=f"sweep spec {field}"):
            SweepSpec.from_dict({field: value})
        return
    spec = SweepSpec.from_dict({field: value})
    assert spec == SweepSpec.from_dict({field: same_as})
    assert json.dumps(spec.to_dict()) == json.dumps(SweepSpec.from_dict({field: same_as}).to_dict())


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


# The N column of the fig2a and fig2b presets, row by row.  These rows pass
# through every saturation (t = inf, 4, 2, 1), so apply_saturation is pinned too.
FIG2A_N = (
    69, 69, 69, 69, 93, 93, 93, 93, 132, 132, 132, 134, 200, 200, 200, 205, 318, 318, 318, 336,
    526, 526, 530, 596, 894, 895, 927, 1161, 1550, 1557, 1746, 2616, 2716, 2812, 3878, 7667,
    4789, 5890, 12720, 37967, 8476, 21352, 104115, 542980, 15032, 385012, 5998457, 58428540,
    26690, 247123902, 13259441846, 238790328407, 36, 40, 75, 197, 36, 41, 75, 200, 37, 41, 77,
    204, 37, 42, 79, 212, 38, 43, 83, 227, 40, 46, 91, 256, 43, 51, 108, 317, 48, 61, 144, 460,
    57, 83, 240, 883, 73, 147, 597, 2766, 102, 446, 3189, 20687, 153, 4513, 73623, 734331, 244,
    587656, 25718300, 418751841, 907, 1512, 5361, 14103, 914, 1531, 5447, 14325, 926, 1565,
    5603, 14727, 947, 1626, 5888, 15464, 986, 1741, 6427, 16850, 1056, 1964, 7490, 19570, 1186,
    2427, 9748, 25323, 1432, 3515, 15187, 39156, 1918, 6713, 31074, 80777, 2919, 20687, 92756,
    267979, 5082, 128552, 502095, 2054207, 9911, 1393470, 10186021, 73192351, 20703, 116224897,
    3142303512, 41742444795,
)
FIG2B_N = (
    2716, 2812, 3878, 7667, 1020, 762, 560, 408, 297, 217, 161, 122, 95, 76, 63, 54, 49, 1035,
    774, 569, 416, 303, 223, 167, 128, 102, 87, 81, 88, 126, 1283, 964, 714, 528, 392, 296,
    231, 189, 166, 163, 190, 284, 632, 2233, 1688, 1264, 948, 721, 563, 461, 404, 391, 438,
    605, 1134, 3344, 4227, 4266, 4311, 4351, 4361, 4294, 4088, 3708, 3193, 2650, 2175, 1809,
    1547, 4326, 4384, 4461, 4554, 4652, 4732, 4760, 4725, 4697, 4871, 5613, 7504, 10687, 5627,
    5842, 6166, 6660, 7428, 8648, 10647, 14021, 19681, 27531, 32061, 30411, 34530, 10336,
    11032, 12142, 13987, 17247, 23559, 37578, 74718, 166258, 167757, 96645, 80711, 121972,
)


@pytest.mark.parametrize("name, expected", [("fig2a", FIG2A_N), ("fig2b", FIG2B_N)],
                         ids=["fig2a", "fig2b"])
def test_fast_presets_keep_their_trial_counts(name, expected):
    rows = run_sweep(preset(name)).rows
    assert all(r.error is None for r in rows)
    assert tuple(r.n_2sigma for r in rows) == expected
