"""Tests for trial-count comparisons, brightness optimization, and sweeps."""

import json
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from homdetect import bayes, photon_stats
from homdetect import sweep as sweep_module
from homdetect.bayes import (
    HypothesesIndistinguishableError,
    HypothesisPair,
    loglik_moments,
    n_for_confidence,
)
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
from mp_reference import reference_moments, within

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
    # one detector scores a cutoff above two detectors' budget (t = 5179),
    # and one beyond the whole table leaves the count as it is
    assert n_two_sigma(LOW_DIRECT, 6000) == n_two_sigma(LOW_DIRECT)


@pytest.mark.simd_free
def test_two_detector_cutoff_above_the_table_leaves_n():
    # a two-detector fold at a t above the table's k_max pads the table with
    # empty counts and puts its untabulated mass in the corner, so it gives
    # the unsaturated N: on seeded coherent and incoherent pairs of k_max
    # 20-255, one count and nine counts above the table
    rng = np.random.default_rng(20261023)
    k_maxes = []
    for i in range(40):
        params = ProtocolParams(
            protocol=(Protocol.COHERENT_HOM, Protocol.INCOHERENT_HOM)[i % 2],
            xi=rng.uniform(0.05, 0.5), eta=rng.uniform(0.3, 1.0), epsilon=rng.uniform(0.5, 1.0),
            n_c=10.0 ** rng.uniform(-1.0, 2.5), n_e=10.0 ** rng.uniform(-2.0, 1.0),
            n_i=rng.uniform(), cos_theta=rng.uniform(-1.0, 1.0))
        k_max = HypothesisPair.from_params(params).present.k_max
        k_maxes.append(k_max)
        assert n_two_sigma(params, k_max + 1) == n_two_sigma(params, k_max + 9) == \
            n_two_sigma(params), params
    assert min(k_maxes) == 20 and max(k_maxes) > 250


# fig2a's rows at n_e = n_i = 10 whose shipped N is not the N of the
# 40-digit moments: (protocol, t) -> (shipped N, 40-digit N)
_FIG2A_OFF_N = {
    ("direct", 1): (238_790_328_407, 238_790_327_421),
    ("direct", 2): (13_259_441_846, 13_259_441_848),
    ("incoherent", 1): (41_742_444_795, 41_742_444_746),
}


def test_fig2_saturated_and_direct_rows_ship_the_40_digit_n():
    # every saturated row and every direct baseline of fig2a and fig2b, 212
    # rows at their shipped n_c, ships n_for_confidence of the 40-digit
    # moments (tests/mp_reference.py), but for the three fig2a rows above,
    # pinned with both values.  There a dim emitter on a bright background
    # leaves P ~ A in every fold cell, so each mean is a sum of differences
    # of nearly equal logs: direct at t = 1 has mu_present 3.9e-17 off,
    # absolute, and its spread 7e-15, relative.  The shipped N rest on
    # numpy's SIMD loops, so this test stays out of the no-AVX-512 selection
    off, checked = {}, 0
    for name in ("fig2a", "fig2b"):
        spec = preset(name)
        for row in run_sweep(spec).rows:
            if row.t is None and row.protocol != "direct":
                continue
            params = ProtocolParams(protocol=row.protocol, xi=spec.xi, eta=row.eta,
                                    epsilon=spec.epsilon, n_c=row.n_c, n_e=row.n_e, n_i=row.n_i,
                                    cos_theta=spec.cos_theta)
            reference = reference_moments(params, photon_stats._table_k_max(params), row.t)
            n = n_for_confidence(TWO_SIGMA, reference)
            checked += 1
            if n != row.n_2sigma:
                off[(name, row.protocol, row.n_e, row.t)] = (row.n_2sigma, n)
    assert checked == 212
    assert off == {("fig2a", protocol, 10.0, t): ns for (protocol, t), ns in _FIG2A_OFF_N.items()}


# the direct baselines of fig3c and figS4 at n_e = n_i = 10 whose N is not
# the N of the 40-digit moments: (eta, t) -> (shipped N, 40-digit N); fig3c
# ships each, and figS4 those at t = 2
_DIRECT_OFF_N = {
    (0.5, 1): (14_474_864_038, 14_474_864_040),
    (0.8, 1): (111_780_567_733, 111_780_567_200),
    (0.8, 2): (6_568_595_259, 6_568_595_254),
    (0.9, 1): _FIG2A_OFF_N[("direct", 1)],
    (0.9, 2): _FIG2A_OFF_N[("direct", 2)],
    (0.95, 1): (352_390_509_302, 352_390_514_698),
    (0.95, 2): (19_043_019_980, 19_043_019_969),
    (0.99, 1): (483_028_623_219, 483_028_603_504),
    (0.99, 2): (25_554_758_192, 25_554_758_125),
}


def test_fig3c_and_figs4_direct_baselines_ship_the_40_digit_n():
    # every direct baseline of fig3c and figS4, 125 (eta, n_e, t) points,
    # is n_for_confidence of the 40-digit moments, but for the points
    # above, pinned with both values (fig2a's direct rows at eta 0.9 among
    # them).  Each row's pinned speedup x N (tests/preset_columns) gives
    # its block's baseline.  The shipped N rest on numpy's SIMD loops, so
    # this test stays out of the no-AVX-512 selection
    off, checked = {}, 0
    for name in ("fig3c", "figS4"):
        spec = preset(name)
        baselines = {}
        for eta in spec.eta:
            for n_e in spec.n_e:
                params = ProtocolParams(protocol="direct", xi=spec.xi, eta=eta, n_c=0.0, n_e=n_e,
                                        n_i=n_e)
                k_max = photon_stats._table_k_max(params)
                for t in spec.saturations:
                    n = baselines[(eta, n_e, t)] = n_two_sigma(params, t)
                    reference = n_for_confidence(TWO_SIGMA, reference_moments(params, k_max, t))
                    checked += 1
                    if n != reference:
                        off[(name, eta, n_e, t)] = (n, reference)
        with open(os.path.join(os.path.dirname(__file__), "preset_columns", f"{name}.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        points = sweep_module.grid_points(spec)
        assert len(rows) == len(points), name
        for (_, eta, n_e, _, t, _), (_, _, n, ratio, _) in zip(points, rows):
            assert round(float(ratio) * int(n)) == baselines[(eta, n_e, t)], (name, eta, n_e, t)
    assert checked == 125
    assert off == {(name, eta, 10.0, t): ns for name in ("fig3c", "figS4")
                   for (eta, t), ns in _DIRECT_OFF_N.items() if t in preset(name).saturations}
    assert len(off) == 13


BRIGHT = ProtocolParams(protocol=Protocol.COHERENT_HOM, xi=0.1, eta=0.99, epsilon=0.9,
                        n_c=1e4, n_e=10.0, n_i=10.0)


@pytest.mark.parametrize("query", [n_two_sigma, speedup, optimize_nc],
                         ids=["n_two_sigma", "speedup", "optimize_nc"])
def test_over_budget_saturation_is_refused_before_a_two_detector_build(query, monkeypatch):
    # each bright table is 5812^2 cells; t = 6000 on two detectors is
    # refused first, and only speedup's direct baseline is built: every
    # scoring starts from its absent table
    raw = bayes.build_distribution

    def direct_only(params):
        assert params.protocol is Protocol.DIRECT, "a two-detector table was built"
        return raw(params)

    monkeypatch.setattr(bayes, "build_distribution", direct_only)
    with pytest.raises(ParameterError, match="^scoring saturation threshold 6000 on 2 detectors "
                                             "needs about 1374 MiB, above the 1024 MiB budget$"):
        query(BRIGHT, 6000)


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


@pytest.mark.parametrize("bounds", [(1e-3, math.inf), (1e-3, math.nan)])
def test_optimize_refuses_bounds_the_sweep_spec_refuses(bounds):
    # an infinite upper bound used to reach np.geomspace and fail there
    with pytest.raises(ParameterError, match="finite"):
        optimize_nc(HEADLINE, bounds=bounds)
    with pytest.raises(ParameterError, match="finite"):
        SweepSpec(nc_bounds=bounds)


def test_coherent_optimum_saturates_at_the_bound():
    opt = optimize_nc(HEADLINE)
    assert opt.at_bound
    assert opt.n_c_star == 1e3
    assert opt.n_star == n_two_sigma(replace(HEADLINE, n_c=1e3))


def test_optimum_stops_at_the_brightest_candidate_within_the_cap(monkeypatch):
    # under a cap of 300 counts the five brightest grid candidates, from
    # n_c = 392 on, have tables the cap refuses: they are dropped, and the
    # brightest candidate left is the optimum at the bound
    monkeypatch.setattr(photon_stats, "K_MAX_HARD_CAP", 300)
    grid = np.geomspace(1e-3, 1e3, sweep_module.NC_GRID_POINTS)
    (row,) = run_sweep(SweepSpec(protocols=("coherent",), n_c="optimize")).rows
    assert row.error is None and row.at_bound
    assert (row.n_c, row.n_2sigma) == (float(grid[-6]), 36)
    assert row.n_2sigma == n_two_sigma(replace(HEADLINE, n_c=row.n_c))
    with pytest.raises(photon_stats.TruncationError, match="exceeds the cap of 300"):
        n_two_sigma(replace(HEADLINE, n_c=float(grid[-5])))


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
    # be built; the flat optimum n_c = 0 must report that failure
    raw = sweep_module._brightness_moments

    def scored(params, saturations):
        if params[0].n_c == 0.0:
            raise DegenerateParameterError("dark reference undefined")
        return raw([p._with_field("n_c", 1.0) for p in params], saturations)

    monkeypatch.setattr(sweep_module, "_brightness_moments", scored)
    with pytest.raises(DegenerateParameterError, match="dark reference"):
        optimize_nc(HEADLINE)
    (row,) = run_sweep(tiny_spec(protocols=("coherent",), eta=(0.9,), n_e=(1.0,),
                                 n_c="optimize")).rows
    assert row.error == "dark reference undefined"
    assert row.n_c is None and row.n_2sigma is None


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
    for unbounded in (None, "inf"):
        spec = SweepSpec(saturations=[unbounded, 2, "3", 4.0, np.int64(5)])
        assert spec.saturations == (None, 2, 3, 4, 5)
        assert all(type(t) is int for t in spec.saturations[1:])
    # refused, never truncated: 2.7 used to run at t = 2 and true at t = 1
    for bad in (2.7, True, "Inf", "2.5", float("inf"), [2]):
        with pytest.raises(ParameterError, match="saturation must be"):
            SweepSpec(saturations=(bad,))
    # out of range for apply_saturation: refused by the spec, with its messages
    for bad, message in ((0, "must be an integer >= 1, got 0"),
                         (-2, "must be an integer >= 1, got -2"),
                         (10001, "10001 exceeds the cap of 10000"),
                         ("20000", "20000 exceeds the cap of 10000"),
                         (20000.0, "20000 exceeds the cap of 10000")):
        with pytest.raises(ParameterError, match=f"^saturation threshold {message}"):
            SweepSpec(saturations=(None, bad))
    # above t = 5179 a two-detector pair's scoring exceeds the 1 GiB budget
    assert SweepSpec(protocols=("direct",), saturations=(10_000,)).saturations == (10_000,)
    assert SweepSpec(protocols=("coherent",), saturations=(5179,)).saturations == (5179,)
    for protocols in (("coherent",), ("direct", "incoherent")):
        with pytest.raises(ParameterError, match="^scoring saturation threshold 5180 on 2 "):
            SweepSpec(protocols=protocols, saturations=(5180,))


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


@pytest.mark.parametrize("field", ["protocols", "eta", "n_e", "n_i", "n_c", "saturations"])
def test_spec_refuses_an_empty_axis(field):
    # an empty axis used to run no point at all and succeed
    with pytest.raises(ParameterError, match=f"sweep spec {field} must not be empty"):
        SweepSpec.from_dict({field: []})


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
        params = ProtocolParams(protocol=row.protocol, xi=result.spec.xi, eta=row.eta,
                                epsilon=result.spec.epsilon, n_c=row.n_c, n_e=row.n_e,
                                n_i=row.n_i, cos_theta=result.spec.cos_theta)
        assert speedup(params, row.t, result.spec.c_target) == row.speedup


def test_error_rows_capture_failures():
    # xi = 0 makes every hypothesis pair identical; all rows must carry
    # error text instead of aborting the sweep
    result = run_sweep(tiny_spec(xi=0.0))
    assert all(r.error is not None for r in result.rows)
    assert all(r.n_2sigma is None for r in result.rows)


def test_csv_layout():
    result = run_sweep(tiny_spec(protocols=("direct", "coherent"), eta=(0.9,), n_e=(1.0,)))
    lines = result.csv_text().strip().split("\n")
    assert lines[0] == "protocol,eta,n_e,n_i,n_c,t,N,speedup,at_bound"
    assert len(lines) == 1 + 3
    direct_cells = lines[1].split(",")
    assert direct_cells[0] == "direct"
    assert direct_cells[5] == "inf"
    assert direct_cells[8] == "false"


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


@pytest.mark.parametrize("n_c", ["optimize", (0.5, 6.0)])
@pytest.mark.parametrize("saturations", [(None, 4, 2, 1), (2, None)])
def test_sweep_rows_equal_points_evaluated_alone(saturations, n_c):
    # a sweep folds one unsaturated build per brightness at every
    # saturation of its row group; each row must still be what its point
    # gives alone.  n_e = 0 leaves direct detection a zero spread, so its
    # rows are error rows and the two-detector rows there have no speedup
    spec = SweepSpec(protocols=("direct", "coherent", "incoherent"), eta=(0.9,),
                     n_e=(0.0, 1.0), n_c=n_c, saturations=saturations,
                     nc_bounds=(1e-2, 10.0))
    rows = run_sweep(spec).rows
    points = sweep_module.grid_points(spec)
    assert len(rows) == len(points)
    for row, point in zip(rows, points):
        assert row == sweep_module.evaluate_point(spec, point)
    assert any(r.error is None for r in rows) and any(r.error is not None for r in rows)


@pytest.mark.parametrize("n_c", ["optimize", (1.0,)])
@pytest.mark.parametrize("t", [None, 4, 2, 1])
def test_rows_keep_their_n_when_only_the_direct_baseline_fails(t, n_c):
    # without background, direct detection's absent truth yields one record
    # alone, so the baseline's spread is zero and it fails; the direct row
    # is an error row, and each two-detector row keeps its N, n_c and
    # at_bound with no speedup
    spec = SweepSpec(protocols=("direct", "coherent", "incoherent"), xi=0.1, epsilon=1.0,
                     eta=(0.9,), n_e=(0.0,), n_c=n_c, saturations=(t,), nc_bounds=(1e-2, 10.0))
    direct, *rows = run_sweep(spec).rows
    assert direct.error.startswith("log-ratio spread is zero")
    assert (direct.n_2sigma, direct.speedup, direct.at_bound) == (None, None, None)
    assert direct.n_c == 0.0
    for row in rows:
        assert row.error.startswith("direct baseline: log-ratio spread is zero")
        assert row.speedup is None and isinstance(row.at_bound, bool)
        assert row.n_c is not None and row.n_2sigma >= 1
        params = ProtocolParams(protocol=row.protocol, xi=0.1, eta=0.9, epsilon=1.0,
                                n_c=row.n_c, n_e=0.0, n_i=0.0)
        assert row.n_2sigma == n_two_sigma(params, t)
        cells = SweepResult(spec, (row,)).csv_text().splitlines()[1].split(",")
        assert cells[4:] == ["%.17g" % row.n_c, "inf" if t is None else str(t), str(row.n_2sigma), "",
                             "true" if row.at_bound else "false"]
    if n_c != "optimize" and t is None:
        assert [r.n_2sigma for r in rows] == [34, 563]


def _count_tables(monkeypatch) -> dict:
    """The params of every absent table built (``build_distribution``)
    and every present table (its bracket), as scoring builds them."""
    tables = {"absent": [], "present": []}

    def counted(key, raw):
        def wrapped(params, *args):
            tables[key].append(params)
            return raw(params, *args)
        return wrapped

    monkeypatch.setattr(bayes, "build_distribution", counted("absent", bayes.build_distribution))
    monkeypatch.setattr(bayes, "_bracketed", counted("present", bayes._bracketed))
    return tables


def _optimized(saturations, protocols=("coherent",), eta=(0.9,)):
    return SweepSpec(protocols=protocols, eta=eta, n_e=(1.0,), n_c="optimize",
                     saturations=saturations, nc_bounds=(1e-2, 10.0))


# two (eta, n_e, n_i) blocks, each holding a direct row, two optimized
# protocols and the baseline they share
_BLOCKS = dict(protocols=("direct", "coherent", "incoherent"), eta=(0.9, 0.5))


@pytest.mark.parametrize("spec, absent, present", [
    (_optimized((None, 4, 2, 1)), 104, 104),
    (_optimized((1, 2, 4, None)), 104, 104),
    (_optimized((None, 2)), 76, 76),
    (_optimized((2, None)), 76, 76),
    (_optimized((None,)), 62, 62),
    (_optimized((None, 2), **_BLOCKS), 306, 308),
    (_optimized((2, None), **_BLOCKS), 306, 308),
    (_optimized((None, 4, 2, 1), **_BLOCKS), 362, 364),
    (preset("fig2a"), 26, 39),
    (preset("fig2b"), 14, 27),
], ids=["inf-4-2-1", "1-2-4-inf", "inf-2", "2-inf", "inf",
        "blocks-inf-2", "blocks-2-inf", "blocks-inf-4-2-1", "fig2a", "fig2b"])
def test_sweep_builds_each_brightness_once_per_row_group(monkeypatch, spec, absent, present):
    tables = _count_tables(monkeypatch)
    run_sweep(spec)
    # each brightness any row scores is built once, whatever the order of
    # the saturations, and each block's direct baseline once; the coherent
    # and incoherent rows at a brightness share its absent table, and
    # optimized rows share only the dark endpoint n_c = 0 of their block
    assert (len(tables["absent"]), len(tables["present"])) == (absent, present)
    if spec == _optimized((None, 4, 2, 1)):
        tables["absent"].clear()
        tables["present"].clear()
        for point in sweep_module.grid_points(spec):
            sweep_module.evaluate_point(spec, point)
        # alone, each row builds every grid candidate and its baseline
        assert (len(tables["absent"]), len(tables["present"])) == (290, 290)


@pytest.mark.parametrize("name, expected", [("fig2a", 39), ("fig2b", 27)])
def test_sweep_makes_one_params_per_brightness(monkeypatch, name, expected):
    # a row group's rows of every saturation share their brightness's
    # params, and a block's direct rows share theirs with its baseline:
    # fig2a has 13 background pairs times three protocols, where one per
    # row made 208
    made = []
    raw = ProtocolParams.__post_init__

    def counted(self):
        made.append(self)
        raw(self)

    monkeypatch.setattr(ProtocolParams, "__post_init__", counted)
    spec = preset(name)
    made.clear()
    run_sweep(spec)
    assert len(made) == expected


@pytest.mark.simd_free
@pytest.mark.parametrize("name, confidences, searches, estimates", [
    ("fig2a", 312, 156, 156),
    ("fig2b", 216, 108, 108),
    pytest.param(_optimized((None, 2), **_BLOCKS), None, 568, 568, id="blocks-inf-2"),
    pytest.param(_optimized((2, None), **_BLOCKS), None, 568, 568, id="blocks-2-inf"),
    pytest.param(_optimized((None, 4, 2, 1), **_BLOCKS), None, 1204, 1204,
                 id="blocks-inf-4-2-1"),
])
def test_sweep_search_work(monkeypatch, name, confidences, searches, estimates):
    # each fig2 row's N search makes one Newton estimate and confirms its
    # window with two confidences, which are already adjacent integers: a
    # change that adds search work shows here, as it does in the optimized
    # rows of several protocols and blocks.  Those rows' _confidences calls
    # are left out: like figS4's (test_figs4_work), their count rests on
    # the SIMD loops numpy dispatches on the CPU (8 674 / 8 674 / 18 298
    # with AVX-512, 8 673 / 8 673 / 18 294 without it on the same host),
    # where their searches and Newton estimates hold either way
    calls = {"confidences": 0, "searches": 0, "estimates": 0}

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(bayes, "_confidences", counted("confidences", bayes._confidences))
    monkeypatch.setattr(bayes, "_crossing", counted("searches", bayes._crossing))
    monkeypatch.setattr(bayes, "_newton_n", counted("estimates", bayes._newton_n))
    run_sweep(preset(name) if isinstance(name, str) else name)
    assert (calls["searches"], calls["estimates"]) == (searches, estimates)
    if confidences is not None:
        assert calls["confidences"] == confidences


@pytest.mark.simd_free
def test_figs4_work(monkeypatch):
    # figS4's absent and present tables, fold stacks, N searches, Newton
    # estimates and params made, and its t = None scorings, each a
    # _lattice_moments call, with those it takes on the sub-lattice:
    # a change that adds work to the largest preset shows here.  Each
    # block's coherent and incoherent rows share the absent table of their
    # dark endpoint n_c = 0 alone, so 25 of 3 875 pairs build none.  Its
    # _confidences calls are left out: like its bytes, their count rests
    # on the SIMD loops numpy dispatches on the CPU (103 481, 103 507,
    # 103 519 and 103 527 have been seen, with AVX-512 on and off), where
    # the others have matched on every host, with AVX-512 on and off
    tables = _count_tables(monkeypatch)
    calls = {"stacks": 0, "searches": 0, "estimates": 0, "params": 0, "unsaturated": 0,
             "sub_lattice": 0}

    def counted(key, fn, when=lambda *args: True):
        def wrapped(*args, **kwargs):
            calls[key] += when(*args)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(bayes, "_stacked_moments", counted("stacks", bayes._stacked_moments))
    monkeypatch.setattr(bayes, "_crossing", counted("searches", bayes._crossing))
    monkeypatch.setattr(bayes, "_newton_n", counted("estimates", bayes._newton_n))
    monkeypatch.setattr(ProtocolParams, "__post_init__",
                        counted("params", ProtocolParams.__post_init__))
    lattice = bayes._lattice_moments

    def sub_lattice(present, absent):
        moments = lattice(present, absent)
        calls["unsaturated"] += 1
        calls["sub_lattice"] += moments is not None
        return moments

    monkeypatch.setattr(bayes, "_lattice_moments", sub_lattice)
    spec = preset("figS4")
    calls["params"] = 0
    run_sweep(spec)
    work = [calls[key] for key in ("stacks", "searches", "estimates", "params")]
    assert (len(tables["absent"]), len(tables["present"]), *work) == (3850, 3875, 3850, 7305,
                                                                       6780, 75)
    assert (calls["unsaturated"], calls["sub_lattice"]) == (3245, 483)


def _key(params: ProtocolParams, t: int | None) -> tuple:
    """The key of params' moments at t in the row group of their block."""
    return (params.protocol.value, params.n_c, t)


@pytest.mark.simd_free
@pytest.mark.parametrize("protocol", list(Protocol))
def test_row_group_scoring_keeps_every_bit(protocol):
    # a miss at t scores t and every later saturation, and no earlier one,
    # from the folded arrays; each equals loglik_moments of the folded
    # pair exactly
    rng = np.random.default_rng(20261024)
    saturations = (None, 7, 4, 2, 1)
    for i in range(6):
        params = ProtocolParams(protocol=protocol, xi=rng.uniform(), eta=rng.uniform(0.1, 1.0),
                                epsilon=rng.uniform(), n_c=10.0 ** rng.uniform(-1.0, 1.0),
                                n_e=10.0 ** rng.uniform(-2.0, 1.0), n_i=rng.uniform(),
                                cos_theta=rng.uniform(-1.0, 1.0))
        group = sweep_module._RowGroup(saturations)
        group.get(params, saturations[i % 2])
        assert list(group.moments) == [_key(params, t) for t in saturations[i % 2:]]
        pair = HypothesisPair.from_params(params)
        for t in saturations[i % 2:]:
            assert group.moments[_key(params, t)] == loglik_moments(pair.saturated(t)), (params, t)


def _params_at_k_max(rng, k_max: int) -> ProtocolParams:
    """Random two-detector params whose table spans about 0..k_max counts:
    n_c is solved for the mean count per detector mu, where
    mu + 12 sqrt(mu + 1) = k_max."""
    root = (-12.0 + math.sqrt(144.0 + 4.0 * (k_max + 1))) / 2.0
    mu, eta = root * root - 1.0, rng.uniform(0.5, 1.0)
    n_e, n_i = 10.0 ** rng.uniform(-2.0, 1.0, size=2)
    coherent = rng.uniform() < 0.5
    return ProtocolParams(protocol="coherent" if coherent else "incoherent",
                          xi=rng.uniform(0.05, 0.5), eta=eta, epsilon=rng.uniform(0.5, 1.0),
                          n_c=(2.0 * mu - eta * n_e - 2.0 * n_i) / eta, n_e=n_e, n_i=n_i,
                          cos_theta=rng.choice([1.0, rng.uniform(-1.0, 1.0)]) if coherent else 0.0)


@pytest.mark.simd_free
def test_row_group_scores_bright_pairs_on_a_checked_sub_lattice(monkeypatch):
    # a two-detector pair of k_max >= bayes._LATTICE_K_MAX has its t = None
    # moments taken over every second count where they agree with every
    # third's: an accepted result is within bayes._LATTICE_TOL of the
    # whole-table moments, and a refused one, as every smaller pair, is
    # them exactly; every fold keeps every bit
    fallbacks = []
    lattice = bayes._lattice_moments

    def checked(present, absent):
        moments = lattice(present, absent)
        if moments is None:
            fallbacks.append(present)
        return moments

    monkeypatch.setattr(bayes, "_lattice_moments", checked)
    whole = loglik_moments
    rng = np.random.default_rng(20261020)
    cases = [(_params_at_k_max(rng, k), None) for k in rng.integers(20, 401, size=10)]
    cases += [
        # coherent at cos_theta = 1, mu 29.7: every second count misses by 3e-6
        (ProtocolParams(protocol="coherent", xi=0.1, eta=0.99, epsilon=0.9, n_c=60.0,
                        n_e=0.01, n_i=0.01), "refused"),
        # incoherent at mu 496.5, k_max 765
        (ProtocolParams(protocol="incoherent", xi=0.1, eta=0.99, epsilon=0.9, n_c=1000.0,
                        n_e=1.0, n_i=1.0, cos_theta=0.0), "accepted"),
    ]
    saturations = (None, 4, 2, 1)
    verdicts = []
    for params, expected in cases:
        group = sweep_module._RowGroup(saturations)
        fallbacks.clear()
        moments = group.get(params, None)
        pair = HypothesisPair.from_params(params)
        verdict = "refused" if fallbacks else "accepted"
        if verdict == "refused":
            assert moments == whole(pair), params
        else:
            assert within(moments, whole(pair), bayes._LATTICE_TOL), params
        if pair.present.k_max < bayes._LATTICE_K_MAX:
            assert verdict == "refused", params
        assert expected in (None, verdict), params
        for t in saturations[1:]:
            assert group.moments[_key(params, t)] == whole(pair.saturated(t)), (params, t)
        verdicts.append((pair.present.k_max, verdict))
    # the seeded pairs span small tables, and bright ones both refused and
    # accepted by the check
    seeded = verdicts[:-2]
    assert min(seeded)[0] < 64 and max(seeded)[0] > 300
    assert {"accepted", "refused"} <= {v for k, v in seeded if k >= bayes._LATTICE_K_MAX}


def _own_moments(params: ProtocolParams, t: int | None):
    """A protocol's moments at t from a pair of its own, as the sweep took
    them before the row group scored protocols together."""
    pair = HypothesisPair.from_params(params)
    if t is None:
        return bayes._lattice_moments(pair.present.probs, pair.absent.probs) or loglik_moments(pair)
    return loglik_moments(pair.saturated(t))


def _shared_block(rng, k_max: int | None = None) -> tuple[ProtocolParams, ProtocolParams]:
    """Seeded coherent and incoherent params of one sweep block at one
    brightness: a small one, or one whose tables span about 0..k_max
    counts."""
    if k_max is None:
        base = ProtocolParams(protocol="incoherent", xi=rng.uniform(), eta=rng.uniform(0.1, 1.0),
                              epsilon=rng.uniform(), n_c=10.0 ** rng.uniform(-1.0, 1.0),
                              n_e=10.0 ** rng.uniform(-2.0, 1.0), n_i=rng.uniform())
    else:
        base = _params_at_k_max(rng, k_max)
    return (replace(base, protocol="coherent", cos_theta=rng.choice([1.0, rng.uniform(-1.0, 1.0)])),
            replace(base, protocol="incoherent"))


def _holding(saturations, *params) -> "sweep_module._RowGroup":
    group = sweep_module._RowGroup(saturations)
    for p in params:
        group.params[(p.protocol.value, p.n_c)] = p
    return group


@pytest.mark.simd_free
def test_shared_brightness_keeps_every_bit(monkeypatch):
    # a row group scores every two-detector protocol it holds at a
    # brightness from one absent table, from the t of the lookup that
    # misses on: each protocol's moments at each saturation equal a build
    # of its own, bit for bit, whichever protocol asks and from whichever t,
    # from one shared call
    calls = []
    shared = sweep_module._brightness_moments

    def counted(params, saturations):
        calls.append(len(params))
        return shared(params, saturations)

    monkeypatch.setattr(sweep_module, "_brightness_moments", counted)
    rng = np.random.default_rng(20261021)
    saturations = (None, 7, 4, 2, 1)
    k_maxes = []
    for i, k_max in enumerate([None] * 5 + [int(k) for k in rng.integers(73, 260, size=5)]):
        block = _shared_block(rng, k_max)
        first, other = block if i % 2 else block[::-1]
        group = _holding(saturations, *block)
        later = saturations[i % 3:]
        calls.clear()
        group.get(first, later[0])
        assert calls == [2]
        assert list(group.moments) == [_key(p, t) for p in (first, other) for t in later]
        for p in block:
            for t in later:
                assert group.moments[_key(p, t)] == _own_moments(p, t), (p, t)
        k_maxes.append(HypothesisPair.from_params(first).present.k_max)
    assert min(k_maxes) < 64 and max(k_maxes) > 200
    assert sum(k >= bayes._LATTICE_K_MAX for k in k_maxes) == 5

    # a protocol whose own table is refused, or a budget that refuses both
    # protocols' stacks together, stops the shared call whole, and the one
    # that asked is scored alone: one shared call and one alone.  The
    # refused protocol gets nothing stored, and asked for, it raises its
    # own exception and message from a call of its own, as a group of one
    # call does
    coherent, incoherent = _shared_block(rng)
    bracketed, checked = bayes._bracketed, bayes._checked_tail

    def refused_present(params, *args):
        if params.protocol is Protocol.INCOHERENT_HOM:
            raise DegenerateParameterError("incoherent bracket refused")
        return bracketed(params, *args)

    def refused_fold(params, probs, saturation, *args):
        if params.protocol is Protocol.INCOHERENT_HOM and saturation == 4:
            raise ParameterError("incoherent fold at 4 refused")
        return checked(params, probs, saturation, *args)

    budget = photon_stats._scoring_bytes(7, 2)  # one present's stack at t = 7, not two
    for name, patched in (("_bracketed", refused_present), ("_checked_tail", refused_fold),
                          ("MEMORY_BUDGET_BYTES", budget)):
        with monkeypatch.context() as m:
            # the budget is read where photon_stats._check_budget reads it
            m.setattr(photon_stats if name == "MEMORY_BUDGET_BYTES" else bayes, name, patched)
            group = _holding(saturations, coherent, incoherent)
            calls.clear()
            group.get(coherent, None)
            assert calls == [2, 1], name
            assert list(group.moments) == [_key(coherent, t) for t in saturations], name
            for t in saturations:
                assert group.moments[_key(coherent, t)] == _own_moments(coherent, t), (name, t)
            if name == "MEMORY_BUDGET_BYTES":
                calls.clear()
                assert group.get(incoherent, None) == _own_moments(incoherent, None)
                assert calls == [1]
                continue
            for asked in (group, _holding(saturations, incoherent),
                          sweep_module._RowGroup(saturations)):
                calls.clear()
                with pytest.raises(ValueError) as info:
                    asked.get(incoherent, None)
                assert calls == [1], name
                assert (type(info.value), str(info.value)) == (
                    (DegenerateParameterError, "incoherent bracket refused")
                    if name == "_bracketed" else (ParameterError, "incoherent fold at 4 refused"))
                assert all(protocol != "incoherent" for protocol, _, _ in asked.moments), name


@pytest.mark.parametrize("name, values, shown", [
    ("saturations", [None, 2, 2], "['inf', 2, 2]"),
    ("saturations", ["inf", None], "['inf', 'inf']"),
    ("saturations", [2, "2", 2.0], "[2, 2, 2]"),
    ("protocols", ["coherent", "direct", "coherent"], "['coherent', 'direct', 'coherent']"),
    ("eta", [0.9, 0.5, 0.9], "[0.9, 0.5, 0.9]"),
    ("n_e", [1.0, "1"], "[1.0, 1.0]"),
    ("n_i", [0.5, 0.5], "[0.5, 0.5]"),
    ("n_c", [6.0, 6], "[6.0, 6.0]"),
])
def test_spec_refuses_a_repeated_value_on_any_grid_axis(name, values, shown):
    # a repeated value would write its rows twice: a repeated saturation
    # once gave 12 rows for 2 protocols, 2 brightnesses and 2 saturations
    # (the command line's refusal is in test_cli.py)
    with pytest.raises(ParameterError) as info:
        SweepSpec(**{name: values})
    assert str(info.value) == f"sweep spec {name} must not repeat a value, got {shown}"


def test_spec_bounds_keep_their_own_message():
    # nc_bounds is no grid axis: equal bounds fail its 0 < lo < hi rule
    with pytest.raises(ParameterError, match="nc_bounds must be two finite numbers with 0 < lo"):
        SweepSpec(nc_bounds=(1.0, 1.0))


def _peak_bytes(work) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        work()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _own_pair_miss(params: ProtocolParams, saturations) -> None:
    """A brightness scored at every saturation from a pair of its own, held
    throughout, as a row group scored one protocol before they shared."""
    pair = HypothesisPair.from_params(params)
    for t in saturations:
        if t is None:
            bayes._lattice_moments(pair.present.probs, pair.absent.probs) or loglik_moments(pair)
        else:
            loglik_moments(pair.saturated(t))


@pytest.mark.parametrize("n_c, saturations", [
    (300.0, (None, 7, 4, 2, 1)),
    (300.0, (None, 300, 2)),
    (1000.0, (None, 4, 2)),
])
def test_shared_brightness_holds_no_more_whole_tables_than_a_pair(n_c, saturations):
    # scoring coherent and incoherent from one absent table keeps no more
    # whole tables live than the larger of their own pairs: each present is
    # dropped once folded, and the absent logs before the folds are scored.
    # The fold stacks are the only extra, two (t + 1)^2 tables a t beyond a
    # pair's fold scoring, which the memory budget counts (_scoring_bytes);
    # 64 KiB covers objects and numpy's 8 192-element ufunc buffers.  At
    # n_c 300 (k_max 296) the coherent pair is refused the sub-lattice and
    # the incoherent one takes it; at n_c 1000 (k_max 765) both take it
    base = dict(xi=0.1, eta=0.99, epsilon=0.9, n_c=n_c, n_e=1.0, n_i=0.01)
    block = (ProtocolParams(protocol="coherent", cos_theta=1.0, **base),
             ProtocolParams(protocol="incoherent", **base))
    own = max(_peak_bytes(lambda: _own_pair_miss(p, saturations)) for p in block)
    stacks = sum(16 * (t + 1) ** 2 for t in saturations if t is not None)
    for first, other in (block, block[::-1]):
        group = _holding(saturations, first, other)
        shared = _peak_bytes(lambda: group.get(first, None))
        assert len(group.moments) == 2 * len(saturations)
        assert shared <= own + stacks + (64 << 10), (first.protocol, shared, own)


@pytest.mark.parametrize("saturations", [(None, 20000), (20000, None)],
                         ids=["inf-20000", "20000-inf"])
def test_spec_refuses_a_saturation_every_fold_would_refuse(monkeypatch, saturations):
    # every fold would refuse t = 20000, so the spec refuses it before any build
    tables = _count_tables(monkeypatch)
    with pytest.raises(ParameterError, match="20000 exceeds the cap of 10000"):
        SweepSpec(protocols=("coherent",), eta=(0.9,), n_e=(1.0,), n_c="optimize",
                  saturations=saturations, nc_bounds=(1e-2, 10.0))
    assert tables == {"absent": [], "present": []}


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
