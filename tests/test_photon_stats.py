"""Tests for count-distribution construction and evaluation."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from homdetect import photon_stats
from homdetect.photon_stats import (
    CountDistribution,
    DegenerateParameterError,
    Outcome,
    ParameterError,
    Protocol,
    ProtocolParams,
    TruncationError,
    apply_saturation,
    build_distribution,
    derived_means,
    direct_pmf,
    hom_pmf,
)

E_MINUS_1 = 0.36787944117144233


def direct_params(**kw):
    return ProtocolParams(protocol=Protocol.DIRECT, **kw)


def hom_params(protocol=Protocol.COHERENT_HOM, **kw):
    return ProtocolParams(protocol=protocol, **kw)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "field,value",
    [
        ("xi", -0.1),
        ("xi", 1.5),
        ("eta", -0.2),
        ("eta", 2.0),
        ("epsilon", -0.5),
        ("epsilon", 1.01),
        ("n_c", -1.0),
        ("n_e", -0.01),
        ("n_i", -3.0),
        ("cos_theta", 1.2),
        ("cos_theta", -1.2),
        # booleans are not numbers, though float() reads them as 0 or 1
        ("xi", True),
        ("eta", np.bool_(True)),
        ("epsilon", False),
        ("n_c", np.bool_(False)),
        ("n_e", True),
        ("n_i", np.bool_(True)),
        ("cos_theta", False),
    ],
)
def test_rejects_out_of_range(field, value):
    with pytest.raises(ParameterError) as err:
        hom_params(**{field: value})
    assert field in str(err.value)


def test_rejects_non_finite():
    for field in ("xi", "eta", "n_c"):
        with pytest.raises(ParameterError):
            hom_params(**{field: math.nan})
    with pytest.raises(ParameterError):
        hom_params(n_e=math.inf)


def test_incoherent_forces_zero_phase_average():
    p = hom_params(protocol=Protocol.INCOHERENT_HOM, cos_theta=0.9)
    assert p.cos_theta == 0.0


def test_boundary_values_accepted():
    hom_params(xi=0.0)
    hom_params(xi=1.0)
    hom_params(eta=0.0, xi=0.0)
    hom_params(epsilon=1.0)
    hom_params(cos_theta=-1.0)


def test_params_round_trip_through_dict():
    p = hom_params(xi=0.3, eta=0.7, epsilon=0.95, n_c=2.5, n_e=0.1, n_i=0.2, cos_theta=-0.4)
    assert ProtocolParams.from_dict(p.to_dict()) == p


def test_protocol_accepts_string_names():
    p = ProtocolParams(protocol="direct")
    assert p.protocol is Protocol.DIRECT


# ---------------------------------------------------------------------------
# derived means
# ---------------------------------------------------------------------------


def test_direct_means():
    m = derived_means(direct_params(xi=0.1, eta=0.8, n_e=0.5, n_i=0.25))
    assert m.n_noise == pytest.approx(0.8 * 0.5 + 0.25, abs=0.0)
    assert m.n_bar == m.n_noise


def test_hom_means():
    m = derived_means(hom_params(xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.8, n_i=0.8))
    expected_noise = 0.8 * 0.1 * 1.0 + 0.8 * 0.8 + 2 * 0.8
    assert m.n_noise == pytest.approx(expected_noise, rel=1e-15)
    assert m.n_bar == pytest.approx(0.8 * 0.9 * 1.0 + expected_noise, rel=1e-15)


# ---------------------------------------------------------------------------
# direct pmf
# ---------------------------------------------------------------------------


def test_direct_noiseless_is_bernoulli():
    p = direct_params(xi=0.3, eta=0.5)
    assert direct_pmf(p, 0) == pytest.approx(1.0 - 0.15, abs=0.0)
    assert direct_pmf(p, 1) == pytest.approx(0.15, abs=0.0)
    assert direct_pmf(p, 2) == 0.0


def test_direct_convolution_frozen_values():
    # eta * n_e + n_i = 1 exactly; signal branch weight eta * xi = 0.08
    p = direct_params(xi=0.1, eta=0.8, n_e=0.0, n_i=1.0)
    expected = {
        0: 0.33844908587772693,
        1: 0.36787944117144233,
        2: 0.19865489823257892,
        3: 0.071123358626478825,
    }
    for k, value in expected.items():
        assert direct_pmf(p, k) == pytest.approx(value, rel=1e-14)


def test_direct_pure_background_at_xi_zero():
    p = direct_params(xi=0.0, eta=0.8, n_e=0.5, n_i=0.1)
    n = derived_means(p).n_noise
    for k in range(6):
        poisson = math.exp(-n) * n**k / math.factorial(k)
        assert direct_pmf(p, k) == pytest.approx(poisson, rel=1e-13)


def test_direct_pmf_validates_inputs():
    with pytest.raises(ParameterError):
        direct_pmf(hom_params(), 0)
    with pytest.raises(ParameterError):
        direct_pmf(direct_params(), -1)
    # the pmf is evaluated at the count itself, so a non-integer is refused
    for bad in (1.5, 1.0, True):
        with pytest.raises(ParameterError, match="integers"):
            direct_pmf(direct_params(), bad)


# ---------------------------------------------------------------------------
# two-detector pmf
# ---------------------------------------------------------------------------


def test_hom_frozen_values():
    p = hom_params(xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.8, n_i=0.8)
    assert hom_pmf(p, 0, 0) == pytest.approx(0.044008098334662474, rel=1e-13)
    assert hom_pmf(p, 0, 1) == pytest.approx(0.079696943622992011, rel=1e-13)
    assert hom_pmf(p, 1, 0) == pytest.approx(0.057914466473917792, rel=1e-13)
    assert hom_pmf(p, 2, 1) == pytest.approx(0.070276490756916721, rel=1e-13)


def test_hom_interference_asymmetry_favors_second_detector():
    # positive phase: extra counts leave on detector 2, so p(0, 1) > p(1, 0)
    p = hom_params(xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.8, n_i=0.8)
    assert hom_pmf(p, 0, 1) > hom_pmf(p, 1, 0)
    flipped = hom_params(
        xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.8, n_i=0.8, cos_theta=-1.0
    )
    assert hom_pmf(flipped, 1, 0) == pytest.approx(hom_pmf(p, 0, 1), rel=1e-14)


def test_hom_count_difference_mean_matches_closed_form():
    # E[k - j] = 2 eta cos_theta sqrt(xi (1 - xi) epsilon n_c), independent
    # of the symmetric backgrounds
    cases = [
        dict(xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.8, n_i=0.8, cos_theta=1.0),
        dict(xi=0.3, eta=0.6, epsilon=1.0, n_c=2.0, n_e=0.0, n_i=0.5, cos_theta=0.5),
        dict(xi=0.5, eta=1.0, epsilon=0.7, n_c=0.5, n_e=0.2, n_i=0.0, cos_theta=-0.8),
    ]
    for kw in cases:
        p = hom_params(**kw)
        dist = build_distribution(p)
        counts = np.arange(dist.k_max + 1.0)
        mean_diff = float((dist.probs * (counts[None, :] - counts[:, None])).sum())
        predicted = (
            2.0
            * kw["eta"]
            * kw["cos_theta"]
            * math.sqrt(kw["xi"] * (1 - kw["xi"]) * kw["epsilon"] * kw["n_c"])
        )
        assert mean_diff == pytest.approx(predicted, abs=1e-10)


def test_hom_frozen_difference_mean():
    p = hom_params(xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.8, n_i=0.8)
    dist = build_distribution(p)
    counts = np.arange(dist.k_max + 1.0)
    mean_diff = float((dist.probs * (counts[None, :] - counts[:, None])).sum())
    assert mean_diff == pytest.approx(0.45536798306424664, rel=1e-10)


def test_perfect_interference_suppresses_equal_counts():
    p = hom_params(xi=1.0, eta=1.0, epsilon=1.0, n_c=2.0)
    for j in range(6):
        assert hom_pmf(p, j, j) == 0.0


def test_xi_zero_is_product_of_poissons():
    p = hom_params(xi=0.0, eta=0.9, epsilon=0.8, n_c=2.0, n_e=0.3, n_i=0.1)
    half = derived_means(p).n_bar / 2.0
    for j in range(4):
        for k in range(4):
            expected = (
                math.exp(-2 * half)
                * half ** (j + k)
                / (math.factorial(j) * math.factorial(k))
            )
            assert hom_pmf(p, j, k) == pytest.approx(expected, rel=1e-12)


def test_incoherent_equals_phase_zero_coherent_bitwise():
    kw = dict(xi=0.2, eta=0.85, epsilon=0.9, n_c=1.5, n_e=0.4, n_i=0.2)
    inc = build_distribution(hom_params(protocol=Protocol.INCOHERENT_HOM, **kw))
    coh0 = build_distribution(hom_params(cos_theta=0.0, **kw))
    assert np.array_equal(inc.probs, coh0.probs)


def test_hom_degenerate_dark_port_raises():
    with pytest.raises(DegenerateParameterError):
        hom_pmf(hom_params(xi=0.5, eta=0.0, n_c=1.0), 0, 0)
    # n_bar**2 underflows to 0 here, which would divide 0 by 0
    with pytest.raises(DegenerateParameterError):
        hom_pmf(hom_params(xi=0.5, n_c=0.0, n_e=0.0, n_i=1e-170), 0, 0)


def test_hom_vacuum_inputs_give_point_mass_at_zero():
    p = hom_params(xi=0.0, eta=0.5, epsilon=1.0, n_c=0.0)
    dist = build_distribution(p)
    assert dist.prob(0, 0) == 1.0
    assert dist.total() == 1.0


def test_hom_pmf_validates_inputs():
    with pytest.raises(ParameterError):
        hom_pmf(direct_params(), 0, 0)
    with pytest.raises(ParameterError):
        hom_pmf(hom_params(), -1, 0)
    for bad in ((2.5, 0), (0, 1.0), (True, 0)):
        with pytest.raises(ParameterError, match="integers"):
            hom_pmf(hom_params(), *bad)
    assert hom_pmf(hom_params(), np.int64(1), 2) == hom_pmf(hom_params(), 1, 2)


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_single_cells_at_a_large_count_within_two_gib():
    # one cell used to cost the whole table up to its count, 20 GB here
    code = ("from homdetect.photon_stats import ProtocolParams, direct_pmf, hom_pmf; "
            "print(hom_pmf(ProtocolParams(protocol='coherent', n_c=1.0), 50000, 0), "
            "direct_pmf(ProtocolParams(protocol='direct', n_e=1.0), 50000))")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, OMP_NUM_THREADS="1"),
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0.0", "0.0"]


# ---------------------------------------------------------------------------
# normalization and nonnegativity over a parameter grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("xi", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("eta", [0.1, 0.9, 1.0])
@pytest.mark.parametrize("noise", [0.0, 0.7])
def test_direct_normalization_grid(xi, eta, noise):
    dist = build_distribution(direct_params(xi=xi, eta=eta, n_e=noise, n_i=noise))
    assert dist.probs.min() >= 0.0
    assert dist.total() + dist.tail_mass == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("protocol", [Protocol.COHERENT_HOM, Protocol.INCOHERENT_HOM])
@pytest.mark.parametrize("xi", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("epsilon", [0.5, 1.0])
@pytest.mark.parametrize("n_c", [0.4, 3.0])
def test_hom_normalization_grid(protocol, xi, epsilon, n_c):
    p = hom_params(protocol=protocol, xi=xi, eta=0.8, epsilon=epsilon, n_c=n_c, n_e=0.3, n_i=0.1)
    dist = build_distribution(p)
    assert dist.probs.min() >= 0.0
    assert dist.total() + dist.tail_mass == pytest.approx(1.0, abs=1e-12)


def test_marginals_of_each_detector_share_the_same_mean():
    # phase zero keeps the two outputs statistically identical
    p = hom_params(xi=0.4, eta=0.9, epsilon=0.8, n_c=1.2, n_e=0.2, n_i=0.1, cos_theta=0.0)
    dist = build_distribution(p)
    counts = np.arange(dist.k_max + 1.0)
    mean_1 = float(dist.probs.sum(axis=1) @ counts)
    mean_2 = float(dist.probs.sum(axis=0) @ counts)
    assert mean_1 == pytest.approx(mean_2, rel=1e-12)
    # total mean = reference and backgrounds plus the detected emitter photon
    expected_total = derived_means(p).n_bar + p.eta * p.xi
    assert mean_1 + mean_2 == pytest.approx(expected_total, rel=1e-9)


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------


def test_truncation_cap_raises():
    with pytest.raises(TruncationError):
        build_distribution(direct_params(xi=0.0, n_e=0.0, n_i=9000.0))


def test_bright_reference_table_builds_once_within_allowance(monkeypatch):
    # at n_bar ~ 3000 the rounding in 1 - sum (~3e-12) used to exceed a
    # fixed 1e-12 and refuse the table; the allowance grows with the table,
    # so the one table built at the 12-sigma size is accepted
    params = hom_params(
        protocol=Protocol.INCOHERENT_HOM, eta=0.99, n_c=3000.0, n_e=10.0, n_i=10.0
    )
    sizes = []
    real = photon_stats._pmf_tables

    def once(p, counts):
        if sizes:
            raise AssertionError(f"second table built over {counts.size} counts after {sizes}")
        sizes.append(counts.size - 1)
        return real(p, counts)

    monkeypatch.setattr(photon_stats, "_pmf_tables", once)
    dist = build_distribution(params)
    assert sizes == [1965] and dist.k_max == 1965
    assert 1e-12 < dist.tail_mass <= photon_stats._tail_allowance(params, 1965)


@pytest.mark.parametrize("params", [
    direct_params(n_e=0.5),
    hom_params(n_c=6.0, n_e=1.0, n_i=1.0),
    hom_params(protocol=Protocol.INCOHERENT_HOM, eta=0.99, n_c=3000.0, n_e=10.0, n_i=10.0),
], ids=["direct", "coherent", "bright-incoherent"])
def test_table_missing_mass_raises(params, monkeypatch):
    # the allowance covers rounding only: a table short of 1e-9 is refused
    real = photon_stats._pmf_tables
    monkeypatch.setattr(photon_stats, "_pmf_tables",
                        lambda p, counts: real(p, counts) * (1.0 - 1e-9))
    with pytest.raises(TruncationError, match="untabulated mass"):
        build_distribution(params)


def test_tail_allowance_bounds():
    # the 1e-12 floor holds for small tables, and at the 10000-count cap the
    # allowance stays below the 1e-9 normalization check of the moments
    assert photon_stats._tail_allowance(direct_params(n_e=0.5), 20) == 1e-12
    at_cap = photon_stats._tail_allowance(hom_params(eta=1.0, n_c=17640.0), 10_000)
    assert 1e-10 < at_cap < 1e-9


def test_outcomes_row_major_order():
    dist = build_distribution(hom_params(n_c=0.5))
    top = dist.k_max
    order = [o for o, _ in dist.outcomes()]
    assert len(order) == (top + 1) ** 2
    assert order[: top + 2] == [Outcome(0, k) for k in range(top + 1)] + [Outcome(1, 0)]
    total = sum(p for _, p in dist.outcomes())
    assert total == pytest.approx(dist.total(), rel=1e-14)


def test_probs_array_is_read_only():
    dist = build_distribution(direct_params(n_e=0.5))
    with pytest.raises(ValueError):
        dist.probs[0] = 0.5


def test_prob_guards():
    dist = build_distribution(hom_params(n_c=0.5))
    with pytest.raises(ValueError):
        dist.prob(-1, 0)
    with pytest.raises(ValueError):
        dist.prob(0)
    assert dist.prob(dist.k_max + 5, 0) == 0.0
    flat = build_distribution(direct_params(n_e=0.5))
    with pytest.raises(ValueError):
        flat.prob(0, 1)


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------


def test_saturation_folds_mass_and_normalizes():
    p = hom_params(xi=0.1, eta=0.9, epsilon=0.9, n_c=6.0, n_e=1.0, n_i=1.0)
    dist = build_distribution(p)
    for t in (1, 2, 4):
        sat = apply_saturation(dist, t)
        assert sat.probs.shape == (t + 1, t + 1)
        assert sat.total() == pytest.approx(1.0, abs=1e-12)
        assert sat.saturation == t
        assert sat.tail_mass == 0.0
        # interior bins are untouched
        assert np.array_equal(sat.probs[:t, :t], dist.probs[:t, :t])
        # boundary bin absorbs everything at or above the threshold
        edge_mass = dist.probs[t:, :t].sum(axis=0)
        assert np.allclose(sat.probs[t, :t], edge_mass, rtol=0, atol=1e-15)


def test_saturated_binary_detector_direct():
    p = direct_params(xi=0.1, eta=0.8, n_e=0.5, n_i=0.5)
    dist = build_distribution(p)
    sat = apply_saturation(dist, 1)
    assert sat.probs.shape == (2,)
    assert sat.prob(0) == pytest.approx(dist.prob(0), abs=0.0)
    assert sat.prob(1) == pytest.approx(1.0 - dist.prob(0), abs=1e-14)
    # counts above the boundary clip onto it
    assert sat.prob(9) == sat.prob(1)


def test_saturation_validation():
    dist = build_distribution(direct_params(n_e=0.5))
    with pytest.raises(ParameterError):
        apply_saturation(dist, 0)
    with pytest.raises(ParameterError):
        apply_saturation(dist, 2.5)
    once = apply_saturation(dist, 2)
    with pytest.raises(ParameterError):
        apply_saturation(once, 1)


def test_saturation_refuses_a_boolean_threshold():
    # True passed the integer check and then indexed as a mask, adding the
    # folded mass to every bin: this table came back as [1.0, 0.1125]
    dist = build_distribution(direct_params(xi=0.1, eta=0.8, n_e=0.02, n_i=0.02))
    for flag in (True, False, np.bool_(True)):
        with pytest.raises(ParameterError, match="saturation threshold"):
            apply_saturation(dist, flag)


def test_saturation_beyond_table_keeps_values():
    dist = build_distribution(direct_params(xi=0.3, eta=1.0))  # support {0, 1}
    sat = apply_saturation(dist, 5)
    assert sat.probs.shape == (6,)
    assert sat.prob(0) == pytest.approx(0.7, abs=1e-15)
    assert sat.prob(1) == pytest.approx(0.3, abs=1e-15)
    assert sat.prob(5) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    dist = build_distribution(hom_params(n_c=0.8, n_e=0.1))
    path = tmp_path / "dist.csv"
    dist.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "j,k,p"
    assert len(lines) == 1 + (dist.k_max + 1) ** 2
    j, k, p = lines[1].split(",")
    assert (int(j), int(k)) == (0, 0)
    assert float(p) == dist.prob(0, 0)


def test_csv_direct_header(tmp_path):
    dist = build_distribution(direct_params(n_e=0.2))
    path = tmp_path / "d.csv"
    dist.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "j,p"
    assert len(lines) == 1 + dist.k_max + 1


def test_json_round_trip(tmp_path):
    dist = build_distribution(hom_params(n_c=0.8))
    path = tmp_path / "dist.json"
    dist.to_json(path)
    doc = json.loads(path.read_text())
    assert doc["k_max"] == dist.k_max == 20
    assert len(doc["entries"]) == (dist.k_max + 1) ** 2
    assert doc["saturation"] is None
    assert ProtocolParams.from_dict(doc["params"]) == dist.params
    assert doc["entries"][1] == [0, 1, dist.prob(0, 1)]
