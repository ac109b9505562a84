"""Tests for the number-basis cross-check of the two-detector statistics."""

import numpy as np
import pytest

from homdetect.fock_oracle import (
    OracleConfig,
    OracleTruncationError,
    compare_with_closed_form,
    joint_pmf,
    oracle_pmf,
    oracle_table,
    traced_pmf,
)
from homdetect.photon_stats import (
    DegenerateParameterError,
    ParameterError,
    Protocol,
    ProtocolParams,
    apply_saturation,
    build_distribution,
    derived_means,
    hom_pmf,
)


def coherent(**kw):
    return ProtocolParams(protocol=Protocol.COHERENT_HOM, **kw)


def incoherent(**kw):
    return ProtocolParams(protocol=Protocol.INCOHERENT_HOM, **kw)


# ---------------------------------------------------------------------------
# configuration guards
# ---------------------------------------------------------------------------


def test_rejects_single_detector_protocol():
    with pytest.raises(ParameterError):
        OracleConfig(params=ProtocolParams(protocol=Protocol.DIRECT))


def test_rejects_bright_reference():
    with pytest.raises(ParameterError):
        OracleConfig(params=coherent(n_c=4.5))


def test_rejects_undersized_basis():
    with pytest.raises(ParameterError):
        OracleConfig(params=coherent(n_c=1.0), fock_dim=1)
    with pytest.raises(OracleTruncationError):
        OracleConfig(params=coherent(n_c=4.0), fock_dim=4)
    # a whole float, a numeric string or a boolean is not an integer
    for bad in (40.0, "40", True):
        with pytest.raises(ParameterError, match="fock_dim must be an integer"):
            OracleConfig(params=coherent(n_c=1.0), fock_dim=bad)


def test_loss_sum_bounds():
    cfg = OracleConfig(params=coherent(n_c=1.0), fock_dim=20)
    assert cfg.loss_sum_max == 20
    with pytest.raises(ParameterError):
        OracleConfig(params=coherent(n_c=1.0), fock_dim=20, loss_sum_max=25)
    for bad in (20.5, 10.0, "10", True):
        with pytest.raises(ParameterError, match="loss_sum_max must be an integer"):
            OracleConfig(params=coherent(n_c=1.0), fock_dim=20, loss_sum_max=bad)


def test_index_validation():
    cfg = OracleConfig(params=coherent(n_c=0.1), fock_dim=10)
    with pytest.raises(ParameterError):
        joint_pmf(cfg, 10, 0, 0, 0)
    with pytest.raises(ParameterError):
        traced_pmf(cfg, 0, -1)
    # a float or a boolean index is refused as a parameter error, not left
    # to numpy's indexing; a numpy integer is an integer
    for call in (lambda: oracle_table(cfg, 2.5, 3), lambda: traced_pmf(cfg, 1.5, 2),
                 lambda: joint_pmf(cfg, 1, 1, 1, 1.0), lambda: oracle_pmf(cfg, True, 1),
                 lambda: compare_with_closed_form(cfg, jk_sum_max=True)):
        with pytest.raises(ParameterError, match="mode index must be an integer"):
            call()
    assert joint_pmf(cfg, np.int64(1), 1, 1, 1) == joint_pmf(cfg, 1, 1, 1, 1)
    assert np.array_equal(oracle_table(cfg, np.int64(2), 3), oracle_table(cfg, 2, 3))


# ---------------------------------------------------------------------------
# internal consistency of the number-basis route
# ---------------------------------------------------------------------------


def test_joint_pmf_normalizes_over_all_four_modes():
    cfg = OracleConfig(params=coherent(xi=0.4, eta=0.7, epsilon=0.9, n_c=0.5), fock_dim=12)
    total = sum(
        joint_pmf(cfg, k, l, m, n)
        for k in range(12)
        for l in range(12)
        for m in range(12)
        for n in range(12)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("cos_theta", [0.3, -0.6, 1.0])
def test_traced_equals_explicit_loss_sum(cos_theta):
    # regression for the lost-mode interference term: at a phase that makes
    # the amplitudes genuinely complex, the analytic trace must still match
    # the brute-force sum over the lost pair
    cfg = OracleConfig(
        params=coherent(xi=0.3, eta=0.7, epsilon=0.9, n_c=1.0, cos_theta=cos_theta),
        fock_dim=25,
    )
    for k, l in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (3, 2)]:
        explicit = sum(
            joint_pmf(cfg, k, l, m, n)
            for m in range(cfg.loss_sum_max)
            for n in range(cfg.loss_sum_max)
        )
        assert traced_pmf(cfg, k, l) == pytest.approx(explicit, abs=1e-13)


def test_phase_average_reduces_to_zero_phase():
    # probabilities are linear in cos(theta), so the incoherent average
    # must coincide with the coherent table at phase average zero
    kw = dict(xi=0.2, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.1, n_i=0.05)
    inc = oracle_table(OracleConfig(params=incoherent(**kw)), 6, 6)
    coh0 = oracle_table(OracleConfig(params=coherent(cos_theta=0.0, **kw)), 6, 6)
    assert np.max(np.abs(inc - coh0)) < 1e-13


def test_single_outcome_phase_averages_reduce_to_zero_phase():
    # joint_pmf and traced_pmf take the incoherent phase average themselves
    kw = dict(xi=0.2, eta=0.8, epsilon=0.9, n_c=1.0)
    inc = OracleConfig(params=incoherent(**kw), fock_dim=20)
    coh0 = OracleConfig(params=coherent(cos_theta=0.0, **kw), fock_dim=20)
    for k, l, m, n in [(0, 0, 0, 0), (1, 0, 0, 1), (2, 1, 1, 0)]:
        assert joint_pmf(inc, k, l, m, n) == pytest.approx(joint_pmf(coh0, k, l, m, n), abs=1e-15)
    for k, l in [(0, 0), (1, 0), (2, 1)]:
        assert traced_pmf(inc, k, l) == pytest.approx(traced_pmf(coh0, k, l), abs=1e-15)


def test_residual_guard_fires_when_loss_box_too_small():
    cfg = OracleConfig(
        params=coherent(xi=0.5, eta=0.5, epsilon=1.0, n_c=4.0), fock_dim=40, loss_sum_max=1
    )
    with pytest.raises(OracleTruncationError):
        traced_pmf(cfg, 0, 0)


# ---------------------------------------------------------------------------
# agreement with the closed form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("xi", [0.0, 0.1, 1.0])
def test_matches_closed_form_at_emission_endpoints(xi):
    cfg = OracleConfig(params=coherent(xi=xi, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.3, n_i=0.2))
    worst, _, ok = compare_with_closed_form(cfg, jk_sum_max=8, tol=1e-10)
    assert ok, f"worst deviation {worst}"


def test_matches_closed_form_complex_phase():
    cfg = OracleConfig(params=coherent(xi=0.3, eta=0.7, epsilon=0.8, n_c=2.0, cos_theta=0.3))
    worst, _, ok = compare_with_closed_form(cfg, jk_sum_max=8, tol=1e-10)
    assert ok, f"worst deviation {worst}"


def test_matches_closed_form_incoherent():
    cfg = OracleConfig(params=incoherent(xi=0.1, eta=0.9, epsilon=0.9, n_c=1.0, n_e=0.5, n_i=0.5))
    worst, _, ok = compare_with_closed_form(cfg, jk_sum_max=8, tol=1e-10)
    assert ok, f"worst deviation {worst}"


def test_oracle_pmf_single_outcome():
    params = coherent(xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.8, n_i=0.8)
    cfg = OracleConfig(params=params)
    assert oracle_pmf(cfg, 0, 0) == pytest.approx(hom_pmf(params, 0, 0), abs=1e-12)
    assert oracle_pmf(cfg, 2, 1) == pytest.approx(hom_pmf(params, 2, 1), abs=1e-12)


def test_compare_reports_location_and_verdict():
    cfg = OracleConfig(params=coherent(xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0))
    worst, where, ok = compare_with_closed_form(cfg, jk_sum_max=4, tol=1e-8)
    assert ok and worst >= 0.0
    j, k = where
    assert 0 <= j and 0 <= k and j + k <= 4
    # an impossible tolerance flips the verdict but not the measurement
    worst2, _, ok2 = compare_with_closed_form(cfg, jk_sum_max=4, tol=0.0)
    assert worst2 == worst and not ok2


@pytest.mark.parametrize("tol", [float("nan"), -1e-12, float("inf")])
def test_compare_refuses_a_tolerance_not_finite_and_at_least_zero(tol):
    cfg = OracleConfig(params=coherent(xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0))
    with pytest.raises(ParameterError, match="tolerance"):
        compare_with_closed_form(cfg, jk_sum_max=4, tol=tol)


# ---------------------------------------------------------------------------
# seeded property test
# ---------------------------------------------------------------------------


def test_closed_form_matches_oracle_at_random_points():
    # xi, eta and epsilon sit at 0 or 1 two times in three and the inputs
    # often go dark, so the edges and the degenerate n_bar = 0 are covered
    rng = np.random.default_rng(20261018)

    def unit():
        return (0.0, 1.0, float(rng.uniform()))[rng.integers(3)]

    def background():
        return (0.0, float(10.0 ** rng.uniform(-3.0, 0.5)))[rng.integers(2)]

    degenerate = 0
    for _ in range(60):
        params = ProtocolParams(
            protocol=(Protocol.COHERENT_HOM, Protocol.INCOHERENT_HOM)[rng.integers(2)],
            xi=unit(), eta=unit(), epsilon=unit(),
            n_c=(0.0, float(rng.uniform(0.0, 4.0)))[rng.integers(2)],
            n_e=background(), n_i=background(),
            cos_theta=float(rng.uniform(-1.0, 1.0)),
        )
        direct = ProtocolParams(protocol=Protocol.DIRECT, xi=params.xi, eta=params.eta,
                                n_e=params.n_e, n_i=params.n_i)
        cfg = OracleConfig(params=params, fock_dim=30)
        tables = [direct]
        if params.xi > 0.0 and derived_means(params).n_bar == 0.0:
            degenerate += 1
            with pytest.raises(DegenerateParameterError):
                build_distribution(params)
            with pytest.raises(DegenerateParameterError):
                compare_with_closed_form(cfg, tol=1e-12)
        else:
            worst, where, ok = compare_with_closed_form(cfg, tol=1e-12)
            assert ok, (params, worst, where)
            tables.append(params)
        for p in tables:
            dist = build_distribution(p)
            assert np.all(dist.probs >= 0.0), p
            assert abs(dist.total() + dist.tail_mass - 1.0) <= 1e-12, p
            saturated = apply_saturation(dist, int(rng.integers(1, 5)))
            assert abs(saturated.total() - (dist.total() + dist.tail_mass)) <= 1e-12, p
    assert degenerate > 0
