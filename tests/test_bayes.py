"""Tests for likelihood ratios, confidence, and the log-normal approximation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit
from scipy.stats import lognorm

from homdetect.bayes import (
    DegenerateMomentsError,
    HypothesesIndistinguishableError,
    HypothesisPair,
    LogLikMoments,
    OutcomeOutsideSupportError,
    _confidence_real,
    _n_real,
    confidence,
    likelihood_ratio,
    loglik_moments,
    lognormal_pdf,
    mean_posterior,
    n_for_confidence,
    posterior_trajectory,
)
from homdetect.photon_stats import (
    CountDistribution,
    Outcome,
    ParameterError,
    Protocol,
    ProtocolParams,
    apply_saturation,
    build_distribution,
)

LOW_NOISE = ProtocolParams(protocol=Protocol.DIRECT, xi=0.1, eta=0.8, n_e=0.02, n_i=0.02)
HIGH_NOISE = ProtocolParams(protocol=Protocol.DIRECT, xi=0.1, eta=0.8, n_e=1.0, n_i=1.0)
UNIT_NOISE = ProtocolParams(protocol=Protocol.DIRECT, xi=0.1, eta=0.8, n_e=0.0, n_i=1.0)


# ---------------------------------------------------------------------------
# hypothesis pairs
# ---------------------------------------------------------------------------


def test_from_params_builds_aligned_tables():
    pair = HypothesisPair.from_params(LOW_NOISE)
    assert pair.present.params.xi == 0.1
    assert pair.absent.params.xi == 0.0
    assert pair.present.probs.shape == pair.absent.probs.shape
    assert pair.saturation is None


def test_from_params_with_saturation():
    pair = HypothesisPair.from_params(LOW_NOISE, saturation=2)
    assert pair.saturation == 2
    assert pair.present.probs.shape == (3,)
    assert pair.present.total() == pytest.approx(1.0, abs=1e-12)


def test_pair_rejects_mismatches():
    present = build_distribution(LOW_NOISE)
    with pytest.raises(ParameterError):
        HypothesisPair(present=present, absent=present)  # absent has xi != 0
    absent_wrong = build_distribution(replace(LOW_NOISE, xi=0.0, n_i=0.5))
    with pytest.raises(ParameterError):
        HypothesisPair(present=present, absent=absent_wrong)
    absent = build_distribution(replace(LOW_NOISE, xi=0.0))
    absent_small = CountDistribution(
        params=absent.params, probs=absent.probs[:4].copy(), tail_mass=absent.tail_mass
    )
    with pytest.raises(ParameterError, match="shapes"):
        HypothesisPair(present=present, absent=absent_small)


@pytest.mark.parametrize("saturation", [None, 2])
@pytest.mark.parametrize("protocol", list(Protocol))
def test_pair_tables_equal_standalone_builds(protocol, saturation):
    # both tables land on one size (n_bar does not depend on xi) and each is
    # exactly the table a build of its own gives
    rng = np.random.default_rng(20261018)
    for i in range(34):
        edge = i < 8
        params = ProtocolParams(
            protocol=protocol,
            xi=float(rng.choice([0.0, 1.0])) if edge else rng.uniform(),
            eta=float(rng.choice([0.0, 1.0])) if i % 2 else rng.uniform(),
            epsilon=rng.uniform(),
            n_c=0.0 if edge else 10.0 ** rng.uniform(-2.0, 2.0),
            n_e=0.0 if edge else 10.0 ** rng.uniform(-2.0, 1.0),
            n_i=10.0 ** rng.uniform(-3.0, 0.0),
            cos_theta=rng.uniform(-1.0, 1.0),
        )
        pair = HypothesisPair.from_params(params, saturation=saturation)
        for got, xi in ((pair.present, params.xi), (pair.absent, 0.0)):
            alone = build_distribution(replace(params, xi=xi))
            assert alone.tail_mass <= 1e-12
            if saturation is not None:
                alone = apply_saturation(alone, saturation)
            assert np.array_equal(got.probs, alone.probs), params
            assert got.tail_mass == alone.tail_mass


# ---------------------------------------------------------------------------
# likelihood ratio orientation and guards
# ---------------------------------------------------------------------------


def test_ratio_below_one_for_presence_evidence():
    pair = HypothesisPair.from_params(LOW_NOISE)
    # one photon is far more likely with the emitter present
    assert likelihood_ratio(pair, Outcome(1)) < 1.0
    # zero photons lean the other way
    assert likelihood_ratio(pair, Outcome(0)) > 1.0


def test_conclusive_outcome_is_floored_not_infinite():
    noiseless = ProtocolParams(protocol=Protocol.DIRECT, xi=0.3, eta=1.0)
    pair = HypothesisPair.from_params(noiseless)
    lam = likelihood_ratio(pair, Outcome(1))
    assert 0.0 < lam < 1e-250


def test_ratio_arity_and_support_guards():
    pair = HypothesisPair.from_params(LOW_NOISE)
    with pytest.raises(ParameterError):
        likelihood_ratio(pair, Outcome(0, 0))
    with pytest.raises(OutcomeOutsideSupportError):
        likelihood_ratio(pair, Outcome(pair.present.k_max + 1))


def test_saturated_pair_clips_high_counts():
    pair = HypothesisPair.from_params(LOW_NOISE, saturation=2)
    assert likelihood_ratio(pair, Outcome(50)) == likelihood_ratio(pair, Outcome(2))


def test_posterior_trajectory_matches_manual_chain():
    pair = HypothesisPair.from_params(LOW_NOISE)
    outcomes = [Outcome(0), Outcome(1), Outcome(0), Outcome(2)]
    traj = posterior_trajectory(pair, outcomes)
    acc = 0.0
    for i, o in enumerate(outcomes):
        acc += math.log(likelihood_ratio(pair, o))
        assert traj[i] == pytest.approx(float(expit(-acc)), rel=1e-14)
    assert posterior_trajectory(pair, []).size == 0


def test_posterior_starts_even_and_converges():
    noiseless = ProtocolParams(protocol=Protocol.DIRECT, xi=0.3, eta=1.0)
    pair = HypothesisPair.from_params(noiseless)
    traj = posterior_trajectory(pair, [Outcome(1)])
    assert traj[0] == pytest.approx(1.0, abs=1e-12)  # a detected photon is conclusive here


# ---------------------------------------------------------------------------
# exact per-trial moments
# ---------------------------------------------------------------------------


FROZEN_MOMENTS = {
    "low": (
        LOW_NOISE,
        (-0.0566859169601866, 0.3945853839672997, 0.039607836637980884, 0.22903127774292631),
    ),
    "high": (
        HIGH_NOISE,
        (
            -0.0017549278052158572,
            0.059574686733089702,
            0.0017353405866658413,
            0.058580059944676001,
        ),
    ),
    "unit": (
        UNIT_NOISE,
        (
            -0.0031268117300894244,
            0.079868377837476592,
            0.0030645028614964733,
            0.077492816952036456,
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(FROZEN_MOMENTS))
def test_moments_frozen_values(case):
    params, (mu_p, s_p, mu_a, s_a) = FROZEN_MOMENTS[case]
    m = loglik_moments(HypothesisPair.from_params(params))
    assert m.mu_present == pytest.approx(mu_p, rel=1e-12)
    assert m.sigma_present == pytest.approx(s_p, rel=1e-12)
    assert m.mu_absent == pytest.approx(mu_a, rel=1e-12)
    assert m.sigma_absent == pytest.approx(s_a, rel=1e-12)


def test_log_ratio_is_one_read_only_table_per_pair():
    pair = HypothesisPair.from_params(LOW_NOISE)
    table = pair.log_ratio
    assert table is pair.log_ratio
    assert not table.flags.writeable
    assert table[1] == pytest.approx(math.log(likelihood_ratio(pair, Outcome(1))), rel=1e-14)


def test_moments_match_independent_summation():
    # plain-python re-derivation over the enumerated outcomes
    pair = HypothesisPair.from_params(LOW_NOISE, saturation=4)
    floor = 1e-300

    def manual(truth):
        mu = second = 0.0
        for outcome, p_truth in truth.outcomes():
            if p_truth <= 0.0:
                continue
            pe = max(pair.present.prob(outcome.j), floor)
            pa = max(pair.absent.prob(outcome.j), floor)
            ln_lam = 0.0 if (pe == floor and pa == floor) else math.log(pa) - math.log(pe)
            mu += p_truth * ln_lam
            second += p_truth * ln_lam**2
        return mu, math.sqrt(max(0.0, second - mu * mu))

    m = loglik_moments(pair)
    mu_p, s_p = manual(pair.present)
    mu_a, s_a = manual(pair.absent)
    assert m.mu_present == pytest.approx(mu_p, rel=1e-12)
    assert m.sigma_present == pytest.approx(s_p, rel=1e-12)
    assert m.mu_absent == pytest.approx(mu_a, rel=1e-12)
    assert m.sigma_absent == pytest.approx(s_a, rel=1e-12)


def test_moment_signs_for_distinguishable_pair():
    for params in (LOW_NOISE, HIGH_NOISE):
        m = loglik_moments(HypothesisPair.from_params(params))
        assert m.mu_present < 0.0 < m.mu_absent


def test_moments_refuse_a_nan_table():
    pair = HypothesisPair.from_params(LOW_NOISE)
    nan_table = np.full_like(pair.present.probs, np.nan)
    nan_pair = HypothesisPair(present=replace(pair.present, probs=nan_table), absent=pair.absent)
    with pytest.raises(ParameterError, match="present distribution is not normalized"):
        loglik_moments(nan_pair)


def test_hom_moments_signs():
    params = ProtocolParams(
        protocol=Protocol.COHERENT_HOM, xi=0.1, eta=0.9, epsilon=0.9, n_c=6.0, n_e=1.0, n_i=1.0
    )
    m = loglik_moments(HypothesisPair.from_params(params))
    assert m.mu_present < 0.0 < m.mu_absent


# ---------------------------------------------------------------------------
# log-normal density
# ---------------------------------------------------------------------------


def test_lognormal_matches_reference_density():
    mu, sigma = -0.4, 0.8
    for lam in (0.05, 0.5, 1.0, 3.0):
        ref = lognorm.pdf(lam, s=sigma, scale=math.exp(mu))
        assert lognormal_pdf(lam, mu, sigma) == pytest.approx(ref, rel=1e-12)


def test_lognormal_normalizes():
    total, _ = quad(lambda x: lognormal_pdf(x, 0.3, 0.5), 0.0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_lognormal_guards():
    with pytest.raises(ParameterError):
        lognormal_pdf(0.0, 0.0, 1.0)
    with pytest.raises(DegenerateMomentsError):
        lognormal_pdf(1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# confidence after n trials
# ---------------------------------------------------------------------------


def test_confidence_frozen_value():
    m = loglik_moments(HypothesisPair.from_params(LOW_NOISE))
    rep = confidence(50, m)
    assert rep.c_present == pytest.approx(0.8451437956199026, rel=1e-12)
    assert 0.5 < rep.c_total < 1.0
    assert rep.c_total == pytest.approx(0.5 * (rep.c_present + rep.c_absent), abs=0.0)


def test_confidence_agrees_with_lognormal_integral():
    # P(correct | present) is the run-ratio mass below 1; integrate the
    # log-normal density as an independent route to the same number
    m = loglik_moments(HypothesisPair.from_params(LOW_NOISE))
    n = 50
    mu_y = n * m.mu_present
    sigma_y = math.sqrt(n) * m.sigma_present
    integral, _ = quad(lambda x: lognormal_pdf(x, mu_y, sigma_y), 0.0, 1.0)
    assert confidence(n, m).c_present == pytest.approx(integral, abs=1e-9)


def test_confidence_increases_with_n():
    m = loglik_moments(HypothesisPair.from_params(LOW_NOISE))
    values = [confidence(n, m).c_total for n in (1, 10, 50, 200)]
    assert values == sorted(values)
    assert confidence(10_000, m).c_total > 0.999


def test_confidence_guards():
    m = loglik_moments(HypothesisPair.from_params(LOW_NOISE))
    with pytest.raises(ParameterError):
        confidence(0, m)
    degenerate = LogLikMoments(
        mu_present=-0.1, sigma_present=0.0, mu_absent=0.1, sigma_absent=0.1
    )
    with pytest.raises(DegenerateMomentsError):
        confidence(10, degenerate)


# ---------------------------------------------------------------------------
# trials to reach a target confidence
# ---------------------------------------------------------------------------


def test_n_for_confidence_frozen_values():
    low = loglik_moments(HypothesisPair.from_params(LOW_NOISE))
    high = loglik_moments(HypothesisPair.from_params(HIGH_NOISE))
    assert n_for_confidence(0.954, low) == 117
    assert n_for_confidence(0.954, high) == 3254


def test_n_for_confidence_is_minimal():
    m = loglik_moments(HypothesisPair.from_params(LOW_NOISE))
    for target in (0.6, 0.954, 0.99):
        n = n_for_confidence(target, m)
        assert confidence(n, m).c_total >= target
        if n > 1:
            assert confidence(n - 1, m).c_total < target


def test_n_for_confidence_target_guards():
    m = loglik_moments(HypothesisPair.from_params(LOW_NOISE))
    for bad in (0.5, 1.0, 0.2, 1.3):
        with pytest.raises(ParameterError):
            n_for_confidence(bad, m)


def _n_real_200_halvings(m, c_target):
    """The real-valued N search with a fixed 200 halvings."""
    lo, hi = 0.0, 1.0
    while _confidence_real(hi, m).c_total < c_target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _confidence_real(mid, m).c_total >= c_target:
            hi = mid
        else:
            lo = mid
    return hi


def test_n_search_stops_early_with_identical_result():
    rng = np.random.default_rng(20250501)
    for _ in range(300):
        mu_p, mu_a, sigma_p, sigma_a = 10.0 ** rng.uniform(
            [-4.0, -4.0, -2.0, -2.0], [1.0, 1.0, 1.0, 1.0]
        )
        m = LogLikMoments(
            mu_present=-mu_p, sigma_present=sigma_p, mu_absent=mu_a, sigma_absent=sigma_a
        )
        target = rng.uniform(0.6, 0.999)
        assert _n_real(m, target) == _n_real_200_halvings(m, target)


def test_identical_hypotheses_are_flagged():
    params = replace(LOW_NOISE, xi=0.0)
    m = loglik_moments(HypothesisPair.from_params(params))
    with pytest.raises(HypothesesIndistinguishableError):
        n_for_confidence(0.954, m)


# ---------------------------------------------------------------------------
# averaged posterior
# ---------------------------------------------------------------------------


def test_mean_posterior_frozen_values():
    assert mean_posterior(-2.0, 3.0) == pytest.approx(0.71742398589567646, rel=1e-10)
    assert mean_posterior(1.5, 0.5) == pytest.approx(0.19369072057709238, rel=1e-10)
    assert mean_posterior(0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert mean_posterior(-40.0, 2.0) == pytest.approx(1.0, abs=1e-9)


def test_mean_posterior_degenerate_spread():
    assert mean_posterior(-2.0, 0.0) == pytest.approx(float(expit(2.0)), rel=1e-14)
    with pytest.raises(DegenerateMomentsError):
        mean_posterior(0.0, -1.0)


def test_mean_posterior_symmetry():
    # sigmoid(-y) + sigmoid(y) = 1, so mirrored means must sum to one
    assert mean_posterior(0.7, 1.3) + mean_posterior(-0.7, 1.3) == pytest.approx(
        1.0, abs=1e-10
    )
