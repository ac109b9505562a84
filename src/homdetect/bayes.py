"""Bayesian discrimination between emitter-present and emitter-absent.

Each trial's count record updates the posterior odds through the per-trial
likelihood ratio lambda = P(record | absent) / P(record | present); with a
flat prior the posterior probability of presence after a run is
1 / (1 + product of lambdas).  Because trials are independent, the log
ratio over N trials is a sum of iid terms, so its distribution is
asymptotically normal and the run-level ratio is log-normal.  That normal
approximation turns "how confident after N trials" and "how many trials
for a target confidence" into closed erf expressions, checked here against
direct quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.integrate import quad
from scipy.special import expit

from .photon_stats import (
    CountDistribution,
    Outcome,
    ParameterError,
    ProtocolParams,
    build_distribution,
    apply_saturation,
)

__all__ = [
    "PROB_FLOOR",
    "HypothesisPair",
    "LogLikMoments",
    "ConfidenceReport",
    "OutcomeOutsideSupportError",
    "DegenerateMomentsError",
    "HypothesesIndistinguishableError",
    "likelihood_ratio",
    "posterior_trajectory",
    "loglik_moments",
    "lognormal_pdf",
    "confidence",
    "n_for_confidence",
    "mean_posterior",
]

# Probabilities are floored here before entering any ratio, so conclusive
# outcomes (one hypothesis gives exactly zero) produce huge but finite
# ratios instead of infinities.
PROB_FLOOR = 1e-300

NORMALIZATION_TOL = 1e-9


class OutcomeOutsideSupportError(LookupError):
    """The observed counts fall outside the enumerated table."""


class DegenerateMomentsError(ValueError):
    """A zero spread makes the normal approximation meaningless."""


class HypothesesIndistinguishableError(ValueError):
    """No finite number of trials separates the two hypotheses."""


@dataclass(frozen=True)
class HypothesisPair:
    """The two count distributions being discriminated.

    ``present`` is built at the emitter's emission probability, ``absent``
    at zero emission; everything else (protocol, efficiencies, backgrounds,
    saturation, table size) must match so outcome indices align.
    """

    present: CountDistribution
    absent: CountDistribution

    def __post_init__(self) -> None:
        a, b = self.present, self.absent
        if b.params.xi != 0.0:
            raise ParameterError("absent hypothesis must have xi = 0")
        if replace(a.params, xi=0.0) != b.params:
            raise ParameterError("hypotheses differ in more than xi")
        if a.probs.shape != b.probs.shape:
            raise ParameterError("hypothesis tables have different shapes")
        if a.saturation != b.saturation:
            raise ParameterError("hypotheses have different saturation")

    @classmethod
    def from_params(
        cls, params: ProtocolParams, saturation: int | None = None
    ) -> "HypothesisPair":
        """Build both hypothesis tables, each with its own tail check.
        The table size depends only on n_bar, which does not depend on xi,
        so both land on the same size; the absent table is the present
        table's Poisson envelope."""
        present = build_distribution(params)
        absent = build_distribution(replace(params, xi=0.0))
        if saturation is not None:
            present = apply_saturation(present, saturation)
            absent = apply_saturation(absent, saturation)
        return cls(present=present, absent=absent)

    @property
    def saturation(self) -> int | None:
        return self.present.saturation

    @cached_property
    def log_ratio(self) -> np.ndarray:
        """ln(lambda) for every tabulated outcome, read-only, floored so
        conclusive outcomes stay finite; outcomes dead under both
        hypotheses get 0."""
        pe = self.present.probs
        pa = self.absent.probs
        table = np.log(np.maximum(pa, PROB_FLOOR)) - np.log(np.maximum(pe, PROB_FLOOR))
        table = np.where((pe < PROB_FLOOR) & (pa < PROB_FLOOR), 0.0, table)
        table.setflags(write=False)
        return table


@dataclass(frozen=True)
class LogLikMoments:
    """Per-trial mean and spread of ln(lambda) under each truth.

    mu_present is minus the divergence of present from absent, so it is
    <= 0; mu_absent is the reverse divergence, >= 0.  Discrimination is
    possible exactly when both are nonzero.
    """

    mu_present: float
    sigma_present: float
    mu_absent: float
    sigma_absent: float


@dataclass(frozen=True)
class ConfidenceReport:
    """Normal-approximation confidence after n trials."""

    c_present: float
    c_absent: float
    c_total: float
    n: float


def likelihood_ratio(pair: HypothesisPair, outcome: Outcome) -> float:
    """Per-trial ratio lambda = P(outcome | absent) / P(outcome | present).

    Counts beyond a saturated boundary clip onto it; for unsaturated
    tables they are outside the enumerated support and raise.
    """
    j, k = outcome.j, outcome.k
    joint = pair.present.is_joint
    if joint != (k is not None):
        raise ParameterError("outcome arity does not match the distribution")
    if pair.saturation is None:
        top = pair.present.k_max
        if j > top or (k is not None and k > top):
            raise OutcomeOutsideSupportError(
                f"outcome {outcome} beyond the table (k_max = {top}); "
                "rebuild with a larger table or apply saturation"
            )
    pe = max(pair.present.prob(j, k), PROB_FLOOR)
    pa = max(pair.absent.prob(j, k), PROB_FLOOR)
    if pe == PROB_FLOOR and pa == PROB_FLOOR:
        return 1.0
    return pa / pe


def posterior_trajectory(pair: HypothesisPair, outcomes) -> np.ndarray:
    """Posterior probability of presence after each outcome in turn,
    starting from even prior odds."""
    if len(outcomes) == 0:
        return np.zeros(0)
    log_lambdas = [math.log(likelihood_ratio(pair, o)) for o in outcomes]
    return expit(-np.cumsum(log_lambdas))


def loglik_moments(pair: HypothesisPair) -> LogLikMoments:
    """Exact per-trial moments of ln(lambda) under both truths.

    Sums run over the enumerated tables, whose tails are at most 1.8e-10
    (the tail allowance at the 10000-count cap), so the discarded
    contribution is far below the quoted precision.
    """
    for dist, name in ((pair.present, "present"), (pair.absent, "absent")):
        if not (abs(dist.total() + dist.tail_mass - 1.0) <= NORMALIZATION_TOL):
            raise ParameterError(f"{name} distribution is not normalized")

    def _moments(truth_probs: np.ndarray) -> tuple[float, float]:
        mask = truth_probs > 0.0
        w = truth_probs[mask]
        x = pair.log_ratio[mask]
        mu = float(np.dot(w, x))
        second = float(np.dot(w, x * x))
        return mu, math.sqrt(max(0.0, second - mu * mu))

    mu_p, sigma_p = _moments(pair.present.probs)
    mu_a, sigma_a = _moments(pair.absent.probs)
    return LogLikMoments(
        mu_present=mu_p, sigma_present=sigma_p, mu_absent=mu_a, sigma_absent=sigma_a
    )


def lognormal_pdf(lam: float, mu_y: float, sigma_y: float) -> float:
    """Density of the run-level ratio when ln(lambda) is normal with the
    given run-level mean and spread."""
    if not lam > 0.0:
        raise ParameterError(f"ratio must be > 0, got {lam}")
    if not sigma_y > 0.0:
        raise DegenerateMomentsError(f"sigma_y must be > 0, got {sigma_y}")
    z = (math.log(lam) - mu_y) / sigma_y
    return math.exp(-0.5 * z * z) / (lam * sigma_y * math.sqrt(2.0 * math.pi))


def _confidence_real(n: float, moments: LogLikMoments) -> ConfidenceReport:
    m = moments
    if m.sigma_present <= 0.0 or m.sigma_absent <= 0.0:
        raise DegenerateMomentsError(
            "zero log-ratio spread; the hypotheses are not discriminable "
            "by the normal approximation"
        )
    root = math.sqrt(n / 2.0)
    c_p = 0.5 * (1.0 - math.erf(root * m.mu_present / m.sigma_present))
    c_a = 0.5 * (1.0 + math.erf(root * m.mu_absent / m.sigma_absent))
    return ConfidenceReport(c_present=c_p, c_absent=c_a, c_total=0.5 * (c_p + c_a), n=n)


def confidence(n: int, moments: LogLikMoments) -> ConfidenceReport:
    """Probability of deciding correctly after n trials, under each truth
    and averaged, in the normal approximation of the log ratio."""
    if n < 1:
        raise ParameterError(f"trial count must be >= 1, got {n}")
    return _confidence_real(float(n), moments)


# Bracket expansion in n_for_confidence stops here; beyond it the target
# is treated as unreachable.
_N_SEARCH_CAP = 2.0**62


def _n_real(moments: LogLikMoments, c_target: float) -> float:
    """Real-valued trial count where the averaged confidence crosses
    c_target; the integer answer is its ceiling."""
    if not (0.5 < c_target < 1.0):
        raise ParameterError(f"c_target must lie in (0.5, 1), got {c_target}")
    m = moments
    if m.sigma_present <= 0.0 or m.sigma_absent <= 0.0 or not (
        m.mu_present < 0.0 < m.mu_absent
    ):
        raise HypothesesIndistinguishableError(
            "log-ratio means must straddle zero (mu_present < 0 < mu_absent) "
            "for the confidence to approach 1"
        )
    lo, hi = 0.0, 1.0
    while _confidence_real(hi, m).c_total < c_target:
        hi *= 2.0
        if hi > _N_SEARCH_CAP:
            raise HypothesesIndistinguishableError(
                f"confidence never reaches {c_target} within {_N_SEARCH_CAP} trials"
            )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # lo and hi are adjacent floats; no further step moves hi
            break
        if _confidence_real(mid, m).c_total >= c_target:
            hi = mid
        else:
            lo = mid
    return hi


def n_for_confidence(c_target: float, moments: LogLikMoments) -> int:
    """Smallest integer trial count whose averaged confidence meets
    c_target."""
    n = max(1, math.ceil(_n_real(moments, c_target)))
    # the bisection root is accurate to ~1 ulp; walk the integer boundary
    # so minimality is exact
    while n > 1 and _confidence_real(n - 1.0, moments).c_total >= c_target:
        n -= 1
    while _confidence_real(float(n), moments).c_total < c_target:
        n += 1
    return n


def mean_posterior(mu_y: float, sigma_y: float) -> float:
    """Average posterior probability of presence over runs, when the run
    log ratio is normal with the given mean and spread.

    Integrates sigmoid(-y) against the normal density by adaptive
    quadrature over ten spreads around the mean, absolute error 1e-10 or
    better.
    """
    if sigma_y < 0.0:
        raise DegenerateMomentsError(f"sigma_y must be >= 0, got {sigma_y}")
    if sigma_y == 0.0:
        return float(expit(-mu_y))
    norm = 1.0 / (sigma_y * math.sqrt(2.0 * math.pi))

    def integrand(y: float) -> float:
        z = (y - mu_y) / sigma_y
        return float(expit(-y)) * math.exp(-0.5 * z * z)

    value, _ = quad(
        integrand, mu_y - 10.0 * sigma_y, mu_y + 10.0 * sigma_y, epsabs=1e-12, limit=200
    )
    return norm * value
