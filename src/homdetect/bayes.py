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
from dataclasses import astuple, dataclass
from functools import cached_property

import numpy as np
from scipy.special import erfinv, expit

from .photon_stats import (
    CountDistribution,
    Outcome,
    ParameterError,
    ProtocolParams,
    _bracketed,
    _check_budget,
    _checked_tail,
    _fold_into,
    _is_whole,
    _scoring_bytes,
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


class OutcomeOutsideSupportError(LookupError):
    """The observed counts fall outside the enumerated table."""


class DegenerateMomentsError(ValueError):
    """A spread the normal approximation cannot use."""


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
        if a.params._with_field("xi", 0.0) != b.params:
            raise ParameterError("absent hypothesis must be at xi = 0 and differ in nothing else")
        if a.probs.shape != b.probs.shape:
            raise ParameterError("hypothesis tables have different shapes")
        if a.saturation != b.saturation:
            raise ParameterError("hypotheses have different saturation")

    @classmethod
    def from_params(cls, params: ProtocolParams) -> "HypothesisPair":
        """Build the absent table, the Poisson envelope, once and the
        present table as it times the emitter's bracket, each with its own
        tail check and the bits a build of its own gives; both unsaturated.
        At xi = 0 the absent table stands for both."""
        absent = build_distribution(params._with_field("xi", 0.0))
        if params.xi == 0.0:
            return cls(present=absent, absent=absent)
        counts = np.arange(absent.k_max + 1.0)
        present = CountDistribution(params, _bracketed(params, absent.probs, counts, counts))
        return cls(present=present, absent=absent)

    def saturated(self, t: int | None) -> "HypothesisPair":
        """The pair seen by detectors saturating at t: both tables folded
        by ``apply_saturation``, present first; t = None returns the pair
        itself.  One unsaturated pair can be folded at several t."""
        if t is None:
            return self
        return HypothesisPair(
            present=apply_saturation(self.present, t), absent=apply_saturation(self.absent, t)
        )

    @cached_property
    def log_ratio(self) -> np.ndarray:
        """ln(lambda) for every tabulated outcome, read-only, floored so
        conclusive outcomes stay finite; an outcome dead under both
        hypotheses floors both logs alike, so it gets exactly +0.0."""
        table = _log_ratios(self.present.probs, self.absent.probs)
        table.setflags(write=False)
        return table


def _floored_log(table: np.ndarray) -> np.ndarray:
    """ln(max(table, PROB_FLOOR)) as a new array, taken in place."""
    out = np.maximum(table, PROB_FLOOR)
    return np.log(out, out=out)


def _log_ratios(present: np.ndarray, absent: np.ndarray) -> np.ndarray:
    """ln(max(pa, F)) - ln(max(pe, F)) of two aligned tables, F =
    PROB_FLOOR, written into the present side's logs: the new table and
    one temporary for the absent side are its only allocations."""
    log_a, table = _floored_log(absent), _floored_log(present)
    return np.subtract(log_a, table, out=table)


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


def _log_ratio_at(pair: HypothesisPair, outcome: Outcome) -> float:
    """The entry of ``pair.log_ratio`` for one record."""
    cell = pair.present.cell(*outcome)
    if cell is None:
        raise OutcomeOutsideSupportError(
            f"outcome {outcome} beyond the unsaturated table (k_max = {pair.present.k_max})"
        )
    return pair.log_ratio[cell]


def likelihood_ratio(pair: HypothesisPair, outcome: Outcome) -> float:
    """Per-trial ratio lambda = P(outcome | absent) / P(outcome | present),
    read from the floored ``pair.log_ratio`` table that the moments and
    ensembles use.

    Counts beyond a saturated boundary clip onto it; for unsaturated
    tables they are outside the enumerated support and raise.
    """
    return math.exp(_log_ratio_at(pair, outcome))


def posterior_trajectory(pair: HypothesisPair, outcomes) -> np.ndarray:
    """Posterior probability of presence after each outcome of an iterable
    in turn, starting from even prior odds; equal to an ensemble
    trajectory that draws the same records."""
    return expit(-np.cumsum([_log_ratio_at(pair, o) for o in outcomes]))


def loglik_moments(pair: HypothesisPair) -> LogLikMoments:
    """Exact per-trial moments of ln(lambda) under both truths.

    Each is a dot product of a whole table with ``log_ratio`` or its
    square, whose entries are finite, so a zero cell adds an exact +0.
    Every table has checked its own mass where it was made, so the sums run
    over tables whose tails are at most 1.8e-10 (the tail allowance at the
    10000-count cap), far below the quoted precision.
    """
    return _moments(pair.log_ratio, pair.present.probs, pair.absent.probs)


def _moments(log_ratio: np.ndarray, present: np.ndarray, absent: np.ndarray,
             scale: float = 1.0, in_place: bool = False) -> LogLikMoments:
    """The mean and spread of ``log_ratio`` weighted by the present and the
    absent table, aligned with it, each sum times ``scale``.  The squares
    go into a new table, or with ``in_place`` into ``log_ratio`` itself
    once the means are taken."""
    x, w_p, w_a = log_ratio.ravel(), present.ravel(), absent.ravel()
    mu_p, mu_a = scale * float(np.dot(w_p, x)), scale * float(np.dot(w_a, x))
    squared = np.multiply(x, x, out=x) if in_place else x * x
    second_p, second_a = scale * float(np.dot(w_p, squared)), scale * float(np.dot(w_a, squared))
    return LogLikMoments(mu_p, math.sqrt(max(0.0, second_p - mu_p * mu_p)),
                         mu_a, math.sqrt(max(0.0, second_a - mu_a * mu_a)))


# Two-detector pairs of at least _LATTICE_K_MAX counts per detector are
# scored on a sub-lattice where it passes a check: a mean within
# _LATTICE_TOL of its spread, and a spread within _LATTICE_TOL relative.
# Below k_max 73 the mean count per detector mu is below 18.9, where the
# check's h = 3 edge term 2 exp(-1.5 mu) alone exceeds _LATTICE_TOL, so
# no smaller table passes it: none of the 330 pairs of k_max 64-72 in
# figS4, fig3a and fig3b would, and the first that does is at 79.
_LATTICE_K_MAX = 73
_LATTICE_TOL = 1e-12


def _lattice_moments(present: np.ndarray, absent: np.ndarray) -> LogLikMoments | None:
    """The t = None moments of a two-detector pair's tables of k_max >=
    _LATTICE_K_MAX from its four sums over every second count in each
    detector times 4, where they agree with the sums over every third count
    times 9 within _LATTICE_TOL; None for a smaller pair or one the check
    refuses, which ``loglik_moments`` scores over the whole tables.  An
    accepted result is within _LATTICE_TOL, and the sums' rounding, of the
    exact sums.

    By Poisson summation, h^2 times the sum of a smooth summand over the
    h-spaced sub-lattice misses the whole sum by its Fourier transform at
    the dual lattice's nonzero points, (m1, m2) / h.  The envelope's
    Gaussian width sqrt(mu) makes that term fall like exp(-2 pi^2 mu / h^2),
    a complex zero of the bracket at distance a from the real axis like
    exp(-2 pi a / h), and the table's edge at count 0 like exp(-2 mu) at
    h = 2 and 2 exp(-1.5 mu) at h = 3.  Each shrinks from h = 3 to h = 2:
    over the 818 pairs of k_max >= 73 in figS4, fig3a and fig3b whose
    h = 3 error exceeds 1e-13, the h = 2 error is at most 0.37 of it.  With
    e2 <= e3 / 2, sums that agree within _LATTICE_TOL give e3 <= 2
    (_LATTICE_TOL + r) and e2 <= _LATTICE_TOL + r, r the rounding of the
    sums (about 1e-14, as in the whole-table ones).  Every table is still
    built whole and mass-checked; only these four sums read a sub-lattice.
    """
    if present.ndim != 2 or present.shape[0] - 1 < _LATTICE_K_MAX:
        return None
    sums = []
    for h in (2, 3):
        p, a = (np.ascontiguousarray(table[::h, ::h]) for table in (present, absent))
        sums.append(_moments(_log_ratios(p, a), p, a, scale=h * h))
    fine, coarse = sums
    # each moment in units of its own truth's spread
    spreads = (fine.sigma_present,) * 2 + (fine.sigma_absent,) * 2
    if all(abs(x - y) <= _LATTICE_TOL * s
           for x, y, s in zip(astuple(fine), astuple(coarse), spreads)):
        return fine
    return None


def _fold_stack(absent: CountDistribution, t: int, presents: int) -> np.ndarray:
    """A zeroed stack of 1 + ``presents`` tables of t + 1 counts per
    detector, the absent table folded at t into the first; the presents'
    folds go into the rest, in order (``photon_stats._fold_into``)."""
    stack = np.zeros((1 + presents,) + (t + 1,) * absent.probs.ndim)
    _fold_into(stack[0], absent.probs, absent.tail_mass, t)
    return stack


def _stacked_moments(stack: np.ndarray, params: list[ProtocolParams], t: int
                     ) -> list[LogLikMoments]:
    """The moments of each present fold in ``stack[1:]`` against the absent
    fold ``stack[0]``, each as ``loglik_moments`` gives its folded pair, bit
    for bit; ``params`` holds each fold's params, absent first.

    Every fold's mass is checked, as ``apply_saturation`` checks it, from
    one sum over the stack: the first present's, then the absent's, then
    the others', and the first that fails raises.  The stack is then logged
    with one ``np.log``, and each present's log ratio and its squares are
    taken in its own logs."""
    totals = stack.reshape(len(stack), -1).sum(axis=1).tolist()
    for i in (1, 0, *range(2, len(stack))):
        _checked_tail(params[i], stack[i], t, totals[i])
    logs = _floored_log(stack)
    moments = []
    for i in range(1, len(stack)):
        np.subtract(logs[0], logs[i], out=logs[i])
        moments.append(_moments(logs[i], stack[i], stack[0], in_place=True))
    return moments


def _brightness_moments(params: list[ProtocolParams], saturations: tuple[int | None, ...]
                        ) -> list[dict[int | None, LogLikMoments]]:
    """The moments by saturation of each params, which differ in protocol
    and cos_theta alone, so that one absent table serves them all: each
    equal to a build of its own, ``loglik_moments(pair.saturated(t))`` of
    ``HypothesisPair.from_params``, or at t = None ``_lattice_moments`` of
    its tables or ``loglik_moments(pair)``, bit for bit.  One rule for a
    failure: whatever stops any params' tables, or the memory budget of
    their stacks together, raises, and nothing is returned
    (``sweep._RowGroup.get`` then scores the params that asked alone).

    Where two or more params share, the budget is checked before anything
    is built.  The absent table is built once, through
    ``build_distribution``.  Each present is then built, mass-checked and
    scored at t = None, one at a time: on its sub-lattice, or against the
    absent table's floored logs, made for the first present the sub-lattice
    refuses, kept for the presents after it and dropped before the last
    squares its ratios.  The folds at each t lie in one stack, absent
    first, scored at once (``_stacked_moments``): each present but the last
    is folded into every stack and dropped before the next is built, and
    the last, still live, into each stack as it is scored, so that params
    scored alone fold and score one t at a time, as a pair of their own
    does.  So no more whole tables are live than for a pair of its own."""
    folds = [t for t in saturations if t is not None]
    last = len(params) - 1
    if last:
        _check_budget(sum(_scoring_bytes(t, params[0].protocol.detectors, len(params))
                          for t in folds), f"scoring {len(params)} protocols at one brightness")
    absent = build_distribution(params[0]._with_field("xi", 0.0))
    stacks = {t: _fold_stack(absent, t, len(params)) for t in folds} if last else {}
    counts = np.arange(absent.k_max + 1.0)
    scored: list[dict[int | None, LogLikMoments]] = [{} for _ in params]
    log_a = None
    for i, p in enumerate(params):
        if p.xi == 0.0:
            present, tail = absent.probs, absent.tail_mass
        else:
            present = _bracketed(p, absent.probs, counts, counts)
            tail = _checked_tail(p, present, None)
        if None in saturations:
            moments = _lattice_moments(present, absent.probs)
            if moments is None:
                if log_a is None:
                    log_a = _floored_log(absent.probs)
                ratio = _floored_log(present)
                np.subtract(log_a, ratio, out=ratio)
                if i == last:
                    log_a = None
                moments = _moments(ratio, present, absent.probs, in_place=i < last)
                del ratio
            scored[i][None] = moments
        if i < last:
            for t, stack in stacks.items():
                _fold_into(stack[i + 1], present, tail, t)
            present = None
    log_a = None
    for t in folds:
        stack = stacks.pop(t) if last else _fold_stack(absent, t, 1)
        _fold_into(stack[-1], present, tail, t)
        for by_t, moments in zip(scored, _stacked_moments(stack, [absent.params, *params], t)):
            by_t[t] = moments
        del stack
    return scored


def lognormal_pdf(lam: float, mu_y: float, sigma_y: float) -> float:
    """Density of the run-level ratio when ln(lambda) is normal with the
    given run-level mean and spread."""
    if not lam > 0.0 or math.isnan(mu_y):
        raise ParameterError(f"ratio must be > 0 and mu_y a number, got {lam}, {mu_y}")
    if not sigma_y > 0.0:
        raise DegenerateMomentsError(f"sigma_y must be > 0, got {sigma_y}")
    z = (math.log(lam) - mu_y) / sigma_y
    return math.exp(-0.5 * z * z) / (lam * sigma_y * math.sqrt(2.0 * math.pi))


def _confidences(n: float, m: LogLikMoments) -> tuple[float, float, float]:
    """Confidence after a real-valued n trials under the present truth, the
    absent truth and averaged; a zero spread takes ``confidence``'s limit."""
    root = math.sqrt(n / 2.0)
    c_p = (0.5 * (1.0 - math.erf(root * m.mu_present / m.sigma_present))
           if m.sigma_present > 0.0 else float(m.mu_present < 0.0))
    c_a = (0.5 * (1.0 + math.erf(root * m.mu_absent / m.sigma_absent))
           if m.sigma_absent > 0.0 else float(m.mu_absent > 0.0))
    return c_p, c_a, 0.5 * (c_p + c_a)


def _check_spreads(moments: LogLikMoments) -> None:
    """A log-ratio spread must be a number >= 0."""
    if not (moments.sigma_present >= 0.0 and moments.sigma_absent >= 0.0):
        raise DegenerateMomentsError(f"log-ratio spreads must be numbers >= 0, got {moments}")


def confidence(n: int, moments: LogLikMoments) -> ConfidenceReport:
    """Probability of deciding correctly after n trials, under each truth
    and averaged, in the normal approximation of the log ratio.

    A truth of zero spread ends every run at n·mu, so its confidence is
    exact: 1.0 when that sign favours it (mu_present < 0, mu_absent > 0),
    else 0.0, a tie counting as incorrect.  A NaN or negative spread
    raises ``DegenerateMomentsError``."""
    if not _is_whole(n) or n < 1:
        raise ParameterError(f"trial count must be an integer >= 1, got {n!r}")
    _check_spreads(moments)
    c_p, c_a, c_total = _confidences(float(n), moments)
    return ConfidenceReport(c_present=c_p, c_absent=c_a, c_total=c_total, n=float(n))


# The N search's doubling bracket stops here; beyond it the target is
# treated as unreachable.
_N_SEARCH_CAP = 2.0**62

# The N search places a window by Newton's method on r = sqrt(n/2), from
# the r where 1/2 + erf(r max(b, -a))/2, a bound of the averaged confidence
# from above, reaches c_target: that r lies below the crossing, and the
# confidence is concave in r, so the iterates rise to the crossing.  They
# stop once a step moves r by _NEWTON_TOL or less (relative), and give up
# after _NEWTON_STEPS steps.  The window reaches _N_WINDOW (relative) plus
# _C_ROUNDING ulps of c_target over the slope in n to either side of the
# estimate: near c = 0.5 and 1 the computed confidence is flat over far
# wider runs of floats (an ulp from erf, one from the mean).
_NEWTON_TOL = 1e-14
_NEWTON_STEPS = 100
_N_WINDOW = 1e-12
_C_ROUNDING = 2.0


def _check_c_target(c_target: float) -> None:
    """A target confidence must lie strictly between a coin flip and
    certainty."""
    if not (0.5 < c_target < 1.0):
        raise ParameterError(f"c_target must lie in (0.5, 1), got {c_target}")


def _newton_n(m: LogLikMoments, c_target: float) -> tuple[float, float] | None:
    """Newton's estimate of the real n where the averaged confidence,
    1/2 + (erf(r b) - erf(r a)) / 4 with r = sqrt(n/2), a = mu_p/sigma_p
    and b = mu_a/sigma_a, crosses c_target, with the confidence's slope
    in n there; None when a step is not finite or the steps do not
    settle."""
    a = m.mu_present / m.sigma_present
    b = m.mu_absent / m.sigma_absent
    gap, two_sqrt_pi = c_target - 0.5, 2.0 * math.sqrt(math.pi)
    r = float(erfinv(2.0 * gap)) / max(b, -a)
    for _ in range(_NEWTON_STEPS):
        slope = (b * math.exp(-(r * b) ** 2) - a * math.exp(-(r * a) ** 2)) / two_sqrt_pi
        step = (gap - 0.25 * (math.erf(r * b) - math.erf(r * a))) / slope
        if not math.isfinite(step):
            return None
        r += step
        if abs(step) <= _NEWTON_TOL * r:
            return 2.0 * r * r, slope / (4.0 * r)  # dn = 4 r dr
    return None


def _bracket(m: LogLikMoments, c_target: float, whole: bool) -> tuple[float, float]:
    """Trial counts lo < hi, integers when ``whole``, whose averaged
    confidences fall below and reach c_target: Newton's window, rounded
    out to integers when ``whole``, where ``_confidences`` confirms it, else
    lo = 0 and hi doubled from 1, which refuses a target not met by
    _N_SEARCH_CAP trials."""
    estimate = _newton_n(m, c_target)
    if estimate is not None:
        n, slope = estimate
        half = n * _N_WINDOW + _C_ROUNDING * math.ulp(c_target) / slope
        lo, hi = max(0.0, n - half), n + half
        if hi <= _N_SEARCH_CAP:
            if whole:
                lo, hi = math.floor(lo), math.ceil(hi)
            if _confidences(lo, m)[2] < c_target <= _confidences(hi, m)[2]:
                return lo, hi
    lo, hi = (0, 1) if whole else (0.0, 1.0)
    while _confidences(hi, m)[2] < c_target:
        hi *= 2
        if hi > _N_SEARCH_CAP:
            raise HypothesesIndistinguishableError(
                f"confidence never reaches {c_target} within {_N_SEARCH_CAP} trials"
            )
    return lo, hi


def _check_search(moments: LogLikMoments, c_target: float) -> None:
    """Refuse an N search that has no answer: a target outside (0.5, 1),
    means that do not straddle zero, a NaN or negative spread
    (``DegenerateMomentsError``) or a zero one, in that order."""
    _check_c_target(c_target)
    m = moments
    if not (m.mu_present < 0.0 < m.mu_absent):
        raise HypothesesIndistinguishableError(
            "log-ratio means must straddle zero (mu_present < 0 < mu_absent) "
            "for the confidence to approach 1"
        )
    _check_spreads(m)
    if m.sigma_present <= 0.0 or m.sigma_absent <= 0.0:
        raise HypothesesIndistinguishableError(
            "log-ratio spread is zero under one truth (every record it yields has "
            "the same ratio); the normal approximation gives no trial count"
        )


def _crossing(m: LogLikMoments, c_target: float, whole: bool) -> float | int:
    """The N search on floats or, when ``whole``, on integers:
    ``_bracket``'s interval halved until its ends are adjacent, and the
    upper end returned.  ``_confidences`` there reaches c_target and at the
    lower end falls short (or the lower end is 0); every verdict is a
    ``_confidences`` comparison, an integer read at its nearest float, and
    Newton only places the window.  So wherever the confidence is monotone
    the result is the one crossing on that grid, whatever window it
    started from."""
    _check_search(m, c_target)
    lo, hi = _bracket(m, c_target, whole)
    for _ in range(200):
        mid = (lo + hi) // 2 if whole else 0.5 * (lo + hi)
        if not lo < mid < hi:
            # lo and hi are adjacent; no further step moves hi
            break
        if _confidences(mid, m)[2] >= c_target:
            hi = mid
        else:
            lo = mid
    return hi


def _n_real(moments: LogLikMoments, c_target: float) -> float:
    """Real-valued trial count where the averaged confidence crosses
    c_target: the float where ``_confidences`` first reaches it, which is
    the float plain bisection from (0, 2^k] returns.  A target not met by
    2^62 trials raises ``HypothesesIndistinguishableError``."""
    return _crossing(moments, c_target, whole=False)


def n_for_confidence(c_target: float, moments: LogLikMoments) -> int:
    """Smallest integer trial count whose averaged confidence meets
    c_target, by ``_confidences`` alone: the integer N search, which halves
    Newton's window rounded out to integers.  A NaN or negative spread
    raises ``DegenerateMomentsError``, as in ``confidence``; a zero spread,
    or a target not met by 2^62 trials, gives no trial count and raises
    ``HypothesesIndistinguishableError``."""
    return _crossing(moments, c_target, whole=True)


def mean_posterior(mu_y: float, sigma_y: float) -> float:
    """Average posterior probability of presence over runs, when the run
    log ratio is normal with the given mean and spread.

    Integrates sigmoid(-y) against the normal density by adaptive
    quadrature over ten spreads around the mean, absolute error 1e-10 or
    better.
    """
    # imported here, its only use: scipy.integrate adds about 0.35 s and
    # 26 MB to every process that imports homdetect
    from scipy.integrate import quad

    if not sigma_y >= 0.0 or math.isnan(mu_y):
        raise DegenerateMomentsError(f"need a number mu_y and sigma_y >= 0, got {mu_y}, {sigma_y}")
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
