"""A 40-digit referee for the scoring path.

mpmath at 40 significant digits evaluates a pair's closed-form tables over
0..k_max counts per detector, as ``photon_stats._pmf_tables`` documents
them.  For two detectors the absent table is the Poisson envelope, two
Poisson(n_bar / 2) factors, and the present table is the envelope times the
bracket

    B(s, d) = 1 - eta xi + eta xi n_noise s / n_bar^2
              + eta^2 xi epsilon n_c d^2 / n_bar^2 - cross d / n_bar,

s = j + k, d = j - k, cross = 2 eta cos_theta sqrt(xi (1 - xi) epsilon n_c).
The envelope is positive in every cell, so the log ratio ln(absent /
present) is -ln B exactly.  A direct pair is exact in closed form:
absent Pois(k; n) and present (1 - eta xi) Pois(k; n) + eta xi
Pois(k - 1; n), with n = eta n_e + n_i.

A pair saturated at t <= k_max is folded as ``photon_stats._fold_into``
folds it: cells with every count below t are exact, an edge cell sums its
table over the saturated counts t..k_max, and the corner, which also
takes the mass beyond the table, is one minus the rest, as both tables
sum to one in the model.  ``reference_moments`` takes the log ratio's mean
and spread under each table.  The float parameters enter exactly, as
mpmath reads a float without rounding.
"""

from __future__ import annotations

import mpmath

from homdetect.bayes import LogLikMoments
from homdetect.photon_stats import Protocol, ProtocolParams

DIGITS = 40


def _poisson(mean, k_max: int) -> list:
    """Pois(k; mean) for k = 0..k_max."""
    poisson = [mpmath.exp(-mean)]
    for k in range(1, k_max + 1):
        poisson.append(poisson[-1] * mean / k)
    return poisson


def _brackets(params: ProtocolParams, k_max: int):
    """The Poisson(n_bar / 2) factors over 0..k_max and the bracket B as a
    function of the cell (j, k)."""
    mpf = mpmath.mpf
    xi, eta, eps = mpf(params.xi), mpf(params.eta), mpf(params.epsilon)
    n_c, cos_theta = mpf(params.n_c), mpf(params.cos_theta)
    n_noise = eta * (1 - eps) * n_c + eta * mpf(params.n_e) + 2 * mpf(params.n_i)
    n_bar = eta * eps * n_c + n_noise
    cross = 2 * eta * cos_theta * mpmath.sqrt(xi * (1 - xi) * eps * n_c)
    by_total = [1 - eta * xi + eta * xi * n_noise * s / n_bar**2 for s in range(2 * k_max + 1)]
    by_diff = {d: eta**2 * xi * eps * n_c * d**2 / n_bar**2 - cross * d / n_bar
               for d in range(-k_max, k_max + 1)}
    return _poisson(n_bar / 2, k_max), lambda j, k: by_total[j + k] + by_diff[j - k]


def _whole_two_detector(params: ProtocolParams, k_max: int) -> LogLikMoments:
    """The unsaturated two-detector moments, row by row with L = -ln B."""
    poisson, bracket_at = _brackets(params, k_max)
    sums = [mpmath.mpf(0)] * 4  # sum of p L, p L^2, a L, a L^2
    for j in range(k_max + 1):
        row = [mpmath.mpf(0)] * 4
        for k in range(k_max + 1):
            bracket = bracket_at(j, k)
            log_ratio = -mpmath.log(bracket)
            weighted = poisson[k] * log_ratio
            squared = weighted * log_ratio
            row[0] += weighted * bracket
            row[1] += squared * bracket
            row[2] += weighted
            row[3] += squared
        for i in range(4):
            sums[i] += poisson[j] * row[i]
    moments = []
    for mu, second in (sums[:2], sums[2:]):
        moments += [float(mu), float(mpmath.sqrt(second - mu * mu))]
    return LogLikMoments(*moments)


def _folded_two_detector(params: ProtocolParams, k_max: int, t: int) -> list[tuple]:
    """The (present, absent) cells of a two-detector pair folded at t."""
    poisson, bracket_at = _brackets(params, k_max)
    cells = []
    for j in range(t):
        cells += [(poisson[j] * poisson[k] * bracket_at(j, k), poisson[j] * poisson[k])
                  for k in range(t)]
    saturated = range(t, k_max + 1)
    edge = mpmath.fsum(poisson[s] for s in saturated)
    for k in range(t):
        # the edge cells (t, k) and (k, t)
        for present in (mpmath.fsum(poisson[s] * bracket_at(s, k) for s in saturated),
                        mpmath.fsum(poisson[s] * bracket_at(k, s) for s in saturated)):
            cells.append((poisson[k] * present, poisson[k] * edge))
    return cells


def _direct(params: ProtocolParams, k_max: int, t: int | None) -> list[tuple]:
    """The (present, absent) cells of a direct pair over 0..k_max, or
    below t when folded."""
    mpf = mpmath.mpf
    n = mpf(params.eta) * mpf(params.n_e) + mpf(params.n_i)
    if n == 0:
        raise ValueError("the referee covers direct pairs of background n > 0")
    q = mpf(params.eta) * mpf(params.xi)
    poisson = _poisson(n, k_max)
    return [((1 - q) * poisson[k] + (q * poisson[k - 1] if k else 0), poisson[k])
            for k in range(k_max + 1 if t is None else t)]


def reference_moments(params: ProtocolParams, k_max: int, t: int | None = None) -> LogLikMoments:
    """The four moments of ``loglik_moments`` for the pair at params on
    0..k_max counts per detector, unsaturated or folded at t <= k_max,
    each computed to 40 digits and rounded once to a float."""
    if t is not None and not 1 <= t <= k_max:
        raise ValueError(f"the referee folds at 1 <= t <= k_max, got t = {t}, k_max = {k_max}")
    with mpmath.workdps(DIGITS):
        if params.protocol is Protocol.DIRECT:
            cells = _direct(params, k_max, t)
        elif t is None:
            return _whole_two_detector(params, k_max)
        else:
            cells = _folded_two_detector(params, k_max, t)
        if t is not None:
            cells.append((1 - mpmath.fsum(p for p, _ in cells),
                          1 - mpmath.fsum(a for _, a in cells)))
        moments = []
        for truth in (0, 1):
            terms = [(cell[truth], mpmath.log(cell[1] / cell[0])) for cell in cells]
            mu = mpmath.fsum(w * x for w, x in terms)
            second = mpmath.fsum(w * x * x for w, x in terms)
            moments += [float(mu), float(mpmath.sqrt(second - mu * mu))]
    return LogLikMoments(*moments)


def within(moments: LogLikMoments, reference: LogLikMoments, tol: float) -> bool:
    """Each mean within tol of the reference's spread of the reference
    mean, and each spread within tol of the reference spread, relative."""
    return all(
        abs(mu - mu_ref) <= tol * sigma_ref and abs(sigma - sigma_ref) <= tol * sigma_ref
        for mu, sigma, mu_ref, sigma_ref in (
            (moments.mu_present, moments.sigma_present,
             reference.mu_present, reference.sigma_present),
            (moments.mu_absent, moments.sigma_absent, reference.mu_absent, reference.sigma_absent),
        )
    )
