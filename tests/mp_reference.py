"""A 40-digit referee for the unsaturated scoring path.

mpmath at 40 significant digits evaluates a two-detector pair's closed-form
tables over 0..k_max counts per detector, as ``photon_stats._pmf_tables``
documents them: the absent table is the Poisson envelope, two
Poisson(n_bar / 2) factors, and the present table is the envelope times the
bracket

    B(s, d) = 1 - eta xi + eta xi n_noise s / n_bar^2
              + eta^2 xi epsilon n_c d^2 / n_bar^2 - cross d / n_bar,

s = j + k, d = j - k, cross = 2 eta cos_theta sqrt(xi (1 - xi) epsilon n_c).
The envelope is positive in every cell, so the log ratio ln(absent /
present) is -ln B exactly; ``reference_moments`` takes its mean and spread
under each table.  The float parameters enter exactly, as mpmath reads a
float without rounding.
"""

from __future__ import annotations

import mpmath

from homdetect.bayes import LogLikMoments
from homdetect.photon_stats import Protocol, ProtocolParams

DIGITS = 40


def reference_moments(params: ProtocolParams, k_max: int) -> LogLikMoments:
    """The four moments of ``loglik_moments`` for the unsaturated
    two-detector pair at params on 0..k_max counts per detector, each
    computed to 40 digits and rounded once to a float."""
    if params.protocol is Protocol.DIRECT:
        raise ValueError("the referee covers two-detector pairs")
    with mpmath.workdps(DIGITS):
        mpf = mpmath.mpf
        xi, eta, eps = mpf(params.xi), mpf(params.eta), mpf(params.epsilon)
        n_c, cos_theta = mpf(params.n_c), mpf(params.cos_theta)
        n_noise = eta * (1 - eps) * n_c + eta * mpf(params.n_e) + 2 * mpf(params.n_i)
        n_bar = eta * eps * n_c + n_noise
        mean = n_bar / 2
        poisson = [mpmath.exp(-mean)]
        for k in range(1, k_max + 1):
            poisson.append(poisson[-1] * mean / k)
        cross = 2 * eta * cos_theta * mpmath.sqrt(xi * (1 - xi) * eps * n_c)
        by_total = [1 - eta * xi + eta * xi * n_noise * s / n_bar**2 for s in range(2 * k_max + 1)]
        by_diff = {d: eta**2 * xi * eps * n_c * d**2 / n_bar**2 - cross * d / n_bar
                   for d in range(-k_max, k_max + 1)}
        sums = [mpf(0)] * 4  # sum of p L, p L^2, a L, a L^2
        for j in range(k_max + 1):
            row = [mpf(0)] * 4
            for k in range(k_max + 1):
                bracket = by_total[j + k] + by_diff[j - k]
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
