"""Trajectory sampling for the hypothesis test.

Simulates many independent measurement runs: each trajectory draws
count records from the truth's distribution, accumulates the log
likelihood ratio, and tracks the posterior probability of presence.
Ensemble summaries (per-step mean and quartiles, final decision rate)
back-check the closed-form confidence and the log-normal approximation.

Randomness is counter-based: trajectory i of a run seeded with s draws
from an independent stream keyed by (s, i), so results do not depend on
execution order or batching.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

from .bayes import HypothesisPair, confidence, loglik_moments
from .photon_stats import CountDistribution, Outcome, ParameterError, atomic_write_text

__all__ = [
    "Truth",
    "EnsembleConfig",
    "TrajectoryEnsemble",
    "LogLambdaHistogram",
    "sample_outcome",
    "simulate_ensemble",
    "loglambda_histogram",
]


class Truth(str, Enum):
    PRESENT = "present"
    ABSENT = "absent"


@dataclass(frozen=True)
class EnsembleConfig:
    """One simulated experiment: which truth generates the data, how many
    trials per run, how many runs, and the seed."""

    pair: HypothesisPair
    truth: Truth
    n_measurements: int
    n_trajectories: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "truth", Truth(self.truth))
        for name in ("n_measurements", "n_trajectories", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if self.n_measurements < 1:
            raise ParameterError(f"n_measurements must be >= 1, got {self.n_measurements}")
        if self.n_trajectories < 1:
            raise ParameterError(f"n_trajectories must be >= 1, got {self.n_trajectories}")
        if not (0 <= self.seed < 2**63):
            raise ParameterError(f"seed must be a nonnegative 63-bit integer, got {self.seed}")

    @property
    def truth_dist(self) -> CountDistribution:
        return self.pair.present if self.truth is Truth.PRESENT else self.pair.absent


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Per-step posterior summaries and final decisions of one ensemble.

    Arrays are indexed by measurement step (0 -> after the first trial).
    ``empirical_confidence`` is the fraction of trajectories whose final
    posterior favors the truth; a final posterior of exactly one half
    counts as incorrect.  ``analytic_confidence`` is the erf prediction
    for the same truth.
    """

    config: EnsembleConfig
    mean_pe: np.ndarray
    q25: np.ndarray
    q75: np.ndarray
    final_log_lambda: np.ndarray
    empirical_confidence: float
    analytic_confidence: float

    def to_csv(self, path: str | os.PathLike) -> None:
        lines = ["step,mean_Pe,q25,q75"]
        for i in range(self.mean_pe.size):
            lines.append(
                f"{i + 1},{self.mean_pe[i]:.17g},{self.q25[i]:.17g},{self.q75[i]:.17g}"
            )
        atomic_write_text(path, "\n".join(lines) + "\n")

    def summary_dict(self) -> dict:
        return {
            "empirical_confidence": self.empirical_confidence,
            "analytic_confidence": self.analytic_confidence,
            "N": self.config.n_measurements,
            "seed": int(self.config.seed),
            "truth": self.config.truth.value,
            "n_trajectories": self.config.n_trajectories,
        }

    def to_summary_json(self, path: str | os.PathLike) -> None:
        atomic_write_text(path, json.dumps(self.summary_dict(), indent=1) + "\n")


@dataclass(frozen=True)
class LogLambdaHistogram:
    """Final log-ratio samples with their normal-approximation overlay."""

    samples: np.ndarray
    bin_edges: np.ndarray
    density: np.ndarray
    mu_y: float
    sigma_y: float


def _draw_cells(dist: CountDistribution, u: np.ndarray) -> np.ndarray:
    """Flat row-major table indices of the records that uniforms u draw,
    by inverting the cumulative table; a u above its rounded top lands
    on the last cell."""
    cdf = np.cumsum(dist.probs.ravel())
    idx = np.searchsorted(cdf, u, side="right")
    # in place: a second index array would add u.size words to the peak
    np.clip(idx, 0, cdf.size - 1, out=idx)
    return idx


def sample_outcome(dist: CountDistribution, rng: np.random.Generator) -> Outcome:
    """Draw one count record from one uniform of rng, by the inverse-CDF
    draw that ``simulate_ensemble`` makes."""
    (flat,) = _draw_cells(dist, rng.random(1))
    return Outcome(*(int(i) for i in np.unravel_index(flat, dist.probs.shape)))


def _trajectory_uniforms(seed: int, n_trajectories: int, n_measurements: int) -> np.ndarray:
    out = np.empty((n_trajectories, n_measurements))
    for i in range(n_trajectories):
        stream = np.random.Generator(np.random.Philox(key=[seed, i]))
        out[i] = stream.random(n_measurements)
    return out


def simulate_ensemble(config: EnsembleConfig) -> TrajectoryEnsemble:
    """Run the full ensemble and summarize the posterior per step.

    Trajectory i draws its records as ``sample_outcome`` does from
    ``Philox(key=[seed, i])`` and scores them from ``pair.log_ratio``, so
    its posterior is ``posterior_trajectory`` of those records, bit for
    bit.  Identical configs give bit-identical results, and the summaries
    are plain deterministic reductions.
    """
    idx = _draw_cells(config.truth_dist, _trajectory_uniforms(
        int(config.seed), config.n_trajectories, config.n_measurements))
    cum_log = np.cumsum(config.pair.log_ratio.ravel()[idx], axis=1)
    del idx

    pe = expit(-cum_log)
    mean_pe = pe.mean(axis=0)
    pe.sort(axis=0)
    n = config.n_trajectories
    i25 = math.ceil(0.25 * n) - 1
    i75 = math.ceil(0.75 * n) - 1
    q25 = pe[i25].copy()
    q75 = pe[i75].copy()
    del pe

    final = cum_log[:, -1].copy()
    if config.truth is Truth.PRESENT:
        empirical = float(np.mean(final < 0.0))
    else:
        empirical = float(np.mean(final > 0.0))

    return TrajectoryEnsemble(
        config=config,
        mean_pe=mean_pe,
        q25=q25,
        q75=q75,
        final_log_lambda=final,
        empirical_confidence=empirical,
        analytic_confidence=_analytic_confidence(config),
    )


def _analytic_confidence(config: EnsembleConfig) -> float:
    """erf prediction of the final decision rate for the config's truth.

    A zero log-ratio spread means every run ends at the same log ratio;
    the deterministic limit applies, with ties counted incorrect.
    """
    m = loglik_moments(config.pair)
    present = config.truth is Truth.PRESENT
    mu, sigma = (m.mu_present, m.sigma_present) if present else (m.mu_absent, m.sigma_absent)
    if sigma == 0.0:
        return float((mu < 0.0) if present else (mu > 0.0))
    report = confidence(config.n_measurements, m)
    return report.c_present if present else report.c_absent


def loglambda_histogram(config: EnsembleConfig, bins: int = 60) -> LogLambdaHistogram:
    """Histogram the final log ratio across the ensemble, with the
    matching normal-approximation parameters for overlay."""
    if bins < 1:
        raise ParameterError(f"bins must be >= 1, got {bins}")
    ensemble = simulate_ensemble(config)
    m = loglik_moments(config.pair)
    n = config.n_measurements
    if config.truth is Truth.PRESENT:
        mu_y, sigma_y = n * m.mu_present, math.sqrt(n) * m.sigma_present
    else:
        mu_y, sigma_y = n * m.mu_absent, math.sqrt(n) * m.sigma_absent
    density, edges = np.histogram(ensemble.final_log_lambda, bins=bins, density=True)
    return LogLambdaHistogram(
        samples=ensemble.final_log_lambda,
        bin_edges=edges,
        density=density,
        mu_y=mu_y,
        sigma_y=sigma_y,
    )
