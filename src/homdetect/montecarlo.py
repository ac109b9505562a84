"""Trajectory sampling for the hypothesis test.

Simulates many independent measurement runs: each trajectory draws
count records from the truth's distribution, accumulates the log
likelihood ratio, and tracks the posterior probability of presence.
Ensemble summaries (per-step mean and quartiles, final decision rate)
back-check the closed-form confidence and the log-normal approximation.

Randomness is counter-based: trajectory i of a run seeded with s draws
from an independent stream keyed by (s, i), so results do not depend on
execution order or batching.  The stream is Philox4x64-10 (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) with key (s, i)
and counter word 0 running 1, 2, ...; the four output words of each
block are used in order, and word x gives the double (x >> 11)·2⁻⁵³.
That is, bit for bit, what numpy's ``Generator(Philox(key=[s, i]))``
returns from ``random``, computed here as array arithmetic over a chunk
of trajectories and a block of steps at once.

A uniform u draws the first flat row-major cell whose cumulative
probability exceeds u (the last cell, for a u above the table's rounded
top).  ``CountDistribution.inverse_cdf`` finds it through a guide table
built once per table: u in a bucket of width 2⁻¹⁴ that no cumulative
probability splits reads its cell directly, and only the rest are
binary-searched, with the bits the binary search alone gives.

An ensemble runs through its steps in blocks of four (one Philox block;
more for few trajectories): each block of log ratios is added column by
column onto one running log ratio per trajectory and turned in place into
posteriors, whose per-step mean and nearest-rank quartiles are bit for
bit those of the whole N x M array, which is never held; after the last
step the running log ratios are ``final_log_lambda``, which
``loglambda_histogram`` bins.  A run holds the running log ratios, the
block, one sorted column and one chunk's temporaries, O(N) whatever M; a
run whose estimate exceeds the 1 GiB ``photon_stats.MEMORY_BUDGET_BYTES``
is refused with ``ParameterError`` before anything is allocated.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

from .bayes import HypothesisPair, confidence, loglik_moments
from .photon_stats import (
    CountDistribution,
    InverseCdf,
    Outcome,
    ParameterError,
    _check_budget,
    _csv_text,
    _is_whole,
    _json_text,
    atomic_write_text,
)

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
            if not _is_whole(value):
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

    def _steps(self) -> dict[str, list]:
        """The per-step columns of the ensemble's CSV and JSON files, by
        name, in file order."""
        return {
            "step": list(range(1, self.mean_pe.size + 1)),
            "mean_Pe": self.mean_pe.tolist(),
            "q25": self.q25.tolist(),
            "q75": self.q75.tolist(),
        }

    def to_csv(self, path: str | os.PathLike) -> None:
        steps = self._steps()
        rows = zip(*steps.values())
        atomic_write_text(path, _csv_text(steps.keys(), "%d,%.17g,%.17g,%.17g", rows))

    def to_json(self, path: str | os.PathLike) -> None:
        """The steps as one list per column, keyed by column name."""
        atomic_write_text(path, _json_text(self._steps()))

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
        atomic_write_text(path, _json_text(self.summary_dict()))


@dataclass(frozen=True)
class LogLambdaHistogram:
    """Final log-ratio samples with their normal-approximation overlay."""

    samples: np.ndarray
    bin_edges: np.ndarray
    density: np.ndarray
    mu_y: float
    sigma_y: float


def sample_outcome(dist: CountDistribution, rng: np.random.Generator) -> Outcome:
    """Draw one count record from one uniform of rng, by the inverse-CDF
    draw that ``simulate_ensemble`` makes."""
    (flat,) = dist.inverse_cdf.cells(rng.random(1))
    return Outcome(*(int(i) for i in np.unravel_index(flat, dist.probs.shape)))


# Philox4x64-10 constants of Random123: round multipliers and key bumps
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Trajectories drawn at a time: on a 2-core Xeon VM at 100k x 50, in
# blocks of four steps, chunks of 2^14 rows ran 10 % faster than 2^13 or
# 2^15 rows and 25 % faster than 2^12
_CHUNK_ROWS = 1 << 14
# Arrays of one chunk's Philox words alive at once: 3.75 at most under
# tracemalloc (Philox rounds, uniforms, cell indices)
_CHUNK_ARRAYS = 5


def _block_steps(n_trajectories: int, n_measurements: int) -> int:
    """Steps per block, at most M: four (one Philox block), or for N below
    a chunk the multiple of four that fills a chunk's draws, as each block
    costs a fixed count of array operations (blocks of four ran 1000 x 1000
    2.6 times slower on a 2-core Xeon VM)."""
    return min(n_measurements, 4 * max(1, _CHUNK_ROWS // n_trajectories))


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Low and high words of the 128-bit products a * m, from 32-bit
    halves (uint64 array arithmetic wraps modulo 2**64)."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo = a & _LO32
    a_hi = a >> _SHIFT32
    lh = a_lo * m_hi
    hl = a_hi * m_lo
    mid = a_lo * m_lo
    mid >>= _SHIFT32
    mid += lh & _LO32
    mid += hl & _LO32
    hi = a_hi * m_hi
    hi += lh >> _SHIFT32
    hi += hl >> _SHIFT32
    hi += mid >> _SHIFT32
    return a * np.uint64(m), hi


def _trajectory_uniforms(seed: int, start: int, stop: int, steps: int, first: int = 0):
    """Uniforms of trajectories start..stop-1 at steps first..first+steps-1
    (first a multiple of 4), one row each: row i is
    ``Generator(Philox(key=[seed, i])).random(first + steps)[first:]``."""
    blocks = -(-steps // 4)
    # counter (c0, c1, c2, c3) per block, key (k0, k1) per trajectory;
    # the shapes broadcast to rows x blocks from the first round on
    c0 = np.arange(first // 4 + 1, first // 4 + blocks + 1, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    k0 = np.full((1, 1), seed, dtype=np.uint64)
    k1 = np.arange(start, stop, dtype=np.uint64)[:, None]
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = k0 + np.uint64(_PHILOX_W[0])
            k1 = k1 + np.uint64(_PHILOX_W[1])
        lo0, hi0 = _mulhilo(c0, _PHILOX_M[0])
        lo1, hi1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.empty((stop - start, blocks, 4), dtype=np.uint64)
    for w, c in enumerate((c0, c1, c2, c3)):
        words[:, :, w] = c
    words >>= np.uint64(11)
    u = words.reshape(stop - start, 4 * blocks)[:, :steps].astype(np.float64)
    u *= 2.0**-53
    return u


def _estimated_bytes(n_trajectories: int, n_measurements: int, cells: int) -> int:
    """Peak bytes of an ensemble: per trajectory, the running log ratio,
    the block's steps, the sorted copy of one column and a word of margin
    for the decisions; the three M-step summaries; one chunk's
    temporaries (Philox words, uniforms, cell indices); and, for a truth
    table of ``cells`` cells, four words per cell (the log ratios, the one
    temporary of their build, the cumulative table and a word of margin)
    and four per ``InverseCdf`` bucket (the guide and its build's
    temporaries)."""
    steps = _block_steps(n_trajectories, n_measurements)
    chunk = min(n_trajectories, _CHUNK_ROWS) * 4 * -(-steps // 4)
    tables = 4 * (cells + InverseCdf.BUCKETS)
    return 8 * (n_trajectories * (steps + 3) + 3 * n_measurements
                + _CHUNK_ARRAYS * chunk + tables)


def _refuse_above_budget(config: EnsembleConfig, cells: int) -> None:
    """Refuse a run of config on a truth table of ``cells`` cells above the
    memory budget; the pair is not read, so it can be checked before a build."""
    n, m = config.n_trajectories, config.n_measurements
    need = _estimated_bytes(n, m, cells)
    table = need - _estimated_bytes(n, m, 0)  # the part that grows with the cells
    advice = ("saturate the detectors (--saturation) for a smaller table" if 2 * table > need
              else "use fewer trajectories or measurements")
    _check_budget(need, f"an ensemble of {n} trajectories x {m} measurements",
                  f" ({table / 2**20:.0f} MiB of it for a truth table of {cells} cells); {advice}")


def simulate_ensemble(config: EnsembleConfig) -> TrajectoryEnsemble:
    """Run the full ensemble and summarize the posterior per step.

    Trajectory i draws its records as ``sample_outcome`` does from
    ``Philox(key=[seed, i])`` and scores them from ``pair.log_ratio``, so
    its posterior is ``posterior_trajectory`` of those records, bit for
    bit.  The stream is Philox4x64-10 keyed (seed, i), counter from 1,
    doubles ``(x >> 11)·2⁻⁵³``, identical to numpy's
    ``Philox(key=[seed, i])``; it is computed for a chunk of trajectories
    and a block of steps at a time.  Identical configs give
    bit-identical results, and the summaries are plain deterministic
    reductions, bit for bit those of the whole N x M array of posteriors.

    Peak memory is O(N): the running log ratios, one block of steps, one
    sorted column and one chunk's temporaries; a run estimated above
    ``photon_stats.MEMORY_BUDGET_BYTES`` raises ``ParameterError`` before
    allocating.  ``analytic_confidence`` is the truth's entry of
    ``confidence(n_measurements, loglik_moments(pair))``.
    """
    _refuse_above_budget(config, config.truth_dist.probs.size)
    n, m = config.n_trajectories, config.n_measurements
    seed = int(config.seed)
    r25, r75 = math.ceil(0.25 * n) - 1, math.ceil(0.75 * n) - 1
    mean_pe, q25, q75 = np.empty(m), np.empty(m), np.empty(m)
    column = np.empty(n)
    cells = config.truth_dist.inverse_cdf.cells
    log_ratio = config.pair.log_ratio.ravel()
    steps = _block_steps(n, m)
    block = np.empty((n, steps))
    final = None
    for j in range(0, m, steps):
        w = min(steps, m - j)
        for s in range(0, n, _CHUNK_ROWS):
            e = min(s + _CHUNK_ROWS, n)
            idx = cells(_trajectory_uniforms(seed, s, e, w, j))
            # in-range indices: "clip" writes in place, "raise" via a temporary
            np.take(log_ratio, idx, out=block[s:e, :w], mode="clip")
        # the running log ratios, added column by column in np.cumsum's order
        for c in range(w):
            if final is None:
                final = block[:, 0].copy()  # the first draw itself, as cumsum keeps -0.0
            else:
                final += block[:, c]
                block[:, c] = final
        pe = block[:, :w]  # the posteriors overwrite the log ratios
        np.negative(pe, out=pe)
        expit(pe, out=pe)
        # numpy sums one column pairwise but two or more row by row, the
        # order of the N x M array, so a 1-wide tail is summed in the block
        mean_pe[j:j + w] = block.mean(axis=0)[:w]
        for c in range(w):
            np.copyto(column, block[:, c])
            column.sort()
            q25[j + c], q75[j + c] = column[r25], column[r75]

    report = confidence(m, loglik_moments(config.pair))
    if config.truth is Truth.PRESENT:
        empirical, analytic = float(np.mean(final < 0.0)), report.c_present
    else:
        empirical, analytic = float(np.mean(final > 0.0)), report.c_absent

    return TrajectoryEnsemble(
        config=config,
        mean_pe=mean_pe,
        q25=q25,
        q75=q75,
        final_log_lambda=final,
        empirical_confidence=empirical,
        analytic_confidence=analytic,
    )


def loglambda_histogram(config: EnsembleConfig, bins: int = 60) -> LogLambdaHistogram:
    """Histogram the final log ratio across the ensemble, with the
    matching normal-approximation parameters for overlay.

    The samples are ``simulate_ensemble(config).final_log_lambda``: the
    ensemble is run whole, summaries and memory check included.
    """
    if not _is_whole(bins) or bins < 1:
        raise ParameterError(f"bins must be an integer >= 1, got {bins!r}")
    samples = simulate_ensemble(config).final_log_lambda
    m = loglik_moments(config.pair)
    n = config.n_measurements
    if config.truth is Truth.PRESENT:
        mu_y, sigma_y = n * m.mu_present, math.sqrt(n) * m.sigma_present
    else:
        mu_y, sigma_y = n * m.mu_absent, math.sqrt(n) * m.sigma_absent
    density, edges = np.histogram(samples, bins=bins, density=True)
    return LogLambdaHistogram(
        samples=samples,
        bin_edges=edges,
        density=density,
        mu_y=mu_y,
        sigma_y=sigma_y,
    )
