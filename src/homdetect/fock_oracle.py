"""Independent number-basis check of the two-detector count statistics.

The closed forms in ``photon_stats`` come from algebra on a displaced
single-photon state.  This module recomputes the same probabilities the
slow way: write the four output modes (two detected, two lost) in the
Fock basis, take squared amplitudes, trace out the lost modes, and
convolve with the Poisson background.  No step below reuses the closed
form, so agreement between the two routes validates both.

The output state before detection is a four-mode displaced superposition:
with the reference split as alpha_d = sqrt(eta epsilon / 2) alpha_c onto
the detected pair (signs -alpha_d, +alpha_d) and alpha_l =
sqrt((1 - eta) epsilon / 2) alpha_c onto the lost pair, the emitter adds
one photon through sqrt(eta/2) on each detected mode and sqrt((1-eta)/2)
on each lost mode.  Everything here is dense complex arithmetic on that
state, truncated at ``fock_dim`` photons per mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import pdtrc

from .photon_stats import (
    ParameterError,
    Protocol,
    ProtocolParams,
    _is_whole,
    _pmf_tables,
    _poisson_vec,
    derived_means,
)

__all__ = [
    "OracleConfig",
    "OracleTruncationError",
    "joint_pmf",
    "traced_pmf",
    "oracle_pmf",
    "oracle_table",
    "compare_with_closed_form",
]

# Number of evenly spaced reference phases averaged for the incoherent
# protocol.  The probabilities are linear in cos(theta), so any even,
# symmetric grid is exact up to rounding; 64 keeps that slack negligible.
PHASE_GRID = 64

# Largest per-mode truncation.  A table call holds the pair tensors of one
# group of phases at a time, a few complex arrays of GROUP_BYTES or of one
# phase's 16 B * fock_dim**2 (640 kB at this cap), and keeps none after it
# returns; the cap bounds its work, 64 phases of dim**2 cells each.
FOCK_DIM_MAX = 200

# Largest complex pair tensor of a group of phases, so that a group's
# tensors stay in cache; one phase's tensor may exceed it.
GROUP_BYTES = 128 * 1024

# Largest stack of background terms that ``oracle_table`` sums at once; one
# term may exceed it.  A smaller stack holds too few terms of a large table
# to repay the passes over its running sum: at 128 KiB a 100 x 100 table
# took 1.5 times as long as its slice updates, at 1 MiB half as long.
STACK_BYTES = 1 << 20

NORM_DEFICIT_TOL = 1e-10
LOSS_RESIDUAL_TOL = 1e-10


class OracleTruncationError(RuntimeError):
    """A truncated sum left more probability behind than allowed."""


@dataclass(frozen=True)
class OracleConfig:
    """Truncation settings for the number-basis computation.

    fock_dim bounds the per-mode photon number, on the detected and the
    lost pair alike.  The reference brightness is capped so the default
    truncation keeps the retained coherent-state norm within
    NORM_DEFICIT_TOL of one.
    """

    params: ProtocolParams
    fock_dim: int = 40

    def __post_init__(self) -> None:
        if self.params.protocol is Protocol.DIRECT:
            raise ParameterError("the number-basis oracle covers the two-detector protocols")
        if self.params.n_c > 4.0:
            raise ParameterError(
                f"oracle requires n_c <= 4 so the default truncation is adequate, got {self.params.n_c}"
            )
        if not _is_whole(self.fock_dim):
            raise ParameterError(f"fock_dim must be an integer, got {self.fock_dim!r}")
        if not (2 <= self.fock_dim <= FOCK_DIM_MAX):
            raise ParameterError(f"fock_dim must lie in [2, {FOCK_DIM_MAX}], got {self.fock_dim}")
        deficit = float(pdtrc(self.fock_dim - 1, self.params.n_c)) if self.params.n_c > 0 else 0.0
        if deficit > NORM_DEFICIT_TOL:
            raise OracleTruncationError(
                f"coherent-state norm deficit {deficit:.3e} above {NORM_DEFICIT_TOL}; raise fock_dim"
            )


def _phases(cfg: OracleConfig) -> list[float]:
    """cos(theta) of each reference phase the protocol reads: the configured
    one, or PHASE_GRID evenly spaced ones for the incoherent protocol."""
    if cfg.params.protocol is not Protocol.INCOHERENT_HOM:
        return [cfg.params.cos_theta]
    return [math.cos(2.0 * math.pi * i / PHASE_GRID) for i in range(PHASE_GRID)]


def _coherent_rows(alphas: list[complex], length: int) -> np.ndarray:
    """Number-basis amplitudes <n|alpha>, n < length, one row per alpha.

    The recurrence c[n] = c[n-1] alpha / sqrt(n) runs in real arithmetic:
    the complex product (c alpha) written out, then a multiplication by
    1 / sqrt(n), which is how numpy's complex division (Smith's method)
    divides by sqrt(n) + 0j.  So each value is that of the recurrence on
    numpy complex scalars; only the sign of a zero may differ, and no later
    product, square or sum reads it.  Each step runs on every row at once.
    """
    a = np.array(alphas, dtype=complex)
    steps = np.empty((length, 2, a.size))  # (re, im) of c[n] per row
    steps[0, 0], steps[0, 1] = 1.0, 0.0
    same = np.array([a.real, a.real])  # times (re, im): re ar, im ar
    swap = np.array([-a.imag, a.imag])  # times (im, re): -im ai, re ai
    cross = np.empty((2, a.size))
    for n in range(1, length):
        prev, step = steps[n - 1], steps[n]
        np.multiply(prev, same, out=step)
        np.multiply(prev[::-1], swap, out=cross)
        step += cross
        step *= 1.0 / math.sqrt(n)
    norm = np.array([math.exp(-abs(alpha) ** 2 / 2.0) for alpha in alphas])
    rows = np.empty((a.size, length), dtype=complex)
    np.multiply(steps[:, 0].T, norm[:, None], out=rows.real)
    np.multiply(steps[:, 1].T, norm[:, None], out=rows.imag)
    return rows


def _pair_rows(plus: np.ndarray) -> tuple[np.ndarray, ...]:
    """A mode pair displaced by (-alpha, +alpha), from the rows of +alpha:
    the amplitudes of each mode and of each mode with one photon added,
    <n| a-dagger |psi> = sqrt(n) <n-1|psi>.  Negating alpha negates the odd
    amplitudes exactly."""
    minus = plus.copy()
    np.negative(minus[:, 1::2], out=minus[:, 1::2])
    root = np.sqrt(np.arange(1, plus.shape[1]))
    raised = []
    for c in (minus, plus):
        r = np.zeros_like(c)
        r[:, 1:] = root * c[:, :-1]
        raised.append(r)
    return minus, plus, *raised


def _amplitude_rows(cfg: OracleConfig):
    """The rows of ``_pair_rows`` for the detected and the lost pair, one
    per phase of ``_phases``, over the whole basis."""
    p = cfg.params
    detected, lost = [], []
    for cos_theta in _phases(cfg):
        sin_theta = math.sqrt(max(0.0, 1.0 - cos_theta * cos_theta))
        alpha_c = math.sqrt(p.n_c) * complex(cos_theta, sin_theta)
        detected.append(math.sqrt(p.eta * p.epsilon / 2.0) * alpha_c)
        lost.append(math.sqrt((1.0 - p.eta) * p.epsilon / 2.0) * alpha_c)
    rows = _coherent_rows(detected + lost, cfg.fock_dim)
    return _pair_rows(rows[: len(detected)]), _pair_rows(rows[len(detected):])


def _pair_tensors(pair, weight: float, rows, cols):
    """Amplitude products of a mode pair per phase over the index boxes rows
    x cols: the bare displaced vacuum, c1[m] c2[n], and the same pair with
    the emitter photon added to one mode, weighted by its split amplitude.

    Each product has np.outer's shape, a stride-0 factor times a contiguous
    row, so every cell has the bits of the per-phase outer product.
    """
    minus, plus, raised_minus, raised_plus = pair
    bare = minus[:, rows, None] * plus[:, None, cols]
    photon = raised_minus[:, rows, None] * plus[:, None, cols]
    photon += minus[:, rows, None] * raised_plus[:, None, cols]
    photon *= weight
    return bare, photon


def _detected_parts(cfg: OracleConfig, U: np.ndarray, V: np.ndarray):
    """Detected-pair factors of the output amplitude,
    A[k,l,m,n] = B[k,l] W[m,n] + E[k,l] X[m,n]."""
    xi = cfg.params.xi
    return math.sqrt(1.0 - xi) * U + math.sqrt(xi) * V, math.sqrt(xi) * U


def _check_indices(cfg: OracleConfig, *indices: int) -> None:
    for idx in indices:
        if not _is_whole(idx):
            raise ParameterError(f"mode index must be an integer, got {idx!r}")
        if not (0 <= idx < cfg.fock_dim):
            raise ParameterError(f"mode index {idx} outside [0, fock_dim)")


# kept for the one-cell calls of ``joint_pmf`` alone, a few complex rows of
# fock_dim per phase; a table call holds no rows past its return
_joint_rows = lru_cache(maxsize=2)(_amplitude_rows)


def joint_pmf(cfg: OracleConfig, k: int, l: int, m: int, n: int) -> float:
    """Probability of k, l photons on the detected pair and m, n on the
    lost pair, before any background is added, averaged over the phases."""
    _check_indices(cfg, k, l, m, n)
    p = cfg.params
    detected, lost = _joint_rows(cfg)
    k, l, m, n = (slice(i, i + 1) for i in (k, l, m, n))
    B, E = _detected_parts(cfg, *_pair_tensors(detected, math.sqrt(p.eta / 2.0), k, l))
    W, X = _pair_tensors(lost, math.sqrt((1.0 - p.eta) / 2.0), m, n)
    return float(np.mean(np.abs(B * W + E * X) ** 2))


def _loss_tails(cfg: OracleConfig) -> tuple[float, float]:
    """Out-of-box mass bounds of the lost-pair sums, |W|^2 and |X|^2.

    The |W|^2 terms are a product of two Poisson pmfs in the lost-mode
    brightness n_l, and the |X|^2 bound is a pair of shifted Poisson series
    whose full sums are (n_l + 1) each, so both remainders follow from
    truncated Poisson sums.  Neither depends on the phase.
    """
    p = cfg.params
    M = cfg.fock_dim
    n_l = (1.0 - p.eta) * p.epsilon * p.n_c / 2.0
    counts = np.arange(M, dtype=float)
    pois_row = _poisson_vec(counts, n_l)
    head = float(pois_row.sum())
    tail_ww = max(0.0, 1.0 - head * head)
    head_raised = float(((counts + 1.0) * pois_row)[: M - 1].sum())
    tail_xx = 2.0 * (1.0 - p.eta) * max(0.0, (n_l + 1.0) - head_raised * head)
    return tail_ww, tail_xx


def _group_size(cells: int, phases: int) -> int:
    """Phases per group: the largest power of two, at most ``phases``, whose
    complex tensors of ``cells`` cells each fit in GROUP_BYTES."""
    group = 1
    while 2 * group <= phases and 2 * group * cells * 16 <= GROUP_BYTES:
        group *= 2
    return group


def _traced(cfg: OracleConfig, k_hi: int, l_hi: int) -> np.ndarray:
    """The joint pmf summed over the lost pair, for detected counts up to
    (k_hi, l_hi) inclusive, averaged over the phases.

    With A = B W + E X and the lost-pair sum running over the truncated
    box, the quadratic expands into three scalar sums over (m, n), leaving
    a closed expression per detected pair.  The phases go in groups of
    ``_group_size``, each building its pair tensors over the two boxes
    alone, and no tensor outlives its group.  Each group's tensors are
    contiguous, so every product reads its rows as the per-phase outer
    products did and every sum runs over one phase's contiguous box: each
    cell keeps the bits of the phase-by-phase computation.  The discarded
    mass is bounded pointwise, |A|^2 <= 2|B|^2 |W|^2 + 2|E|^2 |X|^2, by
    ``_loss_tails``, and must stay below LOSS_RESIDUAL_TOL at every phase.
    """
    p = cfg.params
    M, J, K = cfg.fock_dim, k_hi + 1, l_hi + 1
    tail_ww, tail_xx = _loss_tails(cfg)
    detected, lost = _amplitude_rows(cfg)
    phases = detected[0].shape[0]
    group = _group_size(M * M, phases)
    tables = np.empty((phases, J, K))
    box, rows, cols = slice(0, M), slice(0, J), slice(0, K)
    for start in range(0, phases, group):
        g = slice(start, start + group)
        W, X = _pair_tensors([c[g] for c in lost], math.sqrt((1.0 - p.eta) / 2.0), box, box)
        s_ww = (np.abs(W) ** 2).sum(axis=(1, 2))[:, None, None]
        s_xx = (np.abs(X) ** 2).sum(axis=(1, 2))[:, None, None]
        s_wx = (W * np.conj(X)).sum(axis=(1, 2))[:, None, None]
        del W, X
        B, E = _detected_parts(
            cfg, *_pair_tensors([c[g] for c in detected], math.sqrt(p.eta / 2.0), rows, cols)
        )
        bb, ee = np.abs(B) ** 2, np.abs(E) ** 2
        tables[g] = bb * s_ww + ee * s_xx + 2.0 * np.real(B * np.conj(E) * s_wx)
        worst = 2.0 * bb.max(axis=(1, 2)) * tail_ww + 2.0 * ee.max(axis=(1, 2)) * tail_xx
        over = worst[worst > LOSS_RESIDUAL_TOL]
        if over.size:
            raise OracleTruncationError(f"lost-mode sum residual bound {over[0]:.3e} "
                                        f"above {LOSS_RESIDUAL_TOL}; raise fock_dim")
    return tables[0] if phases == 1 else tables.mean(axis=0)


def traced_pmf(cfg: OracleConfig, k: int, l: int) -> float:
    """Probability of detected counts (k, l) with the lost pair summed out,
    before any background is added."""
    _check_indices(cfg, k, l)
    return float(_traced(cfg, k, l)[k, l])


def oracle_table(cfg: OracleConfig, j_max: int, k_max: int) -> np.ndarray:
    """Full detected-count table with the Poisson background convolved in.

    The background per detector collects the unmatched reference fraction,
    residual excitation, and dark counts, at half the two-detector total
    each.
    """
    _check_indices(cfg, j_max, k_max)
    traced = _traced(cfg, j_max, k_max)
    nu = derived_means(cfg.params).n_noise / 2.0
    noise_j = _poisson_vec(np.arange(j_max + 1.0), nu)
    noise_k = _poisson_vec(np.arange(k_max + 1.0), nu)
    return _convolved(traced, noise_j, noise_k)


def _convolved(traced: np.ndarray, noise_j: np.ndarray, noise_k: np.ndarray) -> np.ndarray:
    """The table out[j, k] = sum of noise_j[dj] noise_k[dk] traced[j - dj,
    k - dk] over dj <= j, dk <= k, added to +0.0 in (dj, dk) order.

    Term (dj, dk) is its weight times a view of ``traced`` shifted by (dj,
    dk) into zeros, and the terms of a block of (dj, dk) are made by one
    product and summed, after the running sum, by one reduction over the
    stack's leading axis, which adds them one by one.  The zeros add +0.0
    to a sum that is never -0.0, so each cell has the bits of the shifted
    slice updates.  A stack holds at most STACK_BYTES, or one term, beside
    the running sum: whole rows of dj where they fit, else part of one,
    over the cells its terms reach."""
    J, K = traced.shape
    padded = np.zeros((2 * J - 1, 2 * K - 1))
    padded[J - 1:, K - 1:] = traced
    s0, s1 = padded.strides
    # shifted[dj, dk, j, k] = padded[J - 1 - dj + j, K - 1 - dk + k]
    shifted = np.ndarray((J, K, J, K), buffer=padded, offset=(J - 1) * s0 + (K - 1) * s1,
                         strides=(-s0, -s1, s0, s1))
    weights = np.multiply.outer(noise_j, noise_k)
    terms = max(1, STACK_BYTES // (8 * J * K) - 1)
    rows, cols = (terms // K, K) if terms >= K else (1, terms)
    out = np.zeros((J, K))
    for dj in range(0, J, rows):
        for dk in range(0, K, cols):
            # no term of the block reaches a cell above row dj or left of
            # column dk, so the stack spans out[dj:, dk:] alone
            w = weights[dj:dj + rows, dk:dk + cols]
            stack = np.empty((1 + w.size, J - dj, K - dk))
            stack[0] = out[dj:, dk:]
            np.multiply(w[:, :, None, None], shifted[dj:dj + rows, dk:dk + cols, dj:, dk:],
                        out=stack[1:].reshape(w.shape + stack.shape[1:]))
            out[dj:, dk:] = np.add.reduce(stack, axis=0)
    return out


def oracle_pmf(cfg: OracleConfig, j: int, k: int) -> float:
    """Probability of recording (j, k) counts, background included."""
    return float(oracle_table(cfg, j, k)[j, k])


def compare_with_closed_form(
    cfg: OracleConfig, jk_sum_max: int = 10, tol: float = 1e-8
) -> tuple[float, tuple[int, int], bool]:
    """Worst absolute deviation between this module and the closed form
    over all detected pairs with j + k <= jk_sum_max.

    Returns (max deviation, argmax pair, within a finite tol >= 0).
    """
    if not 0.0 <= tol < math.inf:
        raise ParameterError(f"tolerance must be finite and >= 0, got {tol}")
    table = oracle_table(cfg, jk_sum_max, jk_sum_max)
    closed = _pmf_tables(cfg.params, np.arange(jk_sum_max + 1.0))
    worst, where = -1.0, (0, 0)
    for j in range(jk_sum_max + 1):
        for k in range(jk_sum_max + 1 - j):
            dev = abs(table[j, k] - closed[j, k])
            if dev > worst:
                worst, where = dev, (j, k)
    return worst, where, worst <= tol
