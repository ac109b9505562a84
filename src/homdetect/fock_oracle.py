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
from scipy.stats import poisson

from .photon_stats import (
    ParameterError,
    Protocol,
    ProtocolParams,
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

NORM_DEFICIT_TOL = 1e-10
LOSS_RESIDUAL_TOL = 1e-10


class OracleTruncationError(RuntimeError):
    """A truncated sum left more probability behind than allowed."""


@dataclass(frozen=True)
class OracleConfig:
    """Truncation settings for the number-basis computation.

    fock_dim bounds the per-mode photon number; loss_sum_max bounds the
    explicit sum over the two lost modes (defaults to fock_dim).  The
    reference brightness is capped so the default truncation keeps the
    retained coherent-state norm within NORM_DEFICIT_TOL of one.
    """

    params: ProtocolParams
    fock_dim: int = 40
    loss_sum_max: int | None = None

    def __post_init__(self) -> None:
        if self.params.protocol is Protocol.DIRECT:
            raise ParameterError("the number-basis oracle covers the two-detector protocols")
        if self.params.n_c > 4.0:
            raise ParameterError(
                f"oracle requires n_c <= 4 so the default truncation is adequate, got {self.params.n_c}"
            )
        if self.fock_dim < 2:
            raise ParameterError(f"fock_dim must be >= 2, got {self.fock_dim}")
        if self.loss_sum_max is None:
            object.__setattr__(self, "loss_sum_max", self.fock_dim)
        if not (1 <= self.loss_sum_max <= self.fock_dim):
            raise ParameterError(
                f"loss_sum_max must lie in [1, fock_dim], got {self.loss_sum_max}"
            )
        deficit = float(poisson.sf(self.fock_dim - 1, self.params.n_c)) if self.params.n_c > 0 else 0.0
        if deficit > NORM_DEFICIT_TOL:
            raise OracleTruncationError(
                f"coherent-state norm deficit {deficit:.3e} above {NORM_DEFICIT_TOL}; raise fock_dim"
            )


def _coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Number-basis amplitudes of a coherent state, <n|alpha>, n < dim."""
    c = np.zeros(dim, dtype=complex)
    c[0] = 1.0
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    return c * math.exp(-abs(alpha) ** 2 / 2.0)


def _raised(c: np.ndarray) -> np.ndarray:
    """Amplitudes of a-dagger applied to the state with amplitudes c:
    <n| a-dagger |psi> = sqrt(n) <n-1|psi>."""
    out = np.zeros_like(c)
    out[1:] = np.sqrt(np.arange(1, c.size)) * c[:-1]
    return out


@lru_cache(maxsize=64)
def _mode_tensors(cfg: OracleConfig, cos_theta: float):
    """Pairwise amplitude tensors for the detected and lost mode pairs.

    Returns (U, V, W, X): U and W are the bare displaced-vacuum amplitude
    products for the detected and lost pairs; V and X are the same pairs
    with the emitter photon added to one mode of the pair, weighted by the
    emitter's split amplitudes.
    """
    p = cfg.params
    dim = cfg.fock_dim
    sin_theta = math.sqrt(max(0.0, 1.0 - cos_theta * cos_theta))
    alpha_c = math.sqrt(p.n_c) * complex(cos_theta, sin_theta)
    alpha_d = math.sqrt(p.eta * p.epsilon / 2.0) * alpha_c
    alpha_l = math.sqrt((1.0 - p.eta) * p.epsilon / 2.0) * alpha_c

    d1 = _coherent_amplitudes(-alpha_d, dim)
    d2 = _coherent_amplitudes(alpha_d, dim)
    l1 = _coherent_amplitudes(-alpha_l, dim)
    l2 = _coherent_amplitudes(alpha_l, dim)

    U = np.outer(d1, d2)
    V = math.sqrt(p.eta / 2.0) * (np.outer(_raised(d1), d2) + np.outer(d1, _raised(d2)))
    W = np.outer(l1, l2)
    X = math.sqrt((1.0 - p.eta) / 2.0) * (np.outer(_raised(l1), l2) + np.outer(l1, _raised(l2)))
    return U, V, W, X


def _amplitude_parts(cfg: OracleConfig, cos_theta: float):
    """Detected-pair factors of the output amplitude:
    A[k,l,m,n] = B[k,l] W[m,n] + E[k,l] X[m,n]."""
    p = cfg.params
    U, V, W, X = _mode_tensors(cfg, cos_theta)
    B = math.sqrt(1.0 - p.xi) * U + math.sqrt(p.xi) * V
    E = math.sqrt(p.xi) * U
    return B, E, W, X


def _check_indices(cfg: OracleConfig, *indices: int) -> None:
    for idx in indices:
        if not (0 <= idx < cfg.fock_dim):
            raise ParameterError(f"mode index {idx} outside [0, fock_dim)")


def joint_pmf(cfg: OracleConfig, k: int, l: int, m: int, n: int) -> float:
    """Probability of k, l photons on the detected pair and m, n on the
    lost pair, before any background is added."""
    _check_indices(cfg, k, l, m, n)
    if cfg.params.protocol is Protocol.INCOHERENT_HOM:
        return float(
            np.mean([_joint_single(cfg, k, l, m, n, ct) for ct in _phase_grid()])
        )
    return _joint_single(cfg, k, l, m, n, cfg.params.cos_theta)


def _joint_single(cfg: OracleConfig, k: int, l: int, m: int, n: int, cos_theta: float) -> float:
    B, E, W, X = _amplitude_parts(cfg, cos_theta)
    amp = B[k, l] * W[m, n] + E[k, l] * X[m, n]
    return float(abs(amp) ** 2)


def _phase_grid() -> list[float]:
    return [math.cos(2.0 * math.pi * i / PHASE_GRID) for i in range(PHASE_GRID)]


def _traced_table(cfg: OracleConfig, cos_theta: float, k_hi: int, l_hi: int) -> np.ndarray:
    """Sum the joint pmf over the lost pair, for detected counts up to
    (k_hi, l_hi) inclusive.

    With A = B W + E X and the lost-pair sum running over the truncated
    box, the quadratic expands into three scalar sums over (m, n), leaving
    a closed expression per detected pair.  The discarded mass is bounded
    by Poisson tails of the lost-mode brightness and must stay below
    LOSS_RESIDUAL_TOL.
    """
    B, E, W, X = _amplitude_parts(cfg, cos_theta)
    M = cfg.loss_sum_max
    Wb, Xb = W[:M, :M], X[:M, :M]
    s_ww = float(np.sum(np.abs(Wb) ** 2))
    s_xx = float(np.sum(np.abs(Xb) ** 2))
    s_wx = complex(np.sum(Wb * np.conj(Xb)))

    Bs, Es = B[: k_hi + 1, : l_hi + 1], E[: k_hi + 1, : l_hi + 1]
    table = (
        np.abs(Bs) ** 2 * s_ww
        + np.abs(Es) ** 2 * s_xx
        + 2.0 * np.real(Bs * np.conj(Es) * s_wx)
    )

    # Residual bound: |A|^2 <= 2|B|^2 |W|^2 + 2|E|^2 |X|^2 pointwise.  The
    # |W|^2 terms are a product of two Poisson pmfs in the lost-mode
    # brightness n_l, and the |X|^2 bound is a pair of shifted Poisson
    # series whose full sums are (n_l + 1) each, so both out-of-box
    # remainders follow from truncated Poisson sums.
    p = cfg.params
    n_l = (1.0 - p.eta) * p.epsilon * p.n_c / 2.0
    counts = np.arange(M, dtype=float)
    pois_row = _poisson_vec(counts, n_l)
    head = float(pois_row.sum())
    tail_ww = max(0.0, 1.0 - head * head)
    head_raised = float(((counts + 1.0) * pois_row)[: M - 1].sum())
    tail_xx = 2.0 * (1.0 - p.eta) * max(0.0, (n_l + 1.0) - head_raised * head)
    worst = 2.0 * float(np.max(np.abs(Bs) ** 2)) * tail_ww + 2.0 * float(
        np.max(np.abs(Es) ** 2)
    ) * tail_xx
    if worst > LOSS_RESIDUAL_TOL:
        raise OracleTruncationError(
            f"lost-mode sum residual bound {worst:.3e} above {LOSS_RESIDUAL_TOL}; raise loss_sum_max"
        )
    return table


def traced_pmf(cfg: OracleConfig, k: int, l: int) -> float:
    """Probability of detected counts (k, l) with the lost pair summed out,
    before any background is added."""
    _check_indices(cfg, k, l)
    if cfg.params.protocol is Protocol.INCOHERENT_HOM:
        tables = [_traced_table(cfg, ct, k, l) for ct in _phase_grid()]
        return float(np.mean([t[k, l] for t in tables]))
    return float(_traced_table(cfg, cfg.params.cos_theta, k, l)[k, l])


def oracle_table(cfg: OracleConfig, j_max: int, k_max: int) -> np.ndarray:
    """Full detected-count table with the Poisson background convolved in.

    The background per detector collects the unmatched reference fraction,
    residual excitation, and dark counts, at half the two-detector total
    each.
    """
    _check_indices(cfg, j_max, k_max)
    p = cfg.params
    if p.protocol is Protocol.INCOHERENT_HOM:
        traced = np.mean(
            [_traced_table(cfg, ct, j_max, k_max) for ct in _phase_grid()], axis=0
        )
    else:
        traced = _traced_table(cfg, p.cos_theta, j_max, k_max)
    nu = derived_means(p).n_noise / 2.0
    noise_j = _poisson_vec(np.arange(j_max + 1.0), nu)
    noise_k = _poisson_vec(np.arange(k_max + 1.0), nu)
    out = np.zeros((j_max + 1, k_max + 1))
    for dj in range(j_max + 1):
        for dk in range(k_max + 1):
            out[dj:, dk:] += noise_j[dj] * noise_k[dk] * traced[: j_max + 1 - dj, : k_max + 1 - dk]
    return out


def oracle_pmf(cfg: OracleConfig, j: int, k: int) -> float:
    """Probability of recording (j, k) counts, background included."""
    return float(oracle_table(cfg, j, k)[j, k])


def compare_with_closed_form(
    cfg: OracleConfig, jk_sum_max: int = 10, tol: float = 1e-8
) -> tuple[float, tuple[int, int], bool]:
    """Worst absolute deviation between this module and the closed form
    over all detected pairs with j + k <= jk_sum_max.

    Returns (max deviation, argmax pair, within tolerance).
    """
    table = oracle_table(cfg, jk_sum_max, jk_sum_max)
    closed = _pmf_tables(cfg.params, np.arange(jk_sum_max + 1.0))
    worst, where = -1.0, (0, 0)
    for j in range(jk_sum_max + 1):
        for k in range(jk_sum_max + 1 - j):
            dev = abs(table[j, k] - closed[j, k])
            if dev > worst:
                worst, where = dev, (j, k)
    return worst, where, worst <= tol
