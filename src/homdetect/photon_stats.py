"""Photon-count statistics for single-emitter detection protocols.

A weakly excited emitter releases at most one photon per trial, with
probability ``xi``.  Three measurement protocols are modeled:

* ``direct``: the emitter field alone hits one detector.
* ``coherent``: the emitter field interferes with a phase-stable coherent
  reference on a balanced beamsplitter; two detectors record the outputs.
* ``incoherent``: same optics, but the reference phase is randomized from
  trial to trial, which erases the interference cross term.

All detector backgrounds (unmatched reference light, residual excitation
leakage, dark counts) are Poissonian, so every count distribution here is
a Poisson envelope times a small polynomial bracket and can be enumerated
exactly.  Nothing in this module samples; see ``montecarlo`` for that.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np
from scipy.special import gammaln

__all__ = [
    "Protocol",
    "ProtocolParams",
    "DerivedMeans",
    "Outcome",
    "CountDistribution",
    "ParameterError",
    "DegenerateParameterError",
    "TruncationError",
    "derived_means",
    "direct_pmf",
    "hom_pmf",
    "build_distribution",
    "apply_saturation",
    "table_csv_text",
    "table_entries",
]

# Probabilities this far below zero are floating-point noise from the exact
# bracket; anything lower is a genuine bug and is left visible.
NEG_CLAMP = -1e-15

# Tables larger than this many counts per detector are refused.
K_MAX_HARD_CAP = 10_000


class ParameterError(ValueError):
    """A protocol parameter is outside its physical range."""


class DegenerateParameterError(ParameterError):
    """Parameters describe a distribution this model cannot represent."""


class TruncationError(RuntimeError):
    """A count table would be too large or leave too much mass untabulated."""


class Protocol(str, Enum):
    DIRECT = "direct"
    COHERENT_HOM = "coherent"
    INCOHERENT_HOM = "incoherent"


@dataclass(frozen=True)
class ProtocolParams:
    """Physical parameters of one measurement configuration.

    xi         emission probability of the emitter, in [0, 1]
    eta        detection efficiency seen by the emitter field, in [0, 1]
    epsilon    mode overlap between emitter and reference fields, in [0, 1]
    n_c        mean photon number of the coherent reference
    n_e        mean residual-excitation background per trial
    n_i        mean dark counts per detector per trial
    cos_theta  cosine of the emitter-reference phase; forced to 0 for the
               incoherent protocol

    The direct protocol ignores ``epsilon``, ``n_c`` and ``cos_theta``.
    """

    protocol: Protocol
    xi: float = 0.1
    eta: float = 1.0
    epsilon: float = 1.0
    n_c: float = 1.0
    n_e: float = 0.0
    n_i: float = 0.0
    cos_theta: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocol", Protocol(self.protocol))
        for name in ("xi", "eta", "epsilon", "n_c", "n_e", "n_i", "cos_theta"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ParameterError(f"{name} must be a number, got {getattr(self, name)!r}")
        for name in ("xi", "eta", "epsilon"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not (0.0 <= v <= 1.0) or math.isnan(v):
                raise ParameterError(f"{name} must lie in [0, 1], got {v}")
        for name in ("n_c", "n_e", "n_i"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not (v >= 0.0) or math.isinf(v):
                raise ParameterError(f"{name} must be finite and >= 0, got {v}")
        ct = float(self.cos_theta)
        if not (-1.0 <= ct <= 1.0) or math.isnan(ct):
            raise ParameterError(f"cos_theta must lie in [-1, 1], got {ct}")
        if self.protocol is Protocol.INCOHERENT_HOM:
            ct = 0.0
        object.__setattr__(self, "cos_theta", ct)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["protocol"] = self.protocol.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ProtocolParams":
        return cls(**d)


class DerivedMeans(NamedTuple):
    """Total and background mean counts implied by a parameter set."""

    n_bar: float
    n_noise: float


class Outcome(NamedTuple):
    """One detector record: a single count for direct, a pair otherwise."""

    j: int
    k: int | None = None


def derived_means(params: ProtocolParams) -> DerivedMeans:
    """Mean total counts and mean background counts per trial.

    For the two-detector protocols the background collects the unmatched
    reference fraction, residual excitation on both outputs, and dark
    counts on both detectors; the total adds the matched reference light.
    Direct detection has no reference, so total and background coincide.
    """
    p = params
    if p.protocol is Protocol.DIRECT:
        n_noise = p.eta * p.n_e + p.n_i
        return DerivedMeans(n_bar=n_noise, n_noise=n_noise)
    n_noise = p.eta * (1.0 - p.epsilon) * p.n_c + p.eta * p.n_e + 2.0 * p.n_i
    return DerivedMeans(n_bar=p.eta * p.epsilon * p.n_c + n_noise, n_noise=n_noise)


# ---------------------------------------------------------------------------
# pmf evaluation
# ---------------------------------------------------------------------------


def _log_poisson(k: np.ndarray, mean: float) -> np.ndarray:
    """log of the Poisson pmf for mean > 0."""
    return -mean + k * math.log(mean) - gammaln(k + 1.0)


def _poisson_vec(counts: np.ndarray, mean: float) -> np.ndarray:
    """Poisson pmf at the given counts (0 at a negative count); exact delta
    at zero mean."""
    if mean == 0.0:
        return 1.0 * (counts == 0.0)
    return np.exp(_log_poisson(counts, mean))


def _clamp_negative(p: np.ndarray) -> np.ndarray:
    return np.where((p < 0.0) & (p >= NEG_CLAMP), 0.0, p)


def _pmf_tables(params: ProtocolParams, counts: np.ndarray) -> np.ndarray:
    """The pmf at the given counts per detector (row index = detector 1),
    a 1-D table for direct detection and a 2-D one otherwise.

    It is a Poisson envelope, Poisson(n_noise) for direct detection and two
    Poisson(n_bar / 2) factors for two detectors, times a bracket that is 1
    at xi = 0.

    Direct: the at-most-one emitter photon lands with probability eta xi,
    p(k) = (1 - eta xi) Pois(k; n) + eta xi Pois(k - 1; n), exact also at
    n = 0.  Two detectors: the photon and its interference with the
    reference give a polynomial bracket in (j + k) and (j - k), expanded so
    that every xi-dependent term carries its own xi factor and xi = 0 and
    xi = 1 are exact endpoints with no indeterminate ratios.
    """
    n_bar, n_noise = derived_means(params)
    p = params
    if p.protocol is Protocol.DIRECT:
        envelope = _poisson_vec(counts, n_noise)
    elif p.xi > 0.0 and n_bar**2 == 0.0:
        # the bracket divides by n_bar**2, which underflows below about 2e-162
        raise DegenerateParameterError(
            f"two-detector pmf undefined for n_bar = {n_bar} (n_bar**2 = 0) with xi > 0; "
            "model an unobserved emitter with the direct protocol at eta = 0"
        )
    elif n_bar > 0.0:
        lp = _log_poisson(counts, n_bar / 2.0)
        envelope = np.exp(lp[:, None] + lp[None, :])
    else:
        envelope = 1.0 * np.outer(counts == 0.0, counts == 0.0)
    if p.xi == 0.0:
        return envelope
    if p.protocol is Protocol.DIRECT:
        q = p.eta * p.xi
        return _clamp_negative((1.0 - q) * envelope + q * _poisson_vec(counts - 1.0, n_noise))
    total = counts[:, None] + counts[None, :]
    diff = counts[:, None] - counts[None, :]
    cross = 2.0 * p.eta * p.cos_theta * math.sqrt(
        max(0.0, p.xi * (1.0 - p.xi)) * p.epsilon * p.n_c
    )
    bracket = (
        1.0
        - p.eta * p.xi
        + p.eta * p.xi * n_noise * total / n_bar**2
        + p.eta**2 * p.xi * p.epsilon * p.n_c * diff**2 / n_bar**2
        - cross * diff / n_bar
    )
    return _clamp_negative(envelope * bracket)


def _is_whole(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _record(*counts) -> np.ndarray:
    """The counts of one record as floats; each must be an integer >= 0,
    since the pmf formulas take any real count."""
    if not all(_is_whole(c) and c >= 0 for c in counts):
        raise ParameterError(f"counts must be integers >= 0, got {counts}")
    return np.array(counts, dtype=float)


def direct_pmf(params: ProtocolParams, k: int) -> float:
    """Probability of recording k counts in one direct-detection trial."""
    if params.protocol is not Protocol.DIRECT:
        raise ParameterError("direct_pmf requires the direct protocol")
    return float(_pmf_tables(params, _record(k))[0])


def hom_pmf(params: ProtocolParams, j: int, k: int) -> float:
    """Probability of the joint record (j, k) in one two-detector trial."""
    if params.protocol is Protocol.DIRECT:
        raise ParameterError("hom_pmf requires a two-detector protocol")
    return float(_pmf_tables(params, _record(j, k))[0, 1])


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountDistribution:
    """Exhaustively enumerated count distribution for one parameter set.

    ``probs`` is 1-D (direct) or 2-D (two-detector, row index = detector 1)
    over 0..k_max per detector.  ``tail_mass`` is the probability left
    outside the table; ``saturation`` marks a table whose boundary bins
    already absorb all higher counts.
    """

    params: ProtocolParams
    probs: np.ndarray
    tail_mass: float
    saturation: int | None = None

    def __post_init__(self) -> None:
        self.probs.setflags(write=False)

    @property
    def k_max(self) -> int:
        return self.probs.shape[0] - 1

    @property
    def is_joint(self) -> bool:
        return self.probs.ndim == 2

    def prob(self, j: int, k: int | None = None) -> float:
        """Probability of one outcome; counts above a saturated boundary
        are clipped onto it."""
        if j < 0 or (k is not None and k < 0):
            raise ValueError(f"counts must be >= 0, got ({j}, {k})")
        if self.saturation is not None:
            j = min(j, self.saturation)
            if k is not None:
                k = min(k, self.saturation)
        elif j > self.k_max or (k is not None and k > self.k_max):
            # untabulated outcomes sit in the tail, within _tail_allowance
            return 0.0
        if self.is_joint:
            if k is None:
                raise ValueError("joint distribution requires two counts")
            return float(self.probs[j, k])
        if k is not None:
            raise ValueError("direct distribution takes a single count")
        return float(self.probs[j])

    def total(self) -> float:
        return float(self.probs.sum())

    def outcomes(self) -> Iterator[tuple[Outcome, float]]:
        """Iterate (outcome, probability) in row-major order."""
        if self.is_joint:
            for j in range(self.probs.shape[0]):
                for k in range(self.probs.shape[1]):
                    yield Outcome(j, k), float(self.probs[j, k])
        else:
            for j in range(self.probs.shape[0]):
                yield Outcome(j), float(self.probs[j])

    # -- serialization ------------------------------------------------------

    def to_csv(self, path: str | os.PathLike) -> None:
        atomic_write_text(path, self.csv_text())

    def csv_text(self) -> str:
        return table_csv_text(self.probs, "p")

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "saturation": self.saturation,
            "k_max": self.k_max,
            "tail_mass": self.tail_mass,
            "entries": table_entries(self.probs),
        }

    def to_json(self, path: str | os.PathLike) -> None:
        atomic_write_text(path, json.dumps(self.to_json_dict(), indent=1) + "\n")


def table_csv_text(table: np.ndarray, value_header: str) -> str:
    """CSV of a count table indexed like ``CountDistribution.probs``:
    ``j,k,<value_header>`` rows for a joint table, ``j,<value_header>``
    for a direct one, values at full 17-digit precision."""
    if table.ndim == 2:
        lines = [f"j,k,{value_header}"]
        for j in range(table.shape[0]):
            for k in range(table.shape[1]):
                lines.append(f"{j},{k},{table[j, k]:.17g}")
    else:
        lines = [f"j,{value_header}"]
        for j in range(table.shape[0]):
            lines.append(f"{j},{table[j]:.17g}")
    return "\n".join(lines) + "\n"


def table_entries(table: np.ndarray) -> list[list]:
    """JSON entries of a count table: [j, k, value] or [j, value] per
    outcome, in row-major order."""
    if table.ndim == 2:
        return [
            [j, k, float(table[j, k])]
            for j in range(table.shape[0])
            for k in range(table.shape[1])
        ]
    return [[j, float(table[j])] for j in range(table.shape[0])]


def _tail_allowance(params: ProtocolParams, k_max: int) -> float:
    """Largest untabulated mass ``1 - sum`` accepted in a table of 0..k_max
    counts per detector: 1e-12, or the rounding that summing the table can
    leave, whichever is larger.

    Each Poisson factor exp(k ln mu - mu - ln k!) carries a relative error
    of about eps k ln mu (eps = ulp(1.0)), so the sum of a table at mean mu
    per detector over d detectors can miss 1 by eps (k_max + 1)(1 + ln mu) d;
    the factor 4 is a margin, as measured rounding stays below 0.4 of that.
    """
    d = 1 if params.protocol is Protocol.DIRECT else 2
    mu = derived_means(params).n_bar / d
    rounding = 4.0 * math.ulp(1.0) * (k_max + 1) * (1.0 + math.log(max(mu, 1.0))) * d
    return max(1e-12, rounding)


def build_distribution(params: ProtocolParams) -> CountDistribution:
    """Enumerate the count distribution on 0..max(20, mu + 12 sqrt(mu + 1))
    per detector, mu the mean count per detector.

    The Poisson mass beyond that size is below 1e-17 per detector, so the
    untabulated mass ``1 - sum`` is rounding; a table whose ``1 - sum``
    exceeds ``_tail_allowance`` raises TruncationError.  A size above 10000
    counts per detector is refused with TruncationError before anything is
    allocated.
    """
    n_bar = derived_means(params).n_bar
    per_det = n_bar if params.protocol is Protocol.DIRECT else n_bar / 2.0
    # the extra photon and the bracket polynomial fit in the floor and margin
    k = max(20, math.ceil(per_det + 12.0 * math.sqrt(per_det + 1.0)))
    if k > K_MAX_HARD_CAP:
        raise TruncationError(
            f"k_max {k} at n_bar = {n_bar} exceeds the cap of {K_MAX_HARD_CAP} counts per detector"
        )
    probs = _pmf_tables(params, np.arange(k + 1.0))
    tail = max(0.0, 1.0 - float(probs.sum()))
    allowance = _tail_allowance(params, k)
    if tail > allowance:
        raise TruncationError(
            f"untabulated mass {tail:.3g} > {allowance:.3g} allowed at k_max {k}, n_bar = {n_bar}"
        )
    return CountDistribution(params=params, probs=probs, tail_mass=tail)


def apply_saturation(dist: CountDistribution, t: int) -> CountDistribution:
    """Fold counts above threshold t into the boundary bins.

    A detector that saturates at t reports min(count, t), so all mass with
    j >= t collapses onto j = t (per detector for joint tables).  The
    distribution tail joins the top corner bin, making the result exactly
    normalized.  Saturation is applied at most once.
    """
    if dist.saturation is not None:
        raise ParameterError("distribution is already saturated")
    if not _is_whole(t) or t < 1:
        raise ParameterError(f"saturation threshold must be an integer >= 1, got {t}")
    allowance = _tail_allowance(dist.params, dist.k_max)
    if dist.tail_mass > allowance:
        raise ParameterError(
            f"tail mass {dist.tail_mass} exceeds {allowance:.3g}, too much to fold into the corner bin"
        )
    p = dist.probs
    if dist.is_joint:
        edge = min(t, dist.k_max + 1)
        out = np.zeros((t + 1, t + 1))
        out[:edge, :edge] = p[:edge, :edge]
        out[t, :edge] += p[edge:, :edge].sum(axis=0)
        out[:edge, t] += p[:edge, edge:].sum(axis=1)
        out[t, t] += p[edge:, edge:].sum() + dist.tail_mass
    else:
        edge = min(t, dist.k_max + 1)
        out = np.zeros(t + 1)
        out[:edge] = p[:edge]
        out[t] += p[edge:].sum() + dist.tail_mass
    return CountDistribution(params=dist.params, probs=out, tail_mass=0.0, saturation=t)


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text to path via a temp file and rename, so readers never see
    a half-written file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
