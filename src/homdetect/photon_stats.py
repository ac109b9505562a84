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
It only inverts a table's cumulative distribution (``InverseCdf``), the
deterministic half of an inverse-CDF draw.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
import os
import stat
import sys
from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np
from scipy.special import gammaln

__all__ = [
    "Protocol",
    "ProtocolParams",
    "DerivedMeans",
    "Outcome",
    "CountDistribution",
    "InverseCdf",
    "ParameterError",
    "DegenerateParameterError",
    "TruncationError",
    "derived_means",
    "direct_pmf",
    "hom_pmf",
    "build_distribution",
    "apply_saturation",
    "table_csv_text",
]

# Probabilities this far below zero are floating-point noise from the exact
# bracket; anything lower is a genuine bug and is left visible.
NEG_CLAMP = -1e-15

# Tables larger than this many counts per detector are refused.
K_MAX_HARD_CAP = 10_000

# The least mass a table may leave untabulated, or carry above 1, by rounding.
TAIL_FLOOR = 1e-12

# A saturated pair's scoring or an ensemble estimated above this many bytes
# is refused before anything is allocated.
MEMORY_BUDGET_BYTES = 1 << 30


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

    @property
    def detectors(self) -> int:
        """Detectors recording a trial: one, or the beamsplitter's two."""
        return 2 if self is not Protocol.DIRECT else 1


def _number(name: str, value) -> float:
    """A parameter as a float: a real number that is not a boolean, or a
    numeric string.  Anything else, None, bytes, complex and Decimal
    included, raises ParameterError; float() would read a boolean as 0 or
    1 and bytes as a number."""
    if isinstance(value, float):
        # the common case, ahead of the abstract-class check that would
        # double the cost of ``ProtocolParams._with_field``
        return float(value)
    if isinstance(value, (numbers.Real, str)) and not isinstance(value, (bool, np.bool_)):
        try:
            return float(value)
        except ValueError:
            pass
    raise ParameterError(f"{name} must be a number, got {value!r}")


def _fraction(name: str, v: float) -> float:
    if not (0.0 <= v <= 1.0) or math.isnan(v):
        raise ParameterError(f"{name} must lie in [0, 1], got {v}")
    return v


def _mean_count(name: str, v: float) -> float:
    if not (v >= 0.0) or math.isinf(v):
        raise ParameterError(f"{name} must be finite and >= 0, got {v}")
    return v


def _cosine(name: str, v: float) -> float:
    if not (-1.0 <= v <= 1.0) or math.isnan(v):
        raise ParameterError(f"{name} must lie in [-1, 1], got {v}")
    return v


# The range rule of each numeric field of ProtocolParams, in field order: it
# takes a float that ``_number`` gave and returns it, or raises.
_FIELD_RULES = {
    "xi": _fraction, "eta": _fraction, "epsilon": _fraction,
    "n_c": _mean_count, "n_e": _mean_count, "n_i": _mean_count,
    "cos_theta": _cosine,
}
_numeric_fields = operator.itemgetter(*_FIELD_RULES)


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
        # every field must be a number before any is range-checked
        values = [_number(name, getattr(self, name)) for name in _FIELD_RULES]
        for (name, rule), value in zip(_FIELD_RULES.items(), values):
            object.__setattr__(self, name, rule(name, value))
        if self.protocol is Protocol.INCOHERENT_HOM:
            object.__setattr__(self, "cos_theta", 0.0)
        _check_means(self)

    def __hash__(self) -> int:
        """Worked out on first use and kept: a sweep looks its params up
        once a row.  Equal params have equal numeric fields, so those alone
        are hashed."""
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash(_numeric_fields(self.__dict__))
        return cached

    def __getstate__(self) -> dict:
        """The fields without the kept hash, which a copy or a pickle works
        out again: a float's hash differs between 32- and 64-bit builds."""
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def _with_field(self, name: str, value) -> "ProtocolParams":
        """This parameter set with one numeric field changed, as
        ``dataclasses.replace`` gives it; only the new value is checked,
        by the rules ``__post_init__`` applies to it."""
        value = _FIELD_RULES[name](name, _number(name, value))
        if name == "cos_theta" and self.protocol is Protocol.INCOHERENT_HOM:
            value = 0.0
        varied = object.__new__(type(self))
        varied.__dict__.update(self.__dict__)
        varied.__dict__[name] = value
        varied.__dict__.pop("_hash", None)
        return _check_means(varied)

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


def _check_means(params: ProtocolParams) -> ProtocolParams:
    """The params, refused if a derived mean count overflows to infinity:
    each field is finite, but their sum need not be."""
    n_bar = derived_means(params).n_bar
    if math.isinf(n_bar):
        raise ParameterError(f"the mean counts of {params.protocol.value} detection "
                             f"sum to n_bar = {n_bar}, past the largest float")
    return params


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
    """Zero, in place, the cells of the contiguous table p that lie in
    [NEG_CLAMP, 0); only its negative cells are read a second time, and a
    table with none gets no mask.  A NaN cell fails the ``>= 0`` test, so
    such a table takes the masked path."""
    flat = p.reshape(-1)
    if flat.min() >= 0.0:
        return p
    negative = np.flatnonzero(flat < 0.0)
    flat[negative[flat[negative] >= NEG_CLAMP]] = 0.0
    return p


def _hankel(terms: np.ndarray, width: int) -> np.ndarray:
    """View of a contiguous 1-D vector whose cell (r, c) is terms[r + c],
    with the given number of columns; numpy checks the strides against the
    vector's length.  ``sliding_window_view`` builds the same view at
    about 20 us a call, where a whole 33-count table takes about 75 us."""
    return np.ndarray(
        (terms.size - width + 1, width),
        dtype=terms.dtype,
        buffer=terms,
        strides=(terms.itemsize, terms.itemsize),
    )


def _envelope(params: ProtocolParams, counts: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The xi = 0 table: Poisson(n_noise), or two Poisson(n_bar / 2) factors."""
    n_bar, n_noise = derived_means(params)
    if params.protocol is Protocol.DIRECT:
        return _poisson_vec(counts, n_noise)
    if n_bar == 0.0:
        return 1.0 * np.outer(counts == 0.0, cols == 0.0)
    rows = _log_poisson(counts, n_bar / 2.0)
    envelope = np.add.outer(rows, rows if cols is counts else _log_poisson(cols, n_bar / 2.0))
    return np.exp(envelope, out=envelope)


def _bracketed(
    params: ProtocolParams, envelope: np.ndarray, counts: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """A new table: the envelope times the emitter's bracket at params.xi."""
    n_bar, n_noise = derived_means(params)
    p = params
    if p.protocol is Protocol.DIRECT:
        q = p.eta * p.xi
        return _clamp_negative((1.0 - q) * envelope + q * _poisson_vec(counts - 1.0, n_noise))
    if n_bar == 0.0:
        # no light but the emitter's: its photon is detected with
        # probability eta xi, at either detector alike, with no background
        q = p.eta * p.xi
        return (1.0 - q) * envelope + (q / 2.0) * (np.add.outer(counts, cols) == 1.0)
    if n_bar > math.sqrt(sys.float_info.max):
        # the bracket's n_bar**2 would overflow, above about 1.3e154
        raise DegenerateParameterError(
            f"two-detector pmf undefined for n_bar = {n_bar} (n_bar**2 overflows) with xi > 0"
        )
    if n_bar**2 == 0.0:
        # the bracket divides by n_bar**2, which underflows below about 2e-162
        raise DegenerateParameterError(
            f"two-detector pmf undefined for n_bar = {n_bar} (n_bar**2 = 0) with xi > 0; "
            "model an unobserved emitter with the direct protocol at eta = 0"
        )
    total = np.arange(counts[0] + cols[0], counts[-1] + cols[-1] + 1.0)
    # descending, so that reversing the rows of its Hankel view puts the
    # term at j - k in cell (j, k) with the columns left contiguous
    diff = np.arange(counts[-1] - cols[0], counts[0] - cols[-1] - 1.0, -1.0)
    cross = 2.0 * p.eta * p.cos_theta * math.sqrt(
        max(0.0, p.xi * (1.0 - p.xi)) * p.epsilon * p.n_c
    )
    by_total = 1.0 - p.eta * p.xi + p.eta * p.xi * n_noise * total / n_bar**2
    quad = p.eta**2 * p.xi * p.epsilon * p.n_c * diff**2 / n_bar**2
    table = np.add(_hankel(by_total, cols.size), _hankel(quad, cols.size)[::-1])
    # at cross = 0 (incoherent, cos_theta = 0, xi = 1, or eta, epsilon or
    # n_c = 0) every lin term is +0.0 or -0.0; H + T_quad is >= +0.0 and
    # never -0.0 in every cell, so subtracting either leaves its bits
    if cross != 0.0:
        table -= _hankel(cross * diff / n_bar, cols.size)[::-1]
    table *= envelope
    return _clamp_negative(table)


def _pmf_tables(
    params: ProtocolParams, counts: np.ndarray, cols: np.ndarray | None = None
) -> np.ndarray:
    """The pmf over contiguous count ranges, ``counts`` for detector 1 (the
    row index) and ``cols`` for detector 2 (default ``counts``): a 1-D
    table for direct detection and a 2-D one otherwise.

    It is a Poisson envelope, Poisson(n_noise) for direct detection and two
    Poisson(n_bar / 2) factors for two detectors, which alone is the xi = 0
    table (``_envelope``), times the bracket that ``_bracketed`` applies.

    Direct: the at-most-one emitter photon lands with probability eta xi,
    p(k) = (1 - eta xi) Pois(k; n) + eta xi Pois(k - 1; n), exact also at
    n = 0.  Two detectors: the photon and its interference with the
    reference give a polynomial bracket in (j + k) and (j - k), expanded so
    that every xi-dependent term carries its own xi factor and xi = 0 and
    xi = 1 are exact endpoints with no indeterminate ratios.

    The bracket depends on the cell (j, k) only through s = j + k and
    d = j - k.  Its three terms, 1 - eta xi + eta xi n_noise s / n_bar^2,
    eta^2 xi epsilon n_c d^2 / n_bar^2 and cross d / n_bar, are evaluated
    once per value of s or d, on vectors of length rows + cols - 1, and
    read back as views whose cell (j, k) is the term at j + k (a Hankel
    matrix) or at j - k (a Toeplitz one).  The table is then
    ((H + T_quad) - T_lin) times the envelope: per cell the same
    operations in the same order as the elementwise expression, so every
    cell has the same bits.
    """
    cols = counts if cols is None else cols
    envelope = _envelope(params, counts, cols)
    return envelope if params.xi == 0.0 else _bracketed(params, envelope, counts, cols)


def _is_whole(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _record(*counts) -> tuple[int, ...]:
    """The counts of one record, each an integer >= 0: the pmf formulas
    would take any real count, and a table index a boolean."""
    if not all(_is_whole(c) and c >= 0 for c in counts):
        raise ParameterError(f"counts must be integers >= 0, got {counts}")
    return counts


def direct_pmf(params: ProtocolParams, k: int) -> float:
    """Probability of recording k counts in one direct-detection trial."""
    if params.protocol is not Protocol.DIRECT:
        raise ParameterError("direct_pmf requires the direct protocol")
    return float(_pmf_tables(params, np.array(_record(k), dtype=float))[0])


def hom_pmf(params: ProtocolParams, j: int, k: int) -> float:
    """Probability of the joint record (j, k) in one two-detector trial."""
    if params.protocol is Protocol.DIRECT:
        raise ParameterError("hom_pmf requires a two-detector protocol")
    j, k = _record(j, k)
    return float(_pmf_tables(params, np.array([float(j)]), np.array([float(k)]))[0, 0])


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------


class InverseCdf:
    """Inverse of a cumulative table ``cdf`` over flat row-major cells.

    ``cells(u)`` maps each u in [0, 1) to the number of cdf values <= u,
    a u at or above the table's rounded top going to the last cell: it
    equals ``np.clip(np.searchsorted(cdf, u, side="right"), 0,
    cdf.size - 1)`` bit for bit.

    A guide table (Devroye, "Non-Uniform Random Variate Generation", 1986,
    §III.2.4) splits [0, 1) into ``BUCKETS`` equal buckets.  As that is
    a power of two, b = floor(u · BUCKETS) is exact, and every u in a
    bucket with no cdf value strictly inside it has the count that the
    bucket's left edge has; the guide holds that count, or -1 where a cdf
    value splits the bucket, and only the u that land there are searched.
    """

    BUCKETS = 1 << 14

    def __init__(self, cdf: np.ndarray) -> None:
        self.cdf = cdf
        edges = np.arange(self.BUCKETS + 1) * (1.0 / self.BUCKETS)
        guide = np.searchsorted(cdf, edges[:-1], side="right")
        guide[np.searchsorted(cdf, edges[1:], side="left") > guide] = -1
        guide.setflags(write=False)
        self.guide = guide

    def cells(self, u: np.ndarray) -> np.ndarray:
        idx = np.take(self.guide, (u * self.BUCKETS).astype(np.intp))
        flat = idx.reshape(-1)
        split = np.flatnonzero(flat < 0)
        flat[split] = np.searchsorted(self.cdf, u.reshape(-1)[split], side="right")
        # in place: a second index array would add u.size words to the peak
        np.clip(idx, 0, self.cdf.size - 1, out=idx)
        return idx


@dataclass(frozen=True)
class CountDistribution:
    """Exhaustively enumerated count distribution for one parameter set.

    ``probs`` is 1-D (direct) or 2-D (two-detector, row index = detector 1)
    over 0..k_max per detector; a table ``saturation`` at t, whose boundary
    bins absorb all higher counts, spans 0..t.  ``tail_mass`` is derived:
    ``max(0, 1 - sum)``, the mass left outside the table, or 0 if saturated.

    The table checks its mass once, here, against ``_tail_allowance`` at
    the size ``build_distribution`` gives its params, whose rounding a fold
    keeps: a ``tail_mass`` above it raises TruncationError, and a ``sum +
    tail_mass`` further from 1, or NaN, raises ParameterError.
    """

    params: ProtocolParams
    probs: np.ndarray
    tail_mass: float = field(init=False)
    saturation: int | None = None

    def __post_init__(self) -> None:
        self.probs.setflags(write=False)
        object.__setattr__(self, "tail_mass", _checked_tail(self.params, self.probs,
                                                            self.saturation))

    @property
    def k_max(self) -> int:
        return self.probs.shape[0] - 1

    def cell(self, j: int, k: int | None = None) -> tuple[int, ...] | None:
        """Table index of the record (j) or (j, k), or None beyond an
        unsaturated table; counts above a saturated boundary are clipped
        onto it.  Counts must be integers >= 0, one per detector."""
        counts = _record(j) if k is None else _record(j, k)
        if len(counts) != self.probs.ndim:
            raise ParameterError(f"this table takes {self.probs.ndim} count(s), got {counts}")
        if self.saturation is not None:
            return tuple(min(c, self.saturation) for c in counts)
        if max(counts) > self.k_max:
            return None
        return counts

    def prob(self, j: int, k: int | None = None) -> float:
        """Probability of the record (j) or (j, k), read at ``cell``; 0 for
        an untabulated record, whose mass is in ``tail_mass``."""
        cell = self.cell(j, k)
        return 0.0 if cell is None else float(self.probs[cell])

    def total(self) -> float:
        return float(self.probs.sum())

    @cached_property
    def inverse_cdf(self) -> InverseCdf:
        """The inverse of ``np.cumsum(probs.ravel())``, built on first use
        and kept with the table."""
        return InverseCdf(np.cumsum(self.probs.ravel()))

    def outcomes(self) -> Iterator[tuple[Outcome, float]]:
        """Iterate (outcome, probability) in row-major order."""
        for *counts, p in _cells(self.probs):
            yield Outcome(*counts), p

    # -- serialization ------------------------------------------------------

    def csv_text(self) -> str:
        return table_csv_text(self.probs, "p")

    def to_json_dict(self) -> dict:
        return json.loads(_table_json_text(self.params, self.saturation, self.probs,
                                           "tail_mass", self.tail_mass))


def _checked_tail(params: ProtocolParams, probs: np.ndarray, saturation: int | None,
                  total: float | None = None) -> float:
    """The ``tail_mass`` of a table at params, saturated at ``saturation``
    or not, once its shape and mass pass ``CountDistribution``'s checks;
    ``total`` is ``probs.sum()`` where the caller has it."""
    t = saturation
    total = float(probs.sum()) if total is None else total
    if t is not None and probs.shape != (t + 1,) * probs.ndim:
        raise ParameterError(f"a table saturated at {t} spans 0..{t}, got {probs.shape}")
    tail = 0.0 if t is not None else max(0.0, 1.0 - total)
    off = abs(total + tail - 1.0)
    if tail <= TAIL_FLOOR and off <= TAIL_FLOOR:
        return tail  # within every allowance, so none is worked out
    allowance = _tail_allowance(params, _table_k_max(params))
    if tail > allowance:
        raise TruncationError(f"untabulated mass {tail:.3g} > {allowance:.3g} allowed at "
                              f"k_max {probs.shape[0] - 1}, n_bar = {derived_means(params).n_bar}")
    if not off <= allowance:
        raise ParameterError(f"table mass {total!r} is not within {allowance:.3g} of 1")
    return tail


def _cells(table: np.ndarray) -> Iterator[tuple]:
    """Each cell of a count table indexed like ``CountDistribution.probs``
    as (j, value) or (j, k, value), in row-major order, value a float."""
    counts = itertools.product(*map(range, table.shape))
    return map(tuple.__add__, counts, zip(table.ravel().tolist()))


def _csv_text(columns, row_format: str, rows) -> str:
    """CSV under a header of column names, each row a tuple written by the
    %-format ``row_format``."""
    return "\n".join([",".join(columns), *map(row_format.__mod__, rows)]) + "\n"


def _json_text(doc) -> str:
    """A JSON document as every output file holds one: strict, with no NaN
    or infinity, indented by one space per level and newline-terminated."""
    return json.dumps(doc, indent=1, allow_nan=False) + "\n"


def table_csv_text(table: np.ndarray, value_header: str) -> str:
    """CSV of a count table indexed like ``CountDistribution.probs``:
    ``j,k,<value_header>`` rows for a joint table, ``j,<value_header>``
    for a direct one, values at full 17-digit precision."""
    columns = ("j", "k")[:table.ndim] + (value_header,)
    return _csv_text(columns, "%d," * table.ndim + "%.17g", _cells(table))


def _table_json_text(params: ProtocolParams, saturation: int | None, table: np.ndarray,
                     key: str, value) -> str:
    """The JSON document of a count table, as ``_json_text`` writes it: its
    params, saturation and k_max, then ``key`` (tail_mass, or diff for a
    difference table), then the entries [j, k, value] or [j, value] in
    row-major order.

    json indents through its pure-Python encoder, about three times the
    cost of its C one, so only the head goes through it; each entry is
    written by one %-format, whose ``%r`` is the float repr json writes.
    A non-finite cell is refused with json's own error.
    """
    head = _json_text({
        "params": params.to_dict(),
        "saturation": saturation,
        "k_max": table.shape[0] - 1,
        key: value,
        "entries": [],
    })
    flat = table.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        bad = float(flat[np.argmin(finite)])
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    row = "  [\n" + "   %d,\n" * table.ndim + "   %r\n  ]"
    entries = ",\n".join(map(row.__mod__, _cells(table)))
    return head[: -len("[]\n}\n")] + "[\n" + entries + "\n ]\n}\n"


def _tail_allowance(params: ProtocolParams, k_max: int) -> float:
    """Largest distance ``|1 - sum|`` accepted in a table of 0..k_max counts
    per detector: TAIL_FLOOR, or the rounding that summing the table can
    leave, whichever is larger.

    Each Poisson factor exp(k ln mu - mu - ln k!) carries a relative error
    of about eps k ln mu (eps = ulp(1.0)), so the sum of a table at mean mu
    per detector over d detectors can miss 1 by eps (k_max + 1)(1 + ln mu) d;
    the factor 4 is a margin, as measured rounding stays below 0.4 of that.
    """
    d = params.protocol.detectors
    mu = derived_means(params).n_bar / d
    rounding = 4.0 * math.ulp(1.0) * (k_max + 1) * (1.0 + math.log(max(mu, 1.0))) * d
    return max(TAIL_FLOOR, rounding)


def _table_k_max(params: ProtocolParams) -> int:
    """The top count per detector of ``build_distribution``'s table:
    max(20, mu + 12 sqrt(mu + 1)), mu the mean count per detector.  A size
    above K_MAX_HARD_CAP counts is refused here, so every path that sizes
    a table refuses it alike before anything is allocated."""
    n_bar = derived_means(params).n_bar
    per_det = n_bar / params.protocol.detectors
    # the extra photon and the bracket polynomial fit in the floor and margin
    k = max(20, math.ceil(per_det + 12.0 * math.sqrt(per_det + 1.0)))
    if k > K_MAX_HARD_CAP:
        raise TruncationError(f"k_max {k:.3g} at n_bar = {n_bar} "
                              f"exceeds the cap of {K_MAX_HARD_CAP} counts per detector")
    return k


def build_distribution(params: ProtocolParams) -> CountDistribution:
    """Enumerate the count distribution on 0..``_table_k_max(params)`` per
    detector, where the Poisson mass beyond is below 1e-17 per detector."""
    k = _table_k_max(params)
    return CountDistribution(params=params, probs=_pmf_tables(params, np.arange(k + 1.0)))


def _check_budget(need: int, work: str, advice: str = "") -> None:
    """Refuse work estimated at ``need`` bytes above MEMORY_BUDGET_BYTES."""
    if need > MEMORY_BUDGET_BYTES:
        raise ParameterError(f"{work} needs about {need / 2**20:.0f} MiB, above the "
                             f"{MEMORY_BUDGET_BYTES >> 20} MiB budget{advice}")


def _scoring_bytes(t: int, detectors: int, presents: int = 1) -> int:
    """Peak bytes of scoring a pair folded at t, as a folded pair, or of
    scoring ``presents`` present folds against one absent fold in a stack
    (``bayes._stacked_moments``): 2 presents + 3 float64 tables of
    (t + 1)^d cells, a fold's edge row and 4 KiB of objects.  A folded
    pair holds four tables at the peak: the two folds, the log ratios and
    either their build's one temporary or their squares.  A stack holds
    its folds and their logs, squared in place; the last table is
    margin."""
    return 8 * ((2 * presents + 3) * (t + 1) ** detectors + t + 1) + 4096


def _check_saturation(t: int, detectors: int) -> int:
    """A detector cutoff t, refused unless an integer in [1, K_MAX_HARD_CAP]
    whose pair, on this many detectors, scores within the memory budget:
    two detectors above t = 5179 are refused."""
    if not _is_whole(t) or t < 1:
        raise ParameterError(f"saturation threshold must be an integer >= 1, got {t}")
    if t > K_MAX_HARD_CAP:
        raise ParameterError(
            f"saturation threshold {t} exceeds the cap of {K_MAX_HARD_CAP} counts per detector"
        )
    _check_budget(_scoring_bytes(t, detectors),
                  f"scoring saturation threshold {t} on {detectors} detectors")
    return t


def _parse_saturation(raw, detectors: int) -> int | None:
    """A detector cutoff from a flag, a config value or a spec entry: None
    or "inf" for none, else an integer, an integer string or an integral
    float that ``_check_saturation`` accepts on this many detectors.
    Anything else, booleans included, is refused rather than truncated."""
    if raw is None or raw == "inf":
        return None
    t = None
    if isinstance(raw, float) and raw.is_integer():
        t = int(raw)
    elif isinstance(raw, (numbers.Integral, str)) and not isinstance(raw, bool):
        try:
            t = int(raw)
        except ValueError:
            pass
    if t is None:
        raise ParameterError(f"saturation must be an integer >= 1 or 'inf', got {raw!r}")
    return _check_saturation(t, detectors)


def _folded(dist: CountDistribution, t: int) -> np.ndarray:
    """``apply_saturation``'s table as a new array, before its mass check:
    refused, before anything is allocated, for a saturated ``dist`` or a
    threshold that ``_check_saturation`` refuses."""
    if dist.saturation is not None:
        raise ParameterError("distribution is already saturated")
    _check_saturation(t, dist.probs.ndim)
    return _fold_into(np.zeros((t + 1,) * dist.probs.ndim), dist.probs, dist.tail_mass, t)


def _fold_into(out: np.ndarray, probs: np.ndarray, tail_mass: float, t: int) -> np.ndarray:
    """Fold an unsaturated table of ``tail_mass`` at t into the zeroed
    array ``out`` of t + 1 counts per detector, and return it."""
    p, edge = probs, min(t, probs.shape[0])
    if p.ndim == 2:
        out[:edge, :edge] = p[:edge, :edge]
        out[t, :edge] += p[edge:, :edge].sum(axis=0)
        out[:edge, t] += p[:edge, edge:].sum(axis=1)
        out[t, t] += p[edge:, edge:].sum() + tail_mass
    else:
        out[:edge] = p[:edge]
        out[t] += p[edge:].sum() + tail_mass
    return out


def apply_saturation(dist: CountDistribution, t: int) -> CountDistribution:
    """Fold counts above threshold t into the boundary bins.

    A detector that saturates at t reports min(count, t), so all mass with
    j >= t collapses onto j = t (per detector for joint tables).  The
    distribution tail joins the top corner bin, making the result exactly
    normalized.  Saturation is applied at most once, and a threshold that
    ``_check_saturation`` refuses raises before anything is allocated.
    """
    return CountDistribution(params=dist.params, probs=_folded(dist, t), saturation=t)


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text to path via a temp file and rename, so readers never see
    a half-written file.  The temp file gets the mode ``open(path, "w")``
    leaves: the existing file's, or for a new file 0o666 less the umask,
    and the rename keeps it; ``tempfile.mkstemp`` would give 0o600."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(6).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            try:
                os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:
                pass
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
