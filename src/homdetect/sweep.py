"""Measurement-count sweeps and protocol comparisons.

The figure of merit is the smallest number of trials whose averaged
confidence reaches a target (default 0.954, the two-sigma level).  This
module evaluates that count across parameter grids, compares each
two-detector configuration against direct detection on the same emitter
and backgrounds, and optimizes the reference brightness per grid point.
"""

from __future__ import annotations

import contextlib
import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .bayes import (
    HypothesesIndistinguishableError,
    LogLikMoments,
    _brightness_moments,
    _check_c_target,
    _n_real,
    loglik_moments,  # noqa: F401  unused here; bench/spans.py wraps this binding
    n_for_confidence,
)
from .photon_stats import (
    DegenerateParameterError,
    ParameterError,
    Protocol,
    ProtocolParams,
    TruncationError,
    _FIELD_RULES,
    _check_saturation,
    _csv_text,
    _number,
    _parse_saturation,
    _table_k_max,
)

__all__ = [
    "TWO_SIGMA",
    "NcOptimum",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "n_two_sigma",
    "speedup",
    "optimize_nc",
    "grid_points",
    "evaluate_point",
    "run_sweep",
    "preset",
    "preset_names",
]

TWO_SIGMA = 0.954

# Reference-brightness optimization: log grid density across the bounds,
# golden-section refinement tolerance (relative, in n_c), and the flatness
# threshold below which the objective is declared constant.
NC_GRID_POINTS = 60
NC_REL_TOL = 1e-3
FLAT_REL_TOL = 1e-9

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _cutoff_text(t: int | None) -> int | str:
    """A detector cutoff as sweeps write it: "inf" for none."""
    return "inf" if t is None else t


def _check_nc_bounds(name: str, bounds) -> None:
    """The search bounds of n_c must be two finite numbers with 0 < lo < hi."""
    if len(bounds) != 2 or not (0.0 < bounds[0] < bounds[1] < math.inf):
        raise ParameterError(
            f"{name} must be two finite numbers with 0 < lo < hi, got {list(bounds)}"
        )


class NcOptimum(NamedTuple):
    """Best reference brightness for one configuration.

    at_bound marks an optimum pinned to the upper search bound, where the
    true objective keeps improving asymptotically, or to the brightest
    grid candidate whose table fits the k_max cap.
    """

    n_c_star: float
    n_star: int
    at_bound: bool


class _RowGroup:
    """The one store of per-brightness work in a sweep.

    A sweep keeps one per (eta, n_e, n_i) block, for every protocol's rows
    there: ``moments`` holds their moments by (params, t), and ``params``
    their ``ProtocolParams`` by (protocol, n_c), each row's made before any
    row is evaluated.  A lookup at t that misses scores its params from t
    on, for the later rows at the same brightness, so no call drives the
    group row by row.  It scores with them its siblings, every other
    two-detector protocol's params the group holds at that n_c, which read
    the same absent table (``_brightness_moments``): the coherent and
    incoherent rows of a brightness, or both protocols' dark endpoint
    n_c = 0 where they are optimized.  Each gets the bits of a build of its
    own.  One rule for a failure: whatever stops that shared call stops it
    whole, and the params that asked are scored again alone, by the same
    kernel with one present, so they raise what a build of their own
    raises; nothing is stored for the siblings, which are scored where a
    row asks for them.  No table or exception is kept: a fold keeps the
    total, so params refused at one t are refused at all, and a miss checks
    t on the protocol's detectors before it builds.  A direct table reads
    only the block's xi, eta, n_e and n_i, so its direct rows and baseline
    share one params; ``direct`` holds its N by t.
    """

    def __init__(self, saturations: tuple[int | None, ...]) -> None:
        self.saturations = saturations
        self.moments: dict[tuple[ProtocolParams, int | None], LogLikMoments] = {}
        self.params: dict[tuple[str, float], ProtocolParams] = {}
        self.direct: dict[int | None, int] = {}

    def get(self, params: ProtocolParams, t: int | None) -> LogLikMoments:
        moments = self.moments.get((params, t))
        if moments is None:
            if t is not None:
                _check_saturation(t, params.protocol.detectors)
            saturations = self.saturations[self.saturations.index(t):]
            scored = [params] + [q for q in self._siblings(params) if (q, t) not in self.moments]
            try:
                by_params = _brightness_moments(scored, saturations)
            except (ValueError, RuntimeError):
                if len(scored) == 1:
                    raise
                scored = [params]
                by_params = _brightness_moments(scored, saturations)
            for q, by_t in zip(scored, by_params):
                for s in saturations:
                    self.moments[(q, s)] = by_t[s]
            moments = self.moments[(params, t)]
        return moments

    def _siblings(self, params: ProtocolParams) -> list[ProtocolParams]:
        """The other two-detector protocols' params held at params' n_c."""
        if params.protocol is Protocol.DIRECT or not self.params:
            return []
        return [q for p in (Protocol.COHERENT_HOM, Protocol.INCOHERENT_HOM)
                if p is not params.protocol and (q := self.params.get((p.value, params.n_c)))]

    def row_params(self, spec: SweepSpec, point: tuple) -> ProtocolParams:
        """The params of a point of this group: n_c = 0 where it is to be
        optimized."""
        protocol, eta, ne, ni, _, nc = point
        key = (protocol, 0.0 if nc == "optimize" else nc)
        if key not in self.params:
            self.params[key] = ProtocolParams(protocol=protocol, xi=spec.xi, eta=eta,
                                              epsilon=spec.epsilon, n_c=key[1], n_e=ne, n_i=ni,
                                              cos_theta=spec.cos_theta)
        return self.params[key]


# The row group of the sweep being run in this context, if any; set only by
# run_sweep, so optimize_nc, n_two_sigma, speedup and evaluate_point keep
# their signatures and, called alone, score only the t they are asked for,
# each in a row group of its own
_ROW_GROUP: ContextVar[_RowGroup | None] = ContextVar("homdetect_row_group", default=None)


def _group(t: int | None) -> _RowGroup:
    return _ROW_GROUP.get() or _RowGroup((t,))


def n_two_sigma(params: ProtocolParams, t: int | None = None, c_target: float = TWO_SIGMA) -> int:
    """Smallest trial count reaching the target averaged confidence, with
    detectors saturating at t (None for unbounded counters)."""
    return n_for_confidence(c_target, _group(t).get(params, t))


def _direct_n(params: ProtocolParams, t: int | None, c_target: float) -> int:
    """Trial count of direct detection on the same emitter: same xi, eta
    and backgrounds; the reference-beam settings do not apply.  A sweep
    computes it once per block and t."""
    group = _group(t)
    if t not in group.direct:
        key = (Protocol.DIRECT.value, 0.0)
        if key not in group.params:
            group.params[key] = ProtocolParams(protocol=Protocol.DIRECT, xi=params.xi,
                                               eta=params.eta, n_e=params.n_e, n_i=params.n_i)
        group.direct[t] = n_two_sigma(group.params[key], t, c_target)
    return group.direct[t]


def speedup(params: ProtocolParams, t: int | None = None, c_target: float = TWO_SIGMA) -> float:
    """How many times fewer trials the given protocol needs than direct
    detection under the same emitter, efficiency, backgrounds, and
    saturation."""
    if params.protocol is Protocol.DIRECT:
        return 1.0
    return _direct_n(params, t, c_target) / n_two_sigma(params, t, c_target)


def _golden_min(
    f: Callable[[float], float], a: float, b: float, abs_tol: float
) -> tuple[float, float]:
    """Golden-section minimum of f on [a, b]; ties keep the left interval."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > abs_tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def optimize_nc(
    params: ProtocolParams,
    t: int | None = None,
    c_target: float = TWO_SIGMA,
    bounds: tuple[float, float] = (1e-3, 1e3),
) -> NcOptimum:
    """Reference brightness minimizing the required trial count.

    Scans a log grid across the bounds plus the dark-reference endpoint
    n_c = 0, then refines the best bracket by golden section to a relative
    tolerance of 1e-3 in n_c.  Ties in the trial count go to the smaller
    brightness; a flat objective reports n_c = 0.  When the best grid
    point is the upper bound, the bound is returned with at_bound set
    rather than chasing an asymptotic optimum.  Candidates whose table the
    k_max cap refuses are dropped from the bright end first, and the
    brightest one left stands for the bound.

    Candidates are scored in the running sweep's row group, or in one of
    the call's own, so no finalist is rebuilt.
    """
    _check_nc_bounds("bounds", bounds)
    lo, hi = bounds
    if params.protocol is Protocol.DIRECT:
        raise ParameterError("the trial count of direct detection does not depend on n_c")

    group = _group(t)

    @functools.cache
    def f(nc: float) -> float:
        # real-valued crossing point; smooth in n_c where defined
        try:
            return _n_real(group.get(params._with_field("n_c", nc), t), c_target)
        except (DegenerateParameterError, HypothesesIndistinguishableError):
            return math.inf

    def n_int(nc: float) -> int:
        # an unscorable finalist raises its exception again
        return n_for_confidence(c_target, group.get(params._with_field("n_c", nc), t))

    # n_bar grows with n_c, so the candidates whose table the cap refuses
    # are the bright end of the grid
    candidates = [0.0] + list(np.geomspace(lo, hi, NC_GRID_POINTS))
    while len(candidates) > 1:
        try:
            _table_k_max(params._with_field("n_c", candidates[-1]))
            break
        except TruncationError:
            candidates.pop()
    values = [f(nc) for nc in candidates]
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        raise HypothesesIndistinguishableError(
            "no candidate brightness makes the hypotheses distinguishable"
        )
    if max(finite) - min(finite) <= FLAT_REL_TOL * max(1.0, abs(min(finite))):
        return NcOptimum(n_c_star=0.0, n_star=n_int(0.0), at_bound=False)

    best = min(range(len(candidates)), key=lambda i: (values[i], candidates[i]))
    if best == len(candidates) - 1:
        return NcOptimum(n_c_star=float(candidates[-1]), n_star=n_int(candidates[-1]),
                         at_bound=True)

    if best <= 1:
        # bracket touches the dark endpoint; refine on the linear interval
        right = candidates[best + 1]
        refined, _ = _golden_min(f, 0.0, right, abs_tol=NC_REL_TOL * right)
    else:
        a = math.log(candidates[best - 1])
        b = math.log(candidates[best + 1])
        x, _ = _golden_min(lambda u: f(math.exp(u)), a, b, abs_tol=math.log1p(NC_REL_TOL))
        refined = math.exp(x)

    # pick by integer trial count, ties toward the smaller brightness
    finalists = sorted({0.0, candidates[best], refined})
    n_star, n_c_star = min((n_int(nc), nc) for nc in finalists if math.isfinite(f(nc)))
    return NcOptimum(n_c_star=n_c_star, n_star=n_star, at_bound=False)


# ---------------------------------------------------------------------------
# grid sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A Cartesian sweep over protocols, efficiency, backgrounds,
    reference brightness, and saturation.

    n_i = None ties the dark counts to n_e point by point.  n_c may be an
    explicit grid or the string "optimize"; direct rows ignore it.  No
    grid axis may list a value twice ("inf" and None are one saturation).
    """

    protocols: tuple[str, ...] = ("direct", "coherent", "incoherent")
    xi: float = 0.1
    epsilon: float = 0.9
    cos_theta: float = 1.0
    eta: tuple[float, ...] = (0.9,)
    n_e: tuple[float, ...] = (1.0,)
    n_i: tuple[float, ...] | None = None
    n_c: tuple[float, ...] | str = (6.0,)
    saturations: tuple[int | None, ...] = (None,)
    c_target: float = TWO_SIGMA
    nc_bounds: tuple[float, float] = (1e-3, 1e3)

    def __post_init__(self) -> None:
        for name in ("xi", "epsilon", "cos_theta", "c_target"):
            object.__setattr__(self, name, _number(f"sweep spec {name}", getattr(self, name)))
        self._normalize("protocols", lambda p: Protocol(p).value)
        for name in ("eta", "n_e") if self.n_i is None else ("eta", "n_e", "n_i"):
            self._normalize(name)
        if isinstance(self.n_c, str):
            if self.n_c != "optimize":
                raise ParameterError(f'n_c must be a grid or "optimize", got {self.n_c!r}')
        else:
            self._normalize("n_c")
        detectors = max(Protocol(p).detectors for p in self.protocols)
        self._normalize("saturations", lambda raw: _parse_saturation(raw, detectors))
        self._normalize("nc_bounds")
        _check_nc_bounds("sweep spec nc_bounds", self.nc_bounds)
        # out-of-range values are refused here, not turned into error rows
        _check_c_target(self.c_target)
        for name in ("xi", "epsilon", "cos_theta"):
            _FIELD_RULES[name](name, getattr(self, name))
        for name in ("eta", "n_e", "n_i", "n_c"):
            if isinstance(getattr(self, name), tuple):
                for value in getattr(self, name):
                    _FIELD_RULES[name](name, value)
        # a repeated value would write its rows twice
        for name in ("protocols", "eta", "n_e", "n_i", "n_c", "saturations"):
            values = getattr(self, name)
            if isinstance(values, tuple) and len(set(values)) < len(values):
                shown = list(map(_cutoff_text, values) if name == "saturations" else values)
                raise ParameterError(f"sweep spec {name} must not repeat a value, got {shown}")

    def _normalize(self, name: str, convert: Callable | None = None) -> None:
        """Store a nonempty list field as a tuple of entries converted by
        ``convert``, by default the parameter number rule; an empty axis
        would run no point."""
        values = getattr(self, name)
        if not isinstance(values, (list, tuple)):
            raise ParameterError(f"sweep spec {name} must be a list, got {values!r}")
        if not values:
            raise ParameterError(f"sweep spec {name} must not be empty")
        convert = convert or functools.partial(_number, f"sweep spec {name}")
        object.__setattr__(self, name, tuple(convert(v) for v in values))

    def to_dict(self) -> dict:
        """The spec as ``from_dict`` reads it: every field by name, a tuple
        as a list and an unbounded counter as "inf"."""
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[f.name] = list(value) if isinstance(value, tuple) else value
        doc["saturations"] = [_cutoff_text(t) for t in self.saturations]
        return doc

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ParameterError(f"unknown sweep spec keys: {', '.join(unknown)}")
        return cls(**d)


# a row's keys in JSON; its CSV columns are all but the last
_ROW_FIELDS = ("protocol", "eta", "n_e", "n_i", "n_c", "t", "N", "speedup", "at_bound", "error")


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point; ``error`` holds the failure message when
    the point could not be evaluated, and n_c is then None if it was to
    be optimized.  A row whose direct baseline alone failed keeps its N,
    n_c and at_bound, and only its speedup is None."""

    protocol: str
    eta: float
    n_e: float
    n_i: float
    n_c: float | None
    t: int | None
    n_2sigma: int | None
    speedup: float | None
    at_bound: bool | None
    error: str | None = None

    def _record(self) -> tuple:
        """The row's values under ``_ROW_FIELDS``."""
        return (self.protocol, self.eta, self.n_e, self.n_i, self.n_c, _cutoff_text(self.t),
                self.n_2sigma, self.speedup, self.at_bound, self.error)

    def _csv_cells(self) -> tuple:
        """The record as CSV cells: n_c, N, speedup and at_bound as text,
        each empty where None."""
        *point, n_c, t, n, speedup, at_bound, _ = self._record()
        return (*point, "" if n_c is None else "%.17g" % n_c, t, "" if n is None else n,
                "" if speedup is None else "%.17g" % speedup,
                "" if at_bound is None else "true" if at_bound else "false")


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...]

    def csv_text(self) -> str:
        return _csv_text(_ROW_FIELDS[:-1], "%s,%.17g,%.17g,%.17g,%s,%s,%s,%s,%s",
                         map(SweepRow._csv_cells, self.rows))

    def json_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "rows": [dict(zip(_ROW_FIELDS, r._record())) for r in self.rows],
        }


def grid_points(spec: SweepSpec) -> list[tuple]:
    """Every grid point of the spec as (protocol, eta, n_e, n_i, t, n_c),
    in row order: protocol, eta, backgrounds, saturation, brightness.
    Direct points carry n_c = 0; optimized points carry "optimize"."""
    noise_pairs = (
        [(ne, ne) for ne in spec.n_e]
        if spec.n_i is None
        else [(ne, ni) for ne in spec.n_e for ni in spec.n_i]
    )
    points = []
    for protocol in spec.protocols:
        if protocol == Protocol.DIRECT.value:
            nc_axis: tuple = (0.0,)
        elif isinstance(spec.n_c, str):
            nc_axis = ("optimize",)
        else:
            nc_axis = spec.n_c
        for eta in spec.eta:
            for ne, ni in noise_pairs:
                for t in spec.saturations:
                    for nc in nc_axis:
                        points.append((protocol, eta, ne, ni, t, nc))
    return points


def evaluate_point(spec: SweepSpec, point: tuple) -> SweepRow:
    """The sweep row of one grid point of the spec.

    A point that cannot be evaluated (degenerate parameters,
    indistinguishable hypotheses, truncation overflow) becomes an error
    row: the failure message, no N, speedup or at_bound, and the point's
    own n_c, None where it was to be optimized.  A two-detector point
    whose direct baseline alone fails keeps its N, n_c and at_bound, has
    no speedup, and reads ``direct baseline: <message>`` in ``error``.
    Under ``run_sweep`` the point reads its row group's params, moments
    and direct baseline instead of rebuilding them.
    """
    protocol, eta, ne, ni, t, nc = point
    optimize = nc == "optimize"
    n_c, n, at_bound = None if optimize else nc, None, None
    try:
        params = _group(t).row_params(spec, point)
        if optimize:
            n_c, n, at_bound = optimize_nc(params, t, spec.c_target, spec.nc_bounds)
        elif params.protocol is not Protocol.DIRECT:
            n, at_bound = n_two_sigma(params, t, spec.c_target), False
        n_direct = _direct_n(params, t, spec.c_target)
    except (ValueError, RuntimeError) as exc:
        # a row with its N has failed in the baseline alone
        return SweepRow(protocol, eta, ne, ni, n_c, t, n, None, at_bound,
                        error=str(exc) if n is None else f"direct baseline: {exc}")
    if n is None:  # a direct point is its own baseline
        n, at_bound = n_direct, False
    return SweepRow(protocol, eta, ne, ni, n_c, t, n, n_direct / n, at_bound)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """The row of every grid point of the spec, as ``evaluate_point``
    makes it, in ``grid_points`` order.  The points of one (eta, n_e, n_i)
    block, of every protocol, are evaluated together in a row group of
    their own, which holds every row's params first: so each brightness is
    built once for all of its saturations, its absent table once for
    every two-detector protocol there, and the direct baseline once for
    the block.
    """
    points = grid_points(spec)
    blocks: dict[tuple, list[int]] = {}
    for i, point in enumerate(points):
        blocks.setdefault(point[1:4], []).append(i)
    rows: list[SweepRow | None] = [None] * len(points)
    for indices in blocks.values():
        group = _RowGroup(spec.saturations)
        for i in indices:
            # a row whose params are refused is an error row, made below
            with contextlib.suppress(ParameterError):
                group.row_params(spec, points[i])
        token = _ROW_GROUP.set(group)
        try:
            for i in indices:
                rows[i] = evaluate_point(spec, points[i])
        finally:
            _ROW_GROUP.reset(token)
    return SweepResult(spec=spec, rows=tuple(rows))


# ---------------------------------------------------------------------------
# named presets
# ---------------------------------------------------------------------------


def _log_grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    return tuple(float(v) for v in np.geomspace(lo, hi, n))


_PRESETS: dict[str, Callable[[], SweepSpec]] = {
    # trial count versus background strength at fixed brightness
    "fig2a": lambda: SweepSpec(
        protocols=("direct", "coherent", "incoherent"),
        eta=(0.9,),
        n_e=_log_grid(1e-2, 10.0, 13),
        n_c=(6.0,),
        saturations=(None, 4, 2, 1),
    ),
    # trial count versus reference brightness at fixed background
    "fig2b": lambda: SweepSpec(
        protocols=("direct", "coherent", "incoherent"),
        eta=(0.9,),
        n_e=(1.0,),
        n_c=_log_grid(0.1, 10.0, 13),
        saturations=(None, 4, 2, 1),
    ),
    # optimized-brightness speed-up maps over efficiency and background
    "fig3a": lambda: SweepSpec(
        protocols=("coherent",),
        eta=(0.5, 0.7, 0.8, 0.9, 0.95, 0.99),
        n_e=_log_grid(1e-2, 10.0, 7),
        n_c="optimize",
        saturations=(None,),
    ),
    "fig3b": lambda: SweepSpec(
        protocols=("incoherent",),
        eta=(0.5, 0.7, 0.8, 0.9, 0.95, 0.99),
        n_e=_log_grid(1e-2, 10.0, 7),
        n_c="optimize",
        saturations=(None,),
    ),
    "fig3c": lambda: SweepSpec(
        protocols=("coherent",),
        eta=(0.5, 0.8, 0.9, 0.95, 0.99),
        n_e=_log_grid(1e-2, 10.0, 5),
        n_c="optimize",
        saturations=(4, 2, 1),
    ),
    # optimal brightness itself, saturated and not
    "figS4": lambda: SweepSpec(
        protocols=("coherent", "incoherent"),
        eta=(0.5, 0.8, 0.9, 0.95, 0.99),
        n_e=_log_grid(1e-2, 10.0, 5),
        n_c="optimize",
        saturations=(None, 2),
    ),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset(name: str) -> SweepSpec:
    """Named sweep configurations covering the standard comparisons."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ParameterError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    return factory()
