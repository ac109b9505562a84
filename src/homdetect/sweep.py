"""Measurement-count sweeps and protocol comparisons.

The figure of merit is the smallest number of trials whose averaged
confidence reaches a target (default 0.954, the two-sigma level).  This
module evaluates that count across parameter grids, compares each
two-detector configuration against direct detection on the same emitter
and backgrounds, and optimizes the reference brightness per grid point.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .bayes import (
    HypothesisPair,
    HypothesesIndistinguishableError,
    LogLikMoments,
    _n_real,
    loglik_moments,
    n_for_confidence,
)
from .photon_stats import (
    DegenerateParameterError,
    ParameterError,
    Protocol,
    ProtocolParams,
    atomic_write_text,
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


def _parse_saturation(raw) -> int | None:
    """A detector cutoff from a flag, a config value or a spec entry: None
    or "inf" for none, else an integer, an integer string or an integral
    float.  Anything else, booleans included, is refused rather than
    truncated; ``apply_saturation`` checks the range."""
    if raw is None or raw == "inf":
        return None
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    if isinstance(raw, (numbers.Integral, str)) and not isinstance(raw, bool):
        try:
            return int(raw)
        except ValueError:
            pass
    raise ParameterError(f"saturation must be an integer >= 1 or 'inf', got {raw!r}")


def _spec_number(value) -> float:
    """A number of a sweep spec as a float, from a real or a numeric string;
    anything else, booleans and other strings included, raises TypeError."""
    try:
        if isinstance(value, (numbers.Real, str)) and not isinstance(value, bool):
            return float(value)
    except ValueError:
        pass
    raise TypeError(f"not a number: {value!r}")


class NcOptimum(NamedTuple):
    """Best reference brightness for one configuration.

    at_bound marks an optimum pinned to the upper search bound, where the
    true objective keeps improving asymptotically.
    """

    n_c_star: float
    n_star: int
    at_bound: bool


def _moments_at(params: ProtocolParams, t: int | None):
    return loglik_moments(HypothesisPair.from_params(params, saturation=t))


def n_two_sigma(params: ProtocolParams, t: int | None = None, c_target: float = TWO_SIGMA) -> int:
    """Smallest trial count reaching the target averaged confidence, with
    detectors saturating at t (None for unbounded counters)."""
    return n_for_confidence(c_target, _moments_at(params, t))


def _direct_counterpart(params: ProtocolParams) -> ProtocolParams:
    """Direct detection of the same emitter: same xi, eta and backgrounds;
    the reference-beam settings do not apply."""
    return ProtocolParams(
        protocol=Protocol.DIRECT,
        xi=params.xi,
        eta=params.eta,
        n_e=params.n_e,
        n_i=params.n_i,
    )


def speedup(params: ProtocolParams, t: int | None = None, c_target: float = TWO_SIGMA) -> float:
    """How many times fewer trials the given protocol needs than direct
    detection under the same emitter, efficiency, backgrounds, and
    saturation."""
    if params.protocol is Protocol.DIRECT:
        return 1.0
    n_direct = n_two_sigma(_direct_counterpart(params), t, c_target)
    n_protocol = n_two_sigma(params, t, c_target)
    return n_direct / n_protocol


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
    rather than chasing an asymptotic optimum.
    """
    lo, hi = bounds
    if not (0.0 < lo < hi):
        raise ParameterError(f"bounds must satisfy 0 < lo < hi, got {bounds}")
    if params.protocol is Protocol.DIRECT:
        raise ParameterError("the trial count of direct detection does not depend on n_c")

    # n_c -> (real-valued N, its moments); an unscorable brightness keeps
    # the exception in place of the moments
    cache: dict[float, tuple[float, LogLikMoments | Exception]] = {}

    def f(nc: float) -> float:
        # real-valued crossing point; smooth in n_c where defined
        if nc not in cache:
            try:
                moments = _moments_at(replace(params, n_c=nc), t)
                cache[nc] = (_n_real(moments, c_target), moments)
            except (DegenerateParameterError, HypothesesIndistinguishableError) as exc:
                cache[nc] = (math.inf, exc)
        return cache[nc][0]

    def n_int(nc: float) -> int:
        value, found = cache[nc]
        if math.isinf(value):
            raise found
        return n_for_confidence(c_target, found)

    candidates = [0.0] + list(np.geomspace(lo, hi, NC_GRID_POINTS))
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
        return NcOptimum(n_c_star=hi, n_star=n_int(hi), at_bound=True)

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
    explicit grid or the string "optimize"; direct rows ignore it.
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
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, _spec_number(value))
            except TypeError:
                raise ParameterError(f"sweep spec {name} must be a number, got {value!r}") from None
        self._normalize("protocols", lambda p: Protocol(p).value)
        for name in ("eta", "n_e") if self.n_i is None else ("eta", "n_e", "n_i"):
            self._normalize(name, _spec_number)
        if isinstance(self.n_c, str):
            if self.n_c != "optimize":
                raise ParameterError(f'n_c must be a grid or "optimize", got {self.n_c!r}')
        else:
            self._normalize("n_c", _spec_number)
        self._normalize("saturations", _parse_saturation)
        self._normalize("nc_bounds", _spec_number)
        b = self.nc_bounds
        if len(b) != 2 or not (0.0 < b[0] < b[1] < math.inf):
            raise ParameterError(
                f"sweep spec nc_bounds must be two finite numbers with 0 < lo < hi, got {list(b)}"
            )

    def _normalize(self, name: str, convert: Callable) -> None:
        """Store a list field as a tuple of converted entries."""
        values = getattr(self, name)
        if not isinstance(values, (list, tuple)):
            raise ParameterError(f"sweep spec {name} must be a list, got {values!r}")
        try:
            object.__setattr__(self, name, tuple(convert(v) for v in values))
        except TypeError:
            raise ParameterError(f"sweep spec {name} holds a non-number: {values!r}") from None

    def to_dict(self) -> dict:
        return {
            "protocols": list(self.protocols),
            "xi": self.xi,
            "epsilon": self.epsilon,
            "cos_theta": self.cos_theta,
            "eta": list(self.eta),
            "n_e": list(self.n_e),
            "n_i": None if self.n_i is None else list(self.n_i),
            "n_c": self.n_c if isinstance(self.n_c, str) else list(self.n_c),
            "saturations": ["inf" if t is None else t for t in self.saturations],
            "c_target": self.c_target,
            "nc_bounds": list(self.nc_bounds),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ParameterError(f"unknown sweep spec keys: {', '.join(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point; ``error`` holds the failure message when
    the point could not be evaluated."""

    protocol: str
    eta: float
    n_e: float
    n_i: float
    n_c: float
    t: int | None
    n_2sigma: int | None
    speedup: float | None
    at_bound: bool | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...]

    CSV_HEADER = "protocol,eta,n_e,n_i,n_c,t,N,speedup,at_bound"

    def to_csv(self, path: str | os.PathLike) -> None:
        atomic_write_text(path, self.csv_text())

    def csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            t = "inf" if r.t is None else str(r.t)
            if r.error is not None:
                tail = ",,"
            else:
                tail = f"{r.n_2sigma},{r.speedup:.17g},{'true' if r.at_bound else 'false'}"
            lines.append(
                f"{r.protocol},{r.eta:.17g},{r.n_e:.17g},{r.n_i:.17g},{r.n_c:.17g},{t},{tail}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self, path: str | os.PathLike) -> None:
        atomic_write_text(path, json.dumps(self.json_dict(), indent=1) + "\n")

    def json_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "rows": [
                {
                    "protocol": r.protocol,
                    "eta": r.eta,
                    "n_e": r.n_e,
                    "n_i": r.n_i,
                    "n_c": r.n_c,
                    "t": "inf" if r.t is None else r.t,
                    "N": r.n_2sigma,
                    "speedup": r.speedup,
                    "at_bound": r.at_bound,
                    "error": r.error,
                }
                for r in self.rows
            ],
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


def evaluate_point(
    spec: SweepSpec, point: tuple, direct_cache: dict[tuple, int] | None = None
) -> SweepRow:
    """Evaluate one grid point of the spec; raises when it cannot be
    evaluated.

    ``direct_cache`` maps (eta, n_e, n_i, t) to the trial count of direct
    detection, so the points of one sweep share that baseline.
    """
    protocol, eta, ne, ni, t, nc = point
    if direct_cache is None:
        direct_cache = {}
    params = ProtocolParams(
        protocol=protocol,
        xi=spec.xi,
        eta=eta,
        epsilon=spec.epsilon,
        n_c=0.0 if nc == "optimize" else nc,
        n_e=ne,
        n_i=ni,
        cos_theta=spec.cos_theta,
    )
    direct = params.protocol is Protocol.DIRECT
    if nc == "optimize":
        opt = optimize_nc(params, t, spec.c_target, spec.nc_bounds)
        n, nc, at_bound = opt.n_star, opt.n_c_star, opt.at_bound
    elif not direct:
        n, at_bound = n_two_sigma(params, t, spec.c_target), False
    key = (eta, ne, ni, t)
    if key not in direct_cache:
        direct_cache[key] = n_two_sigma(_direct_counterpart(params), t, spec.c_target)
    if direct:
        n, at_bound = direct_cache[key], False
    return SweepRow(protocol, eta, ne, ni, nc, t, n, direct_cache[key] / n, at_bound)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid point of the spec, in ``grid_points`` order.

    Points that fail (degenerate parameters, indistinguishable
    hypotheses, truncation overflow) become error rows instead of
    aborting the sweep.
    """
    direct_cache: dict[tuple, int] = {}
    rows = []
    for point in grid_points(spec):
        try:
            rows.append(evaluate_point(spec, point, direct_cache))
        except (ValueError, RuntimeError) as exc:
            protocol, eta, ne, ni, t, nc = point
            nc_val = float("nan") if nc == "optimize" else nc
            rows.append(
                SweepRow(protocol, eta, ne, ni, nc_val, t, None, None, None, error=str(exc))
            )
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
