"""Command-line interface.

Subcommands:

    dist             tabulate a count distribution (or its xi-vs-0 difference)
    simulate         run a trajectory ensemble and summarize the posterior
    nmeas            trial count to reach a target confidence
    speedup          trial-count ratio of direct detection to a protocol
    sweep            evaluate a parameter grid (named preset or config file)
    validate-oracle  cross-check the closed form against the number basis

Every parameter flag can also come from a JSON config document passed with
--config; explicit flags win over the document, which wins over defaults,
so a config run and the equivalent flag run emit identical bytes.  The
exception is sweep: a preset or a --config sweep document is the whole
spec, and parameter flags beside it are refused.  File outputs are
written atomically.

Exit status: 0 on success, 1 when validate-oracle finds a deviation above
tolerance, 2 for invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bayes import HypothesisPair
from .fock_oracle import OracleConfig, compare_with_closed_form
from .montecarlo import EnsembleConfig, Truth, simulate_ensemble
from .photon_stats import (
    ParameterError,
    Protocol,
    ProtocolParams,
    apply_saturation,
    atomic_write_text,
    build_distribution,
    table_csv_text,
    table_entries,
    DEFAULT_TAIL_TOL,
)
from .sweep import (
    SweepResult,
    SweepSpec,
    TWO_SIGMA,
    evaluate_point,
    grid_points,
    optimize_nc,  # noqa: F401  unused here; bench/spans.py wraps this binding
    preset,
    preset_names,
    run_sweep,
)

__all__ = ["main"]

_PARAM_KEYS = ("protocol", "xi", "eta", "epsilon", "n_c", "n_e", "n_i", "cos_theta")

# Destination -> flag of every sweep option that describes one point; a preset
# or config document is the whole spec, so these are refused beside it.
_POINT_FLAGS = {
    "protocol": "--protocol", "xi": "--xi", "eta": "--eta", "epsilon": "--epsilon",
    "n_c": "--nc", "n_e": "--ne", "n_i": "--ni", "cos_theta": "--cos-theta",
    "saturation": "--saturation", "tail_tol": "--tail-tol", "c_target": "--c-target",
    "optimize_nc": "--optimize-nc",
}


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--protocol", choices=[p.value for p in Protocol], default=None)
    sub.add_argument("--xi", type=float, default=None, help="emission probability")
    sub.add_argument("--eta", type=float, default=None, help="detection efficiency")
    sub.add_argument("--epsilon", type=float, default=None, help="mode overlap")
    sub.add_argument("--nc", dest="n_c", type=float, default=None, help="reference brightness")
    sub.add_argument("--ne", dest="n_e", type=float, default=None, help="excitation background")
    sub.add_argument("--ni", dest="n_i", type=float, default=None, help="dark counts per detector")
    sub.add_argument("--cos-theta", dest="cos_theta", type=float, default=None)
    sub.add_argument("--saturation", default=None, help="detector cutoff, integer or 'inf'")
    sub.add_argument("--tail-tol", dest="tail_tol", type=float, default=None)
    sub.add_argument("--config", default=None, help="JSON document supplying any flag")


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default=None)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ParameterError("config document must be a JSON object")
    return doc


def _resolve(args: argparse.Namespace, config: dict, key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _params_from(args: argparse.Namespace, config: dict, default_protocol: str | None = None
                 ) -> ProtocolParams:
    protocol = _resolve(args, config, "protocol", default_protocol)
    if protocol is None:
        raise ParameterError("--protocol is required (or supply it via --config)")
    fields = {"protocol": Protocol(protocol)}
    defaults = ProtocolParams(protocol=Protocol(protocol))
    for key in _PARAM_KEYS[1:]:
        fields[key] = float(_resolve(args, config, key, getattr(defaults, key)))
    return ProtocolParams(**fields)


def _parse_saturation(raw) -> int | None:
    if raw is None or raw == "inf":
        return None
    try:
        t = int(raw)
    except (TypeError, ValueError):
        raise ParameterError(f"saturation must be an integer >= 1 or 'inf', got {raw!r}") from None
    return t


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(output, text)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def _emit_result(result: SweepResult, fmt: str, output: str | None) -> None:
    _emit(result.csv_text() if fmt == "csv" else _json_text(result.json_dict()), output)


def _point_spec(args: argparse.Namespace, config: dict) -> SweepSpec:
    """The one-point sweep that nmeas, speedup and the flag form of sweep
    evaluate, carrying every flag that changes its numbers."""
    params = _params_from(args, config)
    return SweepSpec(
        protocols=(params.protocol.value,),
        xi=params.xi,
        epsilon=params.epsilon,
        cos_theta=params.cos_theta,
        eta=(params.eta,),
        n_e=(params.n_e,),
        n_i=(params.n_i,),
        n_c="optimize" if getattr(args, "optimize_nc", False) else (params.n_c,),
        saturations=(_parse_saturation(_resolve(args, config, "saturation", None)),),
        c_target=float(_resolve(args, config, "c_target", TWO_SIGMA)),
        tail_tol=float(_resolve(args, config, "tail_tol", DEFAULT_TAIL_TOL)),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_dist(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    params = _params_from(args, config)
    t = _parse_saturation(_resolve(args, config, "saturation", None))
    tail_tol = float(_resolve(args, config, "tail_tol", DEFAULT_TAIL_TOL))
    fmt = _resolve(args, config, "format", "csv")

    if args.diff:
        pair = HypothesisPair.from_params(params, tail_tol=tail_tol, saturation=t)
        table = pair.present.probs - pair.absent.probs
        if fmt == "csv":
            text = table_csv_text(table, "dp")
        else:
            text = _json_text({
                "params": params.to_dict(),
                "saturation": t,
                "k_max": pair.present.k_max,
                "diff": True,
                "entries": table_entries(table),
            })
    else:
        dist = build_distribution(params, tail_tol=tail_tol)
        if t is not None:
            dist = apply_saturation(dist, t)
        text = dist.csv_text() if fmt == "csv" else _json_text(dist.to_json_dict())
    _emit(text, args.output)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    params = _params_from(args, config)
    t = _parse_saturation(_resolve(args, config, "saturation", None))
    tail_tol = float(_resolve(args, config, "tail_tol", DEFAULT_TAIL_TOL))
    fmt = _resolve(args, config, "format", "csv")
    truth = _resolve(args, config, "truth", None)
    n_meas = _resolve(args, config, "n_measurements", None)
    seed = _resolve(args, config, "seed", None)
    if truth is None or n_meas is None or seed is None:
        raise ParameterError("simulate requires --truth, --n-measurements and --seed")
    n_traj = int(_resolve(args, config, "n_trajectories", 100_000))
    if args.output is None:
        raise ParameterError("simulate requires -o/--output for its two result files")

    pair = HypothesisPair.from_params(params, tail_tol=tail_tol, saturation=t)
    ensemble = simulate_ensemble(
        EnsembleConfig(
            pair=pair,
            truth=Truth(truth),
            n_measurements=int(n_meas),
            n_trajectories=n_traj,
            seed=int(seed),
        )
    )

    if fmt == "csv":
        ensemble.to_csv(args.output)
    else:
        steps = {
            "step": list(range(1, ensemble.mean_pe.size + 1)),
            "mean_Pe": [float(v) for v in ensemble.mean_pe],
            "q25": [float(v) for v in ensemble.q25],
            "q75": [float(v) for v in ensemble.q75],
        }
        atomic_write_text(args.output, _json_text(steps))
    ensemble.to_summary_json(_summary_path(args.output))
    return 0


def _summary_path(output: str) -> str:
    base, _ = os.path.splitext(output)
    return base + ".summary.json"


def _run_point(args: argparse.Namespace, config: dict, spec: SweepSpec) -> int:
    (point,) = grid_points(spec)
    result = SweepResult(spec=spec, rows=(evaluate_point(spec, point),))
    _emit_result(result, _resolve(args, config, "format", "csv"), args.output)
    return 0


def cmd_nmeas(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    return _run_point(args, config, _point_spec(args, config))


def cmd_speedup(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    spec = _point_spec(args, config)
    if spec.protocols == (Protocol.DIRECT.value,):
        raise ParameterError("speedup compares a two-detector protocol against direct detection")
    return _run_point(args, config, spec)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.preset is not None and args.config is not None:
        raise ParameterError("pass either --preset or --config, not both")
    if args.preset is not None or args.config is not None:
        given = [flag for dest, flag in _POINT_FLAGS.items()
                 if getattr(args, dest) is not None and getattr(args, dest) is not False]
        if given:
            source = "--preset" if args.preset is not None else "--config"
            raise ParameterError(
                f"sweep {source} supplies the whole spec; it takes no {', '.join(given)}"
            )
    if args.preset is not None:
        spec = preset(args.preset)
    elif args.config is not None:
        spec = SweepSpec.from_dict(_load_config(args.config))
    else:
        spec = _point_spec(args, {})
    _emit_result(run_sweep(spec), args.format or "csv", args.output)
    return 0


def cmd_validate_oracle(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    params = _params_from(args, config, default_protocol="coherent")
    fock_dim = int(_resolve(args, config, "fock_dim", 40))
    tol = float(_resolve(args, config, "tol", 1e-8))
    jk_sum_max = int(_resolve(args, config, "jk_sum_max", 10))

    cfg = OracleConfig(params=params, fock_dim=fock_dim)
    worst, where, ok = compare_with_closed_form(cfg, jk_sum_max=jk_sum_max, tol=tol)
    status = "PASS" if ok else "FAIL"
    sys.stdout.write(
        f"{status}: max |closed - oracle| = {worst:.3e} at (j, k) = {where} "
        f"over j + k <= {jk_sum_max}, tolerance {tol:.1e}\n"
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homdetect",
        description="Photon-count statistics and Bayesian emitter detection",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_dist = subparsers.add_parser("dist", help="tabulate a count distribution")
    _add_param_flags(p_dist)
    _add_output_flags(p_dist)
    p_dist.add_argument("--diff", action="store_true",
                        help="emit the difference from the emitter-absent table")
    p_dist.set_defaults(func=cmd_dist)

    p_sim = subparsers.add_parser("simulate", help="run a trajectory ensemble")
    _add_param_flags(p_sim)
    _add_output_flags(p_sim)
    p_sim.add_argument("--truth", choices=[t.value for t in Truth], default=None)
    p_sim.add_argument("--n-measurements", dest="n_measurements", type=int, default=None)
    p_sim.add_argument("--n-trajectories", dest="n_trajectories", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_nmeas = subparsers.add_parser("nmeas", help="trials needed for a target confidence")
    _add_param_flags(p_nmeas)
    _add_output_flags(p_nmeas)
    p_nmeas.add_argument("--c-target", dest="c_target", type=float, default=None)
    p_nmeas.set_defaults(func=cmd_nmeas)

    p_speed = subparsers.add_parser("speedup", help="trial-count ratio against direct detection")
    _add_param_flags(p_speed)
    _add_output_flags(p_speed)
    p_speed.add_argument("--c-target", dest="c_target", type=float, default=None)
    p_speed.add_argument("--optimize-nc", action="store_true",
                         help="optimize the reference brightness first")
    p_speed.set_defaults(func=cmd_speedup)

    p_sweep = subparsers.add_parser("sweep", help="evaluate a parameter grid")
    _add_param_flags(p_sweep)
    _add_output_flags(p_sweep)
    p_sweep.add_argument("--preset", choices=preset_names(), default=None)
    p_sweep.add_argument("--c-target", dest="c_target", type=float, default=None)
    p_sweep.add_argument("--optimize-nc", action="store_true",
                         help="optimize the reference brightness per point")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = subparsers.add_parser(
        "validate-oracle", help="cross-check the closed form against the number basis"
    )
    _add_param_flags(p_oracle)
    p_oracle.add_argument("--fock-dim", dest="fock_dim", type=int, default=None)
    p_oracle.add_argument("--tol", type=float, default=None)
    p_oracle.add_argument("--jk-sum-max", dest="jk_sum_max", type=int, default=None)
    p_oracle.set_defaults(func=cmd_validate_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
