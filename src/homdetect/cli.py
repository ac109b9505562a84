"""Command-line interface.

Subcommands:

    dist             tabulate a count distribution (or its xi-vs-0 difference)
    simulate         run a trajectory ensemble and summarize the posterior
    nmeas            trial count to reach a target confidence
    speedup          trial-count ratio of direct detection to a protocol
    sweep            evaluate a parameter grid (named preset or config file)
    validate-oracle  cross-check the closed form against the number basis

Every option of a subcommand, -o, --diff and --optimize-nc included, can
also come from a JSON config document passed with --config, keyed by its
destination name (n_c for --nc, c_target for --c-target).  The document
is read as flags placed before the command line's own and parsed with
them, once, by the subcommand's parser: key k with value v reads as
--flag=v, a switch takes true or false, null leaves the option unset,
and a list, an object or a key that names no option exits 2.  A value
of the wrong type or choice exits 2 with the flag's own message, and an
explicit flag wins, so a config run and the equivalent flag run emit
identical bytes.  The exception is sweep: a preset or a --config sweep
document is the whole spec, and parameter flags beside it are refused.
File outputs are written atomically.

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
)
from .sweep import (
    SweepResult,
    SweepSpec,
    _parse_saturation,
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
    "saturation": "--saturation", "c_target": "--c-target",
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
    sub.add_argument("--config", default=None, help="JSON document supplying any flag")


def _add_table_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--saturation", default=None, help="detector cutoff, integer or 'inf'")
    sub.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _load_config(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ParameterError("config document must be a JSON object")
    return doc


def _config_flags(parser: argparse.ArgumentParser, command: str, path: str) -> list[str]:
    """The --config document of a point command as flags of its subcommand
    parser, so each value meets the type and choice checks of its flag."""
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    options = {a.dest: a for a in commands[command]._actions if a.dest not in ("config", "help")}
    doc = _load_config(path)
    unknown = sorted(set(doc) - set(options))
    if unknown:
        raise ParameterError(f"{command} --config takes no key {', '.join(unknown)}")
    flags = []
    for key, value in doc.items():
        switch = options[key].nargs == 0
        if value is None or (switch and value is False):
            continue
        if isinstance(value, (list, dict)) or (switch and value is not True):
            raise ParameterError(f"config key {key!r} cannot be {json.dumps(value)}")
        # the long form, the last option string, keeps a value such as -0.5 whole
        flag = options[key].option_strings[-1]
        flags.append(flag if switch else f"{flag}={value}")
    return flags


def _given(args: argparse.Namespace, *keys: str) -> dict:
    """The options among keys that were set, so the library's own defaults
    apply to the rest."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _params_from(args: argparse.Namespace, default_protocol: str | None = None
                 ) -> ProtocolParams:
    given = _given(args, *_PARAM_KEYS)
    given.setdefault("protocol", default_protocol)
    if given["protocol"] is None:
        raise ParameterError("--protocol is required (or supply it via --config)")
    return ProtocolParams(**given)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(output, text)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def _emit_result(result: SweepResult, args: argparse.Namespace) -> None:
    csv = args.format == "csv"
    _emit(result.csv_text() if csv else _json_text(result.json_dict()), args.output)


def _point_spec(args: argparse.Namespace) -> SweepSpec:
    """The one-point sweep that nmeas, speedup and the flag form of sweep
    evaluate, carrying every flag that changes its numbers."""
    params = _params_from(args)
    return SweepSpec(
        protocols=(params.protocol.value,),
        xi=params.xi,
        epsilon=params.epsilon,
        cos_theta=params.cos_theta,
        eta=(params.eta,),
        n_e=(params.n_e,),
        n_i=(params.n_i,),
        n_c="optimize" if getattr(args, "optimize_nc", False) else (params.n_c,),
        saturations=(_parse_saturation(args.saturation),),
        **_given(args, "c_target"),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_dist(args: argparse.Namespace) -> int:
    params = _params_from(args)
    t = _parse_saturation(args.saturation)
    if args.diff:
        pair = HypothesisPair.from_params(params, saturation=t)
        table = pair.present.probs - pair.absent.probs
        if args.format == "csv":
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
        dist = build_distribution(params)
        if t is not None:
            dist = apply_saturation(dist, t)
        text = dist.csv_text() if args.format == "csv" else _json_text(dist.to_json_dict())
    _emit(text, args.output)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _params_from(args)
    t = _parse_saturation(args.saturation)
    if args.truth is None or args.n_measurements is None or args.seed is None:
        raise ParameterError("simulate requires --truth, --n-measurements and --seed")
    if args.output is None:
        raise ParameterError("simulate requires -o/--output for its two result files")

    pair = HypothesisPair.from_params(params, saturation=t)
    ensemble = simulate_ensemble(
        EnsembleConfig(
            pair=pair, **_given(args, "truth", "n_measurements", "n_trajectories", "seed")
        )
    )

    if args.format == "csv":
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


def _run_point(args: argparse.Namespace, spec: SweepSpec) -> int:
    (point,) = grid_points(spec)
    _emit_result(SweepResult(spec=spec, rows=(evaluate_point(spec, point),)), args)
    return 0


def cmd_nmeas(args: argparse.Namespace) -> int:
    return _run_point(args, _point_spec(args))


def cmd_speedup(args: argparse.Namespace) -> int:
    spec = _point_spec(args)
    if spec.protocols == (Protocol.DIRECT.value,):
        raise ParameterError("speedup compares a two-detector protocol against direct detection")
    return _run_point(args, spec)


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
        spec = _point_spec(args)
    _emit_result(run_sweep(spec), args)
    return 0


def cmd_validate_oracle(args: argparse.Namespace) -> int:
    params = _params_from(args, default_protocol="coherent")
    cfg = OracleConfig(params=params, **_given(args, "fock_dim"))
    worst, where, ok = compare_with_closed_form(cfg, jk_sum_max=args.jk_sum_max, tol=args.tol)
    status = "PASS" if ok else "FAIL"
    sys.stdout.write(
        f"{status}: max |closed - oracle| = {worst:.3e} at (j, k) = {where} "
        f"over j + k <= {args.jk_sum_max}, tolerance {args.tol:.1e}\n"
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
    _add_table_flags(p_dist)
    p_dist.add_argument("--diff", action="store_true",
                        help="emit the difference from the emitter-absent table")
    p_dist.set_defaults(func=cmd_dist)

    p_sim = subparsers.add_parser("simulate", help="run a trajectory ensemble")
    _add_param_flags(p_sim)
    _add_table_flags(p_sim)
    p_sim.add_argument("--truth", choices=[t.value for t in Truth], default=None)
    p_sim.add_argument("--n-measurements", dest="n_measurements", type=int, default=None)
    p_sim.add_argument("--n-trajectories", dest="n_trajectories", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_nmeas = subparsers.add_parser("nmeas", help="trials needed for a target confidence")
    _add_param_flags(p_nmeas)
    _add_table_flags(p_nmeas)
    p_nmeas.add_argument("--c-target", dest="c_target", type=float, default=None)
    p_nmeas.set_defaults(func=cmd_nmeas)

    p_speed = subparsers.add_parser("speedup", help="trial-count ratio against direct detection")
    _add_param_flags(p_speed)
    _add_table_flags(p_speed)
    p_speed.add_argument("--c-target", dest="c_target", type=float, default=None)
    p_speed.add_argument("--optimize-nc", action="store_true",
                         help="optimize the reference brightness first")
    p_speed.set_defaults(func=cmd_speedup)

    p_sweep = subparsers.add_parser("sweep", help="evaluate a parameter grid")
    _add_param_flags(p_sweep)
    _add_table_flags(p_sweep)
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
    p_oracle.add_argument("--tol", type=float, default=1e-8)
    p_oracle.add_argument("--jk-sum-max", dest="jk_sum_max", type=int, default=10)
    p_oracle.set_defaults(func=cmd_validate_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None and args.command != "sweep":
            # the document's flags go first, so a flag on the command line wins
            at = argv.index(args.command) + 1
            flags = _config_flags(parser, args.command, args.config)
            args = parser.parse_args(argv[:at] + flags + argv[at:])
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
