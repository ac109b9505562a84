"""Tests for the command-line interface."""

import hashlib
import json
import os
import re
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import homdetect
from homdetect.bayes import HypothesisPair
from homdetect import cli
from homdetect.cli import main
from homdetect.photon_stats import ParameterError, Protocol, ProtocolParams, build_distribution
from homdetect.sweep import SweepSpec

LOW_FLAGS = ["--protocol", "direct", "--xi", "0.1", "--eta", "0.8", "--ne", "0.02", "--ni", "0.02"]
HEADLINE_FLAGS = [
    "--protocol", "coherent", "--xi", "0.1", "--eta", "0.9", "--epsilon", "0.9",
    "--nc", "6", "--ne", "1", "--ni", "1",
]


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------


def test_dist_csv_stdout(capsys):
    code, out, _ = run(["dist"] + LOW_FLAGS, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "j,p"
    k, p = lines[1].split(",")
    params = ProtocolParams(protocol=Protocol.DIRECT, xi=0.1, eta=0.8, n_e=0.02, n_i=0.02)
    assert (int(k), float(p)) == (0, build_distribution(params).prob(0))


def test_dist_joint_header(capsys):
    code, out, _ = run(["dist"] + HEADLINE_FLAGS, capsys)
    assert code == 0
    assert out.startswith("j,k,p\n0,0,")


def test_dist_json(capsys):
    code, out, _ = run(["dist", "--format", "json"] + LOW_FLAGS, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["protocol"] == "direct"
    assert doc["saturation"] is None
    assert doc["entries"][0][0] == 0


def test_dist_saturation_flag(capsys):
    code, out, _ = run(["dist", "--saturation", "2"] + LOW_FLAGS, capsys)
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 3  # bins 0, 1, 2


def test_dist_diff_table(capsys):
    code, out, _ = run(["dist", "--diff"] + HEADLINE_FLAGS, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "j,k,dp"
    params = ProtocolParams(
        protocol=Protocol.COHERENT_HOM, xi=0.1, eta=0.9, epsilon=0.9, n_c=6.0, n_e=1.0, n_i=1.0
    )
    pair = HypothesisPair.from_params(params)
    j, k, dp = lines[1].split(",")
    expected = pair.present.prob(0, 0) - pair.absent.prob(0, 0)
    assert float(dp) == pytest.approx(expected, rel=1e-15)
    # differences must sum to ~zero: both tables are normalized
    total = sum(float(line.split(",")[2]) for line in lines[1:])
    assert abs(total) < 1e-9


def test_dist_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(["dist", "-o", str(target)] + LOW_FLAGS, capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("j,p\n")


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
@pytest.mark.parametrize("umask, mode", [(0o022, None), (0o077, None), (0o002, None),
                                         (0o022, 0o600)],
                         ids=["022", "077", "002", "022-rewrite-600"])
def test_written_file_takes_the_mode_open_gives(umask, mode, tmp_path, capsys):
    # the rename of an atomic write keeps its temp file's mode, which must
    # be the one a plain open(path, "w") gives: a new file 0o666 less the
    # umask, not mkstemp's 0o600, and a rewritten file the mode it had
    names = ["plain.txt", "table.csv"]
    if mode is not None:
        for name in names:
            (tmp_path / name).write_text("old\n")
            os.chmod(tmp_path / name, mode)
    old = os.umask(umask)
    try:
        code, _, _ = run(["dist", "-o", str(tmp_path / "table.csv")] + LOW_FLAGS, capsys)
        open(tmp_path / "plain.txt", "w").close()
    finally:
        os.umask(old)
    assert code == 0
    assert sorted(os.listdir(tmp_path)) == names
    modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in names}
    assert modes == {0o666 & ~umask if mode is None else mode}


def test_dist_rejects_bad_parameter(capsys):
    code, _, err = run(["dist", "--protocol", "direct", "--xi", "2"], capsys)
    assert code == 2
    assert "xi" in err


@pytest.mark.parametrize("command", ["dist", "nmeas"])
def test_table_whose_mass_exceeds_one_exits_two(command, capsys):
    # n_bar**2 = 4e-320 is subnormal, and the bracket's lost precision
    # leaves the table summing to 1 + 5.6e-6: both commands refuse it
    code, out, err = run([command, "--protocol", "coherent", "--xi", "0.5", "--eta", "1",
                          "--epsilon", "1", "--nc", "0", "--ne", "0", "--ni", "1e-160"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: table mass 1.00000556647")


@pytest.mark.parametrize("argv", [
    ["dist", "--protocol", "incoherent", "--ni", "1e308"],
    ["nmeas", "--protocol", "incoherent", "--ni", "1e308"],
    ["sweep", "--protocol", "incoherent", "--ni", "1e308"],
    ["validate-oracle", "--protocol", "coherent", "--ne", "1e300"],
    ["dist", "--protocol", "coherent", "--ne", "1e300"],
    ["simulate", "--protocol", "incoherent", "--ne", "1e300"],
    ["simulate", "--protocol", "incoherent", "--ne", "1.35e154"],
], ids=["dist-ni", "nmeas-ni", "sweep-ni", "validate-oracle-ne", "dist-ne", "simulate-ne",
        "simulate-ne-budget"])
def test_huge_finite_means_exit_two(argv, tmp_path, capsys):
    # 2 n_i overflows n_bar to inf, n_bar = 1e300 overflows n_bar**2 in the
    # bracket and asks for a table of 5e299 counts: each is refused in one
    # short line, where an OverflowError traceback exited 1; simulate
    # sizes its table for the memory estimate before it builds, and the
    # cap refuses it there, before any figure of bytes is worked out
    output = tmp_path / "s.csv"
    if argv[0] == "simulate":
        argv = argv + ["--truth", "present", "--n-measurements", "5",
                       "--n-trajectories", "10", "--seed", "1", "-o", str(output)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 120, err
    assert not output.exists()


def test_dist_requires_protocol(capsys):
    code, _, err = run(["dist", "--xi", "0.1"], capsys)
    assert code == 2
    assert "protocol" in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


SIM_FLAGS = ["--truth", "present", "--n-measurements", "10",
             "--n-trajectories", "300", "--seed", "4"]


def test_simulate_writes_trajectories_and_summary(tmp_path, capsys):
    out_path = tmp_path / "run.csv"
    code, _, _ = run(["simulate", "-o", str(out_path)] + LOW_FLAGS + SIM_FLAGS, capsys)
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "step,mean_Pe,q25,q75"
    assert len(lines) == 11
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert summary["N"] == 10
    assert summary["seed"] == 4
    assert summary["truth"] == "present"
    assert summary["n_trajectories"] == 300
    assert 0.0 <= summary["empirical_confidence"] <= 1.0


def test_simulate_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["simulate", "-o", str(a)] + LOW_FLAGS + SIM_FLAGS, capsys)
    run(["simulate", "-o", str(b)] + LOW_FLAGS + SIM_FLAGS, capsys)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.summary.json").read_bytes() == (tmp_path / "b.summary.json").read_bytes()


GOLDEN = os.path.join(os.path.dirname(__file__), "ensemble_golden")
GOLDEN_RUNS = {
    "headline-present": HEADLINE_FLAGS + ["--truth", "present", "--seed", "21"],
    "low-noise-absent": LOW_FLAGS + ["--truth", "absent", "--seed", "22"],
    "headline-absent-t2": HEADLINE_FLAGS + ["--saturation", "2", "--truth", "absent",
                                            "--seed", "23"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_simulate_writes_the_golden_bytes(name, tmp_path, capsys):
    # 100k x 50 ensembles, the first two written by numpy's per-trajectory
    # Philox generators, the saturated one by the binary-search draw and
    # full column sort of the whole N x M array, which the guide table and
    # the blocks of four steps replaced
    out_path = tmp_path / f"{name}.csv"
    code, _, err = run(["simulate", "--n-measurements", "50", "--n-trajectories", "100000",
                        "-o", str(out_path)] + GOLDEN_RUNS[name], capsys)
    assert code == 0, err
    for suffix in (".csv", ".summary.json"):
        with open(os.path.join(GOLDEN, name + suffix), "rb") as golden:
            assert (tmp_path / (name + suffix)).read_bytes() == golden.read(), suffix


def test_simulate_json_steps(tmp_path, capsys):
    out_path = tmp_path / "run.json"
    code, _, _ = run(
        ["simulate", "--format", "json", "-o", str(out_path)] + LOW_FLAGS + SIM_FLAGS, capsys
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["step"] == list(range(1, 11))
    assert len(doc["mean_Pe"]) == 10


def test_simulate_requires_inputs(tmp_path, capsys):
    code, _, err = run(["simulate"] + LOW_FLAGS + ["--seed", "1", "-o", str(tmp_path / "x.csv")], capsys)
    assert code == 2 and "requires" in err
    code, _, err = run(["simulate"] + LOW_FLAGS + SIM_FLAGS, capsys)
    assert code == 2 and "output" in err


# ---------------------------------------------------------------------------
# nmeas and speedup
# ---------------------------------------------------------------------------


def test_nmeas_row(capsys):
    code, out, _ = run(["nmeas"] + LOW_FLAGS, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "protocol,eta,n_e,n_i,n_c,t,N,speedup,at_bound"
    cells = lines[1].split(",")
    assert cells[0] == "direct"
    assert cells[6] == "117"
    assert float(cells[7]) == 1.0


def test_nmeas_custom_target(capsys):
    _, out_default, _ = run(["nmeas"] + LOW_FLAGS, capsys)
    _, out_strict, _ = run(["nmeas", "--c-target", "0.99"] + LOW_FLAGS, capsys)
    n_default = int(out_default.strip().split("\n")[1].split(",")[6])
    n_strict = int(out_strict.strip().split("\n")[1].split(",")[6])
    assert n_strict > n_default


def test_speedup_row(capsys):
    code, out, _ = run(["speedup"] + HEADLINE_FLAGS, capsys)
    assert code == 0
    cells = out.strip().split("\n")[1].split(",")
    assert cells[6] == "57"
    assert float(cells[7]) == pytest.approx(47.649122807017541, rel=1e-12)


def test_speedup_rejects_direct(capsys):
    code, _, err = run(["speedup"] + LOW_FLAGS, capsys)
    assert code == 2
    assert "direct" in err


def test_speedup_with_optimization(capsys):
    code, out, _ = run(
        ["speedup", "--optimize-nc", "--protocol", "incoherent", "--xi", "0.1",
         "--eta", "0.95", "--epsilon", "0.9", "--ne", "0.02", "--ni", "0.02"],
        capsys,
    )
    assert code == 0
    cells = out.strip().split("\n")[1].split(",")
    assert float(cells[4]) == 0.0  # optimal brightness is the dark reference
    assert cells[6] == "119"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_flags_single_point(capsys):
    code, out, _ = run(["sweep"] + HEADLINE_FLAGS, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].split(",")[6] == "57"


def test_sweep_config_document(tmp_path, capsys):
    doc = {
        "protocols": ["direct", "coherent"],
        "xi": 0.1,
        "epsilon": 0.9,
        "eta": [0.9],
        "n_e": [1.0],
        "n_c": [6.0],
        "saturations": ["inf", 2],
    }
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps(doc))
    code, out, _ = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 4  # direct x 2 saturations + coherent x 2
    assert lines[1].split(",")[5] == "inf"
    assert lines[2].split(",")[5] == "2"


def test_removed_tail_tol_option_exits_two(tmp_path, capsys):
    # the tail check works out its own allowance; the option that set it is
    # refused in every form rather than dropped
    sweep_doc = {"protocols": ["direct"], "tail_tol": 1e-10}
    for argv in (["nmeas", "--tail-tol", "1e-10"] + HEADLINE_FLAGS,
                 ["nmeas", "--config", config_file(tmp_path, {"tail_tol": 1e-10})] + HEADLINE_FLAGS,
                 ["sweep", "--config", config_file(tmp_path, sweep_doc)]):
        code = exit_code(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == "", argv
        assert "tail_tol" in err or "--tail-tol" in err, err


@pytest.mark.parametrize("command", [
    ["nmeas"] + LOW_FLAGS,
    ["nmeas", "--saturation", "2"] + HEADLINE_FLAGS,
    ["speedup"] + HEADLINE_FLAGS,
    ["speedup", "--optimize-nc", "--protocol", "incoherent", "--xi", "0.1", "--eta", "0.95",
     "--epsilon", "0.9", "--ne", "0.02", "--ni", "0.02"],
])
def test_point_json_spec_reproduces_rows(command, tmp_path, capsys):
    # the spec a point query reports must be the sweep that gives its rows
    code, out, _ = run(command + ["--c-target", "0.99", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps(doc["spec"]))
    code, out, _ = run(["sweep", "--config", str(cfg), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["rows"] == doc["rows"]


def test_point_queries_exit_two_on_bad_points(capsys):
    for command in ("nmeas", "speedup"):
        code, out, err = run([command, "--protocol", "coherent", "--xi", "0", "--nc", "2"],
                             capsys)
        assert code == 2
        assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("protocol", ["direct", "coherent", "incoherent"])
@pytest.mark.parametrize("background", ["1", "0"])
def test_point_commands_are_one_point_sweeps(protocol, background, capsys):
    # nmeas and speedup print the row of the flag form of sweep, in both
    # formats, or exit 2 with its message when the row lacks the command's
    # answer (N for nmeas, the speedup for speedup); with no background,
    # every row's direct baseline has a zero spread and fails, so a direct
    # row has no N and a two-detector row keeps its N but has no speedup
    commands = [["nmeas"]]
    if protocol != "direct":
        commands += [["speedup"], ["speedup", "--optimize-nc"]]
    errors, exits = 0, set()
    for t in ("inf", "4", "2", "1"):
        flags = ["--protocol", protocol, "--eta", "0.9", "--ne", background,
                 "--ni", background, "--saturation", t]
        for command in commands:
            sweep = ["sweep"] + command[1:] + flags
            for fmt in ("json", "csv"):
                code, swept, _ = run(sweep + ["--format", fmt], capsys)
                assert code == 0
                if fmt == "json":
                    (row,) = json.loads(swept)["rows"]
                got = run(command + flags + ["--format", fmt], capsys)
                if row["N" if command == ["nmeas"] else "speedup"] is not None:
                    assert got == (0, swept, ""), (command, t, fmt)
                else:
                    errors += 1
                    assert got == (2, "", f"error: {row['error']}\n"), (command, t, fmt)
                exits.add((command[0], got[0]))
    assert bool(errors) == (background == "0")
    if background == "0":
        two_detector = {("nmeas", 0), ("speedup", 2)}
        assert exits == ({("nmeas", 2)} if protocol == "direct" else two_detector)


def test_sweep_preset_and_config_conflict(tmp_path, capsys):
    cfg = tmp_path / "spec.json"
    cfg.write_text("{}")
    code, _, err = run(["sweep", "--preset", "fig2a", "--config", str(cfg)], capsys)
    assert code == 2
    assert "not both" in err


@pytest.mark.parametrize("source", ["preset", "config"])
def test_sweep_spec_sources_reject_point_flags(source, tmp_path, capsys):
    # a preset or config document is the whole spec; point flags beside it
    # used to be dropped without a word
    cfg = tmp_path / "spec.json"
    cfg.write_text('{"protocols": ["direct"]}')
    spec = ["--preset", "fig2b"] if source == "preset" else ["--config", str(cfg)]
    code, out, err = run(["sweep"] + spec + ["--saturation", "2", "--eta", "0.5", "--xi", "0",
                                             "--c-target", "0.9", "--optimize-nc"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: sweep --{source}")
    for flag in ("--saturation", "--eta", "--xi", "--c-target", "--optimize-nc"):
        assert flag in err
    target = tmp_path / "rows.json"
    code, _, _ = run(["sweep"] + spec + ["-o", str(target), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(target.read_text())["rows"]


def test_sweep_config_with_unknown_key_exits_cleanly(tmp_path, capsys):
    cfg = tmp_path / "spec.json"
    cfg.write_text('{"protocols": ["direct"], "noise": [1.0]}')
    code, _, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert "noise" in err


def test_sweep_config_with_short_nc_bounds_exits_two(tmp_path, capsys):
    # it used to exit 0 with an unpacking error on every row
    cfg = tmp_path / "spec.json"
    cfg.write_text('{"protocols": ["coherent"], "n_c": "optimize", "nc_bounds": [1]}')
    code, out, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nc_bounds" in err


def test_sweep_config_with_a_repeated_saturation_exits_two(tmp_path, capsys):
    # the shipped spec with t = 2 listed twice used to exit 0 and write
    # every t = 2 row twice
    doc = json.loads((Path(__file__).resolve().parents[1] / "demos" / "sweep-spec.json").read_text())
    target = tmp_path / "rows.csv"
    cfg = config_file(tmp_path, dict(doc, saturations=[None, 2, 2]))
    code, out, err = run(["sweep", "--config", cfg, "-o", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: sweep spec saturations must not repeat a value, got ['inf', 2, 2]\n"
    assert not target.exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--config", {"protocols": ["direct"], "saturations": [20000, 0]}],
     "saturation threshold 20000 exceeds the cap of 10000 counts per detector"),
    (["sweep", "--protocol", "direct", "--saturation", "0"],
     "saturation threshold must be an integer >= 1, got 0"),
    (["nmeas", "--saturation", "-2"] + HEADLINE_FLAGS,
     "saturation threshold must be an integer >= 1, got -2"),
    (["sweep", "--config", {"protocols": ["direct", "coherent"], "saturations": [6000]}],
     "scoring saturation threshold 6000 on 2 detectors needs about 1374 MiB, "
     "above the 1024 MiB budget"),
], ids=["sweep-config", "sweep-flag", "nmeas-flag", "sweep-over-budget"])
def test_out_of_range_saturation_exits_two_before_any_row(argv, message, tmp_path, capsys):
    # the spec refuses the cutoff, so no row runs and none is printed
    argv = [config_file(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


BRIGHT_FLAGS = ["--protocol", "coherent", "--xi", "0.1", "--eta", "0.99", "--epsilon", "0.9",
                "--nc", "1e4", "--ne", "10", "--ni", "10"]


@pytest.mark.parametrize("argv", [
    ["dist"],
    ["dist", "--diff"],
    ["simulate", "--truth", "present", "--n-measurements", "5", "--seed", "1"],
], ids=["dist", "dist-diff", "simulate"])
def test_over_budget_saturation_exits_two_before_any_table(argv, monkeypatch, tmp_path, capsys):
    # each bright table is 5812^2 cells; t = 6000 is checked on the
    # protocol's two detectors before either build runs
    def no_build(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(HypothesisPair, "from_params", classmethod(no_build))
    monkeypatch.setattr(cli, "build_distribution", no_build)
    out_path = tmp_path / "run.csv"
    code, out, err = run(argv + BRIGHT_FLAGS + ["--saturation", "6000", "-o", str(out_path)],
                         capsys)
    assert (code, out) == (2, "")
    assert err == ("error: scoring saturation threshold 6000 on 2 detectors needs about "
                   "1374 MiB, above the 1024 MiB budget\n")
    assert not out_path.exists()


BRIGHT_TABLE = "(1031 MiB of it for a truth table of 33779344 cells)"


@pytest.mark.parametrize("runs, message", [
    (["--n-measurements", "0"], "n_measurements must be >= 1, got 0"),
    (["--n-measurements", "50", "--n-trajectories", "100000000"],
     "an ensemble of 100000000 trajectories x 50 measurements needs about 6374 MiB, above the "
     f"1024 MiB budget {BRIGHT_TABLE}; use fewer trajectories or measurements"),
    (["--n-measurements", "5", "--n-trajectories", "1000"],
     "an ensemble of 1000 trajectories x 5 measurements needs about 1032 MiB, above the "
     f"1024 MiB budget {BRIGHT_TABLE}; saturate the detectors (--saturation) for a smaller table"),
], ids=["no-measurements", "over-budget-runs", "over-budget-table"])
def test_simulate_refuses_before_any_table(runs, message, monkeypatch, tmp_path, capsys):
    # the run's settings and its memory estimate are checked from the
    # table's size alone, before the bright pair's 5812^2-cell tables
    def no_build(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(HypothesisPair, "from_params", classmethod(no_build))
    out_path = tmp_path / "run.csv"
    code, out, err = run(["simulate", "--truth", "present", "--seed", "1", "-o", str(out_path)]
                         + BRIGHT_FLAGS + runs, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_path.exists()


def test_sweep_preset_runs(tmp_path, capsys):
    target = tmp_path / "fig2b.csv"
    code, _, _ = run(["sweep", "--preset", "fig2b", "-o", str(target)], capsys)
    assert code == 0
    lines = target.read_text().strip().split("\n")
    # direct: 1 noise x 4 saturations; each interference protocol: 13 x 4
    assert len(lines) == 1 + 4 + 2 * 52


@pytest.mark.parametrize("preset", ["fig2a", "fig2b"])
def test_preset_integer_columns_match_the_baseline(preset, capsys):
    # protocol, t, N, speedup and at_bound; N near 4e10 in the t = 1,
    # n_e = 10 rows is ill-conditioned, so those rows guard the table bits
    code, out, _ = run(["sweep", "--preset", preset], capsys)
    assert code == 0
    cut = [",".join(row[:1] + row[5:9]) for row in (line.split(",") for line in out.splitlines())]
    with open(os.path.join(os.path.dirname(__file__), "preset_columns", f"{preset}.csv")) as fh:
        assert cut == fh.read().splitlines()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("preset", ["fig2a", "fig2b"])
def test_preset_bytes_match_the_pinned_sha256(preset, fmt, capsys):
    # every byte, n_c and the float columns too; CI checks all six presets
    # and these two JSON documents against the same file
    code, out, _ = run(["sweep", "--preset", preset, "--format", fmt], capsys)
    assert code == 0
    with open(os.path.join(os.path.dirname(__file__), "preset_sha256.txt")) as fh:
        pinned = dict(reversed(line.split()) for line in fh)
    assert hashlib.sha256(out.encode()).hexdigest() == pinned[f"{preset}.{fmt}"]


def test_sweep_unknown_preset_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--preset", "fig9z"])
    assert err.value.code == 2
    capsys.readouterr()


def test_sweep_json_format(capsys):
    code, out, _ = run(["sweep", "--format", "json"] + HEADLINE_FLAGS, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["N"] == 57


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_every_json_output_is_strict_json(tmp_path, capsys):
    # an optimized row that fails has no brightness: null, not NaN, and a
    # row whose direct baseline alone fails has no speedup: null
    failing = config_file(tmp_path, {"protocols": ["direct", "coherent"], "eta": [0.0, 0.9],
                                     "n_e": [0.0], "n_c": "optimize"})
    for argv in (["dist"] + HEADLINE_FLAGS, ["dist", "--diff"] + HEADLINE_FLAGS,
                 ["nmeas"] + LOW_FLAGS, ["speedup"] + HEADLINE_FLAGS,
                 ["sweep", "--config", failing]):
        code, out, err = run(argv + ["--format", "json"], capsys)
        assert code == 0, err
        doc = _strict_json(out)
    *failed, kept = doc["rows"]
    assert [(r["n_c"], r["N"], r["speedup"]) for r in failed] == [(0.0, None, None)] * 2 + [
        (None, None, None)]
    assert kept["n_c"] > 0.0 and kept["N"] >= 1 and kept["speedup"] is None
    assert all(r["error"] is not None for r in doc["rows"])
    code, _, err = run(["simulate", "--format", "json", "-o", str(tmp_path / "run.json")]
                       + LOW_FLAGS + SIM_FLAGS, capsys)
    assert code == 0, err
    for name in ("run.json", "run.summary.json"):
        _strict_json((tmp_path / name).read_text())


# ---------------------------------------------------------------------------
# validate-oracle
# ---------------------------------------------------------------------------


def test_validate_oracle_passes(capsys):
    code, out, _ = run(
        ["validate-oracle", "--nc", "1", "--xi", "0.1", "--eta", "0.8",
         "--epsilon", "0.9", "--ne", "0.02", "--ni", "0.02"],
        capsys,
    )
    assert code == 0
    assert out.startswith("PASS")
    assert "tolerance" in out


def test_validate_oracle_fails_at_zero_tolerance(capsys):
    code, out, _ = run(["validate-oracle", "--nc", "1", "--tol", "0"], capsys)
    assert code == 1
    assert out.startswith("FAIL")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_validate_oracle_refuses_a_tolerance_not_finite_and_at_least_zero(tol, capsys):
    # nan and -1 used to print FAIL and exit 1, and inf passed any deviation
    code, out, err = run(["validate-oracle", "--nc", "1", "--tol", tol], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: tolerance must be finite and >= 0")


def test_validate_oracle_rejects_bright_reference(capsys):
    code, _, err = run(["validate-oracle", "--nc", "9"], capsys)
    assert code == 2
    assert "n_c" in err


def test_validate_oracle_residual_refusal_names_the_flag_that_mends_it(capsys):
    # the lost pair's box is the basis, which --fock-dim sets
    code, out, err = run(
        ["validate-oracle", "--fock-dim", "2", "--nc", "1e-6", "--eta", "0", "--jk-sum-max", "1"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: lost-mode sum residual bound")
    assert "raise fock_dim" in err
    code, out, _ = run(
        ["validate-oracle", "--fock-dim", "12", "--nc", "1e-6", "--eta", "0", "--jk-sum-max", "1"],
        capsys,
    )
    assert (code, out[:4]) == (0, "PASS")


# ---------------------------------------------------------------------------
# config and flag equivalence
# ---------------------------------------------------------------------------


HEADLINE = {"protocol": "coherent", "xi": 0.1, "eta": 0.9, "epsilon": 0.9,
            "n_c": 6.0, "n_e": 1.0, "n_i": 1.0}
LOW = {"protocol": "direct", "xi": 0.1, "eta": 0.8, "n_e": 0.02, "n_i": 0.02}
OPTIMIZED = {"protocol": "incoherent", "xi": 0.1, "eta": 0.95, "epsilon": 0.9,
             "n_e": 0.02, "n_i": 0.02, "optimize_nc": True}

# every command form, as options; "output" names a file in the run's own directory
CONFIG_FORMS = [
    ("dist", {**HEADLINE, "saturation": 2, "format": "json"}),
    ("dist", {**HEADLINE, "diff": True}),
    ("simulate", {**LOW, "truth": "present", "n_measurements": 10, "n_trajectories": 300,
                  "seed": 4, "output": "run.csv"}),
    ("nmeas", {**HEADLINE, "c_target": 0.99, "saturation": "inf"}),
    ("speedup", {**OPTIMIZED, "format": "json"}),
    ("validate-oracle", {"n_c": 1.0, "xi": 0.1, "eta": 0.8, "jk_sum_max": 6}),
]


def as_flags(options):
    flags = []
    for key, value in options.items():
        flag = {"n_c": "--nc", "n_e": "--ne", "n_i": "--ni"}.get(key, "--" + key.replace("_", "-"))
        flags += [flag] if value is True else [flag, str(value)]
    return flags


def config_file(tmp_path, doc):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses the command line
        return exc.code


def test_config_equals_flags(tmp_path, capsys):
    for i, (command, options) in enumerate(CONFIG_FORMS):
        results = []
        for side in ("flags", "config"):
            side_dir = tmp_path / f"{i}-{side}"
            side_dir.mkdir()
            opts = {k: str(side_dir / v) if k == "output" else v for k, v in options.items()}
            if side == "flags":
                argv = [command] + as_flags(opts)
            else:
                argv = [command, "--config", config_file(tmp_path, opts)]
            code, out, err = run(argv, capsys)
            files = {p.name: p.read_bytes() for p in side_dir.iterdir()}
            results.append((code, out, err, files))
        assert results[0][0] == 0, (command, results[0][2])
        assert results[0] == results[1], command


SIM_RUN = ["simulate", "-o", "run.csv"] + LOW_FLAGS + ["--truth", "present",
                                                      "--n-trajectories", "300"]


@pytest.mark.parametrize("command, doc, flags, code", [
    (["nmeas"] + HEADLINE_FLAGS, {"format": "xml"}, ["--format", "xml"], 2),
    (SIM_RUN + ["--seed", "4"], {"n_measurements": 2.5}, ["--n-measurements", "2.5"], 2),
    (SIM_RUN + ["--n-measurements", "10"], {"seed": 2.5}, ["--seed", "2.5"], 2),
    (["nmeas"] + HEADLINE_FLAGS, {"xi": True}, ["--xi", "True"], 2),
    (["validate-oracle", "--nc", "1"], {"fock_dim": 2.5}, ["--fock-dim", "2.5"], 2),
    (["nmeas"] + HEADLINE_FLAGS, {"cos_theta": -0.5}, ["--cos-theta", "-0.5"], 0),
    (["nmeas"] + HEADLINE_FLAGS, {"c_target": "0.99"}, ["--c-target", "0.99"], 0),
], ids=["format-choice", "n-measurements-int", "seed-int", "xi-true", "fock-dim-int",
        "negative-value", "number-string"])
def test_config_value_runs_as_its_flag(command, doc, flags, code, tmp_path, monkeypatch,
                                       capsys):
    # each refused value used to run another experiment than asked: xml
    # printed JSON, 2.5 ran as 2 and true as xi = 1
    results = []
    for side in ("flags", "config"):
        side_dir = tmp_path / side
        side_dir.mkdir()
        monkeypatch.chdir(side_dir)
        extra = flags if side == "flags" else ["--config", config_file(tmp_path, doc)]
        side_code = exit_code(command + extra)
        out, err = capsys.readouterr()
        results.append((side_code, out, err, {p.name: p.read_bytes() for p in side_dir.iterdir()}))
    assert results[0] == results[1]
    assert results[0][0] == code, results[0][2]


def test_explicit_flags_override_config(tmp_path, capsys):
    cfg = config_file(tmp_path, {"protocol": "direct", "xi": 0.1, "eta": 0.8,
                                 "n_e": 1.0, "n_i": 1.0})
    _, base, _ = run(["nmeas", "--config", cfg], capsys)
    _, overridden, _ = run(["nmeas", "--config", cfg, "--ne", "0.02", "--ni", "0.02"], capsys)
    assert int(base.strip().split("\n")[1].split(",")[6]) == 3254
    assert int(overridden.strip().split("\n")[1].split(",")[6]) == 117
    # a falsy value on the command line still wins over the document
    _, zero, _ = run(["nmeas", "--config", cfg, "--ne", "0"], capsys)
    _, by_flags, _ = run(["nmeas", "--protocol", "direct", "--xi", "0.1", "--eta", "0.8",
                          "--ne", "0", "--ni", "1"], capsys)
    assert zero == by_flags != base


@pytest.mark.parametrize("command, doc, same_as, refused", [
    # a misspelled key, and a key of another subcommand
    (["nmeas"] + HEADLINE_FLAGS, {"saturaton": 2}, None, ["saturaton"]),
    (["nmeas"] + HEADLINE_FLAGS, {"fock_dim": 20}, None, ["fock_dim"]),
    (["validate-oracle", "--nc", "1"], {"output": "out.txt"}, None, ["output"]),
    # flags validate-oracle never read
    (["validate-oracle", "--nc", "1", "--saturation", "2", "--format", "json"], None, None,
     ["--saturation", "--format"]),
    # options the subcommand has take effect from the document
    (["speedup"] + as_flags({k: v for k, v in OPTIMIZED.items() if k != "optimize_nc"}),
     {"optimize_nc": True}, ["--optimize-nc"], None),
    (["dist"] + HEADLINE_FLAGS, {"diff": True}, ["--diff"], None),
    (["nmeas"] + HEADLINE_FLAGS, {"output": "out.csv"}, ["-o", "out.csv"], None),
    # --optimize-nc chooses n_c, so a given --nc would go unused
    (["speedup", "--optimize-nc", "--nc", "5"] + as_flags(
        {k: v for k, v in OPTIMIZED.items() if k != "optimize_nc"}), None, None, ["--nc"]),
    (["sweep", "--optimize-nc", "--nc", "5"] + as_flags(
        {k: v for k, v in OPTIMIZED.items() if k != "optimize_nc"}), None, None, ["--nc"]),
    (["speedup"], {**OPTIMIZED, "n_c": 5.0}, None, ["--nc"]),
], ids=["misspelled-key", "other-command-key", "oracle-output", "oracle-table-flags",
        "optimize-nc", "diff", "output", "optimize-nc-beside-nc", "sweep-optimize-nc-beside-nc",
        "optimize-nc-beside-nc-config"])
def test_config_keys_and_flags_are_read_or_refused(command, doc, same_as, refused,
                                                   tmp_path, monkeypatch, capsys):
    # each of these used to exit 0 with the key or flag silently dropped
    monkeypatch.chdir(tmp_path)
    argv = command if doc is None else command + ["--config", config_file(tmp_path, doc)]
    code = exit_code(argv)
    out, err = capsys.readouterr()
    if refused is not None:
        assert code == 2 and out == ""
        assert all(name in err for name in refused)
        return
    written = (tmp_path / "out.csv").read_bytes() if "output" in doc else None
    assert run(command + same_as, capsys)[:2] == (code, out)
    assert written is None or written == (tmp_path / "out.csv").read_bytes()
    assert code == 0 and (out != "") == (written is None)


@pytest.mark.parametrize("command, doc", [
    (["sweep"], {"protocols": ["direct"], "eta": 0.9}),
    (["sweep"], {"protocols": ["direct"], "saturations": "inf"}),
    (["sweep"], {"protocols": ["direct"], "xi": [0.1]}),
    (["nmeas"] + HEADLINE_FLAGS, {"eta": [0.9]}),
    (["dist"] + HEADLINE_FLAGS, {"diff": "yes"}),
], ids=["sweep-scalar-list-field", "sweep-string-list-field", "sweep-list-scalar-field",
        "list-value", "non-bool-switch"])
def test_config_values_of_the_wrong_type_exit_two(command, doc, tmp_path, capsys):
    code, out, err = run(command + ["--config", config_file(tmp_path, doc)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and list(doc)[-1] in err


@pytest.mark.parametrize("value", ["2.7", "true", '"Inf"'])
def test_saturation_is_refused_not_truncated(value, tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(f'{{"saturation": {value}}}')
    code, out, err = run(["nmeas", "--config", str(cfg)] + HEADLINE_FLAGS, capsys)
    assert code == 2 and out == ""
    assert "saturation must be an integer >= 1 or 'inf'" in err


def test_every_sweep_point_flag_is_refused_beside_a_spec(capsys):
    # a flag dropped beside --preset would leave its value silently unused
    point = [a for dest, a in cli._OPTIONS["sweep"].items() if dest not in ("preset", "output", "format")]
    assert {"--protocol", "--nc", "--saturation", "--optimize-nc"} <= {
        a.option_strings[-1] for a in point}
    for action in point:
        flag = action.option_strings[-1]
        value = [] if action.nargs == 0 else [action.choices[-1] if action.choices else "1"]
        code, out, err = run(["sweep", "--preset", "fig2a", flag] + value, capsys)
        assert code == 2 and out == ""
        assert err == f"error: sweep --preset supplies the whole spec; it takes no {flag}\n"


@pytest.mark.parametrize("field", ["protocols", "eta", "n_e", "n_i", "n_c", "saturations"])
def test_sweep_config_with_an_empty_axis_exits_two(field, tmp_path, capsys):
    # an empty axis used to print only the CSV header and exit 0
    doc = {"protocols": ["coherent"], field: []}
    code, out, err = run(["sweep", "--config", config_file(tmp_path, doc)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: sweep spec {field} must not be empty\n"


@pytest.mark.parametrize("key, value, flag, message", [
    ("xi", 2, "--xi", "xi must lie in [0, 1], got 2.0"),
    ("epsilon", -0.5, "--epsilon", "epsilon must lie in [0, 1], got -0.5"),
    ("cos_theta", 3, "--cos-theta", "cos_theta must lie in [-1, 1], got 3.0"),
    ("c_target", 0.2, "--c-target", "c_target must lie in (0.5, 1), got 0.2"),
    ("c_target", 1, "--c-target", "c_target must lie in (0.5, 1), got 1.0"),
    ("eta", [0.9, 1.5], "--eta", "eta must lie in [0, 1], got 1.5"),
    ("n_e", [1.0, -1.0], "--ne", "n_e must be finite and >= 0, got -1.0"),
    ("n_i", [-2.0], "--ni", "n_i must be finite and >= 0, got -2.0"),
    ("n_c", [6.0, -1.0], "--nc", "n_c must be finite and >= 0, got -1.0"),
])
def test_out_of_range_sweep_values_exit_two(key, value, flag, message, tmp_path, capsys):
    # these used to exit 0 with every affected row an error row
    with pytest.raises(ParameterError, match=re.escape(message)):
        SweepSpec(protocols=("coherent",), **{key: value})
    code, out, err = run(["sweep", "--config", config_file(tmp_path, {key: value})], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    bad = str(value[-1] if isinstance(value, list) else value)
    code, out, err = run(["sweep", "--protocol", "coherent", flag, bad], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_underflowed_background_exits_two_not_nan(capsys):
    code, out, err = run(["dist", "--protocol", "coherent", "--nc", "0", "--ne", "0",
                          "--ni", "1e-170", "--format", "json"], capsys)
    assert code == 2 and out == ""
    assert "n_bar" in err


def test_missing_config_file_exits_two(capsys):
    code, _, err = run(["nmeas", "--config", "/nonexistent/params.json"], capsys)
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_calls_reuse_the_parser_built_at_import(monkeypatch, tmp_path, capsys):
    def rebuild():
        raise AssertionError("the parser is built once, at import")

    def top_level(*args):
        raise AssertionError("a valid command call is parsed by its command's parser alone")

    monkeypatch.setattr(cli, "_build_parser", rebuild)
    monkeypatch.setattr(cli._PARSER, "parse_args", top_level)
    code, out, _ = run(["nmeas"] + HEADLINE_FLAGS, capsys)
    assert code == 0 and out.split("\n")[1].split(",")[6] == "57"
    doc = config_file(tmp_path, {"c_target": 0.99})
    assert run(["nmeas", "--config", doc] + HEADLINE_FLAGS, capsys)[:2] == run(
        ["nmeas", "--c-target", "0.99"] + HEADLINE_FLAGS, capsys)[:2]


# a cheap valid call of each command; simulate writes into the run's directory
VALID_CALLS = {
    "dist": LOW_FLAGS,
    "simulate": ["-o", "run.csv"] + LOW_FLAGS + SIM_FLAGS,
    "nmeas": HEADLINE_FLAGS,
    "speedup": HEADLINE_FLAGS,
    "sweep": HEADLINE_FLAGS,
    "validate-oracle": ["--nc", "1", "--jk-sum-max", "4"],
}
# each case from a command's valid call; a sweep document stands alone, as
# it is the whole spec
COMMAND_CASES = {
    "valid": lambda valid, beside: valid,
    "help": lambda valid, beside: ["-h"],
    "unknown-flag": lambda valid, beside: valid + ["--bogus"],
    "extra-word": lambda valid, beside: valid + ["extra"],
    "bad-protocol": lambda valid, beside: valid + ["--protocol", "bogus"],
    "missing-value": lambda valid, beside: valid + ["--xi"],
    "config-unknown-key": lambda valid, beside: beside + ["--config", {"bogus": 1}],
    "config-bad-choice": lambda valid, beside: beside + ["--config", {"protocol": "bogus"}],
    "config-known-key": lambda valid, beside: beside + ["--config", {"xi": 0.2}],
}
TOP_LEVEL_CASES = {
    "no-arguments": [],
    "unknown-command": ["bogus"] + HEADLINE_FLAGS,
    "help": ["--help"],
    "help-before-command": ["-h", "nmeas"],
    "flag-before-command": ["--bogus", "nmeas"] + HEADLINE_FLAGS,
    "double-dash-before-command": ["--", "nmeas"] + HEADLINE_FLAGS,
}


@pytest.mark.parametrize("argv", [
    *(pytest.param([command] + case(valid, [] if command == "sweep" else valid),
                   id=f"{command}-{name}")
      for command, valid in VALID_CALLS.items() for name, case in COMMAND_CASES.items()),
    *(pytest.param(argv, id=name) for name, argv in TOP_LEVEL_CASES.items()),
])
def test_command_dispatch_answers_as_the_top_level_parser(argv, monkeypatch, tmp_path, capsys):
    # a call naming a command is parsed by that command's parser alone;
    # with the command map emptied every call takes the top-level parser,
    # and each answer, files included, must be the same either way
    argv = [config_file(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    results = []
    for side, commands in (("dispatch", cli._COMMANDS), ("top-level", {})):
        monkeypatch.setattr(cli, "_COMMANDS", commands)
        side_dir = tmp_path / side
        side_dir.mkdir()
        monkeypatch.chdir(side_dir)
        code = exit_code(argv)
        out, err = capsys.readouterr()
        results.append((code, out, err, {p.name: p.read_bytes() for p in side_dir.iterdir()}))
    assert results[0] == results[1]


def test_calls_in_one_process_leak_no_state(tmp_path, capsys):
    # each call must print what it prints as the first call of a process:
    # the config run's json format and c_target must not reach the last call
    doc = {**HEADLINE, "c_target": 0.99, "format": "json"}
    calls = [
        ["nmeas", "--config", config_file(tmp_path, doc)],
        ["nmeas"] + as_flags(doc),
        ["nmeas", "--format", "xml"] + HEADLINE_FLAGS,
        ["sweep", "--preset", "fig2a", "--nc", "1"],
        ["nmeas"] + HEADLINE_FLAGS,
    ]
    firsts = [subprocess.Popen([sys.executable, "-m", "homdetect.cli"] + argv, text=True,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
              for argv in calls]
    expected = []
    for first in firsts:
        out, err = first.communicate(timeout=120)
        expected.append((first.returncode, out, err))
    for argv, want in zip(calls, expected):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code,) + tuple(capsys.readouterr()) == want, argv
    assert [want[0] for want in expected] == [0, 0, 2, 2, 0]


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


def test_console_script_matches_module():
    result = subprocess.run(
        [sys.executable, "-m", "homdetect.cli", "nmeas"] + LOW_FLAGS,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip().split("\n")[1].split(",")[6] == "117"


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats took most of every process's import time, and
    # scipy.integrate a third of it and 26 MB; importing the package needs
    # scipy.special alone, and mean_posterior imports scipy.integrate
    code = ("import sys, homdetect, homdetect.cli; "
            "print('scipy.stats' in sys.modules, 'scipy.integrate' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (0, "False False\n"), result.stderr


def _limit_address_space(gib=2):
    import resource

    limit = int(gib * 2**30)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_bright_reference_point_runs_within_two_gib():
    # n_bar ~ 3000, where rounding in 1 - sum exceeds 1e-12: the tail
    # allowance accepts the one table, built within 2 GiB
    result = subprocess.run(
        [sys.executable, "-m", "homdetect.cli", "nmeas", "--protocol", "incoherent",
         "--eta", "0.99", "--nc", "3000", "--ne", "10", "--ni", "10"],
        capture_output=True,
        text=True,
        env=dict(os.environ, OMP_NUM_THREADS="1"),
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().split("\n")[1].split(",")[6] == "685"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_bright_coherent_point_scores_within_1_35_gib():
    # k_max 5811: each 258 MiB table is built and scored with no
    # table-sized temporary beyond the log ratios' one, so four tables and
    # the interpreter fit where five (and a mask) did not
    result = subprocess.run(
        [sys.executable, "-m", "homdetect.cli", "nmeas", "--protocol", "coherent", "--xi", "0.1",
         "--eta", "0.99", "--epsilon", "0.9", "--nc", "1e4", "--ne", "10", "--ni", "10"],
        capture_output=True,
        text=True,
        env=dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: _limit_address_space(1.35),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().split("\n")[1].split(",")[6] == "32"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_oversize_ensemble_is_refused_before_it_allocates(tmp_path):
    # 10^8 trajectories need 5.6 GB by the estimate (running sums, a block
    # of four steps, a sorted column), which the address limit could not
    # map: the estimate refuses the run first, with exit 2 and no output file
    out = tmp_path / "out.csv"
    result = subprocess.run(
        [sys.executable, "-m", "homdetect.cli", "simulate"] + LOW_FLAGS
        + ["--truth", "present", "--n-measurements", "50", "--n-trajectories", "100000000",
           "--seed", "1", "-o", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, OMP_NUM_THREADS="1"),
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "100000000 trajectories x 50 measurements" in result.stderr
    assert "budget" in result.stderr
    assert not out.exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_long_ensemble_runs_within_a_small_address_space(tmp_path):
    # 10^5 x 400 steps: a run holds the running sums and one block of four
    # steps, not the 305 MiB N x M array, so it fits in 0.375 GiB
    out = tmp_path / "out.csv"
    result = subprocess.run(
        [sys.executable, "-m", "homdetect.cli", "simulate"] + LOW_FLAGS
        + ["--truth", "present", "--n-measurements", "400", "--n-trajectories", "100000",
           "--seed", "1", "-o", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, OMP_NUM_THREADS="1"),
        preexec_fn=lambda: _limit_address_space(0.375),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert (lines[0], len(lines)) == ("step,mean_Pe,q25,q75", 401)
    assert lines[-1].startswith("400,")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("fock_dim,code", [("20000", 2), ("200", 0)])
def test_oracle_basis_is_capped_before_it_allocates(fock_dim, code):
    # a 20000^2 complex array is 6 GB, which used to fail with exit 1 under
    # the address limit; the cap itself runs within it, the 64 incoherent
    # phases one at a time with no tensor kept past its phase
    result = subprocess.run(
        [sys.executable, "-m", "homdetect.cli", "validate-oracle", "--protocol", "incoherent",
         "--nc", "1", "--fock-dim", fock_dim],
        capture_output=True,
        text=True,
        env=dict(os.environ, OMP_NUM_THREADS="1"),
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert result.returncode == code, result.stderr
    if code == 2:
        assert result.stderr == "error: fock_dim must lie in [2, 200], got 20000\n"
        assert result.stdout == ""
    else:
        assert result.stdout.startswith("PASS: ")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("command,flags,threshold", [
    ("nmeas", HEADLINE_FLAGS, "100000"),
    ("dist", LOW_FLAGS, "100000000"),
])
def test_oversize_saturation_is_refused_before_it_allocates(command, flags, threshold):
    # a (t + 1)^d table at t = 1e5 (two detectors) is 75 GB and at t = 1e8
    # (one) 0.8 GB; both thresholds exceed the 10000-count table cap and
    # are refused with exit 2 before the folded table is allocated
    result = subprocess.run(
        [sys.executable, "-m", "homdetect.cli", command] + flags + ["--saturation", threshold],
        capture_output=True,
        text=True,
        env=dict(os.environ, OMP_NUM_THREADS="1"),
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert f"saturation threshold {threshold} exceeds the cap of 10000" in result.stderr
    assert result.stdout == ""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_saturation_over_the_memory_budget_is_refused_before_it_allocates():
    # scoring a two-detector pair folded at t = 10000 takes five 763 MiB
    # tables, which used to fail with exit 1 under the address limit; the
    # estimate refuses it against the 1 GiB budget with exit 2
    result = subprocess.run(
        [sys.executable, "-m", "homdetect.cli", "nmeas"] + HEADLINE_FLAGS
        + ["--saturation", "10000"],
        capture_output=True,
        text=True,
        env=dict(os.environ, OMP_NUM_THREADS="1"),
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == ("error: scoring saturation threshold 10000 on 2 detectors needs about "
                             "3816 MiB, above the 1024 MiB budget\n")
    assert result.stdout == ""


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading, language):
    """The first ```language block in the README section under heading."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _readme_commands():
    """The arguments of each homdetect example in the Command line block,
    continuation lines joined."""
    block = _readme_block("Command line", "sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("homdetect ")]


def _run_in(directory, argv):
    package_root = os.path.dirname(os.path.dirname(homdetect.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=directory, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1"), timeout=300)


def test_readme_library_tour_runs(tmp_path):
    result = _run_in(tmp_path, ["-c", _readme_block("Library tour", "python")])
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_runs(argv, tmp_path):
    # the examples name files relative to the repository root
    (tmp_path / "demos").symlink_to(README.parent / "demos")
    result = _run_in(tmp_path, ["-m", "homdetect.cli", *argv])
    assert result.returncode == 0, result.stderr
