"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from homdetect.bayes import HypothesisPair
from homdetect import cli
from homdetect.cli import main
from homdetect.photon_stats import Protocol, ProtocolParams, build_distribution

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


def test_dist_rejects_bad_parameter(capsys):
    code, _, err = run(["dist", "--protocol", "direct", "--xi", "2"], capsys)
    assert code == 2
    assert "xi" in err


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


def test_sweep_preset_runs(tmp_path, capsys):
    target = tmp_path / "fig2b.csv"
    code, _, _ = run(["sweep", "--preset", "fig2b", "-o", str(target)], capsys)
    assert code == 0
    lines = target.read_text().strip().split("\n")
    # direct: 1 noise x 4 saturations; each interference protocol: 13 x 4
    assert len(lines) == 1 + 4 + 2 * 52


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


def test_validate_oracle_rejects_bright_reference(capsys):
    code, _, err = run(["validate-oracle", "--nc", "9"], capsys)
    assert code == 2
    assert "n_c" in err


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
], ids=["misspelled-key", "other-command-key", "oracle-output", "oracle-table-flags",
        "optimize-nc", "diff", "output"])
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


def test_every_sweep_point_flag_is_refused_beside_a_spec():
    # a sweep flag missing from _POINT_FLAGS would be dropped beside --preset
    options = vars(cli._build_parser().parse_args(["sweep"]))
    for key in ("command", "func", "preset", "config", "output", "format"):
        del options[key]
    assert set(options) == set(cli._POINT_FLAGS)


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


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


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
