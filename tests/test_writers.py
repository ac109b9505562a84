"""Byte pins for every CSV and JSON writer.

Each output is compared byte for byte with a reference writer kept here
as it was written before the writers shared one table walk, one table
document and one JSON text function: per-shape loops over the table,
per-row f-strings, and a dict literal per document.
"""

import json
import os
from dataclasses import fields

import numpy as np
import pytest

from homdetect import cli, photon_stats
from homdetect.bayes import HypothesisPair
from homdetect.montecarlo import EnsembleConfig, Truth, simulate_ensemble
from homdetect.photon_stats import (
    CountDistribution,
    Outcome,
    Protocol,
    ProtocolParams,
    apply_saturation,
    build_distribution,
    table_csv_text,
)
from homdetect.sweep import SweepSpec, run_sweep

# ---------------------------------------------------------------------------
# reference writers
# ---------------------------------------------------------------------------


def ref_json_text(doc):
    return json.dumps(doc, indent=1) + "\n"


def ref_table_csv_text(table, value_header):
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


def ref_table_entries(table):
    if table.ndim == 2:
        return [
            [j, k, float(table[j, k])]
            for j in range(table.shape[0])
            for k in range(table.shape[1])
        ]
    return [[j, float(table[j])] for j in range(table.shape[0])]


def ref_dist_dict(dist):
    return {
        "params": dist.params.to_dict(),
        "saturation": dist.saturation,
        "k_max": dist.k_max,
        "tail_mass": dist.tail_mass,
        "entries": ref_table_entries(dist.probs),
    }


def ref_diff_dict(params, t):
    pair = HypothesisPair.from_params(params).saturated(t)
    return {
        "params": params.to_dict(),
        "saturation": t,
        "k_max": pair.present.k_max,
        "diff": True,
        "entries": ref_table_entries(pair.present.probs - pair.absent.probs),
    }


def ref_spec_dict(spec):
    return {
        "protocols": list(spec.protocols),
        "xi": spec.xi,
        "epsilon": spec.epsilon,
        "cos_theta": spec.cos_theta,
        "eta": list(spec.eta),
        "n_e": list(spec.n_e),
        "n_i": None if spec.n_i is None else list(spec.n_i),
        "n_c": spec.n_c if isinstance(spec.n_c, str) else list(spec.n_c),
        "saturations": ["inf" if t is None else t for t in spec.saturations],
        "c_target": spec.c_target,
        "nc_bounds": list(spec.nc_bounds),
    }


def ref_sweep_csv(result):
    lines = ["protocol,eta,n_e,n_i,n_c,t,N,speedup,at_bound"]
    for r in result.rows:
        t = "inf" if r.t is None else str(r.t)
        if r.n_2sigma is None:  # an error row
            tail = ",,"
        elif r.speedup is None:  # a row whose direct baseline alone failed
            tail = f"{r.n_2sigma},,{'true' if r.at_bound else 'false'}"
        else:
            tail = f"{r.n_2sigma},{r.speedup:.17g},{'true' if r.at_bound else 'false'}"
        n_c = "" if r.n_c is None else f"{r.n_c:.17g}"
        lines.append(f"{r.protocol},{r.eta:.17g},{r.n_e:.17g},{r.n_i:.17g},{n_c},{t},{tail}")
    return "\n".join(lines) + "\n"


def ref_sweep_dict(result):
    return {
        "spec": ref_spec_dict(result.spec),
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
            for r in result.rows
        ],
    }


def ref_ensemble_csv(ens):
    lines = ["step,mean_Pe,q25,q75"]
    for i in range(ens.mean_pe.size):
        lines.append(f"{i + 1},{ens.mean_pe[i]:.17g},{ens.q25[i]:.17g},{ens.q75[i]:.17g}")
    return "\n".join(lines) + "\n"


def ref_ensemble_json(ens):
    return ref_json_text({
        "step": list(range(1, ens.mean_pe.size + 1)),
        "mean_Pe": [float(v) for v in ens.mean_pe],
        "q25": [float(v) for v in ens.q25],
        "q75": [float(v) for v in ens.q75],
    })


# ---------------------------------------------------------------------------
# count tables
# ---------------------------------------------------------------------------


def _seeded_params(protocol, seed):
    rng = np.random.default_rng(seed)
    return ProtocolParams(
        protocol, xi=float(rng.uniform(0.05, 0.5)), eta=float(rng.uniform(0.3, 1.0)),
        epsilon=float(rng.uniform(0.5, 1.0)), n_c=float(rng.uniform(0.1, 12.0)),
        n_e=float(rng.uniform(0.0, 3.0)), n_i=float(rng.uniform(0.0, 0.5)),
        cos_theta=float(rng.uniform(-1.0, 1.0)),
    )


def _flags(params):
    # repr gives each float back exactly through the flag's float()
    return ["--protocol", params.protocol.value, "--xi", repr(params.xi),
            "--eta", repr(params.eta), "--epsilon", repr(params.epsilon),
            "--nc", repr(params.n_c), "--ne", repr(params.n_e), "--ni", repr(params.n_i),
            "--cos-theta", repr(params.cos_theta)]


def _cli_bytes(argv, path):
    assert cli.main([*argv, "-o", str(path)]) == 0
    return path.read_text()


@pytest.mark.parametrize("t", [None, 1, 2, 7])
@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("protocol", list(Protocol))
def test_seeded_tables_keep_their_bytes(protocol, seed, t, tmp_path):
    params = _seeded_params(protocol, seed)
    dist = build_distribution(params)
    if t is not None:
        dist = apply_saturation(dist, t)
    assert dist.csv_text() == ref_table_csv_text(dist.probs, "p")
    assert photon_stats._json_text(dist.to_json_dict()) == ref_json_text(ref_dist_dict(dist))

    argv = ["dist", *_flags(params)] + ([] if t is None else ["--saturation", str(t)])
    out = tmp_path / "table.out"
    assert _cli_bytes([*argv, "--format", "csv"], out) == ref_table_csv_text(dist.probs, "p")
    assert _cli_bytes([*argv, "--format", "json"], out) == ref_json_text(ref_dist_dict(dist))
    pair = HypothesisPair.from_params(params).saturated(t)
    diff = pair.present.probs - pair.absent.probs
    assert _cli_bytes([*argv, "--diff", "--format", "csv"], out) == ref_table_csv_text(diff, "dp")
    assert _cli_bytes([*argv, "--diff", "--format", "json"], out) == \
        ref_json_text(ref_diff_dict(params, t))


@pytest.mark.parametrize("t", [None, 1, 2, 4])
@pytest.mark.parametrize("protocol", list(Protocol))
def test_table_json_text_matches_the_json_encoder(protocol, t):
    # the entries block is written by %-format, not by json's indenting
    # encoder; the documents of tables and of differences keep every byte
    for seed in range(4):
        params = _seeded_params(protocol, seed)
        dist = build_distribution(params)
        if t is not None:
            dist = apply_saturation(dist, t)
        assert photon_stats._table_json_text(params, t, dist.probs, "tail_mass",
                                             dist.tail_mass) == ref_json_text(ref_dist_dict(dist))
        pair = HypothesisPair.from_params(params).saturated(t)
        assert photon_stats._table_json_text(
            params, t, pair.present.probs - pair.absent.probs, "diff", True
        ) == ref_json_text(ref_diff_dict(params, t))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_table_json_text_refuses_a_non_finite_cell(bad):
    # with json's own message, naming the first such cell in row-major order
    table = np.array(_AWKWARD).reshape(3, 3)
    table[1, 2], table[2, 0] = bad, float("nan")
    params = ProtocolParams(Protocol.COHERENT_HOM)
    with pytest.raises(ValueError) as want:
        json.dumps(ref_table_entries(table), indent=1, allow_nan=False)
    with pytest.raises(ValueError) as got:
        photon_stats._table_json_text(params, None, table, "diff", True)
    assert str(got.value) == str(want.value)


# cells whose text is easy to get wrong: signed zero, subnormals, values
# near underflow and exact zeros beside ordinary probabilities
_AWKWARD = [0.25, -0.0, 5e-324, 1e-300, 0.0, 0.25, 0.5, 2.2250738585072014e-308, 0.0]


@pytest.mark.parametrize("shape", [(9,), (3, 3)])
def test_awkward_cells_keep_their_bytes(shape):
    table = np.array(_AWKWARD).reshape(shape)
    protocol = Protocol.DIRECT if len(shape) == 1 else Protocol.COHERENT_HOM
    dist = CountDistribution(params=ProtocolParams(protocol), probs=table.copy())
    assert dist.total() == 1.0
    assert dist.csv_text() == ref_table_csv_text(table, "p")
    assert table_csv_text(-table, "dp") == ref_table_csv_text(-table, "dp")
    assert photon_stats._json_text(dist.to_json_dict()) == ref_json_text(ref_dist_dict(dist))
    assert photon_stats._table_json_text(dist.params, None, table, "tail_mass",
                                         dist.tail_mass) == ref_json_text(ref_dist_dict(dist))
    assert list(dist.outcomes()) == [(Outcome(*e[:-1]), e[-1]) for e in ref_table_entries(table)]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

_SPECS = [
    # error rows (eta = 0), at_bound rows, t = None beside t = 2, n_c = None
    SweepSpec(protocols=("direct", "coherent", "incoherent"), eta=(0.99, 0.0),
              n_e=(0.01, 1.0), n_i=(0.0,), n_c="optimize", saturations=(None, 2),
              nc_bounds=(0.1, 30.0)),
    # a brightness grid, n_i tied to n_e, and n_bar = 0 (error rows) at n_c = n_e = 0
    SweepSpec(protocols=("coherent", "direct"), eta=(0.9,), n_e=(0.0, 1.0),
              n_c=(0.0, 6.0), saturations=(None, 4), xi=0.3, cos_theta=-0.5),
]


@pytest.mark.parametrize("spec", _SPECS, ids=["optimize", "grid"])
def test_sweep_writers_keep_their_bytes(spec):
    result = run_sweep(spec)
    rows = result.rows
    assert any(r.error for r in rows) and any(r.t is None for r in rows)
    if spec.n_c == "optimize":
        assert any(r.at_bound for r in rows)
    assert result.csv_text() == ref_sweep_csv(result)
    assert photon_stats._json_text(result.json_dict()) == ref_json_text(ref_sweep_dict(result))
    assert json.dumps(spec.to_dict()) == json.dumps(ref_spec_dict(spec))


def test_spec_document_names_every_field():
    for spec in _SPECS:
        assert list(spec.to_dict()) == [f.name for f in fields(SweepSpec)]
        assert SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def test_ensemble_writers_keep_their_bytes(tmp_path):
    params = ProtocolParams(Protocol.COHERENT_HOM, eta=0.9, n_e=1.0, n_c=6.0)
    config = EnsembleConfig(pair=HypothesisPair.from_params(params).saturated(2),
                            truth=Truth.PRESENT, n_measurements=9, n_trajectories=300, seed=7)
    ens = simulate_ensemble(config)
    ens.to_csv(tmp_path / "e.csv")
    ens.to_json(tmp_path / "e.json")
    ens.to_summary_json(tmp_path / "e.summary.json")
    assert (tmp_path / "e.csv").read_text() == ref_ensemble_csv(ens)
    assert (tmp_path / "e.json").read_text() == ref_ensemble_json(ens)
    assert (tmp_path / "e.summary.json").read_text() == ref_json_text(ens.summary_dict())

    argv = ["simulate", *_flags(params), "--saturation", "2", "--truth", "present",
            "--n-measurements", "9", "--n-trajectories", "300", "--seed", "7"]
    for fmt, ref in (("csv", ref_ensemble_csv(ens)), ("json", ref_ensemble_json(ens))):
        out = tmp_path / f"cli.{fmt}"
        assert _cli_bytes([*argv, "--format", fmt], out) == ref
        summary = os.path.splitext(out)[0] + ".summary.json"
        with open(summary) as fh:
            assert fh.read() == ref_json_text(ens.summary_dict())
