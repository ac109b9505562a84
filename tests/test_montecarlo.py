"""Tests for trajectory sampling and ensemble summaries."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import chisquare

from homdetect.bayes import HypothesisPair, confidence, loglik_moments, posterior_trajectory
from homdetect.montecarlo import (
    EnsembleConfig,
    Truth,
    _CHUNK_ROWS,
    _estimated_bytes,
    _trajectory_uniforms,
    loglambda_histogram,
    sample_outcome,
    simulate_ensemble,
)
from homdetect.photon_stats import (
    MEMORY_BUDGET_BYTES,
    InverseCdf,
    ParameterError,
    Protocol,
    ProtocolParams,
)

LOW_NOISE = ProtocolParams(protocol=Protocol.DIRECT, xi=0.1, eta=0.8, n_e=0.02, n_i=0.02)
HOM = ProtocolParams(
    protocol=Protocol.COHERENT_HOM, xi=0.1, eta=0.9, epsilon=0.9, n_c=2.0, n_e=0.5, n_i=0.5
)


def low_noise_pair():
    return HypothesisPair.from_params(LOW_NOISE)


def config(**kw):
    base = dict(
        pair=low_noise_pair(),
        truth=Truth.PRESENT,
        n_measurements=20,
        n_trajectories=500,
        seed=11,
    )
    base.update(kw)
    return EnsembleConfig(**base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ParameterError):
        config(n_measurements=0)
    with pytest.raises(ParameterError):
        config(n_trajectories=0)
    with pytest.raises(ParameterError):
        config(seed=-1)
    with pytest.raises(ParameterError):
        config(seed=2**63)


@pytest.mark.parametrize("field, value", [
    ("seed", 2.5), ("n_measurements", 2.5), ("n_trajectories", 2.5),
    ("seed", True), ("n_measurements", "3"), ("n_trajectories", np.bool_(True)),
])
def test_config_refuses_what_it_would_truncate(field, value):
    # seed 2.5 used to run as seed 2; the counts failed later inside numpy
    with pytest.raises(ParameterError, match=field):
        config(**{field: value})
    assert getattr(config(**{field: np.int64(3)}), field) == 3


def test_truth_accepts_strings_and_selects_distribution():
    c = config(truth="absent")
    assert c.truth is Truth.ABSENT
    assert c.truth_dist is c.pair.absent
    assert config(truth="present").truth_dist.params.xi == 0.1


# ---------------------------------------------------------------------------
# sampling correctness
# ---------------------------------------------------------------------------


def _chi_square_pvalue(observed_counts, probs, n_samples):
    """Pool bins until every expected count is at least five, then test."""
    order = np.argsort(probs)[::-1]
    obs_sorted = observed_counts[order]
    exp_sorted = probs[order] * n_samples
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(obs_sorted, exp_sorted):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    obs[-1] += acc_o
    exp[-1] += acc_e
    # the table's own tiny tail goes to the last pooled bin
    exp[-1] += n_samples - sum(exp)
    return chisquare(obs, exp).pvalue


def test_direct_sampling_matches_table():
    pair = low_noise_pair()
    rng = np.random.Generator(np.random.Philox(key=[123, 0]))
    n = 40_000
    counts = np.zeros(pair.present.probs.size)
    for _ in range(n):
        counts[sample_outcome(pair.present, rng).j] += 1
    p = _chi_square_pvalue(counts, pair.present.probs, n)
    assert p > 0.001, f"sampling deviates from the table (p = {p})"


def test_joint_sampling_matches_table():
    pair = HypothesisPair.from_params(HOM)
    dist = pair.present
    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    n = 40_000
    width = dist.probs.shape[1]
    counts = np.zeros(dist.probs.size)
    for _ in range(n):
        o = sample_outcome(dist, rng)
        counts[o.j * width + o.k] += 1
    p = _chi_square_pvalue(counts, dist.probs.ravel(), n)
    assert p > 0.001, f"sampling deviates from the table (p = {p})"


def _lookup_tables():
    pairs = [low_noise_pair(), HypothesisPair.from_params(HOM)]
    pairs += [pairs[1].saturated(1), pairs[1].saturated(2)]
    tables = [np.cumsum(d.probs.ravel()) for p in pairs for d in (p.present, p.absent)]
    ulp = 2.0**-53
    # one cell; zero-mass runs with cdf values on bucket edges; tops just
    # below and just above 1; many cells inside one bucket
    tables += [np.array([1.0]), np.array([1.0 - ulp]),
               np.cumsum([0.25, 0.0, 0.0, 0.25, 0.0, 0.5, 0.0, 0.0]),
               np.array([0.1, 0.1, 0.3, 0.3, 0.3, 1.0 - 3 * ulp]),
               np.array([0.5, 1.0 + 2 * ulp, 1.0 + 2 * ulp]),
               np.cumsum(np.full(20_000, 1 / 20_000)),
               np.concatenate([np.linspace(0.5, 0.5 + 1e-6, 50), [1.0]])]
    return tables


def test_inverse_cdf_is_the_clipped_binary_search():
    b = InverseCdf.BUCKETS
    edges = np.arange(b) / b
    u = np.concatenate([
        edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0),
        [0.0, 1.0 - 2.0**-53], np.random.default_rng(3).random(50_000),
    ])
    assert u.min() >= 0.0 and u.max() < 1.0
    for cdf in _lookup_tables():
        expected = np.clip(np.searchsorted(cdf, u, side="right"), 0, cdf.size - 1)
        cells = InverseCdf(cdf).cells(u)
        assert cells.dtype == np.intp
        assert np.array_equal(cells, expected)
        grid = u[:49_980].reshape(-1, 20)
        assert np.array_equal(InverseCdf(cdf).cells(grid), expected[:49_980].reshape(-1, 20))


def test_inverse_cdf_is_built_once_per_table():
    # sample_outcome draws one record per call, so the table keeps its
    # inverse rather than rebuilding it each time
    dist = low_noise_pair().present
    assert dist.inverse_cdf is dist.inverse_cdf
    assert np.array_equal(dist.inverse_cdf.cdf, np.cumsum(dist.probs.ravel()))


def test_sample_outcome_arity():
    pair = low_noise_pair()
    rng = np.random.Generator(np.random.Philox(key=[0, 0]))
    o = sample_outcome(pair.present, rng)
    assert o.k is None and o.j >= 0
    joint = HypothesisPair.from_params(HOM).present
    o2 = sample_outcome(joint, rng)
    assert o2.k is not None


@pytest.mark.parametrize("truth", list(Truth))
@pytest.mark.parametrize("t", [None, 2])
@pytest.mark.parametrize("params", [LOW_NOISE, HOM], ids=["direct", "coherent"])
def test_one_trajectory_ensemble_is_the_posterior_of_its_draws(params, t, truth):
    # one draw and one log-ratio table serve both paths, so they agree bit
    # for bit, not to rounding
    pair = HypothesisPair.from_params(params).saturated(t)
    seed = 29
    ens = simulate_ensemble(EnsembleConfig(
        pair=pair, truth=truth, n_measurements=40, n_trajectories=1, seed=seed))
    dist = ens.config.truth_dist
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    draws = [sample_outcome(dist, rng) for _ in range(40)]
    assert np.array_equal(ens.mean_pe, posterior_trajectory(pair, draws))


# ---------------------------------------------------------------------------
# ensemble determinism
# ---------------------------------------------------------------------------


def test_rerun_is_bit_identical():
    c = config()
    a = simulate_ensemble(c)
    b = simulate_ensemble(c)
    assert np.array_equal(a.mean_pe, b.mean_pe)
    assert np.array_equal(a.q25, b.q25)
    assert np.array_equal(a.q75, b.q75)
    assert np.array_equal(a.final_log_lambda, b.final_log_lambda)
    assert a.empirical_confidence == b.empirical_confidence


def test_seed_changes_the_draws():
    a = simulate_ensemble(config(seed=1))
    b = simulate_ensemble(config(seed=2))
    assert not np.array_equal(a.final_log_lambda, b.final_log_lambda)


def test_trajectories_are_keyed_not_sequential():
    # growing the ensemble must not disturb the trajectories already drawn
    small = simulate_ensemble(config(n_trajectories=40))
    large = simulate_ensemble(config(n_trajectories=60))
    assert np.array_equal(small.final_log_lambda, large.final_log_lambda[:40])


@pytest.mark.parametrize("m", [3, 20])
def test_trajectories_are_keyed_across_chunks(m):
    # one chunk against three: the first run's rows are the second's
    # prefix, and rows on either side of a chunk boundary are the draws
    # of numpy's Philox under their own key
    rows = _CHUNK_ROWS
    small = simulate_ensemble(config(n_measurements=m, n_trajectories=rows - 24))
    large = simulate_ensemble(config(n_measurements=m, n_trajectories=2 * rows + 24))
    assert np.array_equal(small.final_log_lambda, large.final_log_lambda[: rows - 24])
    pair, dist = large.config.pair, large.config.truth_dist
    for i in (rows - 1, rows, 2 * rows, 2 * rows + 23):
        rng = np.random.Generator(np.random.Philox(key=[11, i]))
        draws = [sample_outcome(dist, rng) for _ in range(m)]
        scores = np.cumsum([pair.log_ratio[dist.cell(o.j, o.k)] for o in draws])
        assert large.final_log_lambda[i] == scores[-1]


@pytest.mark.parametrize("seed", [0, 1, 2**63 - 1])
@pytest.mark.parametrize("m", [1, 3, 4, 5, 50])
def test_trajectory_uniforms_are_numpy_philox(seed, m):
    # numpy's generator is the oracle; ranges start past zero and cross a
    # chunk boundary, m = 1, 3, 5, 50 end in a partial block, and the
    # steps start at the first, second or thirteenth block
    rows = _CHUNK_ROWS
    for first in (0, 4, 48):
        for start, stop in ((0, 3), (7, 12), (rows - 2, rows + 3)):
            u = _trajectory_uniforms(seed, start, stop, m, first)
            expected = np.array([
                np.random.Generator(np.random.Philox(key=[seed, i])).random(first + m)[first:]
                for i in range(start, stop)
            ])
            assert u.shape == (stop - start, m)
            assert np.array_equal(u.view(np.uint64), expected.view(np.uint64))


def test_oversize_ensemble_is_refused():
    c = config(n_measurements=50, n_trajectories=100_000_000)
    assert _estimated_bytes(100_000_000, 50, c.truth_dist.probs.size) > MEMORY_BUDGET_BYTES
    with pytest.raises(ParameterError, match="budget.*use fewer trajectories or measurements"):
        simulate_ensemble(c)


# ---------------------------------------------------------------------------
# summary semantics
# ---------------------------------------------------------------------------


def test_quartiles_bracket_and_single_trajectory_degenerates():
    ens = simulate_ensemble(config(n_trajectories=200))
    assert np.all(ens.q25 <= ens.q75)
    assert np.all((ens.mean_pe >= 0) & (ens.mean_pe <= 1))
    single = simulate_ensemble(config(n_trajectories=1))
    assert np.array_equal(single.q25, single.q75)
    assert np.array_equal(single.q25, single.mean_pe)


def _assert_nearest_rank_quartiles(n):
    ens = simulate_ensemble(config(n_trajectories=n, n_measurements=5))
    # recompute from a fresh run's final posteriors via a full sort
    again = simulate_ensemble(config(n_trajectories=n, n_measurements=5))
    final_pe = np.sort(expit(-again.final_log_lambda))
    assert ens.q25[-1] == final_pe[math.ceil(0.25 * n) - 1]
    assert ens.q75[-1] == final_pe[math.ceil(0.75 * n) - 1]


def test_quartiles_are_nearest_rank():
    _assert_nearest_rank_quartiles(101)


def test_quartiles_are_nearest_rank_after_a_partial_chunk():
    _assert_nearest_rank_quartiles(_CHUNK_ROWS + 37)


@pytest.mark.parametrize("m", [1, 3, 5, 13, 50])
def test_quartiles_are_nearest_rank_rows_of_a_full_sort(m):
    # the low-noise direct table has few distinct log ratios, so columns
    # are heavily tied.  Blocks hold 4 steps at n = _CHUNK_ROWS + 37, 12
    # at n = 5000 and all m at n = 1: m = 5 and 13 end in a block of width
    # 1, after blocks of 4 and of 12, and a partial chunk ends the columns
    # unevenly.  The reference draws all n x m steps at once, outside the
    # ensemble's block loop, and its mean is numpy's over the whole N x M
    # array: one column is summed pairwise, two or more row by row
    for n in (1, 5_000, _CHUNK_ROWS + 37):
        c = config(n_measurements=m, n_trajectories=n, seed=17)
        ens = simulate_ensemble(c)
        idx = c.truth_dist.inverse_cdf.cells(_trajectory_uniforms(17, 0, n, m))
        cum = np.cumsum(c.pair.log_ratio.ravel()[idx], axis=1)
        pe = np.sort(expit(-cum), axis=0)
        assert np.array_equal(ens.q25, pe[math.ceil(0.25 * n) - 1])
        assert np.array_equal(ens.q75, pe[math.ceil(0.75 * n) - 1])
        assert np.array_equal(ens.final_log_lambda, cum[:, -1])
        assert np.array_equal(ens.mean_pe, expit(-cum).mean(axis=0))


@pytest.mark.parametrize("n, m", [(1, 3), (3_000, 50), (_CHUNK_ROWS + 5, 7),
                                  (100_000, 50), (3_000, 400)])
def test_peak_memory_stays_within_the_estimate(n, m):
    # a fresh pair, so the log ratios and the inverse CDF are built inside
    # the measured call, as in a first run; (100 000, 50) is the
    # benchmark's size, and at (3 000, 400) a run holds no more per
    # trajectory than at (3 000, 50)
    for run in (simulate_ensemble, loglambda_histogram):
        c = EnsembleConfig(pair=HypothesisPair.from_params(HOM), truth=Truth.ABSENT,
                           n_measurements=m, n_trajectories=n, seed=2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run(c)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= _estimated_bytes(n, m, c.truth_dist.probs.size), run.__name__


def test_empirical_matches_analytic_at_scale():
    c = config(n_measurements=50, n_trajectories=20_000, seed=5)
    ens = simulate_ensemble(c)
    se = math.sqrt(ens.analytic_confidence * (1 - ens.analytic_confidence) / 20_000)
    assert abs(ens.empirical_confidence - ens.analytic_confidence) < 5 * se + 0.005


def test_final_log_lambda_lives_on_a_small_lattice():
    # ten direct trials produce sums from a handful of distinct per-trial
    # values, so the final log ratio is heavily degenerate
    ens = simulate_ensemble(config(n_measurements=10, n_trajectories=2_000))
    distinct = np.unique(np.round(ens.final_log_lambda, 9)).size
    assert distinct < 300


@pytest.mark.parametrize("truth", list(Truth))
def test_zero_spread_takes_the_deterministic_limit(truth):
    # with no background every absent trial records zero counts, so ln(lambda)
    # has one value under the absent truth and every absent run decides
    # correctly; a present run decides correctly exactly when it records a
    # count, which five trials miss with probability (1 - xi eta)^5
    pair = HypothesisPair.from_params(
        ProtocolParams(protocol=Protocol.DIRECT, xi=0.1, eta=0.8, n_e=0.0, n_i=0.0))
    m = loglik_moments(pair)
    assert m.sigma_absent == 0.0 < m.sigma_present
    n = 20_000
    ens = simulate_ensemble(EnsembleConfig(pair=pair, truth=truth, n_measurements=5,
                                           n_trajectories=n, seed=3))
    if truth is Truth.ABSENT:
        assert ens.analytic_confidence == 1.0
        assert ens.empirical_confidence == 1.0
    else:
        assert ens.analytic_confidence == confidence(5, m).c_present
        exact = 1.0 - 0.92**5
        assert abs(ens.empirical_confidence - exact) < 5 * math.sqrt(exact * (1 - exact) / n)


def test_absent_truth_flips_the_decision_rate():
    present = simulate_ensemble(config(truth=Truth.PRESENT, n_trajectories=2_000))
    absent = simulate_ensemble(config(truth=Truth.ABSENT, n_trajectories=2_000))
    assert present.empirical_confidence > 0.5
    assert absent.empirical_confidence > 0.5
    assert np.mean(absent.final_log_lambda) > 0 > np.mean(present.final_log_lambda)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_csv_and_summary_files(tmp_path):
    ens = simulate_ensemble(config(n_measurements=7, n_trajectories=50))
    csv_path = tmp_path / "trajectories.csv"
    ens.to_csv(csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "step,mean_Pe,q25,q75"
    assert len(lines) == 8
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == ens.mean_pe[0]

    summary_path = tmp_path / "trajectories.summary.json"
    ens.to_summary_json(summary_path)
    doc = json.loads(summary_path.read_text())
    assert doc["N"] == 7
    assert doc["seed"] == 11
    assert doc["truth"] == "present"
    assert doc["n_trajectories"] == 50
    assert doc["empirical_confidence"] == ens.empirical_confidence
    assert doc["analytic_confidence"] == ens.analytic_confidence


# ---------------------------------------------------------------------------
# histogram of the final log ratio
# ---------------------------------------------------------------------------


def test_histogram_density_and_overlay():
    c = config(n_measurements=30, n_trajectories=3_000)
    hist = loglambda_histogram(c, bins=40)
    widths = np.diff(hist.bin_edges)
    assert float((hist.density * widths).sum()) == pytest.approx(1.0, rel=1e-12)
    assert hist.samples.size == 3_000

    m = loglik_moments(c.pair)
    assert hist.mu_y == pytest.approx(30 * m.mu_present, rel=1e-12)
    assert hist.sigma_y == pytest.approx(math.sqrt(30) * m.sigma_present, rel=1e-12)


def test_histogram_respects_truth_and_guards():
    c = config(truth=Truth.ABSENT, n_measurements=30, n_trajectories=500)
    hist = loglambda_histogram(c)
    m = loglik_moments(c.pair)
    assert hist.mu_y == pytest.approx(30 * m.mu_absent, rel=1e-12)
    with pytest.raises(ParameterError):
        loglambda_histogram(c, bins=0)
    # bins=True would run with one bin; 2.5 and "10" would reach numpy
    for bad in (2.5, "10", True):
        with pytest.raises(ParameterError, match="bins must be an integer"):
            loglambda_histogram(c, bins=bad)
    # the histogram runs the ensemble, and is refused above the budget too
    with pytest.raises(ParameterError, match="budget"):
        loglambda_histogram(config(n_trajectories=200_000_000))


@pytest.mark.parametrize("truth", list(Truth))
@pytest.mark.parametrize("t", [None, 2])
def test_histogram_samples_are_the_ensemble_final_log_ratios(t, truth):
    # the histogram bins simulate_ensemble's final log ratios, drawn a
    # chunk of trajectories at a time; N ends inside, at and just past a
    # chunk edge.  The reference draws all n x m steps at once, outside the
    # ensemble's block loop, and sums each row with np.cumsum
    pair = HypothesisPair.from_params(HOM).saturated(t)
    rows, m = _CHUNK_ROWS, 50
    for n in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
        c = EnsembleConfig(pair=pair, truth=truth, n_measurements=m, n_trajectories=n, seed=5)
        idx = c.truth_dist.inverse_cdf.cells(_trajectory_uniforms(5, 0, n, m))
        cum = np.cumsum(pair.log_ratio.ravel()[idx], axis=1)
        assert np.array_equal(loglambda_histogram(c).samples, cum[:, -1])
