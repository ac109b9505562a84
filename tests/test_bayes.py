"""Tests for likelihood ratios, confidence, and the log-normal approximation."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfinv, expit
from scipy.stats import lognorm

from homdetect.bayes import (
    DegenerateMomentsError,
    HypothesesIndistinguishableError,
    HypothesisPair,
    LogLikMoments,
    OutcomeOutsideSupportError,
    _n_real,
    confidence,
    likelihood_ratio,
    loglik_moments,
    lognormal_pdf,
    mean_posterior,
    n_for_confidence,
    posterior_trajectory,
)
from homdetect import bayes, photon_stats
from homdetect.photon_stats import (
    CountDistribution,
    Outcome,
    ParameterError,
    Protocol,
    ProtocolParams,
    apply_saturation,
    build_distribution,
)
from mp_reference import reference_moments, within

LOW_NOISE = ProtocolParams(protocol=Protocol.DIRECT, xi=0.1, eta=0.8, n_e=0.02, n_i=0.02)
HIGH_NOISE = ProtocolParams(protocol=Protocol.DIRECT, xi=0.1, eta=0.8, n_e=1.0, n_i=1.0)
UNIT_NOISE = ProtocolParams(protocol=Protocol.DIRECT, xi=0.1, eta=0.8, n_e=0.0, n_i=1.0)
NOISELESS = ProtocolParams(protocol=Protocol.DIRECT, xi=0.1, eta=0.8, n_e=0.0, n_i=0.0)


# ---------------------------------------------------------------------------
# hypothesis pairs
# ---------------------------------------------------------------------------


def test_from_params_builds_aligned_tables():
    pair = HypothesisPair.from_params(LOW_NOISE)
    assert pair.present.params.xi == 0.1
    assert pair.absent.params.xi == 0.0
    assert pair.present.probs.shape == pair.absent.probs.shape
    assert pair.present.saturation is None


def test_from_params_with_saturation():
    pair = HypothesisPair.from_params(LOW_NOISE).saturated(2)
    assert pair.present.saturation == 2
    assert pair.present.probs.shape == (3,)
    assert pair.present.total() == pytest.approx(1.0, abs=1e-12)
    # one unsaturated pair folds at several t and stays unsaturated
    base = HypothesisPair.from_params(LOW_NOISE)
    assert base.saturated(None) is base
    for t in (4, 2, 1):
        folded = base.saturated(t)
        assert folded.absent.saturation == t
        assert np.array_equal(folded.present.probs, apply_saturation(base.present, t).probs)
    assert base.present.saturation is None and base.absent.saturation is None


def test_pair_rejects_mismatches():
    present = build_distribution(LOW_NOISE)
    with pytest.raises(ParameterError):
        HypothesisPair(present=present, absent=present)  # absent has xi != 0
    absent_wrong = build_distribution(replace(LOW_NOISE, xi=0.0, n_i=0.5))
    with pytest.raises(ParameterError):
        HypothesisPair(present=present, absent=absent_wrong)
    absent = build_distribution(replace(LOW_NOISE, xi=0.0))
    # zero padding keeps the table normalized and changes only its shape
    absent_padded = CountDistribution(params=absent.params, probs=np.pad(absent.probs, (0, 4)))
    with pytest.raises(ParameterError, match="shapes"):
        HypothesisPair(present=present, absent=absent_padded)
    with pytest.raises(ParameterError, match="different saturation"):
        HypothesisPair(present=apply_saturation(present, present.k_max), absent=absent)


@pytest.mark.parametrize("protocol", list(Protocol))
def test_from_params_builds_one_envelope(protocol, monkeypatch):
    # the present table is the absent table times the bracket, so a pair
    # builds one envelope and makes one build_distribution call
    envelopes, builds = [], []

    def counted(calls, fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(photon_stats, "_envelope", counted(envelopes, photon_stats._envelope))
    monkeypatch.setattr(bayes, "build_distribution", counted(builds, bayes.build_distribution))
    params = replace(LOW_NOISE, protocol=protocol, epsilon=0.9, n_c=6.0)
    for saturation in (None, 2):
        envelopes.clear()
        builds.clear()
        pair = HypothesisPair.from_params(params).saturated(saturation)
        assert (len(envelopes), len(builds)) == (1, 1)
        assert builds[0][0] == replace(params, xi=0.0)
        assert pair.present.params == params and pair.present.saturation == saturation


@pytest.mark.parametrize("saturation", [None, 2])
@pytest.mark.parametrize("protocol", list(Protocol))
def test_pair_tables_equal_standalone_builds(protocol, saturation):
    # both tables land on one size (n_bar does not depend on xi) and each is
    # exactly the table a build of its own gives
    rng = np.random.default_rng(20261018)
    for i in range(34):
        edge = i < 8
        params = ProtocolParams(
            protocol=protocol,
            xi=float(rng.choice([0.0, 1.0])) if edge else rng.uniform(),
            eta=float(rng.choice([0.0, 1.0])) if i % 2 else rng.uniform(),
            epsilon=rng.uniform(),
            n_c=0.0 if edge else 10.0 ** rng.uniform(-2.0, 2.0),
            n_e=0.0 if edge else 10.0 ** rng.uniform(-2.0, 1.0),
            n_i=10.0 ** rng.uniform(-3.0, 0.0),
            cos_theta=rng.uniform(-1.0, 1.0),
        )
        pair = HypothesisPair.from_params(params).saturated(saturation)
        for got, xi in ((pair.present, params.xi), (pair.absent, 0.0)):
            alone = build_distribution(replace(params, xi=xi))
            assert alone.tail_mass <= 1e-12
            if saturation is not None:
                alone = apply_saturation(alone, saturation)
            assert np.array_equal(got.probs, alone.probs), params
            assert got.tail_mass == alone.tail_mass


def _saturated_moments(pair: HypothesisPair, t: int) -> LogLikMoments:
    """A fold of an unsaturated pair at t scored as a sweep scores the fold
    of one protocol, from a stack of its absent and present folds (the
    kernel of bayes._brightness_moments), with apply_saturation's refusals
    of the pair and of t."""
    if pair.present.saturation is not None:
        raise ParameterError("distribution is already saturated")
    photon_stats._check_saturation(t, pair.present.probs.ndim)
    stack = bayes._fold_stack(pair.absent, t, 1)
    photon_stats._fold_into(stack[1], pair.present.probs, pair.present.tail_mass, t)
    return bayes._stacked_moments(stack, [pair.absent.params, pair.present.params], t)[0]


@pytest.mark.parametrize("protocol, thresholds", [
    (Protocol.COHERENT_HOM, (200, 500, 1000)),
    (Protocol.DIRECT, (2000, 10_000)),
])
def test_scoring_a_folded_pair_stays_within_the_estimate(protocol, thresholds):
    # the estimate that apply_saturation checks against the memory budget
    # bounds the measured peak of folding a fresh pair and scoring it, as a
    # pair or from its folded arrays
    params = replace(LOW_NOISE, protocol=protocol, epsilon=0.9, n_c=6.0)
    for t in thresholds:
        for score in (lambda pair: loglik_moments(pair.saturated(t)),
                      lambda pair: _saturated_moments(pair, t)):
            pair = HypothesisPair.from_params(params)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                score(pair)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= photon_stats._scoring_bytes(t, pair.present.probs.ndim), t


def _seeded_params(rng, protocol):
    return ProtocolParams(
        protocol=protocol, xi=rng.uniform(), eta=rng.uniform(0.05, 1.0),
        epsilon=rng.uniform(), n_c=10.0 ** rng.uniform(-2.0, 1.5),
        n_e=10.0 ** rng.uniform(-2.0, 1.0), n_i=10.0 ** rng.uniform(-3.0, 0.0),
        cos_theta=rng.uniform(-1.0, 1.0),
    )


@pytest.mark.parametrize("protocol", list(Protocol))
def test_saturated_moments_keeps_every_bit(protocol):
    # scoring a fold from its arrays gives the four floats of the folded
    # pair's loglik_moments exactly, at small t and beyond the table
    rng = np.random.default_rng(20261020)
    for _ in range(12):
        pair = HypothesisPair.from_params(_seeded_params(rng, protocol))
        k_max = pair.present.k_max
        for t in (1, 2, 4, 7, k_max, k_max + 1, k_max + 9):
            want = loglik_moments(pair.saturated(t))
            got = _saturated_moments(pair, t)
            assert [got.mu_present, got.sigma_present, got.mu_absent, got.sigma_absent] == [
                want.mu_present, want.sigma_present, want.mu_absent, want.sigma_absent
            ], (pair.present.params, t)


def _refusal(score):
    with pytest.raises(ValueError) as info:
        score()
    return type(info.value), str(info.value)


def _unchecked(dist, probs):
    """An unsaturated table at dist's params holding probs, made without
    its mass check."""
    table = object.__new__(CountDistribution)
    for name, value in (("params", dist.params), ("probs", probs), ("tail_mass", 0.0),
                        ("saturation", None)):
        object.__setattr__(table, name, value)
    return table


@pytest.mark.parametrize("protocol", list(Protocol))
def test_saturated_moments_refuses_what_a_saturated_pair_refuses(protocol):
    # the same class and message as loglik_moments(pair.saturated(t)) for
    # thresholds _check_saturation refuses, an already saturated pair and
    # folded tables whose mass check fails, present or absent
    pair = HypothesisPair.from_params(replace(LOW_NOISE, protocol=protocol, n_c=6.0))
    over = 5180 if protocol.detectors == 2 else 10_001
    heavy = pair.present.probs * 1.5
    cases = [(pair, t) for t in (0, -2, 1.5, True, over)] + [
        (pair.saturated(3), 2),
        (HypothesisPair(present=_unchecked(pair.present, heavy), absent=pair.absent), 2),
        (HypothesisPair(present=pair.present, absent=_unchecked(pair.absent, heavy)), 4),
        (HypothesisPair(present=_unchecked(pair.present, heavy * np.nan), absent=pair.absent), 1),
    ]
    messages = []
    for case, t in cases:
        want = _refusal(lambda: loglik_moments(case.saturated(t)))
        assert _refusal(lambda: _saturated_moments(case, t)) == want, t
        messages.append(want[1])
    assert "integer >= 1" in messages[0]
    assert ("needs about" if protocol.detectors == 2 else "exceeds the cap") in messages[4]
    assert messages[5] == "distribution is already saturated"
    assert all("is not within" in m for m in messages[6:]), messages[6:]


def test_saturated_moments_refuses_an_oversize_threshold_before_it_allocates():
    pair = HypothesisPair.from_params(replace(LOW_NOISE, protocol=Protocol.COHERENT_HOM, n_c=6.0))
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="budget"):
            _saturated_moments(pair, 5180)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_scoring_an_unsaturated_pair_holds_four_tables():
    # a build keeps its two tables and allocates no other table-sized
    # array, and scoring adds the log ratios and their squares; the build
    # slack covers numpy's ufunc buffers (np.getbufsize() doubles, 64 KiB,
    # per strided operand of the bracket's Hankel views) and the bracket's
    # vectors, and stays below the eighth of a table a boolean mask takes
    bright = ProtocolParams(protocol=Protocol.COHERENT_HOM, xi=0.1, eta=0.99, epsilon=0.9,
                            n_c=1e3, n_e=10.0, n_i=10.0)
    for protocol in Protocol:
        params = replace(bright, protocol=protocol)
        table = HypothesisPair.from_params(params).present.probs.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pair = HypothesisPair.from_params(params)
            build = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            loglik_moments(pair)
            score = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert build <= 2 * table + (256 << 10), (protocol, build / table)
        assert score <= 4 * table + (64 << 10), (protocol, score / table)


# ---------------------------------------------------------------------------
# likelihood ratio orientation and guards
# ---------------------------------------------------------------------------


def test_ratio_below_one_for_presence_evidence():
    pair = HypothesisPair.from_params(LOW_NOISE)
    # one photon is far more likely with the emitter present
    assert likelihood_ratio(pair, Outcome(1)) < 1.0
    # zero photons lean the other way
    assert likelihood_ratio(pair, Outcome(0)) > 1.0


def test_conclusive_outcome_is_floored_not_infinite():
    noiseless = ProtocolParams(protocol=Protocol.DIRECT, xi=0.3, eta=1.0)
    pair = HypothesisPair.from_params(noiseless)
    lam = likelihood_ratio(pair, Outcome(1))
    assert 0.0 < lam < 1e-250


def test_ratio_arity_and_support_guards():
    pair = HypothesisPair.from_params(LOW_NOISE)
    with pytest.raises(ParameterError):
        likelihood_ratio(pair, Outcome(0, 0))
    with pytest.raises(OutcomeOutsideSupportError):
        likelihood_ratio(pair, Outcome(pair.present.k_max + 1))


@pytest.mark.parametrize("count", [1.5, True, -1])
def test_ratio_refuses_counts_that_are_not_integers_at_least_zero(count):
    direct = HypothesisPair.from_params(LOW_NOISE)
    joint = HypothesisPair.from_params(replace(LOW_NOISE, protocol=Protocol.COHERENT_HOM))
    with pytest.raises(ParameterError, match="integers"):
        likelihood_ratio(direct, Outcome(count))
    with pytest.raises(ParameterError, match="integers"):
        likelihood_ratio(joint, Outcome(0, count))


def test_saturated_pair_clips_high_counts():
    pair = HypothesisPair.from_params(LOW_NOISE).saturated(2)
    assert likelihood_ratio(pair, Outcome(50)) == likelihood_ratio(pair, Outcome(2))


def test_posterior_trajectory_matches_manual_chain():
    pair = HypothesisPair.from_params(LOW_NOISE)
    outcomes = [Outcome(0), Outcome(1), Outcome(0), Outcome(2)]
    traj = posterior_trajectory(pair, outcomes)
    acc = 0.0
    for i, o in enumerate(outcomes):
        acc += pair.log_ratio[o.j]
        assert traj[i] == float(expit(-acc))
    assert posterior_trajectory(pair, []).size == 0


def test_posterior_trajectory_takes_any_iterable():
    pair = HypothesisPair.from_params(LOW_NOISE)
    outcomes = [Outcome(0), Outcome(1), Outcome(2)]
    from_list = posterior_trajectory(pair, outcomes)
    assert np.array_equal(posterior_trajectory(pair, (o for o in outcomes)), from_list)
    assert posterior_trajectory(pair, iter([])).size == 0


def test_posterior_starts_even_and_converges():
    noiseless = ProtocolParams(protocol=Protocol.DIRECT, xi=0.3, eta=1.0)
    pair = HypothesisPair.from_params(noiseless)
    traj = posterior_trajectory(pair, [Outcome(1)])
    assert traj[0] == pytest.approx(1.0, abs=1e-12)  # a detected photon is conclusive here


# ---------------------------------------------------------------------------
# exact per-trial moments
# ---------------------------------------------------------------------------


FROZEN_MOMENTS = {
    "low": (
        LOW_NOISE,
        (-0.0566859169601866, 0.3945853839672997, 0.039607836637980884, 0.22903127774292631),
    ),
    "high": (
        HIGH_NOISE,
        (
            -0.0017549278052158572,
            0.059574686733089702,
            0.0017353405866658413,
            0.058580059944676001,
        ),
    ),
    "unit": (
        UNIT_NOISE,
        (
            -0.0031268117300894244,
            0.079868377837476592,
            0.0030645028614964733,
            0.077492816952036456,
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(FROZEN_MOMENTS))
def test_moments_frozen_values(case):
    params, (mu_p, s_p, mu_a, s_a) = FROZEN_MOMENTS[case]
    m = loglik_moments(HypothesisPair.from_params(params))
    assert m.mu_present == pytest.approx(mu_p, rel=1e-12)
    assert m.sigma_present == pytest.approx(s_p, rel=1e-12)
    assert m.mu_absent == pytest.approx(mu_a, rel=1e-12)
    assert m.sigma_absent == pytest.approx(s_a, rel=1e-12)


def test_log_ratio_is_one_read_only_table_per_pair():
    pair = HypothesisPair.from_params(LOW_NOISE)
    table = pair.log_ratio
    assert table is pair.log_ratio
    assert not table.flags.writeable
    # the scalar ratio reads this table, so the two agree exactly
    for o in (Outcome(0), Outcome(1), Outcome(pair.present.k_max)):
        assert likelihood_ratio(pair, o) == math.exp(table[o.j])


def _masked_log_ratio(pair):
    # the table as built with an explicit dead-cell mask, kept as the reference
    pe, pa = pair.present.probs, pair.absent.probs
    table = np.log(np.maximum(pa, bayes.PROB_FLOOR)) - np.log(np.maximum(pe, bayes.PROB_FLOOR))
    return np.where((pe < bayes.PROB_FLOOR) & (pa < bayes.PROB_FLOOR), 0.0, table)


def test_log_ratio_of_dead_cells_is_positive_zero_without_a_mask():
    # both probabilities floor to PROB_FLOOR in a dead cell, so the
    # difference of logs is already the +0.0 a mask would write
    rng = np.random.default_rng(20261020)
    pairs = [
        HypothesisPair.from_params(ProtocolParams(
            protocol=Protocol.COHERENT_HOM, xi=0.1, eta=0.99, epsilon=0.9, n_c=1e3,
            n_e=10.0, n_i=10.0)),
        HypothesisPair.from_params(NOISELESS),
    ]
    for i in range(9):
        params = ProtocolParams(
            protocol=list(Protocol)[i % 3],
            xi=rng.uniform(0.01, 1.0),
            eta=rng.uniform(0.1, 1.0),
            epsilon=rng.uniform(),
            n_c=10.0 ** rng.uniform(-1.0, 2.0),
            n_e=10.0 ** rng.uniform(-2.0, 1.0),
            n_i=10.0 ** rng.uniform(-3.0, 0.0),
            cos_theta=rng.uniform(-1.0, 1.0),
        )
        pairs.append(HypothesisPair.from_params(params).saturated([None, 2, 4][i % 3]))
    dead_counts = []
    for pair in pairs:
        got, want = pair.log_ratio, _masked_log_ratio(pair)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), pair.present.params
        assert np.array_equal(np.signbit(got), np.signbit(want))
        dead = (pair.present.probs < bayes.PROB_FLOOR) & (pair.absent.probs < bayes.PROB_FLOOR)
        assert np.all(got[dead] == 0.0) and not np.signbit(got[dead]).any()
        dead_counts.append(int(np.count_nonzero(dead)))
    assert dead_counts[0] == 6449
    assert dead_counts[1] > 0


def test_moments_match_independent_summation():
    # plain-python re-derivation over the enumerated outcomes
    for pair in (HypothesisPair.from_params(LOW_NOISE).saturated(4),
                 HypothesisPair.from_params(NOISELESS)):
        _check_moments_by_summation(pair)


def _check_moments_by_summation(pair):
    floor = 1e-300

    def manual(truth):
        mu = second = 0.0
        for outcome, p_truth in truth.outcomes():
            if p_truth <= 0.0:
                continue
            pe = max(pair.present.prob(outcome.j), floor)
            pa = max(pair.absent.prob(outcome.j), floor)
            ln_lam = 0.0 if (pe == floor and pa == floor) else math.log(pa) - math.log(pe)
            mu += p_truth * ln_lam
            second += p_truth * ln_lam**2
        return mu, math.sqrt(max(0.0, second - mu * mu))

    m = loglik_moments(pair)
    mu_p, s_p = manual(pair.present)
    mu_a, s_a = manual(pair.absent)
    assert m.mu_present == pytest.approx(mu_p, rel=1e-12)
    assert m.sigma_present == pytest.approx(s_p, rel=1e-12)
    assert m.mu_absent == pytest.approx(mu_a, rel=1e-12)
    assert m.sigma_absent == pytest.approx(s_a, rel=1e-12)


def test_moments_within_the_40_digit_referee():
    # the whole-table moments and every sub-lattice result the check accepts
    # lie within bayes._LATTICE_TOL (means in units of their spread, spreads
    # relative) of the same sums taken to 40 digits, on pairs of k_max
    # 64-130: coherent at cos_theta = 1, eta 0.99 and epsilon 0.9, where the
    # bracket nearly vanishes, incoherent, and seeded random ones
    rng = np.random.default_rng(20261021)
    cases = [
        ProtocolParams(protocol=Protocol.COHERENT_HOM, xi=0.1, eta=0.99, epsilon=0.9, n_c=60.0,
                       n_e=1.0, n_i=1.0),
        ProtocolParams(protocol=Protocol.INCOHERENT_HOM, xi=0.1, eta=0.9, epsilon=0.9,
                       n_c=80.0, n_e=1.0, n_i=1.0, cos_theta=0.0),
    ]
    for protocol in (Protocol.COHERENT_HOM, Protocol.INCOHERENT_HOM, Protocol.COHERENT_HOM):
        eta, n_e, n_i = rng.uniform(0.5, 1.0), 10.0 ** rng.uniform(-2.0, 1.0), rng.uniform()
        cases.append(ProtocolParams(
            protocol=protocol, xi=rng.uniform(0.05, 0.5), eta=eta, epsilon=rng.uniform(0.5, 1.0),
            n_c=rng.uniform(30.0, 110.0) / eta, n_e=n_e, n_i=n_i,
            cos_theta=rng.uniform(-1.0, 1.0) if protocol is Protocol.COHERENT_HOM else 0.0))
    accepted = 0
    for params in cases:
        pair = HypothesisPair.from_params(params)
        assert 64 <= pair.present.k_max <= 130, params
        reference = reference_moments(params, pair.present.k_max)
        whole = loglik_moments(pair)
        assert within(whole, reference, bayes._LATTICE_TOL), (params, whole, reference)
        lattice = bayes._lattice_moments(pair.present.probs, pair.absent.probs)
        if lattice is not None:
            accepted += 1
            assert within(lattice, reference, bayes._LATTICE_TOL), (params, lattice, reference)
    assert accepted == 3


def _masked_moments(pair):
    # the formula the moments had before: only cells with weight > 0 enter
    out = []
    for truth in (pair.present.probs, pair.absent.probs):
        mask = truth > 0.0
        w = truth[mask]
        x = pair.log_ratio[mask]
        mu = float(np.dot(w, x))
        second = float(np.dot(w, x * x))
        out += [mu, math.sqrt(max(0.0, second - mu * mu))]
    return out


def test_moments_over_whole_tables_match_the_masked_sums():
    # a zero cell adds an exact +0 to each dot product, so a table without
    # one gives the same bits; with zero cells only the summation order of
    # the dot product moves
    rng = np.random.default_rng(20261019)
    pairs = [
        HypothesisPair.from_params(ProtocolParams(
            protocol=Protocol.COHERENT_HOM, xi=0.1, eta=0.99, epsilon=0.9, n_c=1e3,
            n_e=10.0, n_i=10.0)),
        HypothesisPair.from_params(NOISELESS),
        # full interference null: 18 present cells are exactly zero
        HypothesisPair.from_params(ProtocolParams(protocol=Protocol.COHERENT_HOM, xi=0.1)),
    ]
    assert pairs[0].present.k_max == 782
    assert np.count_nonzero(pairs[0].present.probs == 0.0) == 3867
    for i in range(60):
        params = ProtocolParams(
            protocol=list(Protocol)[i % 3],
            xi=rng.uniform(0.01, 1.0),
            eta=rng.uniform(0.1, 1.0),
            epsilon=rng.uniform(),
            n_c=10.0 ** rng.uniform(-1.0, 2.0),
            n_e=10.0 ** rng.uniform(-2.0, 1.0),
            n_i=10.0 ** rng.uniform(-3.0, 0.0),
            cos_theta=rng.uniform(-1.0, 1.0),
        )
        pairs.append(HypothesisPair.from_params(params).saturated([None, 1, 2, 4][i % 4]))
    exact = 0
    for pair in pairs:
        m = loglik_moments(pair)
        got = [m.mu_present, m.sigma_present, m.mu_absent, m.sigma_absent]
        want = _masked_moments(pair)
        if (pair.present.probs > 0.0).all() and (pair.absent.probs > 0.0).all():
            exact += 1
            assert got == want, pair.present.params
        else:
            for g, w in zip(got, want):
                assert abs(g - w) <= 4 * math.ulp(w), pair.present.params
    assert exact >= 20


def test_moment_signs_for_distinguishable_pair():
    for params in (LOW_NOISE, HIGH_NOISE):
        m = loglik_moments(HypothesisPair.from_params(params))
        assert m.mu_present < 0.0 < m.mu_absent


def test_moments_refuse_a_nan_table():
    # a NaN table is refused where it is made, so no pair, and no moments,
    # can be formed from it
    pair = HypothesisPair.from_params(LOW_NOISE)
    nan_table = np.full_like(pair.present.probs, np.nan)
    with pytest.raises(ParameterError, match="table mass nan"):
        replace(pair.present, probs=nan_table)


def test_hom_moments_signs():
    params = ProtocolParams(
        protocol=Protocol.COHERENT_HOM, xi=0.1, eta=0.9, epsilon=0.9, n_c=6.0, n_e=1.0, n_i=1.0
    )
    m = loglik_moments(HypothesisPair.from_params(params))
    assert m.mu_present < 0.0 < m.mu_absent


# ---------------------------------------------------------------------------
# log-normal density
# ---------------------------------------------------------------------------


def test_lognormal_matches_reference_density():
    mu, sigma = -0.4, 0.8
    for lam in (0.05, 0.5, 1.0, 3.0):
        ref = lognorm.pdf(lam, s=sigma, scale=math.exp(mu))
        assert lognormal_pdf(lam, mu, sigma) == pytest.approx(ref, rel=1e-12)


def test_lognormal_normalizes():
    total, _ = quad(lambda x: lognormal_pdf(x, 0.3, 0.5), 0.0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_lognormal_guards():
    for lam, mu in ((0.0, 0.0), (math.nan, 0.0), (1.0, math.nan)):
        with pytest.raises(ParameterError):
            lognormal_pdf(lam, mu, 1.0)
    for sigma in (0.0, math.nan):
        with pytest.raises(DegenerateMomentsError):
            lognormal_pdf(1.0, 0.0, sigma)


# ---------------------------------------------------------------------------
# confidence after n trials
# ---------------------------------------------------------------------------


def test_confidence_frozen_value():
    m = loglik_moments(HypothesisPair.from_params(LOW_NOISE))
    rep = confidence(50, m)
    assert rep.c_present == pytest.approx(0.8451437956199026, rel=1e-12)
    assert 0.5 < rep.c_total < 1.0
    assert rep.c_total == pytest.approx(0.5 * (rep.c_present + rep.c_absent), abs=0.0)


def test_confidence_agrees_with_lognormal_integral():
    # P(correct | present) is the run-ratio mass below 1; integrate the
    # log-normal density as an independent route to the same number
    m = loglik_moments(HypothesisPair.from_params(LOW_NOISE))
    n = 50
    mu_y = n * m.mu_present
    sigma_y = math.sqrt(n) * m.sigma_present
    integral, _ = quad(lambda x: lognormal_pdf(x, mu_y, sigma_y), 0.0, 1.0)
    assert confidence(n, m).c_present == pytest.approx(integral, abs=1e-9)


def test_confidence_increases_with_n():
    m = loglik_moments(HypothesisPair.from_params(LOW_NOISE))
    values = [confidence(n, m).c_total for n in (1, 10, 50, 200)]
    assert values == sorted(values)
    assert confidence(10_000, m).c_total > 0.999


def test_confidence_guards():
    m = loglik_moments(HypothesisPair.from_params(LOW_NOISE))
    # a trial count is an integer >= 1, by the rule of EnsembleConfig
    for n in (0, math.nan, True, 1.5, "10", math.inf):
        with pytest.raises(ParameterError):
            confidence(n, m)
    assert confidence(np.int64(10), m) == confidence(10, m)
    # a zero spread ends every run of its truth at n mu: correct when that
    # sign favours the truth, incorrect otherwise and at a tie; the other
    # truth keeps its erf value
    erf = confidence(10, LogLikMoments(-0.1, 0.1, 0.1, 0.1))
    for mu, limit in ((-0.1, 1.0), (0.0, 0.0), (0.1, 0.0)):
        present = confidence(10, LogLikMoments(mu, 0.0, 0.1, 0.1))
        absent = confidence(10, LogLikMoments(-0.1, 0.1, -mu, 0.0))
        assert (present.c_present, absent.c_absent) == (limit, limit)
        assert (present.c_absent, absent.c_present) == (erf.c_absent, erf.c_present)
        assert present.c_total == 0.5 * (limit + erf.c_absent)
    # a NaN or negative spread still raises
    for sigma in (math.nan, -0.1):
        for bad in (LogLikMoments(-0.1, sigma, 0.1, 0.1), LogLikMoments(-0.1, 0.1, 0.1, sigma)):
            with pytest.raises(DegenerateMomentsError):
                confidence(10, bad)


# ---------------------------------------------------------------------------
# trials to reach a target confidence
# ---------------------------------------------------------------------------


def test_n_for_confidence_frozen_values():
    low = loglik_moments(HypothesisPair.from_params(LOW_NOISE))
    high = loglik_moments(HypothesisPair.from_params(HIGH_NOISE))
    assert n_for_confidence(0.954, low) == 117
    assert n_for_confidence(0.954, high) == 3254


def test_n_for_confidence_is_minimal():
    m = loglik_moments(HypothesisPair.from_params(LOW_NOISE))
    for target in (0.6, 0.954, 0.99):
        n = n_for_confidence(target, m)
        assert confidence(n, m).c_total >= target
        if n > 1:
            assert confidence(n - 1, m).c_total < target


def test_n_for_confidence_target_guards():
    m = loglik_moments(HypothesisPair.from_params(LOW_NOISE))
    for bad in (0.5, 1.0, 0.2, 1.3):
        with pytest.raises(ParameterError):
            n_for_confidence(bad, m)


def _reference_c_total(n, m):
    """The averaged confidence after a real-valued n trials, written out
    term by term as the reference for the N search."""
    root = math.sqrt(n / 2.0)
    c_p = 0.5 * (1.0 - math.erf(root * m.mu_present / m.sigma_present))
    c_a = 0.5 * (1.0 + math.erf(root * m.mu_absent / m.sigma_absent))
    return 0.5 * (c_p + c_a)


def _n_real_200_halvings(m, c_target):
    """The real-valued N search with a fixed 200 halvings."""
    lo, hi = 0.0, 1.0
    while _reference_c_total(hi, m) < c_target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _reference_c_total(mid, m) >= c_target:
            hi = mid
        else:
            lo = mid
    return hi


def _n_int_reference(m, c_target, root):
    """The smallest integer N, walked from the ceiling of the real root."""
    n = max(1, math.ceil(root))
    while n > 1 and _reference_c_total(n - 1.0, m) >= c_target:
        n -= 1
    while _reference_c_total(float(n), m) < c_target:
        n += 1
    return n


def _seeded_moments(rng, flat):
    """Means of 1e-4..10 and spreads of 1e-2..10, or, when flat, means of
    1e-6..1e-4 spreads, where N is about 1e7..4e10."""
    mu_p, mu_a, sigma_p, sigma_a = 10.0 ** rng.uniform(
        [-4.0, -4.0, -2.0, -2.0], [1.0, 1.0, 1.0, 1.0]
    )
    if flat:
        mu_p, mu_a = 10.0 ** rng.uniform(-6.0, -4.0, 2) * (sigma_p, sigma_a)
    return LogLikMoments(
        mu_present=-mu_p, sigma_present=sigma_p, mu_absent=mu_a, sigma_absent=sigma_a
    )


def test_n_search_stops_early_with_identical_result(monkeypatch):
    # both the real root and the integer N equal the reference bisection
    # exactly over 20 000 seeded searches: near-flat moments, where N is
    # 1e7..4e10, and targets within 1e-9 of 0.5 and of 1, where the
    # confidence's floats are flat over runs far wider than 1e-12 of N
    calls = [0]
    confidences = bayes._confidences

    def counted(n, m):
        calls[0] += 1
        return confidences(n, m)

    monkeypatch.setattr(bayes, "_confidences", counted)
    rng = np.random.default_rng(20250501)
    largest = windowed = windowed_calls = 0
    for i in range(20_000):
        m = _seeded_moments(rng, flat=i % 4 == 3)
        kind = i % 10
        if kind == 8:
            target = 0.5 + rng.uniform(1e-12, 1e-9)
        elif kind == 9:
            target = 1.0 - rng.uniform(1e-12, 1e-9)
        else:
            target = rng.uniform(0.6, 0.999)
        before, root = calls[0], _n_real_200_halvings(m, target)
        assert _n_real(m, target) == root
        if kind < 8:
            windowed += 1
            windowed_calls += calls[0] - before
        n = n_for_confidence(target, m)
        assert n == _n_int_reference(m, target, root)
        largest = max(largest, n)
    assert largest > 1e10
    # bisection over the plain bracket takes about 64 confidences a search
    assert windowed_calls / windowed <= 25


def test_newton_window_holds_near_half_and_one(monkeypatch):
    # near c = 0.5 and 1 the confidence is flat over runs of floats wider
    # than 1e-12 of N; the window widened by its rounding over its slope
    # is still confirmed, so no search doubles from 1 (64..155
    # confidences), and the root is the reference's float.  Halving the
    # window to adjacent floats costs log2 of its width in floats: it is
    # about 9e-6 N wide at 0.5 + 1e-10, so 35 or 36 halvings, against 14
    # at 0.954
    calls = [0]
    confidences = bayes._confidences

    def counted(n, m):
        calls[0] += 1
        return confidences(n, m)

    monkeypatch.setattr(bayes, "_confidences", counted)
    rng = np.random.default_rng(20261019)
    most = {0.954: 17, 0.5 + 1e-10: 39, 0.5 + 1e-6: 25, 1.0 - 1e-6: 21, 1.0 - 1e-10: 33}
    for target, bound in most.items():
        counts = []
        for i in range(500):
            m = _seeded_moments(rng, flat=i % 4 == 3)
            root = _n_real_200_halvings(m, target)
            calls[0] = 0
            assert _n_real(m, target) == root
            counts.append(calls[0])
            assert bayes._bracket(m, target, False)[0] > 0.0  # Newton's window, not (0, 2^k]
        assert max(counts) <= bound, target
        if target == 0.954:
            assert np.mean(counts) <= 16


def test_n_search_keeps_the_cap_refusal():
    # moments whose crossing lies at or just beside 2^62 trials: a root
    # the reference finds beyond the cap is refused, any other is equal,
    # and so is the integer N
    refused = found = 0
    for sigma in (0.01, 1.0, 7.0):
        for target in (0.6, 0.954, 0.999):
            for offset in (-1e-6, -1e-11, -1e-13, 0.0, 1e-13, 1e-11, 1e-6, 3.0):
                b = float(erfinv(2.0 * target - 1.0)) / math.sqrt(2.0**61 * (1.0 + offset))
                m = LogLikMoments(-b * sigma, sigma, b * sigma, sigma)
                expected = _n_real_200_halvings(m, target)
                if expected > bayes._N_SEARCH_CAP:
                    refused += 1
                    for search in (_n_real, lambda m, c: n_for_confidence(c, m)):
                        with pytest.raises(HypothesesIndistinguishableError,
                                           match="never reaches"):
                            search(m, target)
                else:
                    found += 1
                    assert _n_real(m, target) == expected
                    assert n_for_confidence(target, m) == _n_int_reference(m, target, expected)
    assert refused >= 27 and found >= 27


def test_n_search_beyond_two_to_the_53_keeps_every_bit(monkeypatch):
    # past 2^53 an integer is no longer always a float: the integer search
    # halves on the integers, each read at its nearest float, and N from
    # 2^50 to 2^60 equals the reference walked from the ceiling of the
    # real root.  Newton's window there is up to 2.3e6 integers wide, so
    # at most 22 halvings after its two verdicts, where the walk from the
    # root stepped over every integer that rounds to it (148 confidences)
    calls = [0]
    confidences = bayes._confidences

    def counted(n, m):
        calls[0] += 1
        return confidences(n, m)

    monkeypatch.setattr(bayes, "_confidences", counted)
    rng = np.random.default_rng(20261021)
    above = 0
    for _ in range(300):
        sigma_p, sigma_a = 10.0 ** rng.uniform(-2.0, 1.0, 2)
        target = rng.uniform(0.6, 0.999)
        scale = float(erfinv(2.0 * target - 1.0)) / math.sqrt(2.0 ** rng.uniform(49.0, 59.0))
        mu_p, mu_a = scale * 10.0 ** rng.uniform(-0.3, 0.3, 2)
        m = LogLikMoments(-mu_p * sigma_p, sigma_p, mu_a * sigma_a, sigma_a)
        calls[0] = 0
        n = n_for_confidence(target, m)
        assert calls[0] <= 2 + 22
        assert n == _n_int_reference(m, target, _n_real_200_halvings(m, target))
        if n > 2**53:
            above += 1
    assert 50 <= above <= 250


def test_integer_n_search_halves_newtons_window(monkeypatch):
    # at ordinary targets Newton's window rounded out to integers is
    # confirmed and is most often already two adjacent integers: a
    # crossing found within a few confidences, where bisecting the real
    # root took about 18
    calls = [0]
    confidences = bayes._confidences

    def counted(n, m):
        calls[0] += 1
        return confidences(n, m)

    monkeypatch.setattr(bayes, "_confidences", counted)
    rng = np.random.default_rng(20261022)
    counts = []
    for i in range(2000):
        m = _seeded_moments(rng, flat=i % 4 == 3)
        target = rng.uniform(0.6, 0.999)
        calls[0] = 0
        n = n_for_confidence(target, m)
        counts.append(calls[0])
        assert n == _n_int_reference(m, target, _n_real_200_halvings(m, target))
    assert max(counts) <= 6
    assert np.mean(counts) <= 2.5


def test_identical_hypotheses_are_flagged():
    params = replace(LOW_NOISE, xi=0.0)
    m = loglik_moments(HypothesisPair.from_params(params))
    with pytest.raises(HypothesesIndistinguishableError, match="straddle"):
        n_for_confidence(0.954, m)
    # without background the means straddle zero, but absence yields one
    # record alone, so its spread is zero: a refusal of its own
    m = loglik_moments(HypothesisPair.from_params(replace(LOW_NOISE, n_e=0.0, n_i=0.0)))
    assert m.mu_present < 0.0 < m.mu_absent and m.sigma_absent == 0.0
    with pytest.raises(HypothesesIndistinguishableError, match="spread is zero"):
        n_for_confidence(0.954, m)


def test_n_for_confidence_refuses_the_spreads_confidence_refuses():
    # every comparison with a NaN confidence is false, so the search once
    # returned 2 for a NaN spread where confidence() raised
    for sigma in (math.nan, -0.1):
        for bad in (LogLikMoments(-0.1, sigma, 0.1, 0.1), LogLikMoments(-0.1, 0.1, 0.1, sigma)):
            with pytest.raises(DegenerateMomentsError):
                confidence(10, bad)
            with pytest.raises(DegenerateMomentsError):
                n_for_confidence(0.954, bad)


# ---------------------------------------------------------------------------
# averaged posterior
# ---------------------------------------------------------------------------


def test_mean_posterior_frozen_values():
    assert mean_posterior(-2.0, 3.0) == pytest.approx(0.71742398589567646, rel=1e-10)
    assert mean_posterior(1.5, 0.5) == pytest.approx(0.19369072057709238, rel=1e-10)
    assert mean_posterior(0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert mean_posterior(-40.0, 2.0) == pytest.approx(1.0, abs=1e-9)


def test_mean_posterior_degenerate_spread():
    assert mean_posterior(-2.0, 0.0) == pytest.approx(float(expit(2.0)), rel=1e-14)
    for mu, sigma in ((0.0, -1.0), (0.0, math.nan), (math.nan, 1.0)):
        with pytest.raises(DegenerateMomentsError):
            mean_posterior(mu, sigma)


def test_mean_posterior_symmetry():
    # sigmoid(-y) + sigmoid(y) = 1, so mirrored means must sum to one
    assert mean_posterior(0.7, 1.3) + mean_posterior(-0.7, 1.3) == pytest.approx(
        1.0, abs=1e-10
    )
