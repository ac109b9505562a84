"""Tests for count-distribution construction and evaluation."""

import copy
import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import astuple, replace
from decimal import Decimal

import numpy as np
import pytest

from homdetect import photon_stats
from homdetect.bayes import PROB_FLOOR, HypothesisPair, loglik_moments
from homdetect.photon_stats import (
    CountDistribution,
    DegenerateParameterError,
    Outcome,
    ParameterError,
    Protocol,
    ProtocolParams,
    TruncationError,
    apply_saturation,
    build_distribution,
    derived_means,
    direct_pmf,
    hom_pmf,
)

E_MINUS_1 = 0.36787944117144233


def direct_params(**kw):
    return ProtocolParams(protocol=Protocol.DIRECT, **kw)


def hom_params(protocol=Protocol.COHERENT_HOM, **kw):
    return ProtocolParams(protocol=protocol, **kw)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "field,value",
    [
        ("xi", -0.1),
        ("xi", 1.5),
        ("eta", -0.2),
        ("eta", 2.0),
        ("epsilon", -0.5),
        ("epsilon", 1.01),
        ("n_c", -1.0),
        ("n_e", -0.01),
        ("n_i", -3.0),
        ("cos_theta", 1.2),
        ("cos_theta", -1.2),
        # booleans are not numbers, though float() reads them as 0 or 1
        ("xi", True),
        ("eta", np.bool_(True)),
        ("epsilon", False),
        ("n_c", np.bool_(False)),
        ("n_e", True),
        ("n_i", np.bool_(True)),
        ("cos_theta", False),
        # nor is anything but a real or a numeric string: these raised a bare
        # TypeError or ValueError, or were read as numbers
        ("eta", None),
        ("eta", [0.5]),
        ("eta", 1j),
        ("eta", "abc"),
        ("eta", b"1"),
        ("eta", Decimal("0.5")),
    ],
)
def test_rejects_out_of_range(field, value):
    with pytest.raises(ParameterError) as err:
        hom_params(**{field: value})
    assert field in str(err.value)


def test_non_numbers_are_refused_before_ranges():
    # every field is read as a number before any is range-checked
    with pytest.raises(ParameterError, match="eta must be a number, got None"):
        hom_params(xi=2.0, eta=None)
    with pytest.raises(ParameterError, match="cos_theta must be a number"):
        hom_params(xi=-1.0, cos_theta="abc")


def test_rejects_non_finite():
    for field in ("xi", "eta", "n_c"):
        with pytest.raises(ParameterError):
            hom_params(**{field: math.nan})
    with pytest.raises(ParameterError):
        hom_params(n_e=math.inf)


def test_incoherent_forces_zero_phase_average():
    p = hom_params(protocol=Protocol.INCOHERENT_HOM, cos_theta=0.9)
    assert p.cos_theta == 0.0


_VARIANT_VALUES = {
    "xi": (0.0, 0.25, 1, np.float64(0.5), "0.75"),
    "eta": (0.0, 0.3, 1, np.float32(0.9)),
    "epsilon": (0.0, 0.5, 1),
    "n_c": (0.0, 1e-3, 6, np.float64(1e3), 1e300),
    "n_e": (0.0, 0.01, 10),
    "n_i": (0.0, 2.5, np.int64(3)),
    "cos_theta": (-1.0, -0.5, 0.0, 0.5, 1),
}
_REFUSED = (math.nan, math.inf, -math.inf, -1.5, True, False, np.bool_(True), np.bool_(False),
            None, [0.5], 1j, "abc", b"1", Decimal("0.5"))


def _made(make):
    """The parameter set make() returns with its hash, or the message of
    the ParameterError it raises."""
    try:
        p = make()
    except ParameterError as exc:
        return str(exc)
    return p, hash(p)


@pytest.mark.parametrize("protocol", list(Protocol))
def test_one_field_variant_matches_replace(protocol):
    # the variant checks only the field it changes, by the rule and with
    # the message __post_init__ uses, and gives replace's value and hash
    base = ProtocolParams(protocol, xi=0.2, eta=0.8, epsilon=0.9, n_c=3.0, n_e=0.4, n_i=0.1,
                          cos_theta=0.7)
    for name, accepted in _VARIANT_VALUES.items():
        for i, value in enumerate(accepted + _REFUSED):
            made = _made(lambda: base._with_field(name, value))
            assert made == _made(lambda: replace(base, **{name: value})), (name, value)
            if i < len(accepted):
                varied = made[0]
                assert all(type(getattr(varied, f)) is float for f in _VARIANT_VALUES)
                assert varied.protocol is protocol
                if protocol is Protocol.INCOHERENT_HOM:
                    assert varied.cos_theta == 0.0
            else:
                assert isinstance(made, str) and name in made
    assert base._with_field("xi", 0.5) != base and base.xi == 0.2


@pytest.mark.parametrize("protocol", list(Protocol))
def test_equal_params_hash_alike_however_made(protocol):
    # a variant made from a hashed set hashes by its own fields: made by
    # the constructor, _with_field or replace, equal sets hash alike and
    # find each other
    base = ProtocolParams(protocol, xi=0.2, eta=0.8, epsilon=0.9, n_c=3.0, n_e=0.4, n_i=0.1,
                          cos_theta=0.7)
    hash(base)
    for name, accepted in _VARIANT_VALUES.items():
        for value in accepted:
            made = (ProtocolParams(**{**base.to_dict(), name: value}),
                    base._with_field(name, value), replace(base, **{name: value}))
            assert made[0] == made[1] == made[2], (name, value)
            assert len({hash(p) for p in made}) == 1, (name, value)
            assert {made[0]: name}[made[1]] == {made[2]: name}[made[0]] == name
    assert hash(ProtocolParams(protocol, n_c=-0.0)) == hash(ProtocolParams(protocol, n_c=0.0))


def test_a_copied_or_pickled_set_is_found_in_another_process():
    # a copy or a pickle equals the set and hashes alike, and a pickle
    # finds an equal set made in a process of another string-hash seed
    params = hom_params(xi=0.3, n_c=2.5)
    for made in (pickle.loads(pickle.dumps(params)), copy.copy(params), copy.deepcopy(params)):
        assert made == params and hash(made) == hash(params)
    code = ("import pickle, sys; from homdetect.photon_stats import ProtocolParams as P; "
            "p = pickle.load(sys.stdin.buffer); "
            "print({p: 'found'}.get(P('coherent', xi=0.3, eta=p.eta, epsilon=p.epsilon, "
            "n_c=2.5, n_e=p.n_e, n_i=p.n_i, cos_theta=p.cos_theta)))")
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(params),
                         env=dict(os.environ, PYTHONHASHSEED="12345"), capture_output=True,
                         check=True)
    assert out.stdout.decode().strip() == "found"


@pytest.mark.parametrize("protocol", list(Protocol))
def test_mean_counts_summing_past_the_largest_float_are_refused(protocol):
    # each field is finite, but eta n_e + n_i, or 2 n_i on two detectors,
    # overflows n_bar to inf: made whole or varied, the set is refused
    base = ProtocolParams(protocol, n_e=1e308)
    for make in (lambda: ProtocolParams(protocol, n_e=1e308, n_i=1e308),
                 lambda: replace(base, n_i=1e308),
                 lambda: base._with_field("n_i", 1e308)):
        with pytest.raises(ParameterError, match="sum to n_bar = inf, past the largest float"):
            make()


def test_hom_pmf_refuses_a_mean_whose_square_overflows():
    # the bracket divides by n_bar**2, finite up to sqrt of the largest float
    top = math.sqrt(sys.float_info.max)
    assert hom_pmf(hom_params(n_c=0.0, n_e=top), 0, 0) == 0.0
    for make in (lambda: hom_params(n_c=0.0, n_e=math.nextafter(top, math.inf)),
                 lambda: hom_params(n_e=1e300),
                 lambda: hom_params(Protocol.INCOHERENT_HOM, n_i=1e308)):
        with pytest.raises(ParameterError):
            hom_pmf(make(), 0, 0)
    with pytest.raises(DegenerateParameterError, match=r"n_bar\*\*2 overflows"):
        hom_pmf(hom_params(n_e=1e300), 0, 0)


def test_boundary_values_accepted():
    hom_params(xi=0.0)
    hom_params(xi=1.0)
    hom_params(eta=0.0, xi=0.0)
    hom_params(epsilon=1.0)
    hom_params(cos_theta=-1.0)


def test_params_round_trip_through_dict():
    p = hom_params(xi=0.3, eta=0.7, epsilon=0.95, n_c=2.5, n_e=0.1, n_i=0.2, cos_theta=-0.4)
    assert ProtocolParams.from_dict(p.to_dict()) == p


def test_protocol_accepts_string_names():
    p = ProtocolParams(protocol="direct")
    assert p.protocol is Protocol.DIRECT


# ---------------------------------------------------------------------------
# derived means
# ---------------------------------------------------------------------------


def test_direct_means():
    m = derived_means(direct_params(xi=0.1, eta=0.8, n_e=0.5, n_i=0.25))
    assert m.n_noise == pytest.approx(0.8 * 0.5 + 0.25, abs=0.0)
    assert m.n_bar == m.n_noise


def test_hom_means():
    m = derived_means(hom_params(xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.8, n_i=0.8))
    expected_noise = 0.8 * 0.1 * 1.0 + 0.8 * 0.8 + 2 * 0.8
    assert m.n_noise == pytest.approx(expected_noise, rel=1e-15)
    assert m.n_bar == pytest.approx(0.8 * 0.9 * 1.0 + expected_noise, rel=1e-15)


# ---------------------------------------------------------------------------
# direct pmf
# ---------------------------------------------------------------------------


def test_direct_noiseless_is_bernoulli():
    p = direct_params(xi=0.3, eta=0.5)
    assert direct_pmf(p, 0) == pytest.approx(1.0 - 0.15, abs=0.0)
    assert direct_pmf(p, 1) == pytest.approx(0.15, abs=0.0)
    assert direct_pmf(p, 2) == 0.0


def test_direct_convolution_frozen_values():
    # eta * n_e + n_i = 1 exactly; signal branch weight eta * xi = 0.08
    p = direct_params(xi=0.1, eta=0.8, n_e=0.0, n_i=1.0)
    expected = {
        0: 0.33844908587772693,
        1: 0.36787944117144233,
        2: 0.19865489823257892,
        3: 0.071123358626478825,
    }
    for k, value in expected.items():
        assert direct_pmf(p, k) == pytest.approx(value, rel=1e-14)


def test_direct_pure_background_at_xi_zero():
    p = direct_params(xi=0.0, eta=0.8, n_e=0.5, n_i=0.1)
    n = derived_means(p).n_noise
    for k in range(6):
        poisson = math.exp(-n) * n**k / math.factorial(k)
        assert direct_pmf(p, k) == pytest.approx(poisson, rel=1e-13)


def test_direct_pmf_validates_inputs():
    with pytest.raises(ParameterError):
        direct_pmf(hom_params(), 0)
    with pytest.raises(ParameterError):
        direct_pmf(direct_params(), -1)
    # the pmf is evaluated at the count itself, so a non-integer is refused
    for bad in (1.5, 1.0, True):
        with pytest.raises(ParameterError, match="integers"):
            direct_pmf(direct_params(), bad)


# ---------------------------------------------------------------------------
# two-detector pmf
# ---------------------------------------------------------------------------


def test_hom_frozen_values():
    p = hom_params(xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.8, n_i=0.8)
    assert hom_pmf(p, 0, 0) == pytest.approx(0.044008098334662474, rel=1e-13)
    assert hom_pmf(p, 0, 1) == pytest.approx(0.079696943622992011, rel=1e-13)
    assert hom_pmf(p, 1, 0) == pytest.approx(0.057914466473917792, rel=1e-13)
    assert hom_pmf(p, 2, 1) == pytest.approx(0.070276490756916721, rel=1e-13)


def test_hom_interference_asymmetry_favors_second_detector():
    # positive phase: extra counts leave on detector 2, so p(0, 1) > p(1, 0)
    p = hom_params(xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.8, n_i=0.8)
    assert hom_pmf(p, 0, 1) > hom_pmf(p, 1, 0)
    flipped = hom_params(
        xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.8, n_i=0.8, cos_theta=-1.0
    )
    assert hom_pmf(flipped, 1, 0) == pytest.approx(hom_pmf(p, 0, 1), rel=1e-14)


def test_hom_count_difference_mean_matches_closed_form():
    # E[k - j] = 2 eta cos_theta sqrt(xi (1 - xi) epsilon n_c), independent
    # of the symmetric backgrounds
    cases = [
        dict(xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.8, n_i=0.8, cos_theta=1.0),
        dict(xi=0.3, eta=0.6, epsilon=1.0, n_c=2.0, n_e=0.0, n_i=0.5, cos_theta=0.5),
        dict(xi=0.5, eta=1.0, epsilon=0.7, n_c=0.5, n_e=0.2, n_i=0.0, cos_theta=-0.8),
    ]
    for kw in cases:
        p = hom_params(**kw)
        dist = build_distribution(p)
        counts = np.arange(dist.k_max + 1.0)
        mean_diff = float((dist.probs * (counts[None, :] - counts[:, None])).sum())
        predicted = (
            2.0
            * kw["eta"]
            * kw["cos_theta"]
            * math.sqrt(kw["xi"] * (1 - kw["xi"]) * kw["epsilon"] * kw["n_c"])
        )
        assert mean_diff == pytest.approx(predicted, abs=1e-10)


def test_hom_frozen_difference_mean():
    p = hom_params(xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.8, n_i=0.8)
    dist = build_distribution(p)
    counts = np.arange(dist.k_max + 1.0)
    mean_diff = float((dist.probs * (counts[None, :] - counts[:, None])).sum())
    assert mean_diff == pytest.approx(0.45536798306424664, rel=1e-10)


def test_perfect_interference_suppresses_equal_counts():
    p = hom_params(xi=1.0, eta=1.0, epsilon=1.0, n_c=2.0)
    for j in range(6):
        assert hom_pmf(p, j, j) == 0.0


def test_xi_zero_is_product_of_poissons():
    p = hom_params(xi=0.0, eta=0.9, epsilon=0.8, n_c=2.0, n_e=0.3, n_i=0.1)
    half = derived_means(p).n_bar / 2.0
    for j in range(4):
        for k in range(4):
            expected = (
                math.exp(-2 * half)
                * half ** (j + k)
                / (math.factorial(j) * math.factorial(k))
            )
            assert hom_pmf(p, j, k) == pytest.approx(expected, rel=1e-12)


def test_incoherent_equals_phase_zero_coherent_bitwise():
    kw = dict(xi=0.2, eta=0.85, epsilon=0.9, n_c=1.5, n_e=0.4, n_i=0.2)
    inc = build_distribution(hom_params(protocol=Protocol.INCOHERENT_HOM, **kw))
    coh0 = build_distribution(hom_params(cos_theta=0.0, **kw))
    assert np.array_equal(inc.probs, coh0.probs)


@pytest.mark.parametrize("protocol", [Protocol.COHERENT_HOM, Protocol.INCOHERENT_HOM])
def test_hom_without_light_gives_the_exact_limit(protocol):
    # n_bar = 0: no light reaches the detectors but the emitter's photon,
    # detected with probability eta xi at either detector alike; at
    # eta = 0 the table is a point mass at (0, 0)
    for kw in (dict(eta=0.0, n_c=1.0), dict(eta=0.7, n_c=0.0), dict(eta=1.0, epsilon=0.5, n_c=0.0)):
        params = hom_params(protocol, xi=0.5, cos_theta=0.3, **kw)
        assert derived_means(params).n_bar == 0.0
        q = params.eta * params.xi
        expected = np.zeros((21, 21))
        expected[0, 0], expected[1, 0], expected[0, 1] = 1.0 - q, q / 2.0, q / 2.0
        dist = build_distribution(params)
        assert np.array_equal(dist.probs, expected)
        assert (hom_pmf(params, 0, 0), hom_pmf(params, 0, 1), hom_pmf(params, 1, 1)) == \
            (1.0 - q, q / 2.0, 0.0)
    # n_bar > 0 whose square underflows to 0 would divide 0 by 0
    with pytest.raises(DegenerateParameterError):
        hom_pmf(hom_params(xi=0.5, n_c=0.0, n_e=0.0, n_i=1e-170), 0, 0)


def test_hom_vacuum_inputs_give_point_mass_at_zero():
    p = hom_params(xi=0.0, eta=0.5, epsilon=1.0, n_c=0.0)
    dist = build_distribution(p)
    assert dist.prob(0, 0) == 1.0
    assert dist.total() == 1.0


def test_hom_pmf_validates_inputs():
    with pytest.raises(ParameterError):
        hom_pmf(direct_params(), 0, 0)
    with pytest.raises(ParameterError):
        hom_pmf(hom_params(), -1, 0)
    for bad in ((2.5, 0), (0, 1.0), (True, 0)):
        with pytest.raises(ParameterError, match="integers"):
            hom_pmf(hom_params(), *bad)
    assert hom_pmf(hom_params(), np.int64(1), 2) == hom_pmf(hom_params(), 1, 2)


# ---------------------------------------------------------------------------
# the table kernel, cell for cell against the elementwise expression
# ---------------------------------------------------------------------------


def _elementwise_pmf(params, counts):
    """The pmf over counts 0..n per detector with the two-detector bracket
    written as one expression over the whole (j, k) grid: the reference
    for the kernel, which evaluates it once per j + k and per j - k."""
    n_bar, n_noise = derived_means(params)
    p = params
    if p.protocol is Protocol.DIRECT:
        envelope = photon_stats._poisson_vec(counts, n_noise)
    elif n_bar > 0.0:
        lp = photon_stats._log_poisson(counts, n_bar / 2.0)
        envelope = np.exp(lp[:, None] + lp[None, :])
    else:
        envelope = 1.0 * np.outer(counts == 0.0, counts == 0.0)
    if p.xi == 0.0:
        return envelope
    if p.protocol is Protocol.DIRECT:
        q = p.eta * p.xi
        table = (1.0 - q) * envelope + q * photon_stats._poisson_vec(counts - 1.0, n_noise)
    else:
        total = counts[:, None] + counts[None, :]
        diff = counts[:, None] - counts[None, :]
        cross = 2.0 * p.eta * p.cos_theta * math.sqrt(
            max(0.0, p.xi * (1.0 - p.xi)) * p.epsilon * p.n_c
        )
        bracket = (
            1.0
            - p.eta * p.xi
            + p.eta * p.xi * n_noise * total / n_bar**2
            + p.eta**2 * p.xi * p.epsilon * p.n_c * diff**2 / n_bar**2
            - cross * diff / n_bar
        )
        table = envelope * bracket
    return np.where((table < 0.0) & (table >= photon_stats.NEG_CLAMP), 0.0, table)


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _kernel_cases():
    rng = np.random.default_rng(20261018)
    cases = []
    for protocol in Protocol:
        for xi in (0.0, None, 1.0):
            for sign in (1.0, -1.0):
                for _ in range(3):
                    cases.append(ProtocolParams(
                        protocol=protocol,
                        xi=rng.uniform(0.01, 0.99) if xi is None else xi,
                        eta=rng.uniform(0.05, 1.0),
                        epsilon=rng.uniform(0.05, 1.0),
                        n_c=10.0 ** rng.uniform(-3.0, 2.5),
                        n_e=10.0 ** rng.uniform(-3.0, 1.0),
                        n_i=10.0 ** rng.uniform(-3.0, 1.0),
                        cos_theta=sign * rng.uniform(0.0, 1.0),
                    ))
    # perfect interference at xi = 0.1, n_c = 1: the bracket vanishes on a
    # diagonal and rounding leaves cells in [NEG_CLAMP, 0) to clamp
    for sign in (1.0, -1.0):
        cases.append(hom_params(xi=0.1, eta=1.0, epsilon=1.0, n_c=1.0, cos_theta=sign))
    # vacuum (n_bar = 0), and n_bar**2 subnormal but nonzero: just above
    # the band where it underflows to 0 and both raise
    cases.append(direct_params(xi=0.3))
    cases.append(hom_params(xi=0.0, n_c=0.0))
    cases.append(hom_params(xi=0.5, n_c=0.0, n_e=0.0, n_i=1e-160))
    return cases


@pytest.mark.parametrize("params", _kernel_cases())
def test_table_kernel_matches_elementwise_expression_bitwise(params):
    k_max = photon_stats._table_k_max(params)
    counts = np.arange(k_max + 1.0)
    table = photon_stats._pmf_tables(params, counts)
    assert _same_bits(table, _elementwise_pmf(params, counts))
    if 0.0 < derived_means(params).n_bar ** 2 < sys.float_info.min:
        # a subnormal n_bar**2 leaves the bracket so imprecise that the
        # table sums to 1 + 5.6e-6, which the table refuses when made
        with pytest.raises(ParameterError, match="table mass"):
            build_distribution(params)
    else:
        assert _same_bits(build_distribution(params).probs, table)
    # the number-basis comparison reads the closed form on 0..10
    small = np.arange(11.0)
    assert _same_bits(photon_stats._pmf_tables(params, small), _elementwise_pmf(params, small))
    rng = np.random.default_rng(int(1e6 * params.n_c) % 2**32)
    for j, k in rng.integers(0, k_max + 1, size=(5, 2)).tolist():
        if params.protocol is Protocol.DIRECT:
            expected = _elementwise_pmf(params, np.array([float(j)]))[0]
            assert _same_bits(direct_pmf(params, j), expected)
        else:
            expected = _elementwise_pmf(params, np.array([float(j), float(k)]))[0, 1]
            assert _same_bits(hom_pmf(params, j, k), expected)


def test_table_kernel_clamps_the_cells_the_expression_clamps(monkeypatch):
    params = hom_params(xi=0.1, eta=1.0, epsilon=1.0, n_c=1.0)
    counts = np.arange(build_distribution(params).k_max + 1.0)
    clamped = []
    real = photon_stats._clamp_negative

    def counting(table):
        clamped.append(int(((table < 0.0) & (table >= photon_stats.NEG_CLAMP)).sum()))
        return real(table)

    monkeypatch.setattr(photon_stats, "_clamp_negative", counting)
    table = photon_stats._pmf_tables(params, counts)
    assert clamped[0] > 0
    assert _same_bits(table, _elementwise_pmf(params, counts))


@pytest.mark.parametrize("params", _kernel_cases())
def test_log_ratio_and_moments_match_the_out_of_place_expression_bitwise(params):
    # the log ratios are written in place; each cell keeps the bits, sign
    # included, of the one expression, and so do the moments summed from it
    if 0.0 < derived_means(params).n_bar ** 2 < sys.float_info.min:
        with pytest.raises(ParameterError, match="table mass"):
            HypothesisPair.from_params(params)
        return
    pair = HypothesisPair.from_params(params)
    pe, pa = pair.present.probs, pair.absent.probs
    want = np.log(np.maximum(pa, PROB_FLOOR)) - np.log(np.maximum(pe, PROB_FLOOR))
    assert _same_bits(pair.log_ratio, want)
    flat = want.ravel()
    moments = []
    for w in (pe.ravel(), pa.ravel()):
        mu, second = float(np.dot(w, flat)), float(np.dot(w, flat * flat))
        moments += [mu, math.sqrt(max(0.0, second - mu * mu))]
    got = loglik_moments(pair)
    assert np.array_equal(np.array(astuple(got)).view(np.uint64),
                          np.array(moments).view(np.uint64)), params


def _masked_clamp(p):
    # the clamp as it was before it returned early, kept as the reference
    flat = p.reshape(-1)
    negative = np.flatnonzero(flat < 0.0)
    flat[negative[flat[negative] >= photon_stats.NEG_CLAMP]] = 0.0
    return p


@pytest.mark.parametrize("cells", [
    [0.3, np.nan, -5e-16, -0.0, 0.0, -1e-3, photon_stats.NEG_CLAMP, 1e-300, -np.inf],
    [0.3, np.nan, 0.0, 0.2],
    [0.3, -0.0, 0.0, 0.2],
    [-np.nan, -1e-16],
])
def test_clamp_leaves_every_table_as_the_masked_clamp_does(cells):
    # a NaN fails the min() >= 0 test that skips the mask, so a table
    # holding one is clamped like any table with a negative cell
    for shape in ((len(cells),), (1, len(cells))):
        table = np.array(cells).reshape(shape)
        want = _masked_clamp(table.copy())
        got = photon_stats._clamp_negative(table)
        assert got is table
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), cells


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_single_cells_at_a_large_count_within_two_gib():
    # one cell used to cost the whole table up to its count, 20 GB here
    code = ("from homdetect.photon_stats import ProtocolParams, direct_pmf, hom_pmf; "
            "print(hom_pmf(ProtocolParams(protocol='coherent', n_c=1.0), 50000, 0), "
            "direct_pmf(ProtocolParams(protocol='direct', n_e=1.0), 50000))")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, OMP_NUM_THREADS="1"),
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0.0", "0.0"]


# ---------------------------------------------------------------------------
# normalization and nonnegativity over a parameter grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("xi", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("eta", [0.1, 0.9, 1.0])
@pytest.mark.parametrize("noise", [0.0, 0.7])
def test_direct_normalization_grid(xi, eta, noise):
    dist = build_distribution(direct_params(xi=xi, eta=eta, n_e=noise, n_i=noise))
    assert dist.probs.min() >= 0.0
    assert dist.total() + dist.tail_mass == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("protocol", [Protocol.COHERENT_HOM, Protocol.INCOHERENT_HOM])
@pytest.mark.parametrize("xi", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("epsilon", [0.5, 1.0])
@pytest.mark.parametrize("n_c", [0.4, 3.0])
def test_hom_normalization_grid(protocol, xi, epsilon, n_c):
    p = hom_params(protocol=protocol, xi=xi, eta=0.8, epsilon=epsilon, n_c=n_c, n_e=0.3, n_i=0.1)
    dist = build_distribution(p)
    assert dist.probs.min() >= 0.0
    assert dist.total() + dist.tail_mass == pytest.approx(1.0, abs=1e-12)


def test_marginals_of_each_detector_share_the_same_mean():
    # phase zero keeps the two outputs statistically identical
    p = hom_params(xi=0.4, eta=0.9, epsilon=0.8, n_c=1.2, n_e=0.2, n_i=0.1, cos_theta=0.0)
    dist = build_distribution(p)
    counts = np.arange(dist.k_max + 1.0)
    mean_1 = float(dist.probs.sum(axis=1) @ counts)
    mean_2 = float(dist.probs.sum(axis=0) @ counts)
    assert mean_1 == pytest.approx(mean_2, rel=1e-12)
    # total mean = reference and backgrounds plus the detected emitter photon
    expected_total = derived_means(p).n_bar + p.eta * p.xi
    assert mean_1 + mean_2 == pytest.approx(expected_total, rel=1e-9)


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------


def test_truncation_cap_raises():
    with pytest.raises(TruncationError):
        build_distribution(direct_params(xi=0.0, n_e=0.0, n_i=9000.0))
    # a huge mean's k_max is written in three digits, not three hundred
    with pytest.raises(TruncationError, match=r"^k_max 5e\+299 at n_bar = 1e\+300 ") as info:
        build_distribution(hom_params(n_c=0.0, n_e=1e300))
    assert len(str(info.value)) < 100


def test_bright_reference_table_builds_once_within_allowance(monkeypatch):
    # at n_bar ~ 3000 the rounding in 1 - sum (~3e-12) used to exceed a
    # fixed 1e-12 and refuse the table; the allowance grows with the table,
    # so the one table built at the 12-sigma size is accepted
    params = hom_params(
        protocol=Protocol.INCOHERENT_HOM, eta=0.99, n_c=3000.0, n_e=10.0, n_i=10.0
    )
    sizes = []
    real = photon_stats._pmf_tables

    def once(p, counts):
        if sizes:
            raise AssertionError(f"second table built over {counts.size} counts after {sizes}")
        sizes.append(counts.size - 1)
        return real(p, counts)

    monkeypatch.setattr(photon_stats, "_pmf_tables", once)
    dist = build_distribution(params)
    assert sizes == [1965] and dist.k_max == 1965
    assert 1e-12 < dist.tail_mass <= photon_stats._tail_allowance(params, 1965)


@pytest.mark.parametrize("params", [
    direct_params(n_e=0.5),
    hom_params(n_c=6.0, n_e=1.0, n_i=1.0),
    hom_params(protocol=Protocol.INCOHERENT_HOM, eta=0.99, n_c=3000.0, n_e=10.0, n_i=10.0),
], ids=["direct", "coherent", "bright-incoherent"])
def test_table_missing_mass_raises(params, monkeypatch):
    # the allowance covers rounding only: a table short of 1e-9 is refused
    real = photon_stats._pmf_tables
    monkeypatch.setattr(photon_stats, "_pmf_tables",
                        lambda p, counts: real(p, counts) * (1.0 - 1e-9))
    with pytest.raises(TruncationError, match="untabulated mass"):
        build_distribution(params)


@pytest.mark.parametrize("saturation", [None, 2])
def test_table_checks_its_own_mass_in_both_directions(saturation):
    dist = build_distribution(hom_params(n_c=6.0, n_e=1.0, n_i=1.0))
    if saturation is not None:
        dist = apply_saturation(dist, saturation)
    # tail_mass is derived from the table, never given
    with pytest.raises(TypeError):
        CountDistribution(params=dist.params, probs=dist.probs, tail_mass=0.0)
    for scale in (1.0 + 1e-9, np.nan):
        with pytest.raises(ParameterError, match="table mass"):
            CountDistribution(dist.params, dist.probs * scale, saturation=saturation)
    # mass missing from a saturated table cannot be untabulated
    with pytest.raises(TruncationError if saturation is None else ParameterError):
        CountDistribution(dist.params, dist.probs * (1.0 - 1e-9), saturation=saturation)


def test_saturated_table_spans_its_threshold():
    dist = apply_saturation(build_distribution(hom_params(n_c=0.5)), 2)
    for probs in (np.pad(dist.probs, ((0, 1), (0, 1))), np.pad(dist.probs, ((0, 0), (0, 1)))):
        with pytest.raises(ParameterError, match="saturated at 2 spans 0..2"):
            CountDistribution(dist.params, probs, saturation=2)


def test_bright_folds_keep_the_allowance_of_their_table():
    # a bright table's rounding can leave its sum above 1 by more than the
    # 1e-12 that a 0..t table alone would allow (2e-12 at n_c = 3034); a
    # fold carries the rounding of the table it was folded from, and the
    # allowance of that table's size accepts it
    params = hom_params(xi=0.1, eta=0.9, epsilon=0.9, n_c=3000.0, n_e=10.0, n_i=10.0)
    dist = build_distribution(params)
    assert photon_stats._tail_allowance(params, 1) == 1e-12
    assert photon_stats._tail_allowance(params, dist.k_max) > 2e-11
    over = CountDistribution(params, dist.probs * (1.0 + 5e-12))
    for t in (1, 2, 4):
        assert apply_saturation(over, t).total() - 1.0 > 4e-12


def test_tail_allowance_bounds():
    # the 1e-12 floor holds for small tables, and at the 10000-count cap the
    # allowance stays below 1e-9
    assert photon_stats._tail_allowance(direct_params(n_e=0.5), 20) == 1e-12
    at_cap = photon_stats._tail_allowance(hom_params(eta=1.0, n_c=17640.0), 10_000)
    assert 1e-10 < at_cap < 1e-9


def test_outcomes_row_major_order():
    dist = build_distribution(hom_params(n_c=0.5))
    top = dist.k_max
    order = [o for o, _ in dist.outcomes()]
    assert len(order) == (top + 1) ** 2
    assert order[: top + 2] == [Outcome(0, k) for k in range(top + 1)] + [Outcome(1, 0)]
    total = sum(p for _, p in dist.outcomes())
    assert total == pytest.approx(dist.total(), rel=1e-14)


def test_probs_array_is_read_only():
    dist = build_distribution(direct_params(n_e=0.5))
    with pytest.raises(ValueError):
        dist.probs[0] = 0.5


def test_prob_guards():
    dist = build_distribution(hom_params(n_c=0.5))
    with pytest.raises(ValueError):
        dist.prob(-1, 0)
    with pytest.raises(ValueError):
        dist.prob(0)
    assert dist.prob(dist.k_max + 5, 0) == 0.0
    flat = build_distribution(direct_params(n_e=0.5))
    with pytest.raises(ValueError):
        flat.prob(0, 1)


@pytest.mark.parametrize("count", [1.5, True, -1])
def test_prob_and_cell_refuse_counts_that_are_not_integers_at_least_zero(count):
    # prob(1.5) used to raise IndexError and prob(True) a numpy TypeError
    flat = build_distribution(direct_params(n_e=0.5))
    joint = build_distribution(hom_params(n_c=0.5))
    for call in (lambda: flat.prob(count), lambda: flat.cell(count),
                 lambda: joint.prob(count, 0), lambda: joint.cell(0, count)):
        with pytest.raises(ParameterError, match="integers"):
            call()


def test_cell_locates_clips_and_leaves_the_table():
    joint = build_distribution(hom_params(n_c=0.5))
    assert joint.cell(1, 2) == (1, 2)
    assert joint.cell(joint.k_max + 1, 0) is None
    sat = apply_saturation(joint, 2)
    assert sat.cell(7, 1) == (2, 1)
    assert sat.prob(7, 1) == float(sat.probs[2, 1])


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------


def test_saturation_folds_mass_and_normalizes():
    p = hom_params(xi=0.1, eta=0.9, epsilon=0.9, n_c=6.0, n_e=1.0, n_i=1.0)
    dist = build_distribution(p)
    for t in (1, 2, 4):
        sat = apply_saturation(dist, t)
        assert sat.probs.shape == (t + 1, t + 1)
        assert sat.total() == pytest.approx(1.0, abs=1e-12)
        assert sat.saturation == t
        assert sat.tail_mass == 0.0
        # interior bins are untouched
        assert np.array_equal(sat.probs[:t, :t], dist.probs[:t, :t])
        # boundary bin absorbs everything at or above the threshold
        edge_mass = dist.probs[t:, :t].sum(axis=0)
        assert np.allclose(sat.probs[t, :t], edge_mass, rtol=0, atol=1e-15)


def test_saturated_binary_detector_direct():
    p = direct_params(xi=0.1, eta=0.8, n_e=0.5, n_i=0.5)
    dist = build_distribution(p)
    sat = apply_saturation(dist, 1)
    assert sat.probs.shape == (2,)
    assert sat.prob(0) == pytest.approx(dist.prob(0), abs=0.0)
    assert sat.prob(1) == pytest.approx(1.0 - dist.prob(0), abs=1e-14)
    # counts above the boundary clip onto it
    assert sat.prob(9) == sat.prob(1)


def test_saturation_validation():
    dist = build_distribution(direct_params(n_e=0.5))
    with pytest.raises(ParameterError):
        apply_saturation(dist, 0)
    with pytest.raises(ParameterError):
        apply_saturation(dist, 2.5)
    once = apply_saturation(dist, 2)
    with pytest.raises(ParameterError):
        apply_saturation(once, 1)
    # the table cap bounds the threshold as it bounds k_max
    assert apply_saturation(dist, 10_000).k_max == 10_000
    with pytest.raises(ParameterError, match="exceeds the cap"):
        apply_saturation(dist, 10_001)


def test_saturation_refuses_a_boolean_threshold():
    # True passed the integer check and then indexed as a mask, adding the
    # folded mass to every bin: this table came back as [1.0, 0.1125]
    dist = build_distribution(direct_params(xi=0.1, eta=0.8, n_e=0.02, n_i=0.02))
    for flag in (True, False, np.bool_(True)):
        with pytest.raises(ParameterError, match="saturation threshold"):
            apply_saturation(dist, flag)


def test_saturation_beyond_table_keeps_values():
    dist = build_distribution(direct_params(xi=0.3, eta=1.0))  # support {0, 1}
    sat = apply_saturation(dist, 5)
    assert sat.probs.shape == (6,)
    assert sat.prob(0) == pytest.approx(0.7, abs=1e-15)
    assert sat.prob(1) == pytest.approx(0.3, abs=1e-15)
    assert sat.prob(5) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_csv_round_trip():
    dist = build_distribution(hom_params(n_c=0.8, n_e=0.1))
    lines = dist.csv_text().strip().split("\n")
    assert lines[0] == "j,k,p"
    assert len(lines) == 1 + (dist.k_max + 1) ** 2
    j, k, p = lines[1].split(",")
    assert (int(j), int(k)) == (0, 0)
    assert float(p) == dist.prob(0, 0)


def test_csv_direct_header():
    dist = build_distribution(direct_params(n_e=0.2))
    lines = dist.csv_text().strip().split("\n")
    assert lines[0] == "j,p"
    assert len(lines) == 1 + dist.k_max + 1


def test_json_round_trip():
    dist = build_distribution(hom_params(n_c=0.8))
    doc = json.loads(json.dumps(dist.to_json_dict()))
    assert doc["k_max"] == dist.k_max == 20
    assert len(doc["entries"]) == (dist.k_max + 1) ** 2
    assert doc["saturation"] is None
    assert ProtocolParams.from_dict(doc["params"]) == dist.params
    assert doc["entries"][1] == [0, 1, dist.prob(0, 1)]
