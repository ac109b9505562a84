"""Tests for the number-basis cross-check of the two-detector statistics."""

import math
import tracemalloc

import numpy as np
import pytest

from homdetect import fock_oracle
from homdetect.fock_oracle import (
    OracleConfig,
    OracleTruncationError,
    compare_with_closed_form,
    joint_pmf,
    oracle_pmf,
    oracle_table,
    traced_pmf,
)
from homdetect.photon_stats import (
    ParameterError,
    Protocol,
    ProtocolParams,
    _poisson_vec,
    apply_saturation,
    build_distribution,
    derived_means,
    hom_pmf,
)


def coherent(**kw):
    return ProtocolParams(protocol=Protocol.COHERENT_HOM, **kw)


def incoherent(**kw):
    return ProtocolParams(protocol=Protocol.INCOHERENT_HOM, **kw)


# ---------------------------------------------------------------------------
# configuration guards
# ---------------------------------------------------------------------------


def test_rejects_single_detector_protocol():
    with pytest.raises(ParameterError):
        OracleConfig(params=ProtocolParams(protocol=Protocol.DIRECT))


def test_rejects_bright_reference():
    with pytest.raises(ParameterError):
        OracleConfig(params=coherent(n_c=4.5))


def test_rejects_undersized_basis():
    with pytest.raises(ParameterError):
        OracleConfig(params=coherent(n_c=1.0), fock_dim=1)
    with pytest.raises(OracleTruncationError):
        OracleConfig(params=coherent(n_c=4.0), fock_dim=4)
    # a whole float, a numeric string or a boolean is not an integer
    for bad in (40.0, "40", True):
        with pytest.raises(ParameterError, match="fock_dim must be an integer"):
            OracleConfig(params=coherent(n_c=1.0), fock_dim=bad)


def test_index_validation():
    cfg = OracleConfig(params=coherent(n_c=0.1), fock_dim=10)
    with pytest.raises(ParameterError):
        joint_pmf(cfg, 10, 0, 0, 0)
    with pytest.raises(ParameterError):
        traced_pmf(cfg, 0, -1)
    # a float or a boolean index is refused as a parameter error, not left
    # to numpy's indexing; a numpy integer is an integer
    for call in (lambda: oracle_table(cfg, 2.5, 3), lambda: traced_pmf(cfg, 1.5, 2),
                 lambda: joint_pmf(cfg, 1, 1, 1, 1.0), lambda: oracle_pmf(cfg, True, 1),
                 lambda: compare_with_closed_form(cfg, jk_sum_max=True)):
        with pytest.raises(ParameterError, match="mode index must be an integer"):
            call()
    assert joint_pmf(cfg, np.int64(1), 1, 1, 1) == joint_pmf(cfg, 1, 1, 1, 1)
    assert np.array_equal(oracle_table(cfg, np.int64(2), 3), oracle_table(cfg, 2, 3))


# ---------------------------------------------------------------------------
# internal consistency of the number-basis route
# ---------------------------------------------------------------------------


def test_joint_pmf_normalizes_over_all_four_modes():
    cfg = OracleConfig(params=coherent(xi=0.4, eta=0.7, epsilon=0.9, n_c=0.5), fock_dim=12)
    total = sum(
        joint_pmf(cfg, k, l, m, n)
        for k in range(12)
        for l in range(12)
        for m in range(12)
        for n in range(12)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("cos_theta", [0.3, -0.6, 1.0])
def test_traced_equals_explicit_loss_sum(cos_theta):
    # regression for the lost-mode interference term: at a phase that makes
    # the amplitudes genuinely complex, the analytic trace must still match
    # the brute-force sum over the lost pair
    cfg = OracleConfig(
        params=coherent(xi=0.3, eta=0.7, epsilon=0.9, n_c=1.0, cos_theta=cos_theta),
        fock_dim=25,
    )
    for k, l in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (3, 2)]:
        explicit = sum(
            joint_pmf(cfg, k, l, m, n)
            for m in range(cfg.fock_dim)
            for n in range(cfg.fock_dim)
        )
        assert traced_pmf(cfg, k, l) == pytest.approx(explicit, abs=1e-13)


def test_phase_average_reduces_to_zero_phase():
    # probabilities are linear in cos(theta), so the incoherent average
    # must coincide with the coherent table at phase average zero
    kw = dict(xi=0.2, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.1, n_i=0.05)
    inc = oracle_table(OracleConfig(params=incoherent(**kw)), 6, 6)
    coh0 = oracle_table(OracleConfig(params=coherent(cos_theta=0.0, **kw)), 6, 6)
    assert np.max(np.abs(inc - coh0)) < 1e-13


def test_single_outcome_phase_averages_reduce_to_zero_phase():
    # joint_pmf and traced_pmf take the incoherent phase average themselves
    kw = dict(xi=0.2, eta=0.8, epsilon=0.9, n_c=1.0)
    inc = OracleConfig(params=incoherent(**kw), fock_dim=20)
    coh0 = OracleConfig(params=coherent(cos_theta=0.0, **kw), fock_dim=20)
    for k, l, m, n in [(0, 0, 0, 0), (1, 0, 0, 1), (2, 1, 1, 0)]:
        assert joint_pmf(inc, k, l, m, n) == pytest.approx(joint_pmf(coh0, k, l, m, n), abs=1e-15)
    for k, l in [(0, 0), (1, 0), (2, 1)]:
        assert traced_pmf(inc, k, l) == pytest.approx(traced_pmf(coh0, k, l), abs=1e-15)


def test_residual_guard_fires_when_loss_box_too_small():
    # the lost pair's box is the basis: two photons per mode hold the faint
    # reference's norm but cut its lost-pair sums short
    cfg = OracleConfig(params=coherent(xi=0.5, eta=0.0, epsilon=1.0, n_c=1e-6), fock_dim=2)
    with pytest.raises(OracleTruncationError, match="raise fock_dim$"):
        traced_pmf(cfg, 0, 0)


# ---------------------------------------------------------------------------
# agreement with the closed form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("xi", [0.0, 0.1, 1.0])
def test_matches_closed_form_at_emission_endpoints(xi):
    cfg = OracleConfig(params=coherent(xi=xi, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.3, n_i=0.2))
    worst, _, ok = compare_with_closed_form(cfg, jk_sum_max=8, tol=1e-10)
    assert ok, f"worst deviation {worst}"


def test_matches_closed_form_complex_phase():
    cfg = OracleConfig(params=coherent(xi=0.3, eta=0.7, epsilon=0.8, n_c=2.0, cos_theta=0.3))
    worst, _, ok = compare_with_closed_form(cfg, jk_sum_max=8, tol=1e-10)
    assert ok, f"worst deviation {worst}"


def test_matches_closed_form_incoherent():
    cfg = OracleConfig(params=incoherent(xi=0.1, eta=0.9, epsilon=0.9, n_c=1.0, n_e=0.5, n_i=0.5))
    worst, _, ok = compare_with_closed_form(cfg, jk_sum_max=8, tol=1e-10)
    assert ok, f"worst deviation {worst}"


def test_oracle_pmf_single_outcome():
    params = coherent(xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0, n_e=0.8, n_i=0.8)
    cfg = OracleConfig(params=params)
    assert oracle_pmf(cfg, 0, 0) == pytest.approx(hom_pmf(params, 0, 0), abs=1e-12)
    assert oracle_pmf(cfg, 2, 1) == pytest.approx(hom_pmf(params, 2, 1), abs=1e-12)


def test_compare_reports_location_and_verdict():
    cfg = OracleConfig(params=coherent(xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0))
    worst, where, ok = compare_with_closed_form(cfg, jk_sum_max=4, tol=1e-8)
    assert ok and worst >= 0.0
    j, k = where
    assert 0 <= j and 0 <= k and j + k <= 4
    # an impossible tolerance flips the verdict but not the measurement
    worst2, _, ok2 = compare_with_closed_form(cfg, jk_sum_max=4, tol=0.0)
    assert worst2 == worst and not ok2


@pytest.mark.parametrize("tol", [float("nan"), -1e-12, float("inf")])
def test_compare_refuses_a_tolerance_not_finite_and_at_least_zero(tol):
    cfg = OracleConfig(params=coherent(xi=0.1, eta=0.8, epsilon=0.9, n_c=1.0))
    with pytest.raises(ParameterError, match="tolerance"):
        compare_with_closed_form(cfg, jk_sum_max=4, tol=tol)


# ---------------------------------------------------------------------------
# seeded property test
# ---------------------------------------------------------------------------


def test_closed_form_matches_oracle_at_random_points():
    # xi, eta and epsilon sit at 0 or 1 two times in three and the inputs
    # often go dark, so the edges and the no-light limit n_bar = 0 are covered
    rng = np.random.default_rng(20261018)

    def unit():
        return (0.0, 1.0, float(rng.uniform()))[rng.integers(3)]

    def background():
        return (0.0, float(10.0 ** rng.uniform(-3.0, 0.5)))[rng.integers(2)]

    degenerate = 0
    for _ in range(60):
        params = ProtocolParams(
            protocol=(Protocol.COHERENT_HOM, Protocol.INCOHERENT_HOM)[rng.integers(2)],
            xi=unit(), eta=unit(), epsilon=unit(),
            n_c=(0.0, float(rng.uniform(0.0, 4.0)))[rng.integers(2)],
            n_e=background(), n_i=background(),
            cos_theta=float(rng.uniform(-1.0, 1.0)),
        )
        direct = ProtocolParams(protocol=Protocol.DIRECT, xi=params.xi, eta=params.eta,
                                n_e=params.n_e, n_i=params.n_i)
        cfg = OracleConfig(params=params, fock_dim=30)
        if params.xi > 0.0 and derived_means(params).n_bar == 0.0:
            # the exact limit: the emitter's photon alone, at either detector alike
            degenerate += 1
            q = params.eta * params.xi
            assert oracle_pmf(cfg, 1, 0) == pytest.approx(q / 2.0, abs=1e-12)
            assert oracle_pmf(cfg, 0, 0) == pytest.approx(1.0 - q, abs=1e-12)
        worst, where, ok = compare_with_closed_form(cfg, tol=1e-12)
        assert ok, (params, worst, where)
        for p in (direct, params):
            dist = build_distribution(p)
            assert np.all(dist.probs >= 0.0), p
            assert abs(dist.total() + dist.tail_mass - 1.0) <= 1e-12, p
            saturated = apply_saturation(dist, int(rng.integers(1, 5)))
            assert abs(saturated.total() - (dist.total() + dist.tail_mass)) <= 1e-12, p
    assert degenerate > 0


# ---------------------------------------------------------------------------
# bit pin against the per-phase oracle
# ---------------------------------------------------------------------------

# The oracle as it was written before it ran per configuration: one phase
# at a time, the coherent-state recurrence on complex scalars, full
# fock_dim x fock_dim mode tensors, the lost-pair sums over their top-left
# box, and the phase average of a list of tables.


def ref_coherent_amplitudes(alpha, dim):
    c = np.zeros(dim, dtype=complex)
    c[0] = 1.0
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    return c * math.exp(-abs(alpha) ** 2 / 2.0)


def ref_raised(c):
    out = np.zeros_like(c)
    out[1:] = np.sqrt(np.arange(1, c.size)) * c[:-1]
    return out


def ref_amplitude_parts(cfg, cos_theta):
    p, dim = cfg.params, cfg.fock_dim
    sin_theta = math.sqrt(max(0.0, 1.0 - cos_theta * cos_theta))
    alpha_c = math.sqrt(p.n_c) * complex(cos_theta, sin_theta)
    alpha_d = math.sqrt(p.eta * p.epsilon / 2.0) * alpha_c
    alpha_l = math.sqrt((1.0 - p.eta) * p.epsilon / 2.0) * alpha_c
    d1, d2 = ref_coherent_amplitudes(-alpha_d, dim), ref_coherent_amplitudes(alpha_d, dim)
    l1, l2 = ref_coherent_amplitudes(-alpha_l, dim), ref_coherent_amplitudes(alpha_l, dim)
    U = np.outer(d1, d2)
    V = math.sqrt(p.eta / 2.0) * (np.outer(ref_raised(d1), d2) + np.outer(d1, ref_raised(d2)))
    W = np.outer(l1, l2)
    X = math.sqrt((1.0 - p.eta) / 2.0) * (np.outer(ref_raised(l1), l2)
                                          + np.outer(l1, ref_raised(l2)))
    return math.sqrt(1.0 - p.xi) * U + math.sqrt(p.xi) * V, math.sqrt(p.xi) * U, W, X


def ref_traced_table(cfg, cos_theta, k_hi, l_hi):
    B, E, W, X = ref_amplitude_parts(cfg, cos_theta)
    M = cfg.fock_dim
    s_ww = float(np.sum(np.abs(W) ** 2))
    s_xx = float(np.sum(np.abs(X) ** 2))
    s_wx = complex(np.sum(W * np.conj(X)))
    Bs, Es = B[: k_hi + 1, : l_hi + 1], E[: k_hi + 1, : l_hi + 1]
    table = np.abs(Bs) ** 2 * s_ww + np.abs(Es) ** 2 * s_xx + 2.0 * np.real(Bs * np.conj(Es) * s_wx)
    p = cfg.params
    n_l = (1.0 - p.eta) * p.epsilon * p.n_c / 2.0
    counts = np.arange(M, dtype=float)
    pois_row = _poisson_vec(counts, n_l)
    head = float(pois_row.sum())
    tail_ww = max(0.0, 1.0 - head * head)
    head_raised = float(((counts + 1.0) * pois_row)[: M - 1].sum())
    tail_xx = 2.0 * (1.0 - p.eta) * max(0.0, (n_l + 1.0) - head_raised * head)
    worst = 2.0 * float(np.max(np.abs(Bs) ** 2)) * tail_ww + 2.0 * float(
        np.max(np.abs(Es) ** 2)
    ) * tail_xx
    if worst > 1e-10:
        raise OracleTruncationError(
            f"lost-mode sum residual bound {worst:.3e} above 1e-10; raise fock_dim"
        )
    return table


def ref_oracle_table(cfg, j_max, k_max):
    f = lambda ct: ref_traced_table(cfg, ct, j_max, k_max)  # noqa: E731
    if cfg.params.protocol is not Protocol.INCOHERENT_HOM:
        traced = f(cfg.params.cos_theta)
    else:
        traced = np.mean([f(math.cos(2.0 * math.pi * i / 64)) for i in range(64)], axis=0)
    nu = derived_means(cfg.params).n_noise / 2.0
    noise_j = _poisson_vec(np.arange(j_max + 1.0), nu)
    noise_k = _poisson_vec(np.arange(k_max + 1.0), nu)
    return ref_convolved(traced, noise_j, noise_k)


def ref_convolved(traced, noise_j, noise_k):
    """The background convolution as one shifted slice update per (dj, dk)."""
    j_max, k_max = traced.shape[0] - 1, traced.shape[1] - 1
    out = np.zeros((j_max + 1, k_max + 1))
    for dj in range(j_max + 1):
        for dk in range(k_max + 1):
            out[dj:, dk:] += noise_j[dj] * noise_k[dk] * traced[: j_max + 1 - dj, : k_max + 1 - dk]
    return out


def _table_or_message(table, cfg, j_max, k_max):
    try:
        return table(cfg, j_max, k_max)
    except OracleTruncationError as exc:
        return str(exc)


@pytest.mark.simd_free
def test_oracle_table_keeps_every_bit_of_the_per_phase_oracle():
    # the bench compares the argmax cell of 1e-18 to 1e-15 noise, so the
    # table must keep its bits, not only its values; the basis, the
    # detected box and the phase all vary.  A third of the first 300
    # points take a basis of 2 photons per mode and a faint reference,
    # whose lost-pair sums that basis cuts short enough to make the
    # residual guard fire with its message.  The last 100 points sit at
    # xi = 1 with a lit loss pair, where the cross sum of W conj(X) weighs
    # most: summing it in another order moves bits at 4 % of them
    rng = np.random.default_rng(20261019)

    def unit():
        return (0.0, 1.0, float(rng.uniform()))[rng.integers(3)]

    tables = messages = 0
    for i in range(400):
        cross = i >= 300
        small = not cross and rng.integers(3) == 0
        if small:
            n_c = 10.0 ** float(rng.uniform(-8.0, -5.0))
        else:
            n_c = float(rng.uniform(0.0, 4.0)) if cross or rng.integers(2) else 0.0
        params = ProtocolParams(
            protocol=(Protocol.COHERENT_HOM, Protocol.INCOHERENT_HOM)[rng.integers(2)],
            xi=1.0 if cross else unit(),
            eta=float(rng.uniform()) if cross else unit(),
            epsilon=float(rng.uniform()) if cross else unit(),
            n_c=n_c,
            n_e=float(rng.uniform(0.0, 1.0)), n_i=float(rng.uniform(0.0, 1.0)),
            cos_theta=(1.0, -1.0, 0.0, float(rng.uniform(-1.0, 1.0)))[rng.integers(4)],
        )
        dim = 2 if small else int(rng.integers(12, 41))
        try:
            cfg = OracleConfig(params=params, fock_dim=dim)
        except OracleTruncationError:
            continue  # the basis is too small for this n_c
        j_max, k_max = (int(rng.integers(0, min(dim, 12))) for _ in range(2))
        want = _table_or_message(ref_oracle_table, cfg, j_max, k_max)
        got = _table_or_message(oracle_table, cfg, j_max, k_max)
        if isinstance(want, str):
            assert got == want, (params, dim)
            messages += 1
        else:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (params, dim)
            tables += 1
    assert tables > 250 and messages > 20


@pytest.mark.simd_free
@pytest.mark.parametrize("stack_bytes", [fock_oracle.STACK_BYTES, 4096])
def test_background_convolution_keeps_every_bit_of_the_slice_updates(monkeypatch, stack_bytes):
    # 300 tables at the default 11 x 11, where one stack holds every term,
    # then shapes whose stacks hold whole rows of dj or part of one; a
    # 4 KiB stack holds part of a row of 11 x 11 and one term of 25 x 25.
    # Each cell has the bits of the slice updates.  Zero cells and
    # backgrounds of mean 0 (a delta) add +0.0 terms
    monkeypatch.setattr(fock_oracle, "STACK_BYTES", stack_bytes)
    rng = np.random.default_rng(20261023)
    shapes = [(11, 11)] * 300 + [(1, 1), (1, 9), (9, 1), (4, 12), (25, 25), (30, 30),
                                 (27, 26), (40, 13), (64, 3), (60, 60)]
    for i, shape in enumerate(shapes):
        traced = rng.uniform(size=shape) * 10.0 ** rng.uniform(-18.0, 0.0, shape)
        traced[rng.uniform(size=shape) < 0.1] = 0.0
        nu = (0.0, float(rng.uniform(0.0, 5.0)), 10.0 ** rng.uniform(-8.0, 1.0))[i % 3]
        noise_j = _poisson_vec(np.arange(shape[0] + 0.0), nu)
        noise_k = _poisson_vec(np.arange(shape[1] + 0.0), nu)
        want = ref_convolved(traced, noise_j, noise_k)
        got = fock_oracle._convolved(traced, noise_j, noise_k)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (shape, nu)


def test_oracle_table_holds_no_mode_tensor_past_its_call():
    # an incoherent table at the basis cap: a per-phase tensor cache held
    # 4 x 64 complex 200 x 200 arrays (164 MB) after the call; the groups
    # of phases peak at about 4 MB and nothing outlives the call
    params = incoherent(xi=0.3, eta=0.7, epsilon=0.9, n_c=2.0, n_e=0.1, n_i=0.1)
    oracle_table(OracleConfig(params=params, fock_dim=20), 3, 3)  # warm lazy imports
    cfg = OracleConfig(params=params, fock_dim=200)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = oracle_table(cfg, 10, 10)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 16 * 2**20
    assert after - before - table.nbytes < 16 * 2**10
