"""Acceptance gate: one check per shipped guarantee, each printing a
single PASS/FAIL line with its measured value and stated tolerance."""

import itertools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from homdetect.bayes import (
    HypothesisPair,
    confidence,
    loglik_moments,
    lognormal_pdf,
    mean_posterior,
)
from homdetect.cli import main as cli_main
from homdetect.fock_oracle import OracleConfig, compare_with_closed_form
from homdetect.montecarlo import EnsembleConfig, Truth, simulate_ensemble
from homdetect.photon_stats import (
    Protocol,
    ProtocolParams,
    apply_saturation,
    build_distribution,
    derived_means,
    hom_pmf,
)
from homdetect.sweep import n_two_sigma, optimize_nc, speedup

LOW_NOISE = ProtocolParams(protocol=Protocol.DIRECT, xi=0.1, eta=0.8, n_e=0.02, n_i=0.02)
HIGH_NOISE = ProtocolParams(protocol=Protocol.DIRECT, xi=0.1, eta=0.8, n_e=1.0, n_i=1.0)
UNIT_NOISE = ProtocolParams(protocol=Protocol.DIRECT, xi=0.1, eta=0.8, n_e=0.0, n_i=1.0)
HEADLINE = ProtocolParams(
    protocol=Protocol.COHERENT_HOM, xi=0.1, eta=0.9, epsilon=0.9, n_c=6.0, n_e=1.0, n_i=1.0
)


def report(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label} ({detail})")
    assert ok, f"criterion {number}: {label}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_low_noise_decision_rate():
    start = time.monotonic()
    pair = HypothesisPair.from_params(LOW_NOISE)
    ens = simulate_ensemble(
        EnsembleConfig(pair=pair, truth=Truth.PRESENT, n_measurements=50,
                       n_trajectories=100_000, seed=20260817)
    )
    elapsed = time.monotonic() - start
    ok = abs(ens.empirical_confidence - 0.84) <= 0.01 and elapsed < 30.0
    report(1, "low-noise correct-decision rate 0.84 +/- 0.01 in under 30 s", ok,
           f"empirical {ens.empirical_confidence:.4f}, {elapsed:.1f} s")


def test_criterion_02_high_noise_rate_and_posterior_overlay():
    pair = HypothesisPair.from_params(HIGH_NOISE)
    ens = simulate_ensemble(
        EnsembleConfig(pair=pair, truth=Truth.PRESENT, n_measurements=50,
                       n_trajectories=100_000, seed=20260817)
    )
    rate_ok = abs(ens.empirical_confidence - 0.58) <= 0.01
    m = loglik_moments(pair)
    worst = max(
        abs(ens.mean_pe[n - 1]
            - mean_posterior(n * m.mu_present, math.sqrt(n) * m.sigma_present))
        for n in range(1, 51)
    )
    overlay_ok = worst <= 0.02
    report(2, "high-noise rate 0.58 +/- 0.01 and mean posterior within 0.02 per step",
           rate_ok and overlay_ok,
           f"empirical {ens.empirical_confidence:.4f}, worst step deviation {worst:.2e}")


def test_criterion_03_number_basis_oracle_agreement():
    start = time.monotonic()
    worst_coh = worst_inc = -1.0
    grid = list(itertools.product(
        (0.5, 1.0, 4.0), (0.0, 0.1, 1.0), (0.5, 0.8, 1.0), (0.9, 1.0), (0.0, 0.8)
    ))
    for n_c, xi, eta, epsilon, noise in grid:
        kw = dict(xi=xi, eta=eta, epsilon=epsilon, n_c=n_c, n_e=noise, n_i=noise)
        coh = OracleConfig(params=ProtocolParams(protocol=Protocol.COHERENT_HOM, **kw))
        dev, _, _ = compare_with_closed_form(coh, jk_sum_max=10, tol=1e-8)
        worst_coh = max(worst_coh, dev)
        inc = OracleConfig(params=ProtocolParams(protocol=Protocol.INCOHERENT_HOM, **kw))
        dev, _, _ = compare_with_closed_form(inc, jk_sum_max=10, tol=1e-8)
        worst_inc = max(worst_inc, dev)
    elapsed = time.monotonic() - start
    ok = worst_coh <= 1e-8 and worst_inc <= 1e-8 and elapsed < 120.0
    report(3, "number-basis oracle agrees with closed forms to 1e-8 in under 2 min", ok,
           f"{len(grid)} points, worst fixed-phase {worst_coh:.2e}, "
           f"worst phase-averaged {worst_inc:.2e}, {elapsed:.1f} s")


def test_criterion_04_perfect_interference_null():
    worst = -1.0
    for n_c in (0.5, 2.0, 6.0):
        params = ProtocolParams(
            protocol=Protocol.COHERENT_HOM, xi=1.0, eta=1.0, epsilon=1.0, n_c=n_c
        )
        for j in range(11):
            worst = max(worst, abs(hom_pmf(params, j, j)))
    ok = worst <= 1e-12
    report(4, "equal counts impossible at perfect overlap, to 1e-12", ok,
           f"worst |p(j, j)| = {worst:.2e}")


def test_criterion_05_normalization_suite():
    worst = -1.0
    checked = no_light = 0
    for protocol in Protocol:
        for xi, eta, epsilon, n_c, noise in itertools.product(
            (0.0, 0.1, 1.0), (0.1, 0.5, 0.9, 1.0), (0.5, 0.9, 1.0),
            (0.0, 1.0, 6.0), (0.0, 0.02, 1.0),
        ):
            params = ProtocolParams(
                protocol=protocol, xi=xi, eta=eta, epsilon=epsilon,
                n_c=n_c, n_e=noise, n_i=noise,
            )
            dist = build_distribution(params)
            if protocol is not Protocol.DIRECT and derived_means(params).n_bar == 0.0:
                # no light but the emitter's photon, at either detector alike
                q = eta * xi
                assert dist.prob(0, 0) == 1.0 - q and dist.prob(1, 0) == dist.prob(0, 1) == q / 2.0
                no_light += 1
            worst = max(worst, abs(dist.total() + dist.tail_mass - 1.0))
            checked += 1
            for t in (1, 2, 4):
                sat = apply_saturation(dist, t)
                worst = max(worst, abs(sat.total() - 1.0))
                checked += 1
    ok = worst <= 1e-9
    report(5, "every distribution normalized to 1e-9, saturated and not", ok,
           f"{checked} tables ({no_light} no-light points at their limit), worst {worst:.2e}")


def test_criterion_06_erf_versus_quadrature():
    cases = [LOW_NOISE, HIGH_NOISE, UNIT_NOISE, HEADLINE]
    trial_counts = (1, 10, 57, 117)
    worst = -1.0
    for params in cases:
        m = loglik_moments(HypothesisPair.from_params(params))
        for n in trial_counts:
            rep = confidence(n, m)
            mu_p, s_p = n * m.mu_present, math.sqrt(n) * m.sigma_present
            mu_a, s_a = n * m.mu_absent, math.sqrt(n) * m.sigma_absent
            quad_p, _ = quad(lambda x: lognormal_pdf(x, mu_p, s_p), 0.0, 1.0,
                             points=[math.exp(mu_p)], epsabs=1e-13, limit=300)
            below_a, _ = quad(lambda x: lognormal_pdf(x, mu_a, s_a), 0.0, 1.0,
                              points=[math.exp(mu_a)], epsabs=1e-13, limit=300)
            quad_a = 1.0 - below_a
            worst = max(worst, abs(rep.c_present - quad_p), abs(rep.c_absent - quad_a))
    ok = worst <= 1e-8
    report(6, "erf confidence matches log-normal quadrature to 1e-8", ok,
           f"{len(cases) * len(trial_counts)} cases, worst {worst:.2e}")


def test_criterion_07_log_normal_moments_at_unit_background():
    pair = HypothesisPair.from_params(UNIT_NOISE)
    m = loglik_moments(pair)
    n, runs = 50, 50_000
    results = []
    for truth, mu, sigma in (
        (Truth.PRESENT, m.mu_present, m.sigma_present),
        (Truth.ABSENT, m.mu_absent, m.sigma_absent),
    ):
        ens = simulate_ensemble(
            EnsembleConfig(pair=pair, truth=truth, n_measurements=n,
                           n_trajectories=runs, seed=99)
        )
        sample_mean = float(np.mean(ens.final_log_lambda))
        sample_var = float(np.var(ens.final_log_lambda, ddof=1))
        se = math.sqrt(n) * sigma / math.sqrt(runs)
        mean_dev = abs(sample_mean - n * mu) / se
        var_dev = abs(sample_var - n * sigma**2) / (n * sigma**2)
        results.append((truth.value, mean_dev, var_dev))
    ok = all(md <= 3.0 and vd <= 0.05 for _, md, vd in results)
    report(7, "final log-ratio mean within 3 SE and variance within 5 percent", ok,
           "; ".join(f"{t}: mean {md:.2f} SE, variance {vd:.2%}" for t, md, vd in results))


def test_criterion_08_trial_count_monotonicity():
    noise_grid = np.geomspace(1e-2, 10.0, 13)
    all_monotone = True
    detail = []
    for protocol in Protocol:
        counts = []
        for noise in noise_grid:
            params = ProtocolParams(
                protocol=protocol, xi=0.1, eta=0.9, epsilon=0.9,
                n_c=6.0, n_e=float(noise), n_i=float(noise),
            )
            counts.append(n_two_sigma(params))
        monotone = all(a <= b for a, b in zip(counts, counts[1:]))
        all_monotone &= monotone
        detail.append(f"{protocol.value} {counts[0]}->{counts[-1]}")
    nc_grid = np.geomspace(0.1, 10.0, 13)
    nc_counts = [n_two_sigma(replace(HEADLINE, n_c=float(nc))) for nc in nc_grid]
    nc_monotone = all(a >= b for a, b in zip(nc_counts, nc_counts[1:]))
    ok = all_monotone and nc_monotone
    report(8, "trial count rises with background and falls with brightness", ok,
           f"background: {', '.join(detail)}; brightness {nc_counts[0]}->{nc_counts[-1]}")


def test_criterion_09_speed_up_properties():
    headline_ratio = speedup(HEADLINE)
    incoherent = ProtocolParams(
        protocol=Protocol.INCOHERENT_HOM, xi=0.1, eta=0.95, epsilon=0.9, n_e=0.02, n_i=0.02
    )
    opt = optimize_nc(incoherent)
    optimized_ratio = speedup(replace(incoherent, n_c=opt.n_c_star))
    ordering_ok = True
    for params in (
        HEADLINE,
        LOW_NOISE,
        replace(HEADLINE, protocol=Protocol.INCOHERENT_HOM, cos_theta=0.0),
    ):
        counts = [n_two_sigma(params, t) for t in (1, 2, 4, None)]
        ordering_ok &= counts[0] >= counts[1] >= counts[2] >= counts[3]
    ok = headline_ratio > 10.0 and optimized_ratio < 1.0 and ordering_ok
    report(9, "interference speed-up above 10, incoherent low-noise below 1, "
              "saturation ordering", ok,
           f"headline {headline_ratio:.1f}, optimized incoherent {optimized_ratio:.3f}, "
           f"ordering {'held' if ordering_ok else 'violated'}")


def test_criterion_10_vacuum_reference_under_saturation():
    base = ProtocolParams(
        protocol=Protocol.INCOHERENT_HOM, xi=0.1, eta=0.9, epsilon=0.9, n_e=1.0, n_i=1.0
    )
    optima = {t: optimize_nc(base, t) for t in (1, 2, 4)}
    ok = all(opt.n_c_star == 0.0 for opt in optima.values())
    report(10, "saturated incoherent detection prefers a dark reference", ok,
           ", ".join(f"t={t}: n_c*={opt.n_c_star}, N={opt.n_star}"
                     for t, opt in sorted(optima.items())))


def test_criterion_11_byte_identical_reruns(tmp_path):
    sim_args = ["simulate", "--protocol", "direct", "--xi", "0.1", "--eta", "0.8",
                "--ne", "0.02", "--ni", "0.02", "--truth", "present",
                "--n-measurements", "20", "--n-trajectories", "2000", "--seed", "7"]
    pairs = []
    for tag in ("one", "two"):
        out = tmp_path / f"sim-{tag}.csv"
        assert cli_main(sim_args + ["-o", str(out)]) == 0
        pairs.append((out.read_bytes(), (tmp_path / f"sim-{tag}.summary.json").read_bytes()))
    sim_ok = pairs[0] == pairs[1]

    sweeps = []
    for tag in ("one", "two"):
        out = tmp_path / f"sweep-{tag}.csv"
        assert cli_main(["sweep", "--protocol", "coherent", "--xi", "0.1", "--eta", "0.9",
                         "--epsilon", "0.9", "--nc", "6", "--ne", "1", "--ni", "1",
                         "-o", str(out)]) == 0
        sweeps.append(out.read_bytes())
    dists = []
    for tag in ("one", "two"):
        out = tmp_path / f"dist-{tag}.json"
        assert cli_main(["dist", "--protocol", "coherent", "--nc", "1", "--format", "json",
                         "-o", str(out)]) == 0
        dists.append(out.read_bytes())
    ok = sim_ok and sweeps[0] == sweeps[1] and dists[0] == dists[1]
    report(11, "identical seed and config give byte-identical output files", ok,
           f"simulate {'match' if sim_ok else 'differ'}, "
           f"sweep {'match' if sweeps[0] == sweeps[1] else 'differ'}, "
           f"dist {'match' if dists[0] == dists[1] else 'differ'}")
