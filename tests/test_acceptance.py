"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
with the measured quantities (run with ``pytest -s`` to see the lines on
passing tests). Everything is seeded; the whole module runs in well under
five minutes on a laptop.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from irsbeam import (
    Adjudication,
    ChannelRealization,
    Method,
    SolverOptions,
    SystemParams,
    asnr_value,
    egr,
    experiments,
    format_csv,
    grid_search_best,
    lambda_from_normalized,
    max_asnr,
    metrics,
    monte_carlo_rates,
    mrr,
    parse_config,
    reflected_power,
    run_rate_vs_n,
    run_srr_sweep,
    sample_channels,
    sign_adjudicate,
    snr,
    srr,
    trial_seed,
)

from conftest import rows_of

MASTER_SEED = 12345


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_power_budget_equality():
    """Every budget-constrained beamformer reflects exactly P_I."""
    worst = 0.0
    for n in (1, 2, 16, 64):
        params = SystemParams.default(n)
        for t in range(1000):
            ch = sample_channels(params, trial_seed(MASTER_SEED, t))
            designs = [
                egr(ch, params),
                mrr(ch, params),
                srr(ch, params, max(1, n // 2)),
                max_asnr(ch, params)[0],
            ]
            for bf in designs:
                rel = abs(reflected_power(bf, ch, params) / params.p_i - 1.0)
                worst = max(worst, rel)
    ok = worst <= 1e-9
    _report(1, ok, f"max relative budget deviation {worst:.3e} "
                   f"(tolerance 1e-9, 1000 draws x N in {{1,2,16,64}} x 4 methods)")
    assert ok


def test_criterion_2_formula_cross_checks():
    """Closed-form scales agree with the generic scale formula to 1e-12
    relative; the approximate and exact SNR differ by exactly the
    direct-path term."""
    rng = np.random.default_rng(MASTER_SEED)
    worst_lambda = 0.0
    worst_identity = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        k = int(rng.integers(1, n + 1))
        params = SystemParams(
            n_elements=n,
            p_s=10.0 ** rng.uniform(-3, 1),
            p_i=10.0 ** rng.uniform(-2, 2),
            sigma_i_sq=10.0 ** rng.uniform(-8, -1),
            sigma_u_sq=10.0 ** rng.uniform(-8, -1),
            pos_bs=(0.0, 0.0), pos_irs=(1.0, 1.0), pos_user=(2.0, 0.0),
            alpha_bi=2.0, alpha_iu=2.0, alpha_bu=2.0,
        )
        scale = 10.0 ** rng.uniform(-3, 0)
        g = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        f = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        h = scale * complex(rng.standard_normal() + 1j * rng.standard_normal())
        ch = ChannelRealization(g=g, f=f, h=h)

        for bf in (egr(ch, params), mrr(ch, params), srr(ch, params, k)):
            generic = lambda_from_normalized(bf.p_normalized, ch.g, params)
            worst_lambda = max(worst_lambda, abs(bf.lam / generic - 1.0))

        bf = mrr(ch, params)
        s = snr(bf, ch, params)
        den = params.sigma_i_sq * np.sum(np.abs(ch.f * bf.p) ** 2) + params.sigma_u_sq
        direct = params.p_s * abs(ch.h) ** 2 / den
        gap = abs((s - asnr_value(bf, ch, params)) - direct) / (1.0 + s)
        worst_identity = max(worst_identity, gap)
    ok = worst_lambda <= 1e-12 and worst_identity <= 1e-10
    _report(2, ok, f"max scale mismatch {worst_lambda:.3e} (tol 1e-12), "
                   f"max identity residual {worst_identity:.3e} (tol 1e-10, snr-scaled)")
    assert ok


def test_criterion_3_convergence_speed():
    """At the reference scenario the iteration settles within about three
    passes, and every run terminates."""
    params = SystemParams.default(64)
    start = time.monotonic()
    reached_by_3 = 0
    terminated = 0
    for t in range(200):
        ch = sample_channels(params, trial_seed(MASTER_SEED, t))
        _, trace = max_asnr(ch, params)
        lams = np.array([r.lam for r in trace.records])
        rel = np.abs(np.diff(lams)) / lams[:-1]
        hits = np.nonzero(rel <= 1e-3)[0]
        if hits.size and hits[0] + 1 <= 3:
            reached_by_3 += 1
        terminated += trace.converged
    elapsed = time.monotonic() - start
    ok = reached_by_3 >= 0.9 * 200 and terminated == 200 and elapsed < 10.0
    _report(3, ok, f"{reached_by_3}/200 seeds within 3 iterations (need >=180), "
                   f"{terminated}/200 terminated, runtime {elapsed:.2f}s (< 10s)")
    assert ok


def test_criterion_4_srr_sweep_close_to_mrr():
    """Rate grows with the selection size and half selection sits close to
    full selection."""
    doc = {"trials": 1000, "master_seed": MASTER_SEED, "n_values": [64],
           "k_values": [4, 8, 16, 32, 64], "p_s_dbm_values": [15.0]}
    cfg = parse_config(json.dumps(doc), scenario="srr-sweep")
    result = run_srr_sweep(cfg)
    means = {(row[0], row[2]): row[3] for row in rows_of(result.table)}
    k4, k32, k64 = means[(4, "srr")], means[(32, "srr")], means[(64, "srr")]
    mrr_mean = means[(64, "mrr")]
    endpoint_gain = k64 - k4
    half_gap = abs(k32 - mrr_mean)
    ok = endpoint_gain > 0.0 and half_gap <= 0.5
    _report(4, ok, f"mean rate K=4 {k4:.3f} -> K=64 {k64:.3f} "
                   f"(strictly increasing: {endpoint_gain > 0}), "
                   f"|K=32 - full| = {half_gap:.3f} bits (tol 0.5)")
    assert ok


def _mrr_noise_shares(params: SystemParams, trials: int) -> tuple[float, float]:
    """Mean over the seeded draws of two noise shares of ``mrr``: the part
    of the reflect budget spent on the surface's own noise,
    sigma_I^2 ||p||^2 / P_I, and the part of the user's noise that the
    surface forwards, sigma_I^2 ||F p||^2 / (sigma_I^2 ||F p||^2 + sigma_u^2)."""
    budget = forwarded = 0.0
    for t in range(trials):
        ch = sample_channels(params, trial_seed(MASTER_SEED, t))
        p = mrr(ch, params).p
        budget += params.sigma_i_sq * np.sum(np.abs(p) ** 2) / params.p_i
        fwd = params.sigma_i_sq * np.sum(np.abs(ch.f * p) ** 2)
        forwarded += fwd / (fwd + params.sigma_u_sq)
    return budget / trials, forwarded / trials


def _operating_point(params: SystemParams) -> str:
    return (f"P_S {10 * math.log10(params.p_s * 1e3):g} dBm, "
            f"P_I {10 * math.log10(params.p_i * 1e3):g} dBm")


def _check_order(cfg, links: tuple[tuple[str, str], ...],
                 regime: bool) -> tuple[str, list[str]]:
    """Report detail and failures of the mean-rate links ``hi >= lo``
    (-0.05 bit margin) at every N of ``cfg``. On the same draws,
    ``max-asnr``'s paired per-trial gain over ``mrr`` must exceed three
    standard errors: the iteration starts at ``mrr``, so one that never
    moves gains exactly 0. With ``regime`` set, ``mrr``'s two noise shares
    are checked as well."""
    point = _operating_point(cfg.params_for(cfg.n_values[0]))
    result = run_rate_vs_n(cfg, verbose_trials=True)
    means = {(row[0], row[1]): row[2] for row in rows_of(result.table)}
    rates: dict[tuple[int, str], list[float]] = {}
    for n, method, _, _, rate in rows_of(result.trial_table):
        rates.setdefault((n, method), []).append(rate)
    failures = []
    lines = []
    for n in cfg.n_values:
        if regime:
            budget, forwarded = _mrr_noise_shares(cfg.params_for(n), cfg.trials)
            lines.append(f"N={n} mrr budget share {budget:.2f} (need > 0.5), "
                         f"forwarded share {forwarded:.2f} (need < 0.5)")
            if not (budget > 0.5 and forwarded < 0.5):
                failures.append(f"{point} N={n}: outside the ordered regime "
                                f"(budget share {budget:.2f}, forwarded share {forwarded:.2f})")
        for hi, lo in links:
            gap = means[(n, hi)] - means[(n, lo)]
            lines.append(f"N={n} {hi}-{lo}={gap:+.3f}")
            if gap < -0.05:
                failures.append(f"{point} N={n}: mean({hi})={means[(n, hi)]:.3f} < "
                                f"mean({lo})={means[(n, lo)]:.3f} by {-gap:.3f} bits")
        gain = np.array(rates[(n, "max-asnr")]) - np.array(rates[(n, "mrr")])
        se = float(np.std(gain, ddof=1)) / math.sqrt(gain.size)
        lines.append(f"N={n} paired max-asnr-mrr={gain.mean():+.4f} (SE {se:.4f})")
        if not gain.mean() > 3 * se:
            failures.append(f"{point} N={n}: paired max-asnr-mrr gain {gain.mean():+.4f} "
                            f"bits is not above 3 SE ({3 * se:.4f})")
    return f"{point}: " + "; ".join(lines), failures


def test_criterion_5_rate_ordering():
    """Method ordering of the mean rate across element counts, with a
    -0.05 bit one-sided margin for Monte-Carlo noise.

    The full chain is checked where this model gives it: the reflect
    budget goes mostly to the surface's own noise (weak incident signal),
    and the user mostly sees its own noise, so combining the product
    channels by their ratio pays. Both conditions are asserted for ``mrr``
    at every N. The operating point is the highest P_S, then the highest
    P_I, on a 5 dB grid at which both hold; geometry, noise floors and
    intercept stay at their defaults. It is not shown to be the paper's
    own operating point. At the reference scenario the surface forwards
    99 % of the user's noise and equal gain provably beats the
    product-channel match, so there only the links the model still gives
    are checked: max-asnr >= mrr >= srr and egr >= random-phase.
    """
    base = {"trials": 1000, "master_seed": MASTER_SEED, "n_values": [16, 64, 256]}
    chain = ("max-asnr", "mrr", "srr", "egr", "random-phase")
    regime_cfg = parse_config(json.dumps({**base, "p_s_dbm": 0.0, "p_i_dbm": -5.0}),
                              scenario="rate-vs-n")
    reference_cfg = parse_config(json.dumps(base), scenario="rate-vs-n")
    regime, regime_failures = _check_order(regime_cfg, tuple(zip(chain, chain[1:])),
                                           regime=True)
    reference, reference_failures = _check_order(
        reference_cfg, (("max-asnr", "mrr"), ("mrr", "srr"), ("egr", "random-phase")),
        regime=False)
    failures = regime_failures + reference_failures
    ok = not failures
    _report(5, ok, f"{regime} | {reference}")
    assert ok, ("outside the ordered regime or ordering violated: "
                + " | ".join(failures))


def _stationary_direction(ch: ChannelRealization, params: SystemParams) -> np.ndarray:
    """Unit direction at the stationary point of the budget-constrained SNR
    without a direct path,
    x_n ~ g_n* f_n / (sigma_I^2 |f_n|^2 + (sigma_u^2 / P_I)(P_S |g_n|^2 + sigma_I^2)),
    rotated onto h as the other designs are."""
    t = params.sigma_u_sq / params.p_i
    d = (params.sigma_i_sq * np.abs(ch.f) ** 2
         + t * (params.p_s * np.abs(ch.g) ** 2 + params.sigma_i_sq))
    w = np.conj(ch.g) * ch.f / d
    return w / np.linalg.norm(w) * (ch.h.conjugate() / abs(ch.h))


def test_criterion_6_gap_magnitudes():
    """Mean-rate gains over the equal-gain baseline at N=64, reported and
    checked against the expected bands.

    The report also gives ``mrr``'s forwarded-noise share and the mean
    gain over ``egr`` of the stationary direction, which shows how close
    to the lower band of ``max_asnr - egr`` the model lets any design get.
    """
    params = SystemParams.default(64)
    trials = 1000
    means = {}
    for method in (Method.MRR, Method.EGR, Method.MAX_ASNR):
        rates = monte_carlo_rates(method, params, trials, MASTER_SEED)
        means[method.value] = float(np.mean(rates))
    mrr_gap = means["mrr"] - means["egr"]
    asnr_gap = means["max-asnr"] - means["egr"]
    _, forwarded = _mrr_noise_shares(params, trials)
    stationary = 0.0
    for t in range(trials):
        ch = sample_channels(params, trial_seed(MASTER_SEED, t))
        x = _stationary_direction(ch, params)
        p = lambda_from_normalized(x, ch.g, params) * x
        stationary += metrics.rate(snr(p, ch, params))
    stationary_gap = stationary / trials - means["egr"]
    ok = 0.3 <= mrr_gap <= 2.0 and 0.8 <= asnr_gap <= 3.5
    _report(6, ok, f"measured mrr-egr = {mrr_gap:+.3f} bits (band [0.3, 2.0]), "
                   f"max_asnr-egr = {asnr_gap:+.3f} bits (band [0.8, 3.5]); "
                   f"mrr forwarded-noise share {forwarded:.2f}, "
                   f"stationary direction-egr = {stationary_gap:+.3f} bits")
    assert ok, (f"gap magnitudes outside bands: mrr-egr={mrr_gap:+.3f}, "
                f"max_asnr-egr={asnr_gap:+.3f}")


def test_criterion_7_oracle_bound():
    """No method beats the exhaustive grid beyond its resolution slack;
    the single-element closed form and the two-element iterate sit at or
    near the optimum."""
    seeds = 50
    max_exceed = -math.inf
    n1_worst_gap = 0.0
    n2_within = 0
    for t in range(seeds):
        params1 = SystemParams.default(1)
        ch1 = sample_channels(params1, trial_seed(MASTER_SEED, t))
        best1 = grid_search_best(ch1, params1, 256, 64)
        mrr_rate = metrics.rate(metrics.snr(mrr(ch1, params1), ch1, params1))
        n1_worst_gap = max(n1_worst_gap, abs(best1.best_rate_bits - mrr_rate))

        params2 = SystemParams.default(2)
        ch2 = sample_channels(params2, trial_seed(MASTER_SEED, t))
        best2 = grid_search_best(ch2, params2, 256, 64)
        for method in Method:
            bf = experiments._design(
                method, ch2, params2,
                1 if method is Method.SRR else None,
                SolverOptions(),
                trial_seed(MASTER_SEED, t, stream=1),
            )[0]
            r = metrics.rate(metrics.snr(bf, ch2, params2))
            max_exceed = max(max_exceed, r - best2.best_rate_bits)
            if method is Method.MAX_ASNR and best2.best_rate_bits - r <= 0.2:
                n2_within += 1
    ok = max_exceed <= 0.02 and n1_worst_gap <= 0.02 and n2_within >= 0.9 * seeds
    _report(7, ok, f"max method-over-oracle {max_exceed:+.4f} bits (tol 0.02), "
                   f"N=1 |mrr-oracle| {n1_worst_gap:.2e} (tol 0.02), "
                   f"N=2 iterate within 0.2 bits on {n2_within}/{seeds} seeds (need 45)")
    assert ok


def test_criterion_8_sign_adjudication():
    """A strong direct path makes the aligned sign win; without a direct
    path the sign is immaterial."""
    params = replace(SystemParams.default(2), pos_user=(10.0, 0.0), alpha_bu=2.0)
    aligned = 0
    for t in range(100):
        ch = sample_channels(params, trial_seed(MASTER_SEED, t))
        p = max_asnr(ch, params)[0].p
        if sign_adjudicate(p, ch, params) is Adjudication.ALIGNED_BETTER:
            aligned += 1

    ties = 0
    rng = np.random.default_rng(MASTER_SEED)
    base = SystemParams.default(2)
    for _ in range(25):
        g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        ch = ChannelRealization(g=g, f=f, h=0.0)
        ties += sign_adjudicate(max_asnr(ch, base)[0].p, ch, base) is Adjudication.TIE
    ok = aligned >= 95 and ties == 25
    _report(8, ok, f"strong-direct fixture: aligned better on {aligned}/100 seeds "
                   f"(need 95); h=0: tie on {ties}/25")
    assert ok


def test_criterion_9_determinism():
    """Identical configs produce identical bytes when rerun."""
    doc = {"trials": 8, "master_seed": 7, "n_values": [8]}
    cfg = parse_config(json.dumps(doc), scenario="rate-vs-n")
    csv_a, csv_b = (format_csv(r.header, r.table) for r in (run_rate_vs_n(cfg),
                                                           run_rate_vs_n(cfg)))

    sweep_doc = {"trials": 6, "master_seed": 7, "n_values": [8], "k_values": [2, 8],
                 "p_s_dbm_values": [15.0]}
    sweep_cfg = parse_config(json.dumps(sweep_doc), scenario="srr-sweep")
    sweep_a, sweep_b = (
        format_csv(r.header, r.table) + format_csv(r.trial_header, r.trial_table)
        for r in (run_srr_sweep(sweep_cfg, verbose_trials=True),
                  run_srr_sweep(sweep_cfg, verbose_trials=True)))

    ok = csv_a == csv_b and sweep_a == sweep_b
    _report(9, ok, f"rate-vs-n rerun byte-identical: {csv_a == csv_b}; "
                   f"srr-sweep rerun with trial log byte-identical: {sweep_a == sweep_b}")
    assert ok
