import json
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from irsbeam import (
    ChannelRealization,
    Method,
    OracleResult,
    SolverOptions,
    SystemParams,
    Table,
    dbm_to_watts,
    format_csv,
    grid_search_best,
    max_asnr,
    max_asnr_batch,
    parse_config,
    run_convergence,
    run_oracle_check,
    run_rate_vs_n,
    run_srr_sweep,
    mrr,
    rate,
    rate_batch,
    reflected_power,
    sample_channels,
    sample_channels_batch,
    snr,
    srr_batch,
    trial_seed,
)
from irsbeam import beamforming, experiments, metrics
from irsbeam.cli import _RUNNERS
from irsbeam.beamforming import _require_rows
from irsbeam.experiments import (
    CONVERGENCE_HEADER,
    ORACLE_CHECK_HEADER,
    RATE_VS_N_HEADER,
    SRR_SWEEP_HEADER,
)

import reference
from conftest import rows_of


def small_config(scenario, **extra):
    doc = {"trials": 8, "master_seed": 321}
    doc.update(extra)
    return parse_config(json.dumps(doc), scenario=scenario)


def _seeds(cfg):
    return [trial_seed(cfg.master_seed, t) for t in range(cfg.trials)]


def _scalar_rate(method, params, master_seed, t, k, solver=None):
    """Rate of one (method, trial) through the scalar path, with the
    reference bodies of ``egr`` and ``passive_aligned``."""
    ch = sample_channels(params, trial_seed(master_seed, t))
    bf = reference.design(method, ch, params, k, solver,
                          trial_seed(master_seed, t, stream=1))
    return rate(snr(bf, ch, params))


class TestFullPrecision:
    """Every rate equals the scalar ``rate(snr(design(ch)))`` bit for bit
    (``==`` on float64), on trials that straddle block edges; the golden
    digests carry 12 significant digits and cannot see a last-bit change."""

    @staticmethod
    def _assert_trial_log_equals_scalar_rates(cfg):
        rows = rows_of(run_rate_vs_n(cfg, verbose_trials=True).trial_table)
        assert len(rows) == len(cfg.n_values) * len(Method) * cfg.trials
        for i, (n, method, t, seed, rate_bits) in enumerate(rows):
            assert (t, seed) == (str(i % cfg.trials), str(trial_seed(cfg.master_seed, int(t))))
            assert rate_bits == _scalar_rate(Method(method), cfg.params_for(n), cfg.master_seed,
                                             int(t), max(1, n // 2), cfg.solver)

    @pytest.mark.parametrize("n", [1, 2, 3, 64])
    def test_monte_carlo_rates_equal_scalar_rates(self, monkeypatch, n):
        # The Monte-Carlo rates of every method at one N, from the trial log;
        # blocks of 3 trials, so 7 trials end on a ragged block of one.
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 3 * n)
        cfg = small_config("rate-vs-n", n_values=[n], trials=7, master_seed=2024)
        self._assert_trial_log_equals_scalar_rates(cfg)

    def test_rate_vs_n_trial_log_equals_scalar_rates(self, monkeypatch):
        # One block of all 7 trials at N = 1, blocks of 3 at N = 8 and of 1 at N = 64.
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 24)
        cfg = small_config("rate-vs-n", n_values=[1, 8, 64], trials=7)
        self._assert_trial_log_equals_scalar_rates(cfg)

    def test_single_trial_row_is_the_trial_rate_with_zero_std(self):
        cfg = small_config("rate-vs-n", n_values=[8], trials=1)
        trial_rate = _scalar_rate(Method.MRR, cfg.params_for(8), cfg.master_seed, 0, None,
                                  cfg.solver)
        assert rows_of(run_rate_vs_n(cfg).table)[1] == (8, "mrr", trial_rate, 0.0, 1)

    def test_oracle_check_columns_equal_scalar_rates(self, monkeypatch):
        # Blocks of 3 trials at N = 1 and of 1 at N = 2.
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 3)
        cfg = small_config("oracle-check", n_values=[1, 2], trials=7)
        rows = rows_of(run_oracle_check(cfg).table)
        assert len(rows) == 2 * cfg.trials * len(Method)
        for i, (seed, n, method, rate_bits, best_rate_bits, gap_bits) in enumerate(rows):
            t = i // len(Method) % cfg.trials
            params = cfg.params_for(n)
            assert seed == trial_seed(cfg.master_seed, t)
            assert rate_bits == _scalar_rate(Method(method), params, cfg.master_seed, t,
                                             max(1, n // 2), cfg.solver)
            best = grid_search_best(sample_channels(params, seed), params, 256, 64)
            assert best_rate_bits == best.best_rate_bits
            assert gap_bits == best_rate_bits - rate_bits


class TestConvergenceRun:
    @staticmethod
    def _scalar_rows(cfg):
        rows, unconverged = [], 0
        for n in cfg.n_values:
            params = cfg.params_for(n)
            for t in range(cfg.trials):
                seed = trial_seed(cfg.master_seed, t)
                _, trace = max_asnr(sample_channels(params, seed), params, cfg.solver)
                rows.extend((seed, r.iteration, r.lam, r.rate_bits) for r in trace.records)
                unconverged += not trace.converged
        return rows, unconverged

    def test_rows_equal_scalar_traces_across_blocks(self, monkeypatch):
        # Blocks of 8 trials at N = 4 and 2 at N = 16: 21 trials cross at
        # least two block boundaries and end on a ragged tail at both.
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 32)
        trials = 21
        for n in (4, 16):
            rows_per_block = experiments.BLOCK_ENTRIES // n
            assert trials > 2 * rows_per_block and trials % rows_per_block
        cfg = small_config("convergence", n_values=[4, 16], trials=trials)
        result = run_convergence(cfg)
        rows, unconverged = self._scalar_rows(cfg)
        assert rows_of(result.table) == rows
        assert len(result.table.blocks) == len(cfg.n_values)     # one block per N
        assert format_csv(CONVERGENCE_HEADER, result.table) == \
            _oracle_csv(CONVERGENCE_HEADER, rows)
        assert result.notes == (f"max-asnr: {unconverged} of {2 * trials} runs did not converge",)

    def test_unconverged_runs_are_counted(self):
        cfg = small_config("convergence", n_values=[8], max_iterations=2, tolerance=1e-16)
        assert cfg.solver == SolverOptions(tolerance=1e-16, max_iterations=2)
        result = run_convergence(cfg)
        rows, unconverged = self._scalar_rows(cfg)
        assert rows_of(result.table) == rows
        assert unconverged > 0
        assert result.notes == (f"max-asnr: {unconverged} of {cfg.trials} runs did not converge",)

    def test_final_rate_usually_improves_on_initialization(self):
        cfg = parse_config(json.dumps({"trials": 200, "master_seed": 12345}),
                           scenario="convergence")
        result = run_convergence(cfg)
        by_seed = {}
        for seed, it, lam, rate_bits in rows_of(result.table):
            by_seed.setdefault(seed, []).append((it, rate_bits))
        improved = sum(
            1 for recs in by_seed.values()
            if sorted(recs)[-1][1] >= sorted(recs)[0][1]
        )
        assert improved / len(by_seed) >= 0.95


class TestSrrSweepRun:
    def test_schema_and_reference_rows(self):
        cfg = small_config("srr-sweep", n_values=[8], k_values=[2, 8],
                           p_s_dbm_values=[15.0])
        result = run_srr_sweep(cfg, verbose_trials=True)
        assert result.header == SRR_SWEEP_HEADER
        methods = [(row[0], row[2]) for row in rows_of(result.table)]
        assert methods == [(2, "srr"), (8, "srr"), (8, "mrr")]

    def test_blocks_equal_one_block(self, monkeypatch):
        # 4 trials per block at N = 8: 19 trials make five blocks, the last
        # of three trials.
        cfg = small_config("srr-sweep", n_values=[8], k_values=[2, 5, 8],
                           p_s_dbm_values=[0.0, 15.0, 30.0], trials=19)
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 8 * cfg.trials)
        whole = run_srr_sweep(cfg, verbose_trials=True)
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 32)
        blocked = run_srr_sweep(cfg, verbose_trials=True)
        assert blocked == whole

    def test_trial_log_reproduces_summary(self):
        cfg = small_config("srr-sweep", n_values=[8], k_values=[4],
                           p_s_dbm_values=[10.0, 15.0])
        result = run_srr_sweep(cfg, verbose_trials=True)
        for k, p_s_dbm, method, mean, std, count in rows_of(result.table):
            rates = np.array([
                r[5] for r in rows_of(result.trial_table)
                if (r[0], r[1], r[2]) == (k, p_s_dbm, method)
            ])
            assert rates.size == count
            assert np.mean(rates) == pytest.approx(mean, rel=1e-12)
            assert np.std(rates, ddof=1) == pytest.approx(std, rel=1e-12)


@pytest.mark.parametrize("scenario, extra", [
    ("srr-sweep", {"n_values": [8], "k_values": [2, 8], "p_s_dbm_values": [0.0, 15.0]}),
    ("rate-vs-n", {"n_values": [4, 8]}),
])
def test_trial_log_blocks_share_one_trial_and_one_seed_column_of_text(scenario, extra):
    # _Summary renders each trial's trial and seed once, as the one text
    # value "t,seed" that format_csv writes as two fields.
    cfg = small_config(scenario, **extra)
    blocks = _RUNNERS[scenario](cfg, verbose_trials=True).trial_table.blocks
    assert len(blocks) > 2
    trials, _ = blocks[0][1]
    assert trials == [f"{t},{trial_seed(cfg.master_seed, t)}" for t in range(cfg.trials)]
    assert all(len(block[1]) == 2 and block[1][0] is trials for block in blocks)


def _stacked_draws(params, trials):
    draws = [sample_channels(params, trial_seed(12345, t)) for t in range(trials)]
    return draws, *(np.array([getattr(ch, name) for ch in draws]) for name in "gfh")


class TestSrrBatch:
    # The (T, N) complex arrays of the last two cases (1 MiB and 800 KiB)
    # exceed the 256 KiB from which numpy reuses temporaries in place.
    @pytest.mark.parametrize("n, trials", [(1, 40), (2, 40), (3, 40), (8, 40),
                                           (64, 1000), (256, 200)])
    def test_batch_equals_scalar_path_bit_for_bit(self, n, trials):
        base = SystemParams.default(n)
        draws, g, f, h = _stacked_draws(base, trials)
        for k in sorted({1, max(1, n // 2), n}):
            batch = srr_batch(g, f, h, k)
            for p_s_dbm in (0.0, 15.0, 30.0):
                params = replace(base, p_s=dbm_to_watts(p_s_dbm))
                lam = batch.lam(params)
                p = np.multiply(lam[:, None], batch.p_normalized)
                rates = rate_batch(p, g, f, h, params)
                for t, ch in enumerate(draws):
                    scalar = [reference.srr(ch, params, k)] + ([mrr(ch, params)] if k == n else [])
                    for bf in scalar:
                        assert np.array_equal(batch.p_normalized[t], bf.p_normalized)
                        assert lam[t] == bf.lam
                        assert np.array_equal(p[t], bf.p)
                        assert rates[t] == rate(snr(bf, ch, params))
                    assert abs(reflected_power(p[t], ch, params) / params.p_i - 1.0) <= 1e-12

    def test_checks_name_the_failing_trial(self):
        _, g, f, h = _stacked_draws(SystemParams.default(4), 3)
        with pytest.raises(ValueError, match="k must be in"):
            srr_batch(g, f, h, 5)
        g[1] = 0.0
        with pytest.raises(ValueError,
                           match="^selected product channels are identically zero$") as excinfo:
            srr_batch(g, f, h, 2)
        assert excinfo.value.row == 1
        g[2, 0] = np.nan
        with pytest.raises(ValueError, match="^channel entries must be finite$") as excinfo:
            srr_batch(g, f, h, 2)
        assert excinfo.value.row == 2

    def test_sweep_evaluates_each_power_and_k_once(self, monkeypatch):
        # k = 8 = N: the srr k = 8 and mrr cells share one design, so one
        # rate_batch row per (trial, P_S, selection size), equal rates.
        cfg = small_config("srr-sweep", n_values=[8], k_values=[2, 8],
                           p_s_dbm_values=[0.0, 15.0], trials=6)
        rows, result = _evaluated_rows(monkeypatch, cfg)
        assert len(rows) == cfg.trials * 2 * 2 and set(rows.values()) == {1}
        log = rows_of(result.trial_table)
        for p_s_dbm in (0.0, 15.0):
            srr_rates = [r[5] for r in log if r[:3] == (8, p_s_dbm, "srr")]
            mrr_rates = [r[5] for r in log if r[:3] == (8, p_s_dbm, "mrr")]
            assert len(srr_rates) == cfg.trials and srr_rates == mrr_rates

    def test_sweep_draws_each_trial_once(self, monkeypatch):
        # The batched runners draw every (N, seed) exactly once, in draws of
        # at most one block.
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 24)
        for cfg in (small_config("srr-sweep", n_values=[8]),
                    small_config("convergence", n_values=[4, 8])):
            drawn = []

            def counted(params, seeds):
                assert len(seeds) <= experiments.BLOCK_ENTRIES // params.n_elements
                drawn.extend((params.n_elements, seed) for seed in seeds)
                return sample_channels_batch(params, seeds)

            monkeypatch.setattr(experiments, "sample_channels_batch", counted)
            _RUNNERS[cfg.scenario](cfg)
            assert sorted(drawn) == sorted((n, seed) for n in cfg.n_values for seed in _seeds(cfg))


class TestMemoryBound:
    """Blocks of ``BLOCK_ENTRIES`` channel entries bound what a batched run
    holds beside its output, at any N and trial count (tracemalloc sees
    numpy's buffers)."""

    @staticmethod
    def _peak_mb(run, cfg):
        import tracemalloc
        tracemalloc.start()
        try:
            run(cfg)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_convergence_at_large_n(self):
        # One trial per block; one (40, 4N + 2) draw would take 84 MB alone.
        cfg = small_config("convergence", n_values=[65536], trials=40)
        assert self._peak_mb(run_convergence, cfg) < 32

    def test_srr_sweep_at_many_trials(self):
        # One (20000, 4N + 2) draw would take 41 MB alone.
        cfg = small_config("srr-sweep", n_values=[64], k_values=[32],
                           p_s_dbm_values=[15.0], trials=20000)
        assert self._peak_mb(run_srr_sweep, cfg) < 16

    def test_rate_vs_n_at_large_n(self):
        # One trial per block: 12 MB measured, the scalar max_asnr's passes
        # and a repeated draw included; the 4 trials stacked in one block
        # peaked at 37 MB.
        cfg = small_config("rate-vs-n", n_values=[65536], trials=4)
        assert self._peak_mb(run_rate_vs_n, cfg) < 20

    def test_oracle_check_at_many_trials(self, monkeypatch):
        # Blocks of 8192 trials at N = 1: 17 MB measured, 13 MB of it the
        # 120,000 output rows; the 20000 trials in one block peaked at 29 MB.
        # The grid search runs one trial at a time and keeps one float of
        # it, so a stub stands in for it and halves the test's time.
        found = OracleResult(0.0, np.ones(1), 1)
        monkeypatch.setattr(experiments, "grid_search_best", lambda *args: found)
        cfg = small_config("oracle-check", n_values=[1], trials=20000)
        assert self._peak_mb(run_oracle_check, cfg) < 22


class TestRateVsNRun:
    def test_snr_is_evaluated_once_per_design(self, monkeypatch):
        # One rate_batch row per (trial, N, design) and no scalar snr or
        # rate call, so max_asnr's trace records, whose rates would need
        # them, are never computed; nor is its mrr start.
        cfg = small_config("rate-vs-n", n_values=[4, 8], trials=5)
        rows, _ = _evaluated_rows(monkeypatch, cfg)
        assert len(rows) == cfg.trials * 2 * len(Method) and set(rows.values()) == {1}

    def test_schema_and_method_order(self):
        cfg = small_config("rate-vs-n", n_values=[4, 8])
        result = run_rate_vs_n(cfg)
        assert result.header == RATE_VS_N_HEADER
        rows = rows_of(result.table)
        assert [row[0] for row in rows] == [4] * 6 + [8] * 6
        assert [row[1] for row in rows][:6] == [
            "max-asnr", "mrr", "srr", "egr", "random-phase", "passive-aligned"
        ]

    def test_budget_methods_gain_with_more_elements(self):
        cfg = parse_config(json.dumps({"trials": 300, "master_seed": 12345,
                                       "n_values": [16, 64]}), scenario="rate-vs-n")
        result = run_rate_vs_n(cfg)
        means = {(row[0], row[1]): row[2] for row in rows_of(result.table)}
        # array gain: the four budget-constrained designs improve with N
        # (incoherent random phases saturate, so they are not checked)
        for method in ("max-asnr", "mrr", "srr", "egr"):
            assert means[(64, method)] >= means[(16, method)], method

    def test_egr_beats_random_phase(self):
        cfg = parse_config(json.dumps({"trials": 300, "master_seed": 12345,
                                       "n_values": [16]}), scenario="rate-vs-n")
        result = run_rate_vs_n(cfg)
        means = {row[1]: row[2] for row in rows_of(result.table)}
        assert means["egr"] >= means["random-phase"]


class TestSingleAndOracleRuns:
    def test_oracle_check_schema_and_notes(self):
        cfg = small_config("oracle-check", n_values=[1, 2], trials=3)
        result = run_oracle_check(cfg)
        assert result.header == ORACLE_CHECK_HEADER
        assert len(result.table) == 2 * 3 * 6
        assert result.notes == ("max-asnr: 0 of 6 runs did not converge",)
        for row in rows_of(result.table):
            assert row[5] == pytest.approx(row[4] - row[3], abs=1e-12)

    def test_oracle_check_runs_max_asnr_once_per_draw(self, monkeypatch):
        # Scalar calls and batch rows together, max_asnr runs once per
        # (trial, N), in oracle-check and in rate-vs-n alike.
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 4)
        for cfg in (small_config("oracle-check", n_values=[1, 2], trials=5),
                    small_config("rate-vs-n", n_values=[2, 4], trials=5)):
            runs = Counter()    # by (N, direct channel), which tells the trials apart

            def scalar(ch, params, opts):
                runs[params.n_elements, ch.h] += 1
                return max_asnr(ch, params, opts)

            def batch(g, f, h, params, opts):
                runs.update((params.n_elements, x) for x in h.tolist())
                return max_asnr_batch(g, f, h, params, opts)

            monkeypatch.setattr(experiments, "max_asnr", scalar)
            monkeypatch.setattr(experiments, "max_asnr_batch", batch)
            _RUNNERS[cfg.scenario](cfg)
            assert runs == Counter((n, sample_channels(cfg.params_for(n), seed).h)
                                   for n in cfg.n_values for seed in _seeds(cfg))


def _refused(*args, **kwargs):
    raise AssertionError("this call must not be made")


def _evaluated_rows(monkeypatch, cfg):
    """Run ``cfg`` with its trial log and scalar ``snr``, ``rate`` and
    ``mrr`` refused; count its ``rate_batch`` rows by (N, P_S, direct
    channel, coefficients), the direct channel telling the trials apart."""
    evaluate, rows = metrics.rate_batch, Counter()

    def counted(p, g, f, h, params):
        rows.update((params.n_elements, params.p_s, x, row.tobytes())
                    for x, row in zip(h.tolist(), p))
        return evaluate(p, g, f, h, params)

    monkeypatch.setattr(metrics, "rate_batch", counted)
    monkeypatch.setattr(metrics, "snr", _refused)
    monkeypatch.setattr(metrics, "rate", _refused)
    monkeypatch.setattr(beamforming, "mrr", _refused)
    monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 16)
    return rows, _RUNNERS[cfg.scenario](cfg, verbose_trials=True)


def _failing(fn, hit):
    """``fn``, except that a call for which ``hit(*args)`` holds raises
    ``injected``: for the rows of a (T,) boolean ``hit``, as a kernel's
    check does, or else tied to no row."""

    def wrapped(*args, **kwargs):
        rows = hit(*args)
        if isinstance(rows, np.ndarray):
            _require_rows(~rows, "injected")
        elif rows:
            raise ValueError("injected")
        return fn(*args, **kwargs)

    return wrapped


_SCENARIOS = {run_srr_sweep: "srr-sweep", run_convergence: "convergence",
              run_rate_vs_n: "rate-vs-n", run_oracle_check: "oracle-check"}


class TestErrorsNameTheTrial:
    """Every runner raises ``RuntimeError: trial <t> failed[ for method
    <m>]: <message>`` for a failing draw or design, naming the trial by its
    index in the whole run, across block boundaries too; a failing design
    also names its method. Each failure is injected at trial 6, row 2 of
    the second block of 4, whatever the order of the calls."""

    @pytest.mark.parametrize("scenario", ["srr-sweep", "convergence", "rate-vs-n",
                                          "oracle-check"])
    def test_batched_runners_name_a_trial_past_the_first_block(self, monkeypatch, scenario):
        # Trial 6's draw is zeroed; every runner stops in its block, and
        # names the first cell in CSV order, srr-sweep's srr at k = 4.
        n = 2 if scenario == "oracle-check" else 8
        cfg = small_config(scenario, n_values=[n], trials=10)
        seeds, drawn = _seeds(cfg), set()

        def zeroed_batch(params, block):
            drawn.update(block)
            g, f, h = sample_channels_batch(params, block)
            g[[seed == seeds[6] for seed in block]] = 0.0
            return g, f, h

        def zeroed(params, seed):
            g, f, h = zeroed_batch(params, [seed])
            return ChannelRealization(g[0], f[0], complex(h[0]))

        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 4 * n)
        monkeypatch.setattr(experiments, "sample_channels_batch", zeroed_batch)
        monkeypatch.setattr(experiments, "sample_channels", zeroed)
        method = "srr" if scenario == "srr-sweep" else "max-asnr"
        with pytest.raises(RuntimeError, match=f"^trial 6 failed for method {method}: "
                                               "selected product channels are identically zero$"):
            _RUNNERS[scenario](cfg)
        assert drawn == set(seeds[:8])

    # srr-sweep designs k = 4 and then k = N = 8, which it names mrr; only
    # the k = N design fails.
    @pytest.mark.parametrize("runner, n, kernel, method", [
        pytest.param(run_srr_sweep, 8, "srr_batch", "mrr", id="run_srr_sweep"),
        pytest.param(run_rate_vs_n, 8, "egr_batch", "egr", id="run_rate_vs_n"),
        pytest.param(run_oracle_check, 2, "egr_batch", "egr", id="run_oracle_check"),
    ])
    def test_a_failing_design_names_its_trial_and_method(self, monkeypatch, runner, n, kernel,
                                                         method):
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 4 * n)
        cfg = small_config(_SCENARIOS[runner], n_values=[n], trials=10)
        g = sample_channels(cfg.params_for(n), trial_seed(cfg.master_seed, 6)).g

        def hit(g_rows, *rest):     # egr_batch(g, f, params), or srr_batch(g, f, h, k) at k = N
            return np.all(g_rows == g, axis=1) & (kernel == "egr_batch" or rest[-1] == n)

        monkeypatch.setattr(experiments, kernel, _failing(getattr(experiments, kernel), hit))
        with pytest.raises(RuntimeError, match=f"^trial 6 failed for method {method}: injected$"):
            runner(cfg)

    # A batched draw fails tied to no row, so it names its block's first
    # trial; a scalar draw or a grid search names its own trial.
    @pytest.mark.parametrize("runner, n, name, trial", [
        (run_srr_sweep, 8, "sample_channels_batch", 4),
        (run_convergence, 8, "sample_channels_batch", 4),
        (run_rate_vs_n, 8, "sample_channels", 6),
        (run_oracle_check, 2, "sample_channels", 6),
        (run_oracle_check, 2, "grid_search_best", 6),
    ])
    def test_a_failing_draw_names_its_trial(self, monkeypatch, runner, n, name, trial):
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 4 * n)
        cfg = small_config(_SCENARIOS[runner], n_values=[n], trials=10)
        seed = trial_seed(cfg.master_seed, 6)
        h = sample_channels(cfg.params_for(n), seed).h
        hit = {"sample_channels_batch": lambda params, seeds: seed in seeds,
               "sample_channels": lambda params, drawn: drawn == seed,
               "grid_search_best": lambda ch, *rest: ch.h == h}[name]
        monkeypatch.setattr(experiments, name, _failing(getattr(experiments, name), hit))
        with pytest.raises(RuntimeError, match=f"^trial {trial} failed: injected$"):
            runner(cfg)


def _table(*blocks):
    table = Table()
    for lead, *columns in blocks:
        table.add(lead, *columns)
    return table


class TestCsvFormatting:
    def test_twelve_significant_digits(self):
        text = format_csv(("a", "b"), _table(((), [1, 2], [0.12345678901234567, 3.0])))
        assert text == "a,b\n1,0.123456789012\n2,3\n"

    def test_columns_of_one_block_must_have_one_length(self):
        with pytest.raises(ValueError, match=r"block \('k',\): columns must have one length"):
            format_csv(("a", "b", "c"), _table((("k",), [1, 2], [0.5])))


def _format_value(value) -> str:
    # The writer's rules applied one value at a time: the oracle that the
    # block writer must match byte for byte.
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    raise TypeError(f"cannot serialize {value!r} into CSV")


def _oracle_csv(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_format_value(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


class TestCsvWriterMatchesPerValueRules:
    """``format_csv`` on a table equals the per-value oracle on the rows
    the table holds, whatever the shape of its blocks."""

    VALUES = ["mrr", "", "a b", True, False, 0, -7, 2**70, 0.0, -0.0, 0.1, 1 / 3, -2.5e-300,
              1e300, float("nan"), float("inf"), -float("inf"), np.int32(-5),
              np.int64(2**62 + 1), np.uint64(2**64 - 1), np.float32(0.1), np.float32(-3e38),
              np.float64(2 / 3), np.float64(1e-320)]

    @staticmethod
    def _matches(header, table):
        rows = rows_of(table)
        assert format_csv(header, table) == _oracle_csv(header, rows)
        return rows

    def test_every_value_type(self):
        # Each one-type column, one per value, goes through one
        # %-conversion; a column of all the types is refused.
        table = _table((tuple(self.VALUES),), (tuple(self.VALUES[::-1]),),
                       *(((), [v, v, v]) for v in self.VALUES))
        rows = rows_of(table)
        assert rows[:2] == [tuple(self.VALUES), tuple(self.VALUES[::-1])]
        assert format_csv(("x",), table) == _oracle_csv(("x",), rows)
        with pytest.raises(TypeError, match=r"^block \(\): the values of a column must share "):
            format_csv(("x",), _table(((), self.VALUES)))

    def test_column_mixing_int_and_float(self):
        # Each of the two columns mixes types; the first one named raises.
        table = _table(((), [1, 2.5, np.int64(4), True, 1], [0.5, 3, np.float32(1.5), 7.0, 0.5]))
        with pytest.raises(TypeError, match=r"^block \(\): the values of a column must share "):
            format_csv(("a", "b"), table)
        assert format_csv(("a",), _table(((), [1.0, 2.5]))) == "a\n1\n2.5\n"

    def test_column_mixing_int_float_bool_and_numpy_scalars(self):
        mixed = [1, 2.5, True, np.int16(-3), np.uint8(200), np.float32(0.1), np.float64(1e-5),
                 False, 2**64, np.float16(0.5)]
        with pytest.raises(TypeError, match=r"^block \('m%d%%',\): the values of a column "):
            format_csv(("lead", "x", "y"), _table((("m%d%%",), [0.5] * len(mixed), mixed)))
        # The lead's "%" is text, not a conversion of the block's row template.
        self._matches(("lead", "x"), _table((("m%d%%",), [np.int16(-3), np.int16(7)])))

    def test_enum_member_raises_naming_it(self):
        # Method.MRR is a str subclass: %s would write its __str__, so it is
        # refused as a lead value and in a column, alone or beside its value.
        for table in (_table(((Method.MRR,),)), _table(((1,), [Method.MRR])),
                      _table(((), ["mrr", Method.MRR]))):
            with pytest.raises(TypeError, match=re.escape(f"cannot serialize {Method.MRR!r}")):
                format_csv(("a", "b"), table)

    def test_lead_only_blocks(self):
        rows = self._matches(("a", "b", "c"), _table(((1, 0.5, "mrr"),), ((np.int64(2), 1e-9, ""),),
                                                     ((True, np.float32(2.5), "srr"),)))
        assert len(rows) == 3

    def test_column_only_blocks(self):
        rows = self._matches(("a", "b"), _table(((), [1, 2, 3], [0.5, 0.25, 1 / 3]),
                                                ((), range(4), ["x", "y", "z", "w"]),
                                                ((), range(6), [m.value for m in Method])))
        assert len(rows) == 13

    def test_zero_row_block(self):
        table = _table((("k", 1), [], []), (("k", 2), [3], [0.5]), ((), range(0)))
        assert len(table) == 1
        assert self._matches(("a", "b", "c", "d"), table) == [("k", 2, 3, 0.5)]
        assert format_csv(("a",), _table(((), []))) == "a\n"

    @pytest.mark.parametrize("scenario, extra", [
        ("convergence", {"n_values": [4, 16]}),
        ("srr-sweep", {"n_values": [8], "k_values": [2, 8], "p_s_dbm_values": [0.0, 15.0]}),
        ("rate-vs-n", {"n_values": [4, 8]}),
        ("single", {"n_values": [4]}),
        ("oracle-check", {"n_values": [1, 2], "trials": 2}),
    ])
    def test_rows_of_every_scenario(self, scenario, extra):
        # At least two trials and two cells each, the trial logs included.
        from irsbeam.cli import _SUPPORTS_TRIAL_LOG
        cfg = small_config(scenario, **extra)
        assert cfg.trials >= 2
        runner = _RUNNERS[cfg.scenario]
        result = (runner(cfg, verbose_trials=True) if cfg.scenario in _SUPPORTS_TRIAL_LOG
                  else runner(cfg))
        tables = [(result.header, result.table)]
        if result.trial_table is not None:
            tables.append((result.trial_header, result.trial_table))
        for header, table in tables:
            rows = self._matches(header, table)
            assert len(rows) == len(table) >= 2
            assert all(len(row) == len(header) for row in rows)

    @pytest.mark.parametrize("bad", [None, object()])
    def test_unsupported_value_raises_naming_it(self, bad):
        format_csv(("a", "b"), _table(((1, 2),)))
        for table in (_table(((1, 2),), ((1, bad),)), _table(((1,), [2, bad])),
                      _table(((), [1, 1], [bad, bad]))):
            with pytest.raises(TypeError, match=re.escape(f"cannot serialize {bad!r}")):
                format_csv(("a", "b"), table)
