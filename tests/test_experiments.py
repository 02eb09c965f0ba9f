import re
from dataclasses import replace

import numpy as np
import pytest

from irsbeam import (
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
    monte_carlo_rates,
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
from irsbeam import experiments
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
    import json
    doc = {"trials": 8, "master_seed": 321}
    doc.update(extra)
    return parse_config(json.dumps(doc), scenario=scenario)


class TestMonteCarlo:
    def test_single_trial_mean_is_the_trial_rate(self):
        cfg = small_config("rate-vs-n", n_values=[8], trials=1)
        rates = monte_carlo_rates(Method.MRR, cfg.params_for(8), trials=1,
                                  master_seed=cfg.master_seed)
        assert rows_of(run_rate_vs_n(cfg).table)[1] == (8, "mrr", rates[0], 0.0, 1)

    def test_trial_failure_carries_index(self):
        # k out of range is tied to no row of the block, so the error names
        # the block's first trial.
        params = SystemParams.default(4)
        with pytest.raises(RuntimeError,
                           match=r"^trial 0 failed for method srr: k must be in \[1, 4\], got 99$"):
            monte_carlo_rates(Method.SRR, params, 2, 9, k=99)
        with pytest.raises(RuntimeError,
                           match=r"^trial 0 failed for method srr: k must be in \[1, 4\], got None$"):
            monte_carlo_rates(Method.SRR, params, 2, 9)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            monte_carlo_rates(Method.MRR, SystemParams.default(4), 0, 9)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 64])
    def test_monte_carlo_rates_equal_scalar_rates(self, monkeypatch, n):
        # Blocks of 3 trials: 7 trials end on a ragged block of one.
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 3 * n)
        trials, master_seed = 7, 2024
        params = SystemParams.default(n)
        for method in Method:
            k = max(1, n // 2) if method is Method.SRR else None
            rates = monte_carlo_rates(method, params, trials, master_seed, k)
            assert rates.tolist() == [_scalar_rate(method, params, master_seed, t, k)
                                      for t in range(trials)], method

    def test_rate_vs_n_trial_log_equals_scalar_rates(self, monkeypatch):
        # One block of all 7 trials at N = 1, blocks of 3 at N = 8 and of 1 at N = 64.
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 24)
        cfg = small_config("rate-vs-n", n_values=[1, 8, 64], trials=7)
        rows = rows_of(run_rate_vs_n(cfg, verbose_trials=True).trial_table)
        assert len(rows) == len(cfg.n_values) * len(Method) * cfg.trials
        for n, method, t, seed, rate_bits in rows:
            assert seed == trial_seed(cfg.master_seed, t)
            assert rate_bits == _scalar_rate(Method(method), cfg.params_for(n), cfg.master_seed,
                                             t, max(1, n // 2), cfg.solver)

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
    def test_schema_and_trace_lengths(self):
        cfg = small_config("convergence", n_values=[8])
        result = run_convergence(cfg)
        assert result.header == CONVERGENCE_HEADER
        rows = rows_of(result.table)
        seeds = {row[0] for row in rows}
        assert len(seeds) == cfg.trials
        for seed in seeds:
            iters = [row[1] for row in rows if row[0] == seed]
            assert iters == list(range(len(iters)))
            assert len(iters) <= cfg.solver.max_iterations + 1

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
        import json
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

    def test_full_selection_row_equals_mrr_per_trial(self):
        cfg = small_config("srr-sweep", n_values=[8], k_values=[8],
                           p_s_dbm_values=[15.0])
        result = run_srr_sweep(cfg, verbose_trials=True)
        log = rows_of(result.trial_table)
        srr_rates = {r[3]: r[5] for r in log if r[2] == "srr"}
        mrr_rates = {r[3]: r[5] for r in log if r[2] == "mrr"}
        for trial, rate_bits in srr_rates.items():
            assert rate_bits == pytest.approx(mrr_rates[trial], rel=1e-12)

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
        # k = 8 = N: the srr k = 8 row and the mrr row share one rate_batch
        # call per P_S level and block, and their rates are equal bit for bit.
        from irsbeam import metrics
        evaluate, calls = metrics.rate_batch, []

        def counted(p, g, f, h, params):
            calls.append((params.p_s, len(p)))
            return evaluate(p, g, f, h, params)

        monkeypatch.setattr(metrics, "rate_batch", counted)
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 32)
        cfg = small_config("srr-sweep", n_values=[8], k_values=[2, 8],
                           p_s_dbm_values=[0.0, 15.0], trials=6)
        result = run_srr_sweep(cfg, verbose_trials=True)
        # Blocks of 4 and 2 trials, two k and two P_S levels in each.
        assert [rows for _, rows in calls] == [4] * 4 + [2] * 4
        assert len({p_s for p_s, _ in calls}) == 2
        log = rows_of(result.trial_table)
        for p_s_dbm in (0.0, 15.0):
            srr_rates = [r[5] for r in log if r[:3] == (8, p_s_dbm, "srr")]
            mrr_rates = [r[5] for r in log if r[:3] == (8, p_s_dbm, "mrr")]
            assert len(srr_rates) == cfg.trials and srr_rates == mrr_rates

    def test_sweep_draws_each_trial_once(self, monkeypatch):
        calls = []

        def counted(params, seeds):
            calls.append(list(seeds))
            return sample_channels_batch(params, seeds)

        monkeypatch.setattr(experiments, "sample_channels_batch", counted)
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 24)
        cfg = small_config("srr-sweep", n_values=[8], k_values=[2, 8],
                           p_s_dbm_values=[0.0, 15.0])
        run_srr_sweep(cfg)
        assert [len(seeds) for seeds in calls] == [3, 3, 2]
        assert sum(calls, []) == [trial_seed(cfg.master_seed, t) for t in range(cfg.trials)]


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
        # Each cell's rates come from one rate_batch call per block, one row
        # per design. No scalar snr or rate call is made, so max_asnr's
        # trace records, whose rates would need them, are never computed;
        # nor is its mrr start, of which the iteration needs only the scale.
        from irsbeam import beamforming
        from irsbeam import metrics
        evaluate, calls = metrics.rate_batch, []

        def counted(p, g, f, h, params):
            calls.append((params.n_elements, len(p)))
            return evaluate(p, g, f, h, params)

        monkeypatch.setattr(metrics, "rate_batch", counted)
        monkeypatch.setattr(metrics, "snr", _refused)
        monkeypatch.setattr(metrics, "rate", _refused)
        monkeypatch.setattr(beamforming, "mrr", _refused)
        # Blocks of 4 trials at N = 4 and of 2 at N = 8.
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 16)
        run_rate_vs_n(small_config("rate-vs-n", n_values=[4, 8], trials=5))
        # Block-major: every cell is designed on a block before the next is drawn.
        assert calls == ([(4, 4)] * 6 + [(4, 1)] * 6
                         + [(8, 2)] * 6 + [(8, 2)] * 6 + [(8, 1)] * 6)

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
        import json
        cfg = parse_config(json.dumps({"trials": 300, "master_seed": 12345,
                                       "n_values": [16, 64]}), scenario="rate-vs-n")
        result = run_rate_vs_n(cfg)
        means = {(row[0], row[1]): row[2] for row in rows_of(result.table)}
        # array gain: the four budget-constrained designs improve with N
        # (incoherent random phases saturate, so they are not checked)
        for method in ("max-asnr", "mrr", "srr", "egr"):
            assert means[(64, method)] >= means[(16, method)], method

    def test_egr_beats_random_phase(self):
        import json
        cfg = parse_config(json.dumps({"trials": 300, "master_seed": 12345,
                                       "n_values": [16]}), scenario="rate-vs-n")
        result = run_rate_vs_n(cfg)
        means = {row[1]: row[2] for row in rows_of(result.table)}
        assert means["egr"] >= means["random-phase"]


class TestSingleAndOracleRuns:
    def test_single_schema(self):
        cfg = small_config("single", n_values=[8])
        result = run_rate_vs_n(cfg, verbose_trials=True)
        assert result.header == RATE_VS_N_HEADER
        srr_row = [r for r in rows_of(result.table) if r[1] == "srr"][0]
        assert srr_row[0] == 8
        assert len(result.trial_table) == 6 * cfg.trials
        assert [row[3] for row in rows_of(result.trial_table)] == \
            [trial_seed(cfg.master_seed, t) for t in range(cfg.trials)] * 6

    def test_oracle_check_schema_and_notes(self):
        cfg = small_config("oracle-check", n_values=[1, 2], trials=3)
        result = run_oracle_check(cfg)
        assert result.header == ORACLE_CHECK_HEADER
        assert len(result.table) == 2 * 3 * 6
        assert result.notes == ("max-asnr: 0 of 6 runs did not converge",)
        for row in rows_of(result.table):
            assert row[5] == pytest.approx(row[4] - row[3], abs=1e-12)

    def test_oracle_check_runs_max_asnr_once_per_draw(self, monkeypatch):
        # max_asnr_batch runs once per block, over all of its rows; the
        # scalar max_asnr never runs.
        # Each call's trials are told apart by their direct channels.
        calls = []
        cfg = small_config("oracle-check", n_values=[1, 2], trials=5)
        trial_of = {(n, sample_channels(cfg.params_for(n), trial_seed(cfg.master_seed, t)).h): t
                    for n in (1, 2) for t in range(cfg.trials)}

        def counted(g, f, h, params, opts):
            calls.append((g.shape, [trial_of[params.n_elements, x] for x in h.tolist()]))
            return max_asnr_batch(g, f, h, params, opts)

        monkeypatch.setattr(experiments, "max_asnr_batch", counted)
        monkeypatch.setattr(experiments, "max_asnr", _refused)
        # Blocks of 4 trials at N = 1 and of 2 at N = 2.
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 4)
        run_oracle_check(cfg)
        assert calls == [((4, 1), [0, 1, 2, 3]), ((1, 1), [4]),
                         ((2, 2), [0, 1]), ((2, 2), [2, 3]), ((1, 2), [4])]


def _refused(*args, **kwargs):
    raise AssertionError("this call must not be made")


def _failing_on_call(fn, call, row=None):
    """``fn``, except that call number ``call`` raises: for one ``row`` of
    its batch, as a kernel's check does, or else tied to no row."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            if row is None:
                raise ValueError("injected")
            _require_rows(np.arange(len(args[0])) != row, "injected")
        return fn(*args, **kwargs)

    return wrapped


_SCENARIOS = {run_srr_sweep: "srr-sweep", run_convergence: "convergence",
              run_rate_vs_n: "rate-vs-n", run_oracle_check: "oracle-check"}


class TestErrorsNameTheTrial:
    """Every runner raises ``RuntimeError: trial <t> failed[ for method
    <m>]: <message>`` for a failing draw or design, naming the trial by its
    index in the whole run, across block boundaries too; a failing design
    also names its method."""

    @pytest.mark.parametrize("scenario", ["srr-sweep", "convergence"])
    def test_batched_runners_name_a_trial_past_the_first_block(self, monkeypatch, scenario):
        # Blocks of 4 trials at N = 8: trial 6 is row 2 of the second block.
        drawn = []

        def zeroed(params, seeds):
            g, f, h = sample_channels_batch(params, seeds)
            if sum(drawn) <= 6 < sum(drawn) + len(seeds):
                g[6 - sum(drawn)] = 0.0
            drawn.append(len(seeds))
            return g, f, h

        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 32)
        monkeypatch.setattr(experiments, "sample_channels_batch", zeroed)
        cfg = small_config(scenario, n_values=[8], trials=10)
        runner = run_srr_sweep if scenario == "srr-sweep" else run_convergence
        method = "srr" if scenario == "srr-sweep" else "max-asnr"
        with pytest.raises(RuntimeError, match=f"^trial 6 failed for method {method}: "
                                               "selected product channels are identically zero$"):
            runner(cfg)
        assert drawn == [4, 4]

    # Blocks of 4 trials: trial 6 is row 2 of the second block. srr-sweep
    # designs k = 4 and then k = N = 8, which it names mrr, in each block.
    @pytest.mark.parametrize("runner, n, kernel, call, method", [
        pytest.param(run_srr_sweep, 8, "srr_batch", 4, "mrr", id="run_srr_sweep"),
        pytest.param(run_rate_vs_n, 8, "egr_batch", 2, "egr", id="run_rate_vs_n"),
        pytest.param(run_oracle_check, 2, "egr_batch", 2, "egr", id="run_oracle_check"),
    ])
    def test_a_failing_design_names_its_trial_and_method(self, monkeypatch, runner, n, kernel,
                                                         call, method):
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 4 * n)
        monkeypatch.setattr(experiments, kernel,
                            _failing_on_call(getattr(experiments, kernel), call, row=2))
        cfg = small_config(_SCENARIOS[runner], n_values=[n], trials=10)
        with pytest.raises(RuntimeError, match=f"^trial 6 failed for method {method}: injected$"):
            runner(cfg)

    # A batched draw fails tied to no row, so it names its block's first
    # trial; a scalar draw names its own trial. rate-vs-n draws each trial
    # six times in a row, so call 37 is the first draw of trial 6.
    @pytest.mark.parametrize("runner, n, draw, call, trial", [
        (run_srr_sweep, 8, "sample_channels_batch", 2, 4),
        (run_convergence, 8, "sample_channels_batch", 2, 4),
        (run_rate_vs_n, 8, "sample_channels", 37, 6),
        (run_oracle_check, 2, "sample_channels", 7, 6),
    ])
    def test_a_failing_draw_names_its_trial(self, monkeypatch, runner, n, draw, call, trial):
        monkeypatch.setattr(experiments, "BLOCK_ENTRIES", 4 * n)
        monkeypatch.setattr(experiments, draw, _failing_on_call(getattr(experiments, draw), call))
        cfg = small_config(_SCENARIOS[runner], n_values=[n], trials=10)
        with pytest.raises(RuntimeError, match=f"^trial {trial} failed: injected$"):
            runner(cfg)

    @pytest.mark.parametrize("name", ["sample_channels", "grid_search_best"])
    def test_oracle_check_names_the_trial_of_a_failing_draw_or_grid(self, monkeypatch, name):
        monkeypatch.setattr(experiments, name, _failing_on_call(getattr(experiments, name), 2))
        with pytest.raises(RuntimeError, match="^trial 1 failed: injected$"):
            run_oracle_check(small_config("oracle-check", n_values=[1], trials=3))


def _table(*blocks):
    table = Table()
    for lead, *columns in blocks:
        table.add(lead, *columns)
    return table


class TestCsvFormatting:
    def test_twelve_significant_digits(self):
        text = format_csv(("a", "b"), _table(((), [1, 2], [0.12345678901234567, 3.0])))
        assert text == "a,b\n1,0.123456789012\n2,3\n"

    def test_rerun_bytes_identical(self):
        cfg = small_config("rate-vs-n", n_values=[4])
        a = format_csv(RATE_VS_N_HEADER, run_rate_vs_n(cfg).table)
        b = format_csv(RATE_VS_N_HEADER, run_rate_vs_n(cfg).table)
        assert a == b

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
              np.float64(2 / 3), np.float64(1e-320), Method.MRR]

    @staticmethod
    def _matches(header, table):
        rows = rows_of(table)
        assert format_csv(header, table) == _oracle_csv(header, rows)
        return rows

    def test_every_value_type(self):
        # The mixed column goes value by value; each one-type column, one
        # per value, goes through one %-conversion.
        table = _table(((), self.VALUES), (tuple(self.VALUES),), (tuple(self.VALUES[::-1]),),
                       *(((), [v, v, v]) for v in self.VALUES))
        rows = rows_of(table)
        assert rows[:len(self.VALUES) + 2] == \
            [(v,) for v in self.VALUES] + [tuple(self.VALUES), tuple(self.VALUES[::-1])]
        assert format_csv(("x",), table) == _oracle_csv(("x",), rows)

    def test_column_mixing_int_and_float(self):
        header = ("a", "b")
        table = _table(((), [1, 2.5, np.int64(4), True, 1], [0.5, 3, np.float32(1.5), 7.0, 0.5]))
        assert format_csv(header, table) == _oracle_csv(header, rows_of(table)) == \
            "a,b\n1,0.5\n2.5,3\n4,1.5\n1,7\n1,0.5\n"

    def test_column_mixing_int_float_bool_and_numpy_scalars(self):
        mixed = [1, 2.5, True, np.int16(-3), np.uint8(200), np.float32(0.1), np.float64(1e-5),
                 False, 2**64, np.float16(0.5)]
        # The lead's "%" is text, not a conversion of the block's row template.
        self._matches(("lead", "x", "y"), _table((("m%d%%",), mixed, mixed[::-1])))

    def test_lead_only_blocks(self):
        rows = self._matches(("a", "b", "c"), _table(((1, 0.5, "mrr"),), ((np.int64(2), 1e-9, ""),),
                                                     ((True, np.float32(2.5), "srr"),)))
        assert len(rows) == 3

    def test_column_only_blocks(self):
        rows = self._matches(("a", "b"), _table(((), [1, 2, 3], [0.5, 0.25, 1 / 3]),
                                                ((), range(4), ["x", "y", "z", "w"]),
                                                ((), range(6), list(Method))))
        assert len(rows) == 13

    @pytest.mark.parametrize("shared", [[7, 2**63, 0, 1], [7, 2**63, 0.5, True, "x"]])
    def test_a_column_shared_by_blocks_is_rendered_once(self, monkeypatch, shared):
        table = _table(*(((k,), shared, [0.25 * i for i in range(len(shared))])
                         for k in (1, 2, 3)))
        rendered = []
        field = experiments._field
        monkeypatch.setattr(experiments, "_field", lambda v: rendered.append(v) or field(v))
        rows = self._matches(("k", "seed", "rate"), table)
        assert len(rows) == 3 * len(shared)
        # The three leads and each shared value once; the float column of
        # each block takes one %-conversion.
        assert sorted(map(repr, rendered)) == sorted(map(repr, [1, 2, 3, *shared]))

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
        from irsbeam.cli import _RUNNERS, _SUPPORTS_TRIAL_LOG
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
