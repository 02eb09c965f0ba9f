import re
from dataclasses import replace

import numpy as np
import pytest

from irsbeam import (
    Method,
    SolverOptions,
    SystemParams,
    dbm_to_watts,
    format_csv,
    max_asnr,
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
    srr,
    srr_batch,
    trial_seed,
)
from irsbeam.experiments import (
    CONVERGENCE_BLOCK,
    CONVERGENCE_HEADER,
    ORACLE_CHECK_HEADER,
    RATE_VS_N_HEADER,
    SRR_SWEEP_HEADER,
)


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
        assert run_rate_vs_n(cfg).rows[1] == (8, "mrr", rates[0], 0.0, 1)

    def test_trial_failure_carries_index(self):
        params = SystemParams.default(4)
        with pytest.raises(RuntimeError, match="trial 0"):
            monte_carlo_rates(Method.SRR, params, 2, 9, k=99)


class TestConvergenceRun:
    def test_schema_and_trace_lengths(self):
        cfg = small_config("convergence", n_values=[8])
        result = run_convergence(cfg)
        assert result.header == CONVERGENCE_HEADER
        seeds = {row[0] for row in result.rows}
        assert len(seeds) == cfg.trials
        for seed in seeds:
            iters = [row[1] for row in result.rows if row[0] == seed]
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

    def test_rows_equal_scalar_traces_across_blocks(self):
        trials = 2 * CONVERGENCE_BLOCK + 5
        cfg = small_config("convergence", n_values=[4, 16], trials=trials)
        result = run_convergence(cfg)
        rows, unconverged = self._scalar_rows(cfg)
        assert result.rows == rows
        assert format_csv(CONVERGENCE_HEADER, result.rows) == format_csv(CONVERGENCE_HEADER, rows)
        assert result.notes == (f"max-asnr: {unconverged} of {2 * trials} runs did not converge",)

    def test_unconverged_runs_are_counted(self):
        cfg = small_config("convergence", n_values=[8], max_iterations=2, tolerance=1e-16)
        assert cfg.solver == SolverOptions(tolerance=1e-16, max_iterations=2)
        result = run_convergence(cfg)
        rows, unconverged = self._scalar_rows(cfg)
        assert result.rows == rows
        assert unconverged > 0
        assert result.notes == (f"max-asnr: {unconverged} of {cfg.trials} runs did not converge",)

    def test_final_rate_usually_improves_on_initialization(self):
        import json
        cfg = parse_config(json.dumps({"trials": 200, "master_seed": 12345}),
                           scenario="convergence")
        result = run_convergence(cfg)
        by_seed = {}
        for seed, it, lam, rate_bits in result.rows:
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
        methods = [(row[0], row[2]) for row in result.rows]
        assert methods == [(2, "srr"), (8, "srr"), (8, "mrr")]

    def test_full_selection_row_equals_mrr_per_trial(self):
        cfg = small_config("srr-sweep", n_values=[8], k_values=[8],
                           p_s_dbm_values=[15.0])
        result = run_srr_sweep(cfg, verbose_trials=True)
        srr_rates = {r[3]: r[5] for r in result.trial_rows if r[2] == "srr"}
        mrr_rates = {r[3]: r[5] for r in result.trial_rows if r[2] == "mrr"}
        for trial, rate_bits in srr_rates.items():
            assert rate_bits == pytest.approx(mrr_rates[trial], rel=1e-12)

    def test_trial_log_reproduces_summary(self):
        cfg = small_config("srr-sweep", n_values=[8], k_values=[4],
                           p_s_dbm_values=[10.0, 15.0])
        result = run_srr_sweep(cfg, verbose_trials=True)
        for k, p_s_dbm, method, mean, std, count in result.rows:
            rates = np.array([
                r[5] for r in result.trial_rows
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
                    scalar = [srr(ch, params, k)] + ([mrr(ch, params)] if k == n else [])
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
        with pytest.raises(ValueError, match="trial 1: selected product channels"):
            srr_batch(g, f, h, 2)
        g[2, 0] = np.nan
        with pytest.raises(ValueError, match="trial 2: channel entries must be finite"):
            srr_batch(g, f, h, 2)

    def test_sweep_draws_each_trial_once(self, monkeypatch):
        from irsbeam import experiments
        calls = []

        def counted(params, seeds):
            calls.append(list(seeds))
            return sample_channels_batch(params, seeds)

        monkeypatch.setattr(experiments, "sample_channels_batch", counted)
        cfg = small_config("srr-sweep", n_values=[8], k_values=[2, 8],
                           p_s_dbm_values=[0.0, 15.0])
        run_srr_sweep(cfg)
        assert calls == [[trial_seed(cfg.master_seed, t) for t in range(cfg.trials)]]


class TestRateVsNRun:
    def test_snr_is_evaluated_once_per_design(self, monkeypatch):
        # The runner never reads max_asnr's trace records, so their
        # per-iteration rates are never computed.
        from irsbeam import metrics
        evaluate, calls = metrics.snr, []

        def counted(bf, ch, params):
            calls.append(ch.n_elements)
            return evaluate(bf, ch, params)

        monkeypatch.setattr(metrics, "snr", counted)
        run_rate_vs_n(small_config("rate-vs-n", n_values=[4, 8], trials=3))
        assert calls == [4] * (6 * 3) + [8] * (6 * 3)

    def test_schema_and_method_order(self):
        cfg = small_config("rate-vs-n", n_values=[4, 8])
        result = run_rate_vs_n(cfg)
        assert result.header == RATE_VS_N_HEADER
        assert [row[0] for row in result.rows] == [4] * 6 + [8] * 6
        assert [row[1] for row in result.rows][:6] == [
            "max-asnr", "mrr", "srr", "egr", "random-phase", "passive-aligned"
        ]

    def test_budget_methods_gain_with_more_elements(self):
        import json
        cfg = parse_config(json.dumps({"trials": 300, "master_seed": 12345,
                                       "n_values": [16, 64]}), scenario="rate-vs-n")
        result = run_rate_vs_n(cfg)
        means = {(row[0], row[1]): row[2] for row in result.rows}
        # array gain: the four budget-constrained designs improve with N
        # (incoherent random phases saturate, so they are not checked)
        for method in ("max-asnr", "mrr", "srr", "egr"):
            assert means[(64, method)] >= means[(16, method)], method

    def test_egr_beats_random_phase(self):
        import json
        cfg = parse_config(json.dumps({"trials": 300, "master_seed": 12345,
                                       "n_values": [16]}), scenario="rate-vs-n")
        result = run_rate_vs_n(cfg)
        means = {row[1]: row[2] for row in result.rows}
        assert means["egr"] >= means["random-phase"]


class TestSingleAndOracleRuns:
    def test_single_schema(self):
        cfg = small_config("single", n_values=[8])
        result = run_rate_vs_n(cfg, verbose_trials=True)
        assert result.header == RATE_VS_N_HEADER
        srr_row = [r for r in result.rows if r[1] == "srr"][0]
        assert srr_row[0] == 8
        assert len(result.trial_rows) == 6 * cfg.trials
        assert [row[3] for row in result.trial_rows] == \
            [trial_seed(cfg.master_seed, t) for t in range(cfg.trials)] * 6

    def test_oracle_check_schema_and_notes(self):
        cfg = small_config("oracle-check", n_values=[1, 2], trials=3)
        result = run_oracle_check(cfg)
        assert result.header == ORACLE_CHECK_HEADER
        assert len(result.rows) == 2 * 3 * 6
        assert result.notes == ("max-asnr: 0 of 6 runs did not converge",)
        for row in result.rows:
            assert row[5] == pytest.approx(row[4] - row[3], abs=1e-12)

    def test_oracle_check_runs_max_asnr_once_per_draw(self, monkeypatch):
        from irsbeam import experiments
        calls = []

        def counted(ch, params, opts):
            calls.append(ch.n_elements)
            return max_asnr(ch, params, opts)

        monkeypatch.setattr(experiments, "max_asnr", counted)
        run_oracle_check(small_config("oracle-check", n_values=[1, 2], trials=5))
        assert calls == [1] * 5 + [2] * 5


class TestCsvFormatting:
    def test_twelve_significant_digits(self):
        text = format_csv(("a", "b"), [(1, 0.12345678901234567), (2, 3.0)])
        assert text == "a,b\n1,0.123456789012\n2,3\n"

    def test_rerun_bytes_identical(self):
        cfg = small_config("rate-vs-n", n_values=[4])
        a = format_csv(RATE_VS_N_HEADER, run_rate_vs_n(cfg).rows)
        b = format_csv(RATE_VS_N_HEADER, run_rate_vs_n(cfg).rows)
        assert a == b


def _format_value(value) -> str:
    # The writer's per-value rules before rows were rendered through cached
    # templates: the oracle the writer must match byte for byte.
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
    VALUES = ["mrr", "", "a b", True, False, 0, -7, 2**70, 0.0, -0.0, 0.1, 1 / 3, -2.5e-300,
              1e300, float("nan"), float("inf"), -float("inf"), np.int32(-5),
              np.int64(2**62 + 1), np.uint64(2**64 - 1), np.float32(0.1), np.float32(-3e38),
              np.float64(2 / 3), np.float64(1e-320)]

    def test_every_value_type(self):
        rows = [(v,) for v in self.VALUES] + [tuple(self.VALUES), tuple(self.VALUES[::-1])]
        assert format_csv(("x",), rows) == _oracle_csv(("x",), rows)

    def test_column_mixing_int_and_float(self):
        header = ("a", "b")
        rows = [(1, 0.5), (2.5, 3), (np.int64(4), np.float32(1.5)), (True, 7.0), (1, 0.5)]
        assert format_csv(header, rows) == _oracle_csv(header, rows) == \
            "a,b\n1,0.5\n2.5,3\n4,1.5\n1,7\n1,0.5\n"

    @pytest.mark.parametrize("scenario, extra", [
        ("convergence", {"n_values": [4, 16]}),
        ("srr-sweep", {"n_values": [8], "k_values": [2, 8], "p_s_dbm_values": [0.0, 15.0]}),
        ("rate-vs-n", {"n_values": [4, 8]}),
        ("single", {"n_values": [4]}),
        ("oracle-check", {"n_values": [1, 2], "trials": 2}),
    ])
    def test_rows_of_every_scenario(self, scenario, extra):
        from irsbeam.cli import _RUNNERS, _SUPPORTS_TRIAL_LOG
        cfg = small_config(scenario, **extra)
        runner = _RUNNERS[cfg.scenario]
        result = (runner(cfg, verbose_trials=True) if cfg.scenario in _SUPPORTS_TRIAL_LOG
                  else runner(cfg))
        tables = [(result.header, result.rows)]
        if result.trial_rows is not None:
            tables.append((result.trial_header, result.trial_rows))
        for header, rows in tables:
            assert rows
            assert format_csv(header, rows) == _oracle_csv(header, rows)

    @pytest.mark.parametrize("bad", [None, object()])
    def test_unsupported_value_raises_naming_it(self, bad):
        format_csv(("a", "b"), [(1, 2)])
        with pytest.raises(TypeError, match=re.escape(f"cannot serialize {bad!r}")):
            format_csv(("a", "b"), [(1, 2), (1, bad)])
