"""Tests of the benchmark itself, on cut-down workloads so they run in a
few seconds. Run from the repository root with
``PYTHONPATH=src python -m pytest -q bench``."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import run
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SEED = 7

TINY = {
    "rate_vs_n": replace(WORKLOADS["rate_vs_n"], doc={"n_values": [16, 64], "trials": 3}),
    "srr_sweep": replace(WORKLOADS["srr_sweep"], doc={
        "n_values": [8], "k_values": [4, 8], "p_s_dbm_values": [0, 15], "trials": 3}),
    "oracle_check": replace(WORKLOADS["oracle_check"], doc={"n_values": [1, 2], "trials": 2}),
    "convergence": replace(WORKLOADS["convergence"], doc={"n_values": [16], "trials": 4}),
}


def _bench(name, tmp_path):
    return run.Bench(ROOT, tmp_path / name, TINY[name])


def _verify(workload, inv):
    return checks.verify(workload, SEED, inv.outputs[0].decode(), inv.outputs[1].decode())


def test_metric_names_match_the_declared_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert declared == {**run.END_TO_END_UNITS, **spans.UNITS}
    for name in declared:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


@pytest.mark.parametrize("name", ["rate_vs_n", "oracle_check"])
def test_traced_runs_repeat_counters_and_leave_output_unchanged(name, tmp_path):
    bench = _bench(name, tmp_path)
    plain = bench.invoke(SEED, trace=False)
    traced = [bench.invoke(SEED, trace=True) for _ in range(2)]
    assert plain.exit == 0 and all(inv.exit == 0 for inv in traced)
    assert all(inv.outputs == plain.outputs for inv in traced)
    first, second = (spans.layer_metrics(inv.trace) for inv in traced)
    assert {k: first[k] for k in spans.REPEATABLE if k in first} == \
        {k: second[k] for k in spans.REPEATABLE if k in second}
    assert set(first) | {"experiments.output_bytes", "trace.overhead_ratio"} == set(spans.UNITS)

    trials, n_values = TINY[name].doc["trials"], TINY[name].doc["n_values"]
    assert first["cli.main.calls"] == 1 and first["experiments.runner.calls"] == 1
    assert first["system.phase_seed_use_ratio"] == pytest.approx(1 / 6)
    assert first["beamforming.budget_residual_max"] < 1e-9
    if name == "rate_vs_n":
        assert first["system.draws_per_trial"] == 6.0
        assert first["beamforming.max_asnr.calls"] == trials * len(n_values)
        assert first["oracle.grid_points"] == 0
    else:
        assert first["system.draws_per_trial"] == 1.0
        # N = 1 has one candidate, N = 2 has 256 phases x 64 amplitudes.
        assert first["oracle.grid_points"] == trials * (1 + 256 * 64)


@pytest.mark.parametrize("name", sorted(TINY))
def test_correct_output_passes_every_check(name, tmp_path):
    inv = _bench(name, tmp_path).invoke(SEED, trace=False)
    results = _verify(TINY[name], inv)
    assert inv.exit == 0
    assert [check for check, ok in results if not ok] == []


def test_one_flipped_digit_fails_a_check(tmp_path):
    bench = _bench("srr_sweep", tmp_path)
    inv = bench.invoke(SEED, trace=False)
    csv, log = inv.outputs
    lines = csv.decode().splitlines()
    fields = lines[1].split(",")
    at = fields[3].index(".") + 1       # first decimal of mean_rate_bits
    digit = "1" if fields[3][at] != "1" else "2"
    fields[3] = fields[3][:at] + digit + fields[3][at + 1:]
    lines[1] = ",".join(fields)
    flipped = replace(inv, outputs=(("\n".join(lines) + "\n").encode(), log))

    results = run._check_outputs(bench, SEED, flipped, [])
    failed = [name for name, ok in results if not ok]
    assert failed and len(failed) / len(results) > 0


def test_failed_exit_fails_every_check(tmp_path):
    bench = _bench("rate_vs_n", tmp_path)
    crashed = run.Invocation(exit=3, setup_s=0.1, run_s=0.1, max_rss_kb=0,
                             outputs=(b"", b""), trace=None)
    results = run._check_outputs(bench, SEED, crashed, [crashed])
    assert results and not any(ok for _, ok in results)
