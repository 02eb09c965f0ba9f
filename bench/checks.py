"""Output checks behind the benchmark's failure count.

``verify`` checks one CLI output against what the workload config
implies: the header, the row count, the key columns of every row in
order, that every value is finite with rates >= 0, and a seeded sample of
rows recomputed through the scalar public path (``trial_seed`` ->
``sample_channels`` -> design -> ``snr``/``rate``). The comparison
tolerance, 1e-9 relative, is far below any rate difference between
designs but admits last-digit changes from a reordered sum. The sample
always holds the first and the last row.

The headers, method order and ``k`` rule are written out here rather than
imported from the package, so that the checks do not trust what they
check. Every call of ``verify`` for one workload makes the same checks;
missing or unreadable output fails them rather than skipping them.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np

import irsbeam as ib
from workloads import METHODS, Workload

REL_TOL = 1e-9
SAMPLES = 4
ORACLE_PHASE_STEPS, ORACLE_AMPLITUDE_STEPS = 256, 64

HEADERS = {
    "rate-vs-n": ("n", "method", "mean_rate_bits", "std_rate_bits", "trials"),
    "srr-sweep": ("k", "p_s_dbm", "method", "mean_rate_bits", "std_rate_bits", "trials"),
    "oracle-check": ("seed", "n", "method", "rate_bits", "best_rate_bits", "gap_bits"),
    "convergence": ("seed", "iteration", "lambda", "rate_bits"),
}
TRIAL_LOG_HEADER = ("k", "p_s_dbm", "method", "trial", "seed", "rate_bits")


def parse_csv(text: str) -> tuple[tuple[str, ...], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return (), []
    return tuple(lines[0].split(",")), [line.split(",") for line in lines[1:]]


def close(text: str, reference: float) -> bool:
    return abs(float(text) - reference) <= REL_TOL * max(abs(reference), 1.0)


def _rate_ok(text: str) -> bool:
    value = float(text)
    return math.isfinite(value) and value >= 0.0


def _params(n: int, p_s_dbm: float | None = None) -> ib.SystemParams:
    params = ib.SystemParams.default(n)
    if p_s_dbm is not None:
        params = replace(params, p_s=ib.dbm_to_watts(p_s_dbm))
    return params


def _design(method: str, ch, params, k, master_seed: int, t: int):
    if method == "egr":
        return ib.egr(ch, params)
    if method == "mrr":
        return ib.mrr(ch, params)
    if method == "srr":
        return ib.srr(ch, params, k)
    if method == "max-asnr":
        return ib.max_asnr(ch, params)[0]
    if method == "random-phase":
        return ib.random_phase(ch, params, ib.trial_seed(master_seed, t, stream=1))
    if method == "passive-aligned":
        return ib.passive_aligned(ch, params)
    raise ValueError(f"unknown method {method!r}")


def trial_rate(method: str, params, master_seed: int, t: int, k: int | None) -> float:
    """Rate of one (method, trial) through the scalar public path."""
    ch = ib.sample_channels(params, ib.trial_seed(master_seed, t))
    bf = _design(method, ch, params, k, master_seed, t)
    return ib.rate(ib.snr(bf, ch, params))


def _summary(rates: list[float]) -> tuple[float, float]:
    arr = np.array(rates)
    return float(np.mean(arr)), float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0


def _samples(count: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [0, count - 1] + [rng.randrange(count) for _ in range(SAMPLES - 2)]


class _Checks:
    """Collects (name, passed) pairs; a check that raises has failed."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool]] = []

    def add(self, name: str, check) -> None:
        try:
            passed = bool(check())
        except Exception:  # noqa: BLE001 - any error in a check is a failed check
            passed = False
        self.results.append((name, passed))


def verify(workload: Workload, seed: int, csv_text: str,
           log_text: str | None) -> list[tuple[str, bool]]:
    """Check one output of ``workload`` run at master seed ``seed``."""
    checks = _Checks()
    header, rows = parse_csv(csv_text)
    checks.add("header", lambda: header == HEADERS[workload.command])
    verify_rows = {
        "rate-vs-n": _verify_rate_vs_n,
        "srr-sweep": _verify_srr_sweep,
        "oracle-check": _verify_oracle_check,
        "convergence": _verify_convergence,
    }[workload.command]
    verify_rows(checks, workload.doc, seed, rows, log_text or "")
    return checks.results


def _verify_rate_vs_n(checks: _Checks, doc: dict, seed: int, rows, _log) -> None:
    trials = doc["trials"]
    expected = [(n, m) for n in doc["n_values"] for m in METHODS]
    checks.add("row_count", lambda: len(rows) == len(expected))
    checks.add("row_keys", lambda: all(
        row[:2] == [str(n), m] for row, (n, m) in zip(rows, expected, strict=True)))
    checks.add("values", lambda: rows and all(
        _rate_ok(row[2]) and _rate_ok(row[3]) and row[4] == str(trials) for row in rows))
    for i in _samples(len(expected), seed):
        n, m = expected[i]

        def recompute(i=i, n=n, m=m):
            rates = [trial_rate(m, _params(n), seed, t, max(1, n // 2)) for t in range(trials)]
            mean, std = _summary(rates)
            return close(rows[i][2], mean) and close(rows[i][3], std)

        checks.add(f"recompute_row[{i}]", recompute)


def _verify_srr_sweep(checks: _Checks, doc: dict, seed: int, rows, log_text: str) -> None:
    trials, n = doc["trials"], doc["n_values"][0]
    expected = [(k, p, m) for p in doc["p_s_dbm_values"]
                for k, m in [(k, "srr") for k in doc["k_values"]] + [(n, "mrr")]]
    checks.add("row_count", lambda: len(rows) == len(expected))
    checks.add("row_keys", lambda: all(
        int(row[0]) == k and float(row[1]) == p and row[2] == m
        for row, (k, p, m) in zip(rows, expected, strict=True)))
    checks.add("values", lambda: rows and all(
        _rate_ok(row[3]) and _rate_ok(row[4]) and row[5] == str(trials) for row in rows))

    log_header, log_rows = parse_csv(log_text)
    seeds = [str(ib.trial_seed(seed, t)) for t in range(trials)]
    checks.add("log_header", lambda: log_header == TRIAL_LOG_HEADER)
    checks.add("log_row_count", lambda: len(log_rows) == len(expected) * trials)
    checks.add("log_row_keys", lambda: all(
        int(row[0]) == k and float(row[1]) == p and row[2] == m
        and row[3] == str(t) and row[4] == seeds[t]
        for row, (k, p, m, t) in zip(
            log_rows, [(*cell, t) for cell in expected for t in range(trials)], strict=True)))
    checks.add("log_values", lambda: log_rows and all(_rate_ok(row[5]) for row in log_rows))

    def summary_matches_log() -> bool:
        for c, row in enumerate(rows):
            mean, std = _summary([float(r[5]) for r in log_rows[c * trials:(c + 1) * trials]])
            if not (close(row[3], mean) and close(row[4], std)):
                return False
        return bool(rows)

    checks.add("summary_matches_log", summary_matches_log)
    for i in _samples(len(expected), seed):
        k, p, m = expected[i]

        def recompute(i=i, k=k, p=p, m=m):
            rates = [trial_rate(m, _params(n, p), seed, t, k) for t in range(trials)]
            mean, std = _summary(rates)
            return close(rows[i][3], mean) and close(rows[i][4], std)

        checks.add(f"recompute_row[{i}]", recompute)
    for j in _samples(len(expected) * trials, seed + 1):
        k, p, m = expected[j // trials]

        def recompute_log(j=j, k=k, p=p, m=m):
            return close(log_rows[j][5], trial_rate(m, _params(n, p), seed, j % trials, k))

        checks.add(f"recompute_log_row[{j}]", recompute_log)


def _verify_oracle_check(checks: _Checks, doc: dict, seed: int, rows, _log) -> None:
    trials = doc["trials"]
    seeds = [str(ib.trial_seed(seed, t)) for t in range(trials)]
    expected = [(n, t, m) for n in doc["n_values"] for t in range(trials) for m in METHODS]
    checks.add("row_count", lambda: len(rows) == len(expected))
    checks.add("row_keys", lambda: all(
        row[:3] == [seeds[t], str(n), m] for row, (n, t, m) in zip(rows, expected, strict=True)))
    checks.add("values", lambda: rows and all(
        _rate_ok(row[3]) and _rate_ok(row[4]) and close(row[5], float(row[4]) - float(row[3]))
        and row[4] == rows[i - i % len(METHODS)][4]
        for i, row in enumerate(rows)))
    for i in _samples(len(expected), seed):
        n, t, m = expected[i]

        def recompute(i=i, n=n, t=t, m=m):
            params = _params(n)
            ch = ib.sample_channels(params, ib.trial_seed(seed, t))
            best = ib.grid_search_best(ch, params, ORACLE_PHASE_STEPS, ORACLE_AMPLITUDE_STEPS)
            return (close(rows[i][3], trial_rate(m, params, seed, t, max(1, n // 2)))
                    and close(rows[i][4], best.best_rate_bits))

        checks.add(f"recompute_row[{i}]", recompute)


def _verify_convergence(checks: _Checks, doc: dict, seed: int, rows, _log) -> None:
    traces: list[list[list[str]]] = []
    for row in rows:
        if row[1:2] == ["0"] or not traces:
            traces.append([])
        traces[-1].append(row)
    expected = [(n, t) for n in doc["n_values"] for t in range(doc["trials"])]
    seeds = [str(ib.trial_seed(seed, t)) for t in range(doc["trials"])]
    checks.add("trace_count", lambda: len(traces) == len(expected))
    checks.add("trace_keys", lambda: all(
        [row[:2] for row in trace] == [[seeds[t], str(it)] for it in range(len(trace))]
        for trace, (_, t) in zip(traces, expected, strict=True)))
    checks.add("values", lambda: rows and all(
        math.isfinite(float(row[2])) and float(row[2]) > 0.0 and _rate_ok(row[3])
        for row in rows))
    for i in _samples(len(expected), seed):
        n, t = expected[i]

        def recompute(i=i, n=n, t=t):
            params = _params(n)
            _, trace = ib.max_asnr(ib.sample_channels(params, ib.trial_seed(seed, t)), params)
            return len(traces[i]) == len(trace.records) and all(
                row[1] == str(rec.iteration) and close(row[2], rec.lam)
                and close(row[3], rec.rate_bits)
                for row, rec in zip(traces[i], trace.records))

        checks.add(f"recompute_trace[{i}]", recompute)
