"""The irsbeam benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation is a fresh single-threaded process (``child.py``) that
imports ``irsbeam`` from ``src/`` and drives ``irsbeam.cli.main`` on a
config document generated from the workload and the seed; the program
sees only that config. A run repeats the invocation until ``--seconds``
have passed and reports medians over the invocations. The first output
of a run is checked in full (see ``checks.py``), every later one must be
byte-identical to it, and a failed exit fails all its checks.

``--trace 0`` reports the end-to-end metrics:

* ``trials_per_s`` - design evaluations (``Workload.evaluations``) per
  second of ``cli.main``, from argument parsing until the CSV is written;
* ``setup_s`` - import of ``irsbeam`` and ``parse_config`` in a fresh
  process, median over the run's invocations;
* ``peak_rss_mb`` - the invocation's max RSS;
* ``checks_passed_frac`` - passed checks / checks made, 1 - failed_frac.
  ``failed_frac`` itself is 0 on a correct program, which no relative
  bound can guard, so it is printed in the report line and carried by
  the ``failed`` and ``attempted`` counts instead.

It also runs the workload once at the package's default seed and reports,
beside the metrics and outside the failure count, whether the CSV bytes
equal the digests in ``golden.json``.

``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics of ``spans.py`` (medians over the traced invocations)
and the tracing overhead as untraced / traced ``trials_per_s``. Traced
output must be byte-identical to untraced output.

Before the result the run prints one JSON report line (environment,
failure fraction, failed check names, digests) and, on stderr, every
metric with its unit. The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from workloads import DEFAULT_SEED, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
MIN_INVOCATIONS = 3
RUN_LIMIT_S = 170.0          # a run ends within this, whatever --seconds says
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "checks_passed_frac": "ratio"}


@dataclass
class Invocation:
    exit: int
    setup_s: float
    run_s: float
    max_rss_kb: int
    outputs: tuple[bytes, bytes]          # (CSV, per-trial log or b"")
    trace: dict | None


class Bench:
    """Runs invocations of one workload inside a scratch directory."""

    def __init__(self, root: Path, work: Path, workload: Workload) -> None:
        self.root, self.work, self.workload = root, work, workload
        self.started = time.perf_counter()
        self.count = 0
        work.mkdir(parents=True, exist_ok=True)

    def invoke(self, seed: int, trace: bool) -> Invocation:
        self.count += 1
        tag = f"{self.count:03d}"
        config = self.work / f"config-{seed}.json"
        config.write_text(json.dumps(self.workload.config(seed)))
        out = self.work / f"out-{tag}.csv"
        log = out.with_suffix(".trials.csv")
        report = self.work / f"report-{tag}.json"
        argv = [self.workload.command, "--config", str(config), "--out", str(out)]
        if self.workload.verbose_trials:
            argv.append("--verbose-trials")
        spec = self.work / f"spec-{tag}.json"
        spec.write_text(json.dumps({
            "src": str(self.root / "src"), "config": str(config),
            "command": self.workload.command, "argv": argv,
            "trace": trace, "report": str(report)}))
        env = {k: v for k, v in os.environ.items() if k in ("PATH", "HOME", "LANG")}
        env.update(CHILD_ENV, PYTHONPATH=str(self.root / "src"))
        timeout = max(5.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(spec)],
                cwd=self.work, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, timeout=timeout)
            code = proc.returncode
            if code != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
        except subprocess.TimeoutExpired:
            code = -1
        data = json.loads(report.read_text()) if code == 0 and report.exists() else {}
        outputs = tuple(p.read_bytes() if p.exists() else b"" for p in (out, log))
        for path in (out, log, report, spec):
            path.unlink(missing_ok=True)
        return Invocation(
            exit=data.get("exit", code if code != 0 else -1),
            setup_s=data.get("setup_s", float("nan")),
            run_s=data.get("run_s", float("nan")),
            max_rss_kb=data.get("max_rss_kb", 0),
            outputs=outputs,
            trace=data.get("trace"))

    def trials_per_s(self, inv: Invocation) -> float:
        """Evaluations per second; a failed invocation completed none."""
        return self.workload.evaluations() / inv.run_s if inv.exit == 0 else 0.0


def _median(values) -> float:
    """Median of the finite values, or 0 when there are none."""
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else 0.0


def _check_outputs(bench: Bench, seed: int, first: Invocation,
                   others: list[Invocation]) -> list[tuple[str, bool]]:
    """Full checks on the first output; exit status and byte identity with
    the first output for the others. A failed exit fails every check."""
    import checks    # imports irsbeam, so only once src/ is on the path

    results = checks.verify(bench.workload, seed, first.outputs[0].decode(errors="replace"),
                            first.outputs[1].decode(errors="replace"))
    if first.exit != 0:
        results = [(name, False) for name, _ in results]
    results.insert(0, ("exit[0]", first.exit == 0))
    for i, inv in enumerate(others, start=1):
        results.append((f"exit[{i}]", inv.exit == 0))
        results.append((f"identical_output[{i}]", inv.exit == 0 and inv.outputs == first.outputs))
    return results


def _digests(inv: Invocation) -> dict[str, str]:
    names = ("csv", "trials_csv")
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in zip(names, inv.outputs) if data}


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_env": CHILD_ENV,
        "seed": seed,
    }


def _run_end_to_end(bench: Bench, seed: int, seconds: float) -> tuple[dict, list, dict]:
    golden = bench.invoke(DEFAULT_SEED, trace=False)
    expected = json.loads((BENCH_DIR / "golden.json").read_text())[bench.workload.name]
    observed = _digests(golden)
    timed_from = time.perf_counter()
    runs: list[Invocation] = []
    while len(runs) < MIN_INVOCATIONS or time.perf_counter() - timed_from < seconds:
        runs.append(bench.invoke(seed, trace=False))
    results = _check_outputs(bench, seed, runs[0], runs[1:])
    passed = sum(ok for _, ok in results)
    metrics = {
        "trials_per_s": _median(bench.trials_per_s(r) for r in runs),
        "setup_s": _median(r.setup_s for r in runs),
        "peak_rss_mb": _median(r.max_rss_kb for r in runs) * 1024 / 1e6,
        "checks_passed_frac": passed / len(results),
    }
    extra = {"golden_digests": "match" if observed == expected else "mismatch",
             "digests": observed,
             "trials_per_s_per_invocation": [bench.trials_per_s(r) for r in runs]}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, results, extra


def _run_traced(bench: Bench, seed: int, seconds: float) -> tuple[dict, list, dict]:
    started = time.perf_counter()
    plain: list[Invocation] = []
    traced: list[Invocation] = []
    while len(traced) < MIN_INVOCATIONS or time.perf_counter() - started < seconds:
        plain.append(bench.invoke(seed, trace=False))
        traced.append(bench.invoke(seed, trace=True))
    results = _check_outputs(bench, seed, plain[0], plain[1:])
    per_run = []
    for i, inv in enumerate(traced):
        results.append((f"traced_exit[{i}]", inv.exit == 0))
        results.append((f"traced_identical_output[{i}]",
                        inv.exit == 0 and inv.outputs == plain[0].outputs))
        if inv.trace is not None:
            layer = spans.layer_metrics(inv.trace)
            layer["experiments.output_bytes"] = sum(len(data) for data in inv.outputs)
            per_run.append(layer)
    counters = [{name: m.get(name) for name in spans.REPEATABLE} for m in per_run]
    results.append(("traced_counters_repeat",
                    len(counters) == len(traced) and all(c == counters[0] for c in counters)))
    traced_tps = _median(bench.trials_per_s(r) for r in traced)
    overhead = _median(bench.trials_per_s(r) for r in plain) / traced_tps if traced_tps else 0.0
    for m in per_run:
        m["trace.overhead_ratio"] = overhead
    metrics = {name: (_median(m[name] for m in per_run), unit)
               for name, unit in spans.UNITS.items()}
    return metrics, results, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")

    root = Path.cwd()
    if not (root / "src" / "irsbeam" / "cli.py").is_file():
        print("no src/irsbeam here: run from the root of an irsbeam checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{workload.name}-{os.getpid()}"
    try:
        bench = Bench(root, work, workload)
        run = _run_traced if args.trace else _run_end_to_end
        metrics, results, extra = run(bench, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    failed = [name for name, ok in results if not ok]
    report = {"workload": workload.name, "trace": args.trace,
              "environment": _environment(args.seed),
              "invocations": bench.count,
              "failed_frac": len(failed) / len(results),
              "failed_checks": failed, **extra}
    print(json.dumps(report))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:>13} {name:<44} {value:>14.6g} {unit}", file=sys.stderr)
    print(f"{workload.name:>13} {'failed_frac':<44} {len(failed) / len(results):>14.6g} ratio",
          file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
