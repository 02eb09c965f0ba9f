"""The benchmark's four workloads, run through the CLI at the default seed,
must write the bytes whose sha256 digests ``bench/golden.json`` holds.

The configs and arguments are the ones ``bench/run.py`` gives each
invocation; ``bench/`` is read, never written.
"""

import hashlib
import json
import sys
import types
from pathlib import Path

import pytest

from irsbeam.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads() -> types.ModuleType:
    # Executed from its source, so that no bytecode cache is written to bench/;
    # registered first, because its dataclass looks its module up by name.
    path = BENCH / "workloads.py"
    module = sys.modules.setdefault("bench_workloads", types.ModuleType("bench_workloads"))
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = _load_workloads()
GOLDEN = json.loads((BENCH / "golden.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_workload_output_matches_golden_digests(name, tmp_path):
    workload = WORKLOADS.WORKLOADS[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config(WORKLOADS.DEFAULT_SEED)))
    out = tmp_path / "out.csv"
    argv = [workload.command, "--config", str(config), "--out", str(out)]
    if workload.verbose_trials:
        argv.append("--verbose-trials")
    assert main(argv) == 0
    outputs = {"csv": out, "trials_csv": out.with_suffix(".trials.csv")}
    digests = {key: hashlib.sha256(path.read_bytes()).hexdigest()
               for key, path in outputs.items() if path.exists()}
    assert digests == GOLDEN[name]
