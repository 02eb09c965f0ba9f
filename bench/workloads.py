"""The benchmark's workloads: which ``irsbeam`` subcommand each one runs and
the config document it is given.

Every workload uses the package's default geometry and powers; only the
sweep grids, the trial count and the master seed are set. The grids are
written out in full, equal to today's defaults, so that a change of a
default in the package does not silently change the benchmark. Trial
counts are cut from the CLI's 1000 so that one invocation takes about
1.5 s on a 2-core x86 machine and a run holds several invocations.

Why these four:

* ``rate_vs_n`` - the only workload with ``max_asnr`` at every N up to
  256; its time is spread over draws, seeds, designs and SNR, and most of
  its ``snr`` calls sit in the ``max_asnr`` trace that the runner throws
  away. Largest arrays, so batching shows in peak RSS here.
* ``srr_sweep`` - many small N = 64 cells with no ``max_asnr`` and a
  per-trial log; dominated by channel draws, seed mixing and ``srr``.
  A ``max_asnr`` speed-up must show no change here.
* ``oracle_check`` - the only workload that calls the grid-search oracle,
  vectorized numpy work at N <= 2 rather than Python overhead at large N.
* ``convergence`` - the only workload whose output *is* the per-iteration
  ``max_asnr`` trace, so making the trace opt-in must not slow it.

``single`` is left out: it is ``rate_vs_n``'s N = 64 column on the same
code path.
"""

from __future__ import annotations

from dataclasses import dataclass

# The package's default master seed; golden output digests are taken at it.
DEFAULT_SEED = 12345

# Order in which the summary runners evaluate methods (CSV wire values).
METHODS = ("max-asnr", "mrr", "srr", "egr", "random-phase", "passive-aligned")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # irsbeam subcommand
    doc: dict               # config document, without master_seed
    verbose_trials: bool = False

    def config(self, seed: int) -> dict:
        """Config document for one run; the seed is the master seed."""
        return {**self.doc, "master_seed": seed}

    def evaluations(self) -> int:
        """Design evaluations one invocation completes: one rate for one
        (cell, method, trial), or one trace for ``convergence``."""
        trials = self.doc["trials"]
        n_count = len(self.doc["n_values"])
        if self.command == "srr-sweep":
            return len(self.doc["p_s_dbm_values"]) * (len(self.doc["k_values"]) + 1) * trials
        if self.command == "convergence":
            return n_count * trials
        return n_count * len(METHODS) * trials


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rate_vs_n", "rate-vs-n",
                 {"n_values": [16, 32, 64, 128, 256], "trials": 200}),
        Workload("srr_sweep", "srr-sweep",
                 {"n_values": [64], "k_values": [4, 8, 16, 32, 64],
                  "p_s_dbm_values": [0, 5, 10, 15, 20, 25, 30], "trials": 200},
                 verbose_trials=True),
        Workload("oracle_check", "oracle-check",
                 {"n_values": [1, 2], "trials": 200}),
        Workload("convergence", "convergence",
                 {"n_values": [64], "trials": 3000}),
    )
}
