"""Seeded Monte-Carlo experiment runner.

Each experiment cell draws ``trials`` independent channel realizations,
one per child seed mixed from (master_seed, trial index), designs the
requested beamformer, and aggregates achievable rates. Trials are pure
functions of their seed, so identical configs give identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from .beamforming import Beamformer, Method, SolverOptions, egr, max_asnr, max_asnr_batch, \
    mrr, passive_aligned, random_phase, srr, srr_batch
from .config import ExperimentConfig
from .oracle import CHECK_AMPLITUDE_STEPS, CHECK_PHASE_STEPS, grid_search_best
from .system import ChannelRealization, SystemParams, sample_channels, \
    sample_channels_batch, trial_seed, trial_seeds

__all__ = [
    "ExperimentResult",
    "build_beamformer",
    "monte_carlo_rates",
    "run_convergence",
    "run_srr_sweep",
    "run_rate_vs_n",
    "run_oracle_check",
    "format_csv",
]

RATE_VS_N_METHODS = (
    Method.MAX_ASNR,
    Method.MRR,
    Method.SRR,
    Method.EGR,
    Method.RANDOM_PHASE,
    Method.PASSIVE_ALIGNED,
)

CONVERGENCE_HEADER = ("seed", "iteration", "lambda", "rate_bits")
SRR_SWEEP_HEADER = ("k", "p_s_dbm", "method", "mean_rate_bits", "std_rate_bits", "trials")
RATE_VS_N_HEADER = ("n", "method", "mean_rate_bits", "std_rate_bits", "trials")
ORACLE_CHECK_HEADER = ("seed", "n", "method", "rate_bits", "best_rate_bits", "gap_bits")


@dataclass(frozen=True)
class ExperimentResult:
    """CSV-ready experiment output plus optional per-trial log."""

    header: tuple[str, ...]
    rows: list[tuple]
    trial_header: tuple[str, ...] | None = None
    trial_rows: list[tuple] | None = None
    notes: tuple[str, ...] = ()


def _design(method: Method, ch: ChannelRealization, params: SystemParams,
            k: int | None, solver: SolverOptions | None,
            phase_seed: int | None) -> tuple[Beamformer, bool]:
    """One beamformer design by method tag, and whether its iteration
    converged (the closed-form designs always do)."""
    if method is Method.EGR:
        return egr(ch, params), True
    if method is Method.MRR:
        return mrr(ch, params), True
    if method is Method.SRR:
        if k is None:
            raise ValueError("SRR requires a selection size k")
        return srr(ch, params, k), True
    if method is Method.MAX_ASNR:
        bf, trace = max_asnr(ch, params, solver or SolverOptions())
        return bf, trace.converged
    if method is Method.RANDOM_PHASE:
        if phase_seed is None:
            raise ValueError("random-phase requires a seed")
        return random_phase(ch, params, phase_seed), True
    if method is Method.PASSIVE_ALIGNED:
        return passive_aligned(ch, params), True
    raise ValueError(f"unsupported method {method!r}")


def build_beamformer(method: Method, ch: ChannelRealization, params: SystemParams,
                     k: int | None = None,
                     solver: SolverOptions | None = None,
                     phase_seed: int | None = None) -> Beamformer:
    """Dispatch one beamformer design by method tag."""
    return _design(method, ch, params, k, solver, phase_seed)[0]


def _summary_cells(n: int) -> list[tuple[Method, int | None]]:
    """The (method, k) cells of the summary scenarios at ``n`` elements:
    every method, with ``srr`` on half the elements."""
    return [(m, max(1, n // 2) if m is Method.SRR else None) for m in RATE_VS_N_METHODS]


def _channel_rate(method: Method, ch: ChannelRealization, params: SystemParams,
                  master_seed: int, trial: int, k: int | None,
                  solver: SolverOptions | None) -> tuple[float, bool]:
    """Rate of one design on the channel already drawn for ``trial``, and
    whether it converged."""
    bf, converged = _design(method, ch, params, k, solver,
                            trial_seed(master_seed, trial, stream=1))
    return metrics.rate(metrics.snr(bf, ch, params)), converged


def _trial_rates(method: Method, params: SystemParams, trials: int, master_seed: int,
                 k: int | None, solver: SolverOptions | None) -> tuple[np.ndarray, int]:
    """Per-trial rates in trial order, and how many designs did not converge."""
    if trials < 1:
        raise ValueError("trials must be >= 1")

    def one(t: int) -> tuple[float, bool]:
        try:
            ch = sample_channels(params, trial_seed(master_seed, t))
            return _channel_rate(method, ch, params, master_seed, t, k, solver)
        except Exception as err:
            raise RuntimeError(f"trial {t} failed for method {method.value}: {err}") from err

    rates, converged = zip(*(one(t) for t in range(trials)))
    return np.array(rates), converged.count(False)


def monte_carlo_rates(method: Method, params: SystemParams, trials: int,
                      master_seed: int, k: int | None = None,
                      solver: SolverOptions | None = None) -> np.ndarray:
    """Per-trial achievable rates, in trial order."""
    return _trial_rates(method, params, trials, master_seed, k, solver)[0]


def _unconverged_note(unconverged: int, runs: int) -> str:
    return f"max-asnr: {unconverged} of {runs} runs did not converge"


# Trials drawn and designed together by ``run_convergence``. Larger blocks
# are faster (128 rows ran the convergence benchmark at about 1.4x the
# trials/s of 32) but hold more memory per block, and the benchmark's peak
# RSS reading also grows with the outputs its harness keeps per run.
CONVERGENCE_BLOCK = 32


def run_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    """Per-iteration scale and rate traces of the iterative method, one
    block of rows per element count, one trace per seed.

    Trials are drawn and designed in blocks of ``CONVERGENCE_BLOCK`` with
    ``max_asnr_batch``, which equals ``max_asnr`` trial by trial, bit for
    bit. The seeds of all trials are mixed once, since they do not depend
    on N. A note counts the runs that hit ``max_iterations``.
    """
    rows: list[tuple] = []
    unconverged = 0
    all_seeds = trial_seeds(cfg.master_seed, range(cfg.trials))
    for n in cfg.n_values:
        params = cfg.params_for(n)
        for start in range(0, cfg.trials, CONVERGENCE_BLOCK):
            seeds = all_seeds[start:start + CONVERGENCE_BLOCK]
            g, f, h = sample_channels_batch(params, seeds)
            batch = max_asnr_batch(g, f, h, params, cfg.solver,
                                   np.arange(start, start + len(seeds)))
            rows.extend((seed, it, lam, rate_bits)
                        for seed, records in zip(seeds, batch.records)
                        for it, (lam, rate_bits) in enumerate(records))
            unconverged += int(np.count_nonzero(~batch.converged))
    notes = (_unconverged_note(unconverged, len(cfg.n_values) * cfg.trials),)
    return ExperimentResult(CONVERGENCE_HEADER, rows, notes=notes)


def run_srr_sweep(cfg: ExperimentConfig,
                  verbose_trials: bool = False) -> ExperimentResult:
    """Selection-size sweep at each BS power level, with a full-selection
    reference row per power level.

    Each trial is seeded and drawn once for the whole sweep (the draw does
    not depend on P_S), and every cell runs over all trials as array
    operations that equal ``srr``/``mrr`` -> ``metrics.snr`` ->
    ``metrics.rate`` trial by trial, bit for bit.
    """
    n = cfg.n_values[0]
    seeds = trial_seeds(cfg.master_seed, range(cfg.trials))
    g, f, h = sample_channels_batch(cfg.params_for(n), seeds)
    cells = [(Method.SRR, k) for k in cfg.k_values] + [(Method.MRR, n)]
    designs = {k: srr_batch(g, f, h, k) for k in {k for _, k in cells}}
    rows: list[tuple] = []
    trial_rows: list[tuple] = []
    for p_s_dbm in cfg.p_s_dbm_values:
        params = cfg.params_for(n, p_s_dbm=p_s_dbm)
        for method, k in cells:
            design = designs[k]
            p = np.multiply(design.lam(params)[:, None], design.p_normalized)
            rates = metrics.rate_batch(p, g, f, h, params)
            rows.append((k, p_s_dbm, method.value, float(np.mean(rates)),
                         _sample_std(rates), cfg.trials))
            if verbose_trials:
                trial_rows.extend(
                    (k, p_s_dbm, method.value, t, seed, r)
                    for t, (seed, r) in enumerate(zip(seeds, rates))
                )
    return ExperimentResult(
        SRR_SWEEP_HEADER, rows,
        trial_header=("k", "p_s_dbm", "method", "trial", "seed", "rate_bits")
        if verbose_trials else None,
        trial_rows=trial_rows if verbose_trials else None,
    )


def _sample_std(rates: np.ndarray) -> float:
    return float(np.std(rates, ddof=1)) if rates.size > 1 else 0.0


def run_rate_vs_n(cfg: ExperimentConfig,
                  verbose_trials: bool = False) -> ExperimentResult:
    """Mean rate of every method across the element-count grid, on the
    cells of ``_summary_cells``. Also runs ``single``, whose default grid
    is N = 64. A note counts the ``max_asnr`` runs that hit
    ``max_iterations``."""
    rows: list[tuple] = []
    trial_rows: list[tuple] = []
    seeds = trial_seeds(cfg.master_seed, range(cfg.trials)) if verbose_trials else ()
    unconverged = 0
    for n in cfg.n_values:
        params = cfg.params_for(n)
        for method, k in _summary_cells(n):
            rates, missed = _trial_rates(method, params, cfg.trials, cfg.master_seed,
                                         k, cfg.solver)
            unconverged += missed
            rows.append((n, method.value, float(np.mean(rates)),
                         _sample_std(rates), cfg.trials))
            if verbose_trials:
                trial_rows.extend(
                    (n, method.value, t, seed, r)
                    for t, (seed, r) in enumerate(zip(seeds, rates))
                )
    return ExperimentResult(
        RATE_VS_N_HEADER, rows,
        trial_header=("n", "method", "trial", "seed", "rate_bits")
        if verbose_trials else None,
        trial_rows=trial_rows if verbose_trials else None,
        notes=(_unconverged_note(unconverged, len(cfg.n_values) * cfg.trials),),
    )


# The benchmark's tracer looks the runners up by name.
run_single = run_rate_vs_n


def run_oracle_check(cfg: ExperimentConfig) -> ExperimentResult:
    """Compare every method against the brute-force grid optimum at small
    element counts. A note counts the ``max_asnr`` design runs that hit
    ``max_iterations``."""
    rows: list[tuple] = []
    unconverged = 0
    for n in cfg.n_values:
        params = cfg.params_for(n)
        for t in range(cfg.trials):
            seed = trial_seed(cfg.master_seed, t)
            ch = sample_channels(params, seed)
            best = grid_search_best(ch, params, CHECK_PHASE_STEPS, CHECK_AMPLITUDE_STEPS)
            for method, k in _summary_cells(n):
                r, converged = _channel_rate(method, ch, params, cfg.master_seed, t,
                                             k, cfg.solver)
                unconverged += not converged
                rows.append((seed, n, method.value, r, best.best_rate_bits,
                             best.best_rate_bits - r))
    notes = (_unconverged_note(unconverged, len(cfg.n_values) * cfg.trials),)
    return ExperimentResult(ORACLE_CHECK_HEADER, rows, notes=notes)


def _conversion(value) -> str:
    if isinstance(value, str):
        return "%s"
    if isinstance(value, (int, np.integer)):
        return "%d"
    if isinstance(value, (float, np.floating)):
        return "%.12g"
    raise TypeError(f"cannot serialize {value!r} into CSV")


def format_csv(header: tuple[str, ...], rows: list[tuple]) -> str:
    """Render rows with fixed column order, 12-significant-digit floats,
    and LF line endings, so identical results yield identical bytes.

    Strings are written as they are, integers (bool and numpy integers
    too) as decimal digits, floats (numpy floats too) with ``%.12g``; any
    other value raises TypeError. Each row is rendered by one %-template,
    made once per tuple of value types."""
    templates: dict[tuple[type, ...], str] = {}
    lines = [",".join(header)]
    for row in rows:
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(map(_conversion, row))
        lines.append(template % row)
    return "\n".join(lines) + "\n"
