"""Seeded Monte-Carlo experiment runner.

Each experiment cell draws ``trials`` independent channel realizations,
one per child seed mixed from (master_seed, trial index), designs the
requested beamformer, and aggregates achievable rates. Trials are pure
functions of their seed, so identical configs give identical bytes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

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
    "Table",
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


@dataclass
class Table:
    """The rows of a CSV, held as blocks ``(lead, columns)``.

    Each row of a block is its ``lead`` values followed by one value from
    each of its ``columns``, sequences of one length; a block without
    columns is the one row ``lead``. Blocks may share a column object
    (the trial and seed columns of a trial log), which ``format_csv`` then
    renders once. ``len`` is the number of rows.
    """

    blocks: list[tuple[tuple, tuple[Sequence, ...]]] = field(default_factory=list)

    def add(self, lead: tuple = (), *columns: Sequence) -> None:
        self.blocks.append((lead, columns))

    def __len__(self) -> int:
        return sum(len(columns[0]) if columns else 1 for _, columns in self.blocks)


@dataclass(frozen=True)
class ExperimentResult:
    """CSV-ready experiment output plus optional per-trial log."""

    header: tuple[str, ...]
    table: Table
    trial_header: tuple[str, ...] | None = None
    trial_table: Table | None = None
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


@dataclass
class _Naming:
    """A context that re-raises any error inside it as a RuntimeError
    naming the trial, and the method if one is given. It is a class, not a
    ``contextlib.contextmanager``: it runs once per trial and design, and
    the generator costs about three times as much per use."""

    trial: int
    method: Method | None = None

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, err, traceback) -> None:
        if isinstance(err, Exception):
            what = "" if self.method is None else f" for method {self.method.value}"
            raise RuntimeError(f"trial {self.trial} failed{what}: {err}") from err


def _trial_rates(method: Method, params: SystemParams, seeds: list[int], master_seed: int,
                 k: int | None, solver: SolverOptions | None) -> tuple[np.ndarray, int]:
    """Per-trial rates in trial order, and how many designs did not
    converge; trial t is drawn from ``seeds[t]``."""
    if not seeds:
        raise ValueError("trials must be >= 1")

    def one(t: int, seed: int) -> tuple[float, bool]:
        with _Naming(t, method):
            ch = sample_channels(params, seed)
            return _channel_rate(method, ch, params, master_seed, t, k, solver)

    rates, converged = zip(*(one(t, seed) for t, seed in enumerate(seeds)))
    return np.array(rates), converged.count(False)


def monte_carlo_rates(method: Method, params: SystemParams, trials: int,
                      master_seed: int, k: int | None = None,
                      solver: SolverOptions | None = None) -> np.ndarray:
    """Per-trial achievable rates, in trial order."""
    seeds = trial_seeds(master_seed, range(trials))
    return _trial_rates(method, params, seeds, master_seed, k, solver)[0]


def _unconverged_note(unconverged: int, runs: int) -> str:
    return f"max-asnr: {unconverged} of {runs} runs did not converge"


# Channel entries (trials times elements) that the batched runners draw
# and design at once: blocks of ``max(1, BLOCK_ENTRIES // N)`` trials, 128
# at N = 64. A block's arrays are a few times BLOCK_ENTRIES complex values,
# so memory stays bounded at any N and trial count, and the per-block numpy
# dispatch is spread over as many trials as that bound allows.
BLOCK_ENTRIES = 8192


def _blocks(params: SystemParams, seeds: list[int]):
    """Yield ``(trials, block_seeds, (g, f, h))`` for consecutive blocks of
    ``max(1, BLOCK_ENTRIES // N)`` trials, drawn with
    ``sample_channels_batch``; ``trials`` holds the block's trial indices,
    which the batch kernels name in their errors."""
    size = max(1, BLOCK_ENTRIES // params.n_elements)
    for start in range(0, len(seeds), size):
        block = seeds[start:start + size]
        yield np.arange(start, start + len(block)), block, sample_channels_batch(params, block)


def run_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    """Per-iteration scale and rate traces of the iterative method, one
    group of rows per element count, one trace per seed.

    Trials are drawn and designed in blocks of ``max(1, BLOCK_ENTRIES // N)``
    (``_blocks``) with ``max_asnr_batch``, which equals ``max_asnr`` trial
    by trial, bit for bit; so the memory beside the output rows stays
    bounded at any N and trial count. The seeds of all trials are mixed
    once, since they do not depend on N. The rows of each N are one block
    of four columns. A note counts the runs that hit ``max_iterations``.
    """
    table = Table()
    unconverged = 0
    all_seeds = trial_seeds(cfg.master_seed, range(cfg.trials))
    for n in cfg.n_values:
        params = cfg.params_for(n)
        seeds: list[int] = []
        iterations: list[int] = []
        records: list[tuple[float, float]] = []
        for trials, block, (g, f, h) in _blocks(params, all_seeds):
            batch = max_asnr_batch(g, f, h, params, cfg.solver, trials)
            for seed, trace in zip(block, batch.records):
                seeds += [seed] * len(trace)
                iterations += range(len(trace))
                records += trace
            unconverged += int(np.count_nonzero(~batch.converged))
        table.add((), seeds, iterations, *zip(*records))
    notes = (_unconverged_note(unconverged, len(cfg.n_values) * cfg.trials),)
    return ExperimentResult(CONVERGENCE_HEADER, table, notes=notes)


def run_srr_sweep(cfg: ExperimentConfig,
                  verbose_trials: bool = False) -> ExperimentResult:
    """Selection-size sweep at each BS power level, with a full-selection
    reference row per power level.

    Each trial is seeded and drawn once for the whole sweep (the draw does
    not depend on P_S), in blocks of ``max(1, BLOCK_ENTRIES // N)``
    (``_blocks``). Each block designs every k once and evaluates every
    (P_S, cell) as array operations that equal ``srr``/``mrr`` ->
    ``metrics.snr`` -> ``metrics.rate`` trial by trial, bit for bit. Each
    cell's rates are joined in trial order before its mean and std; so
    beside one rate per trial and cell, memory stays bounded at any trial
    count. Each cell's trial log is one block led by the cell, and every
    block shares one trial and one seed column.
    """
    n = cfg.n_values[0]
    seeds = trial_seeds(cfg.master_seed, range(cfg.trials))
    cells = [(Method.SRR, k) for k in cfg.k_values] + [(Method.MRR, n)]
    levels = [(p_s_dbm, cfg.params_for(n, p_s_dbm=p_s_dbm)) for p_s_dbm in cfg.p_s_dbm_values]
    grid = [(p_s_dbm, params, method.value, k)
            for p_s_dbm, params in levels for method, k in cells]
    selections = {k for _, k in cells}
    parts: list[list[np.ndarray]] = [[] for _ in grid]
    for trials, _, (g, f, h) in _blocks(cfg.params_for(n), seeds):
        designs = {k: srr_batch(g, f, h, k, trials) for k in selections}
        for part, (_, params, _, k) in zip(parts, grid):
            design = designs[k]
            p = np.multiply(design.lam(params)[:, None], design.p_normalized)
            part.append(metrics.rate_batch(p, g, f, h, params, trials))
    table, log = Table(), Table()
    trial_column = range(cfg.trials)
    for part, (p_s_dbm, _, method, k) in zip(parts, grid):
        rates = np.concatenate(part)
        table.add((k, p_s_dbm, method, float(np.mean(rates)), _sample_std(rates), cfg.trials))
        if verbose_trials:
            log.add((k, p_s_dbm, method), trial_column, seeds, rates.tolist())
    return ExperimentResult(
        SRR_SWEEP_HEADER, table,
        trial_header=("k", "p_s_dbm", "method", "trial", "seed", "rate_bits")
        if verbose_trials else None,
        trial_table=log if verbose_trials else None,
    )


def _sample_std(rates: np.ndarray) -> float:
    return float(np.std(rates, ddof=1)) if rates.size > 1 else 0.0


def run_rate_vs_n(cfg: ExperimentConfig,
                  verbose_trials: bool = False) -> ExperimentResult:
    """Mean rate of every method across the element-count grid, on the
    cells of ``_summary_cells``. Also runs ``single``, whose default grid
    is N = 64. Every cell draws its trials from one list of seeds, which
    the trial log's blocks share as their seed column. A note counts the
    ``max_asnr`` runs that hit ``max_iterations``."""
    table, log = Table(), Table()
    seeds = trial_seeds(cfg.master_seed, range(cfg.trials))
    trial_column = range(cfg.trials)
    unconverged = 0
    for n in cfg.n_values:
        params = cfg.params_for(n)
        for method, k in _summary_cells(n):
            rates, missed = _trial_rates(method, params, seeds, cfg.master_seed,
                                         k, cfg.solver)
            unconverged += missed
            table.add((n, method.value, float(np.mean(rates)), _sample_std(rates),
                       cfg.trials))
            if verbose_trials:
                log.add((n, method.value), trial_column, seeds, rates.tolist())
    return ExperimentResult(
        RATE_VS_N_HEADER, table,
        trial_header=("n", "method", "trial", "seed", "rate_bits")
        if verbose_trials else None,
        trial_table=log if verbose_trials else None,
        notes=(_unconverged_note(unconverged, len(cfg.n_values) * cfg.trials),),
    )


# The benchmark's tracer looks the runners up by name.
run_single = run_rate_vs_n


def run_oracle_check(cfg: ExperimentConfig) -> ExperimentResult:
    """Compare every method against the brute-force grid optimum at small
    element counts. The rows of each N are one block of six columns,
    trial-major. A note counts the ``max_asnr`` design runs that hit
    ``max_iterations``."""
    table = Table()
    unconverged = 0
    seeds = trial_seeds(cfg.master_seed, range(cfg.trials))
    for n in cfg.n_values:
        params = cfg.params_for(n)
        cells = _summary_cells(n)
        rates: list[float] = []
        best: list[float] = []
        for t, seed in enumerate(seeds):
            with _Naming(t):
                ch = sample_channels(params, seed)
                best += [grid_search_best(ch, params, CHECK_PHASE_STEPS,
                                          CHECK_AMPLITUDE_STEPS).best_rate_bits] * len(cells)
            for method, k in cells:
                with _Naming(t, method):
                    r, converged = _channel_rate(method, ch, params, cfg.master_seed, t,
                                                 k, cfg.solver)
                unconverged += not converged
                rates.append(r)
        table.add((), [seed for seed in seeds for _ in cells], [n] * len(rates),
                  [method.value for method, _ in cells] * len(seeds), rates, best,
                  [b - r for b, r in zip(best, rates)])
    notes = (_unconverged_note(unconverged, len(cfg.n_values) * cfg.trials),)
    return ExperimentResult(ORACLE_CHECK_HEADER, table, notes=notes)


def _conversion(value) -> str | None:
    # None for a str subclass (an enum member, say): %s would call its own
    # __str__ rather than give its string value.
    if isinstance(value, str):
        return "%s" if type(value) is str else None
    if isinstance(value, (int, np.integer)):
        return "%d"
    if isinstance(value, (float, np.floating)):
        return "%.12g"
    raise TypeError(f"cannot serialize {value!r} into CSV")


def _field(value) -> str:
    conversion = _conversion(value)
    return str.__str__(value) if conversion is None else conversion % value


def format_csv(header: tuple[str, ...], table: Table) -> str:
    """Render a table with fixed column order, 12-significant-digit floats,
    and LF line endings, so identical results yield identical bytes.

    Strings are written as their string value (str subclasses such as
    enum members too), integers (bool and numpy integers too) as decimal
    digits, floats (numpy floats too) with ``%.12g``; any other value
    raises TypeError. Each block's lead is rendered once. A column whose
    values share one type takes one %-conversion in the block's row
    template, a column of mixed types or of a str subclass is rendered
    value by value, and a column object that several blocks share is
    rendered once per call. Each block's rows are then filled in by one
    %-operation."""
    uses = Counter(id(column) for _, columns in table.blocks for column in columns)
    shared: dict[int, list[str]] = {}
    parts = [",".join(header) + "\n"]
    for lead, columns in table.blocks:
        head = ",".join(map(_field, lead))
        if not columns:
            parts.append(head + "\n")
            continue
        size = len(columns[0])
        if any(len(column) != size for column in columns):
            raise ValueError(f"block {lead!r}: columns must have one length")
        conversions = [head.replace("%", "%%")] if lead else []
        values = []
        for column in columns:
            if uses[id(column)] > 1:
                if id(column) not in shared:
                    shared[id(column)] = [_field(v) for v in column]
                conversions.append("%s")
                values.append(shared[id(column)])
            elif len(set(map(type, column))) == 1 and (conversion := _conversion(column[0])):
                conversions.append(conversion)
                values.append(column)
            else:
                conversions.append("%s")
                values.append([_field(v) for v in column])
        template = (",".join(conversions) + "\n") * size
        parts.append(template % tuple(chain.from_iterable(zip(*values))))
    return "".join(parts)
