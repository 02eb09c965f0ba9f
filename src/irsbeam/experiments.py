"""Seeded Monte-Carlo experiment runner.

Every run draws ``trials`` channel realizations, one per child seed mixed
from (master_seed, trial index), a block at a time, designs each of its
cells (a method and its k) on every block, and aggregates each cell's rates.
Trials are pure functions of their seed, so identical configs give identical bytes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import metrics
from .beamforming import Method, SolverOptions, egr_batch, max_asnr, max_asnr_batch, \
    passive_aligned_batch, random_phase, srr_batch
from .config import ExperimentConfig
from .oracle import CHECK_AMPLITUDE_STEPS, CHECK_PHASE_STEPS, grid_search_best
from .system import ChannelRealization, SystemParams, sample_channels, \
    sample_channels_batch, trial_seed, trial_seeds

__all__ = [
    "ExperimentResult",
    "Table",
    "run_convergence",
    "run_srr_sweep",
    "run_rate_vs_n",
    "run_oracle_check",
    "format_csv",
]

CONVERGENCE_HEADER = ("seed", "iteration", "lambda", "rate_bits")
SRR_SWEEP_HEADER = ("k", "p_s_dbm", "method", "mean_rate_bits", "std_rate_bits", "trials")
RATE_VS_N_HEADER = ("n", "method", "mean_rate_bits", "std_rate_bits", "trials")
ORACLE_CHECK_HEADER = ("seed", "n", "method", "rate_bits", "best_rate_bits", "gap_bits")


@dataclass
class Table:
    """The rows of a CSV, held as blocks ``(lead, columns)``.

    Each row of a block is its ``lead`` values followed by one value from
    each of its ``columns``, sequences of one length; a block without
    columns is the one row ``lead``. ``len`` is the number of rows.
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


def _summary_cells(n: int) -> list[tuple[Method, int | None]]:
    """The (method, k) cells of the summary scenarios at ``n`` elements:
    every method in ``Method``'s order, with ``srr`` on half the elements
    and ``mrr`` on all of them."""
    ks = {Method.MRR: n, Method.SRR: max(1, n // 2)}
    return [(m, ks.get(m)) for m in Method]


@dataclass
class _Naming:
    """A context that re-raises any error inside it as
    ``RuntimeError("trial <t> failed[ for method <m>]: <message>")``. Around
    a batch of trials, ``first`` is the run index of its first trial: an
    error that a batch kernel raises for one of its rows carries that row
    as ``row`` (``beamforming._require_rows``), and t is ``first + row``; an
    error tied to no row names ``first``. It is a class, not a
    ``contextlib.contextmanager``: it runs once per trial and design, and
    the generator costs about three times as much per use."""

    first: int
    method: Method | None = None

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, err, traceback) -> None:
        if isinstance(err, Exception):
            what = "" if self.method is None else f" for method {self.method.value}"
            trial = self.first + getattr(err, "row", 0)
            raise RuntimeError(f"trial {trial} failed{what}: {err}") from err


# Channel entries (trials times elements) that the runners draw and design
# at once: blocks of ``max(1, BLOCK_ENTRIES // N)`` trials, 128 at N = 64. A
# block's arrays are a few times BLOCK_ENTRIES complex values, so memory
# stays bounded at any N and trial count, and the per-block numpy dispatch
# is spread over as many trials as that bound allows.
BLOCK_ENTRIES = 8192


def _blocks(n: int, seeds: list[int]):
    """Yield ``(first, block_seeds)`` for consecutive blocks of
    ``max(1, BLOCK_ENTRIES // n)`` trials, ``first`` being the run index of
    the block's first trial."""
    size = max(1, BLOCK_ENTRIES // n)
    for first in range(0, len(seeds), size):
        yield first, seeds[first:first + size]


@dataclass
class _Block:
    """A block of trials: the run index of its first trial, their draws and
    each one's stream-1 seed (``_trial_blocks`` alone fills these two), and
    the draws stacked as (T, N) ``g``, ``f`` and (T,) ``h``."""

    first: int
    channels: list[ChannelRealization]
    phase_seeds: list[int]
    g: np.ndarray
    f: np.ndarray
    h: np.ndarray


def _block_rates(method: Method, block: _Block, params: SystemParams, solver: SolverOptions,
                 max_asnr_per_trial: bool) -> tuple[np.ndarray, int]:
    """The rates of a design other than ``mrr`` and ``srr`` on the trials of
    a block, in trial order, and how many of its designs did not converge.

    ``random_phase``, and ``max_asnr`` when ``max_asnr_per_trial`` is set,
    are designed trial by trial; every other design is one batch kernel
    call over the block, and every rate comes from one ``rate_batch``
    call. Each rate equals ``rate(snr(design(ch), ch, params))`` bit for
    bit."""
    g, f, h, missed = block.g, block.f, block.h, 0
    if method is Method.RANDOM_PHASE or (method is Method.MAX_ASNR and max_asnr_per_trial):
        rows = []
        for t, (ch, seed) in enumerate(zip(block.channels, block.phase_seeds), block.first):
            with _Naming(t, method):
                if method is Method.RANDOM_PHASE:
                    bf = random_phase(ch, params, seed)
                else:
                    bf, trace = max_asnr(ch, params, solver)
                    missed += not trace.converged
            rows.append(bf.p)
        p = np.array(rows)
    else:
        with _Naming(block.first, method):
            if method is Method.MAX_ASNR:
                p_norm, lam, converged, _ = max_asnr_batch(g, f, h, params, solver)
                missed = int(np.count_nonzero(~converged))
            elif method is Method.EGR:
                p_norm, lam = egr_batch(g, f, params)
            else:
                p_norm, lam = passive_aligned_batch(g, f, h)
            p = np.multiply(lam[:, None], p_norm)
    with _Naming(block.first, method):
        return metrics.rate_batch(p, g, f, h, params), missed


def _trial_blocks(params: SystemParams, seeds: list[int], master_seed: int, draws: int):
    """Yield a ``_Block`` for each ``_blocks`` block of ``seeds``, each trial
    drawn ``draws`` times and its stream-1 seed mixed once per method, the
    first of each kept: ``draws`` is 6 in rate-vs-n and 1 in oracle-check
    (the ``draws_per_trial`` and ``phase_seed_use_ratio`` that
    ``bench/test_bench.py`` pins). ROADMAP item 1b replaces this body."""
    for first, block_seeds in _blocks(params.n_elements, seeds):
        channels, phase_seeds = [], []
        for t, seed in enumerate(block_seeds, first):
            with _Naming(t):
                channels.append(sample_channels(params, seed))
                for _ in range(draws - 1):
                    sample_channels(params, seed)
                phase_seeds.append(trial_seed(master_seed, t, stream=1))
                for _ in range(len(Method) - 1):
                    trial_seed(master_seed, t, stream=1)
        yield _Block(first, channels, phase_seeds,
                     *(np.array([getattr(ch, name) for ch in channels]) for name in "gfh"))


def _batch_blocks(params: SystemParams, seeds: list[int]):
    """Yield a ``_Block`` for each ``_blocks`` block of ``seeds``, drawn with
    one ``sample_channels_batch`` call."""
    for first, block_seeds in _blocks(params.n_elements, seeds):
        with _Naming(first):
            g, f, h = sample_channels_batch(params, block_seeds)
        yield _Block(first, [], [], g, f, h)


def _run_cells(blocks, cells: list[tuple[Method, int | None]], levels: list[SystemParams],
               solver: SolverOptions,
               max_asnr_per_trial: bool = False) -> tuple[list[list[np.ndarray]], int]:
    """Every cell's rates at every power level on the trials of ``blocks``,
    as ``rates[level][cell]`` in trial order, and how many ``max_asnr``
    runs did not converge.

    On each block the designs run in cell order. A matched design depends
    on no power, so each selection size (``mrr`` is ``srr`` at k = N) is
    designed once per block, at its first cell, and named by its last; it
    is evaluated once per level, and every cell of that size shares its
    rates. Every other cell goes through ``_block_rates`` at each level."""
    # A design's key: (srr, k) for a matched cell, else the cell.
    keys = [(Method.SRR, k) if method in (Method.MRR, Method.SRR) else (method, k)
            for method, k in cells]
    names = dict(zip(keys, (method for method, _ in cells)))    # the last cell's
    parts = {(level, key): [] for level in range(len(levels)) for key in names}
    unconverged = 0
    for block in blocks:
        for (kind, k), name in names.items():
            if kind is Method.SRR:
                with _Naming(block.first, name):
                    design = srr_batch(block.g, block.f, block.h, k)
                    for level, params in enumerate(levels):
                        p = np.multiply(design.lam(params)[:, None], design.p_normalized)
                        parts[level, (kind, k)].append(
                            metrics.rate_batch(p, block.g, block.f, block.h, params))
            else:
                for level, params in enumerate(levels):
                    rates, missed = _block_rates(kind, block, params, solver, max_asnr_per_trial)
                    parts[level, (kind, k)].append(rates)
                    unconverged += missed
    return [[np.concatenate(parts[level, key]) for key in keys]
            for level in range(len(levels))], unconverged


def _unconverged_note(unconverged: int, cfg: ExperimentConfig) -> str:
    return f"max-asnr: {unconverged} of {len(cfg.n_values) * cfg.trials} runs did not converge"


class _Summary:
    """The CSV of ``run_rate_vs_n`` or ``run_srr_sweep``: ``add`` writes a
    cell's row ``lead + (mean, sample std, trials)`` and, if the run logs
    trials, its trial-log block led by ``lead``. The log's header is the lead
    columns, then trial, seed, rate_bits. Its blocks share one column of
    each trial's ``"t,seed"``, rendered once here as the text of those two
    fields."""

    def __init__(self, header: tuple[str, ...], seeds: list[int], verbose_trials: bool):
        self.header, self.table, self.log = header, Table(), None
        if verbose_trials:
            self.log = Table()
            self.trials = [f"{t},{seed}" for t, seed in enumerate(seeds)]

    def add(self, lead: tuple, rates: np.ndarray) -> None:
        std = float(np.std(rates, ddof=1)) if rates.size > 1 else 0.0
        self.table.add(lead + (float(np.mean(rates)), std, rates.size))
        if self.log is not None:
            self.log.add(lead, self.trials, rates.tolist())

    def result(self, notes: tuple[str, ...] = ()) -> ExperimentResult:
        log_header = self.header[:-3] + ("trial", "seed", "rate_bits")
        return ExperimentResult(self.header, self.table,
                                None if self.log is None else log_header, self.log, notes)


def run_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    """Per-iteration scale and rate traces of the iterative method, one
    group of rows per element count, one trace per seed.

    Trials are drawn and designed in blocks of ``max(1, BLOCK_ENTRIES // N)``
    (``_batch_blocks``) with ``max_asnr_batch``, which equals ``max_asnr`` trial
    by trial, bit for bit; so the memory beside the output rows stays
    bounded at any N and trial count. Each iterate's rates come from one
    ``rate_batch`` call on the rows and channels that its pass ran on,
    equal to the scalar trace's ``records``. The seeds of all trials are
    mixed once, since they do not depend on N. The rows of each N are one
    block of four columns. A note counts the runs that hit
    ``max_iterations``.
    """
    table = Table()
    unconverged = 0
    all_seeds = trial_seeds(cfg.master_seed, range(cfg.trials))
    for n in cfg.n_values:
        params = cfg.params_for(n)
        seeds: list[int] = []
        iterations: list[int] = []
        records: list[tuple[float, float]] = []
        for block in _batch_blocks(params, all_seeds):
            with _Naming(block.first, Method.MAX_ASNR):
                *_, converged, iterates = max_asnr_batch(block.g, block.f, block.h, params,
                                                         cfg.solver)
            traces = [[] for _ in converged]
            for rows, lam, p_norm, g, f, h in iterates:
                rates = metrics.rate_batch(np.multiply(lam[:, None], p_norm), g, f, h, params)
                for row, rec in zip(rows.tolist(), zip(lam.tolist(), rates.tolist())):
                    traces[row].append(rec)
            for seed, trace in zip(all_seeds[block.first:], traces):
                seeds += [seed] * len(trace)
                iterations += range(len(trace))
                records += trace
            unconverged += int(np.count_nonzero(~converged))
        table.add((), seeds, iterations, *zip(*records))
    return ExperimentResult(CONVERGENCE_HEADER, table, notes=(_unconverged_note(unconverged, cfg),))


def run_srr_sweep(cfg: ExperimentConfig,
                  verbose_trials: bool = False) -> ExperimentResult:
    """Selection-size sweep at each BS power level, with a full-selection
    reference row per power level.

    Each trial is seeded and drawn once for the whole sweep (the draw does
    not depend on P_S), one ``_batch_blocks`` block at a time, and
    ``_run_cells`` designs each selection size once per block and
    evaluates it once per level, the ``mrr`` row sharing the rates of
    k = N; every rate equals ``srr``/``mrr`` -> ``metrics.snr`` ->
    ``metrics.rate`` trial by trial, bit for bit. So beside one rate per
    trial and cell, memory stays bounded at any trial count.
    """
    n = cfg.n_values[0]
    seeds = trial_seeds(cfg.master_seed, range(cfg.trials))
    cells = [(Method.SRR, k) for k in cfg.k_values] + [(Method.MRR, n)]
    levels = [cfg.params_for(n, p_s_dbm=p_s_dbm) for p_s_dbm in cfg.p_s_dbm_values]
    rates, _ = _run_cells(_batch_blocks(cfg.params_for(n), seeds), cells, levels, cfg.solver)
    summary = _Summary(SRR_SWEEP_HEADER, seeds, verbose_trials)
    for p_s_dbm, level_rates in zip(cfg.p_s_dbm_values, rates):
        for (method, k), cell_rates in zip(cells, level_rates):
            summary.add((k, p_s_dbm, method.value), cell_rates)
    return summary.result()


def run_rate_vs_n(cfg: ExperimentConfig,
                  verbose_trials: bool = False) -> ExperimentResult:
    """Mean rate of every method over the element-count grid, on the cells
    of ``_summary_cells``; ``single`` too, at N = 64 by default. Each N
    draws every block once (``_trial_blocks``) and ``_run_cells`` designs
    all six cells on it, ``max_asnr`` trial by trial (``bench/test_bench.py``
    pins its calls); ``_Summary`` writes each cell. A note counts
    unconverged runs."""
    seeds = trial_seeds(cfg.master_seed, range(cfg.trials))
    summary = _Summary(RATE_VS_N_HEADER, seeds, verbose_trials)
    unconverged = 0
    for n in cfg.n_values:
        params = cfg.params_for(n)
        cells = _summary_cells(n)
        blocks = _trial_blocks(params, seeds, cfg.master_seed, draws=len(cells))
        (rates,), missed = _run_cells(blocks, cells, [params], cfg.solver,
                                      max_asnr_per_trial=True)
        unconverged += missed
        for (method, _), cell_rates in zip(cells, rates):
            summary.add((n, method.value), cell_rates)
    return summary.result((_unconverged_note(unconverged, cfg),))


# The benchmark's tracer looks the runners up by name.
run_single = run_rate_vs_n


def _grid_searched(blocks, params: SystemParams, best: list[float]):
    """``blocks``, each grid-searched trial by trial before it is yielded,
    its trials' best rates appended to ``best``."""
    for block in blocks:
        for t, ch in enumerate(block.channels, block.first):
            with _Naming(t):
                best.append(grid_search_best(ch, params, CHECK_PHASE_STEPS,
                                             CHECK_AMPLITUDE_STEPS).best_rate_bits)
        yield block


def run_oracle_check(cfg: ExperimentConfig) -> ExperimentResult:
    """Compare every method against the brute-force grid optimum at small
    element counts. The rows of each N are one block of six columns,
    trial-major. A note counts the ``max_asnr`` design runs that hit
    ``max_iterations``.

    Each N draws every block once (``_trial_blocks``) and grid-searches
    each of its trials (``bench/test_bench.py`` pins ``oracle.grid_points``);
    then ``_run_cells`` designs each cell on the whole block, ``max_asnr``
    with ``max_asnr_batch``, and takes its rates from one ``rate_batch``
    call."""
    table = Table()
    unconverged = 0
    seeds = trial_seeds(cfg.master_seed, range(cfg.trials))
    for n in cfg.n_values:
        params = cfg.params_for(n)
        cells = _summary_cells(n)
        best: list[float] = []
        blocks = _trial_blocks(params, seeds, cfg.master_seed, draws=1)
        (rates,), missed = _run_cells(_grid_searched(blocks, params, best), cells, [params],
                                      cfg.solver)
        unconverged += missed
        rows = np.stack(rates, axis=1).ravel().tolist()
        best = [b for b in best for _ in cells]
        table.add((), [seed for seed in seeds for _ in cells], [n] * len(rows),
                  [method.value for method, _ in cells] * len(seeds), rows, best,
                  [b - r for b, r in zip(best, rows)])
    return ExperimentResult(ORACLE_CHECK_HEADER, table,
                            notes=(_unconverged_note(unconverged, cfg),))


def _conversion(value) -> str:
    if type(value) is str:
        return "%s"
    if isinstance(value, (int, np.integer)):
        return "%d"
    if isinstance(value, (float, np.floating)):
        return "%.12g"
    raise TypeError(f"cannot serialize {value!r} into CSV")


def _column_conversion(lead: tuple, column: Sequence) -> str:
    if len(set(map(type, column))) > 1:
        list(map(_conversion, column))  # names a value that no conversion takes
        raise TypeError(f"block {lead!r}: the values of a column must share one type")
    return _conversion(column[0])


def format_csv(header: tuple[str, ...], table: Table) -> str:
    """Render a table with fixed column order, 12-significant-digit floats,
    and LF line endings, so identical results yield identical bytes.

    Strings of type str are written as they are, integers (bool and numpy
    integers too) as decimal digits, floats (numpy floats too) with
    ``%.12g``. Any other value raises TypeError, a str subclass such as an
    enum member too (``%s`` would call its own ``__str__``), and so does a
    column whose values differ in type. Each block's lead is rendered once
    and each of its columns takes one %-conversion in its row template,
    which one %-operation fills in."""
    parts = [",".join(header) + "\n"]
    for lead, columns in table.blocks:
        size = len(columns[0]) if columns else 1
        if any(len(column) != size for column in columns):
            raise ValueError(f"block {lead!r}: columns must have one length")
        conversions = [(_conversion(v) % v).replace("%", "%%") for v in lead]
        conversions += [_column_conversion(lead, column) for column in columns if size]
        template = (",".join(conversions) + "\n") * size
        parts.append(template % tuple(chain.from_iterable(zip(*columns))))
    return "".join(parts)
