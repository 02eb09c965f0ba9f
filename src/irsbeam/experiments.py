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
    every method, with ``srr`` on half the elements."""
    return [(m, max(1, n // 2) if m is Method.SRR else None) for m in RATE_VS_N_METHODS]


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
    """A block of trials drawn one at a time: the run index of its first
    trial, their draws, each one's stream-1 seed, and the draws stacked as
    (T, N) ``g``, ``f`` and (T,) ``h``."""

    first: int
    channels: list[ChannelRealization]
    phase_seeds: list[int]
    g: np.ndarray
    f: np.ndarray
    h: np.ndarray


def _block_rates(method: Method, k: int | None, block: _Block, params: SystemParams,
                 solver: SolverOptions, max_asnr_per_trial: bool = False) -> tuple[np.ndarray, int]:
    """One cell's rates on the trials of a block, in trial order, and how
    many of its designs did not converge.

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
                design = max_asnr_batch(g, f, h, params, solver)
                p_norm, lam = design.p_normalized, design.lam
                missed = int(np.count_nonzero(~design.converged))
            elif method is Method.MRR or method is Method.SRR:
                matched = srr_batch(g, f, h, g.shape[1] if method is Method.MRR else k)
                p_norm, lam = matched.p_normalized, matched.lam(params)
            elif method is Method.EGR:
                p_norm, lam = egr_batch(g, f, params)
            else:
                p_norm, lam = passive_aligned_batch(g, f, h)
            p = np.multiply(lam[:, None], p_norm)
    with _Naming(block.first, method):
        return metrics.rate_batch(p, g, f, h, params), missed


def _trial_blocks(params: SystemParams, seeds: list[int], master_seed: int, draws: int,
                  copies: int):
    """Yield a ``_Block`` for each ``_blocks`` block of ``seeds``, each trial
    drawn ``draws`` times and its stream-1 seed mixed ``copies`` times, the
    first of each kept: 6 and 6 in rate-vs-n, 1 and 6 in oracle-check (the
    ``draws_per_trial`` and ``phase_seed_use_ratio`` that ``bench/test_bench.py``
    pins), 1 and 1 in ``monte_carlo_rates``. ROADMAP item 1b replaces this body."""
    for first, block_seeds in _blocks(params.n_elements, seeds):
        channels, phase_seeds = [], []
        for t, seed in enumerate(block_seeds, first):
            with _Naming(t):
                channels.append(sample_channels(params, seed))
                for _ in range(draws - 1):
                    sample_channels(params, seed)
                phase_seeds.append(trial_seed(master_seed, t, stream=1))
                for _ in range(copies - 1):
                    trial_seed(master_seed, t, stream=1)
        yield _Block(first, channels, phase_seeds,
                     *(np.array([getattr(ch, name) for ch in channels]) for name in "gfh"))


def monte_carlo_rates(method: Method, params: SystemParams, trials: int,
                      master_seed: int, k: int | None = None,
                      solver: SolverOptions = SolverOptions()) -> np.ndarray:
    """Per-trial achievable rates, in trial order."""
    seeds = trial_seeds(master_seed, range(trials))
    if not seeds:
        raise ValueError("trials must be >= 1")
    return np.concatenate([
        _block_rates(method, k, block, params, solver, max_asnr_per_trial=True)[0]
        for block in _trial_blocks(params, seeds, master_seed, draws=1, copies=1)])


def _unconverged_note(unconverged: int, cfg: ExperimentConfig) -> str:
    return f"max-asnr: {unconverged} of {len(cfg.n_values) * cfg.trials} runs did not converge"


class _Summary:
    """The CSV of ``run_rate_vs_n`` or ``run_srr_sweep``: ``add`` writes a
    cell's row ``lead + (mean, sample std, trials)`` and, if the run logs
    trials, its trial-log block led by ``lead``. The log's header is the lead
    columns, then trial, seed, rate_bits. Its blocks share one trial and one
    seed column, rendered once here as the text that ``format_csv`` writes."""

    def __init__(self, header: tuple[str, ...], seeds: list[int], verbose_trials: bool):
        self.header, self.table, self.log = header, Table(), None
        if verbose_trials:
            self.log = Table()
            self.trials = list(map(str, range(len(seeds))))
            self.seeds = list(map(str, seeds))

    def add(self, lead: tuple, rates: np.ndarray) -> None:
        std = float(np.std(rates, ddof=1)) if rates.size > 1 else 0.0
        self.table.add(lead + (float(np.mean(rates)), std, rates.size))
        if self.log is not None:
            self.log.add(lead, self.trials, self.seeds, rates.tolist())

    def result(self, notes: tuple[str, ...] = ()) -> ExperimentResult:
        log_header = self.header[:-3] + ("trial", "seed", "rate_bits")
        return ExperimentResult(self.header, self.table,
                                None if self.log is None else log_header, self.log, notes)


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
        for first, block in _blocks(n, all_seeds):
            with _Naming(first):
                g, f, h = sample_channels_batch(params, block)
            with _Naming(first, Method.MAX_ASNR):
                batch = max_asnr_batch(g, f, h, params, cfg.solver)
            for seed, trace in zip(block, batch.records):
                seeds += [seed] * len(trace)
                iterations += range(len(trace))
                records += trace
            unconverged += int(np.count_nonzero(~batch.converged))
        table.add((), seeds, iterations, *zip(*records))
    return ExperimentResult(CONVERGENCE_HEADER, table, notes=(_unconverged_note(unconverged, cfg),))


def run_srr_sweep(cfg: ExperimentConfig,
                  verbose_trials: bool = False) -> ExperimentResult:
    """Selection-size sweep at each BS power level, with a full-selection
    reference row per power level.

    Each trial is seeded and drawn once for the whole sweep (the draw does
    not depend on P_S), in blocks of ``max(1, BLOCK_ENTRIES // N)``
    (``_blocks``). Each block designs every k once and evaluates every
    (P_S, k) once, the ``mrr`` row sharing the rates of k = N, as array
    operations that equal ``srr``/``mrr`` ->
    ``metrics.snr`` -> ``metrics.rate`` trial by trial, bit for bit. Each
    cell's rates are joined in trial order before ``_Summary`` writes it;
    so beside one rate per trial and cell, memory stays bounded at any
    trial count.
    """
    n = cfg.n_values[0]
    seeds = trial_seeds(cfg.master_seed, range(cfg.trials))
    cells = [(Method.SRR, k) for k in cfg.k_values] + [(Method.MRR, n)]
    levels = [cfg.params_for(n, p_s_dbm=p_s_dbm) for p_s_dbm in cfg.p_s_dbm_values]
    # The rates of one (P_S level, k) serve every row with that k: the
    # mrr row is srr at k = N on the same draws.
    parts: dict[tuple[int, int], list[np.ndarray]] = {
        (level, k): [] for level in range(len(levels)) for _, k in cells}
    # Each selection size once, the k = N design named mrr.
    selections = {k: method for method, k in cells}
    draw_params = cfg.params_for(n)
    for first, block in _blocks(n, seeds):
        with _Naming(first):
            g, f, h = sample_channels_batch(draw_params, block)
        for k, method in selections.items():
            with _Naming(first, method):
                design = srr_batch(g, f, h, k)
                for level, params in enumerate(levels):
                    p = np.multiply(design.lam(params)[:, None], design.p_normalized)
                    parts[level, k].append(metrics.rate_batch(p, g, f, h, params))
    summary = _Summary(SRR_SWEEP_HEADER, seeds, verbose_trials)
    for level, p_s_dbm in enumerate(cfg.p_s_dbm_values):
        for method, k in cells:
            summary.add((k, p_s_dbm, method.value), np.concatenate(parts[level, k]))
    return summary.result()


def run_rate_vs_n(cfg: ExperimentConfig,
                  verbose_trials: bool = False) -> ExperimentResult:
    """Mean rate of every method over the element-count grid, on the cells
    of ``_summary_cells``; ``single`` too, at N = 64 by default. Each N
    draws every block once (``_trial_blocks``) and designs all six cells on
    it, ``max_asnr`` trial by trial (``bench/test_bench.py`` pins its calls),
    and ``_Summary`` writes each cell. A note counts unconverged runs."""
    seeds = trial_seeds(cfg.master_seed, range(cfg.trials))
    summary = _Summary(RATE_VS_N_HEADER, seeds, verbose_trials)
    unconverged = 0
    for n in cfg.n_values:
        params = cfg.params_for(n)
        cells = _summary_cells(n)
        parts: list[list[np.ndarray]] = [[] for _ in cells]
        for block in _trial_blocks(params, seeds, cfg.master_seed, len(cells), len(cells)):
            for part, (method, k) in zip(parts, cells):
                rates, missed = _block_rates(method, k, block, params, cfg.solver,
                                             max_asnr_per_trial=True)
                part.append(rates)
                unconverged += missed
        for (method, _), part in zip(cells, parts):
            summary.add((n, method.value), np.concatenate(part))
    return summary.result((_unconverged_note(unconverged, cfg),))


# The benchmark's tracer looks the runners up by name.
run_single = run_rate_vs_n


def run_oracle_check(cfg: ExperimentConfig) -> ExperimentResult:
    """Compare every method against the brute-force grid optimum at small
    element counts. The rows of each N are one block of six columns,
    trial-major. A note counts the ``max_asnr`` design runs that hit
    ``max_iterations``.

    Each N draws every block once (``_trial_blocks``) and grid-searches
    each of its trials (``bench/test_bench.py`` pins ``oracle.grid_points``);
    then each cell is designed on the whole block, ``max_asnr`` with
    ``max_asnr_batch``, and its rates come from one ``rate_batch`` call
    (``_block_rates``)."""
    table = Table()
    unconverged = 0
    seeds = trial_seeds(cfg.master_seed, range(cfg.trials))
    for n in cfg.n_values:
        params = cfg.params_for(n)
        cells = _summary_cells(n)
        rates: list[float] = []
        best: list[float] = []
        for block in _trial_blocks(params, seeds, cfg.master_seed, draws=1, copies=len(cells)):
            for t, ch in enumerate(block.channels, block.first):
                with _Naming(t):
                    best += [grid_search_best(ch, params, CHECK_PHASE_STEPS,
                                              CHECK_AMPLITUDE_STEPS).best_rate_bits] * len(cells)
            columns = []
            for method, k in cells:
                column, missed = _block_rates(method, k, block, params, cfg.solver)
                columns.append(column)
                unconverged += missed
            rates += np.stack(columns, axis=1).ravel().tolist()
        table.add((), [seed for seed in seeds for _ in cells], [n] * len(rates),
                  [method.value for method, _ in cells] * len(seeds), rates, best,
                  [b - r for b, r in zip(best, rates)])
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
