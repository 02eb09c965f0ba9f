"""IRS coefficient design.

Every method factors the coefficient vector as p = lam * p_tilde with
unit-norm direction p_tilde and scale lam chosen so the power reflected
by the IRS (signal plus amplification noise) exactly meets the budget
P_I. Methods:

* ``egr``   - equal gain on all elements, phases align the reflected paths.
* ``mrr``   - amplitude-and-phase matched to the product channel g* o f,
              rotated onto the direct path.
* ``srr``   - MRR restricted to the K strongest product channels.
* ``max_asnr`` - alternating iteration between the noise-whitened matched
              direction (for the current scale) and the budget-feasible
              scale (for the current direction).
* ``random_phase`` / ``passive_aligned`` - sanity baselines.

``egr``, ``mrr``, ``srr`` and ``passive_aligned`` are one-row calls of
their batch kernels ``egr_batch``, ``srr_batch`` (at k = N for ``mrr``) and
``passive_aligned_batch``, which design every row of a batch of draws at
once. One step, ``_whitened``, forms the matched direction of ``srr_batch``,
``max_asnr_batch`` and ``asnr_direction``; only ``max_asnr`` keeps its own,
as the reference that ``max_asnr_batch`` equals row by row, bit for bit.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .system import ChannelRealization, SystemParams
from . import metrics
from .metrics import _norm, _reflected_rows

__all__ = [
    "Method",
    "SolverOptions",
    "Beamformer",
    "TraceRecord",
    "ConvergenceTrace",
    "lambda_from_normalized",
    "egr",
    "egr_batch",
    "mrr",
    "srr",
    "MatchedBatch",
    "srr_batch",
    "asnr_direction",
    "max_asnr",
    "MaxAsnrBatch",
    "max_asnr_batch",
    "random_phase",
    "passive_aligned",
    "passive_aligned_batch",
]


# Every unit-norm check accepts a 2-norm as abs(norm - 1.0) <= _UNIT_NORM_TOL; NaN fails.
_UNIT_NORM_TOL = 1e-12


def _require_rows(ok: np.ndarray, message: str, rows: np.ndarray | None = None) -> None:
    # Raise ValueError(message) if a row fails, with the first as ``row`` (mapped by ``rows``).
    if not ok.all():
        row = int(np.argmin(ok))
        err = ValueError(message)
        err.row = row if rows is None else int(rows[row])
        raise err


def _require_unit_rows(p_norm: np.ndarray, rows: np.ndarray | None = None) -> None:
    _require_rows(abs(_row_norms(p_norm) - 1.0) <= _UNIT_NORM_TOL,
                  "p_normalized must have unit 2-norm", rows)


class Method(str, enum.Enum):
    """Beamforming method tags (also the CSV wire values)."""

    EGR = "egr"
    MRR = "mrr"
    SRR = "srr"
    MAX_ASNR = "max-asnr"
    RANDOM_PHASE = "random-phase"
    PASSIVE_ALIGNED = "passive-aligned"


@dataclass(frozen=True)
class SolverOptions:
    """Options for the alternating scale/direction iteration."""

    tolerance: float = 1e-4        # relative change of lam at which to stop
    max_iterations: int = 50

    def __post_init__(self) -> None:
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class Beamformer:
    """A designed coefficient vector p = lam * p_normalized. Elements that
    do not reflect are exactly zero in ``p_normalized``."""

    p_normalized: np.ndarray
    lam: float

    def __post_init__(self) -> None:
        p = np.asarray(self.p_normalized, dtype=np.complex128)
        object.__setattr__(self, "p_normalized", p)
        if p.ndim != 1:
            raise ValueError("p_normalized must be 1-D")
        if not abs(_norm(p) - 1.0) <= _UNIT_NORM_TOL:
            raise ValueError("p_normalized must have unit 2-norm")
        if not self.lam > 0.0:
            raise ValueError("lam must be positive")

    @property
    def p(self) -> np.ndarray:
        """Full coefficient vector lam * p_normalized."""
        return self.lam * self.p_normalized


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    lam: float
    rate_bits: float


@dataclass(frozen=True, eq=False)
class ConvergenceTrace:
    """Per-iteration record of the alternating iteration on ``channel``.

    ``passes`` holds the beamformer of every direction/scale update, and
    ``converged`` is False when the loop hit max_iterations without meeting
    the stopping rule. ``iterates`` and ``records`` are computed on first read.
    """

    passes: tuple[Beamformer, ...]
    channel: ChannelRealization
    params: SystemParams
    converged: bool

    @property
    def iterations(self) -> int:
        """Number of direction/scale updates performed."""
        return len(self.passes)

    @cached_property
    def iterates(self) -> tuple[Beamformer, ...]:
        """The ``mrr`` start, then the beamformer of every pass."""
        return (mrr(self.channel, self.params),) + self.passes

    @cached_property
    def records(self) -> tuple[TraceRecord, ...]:
        """Scale and rate of every iterate, in iteration order."""
        p, ch = np.array([bf.p for bf in self.iterates]), self.channel
        rates = metrics.rate_batch(p, ch.g, ch.f, ch.h, self.params)
        return tuple(TraceRecord(it, bf.lam, rate)
                     for it, (bf, rate) in enumerate(zip(self.iterates, rates.tolist())))


def _direct_phase_factor(h: complex) -> complex:
    """exp(-j * arg(h)), defined as 1 for h == 0 (absent direct path)."""
    if h == 0:
        return 1.0 + 0.0j
    return h.conjugate() / abs(h)


def _direct_phase_factors(h: np.ndarray) -> np.ndarray:
    # _direct_phase_factor of every entry of the (T,) direct channels h.
    return np.array([_direct_phase_factor(x) for x in h.tolist()])


def _budget_scale(p_norm: np.ndarray, g: np.ndarray, params: SystemParams) -> np.ndarray:
    # lambda_from_normalized along the last axis, without its checks.
    return np.sqrt(params.p_i / _reflected_rows(p_norm, g, params))


def lambda_from_normalized(p_norm: np.ndarray, g: np.ndarray, params: SystemParams) -> float:
    """Budget-feasible scale for a unit direction:

    lam = sqrt(P_I / (P_S * sum|p~(n) g(n)|^2 + sigma_I^2 * sum|p~(n)|^2)).

    With this scale the power reflected by the IRS equals P_I exactly. The
    direction's 2-norm must be within the shared ``_UNIT_NORM_TOL`` (1e-12) of 1.
    """
    p_norm = np.asarray(p_norm, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    if p_norm.shape != g.shape:
        raise ValueError("p_norm and g must have equal length")
    if not abs(_norm(p_norm) - 1.0) <= _UNIT_NORM_TOL:
        raise ValueError("p_norm must have unit 2-norm")
    return float(_budget_scale(p_norm, g, params))


def egr(ch: ChannelRealization, params: SystemParams) -> Beamformer:
    """Equal-gain reflecting: p~(n) = exp(j arg(f(n) g(n)*)) / sqrt(N)."""
    p_norm, lam = egr_batch(ch.g[None], ch.f[None], params)
    return Beamformer(p_norm[0], float(lam[0]))


def egr_batch(g: np.ndarray, f: np.ndarray,
              params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """``egr`` on the rows of (T, N) channels ``g`` and ``f`` at once: the
    (T, N) unit directions and the (T,) budget-feasible scales
    lam = sqrt(P_I N / (P_S sum|g|^2 + N sigma_I^2)). Complex products
    are ``np.multiply`` calls in a fixed operand order, as in ``srr_batch``.
    """
    n = g.shape[1]
    theta = np.angle(np.multiply(f, np.conj(g)))
    p_norm = np.exp(np.multiply(1j, theta)) / math.sqrt(n)
    _require_unit_rows(p_norm)
    lam = np.sqrt(params.p_i * n
                  / (params.p_s * np.sum(np.abs(g) ** 2, axis=1) + n * params.sigma_i_sq))
    _require_rows(lam > 0.0, "lam must be positive")
    return p_norm, lam


def mrr(ch: ChannelRealization, params: SystemParams) -> Beamformer:
    """Ratio-matched reflecting, ``srr`` at k = N: p~ proportional to g* o f,
    rotated by exp(-j arg(h)) to add in phase with the direct path."""
    return srr(ch, params, ch.n_elements)


def srr(ch: ChannelRealization, params: SystemParams, k: int) -> Beamformer:
    """Selective ratio reflecting: MRR restricted to the k elements with
    largest product-channel magnitude |g(n)* f(n)| (ties: lower index)."""
    batch = srr_batch(ch.g[None], ch.f[None], np.array([ch.h]), k)
    return Beamformer(batch.p_normalized[0], float(batch.lam(params)[0]))


def _row_norms(w: np.ndarray) -> np.ndarray:
    # np.linalg.norm of every row of a complex (T, N) array, bit for bit:
    # norm adds the BLAS dot products of the real and the imaginary parts,
    # and matmul of a 1 x N by an N x 1 block calls the same dot routine
    # with the same strides.
    re, im = w.real[:, None, :], w.imag[:, None, :]
    sq = np.matmul(re, re.transpose(0, 2, 1)) + np.matmul(im, im.transpose(0, 2, 1))
    return np.sqrt(sq[:, 0, 0])


def _whitened(w: np.ndarray, phase: np.ndarray, divisor: np.ndarray | None = None,
              rows: np.ndarray | None = None) -> np.ndarray:
    # Each row of w = g* o f (zero off a selection), over ``divisor`` if given,
    # then over its 2-norm, times its direct-path factor; ``rows`` maps failing rows.
    if divisor is None:
        message = "selected product channels are identically zero"
    else:
        w = np.divide(w, divisor)
        message = "product channel g* o f is identically zero"
    nrm = _row_norms(w)
    _require_rows(nrm != 0.0, message, rows)
    p_norm = np.multiply(np.divide(w, nrm[:, None]), phase[:, None])
    _require_unit_rows(p_norm, rows)
    return p_norm


def _matched_sums(g: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # S2 = sum |g f|^2 and S4 = sum |f|^2 |g|^4 along the last axis.
    return (np.sum(np.abs(np.multiply(g, f)) ** 2, axis=-1),
            np.sum(np.abs(f) ** 2 * np.abs(g) ** 4, axis=-1))


def _matched_scale(s2: np.ndarray, s4: np.ndarray, params: SystemParams) -> np.ndarray:
    # The budget-feasible scale sqrt(P_I S2 / (P_S S4 + sigma_I^2 S2)) of a matched design.
    return np.sqrt(params.p_i * s2 / (params.p_s * s4 + params.sigma_i_sq * s2))


@dataclass(frozen=True)
class MatchedBatch:
    """``srr`` designed on every row of a batch of draws, before the budget.

    Row t of ``p_normalized`` equals ``srr(ch_t, params, k).p_normalized``
    bit for bit, and ``s2``/``s4`` are the selection sums behind its scale.
    None of them depends on the powers, so one batch serves every P_S.
    """

    p_normalized: np.ndarray    # (T, N), exactly zero off the selection
    s2: np.ndarray              # (T,) sum |g f|^2 over the selection
    s4: np.ndarray              # (T,) sum |f|^2 |g|^4 over the selection

    def lam(self, params: SystemParams) -> np.ndarray:
        """Budget-feasible scale of every row, equal to ``srr(...).lam``."""
        lam = _matched_scale(self.s2, self.s4, params)
        _require_rows(lam > 0.0, "lam must be positive")
        return lam


def srr_batch(g: np.ndarray, f: np.ndarray, h: np.ndarray, k: int) -> MatchedBatch:
    """``srr`` on the rows of (T, N) channels ``g``, ``f`` and (T,) direct
    channels ``h`` at once; k = N gives ``mrr``.

    Each row is the same bits however many rows the batch holds: selections
    are gathered in ascending index order, norms are the BLAS dot products
    of ``np.linalg.norm``, and complex products are ``np.multiply`` calls,
    since numpy may swap the operands of ``a * b`` on large temporaries.
    """
    t, n = g.shape
    if k is None or not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    _require_rows(np.isfinite(g).all(axis=1) & np.isfinite(f).all(axis=1) & np.isfinite(h),
                  "channel entries must be finite")
    if k == n:      # every element is selected: nothing to sort or gather
        g_sel, f_sel = g, f
        w = np.multiply(np.conj(g), f)
    else:
        order = np.argsort(-np.abs(np.multiply(np.conj(g), f)), axis=1, kind="stable")
        mask = np.zeros((t, n), dtype=bool)
        np.put_along_axis(mask, order[:, :k], True, axis=1)
        g_sel, f_sel = g[mask], f[mask]
        w = np.zeros((t, n), dtype=np.complex128)
        w[mask] = np.multiply(np.conj(g_sel), f_sel)
        g_sel, f_sel = g_sel.reshape(t, k), f_sel.reshape(t, k)
    return MatchedBatch(_whitened(w, _direct_phase_factors(h)), *_matched_sums(g_sel, f_sel))


def asnr_direction(ch: ChannelRealization, params: SystemParams, lam: float) -> np.ndarray:
    """Optimal unit direction for a fixed scale.

    With the diagonal whitener D(n) = sigma_I^2 |f(n)|^2 + sigma_u^2 / lam^2,
    the n-th entry is proportional to exp(-j arg(h)) g(n)* f(n) / D(n), so
    the reflected sum adds in phase with the direct path.
    """
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    divisor = params.sigma_i_sq * np.abs(ch.f) ** 2 + params.sigma_u_sq / lam**2
    return _whitened(np.multiply(np.conj(ch.g), ch.f)[None],
                     np.array([_direct_phase_factor(ch.h)]), divisor)[0]


def max_asnr(ch: ChannelRealization, params: SystemParams,
             opts: SolverOptions = SolverOptions()) -> tuple[Beamformer, ConvergenceTrace]:
    """Alternating scale/direction iteration, initialized at the MRR scale.

    Each pass recomputes the whitened matched direction for the current
    scale, then the budget-feasible scale for that direction, stopping when
    the relative scale change drops below ``opts.tolerance``. A run that
    exhausts ``max_iterations`` is flagged unconverged, not raised. The MRR
    beamformer is built only if the trace's ``iterates`` are read.
    """
    s2, s4 = _matched_sums(ch.g, ch.f)
    _require_rows(s2 > 0.0, "selected product channels are identically zero")
    lam = _matched_scale(s2, s4, params)
    _require_rows(lam > 0.0, "lam must be positive")
    lam = float(lam)    # so that the direction step squares it with libm pow
    w, amp_noise = np.conj(ch.g) * ch.f, params.sigma_i_sq * np.abs(ch.f) ** 2
    phase = _direct_phase_factor(ch.h)
    passes = []
    for _ in range(opts.max_iterations):
        whitened = w / (amp_noise + params.sigma_u_sq / lam**2)
        nrm = _norm(whitened)
        if nrm == 0.0:
            raise ValueError("product channel g* o f is identically zero")
        p_norm = (whitened / nrm) * phase
        new_lam = float(_budget_scale(p_norm, ch.g, params))
        passes.append(Beamformer(p_norm, new_lam))
        converged = abs(new_lam - lam) / lam <= opts.tolerance
        if converged:
            break
        lam = new_lam
    return passes[-1], ConvergenceTrace(tuple(passes), ch, params, converged)


@dataclass(frozen=True)
class MaxAsnrBatch:
    """``max_asnr`` run on every row of a batch of draws.

    Row t equals ``max_asnr(ch_t, params, opts)`` bit for bit: the final
    direction and scale, the converged flag, and in ``records[t]`` the
    (lam, rate_bits) pair of every trace record, record 0 being the
    ``mrr`` start.
    """

    p_normalized: np.ndarray    # (T, N) final direction
    lam: np.ndarray             # (T,) final scale
    records: tuple[tuple[tuple[float, float], ...], ...]
    converged: np.ndarray       # (T,) bool


def max_asnr_batch(g: np.ndarray, f: np.ndarray, h: np.ndarray, params: SystemParams,
                   opts: SolverOptions = SolverOptions()) -> MaxAsnrBatch:
    """``max_asnr`` on the rows of (T, N) channels ``g``, ``f`` and (T,)
    direct channels ``h`` at once. A failing check names the row of the
    batch, however many rows have left it.

    Each pass runs on the rows still active. A row leaves the active set
    as soon as its own stopping rule fires or it reaches
    ``max_iterations``, so every row keeps the scalar iteration count.
    The ``mrr`` start and every pass take their direction from ``_whitened``,
    in the operand order of scalar ``max_asnr``, the reference: the scale is
    squared on Python floats (libm ``pow``), norms are ``np.linalg.norm``'s
    dot products, and complex products are ``np.multiply`` calls.
    """
    _require_rows(np.isfinite(g).all(axis=1) & np.isfinite(f).all(axis=1) & np.isfinite(h),
                  "channel entries must be finite")
    phase = _direct_phase_factors(h)
    # Rows of the start's directions are overwritten as their trials end.
    p_final = _whitened(np.multiply(np.conj(g), f), phase)
    lam = MatchedBatch(p_final, *_matched_sums(g, f)).lam(params)
    rates = metrics.rate_batch(np.multiply(lam[:, None], p_final), g, f, h, params)
    records = [[rec] for rec in zip(lam.tolist(), rates.tolist())]
    lam_final = lam.copy()
    converged = np.zeros(len(g), dtype=bool)
    # Per active row: its index in the batch and everything a pass reads.
    rows = np.arange(len(g))
    amp_noise = params.sigma_i_sq * np.abs(f) ** 2
    for it in range(1, opts.max_iterations + 1):
        offset = np.array([params.sigma_u_sq / x**2 for x in lam.tolist()])
        p_norm = _whitened(np.multiply(np.conj(g), f), phase, amp_noise + offset[:, None], rows)
        new_lam = _budget_scale(p_norm, g, params)
        _require_rows(new_lam > 0.0, "lam must be positive", rows)
        rates = metrics.rate_batch(np.multiply(new_lam[:, None], p_norm), g, f, h, params)
        for row, rec in zip(rows.tolist(), zip(new_lam.tolist(), rates.tolist())):
            records[row].append(rec)
        done = np.abs(new_lam - lam) / lam <= opts.tolerance
        leaving = done | (it == opts.max_iterations)
        if leaving.any():
            ended = rows[leaving]
            converged[ended] = done[leaving]
            p_final[ended] = p_norm[leaving]
            lam_final[ended] = new_lam[leaving]
            if leaving.all():
                break
            stay = ~leaving
            rows, new_lam, g, f, h, phase, amp_noise = (
                a[stay] for a in (rows, new_lam, g, f, h, phase, amp_noise))
        lam = new_lam
    return MaxAsnrBatch(p_final, lam_final, tuple(tuple(r) for r in records), converged)


def random_phase(ch: ChannelRealization, params: SystemParams, seed: int) -> Beamformer:
    """Equal-gain direction with i.i.d. uniform random phases (baseline)."""
    n = ch.n_elements
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 2.0 * math.pi, n)
    p_norm = np.exp(1j * u) / math.sqrt(n)
    return Beamformer(p_norm, float(_budget_scale(p_norm, ch.g, params)))


def passive_aligned(ch: ChannelRealization, params: SystemParams) -> Beamformer:
    """Phase-aligned passive reflection: every coefficient has unit modulus
    (no amplification), so lam = sqrt(N) instead of the power budget. The
    amplification-noise term still applies when this vector is evaluated."""
    p_norm, lam = passive_aligned_batch(ch.g[None], ch.f[None], np.array([ch.h]))
    return Beamformer(p_norm[0], float(lam[0]))


def passive_aligned_batch(g: np.ndarray, f: np.ndarray,
                          h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``passive_aligned`` on the rows of (T, N) channels ``g``, ``f`` and
    (T,) direct channels ``h`` at once: the (T, N) unit directions
    exp(j (arg(f g*) - arg h)) / sqrt(N), with arg 0 taken as 0, and the
    (T,) scales sqrt(N)."""
    t, n = g.shape
    theta = np.angle(np.multiply(f, np.conj(g)))
    phi = np.array([cmath.phase(x) if x != 0 else 0.0 for x in h.tolist()])
    p_norm = np.exp(np.multiply(1j, theta - phi[:, None])) / math.sqrt(n)
    _require_unit_rows(p_norm)
    return p_norm, np.full(t, math.sqrt(n))
