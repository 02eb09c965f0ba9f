"""Brute-force reference for small element counts.

Exhaustively grids the unit-direction space (per-element phases plus a
simplex-angle magnitude profile), scales each candidate to the power
budget, and reports the best achievable rate. Used to bound how far the
closed-form and iterative methods sit from the true optimum. The grid
holds (phase_steps * amplitude_steps)^(N-1) candidates, so
``grid_search_best`` takes N <= 3 on coarse grids and ``oracle-check``
runs N <= 2 on its 256 x 64 grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .system import ChannelRealization, SystemParams

__all__ = [
    "OracleResult",
    "Adjudication",
    "grid_search_best",
    "sign_adjudicate",
]

MAX_ORACLE_ELEMENTS = 3
# The grid oracle-check runs, and the largest N it holds: at N = 3 it
# would be (256 * 64)^2 = 268,435,456 candidates, about 40 GB.
CHECK_PHASE_STEPS = 256
CHECK_AMPLITUDE_STEPS = 64
CHECK_MAX_ELEMENTS = 2


@dataclass(frozen=True)
class OracleResult:
    best_rate_bits: float
    best_direction: np.ndarray      # unit 2-norm
    grid_points_evaluated: int


class Adjudication(str, enum.Enum):
    ALIGNED_BETTER = "aligned-better"
    LITERAL_BETTER = "paper-literal-better"
    TIE = "tie"


def _amplitude_profiles(n: int, amplitude_steps: int) -> np.ndarray:
    """Unit-norm magnitude profiles on a simplex-angle grid, row-major in
    the angle indices. N=1 has the single trivial profile."""
    if n == 1:
        return np.ones((1, 1))
    t = np.linspace(0.0, math.pi / 2.0, amplitude_steps)
    if n == 2:
        return np.stack([np.cos(t), np.sin(t)], axis=1)
    t1 = np.repeat(t, amplitude_steps)
    t2 = np.tile(t, amplitude_steps)
    return np.stack(
        [np.cos(t1), np.sin(t1) * np.cos(t2), np.sin(t1) * np.sin(t2)], axis=1
    )


def _phase_offsets(n: int, phase_steps: int) -> np.ndarray:
    """Phase grids for elements 2..N (element 1 is the gauge anchor),
    row-major in the phase indices."""
    if n == 1:
        return np.zeros((1, 0))
    phi = 2.0 * math.pi * np.arange(phase_steps) / phase_steps
    if n == 2:
        return phi[:, None]
    return np.stack([np.repeat(phi, phase_steps), np.tile(phi, phase_steps)], axis=1)


def grid_search_best(ch: ChannelRealization, params: SystemParams,
                     phase_steps: int, amplitude_steps: int) -> OracleResult:
    """Best rate over the direction grid, each candidate scaled to the
    power budget.

    Global-phase redundancy is removed by pinning element 1's phase to
    its product channel (making that contribution real positive) and
    rotating the whole vector onto the direct path; the remaining N-1
    phases and the magnitude profile are searched exhaustively. Ties go
    to the lexicographically smallest (phase indices, amplitude indices)
    tuple.
    """
    n = ch.n_elements
    if n > MAX_ORACLE_ELEMENTS:
        raise ValueError(f"grid search supports at most {MAX_ORACLE_ELEMENTS} elements")
    if phase_steps < 8:
        raise ValueError("phase_steps must be >= 8")
    if amplitude_steps < 4:
        raise ValueError("amplitude_steps must be >= 4")

    amps = _amplitude_profiles(n, amplitude_steps)
    offsets = _phase_offsets(n, phase_steps)
    n_amp, n_phase = amps.shape[0], offsets.shape[0]

    # Candidate matrix, phase index major then amplitude index.
    theta = np.zeros((n_phase * n_amp, n))
    theta[:, 0] = np.angle(np.conj(ch.g[0]) * ch.f[0])
    if n > 1:
        theta[:, 1:] = np.repeat(offsets, n_amp, axis=0)
    profiles = np.tile(amps, (n_phase, 1))
    gauge = ch.h.conjugate() / abs(ch.h) if ch.h != 0 else 1.0
    q = profiles * np.exp(1j * theta)

    lam_sq = params.p_i / (
        params.p_s * np.sum(np.abs(q * ch.g) ** 2, axis=1)
        + params.sigma_i_sq * np.sum(np.abs(q) ** 2, axis=1)
    )
    lam = np.sqrt(lam_sq)
    reflected = gauge * lam * (q @ (np.conj(ch.f) * ch.g))
    num = params.p_s * np.abs(ch.h.conjugate() + reflected) ** 2
    den = params.sigma_u_sq + params.sigma_i_sq * lam_sq * np.sum(
        np.abs(q * ch.f) ** 2, axis=1
    )
    rates = np.log2(1.0 + num / den)

    best = int(np.argmax(rates))  # first occurrence on ties
    return OracleResult(
        best_rate_bits=float(rates[best]),
        best_direction=gauge * q[best],
        grid_points_evaluated=q.shape[0],
    )


def sign_adjudicate(p: np.ndarray, ch: ChannelRealization,
                    params: SystemParams) -> Adjudication:
    """Compare the two global-sign conventions of the iterative method on
    one realization, given the coefficients ``p`` of its aligned run; the
    paper-literal run ends at -p exactly, since the scale update reads only
    |p~(n)|. Rate differences below 1e-6 bits count as a tie."""
    diff = metrics.rate(metrics.snr(p, ch, params)) \
        - metrics.rate(metrics.snr(-p, ch, params))
    if abs(diff) < 1e-6:
        return Adjudication.TIE
    return Adjudication.ALIGNED_BETTER if diff > 0 else Adjudication.LITERAL_BETTER
