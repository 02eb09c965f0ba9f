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
# would be (256 * 64)^2 = 268,435,456 candidates, and grid_search_best
# peaks near 160 bytes per candidate (two element columns, the stacked
# candidates and the per-candidate vectors): about 43 GB.
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

    Candidates sit on a (phases, profiles) grid, phase index major. Each
    element's coefficients form one contiguous column of that grid, and
    the per-element power terms are summed left to right, element 1
    first; element 1's column varies with the profile only, so its terms
    are taken on one row and broadcast.
    """
    n = ch.n_elements
    if n > MAX_ORACLE_ELEMENTS:
        raise ValueError(f"grid search supports at most {MAX_ORACLE_ELEMENTS} elements")
    if phase_steps < 8:
        raise ValueError("phase_steps must be >= 8")
    if amplitude_steps < 4:
        raise ValueError("amplitude_steps must be >= 4")

    amps = _amplitude_profiles(n, amplitude_steps)
    n_amp = amps.shape[0]
    n_phase = phase_steps ** (n - 1)

    # Phase factors per element: element 1's anchor, then for elements
    # 2..N the grid's phases in candidate order, element 2 slowest. The
    # anchor's angle comes from a numpy-scalar product and each power term
    # below from an array product, as in the (candidates, N) form: numpy
    # rounds the two kinds differently in the last bit.
    anchor = np.exp(1j * np.full(1, np.angle(np.conj(ch.g[0]) * ch.f[0])))
    e = np.exp(1j * (2.0 * math.pi * np.arange(phase_steps) / phase_steps))
    factors = [anchor]
    if n == 2:
        factors.append(e)
    elif n == 3:
        factors += [np.repeat(e, phase_steps), np.tile(e, phase_steps)]
    columns = [amps[None, :, k] * factors[k][:, None] for k in range(n)]

    def power(coupling: np.ndarray | None = None) -> np.ndarray:
        """Per candidate, sum_k |q_k coupling_k|^2 (or sum_k |q_k|^2); the
        length-1 slice keeps each product an array product."""
        total = sum(np.abs(col if coupling is None else col * coupling[k:k + 1]) ** 2
                    for k, col in enumerate(columns))
        return np.broadcast_to(total, (n_phase, n_amp)).reshape(-1)

    q = np.empty((n_phase, n_amp, n), dtype=complex)
    for k, col in enumerate(columns):
        q[:, :, k] = col
    q = q.reshape(-1, n)
    gauge = ch.h.conjugate() / abs(ch.h) if ch.h != 0 else 1.0

    lam_sq = params.p_i / (params.p_s * power(ch.g) + params.sigma_i_sq * power())
    lam = np.sqrt(lam_sq)
    reflected = gauge * lam * (q @ (np.conj(ch.f) * ch.g))
    num = params.p_s * np.abs(ch.h.conjugate() + reflected) ** 2
    den = params.sigma_u_sq + params.sigma_i_sq * lam_sq * power(ch.f)
    rates = np.log2(1.0 + num / den)

    best = int(np.argmax(rates))  # first occurrence on ties
    return OracleResult(
        best_rate_bits=float(rates[best]),
        best_direction=gauge * q[best],
        grid_points_evaluated=q.shape[0],
    )


def sign_adjudicate(p: np.ndarray, ch: ChannelRealization,
                    params: SystemParams) -> Adjudication:
    """Compare a design against its negation on one realization: the rate
    of the coefficients ``p`` against that of -p. Rate differences below
    1e-6 bits count as a tie."""
    diff = metrics.rate(metrics.snr(p, ch, params)) \
        - metrics.rate(metrics.snr(-p, ch, params))
    if abs(diff) < 1e-6:
        return Adjudication.TIE
    return Adjudication.ALIGNED_BETTER if diff > 0 else Adjudication.LITERAL_BETTER
