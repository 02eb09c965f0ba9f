"""Brute-force reference for small element counts.

Exhaustively grids the unit-direction space (per-element phases plus a
simplex-angle magnitude profile), scales each candidate to the power
budget, and reports the best achievable rate. Used to bound how far the
closed-form and iterative methods sit from the true optimum. The grid
holds (phase_steps * amplitude_steps)^(N-1) candidates, so
``grid_search_best`` takes N <= 2, which ``oracle-check`` runs on its
256 x 64 grid, evaluating exactly only the rows that a closed-form screen
keeps at N = 2.
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

# The grid oracle-check runs, and the largest N that it and grid_search_best
# hold: at N = 3 it would be (256 * 64)^2 = 268,435,456 candidates, and
# grid_search_best peaks near 145 bytes per evaluated candidate (the angles,
# the coefficients and the per-candidate vectors; tracemalloc at N = 2 with
# every row kept): about 39 GB.
CHECK_PHASE_STEPS = 256
CHECK_AMPLITUDE_STEPS = 64
CHECK_MAX_ELEMENTS = 2

# The N = 2 screen keeps a phase row when its best closed-form SNR is at
# least best - SCREEN_KEEP_BAND * (1 + best). The grid phases sum to zero,
# so over a profile's phases |u + v e_k|^2 averages |u|^2 + |v|^2: no term
# of any candidate's SNR exceeds the best SNR, and neither the screen nor
# the exact rates lose digits to cancellation. Each is within a few tens
# of ulps of the true SNR, relative to the best (measured below 3e-15).
# Two SNRs give the same rate log2(1 + snr) only when their 1 + snr round
# to within an ulp, 2.2e-16 * (1 + best). The band exceeds both by eight
# orders of magnitude, so every candidate that ties the best rate lies in
# a kept row. A band relative to the best SNR alone would not do: at SNRs
# below about 1e-10, rates tie that differ in SNR by more than 1e-6.
SCREEN_KEEP_BAND = 1e-6


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
    """Unit-norm magnitude profiles (cos t, sin t) on a grid of angles t in
    [0, pi/2]. N=1 has the single trivial profile."""
    if n == 1:
        return np.ones((1, 1))
    t = np.linspace(0.0, math.pi / 2.0, amplitude_steps)
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def _screen_rows(ch: ChannelRealization, params: SystemParams, amps: np.ndarray,
                 anchor_angle: float, phi: np.ndarray, gauge) -> np.ndarray:
    """Indices of the N = 2 phase rows that can hold the best rate.

    Every candidate's SNR is scored in closed form, taking |e_k| = 1 as
    exact. With c = conj(f) * g, anchor = exp(i anchor_angle) and
    e_k = exp(i phi_k), a candidate's reflected sum is
    h* + gauge * lam_j * (a_j0 * anchor * c_0 + a_j1 * e_k * c_1) = u_j + v_j e_k,
    so its SNR is p_s (|u_j|^2 + |v_j|^2 + 2 Re(u_j conj(v_j e_k))) / den_j,
    where lam_j and den_j depend on the profile j only. A row is kept when
    its best score lies within ``SCREEN_KEEP_BAND`` of the best one; a
    non-finite best keeps every row.
    """
    a_sq = amps ** 2
    lam_sq = params.p_i / (params.p_s * (a_sq @ np.abs(ch.g) ** 2)
                           + params.sigma_i_sq * a_sq.sum(axis=1))
    den = params.sigma_u_sq + params.sigma_i_sq * lam_sq * (a_sq @ np.abs(ch.f) ** 2)
    c = np.conj(ch.f) * ch.g
    lam = np.sqrt(lam_sq)
    u = ch.h.conjugate() + gauge * lam * amps[:, 0] * (np.exp(1j * anchor_angle) * c[0])
    v = gauge * lam * amps[:, 1] * c[1]
    scale = params.p_s / den
    cross = 2.0 * scale * (u * np.conj(v))
    score = np.stack([np.cos(phi), np.sin(phi)], axis=1) @ np.stack([cross.real, cross.imag])
    score += scale * (np.abs(u) ** 2 + np.abs(v) ** 2)
    row_best = score.max(axis=1)
    best = row_best.max()
    if not np.isfinite(best):
        return np.arange(phi.shape[0])
    return np.flatnonzero(row_best >= best - SCREEN_KEEP_BAND * (1.0 + best))


def grid_search_best(ch: ChannelRealization, params: SystemParams,
                     phase_steps: int, amplitude_steps: int) -> OracleResult:
    """Best rate over the direction grid, each candidate scaled to the
    power budget, at N <= ``CHECK_MAX_ELEMENTS`` elements.

    Global-phase redundancy is removed by pinning element 1's phase to
    its product channel (making that contribution real positive) and
    rotating the whole vector onto the direct path; the remaining N-1
    phases and the magnitude profile are searched exhaustively. Ties go
    to the lexicographically smallest (phase indices, amplitude indices)
    tuple.

    Candidates sit on a (phases, profiles) grid, phase index major. At
    N = 2 every candidate is first scored in closed form (``_screen_rows``);
    the kept phase rows (N = 1: the single row) then go through the
    unscreened (candidates, N) expressions of ``tests/grid_reference.py``.
    Their rates equal that form's bit for bit as long as ``q @ c`` rounds
    each row alike whatever the number of rows; that holds for the OpenBLAS
    kernels numpy ships (scipy-openblas 0.3.31), and
    ``tests/test_properties.py`` checks it.
    """
    n = ch.n_elements
    if n > CHECK_MAX_ELEMENTS:
        raise ValueError(f"grid search supports at most {CHECK_MAX_ELEMENTS} elements, got {n}")
    if phase_steps < 8:
        raise ValueError("phase_steps must be >= 8")
    if amplitude_steps < 4:
        raise ValueError("amplitude_steps must be >= 4")

    amps = _amplitude_profiles(n, amplitude_steps)
    n_amp = amps.shape[0]
    gauge = ch.h.conjugate() / abs(ch.h) if ch.h != 0 else 1.0
    anchor_angle = np.angle(np.conj(ch.g[0]) * ch.f[0])
    rows = np.zeros(1)  # element 2's kept grid phases; N = 1 has the single row
    if n == 2:
        phi = 2.0 * math.pi * np.arange(phase_steps) / phase_steps
        rows = phi[_screen_rows(ch, params, amps, anchor_angle, phi, gauge)]

    # Candidate matrix of the kept rows, phase index major then amplitude index.
    theta = np.zeros((rows.shape[0] * n_amp, n))
    theta[:, 0] = anchor_angle
    if n > 1:
        theta[:, 1] = np.repeat(rows, n_amp)
    q = np.tile(amps, (rows.shape[0], 1)) * np.exp(1j * theta)

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

    # Kept rows are in candidate order, and every candidate that ties the
    # best rate lies in one, so the first maximum here is the grid's.
    best = int(np.argmax(rates))
    return OracleResult(
        best_rate_bits=float(rates[best]),
        best_direction=gauge * q[best],
        grid_points_evaluated=phase_steps ** (n - 1) * n_amp,
    )


def sign_adjudicate(p: np.ndarray, ch: ChannelRealization,
                    params: SystemParams) -> Adjudication:
    """Compare a design against its negation on one realization: the rate
    of the coefficients ``p`` against that of -p. Rate differences below
    1e-6 bits count as a tie."""
    aligned, literal = metrics.rate_batch(np.stack([p, -p]), ch.g, ch.f, ch.h, params)
    diff = aligned - literal
    if abs(diff) < 1e-6:
        return Adjudication.TIE
    return Adjudication.ALIGNED_BETTER if diff > 0 else Adjudication.LITERAL_BETTER
