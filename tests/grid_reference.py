"""The grid search as it was first written: one (candidates, N) array per
quantity, reduced along the element axis, over every candidate.
``irsbeam.oracle.grid_search_best`` runs the same expressions on the phase
rows its N = 2 screen keeps and must return the same bits; this body is
kept unchanged as the unscreened reference it is held to."""

import math

import numpy as np

from irsbeam import OracleResult

MAX_ORACLE_ELEMENTS = 3


def _amplitude_profiles(n, amplitude_steps):
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


def _phase_offsets(n, phase_steps):
    if n == 1:
        return np.zeros((1, 0))
    phi = 2.0 * math.pi * np.arange(phase_steps) / phase_steps
    if n == 2:
        return phi[:, None]
    return np.stack([np.repeat(phi, phase_steps), np.tile(phi, phase_steps)], axis=1)


def grid_search_best_reference(ch, params, phase_steps, amplitude_steps):
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
