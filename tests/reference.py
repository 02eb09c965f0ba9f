"""Scalar designs as they were first written, one draw at a time.

``irsbeam.egr`` and ``irsbeam.passive_aligned`` are one-row calls of the
batch kernels ``egr_batch`` and ``passive_aligned_batch``, which must
return the same bits; these bodies are kept unchanged as the reference
they are held to. ``design`` picks a scalar design by method tag, with
these two bodies for ``egr`` and ``passive_aligned``, so that rates can be
recomputed one (method, trial) at a time.
"""

import cmath
import math

import numpy as np

from irsbeam import Beamformer, Method, SolverOptions, max_asnr, mrr, random_phase, srr


def egr(ch, params):
    """Equal-gain reflecting: p~(n) = exp(j arg(f(n) g(n)*)) / sqrt(N)."""
    n = ch.n_elements
    theta = np.angle(ch.f * np.conj(ch.g))
    p_norm = np.exp(1j * theta) / math.sqrt(n)
    lam = math.sqrt(
        params.p_i * n
        / (params.p_s * float((np.abs(ch.g) ** 2).sum()) + n * params.sigma_i_sq)
    )
    return Beamformer(p_norm, lam)


def passive_aligned(ch, params):
    """Phase-aligned passive reflection with lam = sqrt(N)."""
    n = ch.n_elements
    theta = np.angle(ch.f * np.conj(ch.g))
    phi = cmath.phase(ch.h) if ch.h != 0 else 0.0
    p_norm = np.exp(1j * (theta - phi)) / math.sqrt(n)
    return Beamformer(p_norm, math.sqrt(n))


def design(method, ch, params, k=None, solver=None, phase_seed=None):
    """One scalar beamformer by method tag; ``k`` is ``srr``'s selection
    size and ``phase_seed`` the seed of ``random_phase``."""
    if method is Method.EGR:
        return egr(ch, params)
    if method is Method.MRR:
        return mrr(ch, params)
    if method is Method.SRR:
        return srr(ch, params, k)
    if method is Method.MAX_ASNR:
        return max_asnr(ch, params, solver or SolverOptions())[0]
    if method is Method.RANDOM_PHASE:
        return random_phase(ch, params, phase_seed)
    if method is Method.PASSIVE_ALIGNED:
        return passive_aligned(ch, params)
    raise ValueError(f"unsupported method {method!r}")
