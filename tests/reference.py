"""Scalar designs and link metrics as they were first written, one draw
at a time.

``irsbeam.egr``, ``irsbeam.mrr``, ``irsbeam.srr`` and
``irsbeam.passive_aligned`` are one-row calls of the batch kernels
``egr_batch``, ``srr_batch`` (at k = N for ``mrr``) and
``passive_aligned_batch``, which must return the same bits; these bodies
are kept unchanged as the reference they are held to, ``srr`` at k = N
being ``mrr``'s. ``design`` picks a scalar design by method tag, with
these bodies for ``egr``, ``mrr``, ``srr`` and ``passive_aligned``, so
that rates can be recomputed one (method, trial) at a time.

Likewise ``irsbeam.snr`` and ``irsbeam.reflected_power`` are one-row
calls of the row evaluators behind ``rate_batch`` and the budget scale of
every design; ``snr`` and ``reflected_power`` here are their first scalar
bodies, the reference those evaluators are held to bit for bit. And
``irsbeam.asnr_direction`` is a one-row call of the whitened matched step
that ``srr_batch`` and ``max_asnr_batch`` share; ``asnr_direction`` here
is its first scalar body.
"""

import cmath
import math

import numpy as np

from irsbeam import Beamformer, Method, SolverOptions, max_asnr, random_phase
from irsbeam.beamforming import _direct_phase_factor
from irsbeam.metrics import _coefficients, _norm


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


def srr(ch, params, k):
    """Selective ratio reflecting: MRR restricted to the k elements with
    largest product-channel magnitude |g(n)* f(n)| (ties: lower index)."""
    n = ch.n_elements
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    # MRR on the k selected elements, gathered in ascending index order;
    # k = N selects every element, with nothing to sort or gather. The
    # scale is the closed form lam = sqrt(P_I S2 / (P_S S4 + sigma_I^2 S2))
    # with S2 = sum |g f|^2 and S4 = sum |f|^2 |g|^4 over the selection.
    g, f = ch.g, ch.f
    w = np.conj(g) * f
    if k < n:
        mask = np.zeros(n, dtype=bool)
        mask[np.argsort(-np.abs(w), kind="stable")[:k]] = True
        g, f = g[mask], f[mask]
        w = np.zeros(n, dtype=np.complex128)
        w[mask] = np.conj(g) * f
    nrm = _norm(w)
    if nrm == 0.0:
        raise ValueError("selected product channels are identically zero")
    p_norm = (w / nrm) * _direct_phase_factor(ch.h)
    s2 = float((np.abs(g * f) ** 2).sum())
    s4 = float((np.abs(f) ** 2 * np.abs(g) ** 4).sum())
    lam = math.sqrt(params.p_i * s2 / (params.p_s * s4 + params.sigma_i_sq * s2))
    return Beamformer(p_norm, lam)


def asnr_direction(ch, params, lam):
    """Optimal unit direction for a fixed scale: exp(-j arg(h)) g* o f / D
    over its 2-norm, with the whitener D(n) = sigma_I^2 |f(n)|^2 + sigma_u^2 / lam^2."""
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    w = np.conj(ch.g) * ch.f
    w = w / (params.sigma_i_sq * np.abs(ch.f) ** 2 + params.sigma_u_sq / lam**2)
    nrm = _norm(w)
    if nrm == 0.0:
        raise ValueError("product channel g* o f is identically zero")
    return (w / nrm) * _direct_phase_factor(ch.h)


def passive_aligned(ch, params):
    """Phase-aligned passive reflection with lam = sqrt(N)."""
    n = ch.n_elements
    theta = np.angle(ch.f * np.conj(ch.g))
    phi = cmath.phase(ch.h) if ch.h != 0 else 0.0
    p_norm = np.exp(1j * (theta - phi)) / math.sqrt(n)
    return Beamformer(p_norm, math.sqrt(n))


def reflected_power(bf_or_p, ch, params):
    """Total power re-radiated by the IRS (watts):
    P_S sum|p(n) g(n)|^2 + sigma_I^2 sum|p(n)|^2."""
    p = _coefficients(bf_or_p)
    return float(
        params.p_s * (np.abs(p * ch.g) ** 2).sum()
        + params.sigma_i_sq * (np.abs(p) ** 2).sum()
    )


def snr(bf_or_p, ch, params):
    """P_S |h* + f^H G p|^2 / (sigma_I^2 p^H F F^H p + sigma_u^2), with the
    reflected sum f^H G p = sum f(n)* g(n) p(n)."""
    p = _coefficients(bf_or_p)
    den = float(params.sigma_i_sq * (np.abs(ch.f * p) ** 2).sum() + params.sigma_u_sq)
    num = params.p_s * abs(ch.h.conjugate() + complex((np.conj(ch.f) * ch.g * p).sum())) ** 2
    return num / den


def design(method, ch, params, k=None, solver=None, phase_seed=None):
    """One scalar beamformer by method tag; ``k`` is ``srr``'s selection
    size and ``phase_seed`` the seed of ``random_phase``."""
    if method is Method.EGR:
        return egr(ch, params)
    if method is Method.MRR:
        return srr(ch, params, ch.n_elements)
    if method is Method.SRR:
        return srr(ch, params, k)
    if method is Method.MAX_ASNR:
        return max_asnr(ch, params, solver or SolverOptions())[0]
    if method is Method.RANDOM_PHASE:
        return random_phase(ch, params, phase_seed)
    if method is Method.PASSIVE_ALIGNED:
        return passive_aligned(ch, params)
    raise ValueError(f"unsupported method {method!r}")
