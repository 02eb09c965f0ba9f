"""Link-level quantities for a coefficient vector on one channel draw.

All formulas exploit the diagonal structure of the link (the IRS applies
one complex coefficient per element), so everything is O(N) elementwise;
no dense N x N matrix is ever formed.

Each function accepts either a designed ``Beamformer`` or a raw complex
coefficient vector p (in which case the scale is taken as ||p||).

The SNR evaluators rely on ``SystemParams``: its sigma_u^2 > 0 bounds the SNR
denominator below, so they raise nothing for a validated parameter set.
"""

from __future__ import annotations

import math

import numpy as np

from .system import ChannelRealization, SystemParams

__all__ = [
    "reflected_power",
    "snr",
    "rate",
    "rate_batch",
    "asnr_value",
]


def _norm(w: np.ndarray) -> float:
    # np.linalg.norm(w) of a complex vector bit for bit, without its
    # dispatch: the same ravel, the same two BLAS dot products of the real
    # and the imaginary parts, then the correctly rounded square root.
    w = w.ravel(order="K")
    re, im = w.real, w.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _coefficients(bf_or_p) -> np.ndarray:
    p = getattr(bf_or_p, "p", None)
    if p is None:
        p = bf_or_p
    return np.asarray(p, dtype=np.complex128)


def reflected_power(bf_or_p, ch: ChannelRealization, params: SystemParams) -> float:
    """Total power re-radiated by the IRS (watts):
    P_S sum|p(n) g(n)|^2 + sigma_I^2 sum|p(n)|^2."""
    p = _coefficients(bf_or_p)
    return float(
        params.p_s * (np.abs(p * ch.g) ** 2).sum()
        + params.sigma_i_sq * (np.abs(p) ** 2).sum()
    )


def _reflected_sum(p: np.ndarray, ch: ChannelRealization) -> complex:
    # f^H G p = sum f(n)* g(n) p(n)
    return complex((np.conj(ch.f) * ch.g * p).sum())


def snr(bf_or_p, ch: ChannelRealization, params: SystemParams) -> float:
    """P_S |h* + f^H G p|^2 / (sigma_I^2 p^H F F^H p + sigma_u^2), never
    negative: the denominator is at least sigma_u^2 > 0 (``SystemParams``)."""
    p = _coefficients(bf_or_p)
    den = float(params.sigma_i_sq * (np.abs(ch.f * p) ** 2).sum() + params.sigma_u_sq)
    num = params.p_s * abs(ch.h.conjugate() + _reflected_sum(p, ch)) ** 2
    return num / den


def rate(snr_value: float) -> float:
    """Achievable rate log2(1 + snr) in bits/s/Hz."""
    if snr_value < 0.0:
        raise ValueError("snr must be nonnegative")
    return math.log2(1.0 + snr_value)


def rate_batch(p: np.ndarray, g: np.ndarray, f: np.ndarray, h: np.ndarray,
               params: SystemParams) -> np.ndarray:
    """``rate(snr(p[t], ch_t, params))`` for every row t of (T, N)
    coefficients ``p`` and channels ``g``, ``f`` with (T,) direct channels
    ``h``, equal to the scalar path bit for bit; like ``snr``, it raises
    nothing for a validated ``SystemParams``.

    The scalar path takes |.| with Python's ``abs`` (libm ``hypot``) and
    squares and logs Python floats with ``**`` and ``math.log2`` (libm
    ``pow`` and ``log2``); numpy's ``abs``, ``x * x`` and ``log2`` round
    differently in some values, so those steps keep the libm calls.
    """
    den = params.sigma_i_sq * np.sum(np.abs(np.multiply(f, p)) ** 2, axis=1) \
        + params.sigma_u_sq
    s = np.conj(h) + np.sum(np.multiply(np.multiply(np.conj(f), g), p), axis=1)
    magnitude = np.hypot(s.real, s.imag)
    snr_values = params.p_s * np.array([m ** 2 for m in magnitude.tolist()]) / den
    return np.array([math.log2(1.0 + x) for x in snr_values.tolist()])


def asnr_value(bf_or_p, ch: ChannelRealization, params: SystemParams) -> float:
    """SNR with the direct-path power term |h|^2 dropped from the numerator.

    Evaluated as P_S (|f^H G p|^2 + 2 Re(h f^H G p)) / (p^H D p) with the
    whitener D(n) = sigma_I^2 |f(n)|^2 + sigma_u^2 / lam^2; for a vector
    with ||p|| = lam the denominator equals the SNR denominator, so
    snr - asnr_value = P_S |h|^2 / denominator.
    """
    p = _coefficients(bf_or_p)
    lam = getattr(bf_or_p, "lam", None)
    if lam is None:
        lam = _norm(p)
    if not lam > 0.0:
        raise ValueError("scale lam must be positive")
    r = _reflected_sum(p, ch)
    num = params.p_s * (abs(r) ** 2 + 2.0 * (ch.h * r).real)
    den = float(
        params.sigma_i_sq * (np.abs(ch.f * p) ** 2).sum()
        + params.sigma_u_sq / lam**2 * (np.abs(p) ** 2).sum()
    )
    return num / den
