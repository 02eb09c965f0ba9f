import math

import numpy as np
import pytest

from irsbeam import (
    ChannelRealization,
    asnr_value,
    mrr,
    rate,
    reflected_power,
    snr,
)

from conftest import make_params, random_channel


def channel(g, f, h):
    return ChannelRealization(g=np.asarray(g, complex), f=np.asarray(f, complex), h=h)


class TestReflectedPower:
    def test_zero_vector(self):
        params = make_params(n_elements=2)
        ch = channel([1.0, 1.0], [1.0, 1.0], 0.0)
        assert reflected_power(np.zeros(2, complex), ch, params) == 0.0

    def test_direct_evaluation(self):
        # P_S |p g|^2 + sigma_I^2 |p|^2 = 1*1 + 0.1*4
        params = make_params(n_elements=1)
        ch = channel([0.5], [1.0], 0.0)
        assert reflected_power(np.array([2.0 + 0j]), ch, params) == pytest.approx(1.4, rel=1e-12)

    def test_budget_beamformer_hits_p_i(self, rng):
        params = make_params(n_elements=8, p_i=2.5)
        ch = random_channel(rng, 8)
        bf = mrr(ch, params)
        assert reflected_power(bf, ch, params) == pytest.approx(params.p_i, rel=1e-9)


class TestSnr:
    def test_direct_path_only(self):
        params = make_params(n_elements=2, sigma_u_sq=0.1)
        ch = channel([1.0, 1.0], [1.0, 1.0], 1.0)
        assert snr(np.zeros(2, complex), ch, params) == pytest.approx(10.0, rel=1e-12)

    def test_single_element_evaluation(self):
        params = make_params(n_elements=1, sigma_i_sq=0.1, sigma_u_sq=0.1)
        ch = channel([1.0], [1.0], 0.0)
        assert snr(np.array([1.0 + 0j]), ch, params) == pytest.approx(5.0, rel=1e-12)

    def test_global_phase_invariant_without_direct_path(self, rng):
        params = make_params(n_elements=4)
        ch = random_channel(rng, 4, scale_h=0.0)
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        base = snr(p, ch, params)
        assert snr(p * np.exp(1j * 0.7), ch, params) == pytest.approx(base, rel=1e-12)

    def test_strictly_increasing_in_p_s(self, rng):
        ch = random_channel(rng, 4)
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        low = snr(p, ch, make_params(n_elements=4, p_s=1.0))
        high = snr(p, ch, make_params(n_elements=4, p_s=2.0))
        assert high > low
        assert high == pytest.approx(2.0 * low, rel=1e-12)


class TestRate:
    def test_reference_points(self):
        assert rate(0.0) == 0.0
        assert rate(1.0) == 1.0
        assert rate(10.0) == pytest.approx(3.4594316186372973, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rate(-1e-9)


class TestAsnrValue:
    def test_equals_snr_without_direct_path(self, rng):
        params = make_params(n_elements=4)
        ch = random_channel(rng, 4, scale_h=0.0)
        bf = mrr(ch, params)
        assert asnr_value(bf, ch, params) == pytest.approx(snr(bf, ch, params), rel=1e-12)

    def test_identity_with_snr(self, rng):
        # snr - asnr = P_S |h|^2 / noise denominator; the residual from the
        # subtraction scales with snr itself, hence the scaled tolerance.
        for _ in range(50):
            n = int(rng.integers(1, 9))
            params = make_params(n_elements=n)
            ch = random_channel(rng, n)
            bf = mrr(ch, params)
            den = params.sigma_i_sq * np.sum(np.abs(ch.f * bf.p) ** 2) + params.sigma_u_sq
            direct = params.p_s * abs(ch.h) ** 2 / den
            s = snr(bf, ch, params)
            assert s - asnr_value(bf, ch, params) == pytest.approx(
                direct, abs=1e-10 * (1.0 + s)
            )

    def test_matches_dense_matrix_evaluation(self, rng):
        # whitened quadratic-plus-cross-term form, assembled with explicit
        # matrices as an independent route
        params = make_params(n_elements=2)
        ch = random_channel(rng, 2)
        bf = mrr(ch, params)
        p = bf.p
        d = params.sigma_i_sq * np.abs(ch.f) ** 2 + params.sigma_u_sq / bf.lam**2
        d_half = np.diag(np.sqrt(d))
        d_inv_half = np.diag(1.0 / np.sqrt(d))
        gm = np.diag(ch.g)
        p_prime = d_half @ p
        u = d_inv_half.conj().T @ gm.conj().T @ ch.f
        quad = p_prime.conj() @ np.outer(u, u.conj()) @ p_prime
        cross = (
            np.conj(ch.h) * (p_prime.conj() @ u)
            + ch.h * (np.conj(u) @ p_prime)
        )
        dense = params.p_s * (quad + cross).real / (p_prime.conj() @ p_prime).real
        assert asnr_value(bf, ch, params) == pytest.approx(dense, rel=1e-10)

    def test_rejects_zero_scale(self):
        params = make_params(n_elements=2)
        ch = channel([1.0, 1.0], [1.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            asnr_value(np.zeros(2, complex), ch, params)


class TestLinkMetrics:
    def test_rate_is_log2_of_snr(self, rng):
        params = make_params(n_elements=4)
        ch = random_channel(rng, 4)
        bf = mrr(ch, params)
        snr_value = snr(bf, ch, params)
        assert rate(snr_value) == math.log2(1.0 + snr_value)
        assert reflected_power(bf, ch, params) == pytest.approx(params.p_i, rel=1e-9)
