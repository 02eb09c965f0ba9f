import math
from dataclasses import replace

import numpy as np
import pytest

from irsbeam import (
    Beamformer,
    ChannelRealization,
    SolverOptions,
    asnr_direction,
    dbm_to_watts,
    egr,
    egr_batch,
    lambda_from_normalized,
    max_asnr,
    max_asnr_batch,
    mrr,
    passive_aligned,
    passive_aligned_batch,
    random_phase,
    reflected_power,
    sample_channels,
    sample_channels_batch,
    snr,
    srr,
    srr_batch,
    SystemParams,
    TraceRecord,
    rate,
    trial_seed,
)

from irsbeam import beamforming
from conftest import make_params, random_channel


def channel(g, f, h):
    return ChannelRealization(g=np.asarray(g, complex), f=np.asarray(f, complex), h=h)


FIXTURE_G = [1.0, 1.0j]
FIXTURE_F = [1.0, 1.0]


class TestLambdaFromNormalized:
    def test_degenerate_transmit_power(self):
        # with negligible P_S the formula collapses to sqrt(P_I / sigma_I^2)
        params = make_params(n_elements=2, p_s=1e-30, p_i=1.0, sigma_i_sq=1e-10)
        p_norm = np.array([1.0, 1.0]) / math.sqrt(2.0)
        g = np.array([1.0, 1.0j])
        assert lambda_from_normalized(p_norm, g, params) == pytest.approx(1e5, rel=1e-12)

    def test_direct_evaluation(self):
        params = make_params(n_elements=2, p_s=1.0, p_i=1.0, sigma_i_sq=0.1)
        p_norm = np.array([1.0, -1.0j]) / math.sqrt(2.0)
        g = np.array([1.0, 1.0j])
        assert lambda_from_normalized(p_norm, g, params) == pytest.approx(
            math.sqrt(1.0 / 1.1), rel=1e-12
        )

    def test_square_root_homogeneity_in_budget(self, rng):
        p_norm = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        p_norm /= np.linalg.norm(p_norm)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lam1 = lambda_from_normalized(p_norm, g, make_params(n_elements=4, p_i=1.0))
        lam4 = lambda_from_normalized(p_norm, g, make_params(n_elements=4, p_i=4.0))
        assert lam4 == pytest.approx(2.0 * lam1, rel=1e-12)

    def test_rejects_zero_and_unnormalized(self):
        params = make_params(n_elements=2)
        g = np.array([1.0, 1.0j])
        with pytest.raises(ValueError, match="unit 2-norm"):
            lambda_from_normalized(np.zeros(2, complex), g, params)
        with pytest.raises(ValueError, match="unit 2-norm"):
            lambda_from_normalized(np.array([1.0, 1.0]), g, params)
        with pytest.raises(ValueError, match="unit 2-norm"):
            lambda_from_normalized(np.array([1.0, np.nan]), g, params)
        # 1e-10 off: outside the shared 1e-12 tolerance.
        with pytest.raises(ValueError, match="unit 2-norm"):
            lambda_from_normalized(np.array([1.0 + 1e-10, 0.0]), g, params)
        with pytest.raises(ValueError, match="equal length"):
            lambda_from_normalized(np.array([1.0]), g, params)


class TestEgr:
    def test_direction_fixture(self):
        bf = egr(channel(FIXTURE_G, FIXTURE_F, 1.0), make_params())
        expected = np.array([1.0, -1.0j]) / math.sqrt(2.0)
        np.testing.assert_allclose(bf.p_normalized, expected, atol=1e-12)

    def test_scale_fixture(self):
        bf = egr(channel(FIXTURE_G, FIXTURE_F, 1.0),
                 make_params(p_s=1.0, p_i=1.0, sigma_i_sq=0.1))
        assert bf.lam == pytest.approx(math.sqrt(2.0 / 2.2), rel=1e-12)

    def test_reflected_components_real_nonnegative(self, rng):
        params = make_params(n_elements=8)
        ch = random_channel(rng, 8)
        bf = egr(ch, params)
        components = np.conj(ch.f) * ch.g * bf.p_normalized
        assert np.max(np.abs(components.imag)) < 1e-12
        assert np.all(components.real >= 0.0)

    def test_closed_form_scale_matches_generic(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 17))
            params = make_params(n_elements=n, p_s=float(rng.uniform(0.01, 10)),
                                 p_i=float(rng.uniform(0.01, 10)),
                                 sigma_i_sq=float(rng.uniform(1e-6, 1.0)))
            ch = random_channel(rng, n)
            bf = egr(ch, params)
            generic = lambda_from_normalized(bf.p_normalized, ch.g, params)
            assert bf.lam == pytest.approx(generic, rel=1e-12)


class TestMrr:
    def test_direction_fixture(self):
        bf = mrr(channel(FIXTURE_G, FIXTURE_F, 1.0), make_params())
        expected = np.array([1.0, -1.0j]) / math.sqrt(2.0)
        np.testing.assert_allclose(bf.p_normalized, expected, atol=1e-12)

    def test_scale_fixture(self):
        bf = mrr(channel(FIXTURE_G, FIXTURE_F, 1.0),
                 make_params(p_s=1.0, p_i=1.0, sigma_i_sq=0.1))
        assert bf.lam == pytest.approx(math.sqrt(2.0 / 2.2), rel=1e-12)

    def test_direct_path_rotation(self):
        params = make_params(p_s=1.0, p_i=1.0, sigma_i_sq=0.1)
        plain = mrr(channel(FIXTURE_G, FIXTURE_F, 1.0), params)
        rotated = mrr(channel(FIXTURE_G, FIXTURE_F, np.exp(1j * math.pi / 3)), params)
        np.testing.assert_allclose(
            rotated.p_normalized, plain.p_normalized * np.exp(-1j * math.pi / 3),
            atol=1e-12,
        )
        assert rotated.lam == pytest.approx(plain.lam, rel=1e-12)

    def test_reflected_sum_aligned_with_direct_path(self, rng):
        params = make_params(n_elements=8)
        ch = random_channel(rng, 8)
        bf = mrr(ch, params)
        total = np.sum(np.conj(ch.f) * ch.g * bf.p)
        assert np.angle(total * ch.h) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_zero_product_channel(self):
        with pytest.raises(ValueError, match="selected product channels are identically zero"):
            mrr(channel([0.0, 1.0], [1.0, 0.0], 1.0), make_params())

    def test_max_asnr_rejects_zero_product_channel_as_mrr_does(self):
        # max_asnr starts at the MRR scale: it fails with the message of mrr
        # and max_asnr_batch, before a division could warn.
        ch = channel([0.0, 1.0], [1.0, 0.0], 1.0)
        for design in (max_asnr, lambda ch, params: max_asnr_batch(
                ch.g[None], ch.f[None], np.array([ch.h]), params)):
            with pytest.raises(ValueError, match="selected product channels are identically zero"):
                design(ch, make_params())

    def test_closed_form_scale_matches_generic(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 17))
            params = make_params(n_elements=n, p_s=float(rng.uniform(0.01, 10)),
                                 p_i=float(rng.uniform(0.01, 10)),
                                 sigma_i_sq=float(rng.uniform(1e-6, 1.0)))
            ch = random_channel(rng, n)
            bf = mrr(ch, params)
            generic = lambda_from_normalized(bf.p_normalized, ch.g, params)
            assert bf.lam == pytest.approx(generic, rel=1e-12)

    def test_coincides_with_egr_for_flat_product_channel(self, rng):
        # unit-modulus g and f make |g o f| constant; with a real positive
        # direct channel both methods return the same beamformer
        n = 6
        g = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
        f = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
        ch = channel(g, f, 1.0)
        params = make_params(n_elements=n)
        a, b = mrr(ch, params), egr(ch, params)
        np.testing.assert_allclose(a.p_normalized, b.p_normalized, atol=1e-12)
        assert a.lam == pytest.approx(b.lam, rel=1e-12)


class TestSrr:
    def test_top_k_selection(self):
        # |g o f| magnitudes (0.5, 0.9, 0.2) -> k=2 keeps indices {0, 1}
        ch = channel([0.5, 0.9, 0.2], [1.0, 1.0, 1.0], 1.0)
        bf = srr(ch, make_params(n_elements=3), k=2)
        np.testing.assert_array_equal(bf.p_normalized != 0, [True, True, False])
        assert bf.p_normalized[2] == 0.0

    def test_full_selection_degenerates_to_mrr(self, rng):
        params = make_params(n_elements=8)
        ch = random_channel(rng, 8)
        full = srr(ch, params, k=8)
        reference = mrr(ch, params)
        np.testing.assert_allclose(full.p_normalized, reference.p_normalized, atol=1e-12)
        assert full.lam == pytest.approx(reference.lam, rel=1e-12)

    def test_single_selection_fixture(self):
        ch = channel([1.0, 1.0j], [1.0, 0.1], 1.0)
        bf = srr(ch, make_params(p_s=1.0, p_i=1.0, sigma_i_sq=0.1), k=1)
        np.testing.assert_array_equal(bf.p_normalized != 0, [True, False])
        np.testing.assert_allclose(bf.p_normalized, [1.0, 0.0], atol=1e-12)
        assert bf.lam == pytest.approx(math.sqrt(1.0 / 1.1), rel=1e-12)

    def test_selection_is_exactly_the_k_largest(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n + 1))
            ch = random_channel(rng, n)
            bf = srr(ch, make_params(n_elements=n), k=k)
            mags = np.abs(np.conj(ch.g) * ch.f)
            threshold = np.sort(mags)[::-1][k - 1]
            support = bf.p_normalized != 0
            assert support.sum() == k
            assert np.all(mags[support] >= threshold)

    def test_tie_break_prefers_lower_index(self):
        ch = channel([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 1.0)
        bf = srr(ch, make_params(n_elements=3), k=2)
        np.testing.assert_array_equal(bf.p_normalized != 0, [True, True, False])

    def test_rejects_zero_selection_at_every_k(self):
        ch = channel([0.0, 1.0], [1.0, 0.0], 1.0)
        for k in (1, 2):
            with pytest.raises(ValueError,
                               match="^selected product channels are identically zero$"):
                srr(ch, make_params(), k=k)

    def test_k_out_of_range(self):
        ch = channel(FIXTURE_G, FIXTURE_F, 1.0)
        for bad in (0, 3):
            with pytest.raises(ValueError, match=rf"^k must be in \[1, 2\], got {bad}$"):
                srr(ch, make_params(), k=bad)

    def test_closed_form_scale_matches_generic(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 17))
            k = int(rng.integers(1, n + 1))
            params = make_params(n_elements=n, p_s=float(rng.uniform(0.01, 10)),
                                 p_i=float(rng.uniform(0.01, 10)),
                                 sigma_i_sq=float(rng.uniform(1e-6, 1.0)))
            ch = random_channel(rng, n)
            bf = srr(ch, params, k=k)
            generic = lambda_from_normalized(bf.p_normalized, ch.g, params)
            assert bf.lam == pytest.approx(generic, rel=1e-12)


class TestAsnrDirection:
    def test_whitener_reduces_to_f_squared(self):
        # negligible user noise: direction proportional to g* f / |f|^2
        params = make_params(sigma_i_sq=0.1, sigma_u_sq=1e-30)
        ch = channel([1.0, 1.0], [1.0, 2.0], 1.0)
        direction = asnr_direction(ch, params, lam=1.0)
        expected = np.array([1.0 / 1.0, 2.0 / 4.0])
        expected = expected / np.linalg.norm(expected)
        np.testing.assert_allclose(direction, expected, atol=1e-12)

    def test_direct_evaluation_fixture(self):
        # D = [0.2, 0.5]; direction proportional to [5, 4]
        params = make_params(sigma_i_sq=0.1, sigma_u_sq=0.1)
        ch = channel([1.0, 1.0], [1.0, 2.0], 1.0)
        direction = asnr_direction(ch, params, lam=1.0)
        np.testing.assert_allclose(
            direction, np.array([5.0, 4.0]) / math.sqrt(41.0), atol=1e-12
        )

    def test_invariant_to_prenormalization_scale(self):
        # scaling both noise variances scales the unnormalized solution by
        # a constant, which normalization removes
        ch = channel([1.0, 1.0], [1.0, 2.0], 1.0)
        a = asnr_direction(ch, make_params(sigma_i_sq=0.1, sigma_u_sq=0.1), lam=1.0)
        b = asnr_direction(ch, make_params(sigma_i_sq=0.4, sigma_u_sq=0.4), lam=1.0)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_global_phase_law(self, rng):
        params = make_params(n_elements=4)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = 1.1
        base = asnr_direction(channel(g, f, 1.0 + 0.5j), params, lam=2.0)
        rotated = asnr_direction(
            channel(g, f, (1.0 + 0.5j) * np.exp(1j * psi)), params, lam=2.0
        )
        np.testing.assert_allclose(rotated, base * np.exp(-1j * psi), atol=1e-12)
        np.testing.assert_allclose(np.abs(rotated), np.abs(base), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_matches_matrix_pseudo_inverse_route(self, rng, n):
        # rank-1 outer product inverted via numpy's pinv, assembled densely
        params = make_params(n_elements=n, sigma_i_sq=0.3, sigma_u_sq=0.05)
        ch = random_channel(rng, n)
        lam = 1.7
        d = params.sigma_i_sq * np.abs(ch.f) ** 2 + params.sigma_u_sq / lam**2
        d_inv_half = np.diag(1.0 / np.sqrt(d))
        u = d_inv_half.conj().T @ np.diag(ch.g).conj().T @ ch.f
        c = np.outer(u, u.conj())
        # The stationarity equation's minus sign, flipped so that the
        # reflected sum adds in phase with the direct path.
        p_prime = -np.conj(ch.h) * (np.linalg.pinv(c) @ u)
        dense = -(d_inv_half @ p_prime)
        dense = dense / np.linalg.norm(dense)
        np.testing.assert_allclose(asnr_direction(ch, params, lam), dense, atol=1e-10)

    def test_rejects_bad_inputs(self):
        params = make_params()
        ch = channel(FIXTURE_G, FIXTURE_F, 1.0)
        with pytest.raises(ValueError):
            asnr_direction(ch, params, lam=0.0)
        with pytest.raises(ValueError):
            asnr_direction(channel([0.0, 1.0], [1.0, 0.0], 1.0), params, lam=1.0)


class TestMaxAsnr:
    def test_single_element_converges_immediately(self):
        g, f, h = 0.8 * np.exp(0.3j), 1.2 * np.exp(-1.1j), 0.5 * np.exp(0.9j)
        ch = channel([g], [f], h)
        params = make_params(n_elements=1)
        bf, trace = max_asnr(ch, params)
        assert trace.converged and trace.iterations == 1
        expected_phase = np.angle(np.conj(g)) + np.angle(f) - np.angle(h)
        np.testing.assert_allclose(
            bf.p_normalized, [np.exp(1j * expected_phase)], atol=1e-12
        )
        assert bf.lam == pytest.approx(
            lambda_from_normalized(bf.p_normalized, ch.g, params), rel=1e-12
        )

    def test_termination_is_a_fixed_point(self):
        params = make_params(sigma_i_sq=0.1, sigma_u_sq=0.1)
        ch = channel([1.0, 1.0], [1.0, 2.0], 1.0)
        opts = SolverOptions(tolerance=1e-10, max_iterations=100)
        bf, trace = max_asnr(ch, params, opts)
        assert trace.converged
        next_dir = asnr_direction(ch, params, bf.lam)
        next_lam = lambda_from_normalized(next_dir, ch.g, params)
        assert abs(next_lam - bf.lam) / bf.lam <= opts.tolerance

    def test_trace_invariants(self, rng):
        params = SystemParams.default(16)
        ch = sample_channels(params, 42)
        opts = SolverOptions(tolerance=1e-4, max_iterations=50)
        bf, trace = max_asnr(ch, params, opts)
        iterations = [r.iteration for r in trace.records]
        assert iterations == list(range(len(trace.records)))
        assert len(trace.records) <= opts.max_iterations + 1
        lams = [r.lam for r in trace.records]
        assert abs(lams[-1] - lams[-2]) / lams[-2] <= opts.tolerance
        assert trace.records[-1].lam == bf.lam

    def test_unconverged_run_is_flagged_not_raised(self, rng):
        params = SystemParams.default(16)
        ch = sample_channels(params, 43)
        bf, trace = max_asnr(ch, params, SolverOptions(tolerance=1e-16, max_iterations=2))
        assert not trace.converged
        assert len(trace.records) == 3
        assert bf.lam > 0

    def test_rapid_convergence_on_reference_scenario(self):
        # median direction/scale updates to reach a 1e-3 relative scale
        # change stays within three iterations
        params = SystemParams.default(64)
        counts = []
        for t in range(200):
            ch = sample_channels(params, trial_seed(12345, t))
            _, trace = max_asnr(ch, params)
            lams = np.array([r.lam for r in trace.records])
            rel = np.abs(np.diff(lams)) / lams[:-1]
            hit = np.nonzero(rel <= 1e-3)[0]
            counts.append(hit[0] + 1 if hit.size else np.inf)
        assert np.median(counts) <= 3

    def test_initialization_is_mrr(self, rng):
        params = make_params(n_elements=4)
        ch = random_channel(rng, 4)
        _, trace = max_asnr(ch, params)
        assert trace.records[0].lam == pytest.approx(mrr(ch, params).lam, rel=1e-12)

    def test_trace_rates_are_computed_on_first_read(self, monkeypatch):
        # So is iterate 0, the mrr start: the run itself needs only its scale.
        import irsbeam.metrics
        params = SystemParams.default(16)
        starts = []
        monkeypatch.setattr(beamforming, "mrr",
                            lambda *args: starts.append(args) or mrr(*args))
        ch = sample_channels(params, 44)
        bf, trace = max_asnr(ch, params)
        evaluate, calls = irsbeam.metrics.rate_batch, []
        monkeypatch.setattr(irsbeam.metrics, "rate_batch",
                            lambda *args: calls.append(args) or evaluate(*args))
        assert trace.converged and trace.iterations >= 1
        assert calls == [] and starts == []
        assert trace.iterations == len(trace.iterates) - 1 and len(starts) == 1
        start, reference = trace.iterates[0], mrr(ch, params)
        assert start.p_normalized.tobytes() == reference.p_normalized.tobytes()
        assert np.float64(start.lam).tobytes() == np.float64(reference.lam).tobytes()
        assert trace.iterates[-1] is bf
        assert all(a is b for a, b in zip(trace.iterates[1:], trace.passes, strict=True))
        records = trace.records
        assert trace.iterates[0] is start and len(starts) == 1
        assert trace.records is records and len(calls) == 1
        assert records == tuple(
            TraceRecord(it, it_bf.lam, rate(snr(it_bf, ch, params)))
            for it, it_bf in enumerate(trace.iterates))



class TestMaxAsnrBatch:
    # The N = 64 and N = 256 cases hold (T, N) complex arrays above the
    # 256 KiB from which numpy reuses temporaries in place.
    @pytest.mark.parametrize("n, trials", [(1, 40), (2, 40), (3, 40), (16, 40),
                                           (64, 300), (256, 80)])
    @pytest.mark.parametrize("stop", [{}, {"tolerance": 1e-16, "max_iterations": 2}])
    def test_batch_equals_scalar_path_bit_for_bit(self, n, trials, stop):
        params = SystemParams.default(n)
        g, f, h = sample_channels_batch(params, [trial_seed(12345, t) for t in range(trials)])
        h[::4] = 0.0                    # absent direct path on every fourth row
        opts = SolverOptions(**stop)
        batch = max_asnr_batch(g, f, h, params, opts)
        for t in range(trials):
            ch = ChannelRealization(g=g[t], f=f[t], h=complex(h[t]))
            bf, trace = max_asnr(ch, params, opts)
            assert batch.records[t] == tuple((r.lam, r.rate_bits) for r in trace.records)
            assert len(batch.records[t]) - 1 == trace.iterations
            assert batch.converged[t] == trace.converged
            assert np.array_equal(batch.p_normalized[t], bf.p_normalized)
            assert batch.lam[t] == bf.lam

    def test_one_row_of_one_element(self):
        # Found by the property test: numpy's in-place complex multiply on
        # an array of one element rounds differently from the out-of-place
        # one, so a batch that has shrunk to one row must not use it.
        params = replace(SystemParams.default(1), p_s=dbm_to_watts(0.0), p_i=dbm_to_watts(1.0))
        g, f, h = sample_channels_batch(params, [trial_seed(0, 0)])
        batch = max_asnr_batch(g, f, h, params)
        bf, trace = max_asnr(ChannelRealization(g=g[0], f=f[0], h=complex(h[0])), params)
        assert batch.records[0] == tuple((r.lam, r.rate_bits) for r in trace.records)
        assert np.array_equal(batch.p_normalized[0], bf.p_normalized)

    def test_checks_name_the_failing_trial(self, monkeypatch):
        params = SystemParams.default(4)
        g, f, h = sample_channels_batch(params, [1, 2, 3])
        # Row 1 makes one pass more than the others, alone in the batch: a
        # check that fails there names it by its row in the batch.
        assert [len(r) for r in max_asnr_batch(g, f, h, params).records] == [4, 5, 4]
        whitened = beamforming._whitened

        def zeroed_when_alone(w, *args):
            return whitened(np.zeros_like(w) if len(w) == 1 else w, *args)

        monkeypatch.setattr(beamforming, "_whitened", zeroed_when_alone)
        with pytest.raises(ValueError,
                           match=r"^product channel g\* o f is identically zero$") as excinfo:
            max_asnr_batch(g, f, h, params)
        assert excinfo.value.row == 1
        monkeypatch.undo()
        g[1] = 0.0
        with pytest.raises(ValueError,
                           match="^selected product channels are identically zero$") as excinfo:
            max_asnr_batch(g, f, h, params)
        assert excinfo.value.row == 1
        g[1] = 1.0
        f[2, 0] = np.nan
        with pytest.raises(ValueError, match="^channel entries must be finite$") as excinfo:
            max_asnr_batch(g, f, h, params)
        assert excinfo.value.row == 2

    @pytest.mark.parametrize("design, reads_h", [
        (lambda g, f, h, params: srr_batch(g, f, h, 2), True),
        (lambda g, f, h, params: srr_batch(g, f, h, 4), True),
        (max_asnr_batch, True),
        (lambda g, f, h, params: egr_batch(g, f, params), False),
        (lambda g, f, h, params: passive_aligned_batch(g, f, h), True),
    ], ids=["srr", "mrr", "max_asnr", "egr", "passive_aligned"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_direct_channel_names_its_row(self, design, reads_h, value):
        # Every batch design kernel checks its channels the same way: a
        # non-finite entry of g, f or (but for egr_batch, which takes no h) h
        # names its row.
        params = SystemParams.default(4)
        for name, entry in [("g", (1, 2)), ("f", (1, 0))] + [("h", 1)] * reads_h:
            channels = dict(zip("gfh", sample_channels_batch(params, [1, 2, 3])))
            channels[name][entry] = value
            with pytest.raises(ValueError, match="^channel entries must be finite$") as excinfo:
                design(*channels.values(), params)
            assert excinfo.value.row == 1, name

    @pytest.mark.parametrize("g, f, overrides, message", [
        # |g f|^2 = 1e-300 is a normal float, but P_I times it underflows to 0.
        (1e-75, 1e-75, {"p_i": 1e-30}, "lam must be positive"),
        # At the start's lam = 1e-15, |g f| / (sigma_I^2 |f|^2 + sigma_u^2 / lam^2)
        # = 1e-100 / (1e230 + 1e30) underflows to 0.
        (1e-200, 1e100, {"sigma_i_sq": 1e30}, r"product channel g\* o f is identically zero"),
        # |g f|^2 = 1e-320 is subnormal: the one product-channel check rejects
        # it before any direction or scale (here 0/0) is formed.
        (1e-80, 1e-80, {"p_i": 1e-5}, "selected product channels are identically zero"),
    ])
    def test_underflow_raises_as_in_the_scalar_path(self, g, f, overrides, message):
        params = make_params(n_elements=1, **overrides)
        ch = channel([g], [f], 1.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            max_asnr(ch, params)
        designs = [lambda: max_asnr_batch(ch.g[None], ch.f[None], np.array([ch.h]), params)]
        if not message.startswith("product channel"):   # only a whitened pass says that
            designs += [lambda: mrr(ch, params), lambda: srr(ch, params, k=1),
                        lambda: srr_batch(ch.g[None], ch.f[None], np.array([ch.h]), 1).lam(params)]
        for design in designs:
            with pytest.raises(ValueError, match=f"^{message}$") as excinfo:
                design()
            assert excinfo.value.row == 0

    def test_subnormal_row_is_named_by_every_matched_kernel(self):
        # Only row 1's |g f|^2 = 2e-320 is subnormal.
        g = f = np.array([[1.0, 0.5], [1e-80, 1e-80]], dtype=np.complex128)
        h = np.ones(2, dtype=np.complex128)
        for design in (lambda: srr_batch(g, f, h, 1), lambda: srr_batch(g, f, h, 2),
                       lambda: max_asnr_batch(g, f, h, make_params(n_elements=2))):
            with pytest.raises(ValueError, match="^selected product channels are identically "
                                                 "zero$") as excinfo:
                design()
            assert excinfo.value.row == 1


class TestBaselines:
    def test_random_phase_deterministic(self, rng):
        params = make_params(n_elements=8)
        ch = random_channel(rng, 8)
        a = random_phase(ch, params, seed=3)
        b = random_phase(ch, params, seed=3)
        np.testing.assert_array_equal(a.p_normalized, b.p_normalized)
        assert a.lam == b.lam
        c = random_phase(ch, params, seed=4)
        assert not np.array_equal(a.p_normalized, c.p_normalized)

    def test_random_phase_unit_norm_by_construction(self, rng):
        params = make_params(n_elements=16)
        bf = random_phase(random_channel(rng, 16), params, seed=1)
        assert np.linalg.norm(bf.p_normalized) == pytest.approx(1.0, abs=1e-14)

    def test_random_phase_mean_rate_below_egr(self):
        params = SystemParams.default(16)
        diffs = []
        for t in range(1000):
            ch = sample_channels(params, trial_seed(5150, t))
            r_egr = snr(egr(ch, params), ch, params)
            r_rnd = snr(random_phase(ch, params, trial_seed(5150, t, stream=1)), ch, params)
            diffs.append(math.log2(1 + r_egr) - math.log2(1 + r_rnd))
        assert np.mean(diffs) > 0

    def test_passive_aligned_scale(self, rng):
        params = make_params(n_elements=4)
        bf = passive_aligned(random_channel(rng, 4), params)
        assert bf.lam == 2.0

    def test_passive_aligned_unit_modulus(self, rng):
        params = make_params(n_elements=9)
        bf = passive_aligned(random_channel(rng, 9), params)
        np.testing.assert_allclose(np.abs(bf.p), np.ones(9), atol=1e-12)

    def test_passive_aligned_phase(self, rng):
        params = make_params(n_elements=9)
        ch = random_channel(rng, 9)
        bf = passive_aligned(ch, params)
        total = np.sum(np.conj(ch.f) * ch.g * bf.p)
        assert np.angle(total * ch.h) == pytest.approx(0.0, abs=1e-9)


class TestBeamformerInvariants:
    def test_power_budget_all_active_methods(self, rng):
        params = make_params(n_elements=8, p_i=3.0)
        ch = random_channel(rng, 8)
        builders = [
            egr(ch, params),
            mrr(ch, params),
            srr(ch, params, 4),
            max_asnr(ch, params)[0],
            random_phase(ch, params, 1),
        ]
        for bf in builders:
            assert reflected_power(bf, ch, params) == pytest.approx(params.p_i, rel=1e-9)

    def test_unit_norm_all_methods(self, rng):
        params = make_params(n_elements=8)
        ch = random_channel(rng, 8)
        for bf in (egr(ch, params), mrr(ch, params), srr(ch, params, 3),
                   max_asnr(ch, params)[0], random_phase(ch, params, 2),
                   passive_aligned(ch, params)):
            assert abs(np.linalg.norm(bf.p_normalized) - 1.0) <= 1e-12

    def test_constructor_rejects_invalid(self):
        ok = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="unit 2-norm"):
            Beamformer(ok * 2.0, 1.0)
        with pytest.raises(ValueError, match="lam must be positive"):
            Beamformer(ok, 0.0)
        with pytest.raises(ValueError, match="1-D"):
            Beamformer(ok[None, :], 1.0)
        with pytest.raises(ValueError, match="unit 2-norm"):
            Beamformer(np.array([1.0, np.nan], dtype=complex), 1.0)
        assert Beamformer(ok, 1.0).lam == 1.0
