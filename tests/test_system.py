import math
import re
from dataclasses import replace

import numpy as np
import pytest

from irsbeam import (
    ChannelRealization,
    SystemParams,
    dbm_to_watts,
    node_distances,
    path_loss_gain,
    sample_channels,
    sample_channels_batch,
    trial_seed,
    trial_seeds,
)

from conftest import make_params


class TestDbmToWatts:
    def test_reference_points(self):
        assert dbm_to_watts(30.0) == 1.0
        assert dbm_to_watts(-70.0) == pytest.approx(1.0e-10, rel=1e-12)
        assert dbm_to_watts(0.0) == pytest.approx(1.0e-3, rel=1e-12)

    def test_strictly_increasing(self):
        levels = np.linspace(-90.0, 40.0, 200)
        watts = [dbm_to_watts(x) for x in levels]
        assert all(b > a for a, b in zip(watts, watts[1:]))

    def test_decade_step_multiplies_by_ten(self):
        for level in (-70.0, -12.5, 0.0, 15.0, 30.0):
            assert dbm_to_watts(level + 10.0) == pytest.approx(
                10.0 * dbm_to_watts(level), rel=1e-15
            )

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dbm_to_watts(math.inf)
        with pytest.raises(ValueError):
            dbm_to_watts(math.nan)


class TestGeometry:
    def test_reference_scenario_distances(self):
        d_bi, d_iu, d_bu = node_distances(SystemParams.default(4))
        assert d_bi == pytest.approx(104.40306508910549, abs=1e-10)
        assert d_iu == pytest.approx(58.309518948453004, abs=1e-10)
        assert d_bu == 150.0

    def test_unit_segment(self):
        params = make_params(pos_bs=(0.0, 0.0), pos_user=(1.0, 0.0), pos_irs=(0.0, 1.0))
        assert node_distances(params)[2] == 1.0

    def test_three_four_five(self):
        params = make_params(pos_bs=(0.0, 0.0), pos_irs=(3.0, 4.0), pos_user=(5.0, 0.0))
        assert node_distances(params)[0] == 5.0

    def test_coincident_nodes_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            make_params(pos_bs=(1.0, 2.0), pos_irs=(1.0, 2.0))


class TestPathLossGain:
    def test_intercept_at_reference_distance(self):
        assert path_loss_gain(1.0, 3.8, -30.0) == pytest.approx(1.0e-3, rel=1e-12)

    def test_direct_evaluation(self):
        # 10^(-3) * 150^(-3.8), evaluated independently and frozen
        assert path_loss_gain(150.0, 3.8, -30.0) == pytest.approx(
            5.38087886899094e-12, rel=1e-12
        )

    def test_inverse_square_unit_intercept(self):
        assert path_loss_gain(10.0, 2.0, 0.0) == pytest.approx(0.01, rel=1e-12)

    def test_overflow_is_inf(self):
        assert path_loss_gain(1.0, 2.0, 4000.0) == math.inf
        assert path_loss_gain(1e-300, 2.3, -30.0) == math.inf

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_loss_gain(0.0, 2.0, -30.0)
        with pytest.raises(ValueError):
            path_loss_gain(-1.0, 2.0, -30.0)


class TestParamsValidation:
    @pytest.mark.parametrize("field", ["p_s", "p_i", "sigma_i_sq", "sigma_u_sq"])
    def test_nonpositive_power_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            make_params(**{field: 0.0})

    @pytest.mark.parametrize("field", ["alpha_bi", "alpha_iu", "alpha_bu"])
    def test_exponent_below_two_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            make_params(**{field: 1.9})

    @pytest.mark.parametrize("field, value", [
        ("alpha_bi", math.nan), ("alpha_iu", math.inf), ("alpha_bu", math.nan),
        ("ref_loss_db", math.nan), ("ref_loss_db", -math.inf),
        ("pos_bs", (math.nan, 0.0)), ("pos_irs", (1.0, math.inf)),
        ("pos_user", (math.nan, math.nan)),
    ])
    def test_non_finite_exponent_position_or_loss_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_params(**{field: value})

    @pytest.mark.parametrize("overrides, link", [
        ({"ref_loss_db": 4000.0}, "BS-IRS"),
        ({"ref_loss_db": -4000.0}, "BS-IRS"),
        ({"alpha_iu": 1e6}, "IRS-user"),
        ({"pos_user": (1e300, 0.0)}, "IRS-user"),
        ({"alpha_bu": 1e6}, "BS-user"),
    ])
    def test_link_variance_must_be_finite_and_positive(self, overrides, link):
        with pytest.raises(ValueError, match=f"^{link} link variance .* ref_loss_db"):
            make_params(**overrides)

    @pytest.mark.parametrize("overrides, message", [
        # S4's scale var_bi^2 var_iu overflows once N reaches 1e6.
        ({"ref_loss_db": 1030.0, "n_elements": 10**6},
         r"S4 = sum \|f\|\^2 \|g\|\^4 overflow a float at N = 1000000"),
        # A weak BS-IRS link: S2's scale var_bi var_iu overflows first.
        ({"ref_loss_db": 3000.0, "alpha_bi": 150.0, "n_elements": 10**6},
         r"S2 = sum \|g f\|\^2 overflow a float at N = 1000000"),
        ({"ref_loss_db": -1450.0}, r"S2 = sum \|g f\|\^2 underflow a float"),
    ])
    def test_link_variance_products_must_fit_the_designs(self, overrides, message):
        params = replace(SystemParams.default(256), ref_loss_db=1030.0)
        assert replace(params, ref_loss_db=-1440.0).link_variances()[0] > 0.0
        with pytest.raises(ValueError, match=f"^BS-IRS and IRS-user link variances .* "
                                             f"{message}.* tail margin .*ref_loss_db"):
            replace(params, **overrides)

    # One parameter set per product of the powers with the link scales, each
    # breaking that product alone. Without the check, each fails at trial 0:
    # an infinite or zero scale, an overflowed |h* + f^H G p|^2, a NaN or
    # infinite rate, or (forwarded noise) an overflow warning and a rate of 0.
    @pytest.mark.parametrize("n, dbm, overrides, problem", [
        (2, {"p_s": 898, "p_i": 2171, "sigma_u_sq": -251}, {"ref_loss_db": 554.0},
         "P_I S2 overflow"),
        (4, {"p_s": -49, "sigma_i_sq": -1311}, {"ref_loss_db": -1443.0},
         "P_S S4 + sigma_I^2 S2 underflow"),
        # S4 underflows before P_S scales it, so P_S S4 adds nothing.
        (1, {"p_s": 1433, "sigma_i_sq": -2862, "sigma_u_sq": -6}, {"ref_loss_db": -1342.0},
         "P_S S4 + sigma_I^2 S2 underflow"),
        (4, {"p_s": 2616, "p_i": 2623, "sigma_i_sq": -2282},
         {"ref_loss_db": -100.0, "pos_irs": (1e-28, 0.0), "pos_user": (1e22, 0.0),
          "alpha_iu": 10.1, "alpha_bu": 3.2}, "P_S |g|^2 overflow"),
        (4, {"p_i": 3027}, {}, "lam^2 overflow"),
        (4, {"p_s": 3000}, {}, "|g f|^2 / D^2 underflow"),
        (2, {"p_s": -2607, "p_i": 543, "sigma_i_sq": -1268, "sigma_u_sq": 1474},
         {"ref_loss_db": 880.0}, "|h* + f^H G p|^2 overflow"),
        (2, {"p_s": 1123, "p_i": 1411, "sigma_i_sq": 650},
         {"ref_loss_db": -73.0, "pos_irs": (1e-27, 0.0), "pos_user": (1.01e-25, 0.0),
          "alpha_bi": 2.2, "alpha_bu": 9.0}, "P_S |h* + f^H G p|^2 overflow"),
        (1, {"p_i": 2930, "sigma_i_sq": 30},
         {"pos_irs": (100.0, 0.0), "pos_user": (100.0 + 1e-10, 0.0), "alpha_bi": 10.0},
         "sigma_I^2 |F p|^2 overflow"),
        (2, {"p_s": 2250, "p_i": 948, "sigma_u_sq": -2109}, {}, "the SNR overflow"),
    ])
    def test_power_products_must_fit_the_designs(self, n, dbm, overrides, problem):
        watts = {field: dbm_to_watts(level) for field, level in dbm.items()}
        with pytest.raises(ValueError, match=r"^BS-IRS and IRS-user link variances .* make "
                                             + re.escape(problem) + " a float"):
            replace(SystemParams.default(n), **watts, **overrides)

    def test_zero_elements_rejected(self):
        with pytest.raises(ValueError, match="n_elements"):
            make_params(n_elements=0)


class TestSampleChannels:
    def test_deterministic_per_seed(self):
        params = SystemParams.default(16)
        a = sample_channels(params, 7)
        b = sample_channels(params, 7)
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.f, b.f)
        assert a.h == b.h
        c = sample_channels(params, 8)
        assert not np.array_equal(a.g, c.g)

    def test_entry_variance_matches_path_loss(self):
        # 1e5 entries: standard error of the mean power is ~0.32%
        params = SystemParams.default(100)
        var_bi = params.link_variances()[0]
        draws = [sample_channels(params, trial_seed(404, t)).g for t in range(1000)]
        power = np.mean(np.abs(np.concatenate(draws)) ** 2)
        assert abs(power - var_bi) / var_bi < 0.02

    def test_zero_mean_fading(self):
        params = SystemParams.default(100)
        var_bi = params.link_variances()[0]
        draws = [sample_channels(params, trial_seed(405, t)).g for t in range(1000)]
        entries = np.concatenate(draws)
        se = math.sqrt(var_bi / 2.0 / entries.size)
        assert abs(np.mean(entries.real)) < 3.0 * se
        assert abs(np.mean(entries.imag)) < 3.0 * se

    def test_variance_scales_with_intercept(self):
        base = SystemParams.default(100)
        boosted = make_params(
            n_elements=100,
            pos_bs=base.pos_bs, pos_irs=base.pos_irs, pos_user=base.pos_user,
            alpha_bi=base.alpha_bi, alpha_iu=base.alpha_iu, alpha_bu=base.alpha_bu,
            p_s=base.p_s, p_i=base.p_i,
            sigma_i_sq=base.sigma_i_sq, sigma_u_sq=base.sigma_u_sq,
            ref_loss_db=base.ref_loss_db + 3.0,
        )
        power = []
        for params in (base, boosted):
            draws = [sample_channels(params, trial_seed(77, t)).g for t in range(1000)]
            power.append(np.mean(np.abs(np.concatenate(draws)) ** 2))
        assert power[1] / power[0] == pytest.approx(10.0 ** 0.3, rel=0.02)

    def test_channel_lengths(self):
        params = SystemParams.default(5)
        ch = sample_channels(params, 1)
        assert ch.g.shape == (5,) and ch.f.shape == (5,)
        assert ch.n_elements == 5
        for g, f in ((ch.g[None], ch.f[None]), (ch.g, ch.f[:4])):
            with pytest.raises(ValueError, match="1-D vectors of equal length"):
                ChannelRealization(g=g, f=f, h=ch.h)
        for h in (complex(math.nan, 0.0), complex(0.0, math.inf)):
            with pytest.raises(ValueError, match="channel entries must be finite"):
                ChannelRealization(g=ch.g, f=ch.f, h=h)


    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_batch_rows_equal_sequential_draws(self, n, monkeypatch):
        # The documented layout: per seed, draw (2, N) normals for g, then
        # (2, N) for f, then (2, 1) for h, from one generator.
        params = SystemParams.default(n)
        # One- and two-word seeds at both ends of each range, mixed in one batch.
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [trial_seed(11, t) for t in range(20)]
        variances = params.link_variances()
        calls = []
        monkeypatch.setattr(SystemParams, "link_variances",
                            lambda self: calls.append(self) or variances)
        g, f, h = sample_channels_batch(params, seeds)
        assert len(calls) == 1
        assert g.shape == f.shape == (25, n) and h.shape == (25,)
        for t, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            expected = [math.sqrt(v / 2.0) * (z[0] + 1j * z[1])
                        for v, z in zip(variances, (rng.standard_normal((2, n)),
                                                    rng.standard_normal((2, n)),
                                                    rng.standard_normal((2, 1))))]
            assert np.array_equal(g[t], expected[0])
            assert np.array_equal(f[t], expected[1])
            assert h[t] == expected[2][0]
            ch = sample_channels(params, seed)
            assert np.array_equal(ch.g, g[t]) and np.array_equal(ch.f, f[t]) and ch.h == h[t]


class TestTrialSeed:
    def test_pure_function(self):
        assert trial_seed(123, 4) == trial_seed(123, 4)
        assert trial_seed(123, 4, stream=1) == trial_seed(123, 4, stream=1)

    def test_distinct_trials_and_streams(self):
        seeds = {trial_seed(9, t, stream=s) for t in range(100) for s in (0, 1)}
        assert len(seeds) == 200

    def test_trial_seeds_reject_inputs_wider_than_their_words(self):
        for trials in ([2**32], [-1], [0, 2**40]):
            with pytest.raises(ValueError, match=r"trial indices must be in \[0, 2\*\*32\)"):
                trial_seeds(1, trials)
        for master, stream in ((2**64, 0), (-1, 0), (1, 2**32), (1, -1)):
            with pytest.raises(ValueError, match=r"master_seed must be in \[0, 2\*\*64\)"):
                trial_seeds(master, [0], stream)
        for args in ((-1, 0), (1, -1), (1, 0, -1)):
            with pytest.raises(ValueError, match="expected non-negative integer"):
                trial_seed(*args)
        assert trial_seeds(5, range(0)) == []


class TestBatchSeeding:
    def test_numpy_integer_seeds_and_empty_batch(self):
        params = SystemParams.default(4)
        seeds = [np.uint64(2**64 - 1), np.int32(7)]
        g, _, _ = sample_channels_batch(params, seeds)
        assert np.array_equal(g, sample_channels_batch(params, [2**64 - 1, 7])[0])
        g, f, h = sample_channels_batch(params, [])
        assert g.shape == f.shape == (0, 4) and h.shape == (0,)

    @pytest.mark.parametrize("seeds, error", [([-1], ValueError), ([2**64], ValueError),
                                              ([1.5], TypeError)])
    def test_rejects_seeds_outside_64_bits(self, seeds, error):
        with pytest.raises(error):
            sample_channels_batch(SystemParams.default(4), seeds)
