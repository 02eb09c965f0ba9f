"""Property tests over random seeds, sizes and powers (hypothesis)."""

from dataclasses import replace

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from irsbeam import (  # noqa: E402
    Adjudication,
    Beamformer,
    ChannelRealization,
    ConfigError,
    ExperimentConfig,
    Scenario,
    SystemParams,
    asnr_direction,
    dbm_to_watts,
    egr,
    egr_batch,
    grid_search_best,
    max_asnr,
    max_asnr_batch,
    mrr,
    passive_aligned,
    passive_aligned_batch,
    random_phase,
    rate,
    rate_batch,
    reflected_power,
    run_convergence,
    run_oracle_check,
    run_rate_vs_n,
    run_srr_sweep,
    sample_channels,
    sample_channels_batch,
    sign_adjudicate,
    snr,
    srr,
    srr_batch,
    trial_seed,
    trial_seeds,
)
from irsbeam.beamforming import _budget_scale  # noqa: E402
from irsbeam.config import _ALLOWED_KEYS, parse_config  # noqa: E402
from irsbeam.metrics import _norm  # noqa: E402

import reference  # noqa: E402
from conftest import rows_of  # noqa: E402
from grid_reference import grid_search_best_reference  # noqa: E402

# Derandomized, and no example database, so every run checks the same cases
# and leaves no files behind.
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(master_seed=st.integers(0, 2**64 - 1), n=st.integers(1, 64),
       trials=st.integers(1, 5), p_s_dbm=st.floats(-20.0, 40.0),
       p_i_dbm=st.floats(-20.0, 40.0))
def test_max_asnr_batch_equals_scalar_and_meets_budget(master_seed, n, trials, p_s_dbm,
                                                      p_i_dbm):
    params = replace(SystemParams.default(n), p_s=dbm_to_watts(p_s_dbm),
                     p_i=dbm_to_watts(p_i_dbm))
    g, f, h = sample_channels_batch(
        params, [trial_seed(master_seed, t) for t in range(trials)])
    batch = max_asnr_batch(g, f, h, params)
    for t in range(trials):
        ch = ChannelRealization(g=g[t], f=f[t], h=complex(h[t]))
        bf, trace = max_asnr(ch, params)
        assert batch.records[t] == tuple((r.lam, r.rate_bits) for r in trace.records)
        assert batch.converged[t] == trace.converged
        assert np.array_equal(batch.p_normalized[t], bf.p_normalized)
        assert batch.lam[t] == bf.lam
        p = batch.lam[t] * batch.p_normalized[t]
        assert abs(reflected_power(p, ch, params) / params.p_i - 1.0) <= 1e-12


@PROPERTY_SETTINGS
@given(master_seed=st.integers(0, 2**64 - 1), n=st.one_of(st.just(1), st.integers(1, 64)),
       direct=st.lists(st.sampled_from(["drawn", 0j, complex(-0.0, 0.0)]), min_size=1,
                       max_size=5),
       p_s_dbm=st.floats(-20.0, 40.0), p_i_dbm=st.floats(-20.0, 40.0), data=st.data())
def test_egr_srr_and_passive_aligned_batches_equal_the_scalar_reference(
        master_seed, n, direct, p_s_dbm, p_i_dbm, data):
    """Row by row, bit for bit, and so are the public one-row calls; ``srr``
    runs at a drawn k. A row's h may be 0 or -0, on which ``cmath.phase``
    would give pi."""
    params = replace(SystemParams.default(n), p_s=dbm_to_watts(p_s_dbm),
                     p_i=dbm_to_watts(p_i_dbm))
    k = data.draw(st.integers(1, n), label="k")
    g, f, h = sample_channels_batch(
        params, [trial_seed(master_seed, t) for t in range(len(direct))])
    for t, value in enumerate(direct):
        if value != "drawn":
            h[t] = value
    selected = srr_batch(g, f, h, k)
    designs = {
        "egr": (reference.egr, egr, egr_batch(g, f, params)),
        "srr": (lambda ch, params: reference.srr(ch, params, k),
                lambda ch, params: srr(ch, params, k),
                (selected.p_normalized, selected.lam(params))),
        "passive_aligned": (reference.passive_aligned, passive_aligned,
                            passive_aligned_batch(g, f, h)),
    }
    for t in range(len(direct)):
        ch = ChannelRealization(g=g[t], f=f[t], h=complex(h[t]))
        for name, (design, public, (p_norm, lam)) in designs.items():
            expected, bf = design(ch, params), public(ch, params)
            assert p_norm[t].tobytes() == expected.p_normalized.tobytes(), name
            assert lam[t].tobytes() == np.float64(expected.lam).tobytes(), name
            assert bf.p_normalized.tobytes() == expected.p_normalized.tobytes(), name
            assert np.float64(bf.lam).tobytes() == np.float64(expected.lam).tobytes(), name


def _same_bits(got, want):
    return np.float64(got).tobytes() == np.float64(want).tobytes()


@PROPERTY_SETTINGS
@given(master_seed=st.integers(0, 2**64 - 1), n=st.one_of(st.just(1), st.integers(1, 64)),
       direct=st.lists(st.sampled_from(["drawn", 0j, complex(-0.0, 0.0)]), min_size=1,
                       max_size=5),
       p_s_dbm=st.floats(-20.0, 40.0), p_i_dbm=st.floats(-20.0, 40.0),
       exponent=st.integers(-20, 20), zeros=st.floats(0.0, 1.0), data=st.data())
def test_snr_and_reflected_power_equal_the_scalar_reference(
        master_seed, n, direct, p_s_dbm, p_i_dbm, exponent, zeros, data):
    """``rate_batch`` and ``snr`` give the first scalar SNR's bits, and
    ``reflected_power`` and the budget scale the first scalar reflected
    power's. Inputs are ``egr`` and ``srr`` designs (``srr`` at a drawn k,
    zero off its selection), as ``Beamformer`` objects and as bare vectors,
    and raw vectors of magnitude 10^exponent with a share ``zeros`` of
    exactly zero entries; a row's h may be 0 or -0."""
    params = replace(SystemParams.default(n), p_s=dbm_to_watts(p_s_dbm),
                     p_i=dbm_to_watts(p_i_dbm))
    k = data.draw(st.integers(1, n), label="k")
    trials = len(direct)
    g, f, h = sample_channels_batch(
        params, [trial_seed(master_seed, t) for t in range(trials)])
    for t, value in enumerate(direct):
        if value != "drawn":
            h[t] = value
    rng = np.random.default_rng(master_seed)
    raw = 10.0**exponent * (rng.standard_normal((trials, n))
                            + 1j * rng.standard_normal((trials, n)))
    raw[rng.random((trials, n)) < zeros] = 0.0
    selected = srr_batch(g, f, h, k)
    designs = {"egr": egr_batch(g, f, params),
               "srr": (selected.p_normalized, selected.lam(params))}
    for name, (p_norm, lam) in designs.items():
        p = np.multiply(lam[:, None], p_norm)
        rates = rate_batch(p, g, f, h, params), rate_batch(raw, g, f, h, params)
        scales = _budget_scale(p_norm, g, params)
        for t in range(trials):
            ch = ChannelRealization(g=g[t], f=f[t], h=complex(h[t]))
            for vector, batch in zip((p[t], raw[t]), rates):
                assert _same_bits(batch[t], rate(reference.snr(vector, ch, params))), name
            for vector in (p[t], Beamformer(p_norm[t], float(lam[t])), raw[t]):
                assert _same_bits(snr(vector, ch, params),
                                  reference.snr(vector, ch, params)), name
                assert _same_bits(reflected_power(vector, ch, params),
                                  reference.reflected_power(vector, ch, params)), name
            want_scale = np.sqrt(params.p_i / reference.reflected_power(p_norm[t], ch, params))
            assert _same_bits(scales[t], want_scale), name
            assert _same_bits(_budget_scale(p_norm[t], g[t], params), want_scale), name


@PROPERTY_SETTINGS
@given(master_seed=st.integers(0, 2**64 - 1), n=st.integers(1, 4),
       exponent=st.integers(-20, 20))
def test_snr_and_rate_batch_keep_the_libm_steps_of_the_reference(master_seed, n, exponent):
    """256 rows per example, so that the values on which numpy's ``log2``
    and ``x * x`` round differently from libm's ``log2`` and ``pow``
    (about 1 in 1,000) occur."""
    params = SystemParams.default(n)
    g, f, h = sample_channels_batch(params, [trial_seed(master_seed, t) for t in range(256)])
    rng = np.random.default_rng(master_seed)
    p = 10.0**exponent * (rng.standard_normal((256, n)) + 1j * rng.standard_normal((256, n)))
    rates = rate_batch(p, g, f, h, params)
    for t in range(256):
        ch = ChannelRealization(g=g[t], f=f[t], h=complex(h[t]))
        want = reference.snr(p[t], ch, params)
        assert _same_bits(snr(p[t], ch, params), want)
        assert _same_bits(rates[t], rate(want))


# Seeds at both ends of the one- and two-word entropy ranges.
_EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]


def _seed_sequence_seed(master_seed, trial_index, stream):
    """The child seed as numpy's SeedSequence mixes it from a list of
    Python ints: the reference both seeding paths are held to."""
    seq = np.random.SeedSequence([int(master_seed), int(trial_index), int(stream)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


@PROPERTY_SETTINGS
@given(master_seed=st.one_of(st.sampled_from(_EDGE_SEEDS), st.integers(0, 2**64 - 1)),
       stream=st.integers(0, 2), count=st.integers(1, 50), data=st.data())
def test_trial_seeds_equal_trial_seed(master_seed, stream, count, data):
    start = data.draw(st.one_of(st.sampled_from([0, 2**32 - count]),
                                st.integers(0, 2**32 - count)))
    trials = range(start, start + count)
    assert trial_seeds(master_seed, trials, stream) == \
        [_seed_sequence_seed(master_seed, t, stream) for t in trials]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(master_seed=st.one_of(st.sampled_from([0, 1, *_EDGE_SEEDS[1:]]),
                             st.integers(0, 2**64 - 1)),
       trial=st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1)),
       stream=st.integers(0, 2))
def test_trial_seed_equals_seed_sequence_of_python_ints(master_seed, trial, stream):
    assert trial_seed(master_seed, trial, stream) == \
        _seed_sequence_seed(master_seed, trial, stream)


@PROPERTY_SETTINGS
@given(n=st.one_of(st.sampled_from([1, 2, 255, 256]), st.integers(1, 256)),
       exponent=st.integers(-150, 150), zeros=st.floats(0.0, 1.0), stride=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_norm_equals_numpy_norm_bit_for_bit(n, exponent, zeros, stride, seed):
    """Magnitudes from 1e-150 to 1e150, some entries (or all) exactly zero,
    and views that skip ``stride - 1`` of every ``stride`` entries."""
    rng = np.random.default_rng(seed)
    w = 10.0**exponent * (rng.standard_normal(n * stride) + 1j * rng.standard_normal(n * stride))
    w[rng.random(n * stride) < zeros] = 0.0
    for view in (w[::stride], w[::-stride], w.real[::stride] + 0j):
        assert np.float64(_norm(view)).tobytes() == np.linalg.norm(view).tobytes()
    assert _norm(np.zeros(n, dtype=complex)) == 0.0


@PROPERTY_SETTINGS
@given(seeds=st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
                      max_size=8).flatmap(lambda extra: st.permutations(
                          [0, 1, *_EDGE_SEEDS[1:], *extra])),
       n=st.integers(1, 16))
def test_batch_draws_equal_default_rng_for_mixed_seed_words(seeds, n):
    params = SystemParams.default(n)
    g, f, h = sample_channels_batch(params, seeds)
    var_bi, var_iu, var_bu = params.link_variances()
    for t, seed in enumerate(seeds):
        z = np.random.default_rng(seed).standard_normal(4 * n + 2)
        assert np.array_equal(g[t], np.sqrt(var_bi / 2.0) * (z[:n] + 1j * z[n:2 * n]))
        assert np.array_equal(f[t], np.sqrt(var_iu / 2.0) * (z[2 * n:3 * n] + 1j * z[3 * n:4 * n]))
        assert h[t] == np.sqrt(var_bu / 2.0) * (z[4 * n] + 1j * z[4 * n + 1])


@PROPERTY_SETTINGS
@given(master_seed=st.integers(0, 2**64 - 1), n=st.integers(1, 64), data=st.data(),
       p_s_dbm=st.floats(-20.0, 40.0), p_i_dbm=st.floats(-20.0, 40.0))
def test_every_budget_constrained_design_spends_the_whole_budget(master_seed, n, data,
                                                                  p_s_dbm, p_i_dbm):
    params = replace(SystemParams.default(n), p_s=dbm_to_watts(p_s_dbm),
                     p_i=dbm_to_watts(p_i_dbm))
    ch = sample_channels(params, trial_seed(master_seed, 0))
    k = data.draw(st.integers(1, n), label="k")
    designs = {
        "egr": egr(ch, params),
        "mrr": mrr(ch, params),
        f"srr k={k}": srr(ch, params, k),
        "random_phase": random_phase(ch, params, trial_seed(master_seed, 0, stream=1)),
        "max_asnr": max_asnr(ch, params)[0],
    }
    for name, bf in designs.items():
        assert abs(reflected_power(bf, ch, params) / params.p_i - 1.0) <= 1e-12, name
    # The passive baseline has no budget: every coefficient has unit modulus.
    assert np.max(np.abs(np.abs(passive_aligned(ch, params).p) - 1.0)) <= 1e-12


@PROPERTY_SETTINGS
@given(master_seed=st.integers(0, 2**64 - 1),
       n=st.one_of(st.sampled_from([1, 2, 255, 256]), st.integers(1, 256)),
       p_s_dbm=st.floats(-20.0, 40.0), p_i_dbm=st.floats(-20.0, 40.0),
       no_direct_path=st.booleans())
def test_mrr_is_srr_at_full_selection_bit_for_bit(master_seed, n, p_s_dbm, p_i_dbm,
                                                  no_direct_path):
    params = replace(SystemParams.default(n), p_s=dbm_to_watts(p_s_dbm),
                     p_i=dbm_to_watts(p_i_dbm))
    ch = sample_channels(params, trial_seed(master_seed, 0))
    if no_direct_path:
        ch = replace(ch, h=0j)
    # mrr is a one-row srr_batch call, so the scalar body it was first
    # written as is the reference it is held to.
    full, selected = mrr(ch, params), reference.srr(ch, params, n)
    assert full.p_normalized.tobytes() == selected.p_normalized.tobytes()
    assert np.float64(full.lam).tobytes() == np.float64(selected.lam).tobytes()


@PROPERTY_SETTINGS
@given(master_seed=st.integers(0, 2**64 - 1), n=st.one_of(st.just(1), st.integers(1, 64)),
       lam_exponent=st.floats(-2.0, 10.0),
       direct=st.sampled_from(["drawn", 0j, complex(-0.0, 0.0)]))
def test_asnr_direction_equals_the_scalar_reference(master_seed, n, lam_exponent, direct):
    """``asnr_direction`` is a one-row call of the whitened matched step.
    At the default noise floors and path losses, the two whitener terms
    sigma_I^2 |f|^2 and sigma_u^2 / lam^2 cross near lam = 5e3, so the
    drawn scales put either term in charge by several decades."""
    params = SystemParams.default(n)
    ch = sample_channels(params, trial_seed(master_seed, 0))
    if direct != "drawn":
        ch = replace(ch, h=direct)
    lam = 10.0**lam_exponent
    got, want = asnr_direction(ch, params, lam), reference.asnr_direction(ch, params, lam)
    assert got.tobytes() == want.tobytes()


@PROPERTY_SETTINGS
@given(master_seed=st.integers(0, 2**64 - 1), n=st.integers(1, 64),
       p_s_dbm=st.floats(-20.0, 40.0), p_i_dbm=st.floats(-20.0, 40.0),
       no_direct_path=st.booleans())
def test_aligned_designs_add_in_phase_with_the_direct_path(master_seed, n, p_s_dbm,
                                                           p_i_dbm, no_direct_path):
    """The reflected sum r = f^H G p of ``mrr``, ``srr`` at every k, aligned
    ``max_asnr`` and ``passive_aligned`` is in phase with h*: h r is real and
    nonnegative up to rounding. So flipping the sign never helps, and
    without a direct path the sign does not matter."""
    params = replace(SystemParams.default(n), p_s=dbm_to_watts(p_s_dbm),
                     p_i=dbm_to_watts(p_i_dbm))
    ch = sample_channels(params, trial_seed(master_seed, 0))
    if no_direct_path:
        ch = replace(ch, h=0j)
    designs = {
        "mrr": mrr(ch, params),
        **{f"srr k={k}": srr(ch, params, k) for k in range(1, n + 1)},
        "max_asnr": max_asnr(ch, params)[0],
        "passive_aligned": passive_aligned(ch, params),
    }
    for name, bf in designs.items():
        r = complex(np.sum(np.conj(ch.f) * ch.g * bf.p))
        x = ch.h * r
        assert x.real >= 0.0, name
        assert abs(x.imag) <= 1e-12 * abs(ch.h) * abs(r), name
        verdict = sign_adjudicate(bf.p, ch, params)
        assert verdict is not Adjudication.LITERAL_BETTER, name
        if no_direct_path:
            assert verdict is Adjudication.TIE, name


@PROPERTY_SETTINGS
@given(master_seed=st.integers(0, 2**64 - 1), n=st.integers(1, 2),
       phase_steps=st.integers(8, 48), amplitude_steps=st.integers(4, 20),
       p_s_dbm=st.floats(-150.0, 40.0), p_i_dbm=st.floats(-150.0, 40.0),
       no_direct_path=st.booleans(), zero_second_product=st.booleans())
@example(master_seed=0, n=2, phase_steps=16, amplitude_steps=8, p_s_dbm=-140.0,
         p_i_dbm=-140.0, no_direct_path=False, zero_second_product=False)
def test_grid_search_equals_the_reference_bit_for_bit(master_seed, n, phase_steps,
                                                      amplitude_steps, p_s_dbm, p_i_dbm,
                                                      no_direct_path, zero_second_product):
    """The screened grid returns the reference's bits. The CSVs keep 12
    significant digits, so their digests cannot see a last-bit change. At
    N = 2 only the screen's kept phase rows reach ``q @ c``, so this also
    holds BLAS to rounding each row alike whatever the number of rows. At
    powers down to -150 dBm (the example at -140 dBm) the SNR is tiny and
    rates tie across rows whose SNRs differ, which the screen's
    (1 + best) band must keep."""
    params = replace(SystemParams.default(n), p_s=dbm_to_watts(p_s_dbm),
                     p_i=dbm_to_watts(p_i_dbm))
    ch = sample_channels(params, trial_seed(master_seed, 0))
    if no_direct_path:
        ch = replace(ch, h=0j)
    if zero_second_product and n == 2:
        # Every phase row then ties, and the N = 2 screen must keep them all.
        ch = replace(ch, g=np.array([ch.g[0], 0j]))
    got = grid_search_best(ch, params, phase_steps, amplitude_steps)
    want = grid_search_best_reference(ch, params, phase_steps, amplitude_steps)
    assert got.best_rate_bits == want.best_rate_bits
    assert got.best_direction.tobytes() == want.best_direction.tobytes()
    assert got.grid_points_evaluated == want.grid_points_evaluated


_RUNNERS = {"single": run_rate_vs_n, "convergence": run_convergence,
            "oracle-check": run_oracle_check, "srr-sweep": run_srr_sweep}
_LEVELS = st.one_of(st.floats(-3100.0, 3300.0), st.floats(-400.0, 400.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(levels=st.fixed_dictionaries({}, optional={
           key: _LEVELS for key in ("p_s_dbm", "p_i_dbm", "sigma_i_sq_dbm", "sigma_u_sq_dbm")}),
       ref_loss_db=st.floats(-1450.0, 1040.0), n=st.sampled_from([1, 2, 4, 64]),
       scenario=st.sampled_from(sorted(_RUNNERS)))
def test_accepted_power_levels_run_to_finite_outputs(levels, ref_loss_db, n, scenario):
    """A config whose power levels and noise floors pass parse_config runs
    every design on its draws without an error, a warning or a non-finite
    value in its rows, however far the levels sit from the reference. Every
    rate column is nonnegative: a validated ``SystemParams`` keeps the SNR
    denominator at least sigma_u^2 > 0, so no SNR is negative (only
    ``gap_bits``, a difference of rates, may be)."""
    doc = {**levels, "ref_loss_db": ref_loss_db, "trials": 2,
           "n_values": [min(n, 2) if scenario == "oracle-check" else n]}
    if scenario == "srr-sweep":
        doc["p_s_dbm_values"] = [doc.pop("p_s_dbm", 15.0)]
    try:
        cfg = parse_config(json.dumps(doc), scenario=scenario)
    except ConfigError:
        return
    result = _RUNNERS[scenario](cfg)
    rows = rows_of(result.table)
    assert np.isfinite([v for row in rows for v in row if isinstance(v, float)]).all()
    rate_columns = [i for i, name in enumerate(result.header) if name.endswith("rate_bits")]
    assert rate_columns
    assert all(row[i] >= 0.0 for row in rows for i in rate_columns)


# Arbitrary JSON values: null, bools, strings, small and 401-digit integers,
# and floats with NaN, +-inf and +-1e308, which json.dumps writes as the
# NaN / Infinity literals that json.loads reads back.
_EXTREMES = st.sampled_from([10**400, -(10**400), 2**64, 4000, -4000, 1e308, -1e308, 1e300])
_SCALARS = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(),
                     st.floats(), _EXTREMES)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3))
# Well-typed values, so that documents also get past the readers to the
# range checks and the SystemParams / SolverOptions invariants.
_NUMBERS = st.one_of(st.integers(-5, 70), st.floats(-400.0, 400.0), _EXTREMES)
_POINTS = st.lists(_NUMBERS, min_size=2, max_size=2)
_COUNTS = st.lists(st.integers(-1, 70), min_size=1, max_size=3)
_TYPED = {
    "scenario": st.sampled_from([s.value for s in Scenario]),
    "output_path": st.just("out.csv"),
    "n_values": _COUNTS, "k_values": _COUNTS,
    "p_s_dbm_values": st.lists(_NUMBERS, min_size=1, max_size=3),
    "pos_bs": _POINTS, "pos_irs": _POINTS, "pos_user": _POINTS,
}
_DOCS = st.lists(st.sampled_from(sorted(_ALLOWED_KEYS)), max_size=6, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: st.one_of(_TYPED.get(key, _NUMBERS), _VALUES) for key in keys}))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(doc=_DOCS, scenario=st.sampled_from([None] + [s.value for s in Scenario]))
def test_config_fuzz_accepts_or_names_a_key(doc, scenario):
    """parse_config returns a config whose every sweep cell has valid
    parameters, or raises ConfigError led by a key the document (or the
    scenario argument) sets; never any other exception. Nothing is run."""
    try:
        cfg = parse_config(json.dumps(doc), scenario=scenario)
    except ConfigError as err:
        keys = set(doc) | ({"scenario"} if scenario else set())
        assert str(err).split(":")[0] in keys, str(err)
        return
    assert isinstance(cfg, ExperimentConfig)
    for n in cfg.n_values:
        for p_s_dbm in cfg.p_s_dbm_values:
            cfg.params_for(n, p_s_dbm)
