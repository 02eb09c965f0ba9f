"""Property tests over random seeds, sizes and powers (hypothesis)."""

from dataclasses import replace

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from irsbeam import (  # noqa: E402
    ChannelRealization,
    ConfigError,
    ExperimentConfig,
    Scenario,
    SignMode,
    SolverOptions,
    SystemParams,
    dbm_to_watts,
    max_asnr,
    max_asnr_batch,
    reflected_power,
    sample_channels_batch,
    trial_seed,
)
from irsbeam.config import _ALLOWED_KEYS, parse_config  # noqa: E402

# Derandomized, and no example database, so every run checks the same cases
# and leaves no files behind.
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(master_seed=st.integers(0, 2**64 - 1), n=st.integers(1, 64),
       trials=st.integers(1, 5), p_s_dbm=st.floats(-20.0, 40.0),
       p_i_dbm=st.floats(-20.0, 40.0), sign_mode=st.sampled_from(list(SignMode)))
def test_max_asnr_batch_equals_scalar_and_meets_budget(master_seed, n, trials, p_s_dbm,
                                                      p_i_dbm, sign_mode):
    params = replace(SystemParams.default(n), p_s=dbm_to_watts(p_s_dbm),
                     p_i=dbm_to_watts(p_i_dbm))
    opts = SolverOptions(sign_mode=sign_mode)
    g, f, h = sample_channels_batch(
        params, [trial_seed(master_seed, t) for t in range(trials)])
    batch = max_asnr_batch(g, f, h, params, opts)
    for t in range(trials):
        ch = ChannelRealization(g=g[t], f=f[t], h=complex(h[t]))
        bf, trace = max_asnr(ch, params, opts)
        assert batch.records[t] == tuple((r.lam, r.rate_bits) for r in trace.records)
        assert batch.converged[t] == trace.converged
        assert np.array_equal(batch.p_normalized[t], bf.p_normalized)
        assert batch.lam[t] == bf.lam
        p = batch.lam[t] * batch.p_normalized[t]
        assert abs(reflected_power(p, ch, params) / params.p_i - 1.0) <= 1e-12


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
    "sign_mode": st.sampled_from([m.value for m in SignMode]),
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
