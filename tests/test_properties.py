"""Property tests over random seeds, sizes and powers (hypothesis)."""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from irsbeam import (  # noqa: E402
    ChannelRealization,
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
