import ast
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

from irsbeam import (
    Adjudication,
    ChannelRealization,
    Method,
    SolverOptions,
    SystemParams,
    grid_search_best,
    max_asnr,
    metrics,
    mrr,
    oracle,
    sample_channels,
    sign_adjudicate,
    trial_seed,
)

import reference
from conftest import make_params
from grid_reference import grid_search_best_reference


def method_rates(ch, params, k):
    out = {}
    for method in Method:
        bf = reference.design(method, ch, params, k if method is Method.SRR else None,
                              SolverOptions(), 11)
        out[method.value] = metrics.rate(metrics.snr(bf, ch, params))
    return out


class TestGridSearch:
    def test_single_element_matches_mrr(self):
        params = SystemParams.default(1)
        for t in range(10):
            ch = sample_channels(params, trial_seed(31, t))
            best = grid_search_best(ch, params, 256, 64)
            mrr_rate = metrics.rate(metrics.snr(mrr(ch, params), ch, params))
            assert best.best_rate_bits == pytest.approx(mrr_rate, abs=1e-9)

    def test_two_element_bound_brackets_all_methods(self):
        params = SystemParams.default(2)
        for t in range(5):
            ch = sample_channels(params, trial_seed(32, t))
            best = grid_search_best(ch, params, 256, 64)
            rates = method_rates(ch, params, k=1)
            assert best.best_rate_bits >= max(rates.values()) - 0.02
            assert all(r <= best.best_rate_bits + 0.02 for r in rates.values())

    def test_refinement_is_monotone(self):
        params = SystemParams.default(2)
        ch = sample_channels(params, trial_seed(33, 0))
        coarse = grid_search_best(ch, params, 16, 8)
        fine = grid_search_best(ch, params, 32, 16)
        assert fine.best_rate_bits >= coarse.best_rate_bits

    def test_grid_point_counts(self):
        params = SystemParams.default(2)
        ch = sample_channels(params, trial_seed(35, 0))
        result = grid_search_best(ch, params, 16, 8)
        assert result.grid_points_evaluated == 16 * 8
        one = grid_search_best(sample_channels(SystemParams.default(1), 3),
                               SystemParams.default(1), 16, 8)
        assert one.grid_points_evaluated == 1

    def test_best_direction_unit_norm(self):
        params = SystemParams.default(2)
        ch = sample_channels(params, trial_seed(36, 0))
        best = grid_search_best(ch, params, 16, 8)
        assert abs(np.linalg.norm(best.best_direction) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_check_grid_equals_the_reference_bit_for_bit(self, n):
        # oracle-check's own grid, on draws of its default master seed.
        params = SystemParams.default(n)
        for t in range(6):
            ch = sample_channels(params, trial_seed(12345, t))
            if t == 4:
                ch = replace(ch, h=0j)
            if t == 5:
                # The last element's product is zero: at N = 2 every phase row ties.
                ch = replace(ch, g=np.concatenate([ch.g[:-1], [0j]]))
            got = grid_search_best(ch, params, 256, 64)
            want = grid_search_best_reference(ch, params, 256, 64)
            assert got.best_rate_bits == want.best_rate_bits
            assert got.best_direction.tobytes() == want.best_direction.tobytes()
            assert got.grid_points_evaluated == want.grid_points_evaluated == (256 * 64) ** (n - 1)

    def test_guards(self):
        for n in (3, 4):
            params = SystemParams.default(n)
            with pytest.raises(ValueError, match=f"at most 2 elements, got {n}"):
                grid_search_best(sample_channels(params, 1), params, 16, 8)
        params2 = SystemParams.default(2)
        ch = sample_channels(params2, 1)
        with pytest.raises(ValueError):
            grid_search_best(ch, params2, 4, 8)
        with pytest.raises(ValueError):
            grid_search_best(ch, params2, 16, 2)


def aligned_design(ch, params):
    return max_asnr(ch, params)[0].p


class TestSignAdjudication:
    def test_no_direct_path_is_a_tie(self):
        params = make_params(n_elements=2)
        ch = ChannelRealization(g=np.array([1.0, 0.5j]), f=np.array([0.3, 1.0j]), h=0.0)
        assert sign_adjudicate(aligned_design(ch, params), ch, params) is Adjudication.TIE

    def test_strong_direct_path_prefers_aligned(self):
        # short BS-user hop with free-space decay makes the direct path
        # comparable to the reflected one
        params = replace(SystemParams.default(2), pos_user=(10.0, 0.0), alpha_bu=2.0)
        outcomes = []
        for t in range(100):
            ch = sample_channels(params, trial_seed(8, t))
            outcomes.append(sign_adjudicate(aligned_design(ch, params), ch, params))
        aligned = sum(o is Adjudication.ALIGNED_BETTER for o in outcomes)
        assert aligned >= 95

    def test_reference_geometry_never_prefers_the_literal_sign(self):
        # The aligned design's reflected sum adds in phase with the direct
        # path, so its negation never has the higher rate.
        params = SystemParams.default(2)
        for t in range(100):
            ch = sample_channels(params, trial_seed(9, t))
            verdict = sign_adjudicate(aligned_design(ch, params), ch, params)
            assert verdict is not Adjudication.LITERAL_BETTER, t

    def test_negated_design_reverses_the_verdict(self):
        params = replace(SystemParams.default(2), pos_user=(10.0, 0.0), alpha_bu=2.0)
        ch = sample_channels(params, trial_seed(8, 0))
        p = aligned_design(ch, params)
        assert sign_adjudicate(p, ch, params) is Adjudication.ALIGNED_BETTER
        assert sign_adjudicate(-p, ch, params) is Adjudication.LITERAL_BETTER


def test_oracle_imports_nothing_from_beamforming():
    # The verdict reads a design it is given; it runs no solver of its own.
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("beamforming" in name for name in imported), imported
