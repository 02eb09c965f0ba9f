import json

import numpy as np
import pytest

from irsbeam import (ConfigError, Scenario, SolverOptions, SystemParams,
                     dbm_to_watts, parse_config)
from irsbeam import config


class TestDefaults:
    def test_empty_document_gives_reference_scenario(self):
        cfg = parse_config("")
        assert cfg.scenario is Scenario.SINGLE
        assert cfg.trials == 1000
        assert cfg.n_values == (64,)
        assert cfg.params.p_s == pytest.approx(dbm_to_watts(15.0))
        assert cfg.params.p_i == pytest.approx(dbm_to_watts(30.0))
        assert cfg.params.sigma_i_sq == pytest.approx(1e-10)
        assert cfg.params.sigma_u_sq == pytest.approx(1e-10)
        assert cfg.params.pos_bs == (0.0, 0.0)
        assert cfg.params.pos_irs == (100.0, 30.0)
        assert cfg.params.pos_user == (150.0, 0.0)
        assert (cfg.params.alpha_bi, cfg.params.alpha_iu, cfg.params.alpha_bu) == (2.3, 2.3, 3.8)
        assert cfg.params.ref_loss_db == -30.0
        assert cfg.solver.tolerance == 1e-4
        assert cfg.solver.max_iterations == 50
        assert cfg.params == SystemParams.default(64)
        assert cfg.solver == SolverOptions()

    def test_empty_json_object_equivalent(self):
        assert parse_config("{}") == parse_config("")

    def test_scenario_specific_grids(self):
        assert parse_config("", scenario="rate-vs-n").n_values == (16, 32, 64, 128, 256)
        assert parse_config("", scenario="srr-sweep").k_values == (4, 8, 16, 32, 64)
        assert parse_config("", scenario="oracle-check").n_values == (1, 2)
        assert parse_config("", scenario="convergence").n_values == (64,)

    def test_output_path_defaults_to_the_scenario_csv(self):
        assert parse_config("").output_path == "single.csv"
        assert parse_config("", scenario="rate-vs-n").output_path == "rate-vs-n.csv"

    def test_srr_sweep_default_k_adapts_to_small_n(self):
        cfg = parse_config('{"n_values": [8]}', scenario="srr-sweep")
        assert cfg.k_values == (4, 8)
        cfg = parse_config('{"n_values": [3]}', scenario="srr-sweep")
        assert cfg.k_values == (3,)


class TestValidation:
    def test_zero_trials_names_key(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config('{"trials": 0}')

    def test_oversized_k_names_key(self):
        doc = json.dumps({"scenario": "srr-sweep", "n_values": [64], "k_values": [128]})
        with pytest.raises(ConfigError, match="k_values"):
            parse_config(doc)

    def test_trials_bound_is_parsed_not_run(self):
        assert parse_config(json.dumps({"trials": 2**32})).trials == 2**32
        for doc, overrides in ((json.dumps({"trials": 2**32 + 1}), None),
                               (json.dumps({"trials": 10**30}), None),
                               ("{}", {"trials": 2**32 + 1})):
            with pytest.raises(ConfigError, match=r"^trials: must be in \[1, 4294967296\]"):
                parse_config(doc, overrides=overrides)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config('{"num_trials": 10}')

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config('{"trials": "many"}')
        with pytest.raises(ConfigError, match="pos_bs"):
            parse_config('{"pos_bs": [1.0]}')
        with pytest.raises(ConfigError, match="n_values"):
            parse_config('{"n_values": []}')

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")
        for doc in ("[]", "3", "null"):
            with pytest.raises(ConfigError, match="^config document must be a JSON object$"):
                parse_config(doc)

    def test_repeated_key_names_key(self):
        with pytest.raises(ConfigError, match="^trials: repeated"):
            parse_config('{"trials": 10, "trials": 20}')

    @pytest.mark.parametrize("scenario, doc, key", [
        ("rate-vs-n", {"n_values": [4, 8, 4]}, "n_values"),
        ("oracle-check", {"n_values": [1, 1]}, "n_values"),
        ("srr-sweep", {"n_values": [8], "k_values": [4, 4]}, "k_values"),
        ("srr-sweep", {"n_values": [8], "p_s_dbm_values": [0, 5, 0]}, "p_s_dbm_values"),
        ("srr-sweep", {"n_values": [8], "p_s_dbm_values": [0, 0.0]}, "p_s_dbm_values"),
        ("srr-sweep", {"n_values": [8], "p_s_dbm_values": [-0.0, 0]}, "p_s_dbm_values"),
    ])
    def test_repeated_grid_entry_names_key(self, scenario, doc, key):
        # A repeated entry would repeat its rows in the output; P_S levels
        # compare as floats, so 0 and 0.0 are one level.
        with pytest.raises(ConfigError, match=f"^{key}: entries must be distinct"):
            parse_config(json.dumps(doc), scenario=scenario)

    def test_invalid_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config('{"scenario": "warp-speed"}')

    def test_params_invariants_surface_as_config_errors(self):
        with pytest.raises(ConfigError, match="alpha_bi"):
            parse_config('{"alpha_bi": 1.0}')
        with pytest.raises(ConfigError, match="coincident"):
            parse_config('{"pos_bs": [0, 0], "pos_irs": [0, 0]}')

    @pytest.mark.parametrize("scenario, key, value", [
        ("rate-vs-n", "k_values", [999]),
        ("convergence", "k_values", [4]),
        ("rate-vs-n", "p_s_dbm_values", [15.0]),
        ("convergence", "p_s_dbm_values", [15.0]),
        ("single", "p_s_dbm_values", [15.0]),
        ("oracle-check", "p_s_dbm_values", [15.0]),
        ("single", "k_values", [3]),
        ("oracle-check", "k_values", [1]),
        ("rate-vs-n", "k_values", None),
        ("single", "p_s_dbm_values", None),
        ("srr-sweep", "p_s_dbm", 40),
        ("srr-sweep", "tolerance", 0.5),
        ("srr-sweep", "max_iterations", 1),
        ("srr-sweep", "p_s_dbm", None),
    ])
    def test_key_the_scenario_ignores_names_key(self, scenario, key, value):
        with pytest.raises(ConfigError, match=f"{key}: not used by the {scenario} scenario"):
            parse_config(json.dumps({key: value}), scenario=scenario)

    @pytest.mark.parametrize("key", sorted(config._ALLOWED_KEYS))
    def test_null_is_rejected_naming_key(self, key):
        # In a scenario that reads the key, so each null meets its key's reader.
        scenario = next(s for s in Scenario if key not in config._UNUSED_KEYS[s])
        doc = json.dumps({"scenario": scenario.value, key: None})
        with pytest.raises(ConfigError, match=f"^{key}: expected "):
            parse_config(doc)

    def test_srr_sweep_runs_one_element_count(self):
        with pytest.raises(ConfigError, match=r"^n_values: srr-sweep runs one element count"):
            parse_config('{"n_values": [8, 64]}', scenario="srr-sweep")
        with pytest.raises(ConfigError, match=r"^k_values: entries must be in \[1, 8\]"):
            parse_config('{"n_values": [8], "k_values": [16]}', scenario="srr-sweep")

    @pytest.mark.parametrize("doc, key", [
        ({"p_s_dbm": 4000}, "p_s_dbm"),
        ({"sigma_u_sq_dbm": -4000}, "sigma_u_sq_dbm"),
        ({"p_i_dbm": 10**400}, "p_i_dbm"),
        ({"ref_loss_db": 10**400}, "ref_loss_db"),
        ({"pos_user": [0, -10**400]}, "pos_user"),
        ({"ref_loss_db": 4000}, "ref_loss_db"),
        ({"alpha_bu": 1e6}, "alpha_bu"),
        ({"pos_irs": [1e300, 0]}, "pos_irs"),
        ({"pos_bs": [0, 0], "pos_irs": [0, 0]}, "pos_bs"),
        ({"tolerance": 0}, "tolerance"),
        # A (256 * 64)^2-candidate grid, and a draw row larger than numpy's largest array.
        ({"scenario": "oracle-check", "n_values": [3]}, "n_values"),
        ({"n_values": [10**30]}, "n_values"),
    ])
    def test_out_of_range_number_names_key(self, doc, key):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            parse_config(json.dumps(doc))

    def test_link_scale_bound_is_taken_at_the_largest_n(self):
        doc = {"ref_loss_db": 1030, "n_values": [4, 256]}
        assert parse_config(json.dumps(doc)).n_values == (4, 256)
        with pytest.raises(ConfigError, match=r"^ref_loss_db: .* overflow a float at "
                                              r"N = 1000000 "):
            parse_config(json.dumps({**doc, "n_values": [4, 10**6]}))

    def test_power_bound_names_the_key_that_sets_the_power(self):
        # srr-sweep takes P_S from its grid, so every level meets the bound.
        with pytest.raises(ConfigError, match=r"^p_s_dbm_values: .*, p_s = 1e\+297 W"):
            parse_config('{"ref_loss_db": 500, "p_s_dbm_values": [15, 3000]}',
                         scenario="srr-sweep")
        cfg = parse_config('{"p_s_dbm_values": [0, 30]}', scenario="srr-sweep")
        assert cfg.params.p_s == dbm_to_watts(0.0)

    @pytest.mark.parametrize("doc", [
        {"sigma_u_sq_dbm": 3000},
        # The bound's message lists p_s too, which is in range on its own.
        {"p_s_dbm": 20, "sigma_u_sq_dbm": 3000},
        {"p_i_dbm": 20, "p_s_dbm": 20, "sigma_u_sq_dbm": 3000},
    ])
    def test_power_bound_leads_with_the_power_out_of_range(self, doc):
        with pytest.raises(ConfigError, match=r"^sigma_u_sq_dbm: .*, p_s = .* W, .*"
                                              r"sigma_u_sq = 1e\+297 W make "):
            parse_config(json.dumps(doc))

    def test_oracle_check_limits_n(self):
        with pytest.raises(ConfigError, match="n_values"):
            parse_config('{"n_values": [8]}', scenario="oracle-check")
        grid = r"^n_values: oracle-check's 256 x 64 grid holds n <= 2; n = 3 would need "
        with pytest.raises(ConfigError, match=grid + r"\(256 \* 64\)\^2 candidates$"):
            parse_config('{"n_values": [3]}', scenario="oracle-check")
        assert parse_config('{"n_values": [2]}', scenario="oracle-check").n_values == (2,)

    def test_largest_element_count_fits_one_numpy_draw_row(self):
        largest = config._MAX_ELEMENTS
        assert 8 * (4 * largest + 2) <= np.iinfo(np.intp).max < 8 * (4 * largest + 6)
        assert parse_config(json.dumps({"n_values": [largest]})).n_values == (largest,)
        with pytest.raises(ConfigError, match=r"^n_values: entries must be in \[1, "):
            parse_config(json.dumps({"n_values": [largest + 1]}))


class TestOverrides:
    def test_cli_overrides_beat_document(self):
        cfg = parse_config('{"trials": 10, "master_seed": 1}',
                           overrides={"trials": 20, "master_seed": None})
        assert cfg.trials == 20
        assert cfg.master_seed == 1

    def test_scenario_argument_beats_document(self):
        cfg = parse_config('{"scenario": "single"}', scenario="convergence")
        assert cfg.scenario is Scenario.CONVERGENCE


class TestParamsFor:
    def test_element_count_and_power_substitution(self):
        cfg = parse_config("")
        params = cfg.params_for(128, p_s_dbm=20.0)
        assert params.n_elements == 128
        assert params.p_s == pytest.approx(dbm_to_watts(20.0))
        assert cfg.params.n_elements == 64  # original untouched
