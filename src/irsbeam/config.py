"""Experiment configuration: a flat JSON document plus CLI overrides.

Every key is optional; an empty document yields the full default
scenario (the reference geometry with P_S = 15 dBm, P_I = 30 dBm and
-70 dBm noise floors). Power levels are given in dBm (keys suffixed
``_dbm``), positions in meters.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace

from .beamforming import SignMode, SolverOptions
from .system import SystemParams, dbm_to_watts

__all__ = ["Scenario", "ConfigError", "ExperimentConfig", "parse_config"]


class Scenario(str, enum.Enum):
    CONVERGENCE = "convergence"
    SRR_SWEEP = "srr-sweep"
    RATE_VS_N = "rate-vs-n"
    SINGLE = "single"
    ORACLE_CHECK = "oracle-check"


class ConfigError(ValueError):
    """Invalid configuration document or option value."""


_ALLOWED_KEYS = {
    "scenario",
    "n_values",
    "k_values",
    "trials",
    "master_seed",
    "p_s_dbm",
    "p_i_dbm",
    "sigma_i_sq_dbm",
    "sigma_u_sq_dbm",
    "pos_bs",
    "pos_irs",
    "pos_user",
    "alpha_bi",
    "alpha_iu",
    "alpha_bu",
    "ref_loss_db",
    "tolerance",
    "max_iterations",
    "sign_mode",
    "output_path",
    "p_s_dbm_values",
}

# Keys a scenario has no use for; setting one is an error, not a no-op.
_UNUSED_KEYS = {
    Scenario.CONVERGENCE: ("k_values", "p_s_dbm_values"),
    Scenario.SRR_SWEEP: (),
    Scenario.RATE_VS_N: ("k_values", "p_s_dbm_values"),
    Scenario.SINGLE: ("k_values", "p_s_dbm_values"),
    Scenario.ORACLE_CHECK: ("k_values", "p_s_dbm_values"),
}

_DEFAULT_N_VALUES = {
    Scenario.CONVERGENCE: (64,),
    Scenario.SRR_SWEEP: (64,),
    Scenario.RATE_VS_N: (16, 32, 64, 128, 256),
    Scenario.SINGLE: (64,),
    Scenario.ORACLE_CHECK: (1, 2),
}

def _default_k_grid(n_min: int) -> tuple[int, ...]:
    """Powers of two from 4 up to the smallest element count, which is
    always included: (4, 8, ..., n_min). (4..64 for the default N = 64.)"""
    ks = []
    k = 4
    while k < n_min:
        ks.append(k)
        k *= 2
    ks.append(n_min)
    return tuple(ks)

DEFAULT_TRIALS = 1000
DEFAULT_MASTER_SEED = 12345
DEFAULT_P_S_DBM_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-validated experiment description."""

    scenario: Scenario
    n_values: tuple[int, ...]
    k_values: tuple[int, ...]       # srr-sweep only; () elsewhere
    trials: int
    master_seed: int
    params: SystemParams            # n_elements set to n_values[0]
    solver: SolverOptions
    output_path: str | None
    p_s_dbm_values: tuple[float, ...]

    def params_for(self, n_elements: int, p_s_dbm: float | None = None) -> SystemParams:
        """Scenario parameters for one sweep cell."""
        params = replace(self.params, n_elements=n_elements)
        if p_s_dbm is not None:
            params = replace(params, p_s=dbm_to_watts(p_s_dbm))
        return params


def _require(condition: bool, key: str, constraint: str) -> None:
    if not condition:
        raise ConfigError(f"{key}: {constraint}")


def _get_int(doc: dict, key: str, default: int) -> int:
    value = doc.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool), key,
             f"expected an integer, got {value!r}")
    return value


def _is_number(value) -> bool:
    # json.loads accepts NaN and Infinity; no key takes a non-finite value.
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _get_number(doc: dict, key: str, default: float) -> float:
    value = doc.get(key, default)
    _require(_is_number(value), key, f"expected a finite number, got {value!r}")
    return float(value)


def _get_int_list(doc: dict, key: str, default: tuple[int, ...]) -> tuple[int, ...]:
    value = doc.get(key)
    if value is None:
        return default
    ok = isinstance(value, list) and value and all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    )
    _require(ok, key, f"expected a non-empty list of integers, got {value!r}")
    return tuple(value)


def _get_number_list(doc: dict, key: str, default: tuple[float, ...]) -> tuple[float, ...]:
    value = doc.get(key)
    if value is None:
        return default
    ok = isinstance(value, list) and value and all(_is_number(v) for v in value)
    _require(ok, key, f"expected a non-empty list of finite numbers, got {value!r}")
    return tuple(float(v) for v in value)


def _get_position(doc: dict, key: str, default: tuple[float, float]) -> tuple[float, float]:
    value = doc.get(key)
    if value is None:
        return default
    ok = isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value)
    _require(ok, key, f"expected finite [x, y] in meters, got {value!r}")
    return (float(value[0]), float(value[1]))


def parse_config(text: str, scenario: str | Scenario | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    """Parse a JSON config document into a validated ExperimentConfig.

    ``scenario`` (usually the CLI subcommand) takes precedence over the
    document's scenario key; ``overrides`` are CLI flag values applied on
    top of the document (None entries are ignored). Raises ConfigError
    naming the offending key on any violation.
    """
    if text.strip() == "":
        doc: dict = {}
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON config: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(set(doc) - _ALLOWED_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

    merged = dict(doc)
    for key, value in (overrides or {}).items():
        if value is not None:
            _require(key in _ALLOWED_KEYS, key, "unknown override key")
            merged[key] = value
    if scenario is not None:
        merged["scenario"] = scenario.value if isinstance(scenario, Scenario) else scenario

    raw_scenario = merged.get("scenario", Scenario.SINGLE.value)
    try:
        scen = Scenario(raw_scenario)
    except ValueError:
        allowed = ", ".join(s.value for s in Scenario)
        raise ConfigError(f"scenario: expected one of {allowed}, got {raw_scenario!r}")
    for key in _UNUSED_KEYS[scen]:
        _require(merged.get(key) is None, key, f"not used by the {scen.value} scenario")

    n_values = _get_int_list(merged, "n_values", _DEFAULT_N_VALUES[scen])

    trials = _get_int(merged, "trials", DEFAULT_TRIALS)
    _require(trials >= 1, "trials", f"must be >= 1, got {trials}")

    master_seed = _get_int(merged, "master_seed", DEFAULT_MASTER_SEED)
    _require(0 <= master_seed < 2**64, "master_seed",
             f"must be a 64-bit unsigned integer, got {master_seed}")

    for n in n_values:
        _require(n >= 1, "n_values", f"entries must be >= 1, got {n}")
    if scen is Scenario.ORACLE_CHECK:
        for n in n_values:
            _require(n <= 3, "n_values", f"oracle-check supports n <= 3, got {n}")
    k_values: tuple[int, ...] = ()
    if scen is Scenario.SRR_SWEEP:
        n_min = min(n_values)
        k_values = _get_int_list(merged, "k_values", _default_k_grid(n_min))
        for k in k_values:
            _require(1 <= k <= n_min, "k_values",
                     f"entries must be in [1, {n_min}] (the smallest element count), got {k}")

    try:
        params = SystemParams(
            n_elements=n_values[0],
            p_s=dbm_to_watts(_get_number(merged, "p_s_dbm", 15.0)),
            p_i=dbm_to_watts(_get_number(merged, "p_i_dbm", 30.0)),
            sigma_i_sq=dbm_to_watts(_get_number(merged, "sigma_i_sq_dbm", -70.0)),
            sigma_u_sq=dbm_to_watts(_get_number(merged, "sigma_u_sq_dbm", -70.0)),
            pos_bs=_get_position(merged, "pos_bs", (0.0, 0.0)),
            pos_irs=_get_position(merged, "pos_irs", (100.0, 30.0)),
            pos_user=_get_position(merged, "pos_user", (150.0, 0.0)),
            alpha_bi=_get_number(merged, "alpha_bi", 2.3),
            alpha_iu=_get_number(merged, "alpha_iu", 2.3),
            alpha_bu=_get_number(merged, "alpha_bu", 3.8),
            ref_loss_db=_get_number(merged, "ref_loss_db", -30.0),
        )
    except ValueError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(str(err)) from err

    raw_mode = merged.get("sign_mode", SignMode.ALIGNED.value)
    try:
        sign_mode = SignMode(raw_mode)
    except ValueError:
        allowed = ", ".join(m.value for m in SignMode)
        raise ConfigError(f"sign_mode: expected one of {allowed}, got {raw_mode!r}")
    tolerance = _get_number(merged, "tolerance", 1e-4)
    max_iterations = _get_int(merged, "max_iterations", 50)
    try:
        solver = SolverOptions(tolerance=tolerance, max_iterations=max_iterations,
                               sign_mode=sign_mode)
    except ValueError as err:
        raise ConfigError(str(err)) from err

    output_path = merged.get("output_path")
    if output_path is not None:
        _require(isinstance(output_path, str) and output_path != "", "output_path",
                 f"expected a non-empty string, got {output_path!r}")

    p_s_grid = _get_number_list(merged, "p_s_dbm_values", DEFAULT_P_S_DBM_GRID)

    return ExperimentConfig(
        scenario=scen,
        n_values=n_values,
        k_values=k_values,
        trials=trials,
        master_seed=master_seed,
        params=params,
        solver=solver,
        output_path=output_path,
        p_s_dbm_values=p_s_grid,
    )
