"""Experiment configuration: a flat JSON document plus CLI overrides.

Every key is optional; an empty document yields the full default
scenario, ``SystemParams.default`` with ``SolverOptions()``. A key that
is present is always read, so ``null`` is an error like any other
ill-typed value. Power levels are given in dBm (keys suffixed ``_dbm``),
positions in meters.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .beamforming import SolverOptions
from .oracle import CHECK_AMPLITUDE_STEPS, CHECK_MAX_ELEMENTS, CHECK_PHASE_STEPS
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


# Element counts where a scenario does not run SystemParams.default's N.
_DEFAULT_N_VALUES = {
    Scenario.RATE_VS_N: (16, 32, 64, 128, 256),
    Scenario.ORACLE_CHECK: (1, 2),
}
# The largest N whose per-trial draw, a row of 4N + 2 float64 values, fits
# numpy's largest array of np.iinfo(np.intp).max bytes.
_MAX_ELEMENTS = (np.iinfo(np.intp).max // 8 - 2) // 4

def _default_k_grid(n: int) -> tuple[int, ...]:
    """Powers of two from 4 below n, then n itself: (4, 8, ..., n).
    (4..64 for the default N = 64.)"""
    return tuple(2**i for i in range(2, n.bit_length()) if 2**i < n) + (n,)

# What a document that sets no field gets: the reference scenario (at
# SystemParams.default's N) and the solver's own defaults.
_DEFAULT_PARAMS = SystemParams.default()
_DEFAULT_SOLVER = SolverOptions()
DEFAULT_TRIALS = 1000
# Trial indices stay below 2**32, so each one is a single 32-bit word of
# seed entropy (``system.trial_seeds``).
MAX_TRIALS = 2**32
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
    params: SystemParams            # n_values[0]; srr-sweep: its first P_S
    solver: SolverOptions
    output_path: str
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


def _finite(value) -> float | None:
    # json.loads accepts NaN, Infinity and integers too large for a float;
    # no key takes any of them.
    if type(value) not in (int, float):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _int(key: str, value) -> int:
    _require(type(value) is int, key, f"expected an integer, got {value!r}")
    return value


def _number(key: str, value) -> float:
    number = _finite(value)
    _require(number is not None, key, f"expected a finite number, got {value!r}")
    return number


def _watts(key: str, value) -> float:
    level = _number(key, value)
    try:
        watts = dbm_to_watts(level)
    except OverflowError:
        watts = math.inf
    _require(0.0 < watts < math.inf, key,
             f"{level} dBm is not a finite, positive power in watts")
    return watts


def _distinct(key: str, value: list, entries: tuple) -> tuple:
    # A repeated grid entry would repeat its rows in the output.
    _require(len(set(entries)) == len(entries), key, f"entries must be distinct, got {value!r}")
    return entries


def _int_list(key: str, value) -> tuple[int, ...]:
    ok = isinstance(value, list) and value and all(type(v) is int for v in value)
    _require(ok, key, f"expected a non-empty list of integers, got {value!r}")
    return _distinct(key, value, tuple(value))


def _dbm_list(key: str, value) -> tuple[float, ...]:
    ok = isinstance(value, list) and value and all(_finite(v) is not None for v in value)
    _require(ok, key, f"expected a non-empty list of finite numbers, got {value!r}")
    for level in value:
        _watts(key, level)
    return _distinct(key, value, tuple(float(v) for v in value))


def _position(key: str, value) -> tuple[float, float]:
    ok = isinstance(value, list) and len(value) == 2 and all(_finite(v) is not None
                                                             for v in value)
    _require(ok, key, f"expected finite [x, y] in meters, got {value!r}")
    return (float(value[0]), float(value[1]))


def _path(key: str, value) -> str:
    _require(isinstance(value, str) and value != "", key,
             f"expected a non-empty string, got {value!r}")
    # The CSV and its trial log are written there once every trial has run.
    path = Path(value)
    _require(path.parent.is_dir(), key, f"{str(path.parent)!r} is not an existing directory")
    _require(not path.is_dir(), key, f"{value!r} is a directory")
    return value


def _scenario(key: str, value) -> Scenario:
    try:
        return Scenario(value)
    except ValueError:
        allowed = ", ".join(s.value for s in Scenario)
        raise ConfigError(f"{key}: expected one of {allowed}, got {value!r}") from None


# Every key: its reader and, if it sets a SystemParams or SolverOptions
# field, that field.
_KEYS = {
    "scenario": (_scenario, None),
    "n_values": (_int_list, None),
    "k_values": (_int_list, None),
    "trials": (_int, None),
    "master_seed": (_int, None),
    "output_path": (_path, None),
    "p_s_dbm_values": (_dbm_list, None),
    "p_s_dbm": (_watts, "p_s"),
    "p_i_dbm": (_watts, "p_i"),
    "sigma_i_sq_dbm": (_watts, "sigma_i_sq"),
    "sigma_u_sq_dbm": (_watts, "sigma_u_sq"),
    "pos_bs": (_position, "pos_bs"),
    "pos_irs": (_position, "pos_irs"),
    "pos_user": (_position, "pos_user"),
    "alpha_bi": (_number, "alpha_bi"),
    "alpha_iu": (_number, "alpha_iu"),
    "alpha_bu": (_number, "alpha_bu"),
    "ref_loss_db": (_number, "ref_loss_db"),
    "tolerance": (_number, "tolerance"),
    "max_iterations": (_int, "max_iterations"),
}
_ALLOWED_KEYS = frozenset(_KEYS)
_POWERS = frozenset(field for reader, field in _KEYS.values() if reader is _watts)
# The keys that set each field named apart from its key. srr-sweep takes P_S
# from p_s_dbm_values and rejects p_s_dbm; every other scenario the reverse.
_SETTERS = {field: (key,) for key, (_, field) in _KEYS.items() if field not in (None, key)}
_SETTERS["p_s"] += ("p_s_dbm_values",)
# The keys each scenario does not read; setting one is a config error.
# srr-sweep takes P_S from its own grid and runs no iterative method; the
# other scenarios sweep neither k nor P_S.
_SWEEP_KEYS = ("k_values", "p_s_dbm_values")
_UNUSED_KEYS = {
    Scenario.CONVERGENCE: _SWEEP_KEYS,
    Scenario.SRR_SWEEP: ("p_s_dbm", "tolerance", "max_iterations"),
    Scenario.RATE_VS_N: _SWEEP_KEYS,
    Scenario.SINGLE: _SWEEP_KEYS,
    Scenario.ORACLE_CHECK: _SWEEP_KEYS,
}


def _build(base, values: dict, doc: dict, **fixed):
    """``base`` with ``fixed`` and the fields the document sets. A broken
    invariant becomes a ConfigError led by a document key its message
    names: invariants name fields, and each field stands for the keys that
    set it (``_SETTERS``, or the key of the field's own name). The lead is
    the first such key, after the powers that meet the invariant on their
    own (beside the fields the document does not set): a power bound lists
    every power its scale reads, in range or not."""
    names = {f.name for f in fields(base)}
    changes = {**fixed, **{field: values[key] for key, (_, field) in _KEYS.items()
                           if field in names and key in values}}
    try:
        return replace(base, **changes)
    except ValueError as err:
        setters = {field: [key for key in _SETTERS.get(field, (field,)) if key in doc]
                   for field in changes}
        unset = {field: value for field, value in changes.items() if not setters[field]}
        named = [field for field in dict.fromkeys(re.findall(r"\w+", str(err)))
                 if setters.get(field)]
        in_range = {field for field in named
                    if field in _POWERS and _holds(base, {**unset, field: changes[field]})}
        keys = [key for field in sorted(named, key=in_range.__contains__)
                for key in setters[field]]
        raise ConfigError(f"{keys[0]}: {err}" if keys else str(err)) from err


def _holds(base, changes: dict) -> bool:
    try:
        replace(base, **changes)
    except ValueError:
        return False
    return True


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        _require(key not in doc, key, "repeated in the config document")
        doc[key] = value
    return doc


def parse_config(text: str, scenario: str | Scenario | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    """Parse a JSON config document into a validated ExperimentConfig.

    ``scenario`` (usually the CLI subcommand) takes precedence over the
    document's scenario key; ``overrides`` are CLI flag values applied on
    top of the document (None entries are ignored). Raises ConfigError
    naming the offending key on any violation.
    """
    try:
        doc = json.loads(text if text.strip() else "{}", object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON config: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    given = {**(overrides or {}), "scenario": scenario}
    merged = {**doc, **{key: value for key, value in given.items() if value is not None}}
    unknown = sorted(set(merged) - _ALLOWED_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

    scen = _scenario("scenario", merged.get("scenario", Scenario.SINGLE))
    for key in _UNUSED_KEYS[scen]:
        _require(key not in merged, key, f"not used by the {scen.value} scenario")
    values = {key: reader(key, merged[key])
              for key, (reader, _) in _KEYS.items() if key in merged}

    n_values = values.get("n_values",
                          _DEFAULT_N_VALUES.get(scen, (_DEFAULT_PARAMS.n_elements,)))
    trials = values.get("trials", DEFAULT_TRIALS)
    _require(1 <= trials <= MAX_TRIALS, "trials",
             f"must be in [1, {MAX_TRIALS}], got {trials}")
    master_seed = values.get("master_seed", DEFAULT_MASTER_SEED)
    _require(0 <= master_seed < 2**64, "master_seed",
             f"must be a 64-bit unsigned integer, got {master_seed}")

    for n in n_values:
        _require(1 <= n <= _MAX_ELEMENTS, "n_values",
                 f"entries must be in [1, {_MAX_ELEMENTS}], got {n}")
        _require(scen is not Scenario.ORACLE_CHECK or n <= CHECK_MAX_ELEMENTS, "n_values",
                 f"oracle-check's {CHECK_PHASE_STEPS} x {CHECK_AMPLITUDE_STEPS} grid holds "
                 f"n <= {CHECK_MAX_ELEMENTS}; n = {n} would need "
                 f"({CHECK_PHASE_STEPS} * {CHECK_AMPLITUDE_STEPS})^{n - 1} candidates")
    k_values: tuple[int, ...] = ()
    if scen is Scenario.SRR_SWEEP:
        _require(len(n_values) == 1, "n_values",
                 f"srr-sweep runs one element count, got {list(n_values)}")
        n = n_values[0]
        k_values = values.get("k_values", _default_k_grid(n))
        for k in k_values:
            _require(1 <= k <= n, "k_values", f"entries must be in [1, {n}], got {k}")

    # The bound on link scales and powers grows with N: the largest N decides
    # it for all, at every P_S that srr-sweep runs (its params take the first).
    p_s_dbm_values = values.get("p_s_dbm_values", DEFAULT_P_S_DBM_GRID)
    levels = ([{"p_s": dbm_to_watts(level)} for level in p_s_dbm_values]
              if scen is Scenario.SRR_SWEEP else [{}])
    for level in levels:
        _build(_DEFAULT_PARAMS, values, merged, n_elements=max(n_values), **level)
    return ExperimentConfig(
        scenario=scen,
        n_values=n_values,
        k_values=k_values,
        trials=trials,
        master_seed=master_seed,
        params=_build(_DEFAULT_PARAMS, values, merged, n_elements=n_values[0], **levels[0]),
        solver=_build(_DEFAULT_SOLVER, values, merged),
        output_path=values.get("output_path") or _path("output_path", f"{scen.value}.csv"),
        p_s_dbm_values=p_s_dbm_values,
    )
