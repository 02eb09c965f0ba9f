"""Outside-in tracer for ``irsbeam`` and the per-layer metrics drawn from it.

The tracer wraps public functions of the package at every name a caller
looks them up by: ``from ... import`` binds a function once per importing
module (``experiments.sample_channels``, ``beamforming.mrr`` inside
``max_asnr``, ``oracle.max_asnr`` inside ``sign_adjudicate``, the
``metrics.*`` module attributes), and ``cli._RUNNERS`` holds the runners
captured at import. Nothing in the package is edited; a process that does
not install the tracer runs the package untouched.

Each call records a span (name, start, end, parent, note) in memory; the
note is a small JSON value taken from the arguments or the result after
the span has ended. ``Tracer.export`` returns the spans when the run ends
and ``layer_metrics`` turns them into the per-layer metrics. A span's self
time is its duration minus the durations of its child spans; the cost of
the wrapper itself lands in the caller's self time.
"""

from __future__ import annotations

import time


def _n_of(obj) -> int | None:
    return getattr(obj, "n_elements", None)


def _stream_note(args, kwargs, result):
    return kwargs.get("stream", args[2] if len(args) > 2 else 0)


def _draw_note(args, kwargs, result):
    params = args[0]
    seed = args[1] if len(args) > 1 else kwargs["seed"]
    return [params.n_elements, params.p_s, int(seed)]


def _snr_note(args, kwargs, result):
    return [_n_of(args[1]) if len(args) > 1 else None]


def _grid_note(args, kwargs, result):
    return [_n_of(args[0]), result.grid_points_evaluated]


def _rows_note(args, kwargs, result):
    return len(args[1])


# (layer, function, note) for every wrapped public function. A list note
# starts with N. Design notes are made by the tracer, which also keeps the
# design for the budget check.
FUNCTIONS = (
    ("system", "trial_seed", _stream_note),
    ("system", "sample_channels", _draw_note),
    ("beamforming", "egr", "design"),
    ("beamforming", "mrr", "design"),
    ("beamforming", "srr", "design"),
    ("beamforming", "max_asnr", "design"),
    ("beamforming", "asnr_direction", None),
    ("beamforming", "lambda_from_normalized", None),
    ("beamforming", "random_phase", "design"),
    ("beamforming", "passive_aligned", None),
    ("metrics", "snr", _snr_note),
    ("metrics", "rate", None),
    ("metrics", "asnr_value", _snr_note),
    ("oracle", "grid_search_best", _grid_note),
    ("oracle", "sign_adjudicate", None),
    ("config", "parse_config", None),
    ("experiments", "format_csv", _rows_note),
    ("cli", "main", None),
)
# Every run_* function is traced under one name, whichever scenario runs.
RUNNERS = ("run_convergence", "run_srr_sweep", "run_rate_vs_n", "run_single",
           "run_oracle_check")
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fn, _ in FUNCTIONS) + ("experiments.runner",)
LAYERS = ("system", "beamforming", "metrics", "oracle", "config", "experiments", "cli")

# Unit of every per-layer metric. ``layer_metrics`` gives all of them but
# the last two, which the benchmark adds from the output files and from
# the untraced invocations.
UNITS = {
    **{f"{name}.{metric}": unit for name in SPAN_NAMES
       for metric, unit in (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"))},
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "system.draws_per_trial": "ratio",
    "system.phase_seed_use_ratio": "ratio",
    "beamforming.max_asnr.iterations_mean": "count",
    "beamforming.max_asnr.iterations_max": "count",
    "beamforming.max_asnr.unconverged": "count",
    "beamforming.max_asnr.trace_share": "ratio",
    "beamforming.budget_residual_max": "ratio",
    "oracle.grid_points": "count",
    "oracle.grid_points_per_s": "1/s",
    "oracle.grid_bytes_computed": "bytes",
    "experiments.format_csv.rows": "count",
    **{f"table_n64.{f}.us": "us" for f in ("trial_seed", "sample_channels", "egr", "mrr",
                                          "srr_k32", "max_asnr", "snr_rate")},
    "trace.spans": "count",
    "experiments.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}
# Metrics that depend only on the inputs, so two traced runs of one seed
# must agree on them exactly.
REPEATABLE = tuple(name for name, unit in UNITS.items() if unit in ("count", "bytes")) + (
    "system.draws_per_trial", "system.phase_seed_use_ratio",
    "beamforming.budget_residual_max")


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self._stack = [-1]
        self._designs: list = []    # (beamformer, channel, params) per design returned

    def wrap(self, name: str, fn, note=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        if note == "design":
            note = self._design_note

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, None)
            if note is not None:
                spans[index] = (name_id, start, end, parent, note(args, kwargs, result))
            return result

        return traced

    def _design_note(self, args, kwargs, result):
        ch, params = args[0], args[1]
        if isinstance(result, tuple):           # max_asnr: (beamformer, trace)
            bf, trace = result
            self._designs.append((bf, ch, params))
            return [ch.n_elements, trace.iterations, trace.converged]
        self._designs.append((result, ch, params))
        k = args[2] if len(args) > 2 else kwargs.get("k")
        return [ch.n_elements, k]

    def install(self):
        """Wrap every traced function at each module binding and return the
        wrapped ``cli.main``."""
        import irsbeam
        from irsbeam import beamforming, cli, config, experiments, metrics, oracle, system

        modules = {"system": system, "beamforming": beamforming, "metrics": metrics,
                   "oracle": oracle, "config": config, "experiments": experiments,
                   "cli": cli}
        replaced = {}
        for layer, fn_name, note in FUNCTIONS:
            original = getattr(modules[layer], fn_name)
            replaced[original] = self.wrap(f"{layer}.{fn_name}", original, note)
        for fn_name in RUNNERS:
            original = getattr(experiments, fn_name)
            replaced[original] = self.wrap("experiments.runner", original)
        for module in (irsbeam, *modules.values()):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in replaced:
                    setattr(module, attr, replaced[value])
        for scenario, runner in list(cli._RUNNERS.items()):
            cli._RUNNERS[scenario] = replaced[runner]
        return cli.main

    def export(self) -> dict:
        """Spans plus the largest budget residual over the designs returned,
        which is computed here, outside every span."""
        from irsbeam.metrics import reflected_power

        residual = max((abs(reflected_power(bf, ch, params) / params.p_i - 1.0)
                        for bf, ch, params in self._designs), default=0.0)
        return {"names": self.names, "spans": self.spans,
                "budget_residual_max": residual}


def _grid_bytes(points: int, n: int) -> int:
    # Arrays grid_search_best materializes, from their sizes: theta and the
    # amplitude profiles (float64, points x n), the candidates q (complex128,
    # points x n), and six per-candidate vectors (lam_sq, lam, num, den and
    # rates as float64, the reflected sum as complex128).
    return points * (8 * n + 8 * n + 16 * n) + points * (5 * 8 + 16)


def layer_metrics(export: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    names, spans = export["names"], export["spans"]
    count = len(spans)
    child_time = [0.0] * count
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    incl_s = dict.fromkeys(SPAN_NAMES, 0.0)
    at_64: dict[str, list[float]] = {}
    name_of = [names[s[0]] for s in spans]
    streams1 = draws = 0
    distinct_draws = set()
    iterations: list[int] = []
    unconverged = 0
    trace_self = 0.0
    grid_points = grid_bytes = rows = 0
    for i, (_, start, end, parent, note) in enumerate(spans):
        name = name_of[i]
        dur = end - start
        calls[name] += 1
        self_s[name] += dur - child_time[i]
        incl_s[name] += dur
        if name == "system.trial_seed" and note == 1:
            streams1 += 1
        elif name == "system.sample_channels":
            draws += 1
            distinct_draws.add(tuple(note))
        elif name == "beamforming.max_asnr":
            iterations.append(note[1])
            unconverged += not note[2]
        elif name in ("metrics.snr", "metrics.asnr_value"):
            if _inside(spans, name_of, parent, "beamforming.max_asnr"):
                trace_self += dur - child_time[i]
        elif name == "oracle.grid_search_best":
            grid_points += note[1]
            grid_bytes += _grid_bytes(note[1], note[0])
        elif name == "experiments.format_csv":
            rows += note
        if (isinstance(note, list) and note[0] == 64
                and not (name == "beamforming.srr" and note[1] != 32)):
            at_64.setdefault(name, []).append(dur)

    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.us_per_call"] = 1e6 * incl_s[name] / calls[name] if calls[name] else 0.0
    total = sum(self_s.values())
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out[f"{layer}.self_share"] = layer_self / total if total else 0.0

    out["system.draws_per_trial"] = draws / len(distinct_draws) if distinct_draws else 0.0
    out["system.phase_seed_use_ratio"] = (
        calls["beamforming.random_phase"] / streams1 if streams1 else 0.0)
    out["beamforming.max_asnr.iterations_mean"] = (
        sum(iterations) / len(iterations) if iterations else 0.0)
    out["beamforming.max_asnr.iterations_max"] = max(iterations, default=0)
    out["beamforming.max_asnr.unconverged"] = unconverged
    max_asnr_s = incl_s["beamforming.max_asnr"]
    out["beamforming.max_asnr.trace_share"] = trace_self / max_asnr_s if max_asnr_s else 0.0
    out["beamforming.budget_residual_max"] = export["budget_residual_max"]
    grid_s = incl_s["oracle.grid_search_best"]
    out["oracle.grid_points"] = grid_points
    out["oracle.grid_points_per_s"] = grid_points / grid_s if grid_s else 0.0
    out["oracle.grid_bytes_computed"] = grid_bytes
    out["experiments.format_csv.rows"] = rows

    # The per-trial layer table at N = 64 (srr at k = 32); seed mixing and
    # rate do not depend on N, so all their calls count.
    def us_at_64(name: str) -> float:
        durs = at_64.get(name)
        return 1e6 * sum(durs) / len(durs) if durs else 0.0

    out["table_n64.trial_seed.us"] = out["system.trial_seed.us_per_call"]
    for short, name in (("sample_channels", "system.sample_channels"),
                        ("egr", "beamforming.egr"), ("mrr", "beamforming.mrr"),
                        ("srr_k32", "beamforming.srr"), ("max_asnr", "beamforming.max_asnr")):
        out[f"table_n64.{short}.us"] = us_at_64(name)
    snr_64 = us_at_64("metrics.snr")
    out["table_n64.snr_rate.us"] = snr_64 + out["metrics.rate.us_per_call"] if snr_64 else 0.0
    out["trace.spans"] = count
    return out


def _inside(spans, name_of, index: int, name: str) -> bool:
    while index >= 0:
        if name_of[index] == name:
            return True
        index = spans[index][3]
    return False
