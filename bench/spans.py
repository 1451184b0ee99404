"""In-memory span tracer for scedex, installed from outside the package.

scedex modules bind each other's functions by name (``from .tail import
pool``), so wrapping ``scedex.tail.pool`` alone would miss the calls made
through ``scedex.gp_mle.pool``.  ``install`` therefore wraps every public
function of the layer modules once and rebinds every module attribute that
holds the same function object to the wrapper.  Spans (name, start, end,
parent, thread) and counts stay in memory and are written to one JSON file
when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import re
import threading
import time

LAYERS = ("panel", "tail", "scedasis", "dependence", "trend_tests", "gp_mle", "mc", "cli")

_QUAD_ERR = re.compile(r"quadrature error ([0-9.eE+-]+)")


class Recorder:
    """Spans and counts of one process; safe to use from several threads."""

    def __init__(self):
        self.spans: list = []       # [id, parent, name, thread, start, end, error]
        self.counts: dict = {}
        self.maxima: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def count(self, key: str, value=1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima.get(key, value), value)

    def span(self, name: str, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(sid)
        error = None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([sid, parent, name, threading.get_ident(), start, end, error])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "maxima": self.maxima}, fh)


# ---------------------------------------------------------------------------
# Counts taken from arguments and results at the layer boundary
# ---------------------------------------------------------------------------


def _on_return(rec: Recorder, name: str, args, kwargs, result) -> None:
    if name == "panel.load_panel":
        rec.count("panel.load_bytes", os.path.getsize(args[0] if args else kwargs["path"]))
    elif name == "panel.decluster":
        rec.count("panel.decluster_rows_in", args[0].n)
        rec.count("panel.decluster_rows_kept", result.n)
    elif name == "tail.pool":
        rec.count("tail.pooled_values", result.n_effective)
    elif name == "trend_tests.k_sweep":
        rec.count("trend_tests.sweep_rows_failed", sum(r.error is not None for r in result))
    elif name == "gp_mle.fit_gp_excesses":
        rec.count("gp_mle.fit_iterations", result.iterations)
        rec.count("gp_mle.fit_profile_fallbacks", int(result.method == "profile"))
    elif name == "gp_mle.sigma_gamma0":
        rec.maximum("gp_mle.quadrature_error", result[1])
    elif name in ("mc.mc_test_size", "mc.mc_mle_variance", "mc.mc_covariance_check"):
        rec.count("mc.replications", result.replications)
        rec.count("mc.skipped", result.skipped)


def _on_error(rec: Recorder, name: str, exc: BaseException) -> None:
    if name == "gp_mle.fit_gp_excesses" and type(exc).__name__ == "FitConvergenceError":
        rec.count("gp_mle.fit_profile_fallbacks")  # raised only after the profile pass
    elif name == "gp_mle.sigma_gamma0":
        found = _QUAD_ERR.search(str(exc))
        if found:
            rec.maximum("gp_mle.quadrature_error", float(found.group(1)))


def _counting(rec: Recorder, key: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.count(key)
        return fn(*args, **kwargs)
    return counted


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name == "gp_mle.sigma_gamma0":
            args, kwargs = _count_r_lookup(rec, args, kwargs)
        try:
            result = rec.span(name, fn, args, kwargs)
        except Exception as exc:
            _on_error(rec, name, exc)
            raise
        _on_return(rec, name, args, kwargs, result)
        if name == "mc.analytic_r_lookup":
            result = _wrap(rec, "mc.analytic_r_lookup.r", result)
        return result
    return traced


def _count_r_lookup(rec: Recorder, args, kwargs):
    """Count every surface lookup ``sigma_gamma0`` makes, whatever its source."""
    if len(args) > 2 and args[2] is not None:
        args = (*args[:2], _counting(rec, "gp_mle.r_lookup_calls", args[2]), *args[3:])
    elif kwargs.get("r_lookup") is not None:
        kwargs = dict(kwargs, r_lookup=_counting(rec, "gp_mle.r_lookup_calls",
                                                 kwargs["r_lookup"]))
    return args, kwargs


def install(rec: Recorder) -> None:
    """Wrap the public functions of every layer module, the click command
    callbacks of ``scedex.cli`` and ``EmpiricalTailDependence``."""
    modules = {name: importlib.import_module(f"scedex.{name}") for name in LAYERS}
    package = importlib.import_module("scedex")
    wrappers: dict = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[id(obj)] = (obj, _wrap(rec, f"{layer}.{attr}", obj))

    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])

    etd = modules["dependence"].EmpiricalTailDependence
    etd.__init__ = _wrap(rec, "dependence.EmpiricalTailDependence", etd.__init__)
    etd.r = _wrap(rec, "dependence.EmpiricalTailDependence.r", etd.r)

    for cmd in modules["cli"].main.commands.values():
        cmd.callback = _wrap(rec, f"cli.{cmd.name.replace('-', '_')}", cmd.callback)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans: list) -> dict:
    """Span id -> duration minus the time its direct children cover.

    Children run nested inside their parent on the parent's thread, so they
    never overlap each other; spans on worker threads are roots of their own.
    """
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] is not None and s[1] in own:
            own[s[1]] -= s[5] - s[4]
    return own


CLI_COMMANDS = ("ingest_check", "scedasis", "test_space", "test_time", "sweep",
                "gamma_path", "fit_gp", "mc")

_SPAN_TOTALS = {
    "panel.load_panel_s": "panel.load_panel",
    "panel.split_season_s": "panel.split_season",
    "panel.decluster_s": "panel.decluster",
    "tail.pool_s": "tail.pool",
    "scedasis.scedasis_all_s": "scedasis.scedasis_all",
    "trend_tests.space_test_s": "trend_tests.space_test",
    "trend_tests.time_test_s": "trend_tests.time_test",
    "trend_tests.k_sweep_s": "trend_tests.k_sweep",
    "dependence.sigma1_matrix_s": "dependence.sigma1_matrix",
    "dependence.EmpiricalTailDependence_s": "dependence.EmpiricalTailDependence",
    "dependence.r_s": "dependence.EmpiricalTailDependence.r",
    "gp_mle.fit_gp_pml_s": "gp_mle.fit_gp_pml",
    "gp_mle.gamma_path_s": "gp_mle.gamma_path",
    "gp_mle.mle_asymptotic_cov_s": "gp_mle.mle_asymptotic_cov",
    "gp_mle.sigma_gamma0_s": "gp_mle.sigma_gamma0",
    "mc.simulate_panel_s": "mc.simulate_panel",
}
_SPAN_COUNTS = {
    "panel.load_panel_calls": "panel.load_panel",
    "tail.pool_calls": "tail.pool",
    "dependence.r_calls": "dependence.EmpiricalTailDependence.r",
}
_COUNTERS = ("tail.pooled_values", "trend_tests.sweep_rows_failed", "gp_mle.fit_iterations",
             "gp_mle.fit_profile_fallbacks", "gp_mle.r_lookup_calls", "mc.replications")


def layer_metrics(traces: list) -> dict:
    """Per-layer metrics summed over the given per-process traces.

    Layers that did no work report 0, and so do ratios with no base.
    """
    durations: dict = {}
    calls: dict = {}
    layer_self: dict = {}
    counts: dict = {}
    maxima: dict = {}
    for tr in traces:
        own = self_times(tr["spans"])
        for s in tr["spans"]:
            name = s[2]
            durations[name] = durations.get(name, 0.0) + (s[5] - s[4])
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own[s[0]]
        for key, value in tr["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in tr["maxima"].items():
            maxima[key] = max(maxima.get(key, value), value)

    out = {f"cli.{c}_s": durations.get(f"cli.{c}", 0.0) for c in CLI_COMMANDS}
    out.update({f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS})
    out.update({key: durations.get(name, 0.0) for key, name in _SPAN_TOTALS.items()})
    out.update({key: calls.get(name, 0) for key, name in _SPAN_COUNTS.items()})
    out.update({key: counts.get(key, 0) for key in _COUNTERS})

    load_s = out["panel.load_panel_s"]
    out["panel.ingest_MBps"] = counts.get("panel.load_bytes", 0) / 1e6 / load_s if load_s else 0.0
    rows_in = counts.get("panel.decluster_rows_in", 0)
    out["panel.decluster_kept_ratio"] = (
        counts.get("panel.decluster_rows_kept", 0) / rows_in if rows_in else 0.0)
    attempted = counts.get("mc.replications", 0) + counts.get("mc.skipped", 0)
    out["mc.skipped_frac"] = counts.get("mc.skipped", 0) / attempted if attempted else 0.0
    out["mc.analytic_r_lookup_s"] = (durations.get("mc.analytic_r_lookup", 0.0)
                                     + durations.get("mc.analytic_r_lookup.r", 0.0))
    out["gp_mle.quadrature_error"] = maxima.get("gp_mle.quadrature_error", 0.0)
    out["trace.spans"] = sum(calls.values())
    return out


def span_total(trace: dict, name: str) -> float:
    return sum(s[5] - s[4] for s in trace["spans"] if s[2] == name)
