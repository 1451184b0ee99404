"""Batch command-line frontend.

Wires ingestion -> season split -> declustering -> estimation -> tests and
emits machine-readable CSV/JSON.  Analysis commands are deterministic:
identical input and flags produce byte-identical output (floats are written
with 12 significant digits).  Exit codes: 0 ok, 1 runtime error, 2 usage
error.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tempfile

import click
import numpy as np

from . import __version__
from . import errors as err
from . import dependence, gp_mle, mc, panel, scedasis, tail, trend_tests

_FLOAT_FMT = "%.12g"

_ERROR_MODULE = {
    err.PanelFormatError: ("panel", "check the CSV header, date column, and cell values"),
    err.DateOrderError: ("panel", "sort rows by date before loading"),
    err.DomainError: ("panel", "values must be finite and nonnegative"),
    err.EmptySeasonError: ("panel", "pick a season actually present in the data"),
    err.EmptyPoolError: ("tail", "the selected panel has no observed values"),
    err.RangeError: ("tail", "choose k with 1 <= k < number of pooled observations"),
    err.NoExceedanceError: ("trend_tests", "increase k or pick a different station"),
    err.InsufficientDataError: ("gp_mle", "increase k; at least 10 positive excesses are needed"),
    err.SingularCovarianceError: ("trend_tests", "drop near-duplicate stations or change k"),
    err.FitConvergenceError: ("gp_mle", "try a different k; the optimizer hit a parameter boundary"),
    err.SimSpecError: ("mc", "fix the simulation specification"),
}


def _fmt(x) -> str:
    return _FLOAT_FMT % float(x)


def _jsonable(obj):
    """Round floats to 12 significant digits and make numpy types plain."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            return repr(x)
        return float(_FLOAT_FMT % x)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _emit(text: str, output: str | None) -> None:
    """Print, or write atomically (temp file in the target directory, then
    rename) so a crash never leaves a half-written artifact."""
    if output is None:
        click.echo(text, nl=False)
        return
    directory = os.path.dirname(os.path.abspath(output)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".scedex-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_path, output)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _emit_json(payload: dict, output: str | None) -> None:
    _emit(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n", output)


def _emit_csv(header: list, rows: list, output: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(_fmt(cell) if np.isfinite(cell) else repr(float(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", output)


def _structured_failure(exc: err.ScedexError, command: str, params: dict) -> None:
    for klass, (module, hint) in _ERROR_MODULE.items():
        if isinstance(exc, klass):
            break
    else:
        module, hint = "scedex", "see the message"
    report = {
        "error": type(exc).__name__,
        "module": module,
        "message": str(exc),
        "hint": hint,
        "command": command,
        "params": {k: v for k, v in params.items() if v is not None},
    }
    click.echo(json.dumps(_jsonable(report), sort_keys=True, indent=2), err=True)
    sys.exit(1)


def _analysis_command(fn):
    """Catch domain errors and render the structured report (exit 1)."""

    name = fn.__name__
    if name.endswith("_cmd"):
        name = name[: -len("_cmd")]
    name = name.replace("_", "-")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except err.ScedexError as exc:
            _structured_failure(exc, name, kwargs)

    return wrapper


def _load(input, season, gap):
    return _select(panel.load_panel(input), season, gap)


def _select(p, season, gap, min_days=150):
    """Apply the season split and declustering to a loaded panel."""
    if season != "all":
        definition = (panel.SeasonDefinition.winter() if season == "winter"
                      else panel.SeasonDefinition.summer())
        definition = panel.SeasonDefinition(definition.included_months, min_days)
        p = panel.split_season(p, definition)
    if gap > 0:
        p = panel.decluster(p, gap_days=gap)
    return p


def _dry_run_report(command: str, **params) -> None:
    payload = {"dry_run": True, "command": command,
               "params": {k: v for k, v in params.items() if v is not None}}
    click.echo(json.dumps(_jsonable(payload), sort_keys=True))


def _check_input_exists(path: str) -> None:
    if not os.path.isfile(path):
        raise click.UsageError(f"input file not found: {path}")


_input_opt = click.option("--input", "input", required=True, type=str,
                          help="CSV panel: a date column plus one column per station.")
_season_opt = click.option("--season", type=click.Choice(["winter", "summer", "all"]),
                           default="all", show_default=True,
                           help="Keep only this season's days before analysis.")
_gap_opt = click.option("--gap", type=int, default=2, show_default=True,
                        help="Declustering separation in days (0 disables).")
_output_opt = click.option("--output", type=str, default=None,
                           help="Write here (atomically) instead of stdout.")
_format_opt = click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                           default="csv", show_default=True)
_dry_opt = click.option("--dry-run", is_flag=True,
                        help="Validate the configuration and exit without writing.")


@click.group()
@click.version_option(version=__version__)
def main():
    """Tail trend analysis for station panels: scedasis estimation,
    space/time heterogeneity tests, and pooled generalized Pareto fits."""


@main.command("ingest-check")
@_input_opt
@_season_opt
@_gap_opt
@_output_opt
@_dry_opt
@_analysis_command
def ingest_check(input, season, gap, output, dry_run):
    """Validate a panel file and report its shape, date span, and missing data."""
    _check_input_exists(input)
    if dry_run:
        return _dry_run_report("ingest-check", input=input, season=season, gap=gap)
    raw = panel.load_panel(input)
    p = _select(raw, season, gap)
    payload = {
        "input": input,
        "stations": list(raw.station_ids),
        "rows_raw": raw.n,
        "rows_after_selection": p.n,
        "season": season,
        "gap_days": gap,
        "date_min": str(raw.day_labels[0]),
        "date_max": str(raw.day_labels[-1]),
        "missing_cells": int(raw.missing_mask.sum()),
        "missing_by_station": {
            sid: int(raw.missing_mask[:, j].sum())
            for j, sid in enumerate(raw.station_ids)
        },
    }
    _emit_json(payload, output)


@main.command("scedasis")
@_input_opt
@_season_opt
@_gap_opt
@click.option("--k", type=int, required=True, help="Number of pooled top order statistics.")
@click.option("--renormalize", is_flag=True,
              help="Divide by the realised exceedance count instead of k.")
@click.option("--grid", type=int, default=100, show_default=True,
              help="Evaluate each curve at t = i/grid.")
@_format_opt
@_output_opt
@_dry_opt
@_analysis_command
def scedasis_cmd(input, season, gap, k, renormalize, grid, fmt, output, dry_run):
    """Integrated relative-frequency curves C_hat_j(t) for every station."""
    _check_input_exists(input)
    if grid < 1:
        raise click.UsageError("--grid must be at least 1")
    if dry_run:
        return _dry_run_report("scedasis", input=input, season=season, gap=gap,
                               k=k, renormalize=renormalize, grid=grid)
    p = _load(input, season, gap)
    curves = scedasis.scedasis_all(p, k, renormalize=renormalize)
    ts = np.arange(grid + 1) / grid
    if fmt == "csv":
        rows = []
        for curve in curves:
            sid = p.station_ids[curve.station]
            for t in ts:
                rows.append((sid, float(t), curve.value(float(t))))
        _emit_csv(["station", "t", "c_hat"], rows, output)
    else:
        payload = {
            "k": k,
            "renormalize": renormalize,
            "t": ts,
            "stations": list(p.station_ids),
            "curves": {p.station_ids[c.station]: [c.value(float(t)) for t in ts]
                       for c in curves},
            "c1": {p.station_ids[c.station]: c.c1 for c in curves},
        }
        _emit_json(payload, output)


@main.command("sigma1")
@_input_opt
@_season_opt
@_gap_opt
@click.option("--k", type=int, required=True)
@click.option("--renormalize", is_flag=True)
@_format_opt
@_output_opt
@_dry_opt
@_analysis_command
def sigma1(input, season, gap, k, renormalize, fmt, output, dry_run):
    """Empirical pairwise tail-dependence matrix at the pooled threshold."""
    _check_input_exists(input)
    if dry_run:
        return _dry_run_report("sigma1", input=input, season=season, gap=gap,
                               k=k, renormalize=renormalize)
    p = _load(input, season, gap)
    dep = dependence.sigma1_matrix(p, k, renormalize=renormalize)
    if fmt == "csv":
        rows = []
        for i, si in enumerate(p.station_ids):
            for j, sj in enumerate(p.station_ids):
                rows.append((si, sj, float(dep.entries[i, j])))
        _emit_csv(["station_i", "station_j", "sigma1"], rows, output)
    else:
        _emit_json({
            "k": k,
            "renormalize": renormalize,
            "stations": list(p.station_ids),
            "matrix": dep.entries,
            "tie_count": dep.tie_count,
        }, output)


@main.command("test-space")
@_input_opt
@_season_opt
@_gap_opt
@click.option("--k", type=int, required=True)
@_output_opt
@_dry_opt
@_analysis_command
def test_space(input, season, gap, k, output, dry_run):
    """Chi-square test of equal integrated frequencies across stations."""
    _check_input_exists(input)
    if dry_run:
        return _dry_run_report("test-space", input=input, season=season, gap=gap, k=k)
    p = _load(input, season, gap)
    res = trend_tests.space_test(p, k)
    _emit_json({
        "statistic": res.statistic,
        "df": res.df,
        "p_value": res.p_value,
        "law": res.law,
        "k": res.k,
        "m": p.m,
        "extras": res.extras,
    }, output)


@main.command("test-time")
@_input_opt
@_season_opt
@_gap_opt
@click.option("--k", type=int, required=True)
@click.option("--station", "stations", multiple=True,
              help="Station name or index; repeatable. Default: all stations.")
@click.option("--alpha", type=float, default=0.05, show_default=True,
              help="Family-wise level for the Bonferroni correction.")
@_output_opt
@_dry_opt
@_analysis_command
def test_time(input, season, gap, k, stations, alpha, output, dry_run):
    """Kolmogorov-Smirnov test of constant frequency over time, per station."""
    _check_input_exists(input)
    if dry_run:
        return _dry_run_report("test-time", input=input, season=season, gap=gap,
                               k=k, station=list(stations) or None, alpha=alpha)
    p = _load(input, season, gap)
    if stations:
        idx = [p.station_index(int(s) if s.isdigit() else s) for s in stations]
    else:
        idx = list(range(p.m))
    pooled = tail.pool(p)
    results = [trend_tests.time_test(p, k, j, pooled=pooled) for j in idx]
    pvals = np.array([r.p_value for r in results])
    corr = trend_tests.bonferroni(pvals, alpha=alpha)
    _emit_json({
        "k": k,
        "alpha": alpha,
        "bonferroni_level": corr.corrected_level,
        "stations": {
            p.station_ids[j]: {
                "statistic": r.statistic,
                "p_value": r.p_value,
                "reject_corrected": bool(flag),
                "n_exceedances": r.extras["n_exceedances"],
            }
            for j, r, flag in zip(idx, results, corr.reject)
        },
    }, output)


@main.command("sweep")
@_input_opt
@_season_opt
@_gap_opt
@click.option("--which", type=click.Choice(["space", "time"]), default="space",
              show_default=True)
@click.option("--k-min", type=int, required=True)
@click.option("--k-max", type=int, required=True)
@click.option("--k-step", type=int, default=50, show_default=True)
@click.option("--station", default=None, help="Station for --which time.")
@_format_opt
@_output_opt
@_dry_opt
@_analysis_command
def sweep(input, season, gap, which, k_min, k_max, k_step, station, fmt, output, dry_run):
    """Test statistic and p-value as a function of k."""
    _check_input_exists(input)
    if not (0 < k_min <= k_max) or k_step < 1:
        raise click.UsageError("need 0 < --k-min <= --k-max and --k-step >= 1")
    if which == "time" and station is None:
        raise click.UsageError("--which time requires --station")
    if dry_run:
        return _dry_run_report("sweep", input=input, season=season, gap=gap,
                               which=which, k_min=k_min, k_max=k_max,
                               k_step=k_step, station=station)
    p = _load(input, season, gap)
    j = None
    if station is not None:
        j = p.station_index(int(station) if station.isdigit() else station)
    ks = list(range(k_min, k_max + 1, k_step))
    rows_out = trend_tests.k_sweep(p, ks, which, station=j)
    if fmt == "csv":
        rows = [(r.k,
                 r.statistic if r.statistic is not None else "",
                 r.p_value if r.p_value is not None else "",
                 r.error or "")
                for r in rows_out]
        _emit_csv(["k", "statistic", "p_value", "error"], rows, output)
    else:
        _emit_json({
            "which": which,
            "station": None if j is None else p.station_ids[j],
            "rows": [
                {"k": r.k, "statistic": r.statistic, "p_value": r.p_value,
                 "error": r.error}
                for r in rows_out
            ],
        }, output)


@main.command("fit-gp")
@_input_opt
@_season_opt
@_gap_opt
@click.option("--k", type=int, required=True)
@click.option("--with-cov", is_flag=True,
              help="Also estimate dependence-aware standard errors (slower).")
@_output_opt
@_dry_opt
@_analysis_command
def fit_gp(input, season, gap, k, with_cov, output, dry_run):
    """Pooled generalized Pareto fit to the top-k excesses."""
    _check_input_exists(input)
    if dry_run:
        return _dry_run_report("fit-gp", input=input, season=season, gap=gap,
                               k=k, with_cov=with_cov)
    p = _load(input, season, gap)
    pooled = tail.pool(p)
    fit = gp_mle.fit_gp_pml(p, k, pooled=pooled)
    payload = {
        "gamma_hat": fit.gamma_hat,
        "scale_hat": fit.scale_hat,
        "k": fit.k,
        "n_excesses": fit.n_excesses,
        "dropped_ties": fit.dropped_ties,
        "loglik": fit.loglik,
        "converged": fit.converged,
        "method": fit.method,
    }
    if with_cov:
        cov = gp_mle.mle_asymptotic_cov(fit, p, pooled=pooled)
        payload["se_gamma"] = cov.se_gamma
        payload["se_scale_rel"] = cov.se_scale_rel
        # the covariance is closed-form; the key stays for payload readers
        payload["quadrature_error"] = 0.0
    _emit_json(payload, output)


@main.command("gamma-path")
@_input_opt
@_season_opt
@_gap_opt
@click.option("--k-min", type=int, required=True)
@click.option("--k-max", type=int, required=True)
@click.option("--k-step", type=int, default=50, show_default=True)
@_format_opt
@_output_opt
@_dry_opt
@_analysis_command
def gamma_path(input, season, gap, k_min, k_max, k_step, fmt, output, dry_run):
    """Shape estimate as a function of k, with reference standard errors."""
    _check_input_exists(input)
    if not (0 < k_min <= k_max) or k_step < 1:
        raise click.UsageError("need 0 < --k-min <= --k-max and --k-step >= 1")
    if dry_run:
        return _dry_run_report("gamma-path", input=input, season=season, gap=gap,
                               k_min=k_min, k_max=k_max, k_step=k_step)
    p = _load(input, season, gap)
    ks = list(range(k_min, k_max + 1, k_step))
    path = gp_mle.gamma_path(p, ks)
    if fmt == "csv":
        rows = [(r.k,
                 r.gamma if r.gamma is not None else "",
                 r.scale if r.scale is not None else "",
                 r.se if r.se is not None else "",
                 r.converged,
                 r.error or "")
                for r in path]
        _emit_csv(["k", "gamma", "scale", "se", "converged", "error"], rows, output)
    else:
        _emit_json({
            "rows": [
                {"k": r.k, "gamma": r.gamma, "scale": r.scale, "se": r.se,
                 "converged": r.converged, "error": r.error}
                for r in path
            ],
        }, output)


def _parse_scedasis_spec(text: str | None, m: int):
    if text is None:
        return None
    try:
        descriptors = json.loads(text)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"--scedasis is not valid JSON: {exc}") from None
    if not isinstance(descriptors, list) or len(descriptors) != m:
        raise click.UsageError(f"--scedasis must be a JSON list of {m} descriptors")
    funcs = []
    for d in descriptors:
        kind = d.get("kind") if isinstance(d, dict) else None
        if kind == "constant":
            funcs.append(mc.constant_scedasis(float(d.get("level", 1.0))))
        elif kind == "linear":
            funcs.append(mc.linear_scedasis(float(d["start"]), float(d["end"])))
        else:
            raise click.UsageError(
                f"unknown scedasis descriptor {d!r}; use "
                '{"kind": "constant", "level": v} or '
                '{"kind": "linear", "start": a, "end": b}'
            )
    return tuple(funcs)


def _parse_pair(text: str):
    try:
        left, right = text.split(":")
        j1, s1, t1 = left.split(",")
        j2, s2, t2 = right.split(",")
        return ((int(j1), float(s1), float(t1)), (int(j2), float(s2), float(t2)))
    except ValueError:
        raise click.UsageError(
            f"bad --pair {text!r}; expected 'j1,s1,t1:j2,s2,t2'"
        ) from None


@main.command("mc")
@click.option("--harness", type=click.Choice(["size", "cov", "mle"]), required=True)
@click.option("--n", type=int, default=5000, show_default=True)
@click.option("--m", type=int, default=2, show_default=True)
@click.option("--gamma", type=float, default=0.25, show_default=True)
@click.option("--dependence", type=click.Choice(["independent", "logistic", "comonotone"]),
              default="independent", show_default=True)
@click.option("--alpha", type=float, default=None, help="Logistic dependence parameter.")
@click.option("--scedasis", "scedasis_json", default=None,
              help='JSON list of per-station descriptors, e.g. '
                   '\'[{"kind":"linear","start":0.5,"end":1.5}]\'.')
@click.option("--k", type=int, required=True)
@click.option("--reps", type=int, default=500, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--which", type=click.Choice(["space", "time"]), default="space",
              show_default=True, help="Test for --harness size.")
@click.option("--station", type=int, default=0, show_default=True,
              help="Station for the time test.")
@click.option("--level", type=float, default=0.05, show_default=True)
@click.option("--pair", "pair_texts", multiple=True,
              help="Coordinate pair 'j1,s1,t1:j2,s2,t2' for --harness cov; repeatable.")
@click.option("--threads", type=int, default=None,
              help="Worker threads (default: SCEDEX_THREADS or 1).")
@_output_opt
@_dry_opt
@_analysis_command
def mc_cmd(harness, n, m, gamma, dependence, alpha, scedasis_json, k, reps, seed,
           which, station, level, pair_texts, threads, output, dry_run):
    """Monte Carlo harnesses on synthetic panels with known tail behaviour."""
    funcs = _parse_scedasis_spec(scedasis_json, m)
    if dry_run:
        spec = mc.SimSpec(n=n, m=m, gamma=gamma, dependence=dependence,
                          alpha=alpha, scedasis=funcs, seed=seed)
        return _dry_run_report("mc", harness=harness, n=n, m=m, gamma=gamma,
                               dependence=dependence, alpha=alpha, k=k,
                               reps=reps, seed=seed)
    spec = mc.SimSpec(n=n, m=m, gamma=gamma, dependence=dependence,
                      alpha=alpha, scedasis=funcs, seed=seed)
    if harness == "size":
        report = mc.mc_test_size(spec, k, which=which, reps=reps, level=level,
                                 station=station, threads=threads)
    elif harness == "cov":
        if pair_texts:
            pairs = [_parse_pair(t) for t in pair_texts]
        elif m > 1:
            pairs = [(((0, 1.0, 1.0)), ((1, 1.0, 1.0)))]
        else:
            pairs = [(((0, 1.0, 1.0)), ((0, 1.0, 1.0)))]
        report = mc.mc_covariance_check(spec, k, pairs, reps=reps, threads=threads)
    else:
        report = mc.mc_mle_variance(spec, k, reps=reps, threads=threads)
    _emit_json({
        "harness": harness,
        "replications": report.replications,
        "skipped": report.skipped,
        "rejection_rate": report.rejection_rate,
        "monte_carlo_se": report.monte_carlo_se,
        "summaries": report.summaries,
        "details": [
            {**d, "pair": [list(map(float, c)) for c in d["pair"]]}
            for d in report.details
        ] if report.details else [],
    }, output)


if __name__ == "__main__":
    main()
