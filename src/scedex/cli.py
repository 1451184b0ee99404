"""Batch command-line frontend.

Wires ingestion -> season split -> declustering -> estimation -> tests and
emits machine-readable CSV/JSON.  Analysis commands are deterministic:
identical input and flags produce byte-identical output (floats are written
with 12 significant digits).  Exit codes: 0 ok, 1 runtime error, 2 usage
error.

Every command runs through one runner.  ``_command`` registers a body,
emits what it returns (a dict as JSON, ``(header, rows)`` as CSV) and turns
a ``ScedexError`` into the structured report on stderr.  ``_panel_command``
adds the shared ``--input/--season/--gap/--output/--dry-run`` stack, checks
that the input exists and validates the flags before anything is read,
prints the dry-run report, and loads and selects the panel its body gets.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

import click
import numpy as np

from . import __version__
from . import errors as err
from . import dependence, gp_mle, mc, panel, scedasis, trend_tests

_FLOAT_FMT = "%.12g"

_HINTS = {
    err.PanelFormatError: "check the CSV header, date column, and cell values",
    err.DateOrderError: "sort rows by date before loading",
    err.DomainError: "change the value the message names to one inside its domain",
    err.EmptySeasonError: "pick a season actually present in the data",
    err.EmptyPoolError: "the selected panel has no observed values",
    err.RangeError: "change the value the message names to one inside its admissible range",
    err.NoExceedanceError: "increase k or pick a different station",
    err.InsufficientDataError: "increase k; at least 10 positive excesses are needed",
    err.SingularCovarianceError: "drop near-duplicate stations or change k",
    err.FitConvergenceError: "try a different k; the optimizer hit a parameter boundary",
    err.SimSpecError: "fix the simulation specification",
}


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
    rename) so a crash never leaves a half-written artifact.  The file gets
    the mode a plain ``open`` would give it under the current umask."""
    if output is None:
        click.echo(text, nl=False)
        return
    directory = os.path.dirname(os.path.abspath(output)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".scedex-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)  # the only way to read it
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        os.replace(tmp_path, output)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _check_output(output: str | None) -> None:
    """A usage error unless ``output`` can name a file in an existing directory."""
    if output is None:
        return
    target = os.path.abspath(output)
    if os.path.isdir(target):
        raise click.UsageError(f"--output is a directory: {output}")
    if not os.path.isdir(os.path.dirname(target)):
        raise click.UsageError(f"--output directory not found: {os.path.dirname(target)}")


def _render(out) -> str:
    """A dict payload as JSON, a ``(header, rows)`` table as CSV."""
    if isinstance(out, dict):
        return json.dumps(_jsonable(out), sort_keys=True, indent=2) + "\n"
    header, rows = out
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("")
            elif isinstance(cell, (float, np.floating)):
                cells.append(_FLOAT_FMT % float(cell) if np.isfinite(cell) else repr(float(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _csv_table(records: list) -> tuple:
    """``(header, rows)`` of dataclass records, one column per field."""
    return ([f.name for f in dataclasses.fields(records[0])],
            [dataclasses.astuple(r) for r in records])


def _structured_failure(exc: err.ScedexError, command: str, params: dict) -> None:
    tb = exc.__traceback__
    while tb.tb_next is not None:  # the innermost frame is the module that raised
        tb = tb.tb_next
    report = {
        "error": type(exc).__name__,
        "module": tb.tb_frame.f_globals["__name__"].rpartition(".")[2],
        "message": str(exc),
        "hint": next((h for c, h in _HINTS.items() if isinstance(exc, c)), "see the message"),
        "command": command,
        "params": {k: v for k, v in params.items() if v is not None},
    }
    click.echo(json.dumps(_jsonable(report), sort_keys=True, indent=2), err=True)
    sys.exit(1)


def _dry_run_report(command: str, params: dict) -> None:
    """One JSON line: the command and its flags' values, without where and
    how the output would go and without unset flags."""
    payload = {"dry_run": True, "command": command,
               "params": {k: v for k, v in params.items()
                          if k not in ("output", "fmt", "dry_run")
                          and v is not None and v != ()}}
    click.echo(json.dumps(_jsonable(payload), sort_keys=True))


_input_opt = click.option("--input", "input", required=True, type=str,
                          help="CSV panel: a date column plus one column per station.")
_season_opt = click.option("--season", type=click.Choice([*panel.SEASONS, "all"]),
                           default="all", show_default=True,
                           help="Keep only this season's days before analysis.")
_gap_opt = click.option("--gap", type=click.IntRange(min=0), default=2, show_default=True,
                        help="Declustering separation in days (0 disables).")
_output_opt = click.option("--output", type=str, default=None,
                           help="Write here (atomically) instead of stdout.")
_format_opt = click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                           default="csv", show_default=True)
_dry_opt = click.option("--dry-run", is_flag=True,
                        help="Validate the configuration and exit without writing.")
_K = click.IntRange(min=1)
_k_opt = click.option("--k", type=_K, required=True)
_LEVEL = click.FloatRange(0.0, 1.0, min_open=True, max_open=True)
_k_range_opts = (
    click.option("--k-min", type=_K, required=True),
    click.option("--k-max", type=int, required=True),
    click.option("--k-step", type=click.IntRange(min=1), default=50, show_default=True),
)


@click.group()
@click.version_option(version=__version__)
def main():
    """Tail trend analysis for station panels: scedasis estimation,
    space/time heterogeneity tests, and pooled generalized Pareto fits."""


def _command(name: str, *options):
    """Register ``body(**params)`` as command ``name`` with ``options``.

    A ``--output`` that names a directory, or a file in a missing one, is a
    usage error before the body runs, in a dry run too.  The body returns
    its payload (a dict, emitted as JSON), a CSV table ``(header, rows)``,
    or None when it has printed what it has to say.  A ``ScedexError``
    becomes the structured report on stderr (exit 1).
    """

    def register(body):
        def run(**params):
            _check_output(params["output"])
            try:
                out = body(**params)
            except err.ScedexError as exc:
                _structured_failure(exc, name, params)  # exits
            if out is not None:
                _emit(_render(out), params["output"])

        run.__doc__ = body.__doc__
        for option in reversed(options):
            run = option(run)
        return main.command(name)(run)

    return register


def _panel_command(name: str, *options, check=None, raw=False):
    """Register ``body(p, **params)`` as a command on a station panel.

    Before anything is read the runner checks that ``--input`` exists and
    calls ``check(**params)``, which raises ``click.UsageError`` on bad
    flags; ``--dry-run`` stops there.  Otherwise it loads the panel and hands
    the body ``p``, the panel after the season split and declustering.  With
    ``raw=True`` the body also gets the panel as loaded, as ``raw``; without
    it the loaded panel is freed once ``p`` is made, so the body runs beside
    one panel, not two.
    """

    def register(body):
        def run(**params):
            if not os.path.isfile(params["input"]):
                raise click.UsageError(f"input file not found: {params['input']}")
            if check is not None:
                check(**params)
            if params["dry_run"]:
                return _dry_run_report(name, params)
            p = panel.load_panel(params["input"])
            loaded = {"raw": p} if raw else {}
            if params["season"] != "all":
                p = panel.split_season(p, panel.SEASONS[params["season"]])
            # nothing observed, nothing to decluster; the estimators raise on the pool
            if params["gap"] > 0 and not np.isnan(p.values).all():
                p = panel.decluster(p, gap_days=params["gap"])
            return body(p, **loaded, **params)

        run.__doc__ = body.__doc__
        return _command(name, _input_opt, _season_opt, _gap_opt, *options,
                        _output_opt, _dry_opt)(run)

    return register


def _check_k_range(k_min, k_max, **_):
    if k_min > k_max:
        raise click.UsageError("need 0 < --k-min <= --k-max and --k-step >= 1")


@_panel_command("ingest-check", raw=True)
def _ingest_check(p, raw, input, season, gap, **_):
    """Validate a panel file and report its shape, date span, and missing data."""
    return {
        "input": input,
        "stations": list(raw.station_ids),
        "rows_raw": raw.n,
        "rows_after_selection": 0 if p.missing_mask.all() else p.n,
        "season": season,
        "gap_days": gap,
        "date_min": str(raw.day_labels[0]),
        "date_max": str(raw.day_labels[-1]),
        "missing_cells": int(raw.missing_mask.sum()),
        "missing_by_station": {
            sid: int(raw.missing_mask[:, j].sum())
            for j, sid in enumerate(raw.station_ids)
        },
        # n_j: each station's observed cells on the analysed days
        "observed_by_station": dict(zip(p.station_ids, (~p.missing_mask).sum(axis=0).tolist())),
    }


@_panel_command(
    "scedasis",
    click.option("--k", type=_K, required=True, help="Number of pooled top order statistics."),
    click.option("--renormalize", is_flag=True,
                 help="Divide by the realised exceedance count instead of k."),
    click.option("--grid", type=click.IntRange(min=1), default=100, show_default=True,
                 help="Evaluate each curve at t = i/grid."),
    _format_opt,
)
def _scedasis(p, k, renormalize, grid, fmt, **_):
    """Integrated relative-frequency curves C_hat_j(t) for every station."""
    curves = scedasis.scedasis_all(p, k, renormalize=renormalize)
    ts = np.arange(grid + 1) / grid
    values = {p.station_ids[c.station]: c.value(ts) for c in curves}
    if fmt == "csv":
        return ["station", "t", "c_hat"], [
            (sid, float(t), v) for sid, vs in values.items() for t, v in zip(ts, vs)
        ]
    return {
        "k": k,
        "renormalize": renormalize,
        "t": ts,
        "stations": list(p.station_ids),
        "curves": values,
        "c1": {p.station_ids[c.station]: c.c1 for c in curves},
    }


@_panel_command("sigma1", _k_opt, click.option("--renormalize", is_flag=True), _format_opt)
def _sigma1(p, k, renormalize, fmt, **_):
    """Empirical pairwise tail-dependence matrix at the pooled threshold."""
    dep = dependence.sigma1_matrix(p, k, renormalize=renormalize)
    if fmt == "csv":
        return ["station_i", "station_j", "sigma1"], [
            (si, sj, float(dep.entries[i, j]))
            for i, si in enumerate(p.station_ids) for j, sj in enumerate(p.station_ids)
        ]
    return {
        "k": k,
        "renormalize": renormalize,
        "stations": list(p.station_ids),
        "matrix": dep.entries,
        "tie_count": dep.tie_count,
    }


@_panel_command("test-space", _k_opt)
def _test_space(p, k, **_):
    """Chi-square test of equal integrated frequencies across stations."""
    res = trend_tests.space_test(p, k)
    return {
        "statistic": res.statistic,
        "df": res.df,
        "p_value": res.p_value,
        "law": res.law,
        "k": res.k,
        "m": p.m,
        "extras": res.extras,
    }


@_panel_command(
    "test-time",
    _k_opt,
    click.option("--station", multiple=True,
                 help="Station name or index; repeatable. Default: all stations."),
    click.option("--alpha", type=_LEVEL, default=0.05, show_default=True,
                 help="Family-wise level for the Bonferroni correction."),
)
def _test_time(p, k, station, alpha, **_):
    """Kolmogorov-Smirnov test of constant frequency over time, per station."""
    # a station named twice (by name and by index, say) is tested once
    idx = list(dict.fromkeys(p.station_index(s) for s in station)) or list(range(p.m))
    results = [trend_tests.time_test(p, k, j) for j in idx]
    corr = trend_tests.bonferroni(np.array([r.p_value for r in results]), alpha=alpha)
    return {
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
    }


def _check_sweep(which, station, **params):
    _check_k_range(**params)
    if which == "time" and station is None:
        raise click.UsageError("--which time requires --station")


@_panel_command(
    "sweep",
    click.option("--which", type=click.Choice(["space", "time"]), default="space",
                 show_default=True),
    *_k_range_opts,
    click.option("--station", default=None, help="Station for --which time."),
    _format_opt,
    check=_check_sweep,
)
def _sweep(p, which, k_min, k_max, k_step, station, fmt, **_):
    """Test statistic and p-value as a function of k."""
    j = None if station is None else p.station_index(station)
    rows = trend_tests.k_sweep(p, list(range(k_min, k_max + 1, k_step)), which, station=j)
    if fmt == "csv":
        return _csv_table(rows)
    return {
        "which": which,
        "station": None if j is None else p.station_ids[j],
        "rows": [dataclasses.asdict(r) for r in rows],
    }


@_panel_command(
    "fit-gp",
    _k_opt,
    click.option("--with-cov", is_flag=True,
                 help="Also estimate dependence-aware standard errors (slower)."),
)
def _fit_gp(p, k, with_cov, **_):
    """Pooled generalized Pareto fit to the top-k excesses."""
    fit = gp_mle.fit_gp_pml(p, k)
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
        cov = gp_mle.mle_asymptotic_cov(fit, p)
        payload["se_gamma"] = cov.se_gamma
        payload["se_scale_rel"] = cov.se_scale_rel
        # closed-form covariance; bench/workloads.py:298 reads the key (ROADMAP item 3)
        payload["quadrature_error"] = 0.0
    return payload


@_panel_command("gamma-path", *_k_range_opts, _format_opt, check=_check_k_range)
def _gamma_path(p, k_min, k_max, k_step, fmt, **_):
    """Shape estimate as a function of k, with reference standard errors."""
    path = gp_mle.gamma_path(p, list(range(k_min, k_max + 1, k_step)))
    if fmt == "csv":
        return _csv_table(path)
    return {"rows": [dataclasses.asdict(r) for r in path]}


def _parse_scedasis_spec(text: str | None, m: int):
    """The ``--scedasis`` descriptors as the ``(start, end)`` lines of a SimSpec."""
    if text is None:
        return None
    try:
        descriptors = json.loads(text)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"--scedasis is not valid JSON: {exc}") from None
    if not isinstance(descriptors, list) or len(descriptors) != m:
        raise click.UsageError(f"--scedasis must be a JSON list of {m} descriptors")
    usage = 'use {"kind": "constant", "level": v} or {"kind": "linear", "start": a, "end": b}'
    lines = []
    for d in descriptors:
        kind = d.get("kind") if isinstance(d, dict) else None
        if kind not in ("constant", "linear"):
            raise click.UsageError(f"unknown scedasis descriptor {d!r}; {usage}")
        try:
            ends = (d.get("level", 1.0),) * 2 if kind == "constant" else (d["start"], d["end"])
            lines.append(tuple(map(float, ends)))
        except (KeyError, TypeError, ValueError):
            raise click.UsageError(
                f"missing or non-numeric values in scedasis descriptor {d!r}; {usage}"
            ) from None
    return tuple(lines)


def _parse_pairs(ctx, param, texts):
    pairs = []
    for text in texts:
        try:
            left, right = text.split(":")
            j1, s1, t1 = left.split(",")
            j2, s2, t2 = right.split(",")
            pairs.append(((int(j1), float(s1), float(t1)), (int(j2), float(s2), float(t2))))
        except ValueError:
            raise click.BadParameter(
                f"bad pair {text!r}; expected 'j1,s1,t1:j2,s2,t2'") from None
    return tuple(pairs)


@_command(
    "mc",
    click.option("--harness", type=click.Choice(["size", "cov", "mle"]), required=True),
    click.option("--n", type=int, default=5000, show_default=True),
    click.option("--m", type=int, default=2, show_default=True),
    click.option("--gamma", type=float, default=0.25, show_default=True),
    click.option("--dependence", type=click.Choice(["independent", "logistic", "comonotone"]),
                 default="independent", show_default=True),
    click.option("--alpha", type=float, default=None, help="Logistic dependence parameter."),
    click.option("--scedasis", "scedasis_json", default=None,
                 help='JSON list of per-station descriptors, e.g. '
                      '\'[{"kind":"linear","start":0.5,"end":1.5}]\'.'),
    _k_opt,
    click.option("--reps", type=click.IntRange(min=1), default=500, show_default=True),
    click.option("--seed", type=int, default=0, show_default=True),
    click.option("--which", type=click.Choice(["space", "time"]), default="space",
                 show_default=True, help="Test for --harness size."),
    click.option("--station", type=int, default=0, show_default=True,
                 help="Station for the time test."),
    click.option("--level", type=_LEVEL, default=0.05, show_default=True),
    click.option("--pair", "pairs", multiple=True, callback=_parse_pairs,
                 help="Coordinate pair 'j1,s1,t1:j2,s2,t2' for --harness cov; repeatable."),
    click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
                 help="Worker threads.  They pay off on large panels only: on 2 cores, "
                      "40 size replications at n=24000, m=32 took 1.58 s on 1 thread "
                      "and 0.87 s on 2, but 300 at n=5000, m=4 took 0.38 s and 0.42 s."),
    _output_opt,
    _dry_opt,
)
def _mc(harness, n, m, gamma, dependence, alpha, scedasis_json, k, reps, seed,
        which, station, level, pairs, threads, output, dry_run):
    """Monte Carlo harnesses on synthetic panels with known tail behaviour."""
    spec = mc.SimSpec(n=n, m=m, gamma=gamma, dependence=dependence, alpha=alpha,
                      scedasis=_parse_scedasis_spec(scedasis_json, m), seed=seed)
    if dry_run:
        return _dry_run_report("mc", click.get_current_context().params)
    if harness == "size":
        report = mc.mc_test_size(spec, k, which=which, reps=reps, level=level,
                                 station=station, threads=threads)
    elif harness == "cov":
        # by default the corner of the first two stations (of the one station)
        pairs = pairs or [((0, 1.0, 1.0), (min(1, m - 1), 1.0, 1.0))]
        report = mc.mc_covariance_check(spec, k, pairs, reps=reps, threads=threads)
    else:
        report = mc.mc_mle_variance(spec, k, reps=reps, threads=threads)
    return {
        "harness": harness,
        "replications": report.replications,
        "skipped": report.skipped,
        "rejection_rate": report.rejection_rate,
        "monte_carlo_se": report.monte_carlo_se,
        "summaries": report.summaries,
        "details": [
            {**d, "pair": [list(map(float, c)) for c in d["pair"]]}
            for d in report.details
        ],
    }


if __name__ == "__main__":
    main()
