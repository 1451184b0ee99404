"""End-to-end tests of the command line frontend via click's CliRunner."""

import json
import os
import stat
from collections import Counter
import subprocess
import sys
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner

import scedex
from scedex import dependence, gp_mle, mc, panel, scedasis, trend_tests
from scedex.cli import main

from conftest import wait_for_clock

COMMANDS = ["ingest-check", "scedasis", "sigma1", "test-space", "test-time",
            "sweep", "fit-gp", "gamma-path", "mc"]


def _write_panel(path, values, start="2000-01-01", missing=()):
    """Render a values matrix as the CSV format the loader expects."""
    n, m = values.shape
    names = [f"stn_{chr(ord('a') + j)}" for j in range(m)]
    days = np.datetime64(start) + np.arange(n)
    lines = ["date," + ",".join(names)]
    for i in range(n):
        cells = []
        for j in range(m):
            if (i, j) in missing:
                cells.append("" if (i + j) % 2 else "nan")
            else:
                cells.append(repr(float(values[i, j])))
        lines.append(f"{days[i]}," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return names


@pytest.fixture(scope="module")
def panel_csv(tmp_path_factory):
    rng = np.random.default_rng(42)
    values = 10.0 * rng.pareto(2.5, size=(550, 3)) + rng.uniform(0.0, 0.01, (550, 3))
    f = tmp_path_factory.mktemp("cli") / "panel.csv"
    _write_panel(f, values, missing={(5, 0), (17, 2)})
    return f


@pytest.fixture()
def runner():
    return CliRunner()


def _stderr(result):
    try:
        return result.stderr
    except (AttributeError, ValueError):
        return ""


def _ok(result):
    assert result.exit_code == 0, (
        f"exit {result.exit_code}\nstdout: {result.output}\n"
        f"stderr: {_stderr(result)}\nexc: {result.exception!r}"
    )
    return result


# ---------------------------------------------------------------------------
# Group-level behaviour
# ---------------------------------------------------------------------------


def test_help_lists_every_command(runner):
    result = _ok(runner.invoke(main, ["--help"]))
    for name in COMMANDS:
        assert name in result.output


def test_version(runner):
    result = _ok(runner.invoke(main, ["--version"], prog_name="scedex"))
    assert result.output == f"scedex, version {scedex.__version__}\n"


# Every command with the arguments that exercise its analysis path.
_TREND = '[{"kind": "linear", "start": 0.5, "end": 1.5}, {"kind": "constant"}]'
_SCIPY_FREE_RUNS = {
    "ingest-check": [[]],
    "scedasis": [["--k", "60"]],
    "sigma1": [["--k", "60"]],
    "test-space": [["--k", "60"]],
    "test-time": [["--k", "60"]],
    "sweep": [["--k-min", "40", "--k-max", "80", "--k-step", "20"],
              ["--which", "time", "--station", "0",
               "--k-min", "40", "--k-max", "80", "--k-step", "20"]],
    "gamma-path": [["--k-min", "40", "--k-max", "80", "--k-step", "20"]],
    "fit-gp": [["--k", "60"], ["--k", "60", "--with-cov"]],
    "mc": [["--harness", "size", "--n", "400", "--m", "2", "--k", "30", "--reps", "3"],
           ["--harness", "size", "--which", "time", "--n", "400", "--m", "2",
            "--k", "30", "--reps", "3"],
           ["--harness", "mle", "--n", "400", "--m", "2", "--k", "40", "--reps", "3"],
           ["--harness", "cov", "--n", "400", "--m", "2", "--k", "30", "--reps", "3",
            "--dependence", "logistic", "--alpha", "0.6", "--pair", "0,1,0.6:1,0.5,0.8"],
           ["--harness", "size", "--n", "400", "--m", "2", "--k", "30", "--reps", "3",
            "--scedasis", _TREND],
           ["--harness", "size", "--which", "time", "--n", "400", "--m", "2", "--k", "30",
            "--reps", "3", "--scedasis", _TREND]],
}


def test_analysis_commands_load_no_scipy(panel_csv, tmp_path):
    """Import the CLI and run every command in one fresh interpreter where
    importing scipy fails: neither the import nor any command needs it."""
    assert set(_SCIPY_FREE_RUNS) == set(main.commands)
    runs = [[name, *args, *([] if name == "mc" else ["--input", str(panel_csv)]),
             "--output", str(tmp_path / f"{name}-{i}.out")]
            for name, arg_lists in _SCIPY_FREE_RUNS.items()
            for i, args in enumerate(arg_lists)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(scedex.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from scedex.cli import main\n"
        "report = []\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    try:\n"
        "        main.main(args, standalone_mode=False)\n"
        "        code = 0\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "    except ImportError as exc:\n"
        "        code = repr(exc)\n"
        "    report.append([' '.join(args[:3]), code])\n"
        "print(json.dumps(report))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    assert len(report) == len(runs)
    for label, code in report:
        assert code == 0, f"{label}: exit {code}\n{out.stderr}"


def test_missing_input_is_a_usage_error(runner, tmp_path):
    result = runner.invoke(
        main, ["test-space", "--input", str(tmp_path / "nope.csv"), "--k", "10"])
    assert result.exit_code == 2
    assert "input file not found" in (_stderr(result) + result.output)


# ---------------------------------------------------------------------------
# ingest-check
# ---------------------------------------------------------------------------


def test_ingest_check_reports_shape(runner, panel_csv):
    result = _ok(runner.invoke(main, ["ingest-check", "--input", str(panel_csv)]))
    payload = json.loads(result.output)
    assert payload["stations"] == ["stn_a", "stn_b", "stn_c"]
    assert payload["rows_raw"] == 550
    # default gap=2 declusters, so the analysed panel is strictly smaller
    assert 0 < payload["rows_after_selection"] < 550
    assert payload["date_min"] == "2000-01-01"
    assert payload["date_max"] == str(np.datetime64("2000-01-01") + 549)
    assert payload["missing_cells"] == 2
    assert payload["missing_by_station"] == {"stn_a": 1, "stn_b": 0, "stn_c": 1}


def test_ingest_check_counts_observed_cells_per_station(runner, tmp_path):
    # n_j: the cells each station observes after the season split and declustering
    rng = np.random.default_rng(8)
    values = 10.0 * rng.pareto(2.5, size=(400, 3))
    holes = set(zip(rng.integers(0, 400, 80).tolist(), rng.integers(0, 3, 80).tolist()))
    f = tmp_path / "holes.csv"
    names = _write_panel(f, values, missing=holes)
    for season, gap in (("all", 0), ("all", 2), ("winter", 3)):
        payload = json.loads(_ok(runner.invoke(
            main, ["ingest-check", "--input", str(f), "--season", season, "--gap", str(gap)])).stdout)
        p = panel.load_panel(f)
        if season != "all":
            p = panel.split_season(p, panel.SEASONS[season])
        if gap:
            p = panel.decluster(p, gap_days=gap)
        observed = np.count_nonzero(~np.isnan(p.values), axis=0)
        assert payload["observed_by_station"] == dict(zip(names, observed.tolist()))
        if gap == 0 and season == "all":
            assert observed.tolist() == [400 - payload["missing_by_station"][s] for s in names]


def test_ingest_check_reads_a_byte_order_mark(runner, panel_csv, tmp_path):
    # Excel's "CSV UTF-8" export starts the file with U+FEFF
    f = tmp_path / "bom.csv"
    f.write_bytes(b"\xef\xbb\xbf" + panel_csv.read_bytes())
    reports = []
    for path in (panel_csv, f):
        result = _ok(runner.invoke(main, ["ingest-check", "--input", str(path)]))
        reports.append(json.loads(result.output))
        assert reports[-1].pop("input") == str(path)
    assert reports[0] == reports[1]


def test_ingest_check_season_filter(runner, panel_csv):
    full = json.loads(_ok(runner.invoke(
        main, ["ingest-check", "--input", str(panel_csv), "--gap", "0"])).output)
    # the record stops mid-2001 with no day missing: a short last winter is
    # where the record ends, not a gap, so nothing is reported
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wint = json.loads(_ok(runner.invoke(
            main, ["ingest-check", "--input", str(panel_csv), "--gap", "0",
                   "--season", "winter"])).output)
    assert full["rows_after_selection"] == 550
    assert 0 < wint["rows_after_selection"] < 550


# ---------------------------------------------------------------------------
# scedasis / sigma1 output formats
# ---------------------------------------------------------------------------


def test_scedasis_csv_matches_library(runner, panel_csv):
    grid = 20
    result = _ok(runner.invoke(
        main, ["scedasis", "--input", str(panel_csv), "--gap", "0",
               "--k", "60", "--grid", str(grid)]))
    lines = result.output.splitlines()
    assert lines[0] == "station,t,c_hat"
    assert len(lines) == 1 + 3 * (grid + 1)

    curves = scedasis.scedasis_all(panel.load_panel(panel_csv), 60)
    for s, curve in enumerate(curves):
        for i in (0, 7, grid):
            sid, t, c_hat = lines[1 + s * (grid + 1) + i].split(",")
            assert sid == f"stn_{chr(ord('a') + s)}"
            assert float(t) == pytest.approx(i / grid, abs=1e-12)
            assert float(c_hat) == pytest.approx(curve.value(i / grid), rel=1e-10)


def test_scedasis_csv_floats_are_12_significant_digits(runner, panel_csv):
    result = _ok(runner.invoke(
        main, ["scedasis", "--input", str(panel_csv), "--gap", "0",
               "--k", "60", "--grid", "10"]))
    for line in result.output.splitlines()[1:]:
        _, t, c_hat = line.split(",")
        assert t == "%.12g" % float(t)
        assert c_hat == "%.12g" % float(c_hat)


def test_scedasis_json_shares_sum_to_one(runner, panel_csv):
    result = _ok(runner.invoke(
        main, ["scedasis", "--input", str(panel_csv), "--gap", "0",
               "--k", "60", "--format", "json"]))
    payload = json.loads(result.output)
    assert payload["stations"] == ["stn_a", "stn_b", "stn_c"]
    assert len(payload["t"]) == 101
    assert sum(payload["c1"].values()) == pytest.approx(1.0, abs=1e-9)
    for sid, curve in payload["curves"].items():
        assert curve[0] == 0.0
        assert curve[-1] == pytest.approx(payload["c1"][sid], rel=1e-10)


def test_scedasis_rejects_bad_grid(runner, panel_csv):
    result = runner.invoke(
        main, ["scedasis", "--input", str(panel_csv), "--k", "60", "--grid", "0"])
    assert result.exit_code == 2


def test_sigma1_csv_is_a_symmetric_matrix(runner, panel_csv):
    result = _ok(runner.invoke(
        main, ["sigma1", "--input", str(panel_csv), "--gap", "0", "--k", "60"]))
    lines = result.output.splitlines()
    assert lines[0] == "station_i,station_j,sigma1"
    assert len(lines) == 1 + 9
    entries = {}
    for line in lines[1:]:
        si, sj, v = line.split(",")
        entries[si, sj] = float(v)
    for si, sj in entries:
        assert entries[si, sj] == entries[sj, si]
        assert entries[si, sj] >= 0.0
    diag = sum(entries[s, s] for s in ("stn_a", "stn_b", "stn_c"))
    assert diag == pytest.approx(1.0, abs=1e-9)


def test_sigma1_json_payload(runner, panel_csv):
    result = _ok(runner.invoke(
        main, ["sigma1", "--input", str(panel_csv), "--gap", "0", "--k", "60",
               "--format", "json", "--renormalize"]))
    payload = json.loads(result.output)
    matrix = np.asarray(payload["matrix"])
    assert matrix.shape == (3, 3)
    assert payload["renormalize"] is True
    assert payload["tie_count"] >= 0


# ---------------------------------------------------------------------------
# Tests and sweeps
# ---------------------------------------------------------------------------


def test_space_command_matches_library(runner, panel_csv):
    result = _ok(runner.invoke(
        main, ["test-space", "--input", str(panel_csv), "--gap", "0", "--k", "60"]))
    payload = json.loads(result.output)
    res = trend_tests.space_test(panel.load_panel(panel_csv), 60)
    assert payload["statistic"] == pytest.approx(res.statistic, rel=1e-10)
    assert payload["p_value"] == pytest.approx(res.p_value, rel=1e-10)
    assert payload["df"] == 2
    assert payload["m"] == 3
    assert 0.0 <= payload["p_value"] <= 1.0


def test_time_command_covers_all_stations_by_default(runner, panel_csv):
    result = _ok(runner.invoke(
        main, ["test-time", "--input", str(panel_csv), "--gap", "0", "--k", "60"]))
    payload = json.loads(result.output)
    assert set(payload["stations"]) == {"stn_a", "stn_b", "stn_c"}
    assert payload["bonferroni_level"] == pytest.approx(0.05 / 3, rel=1e-10)
    for entry in payload["stations"].values():
        assert 0.0 <= entry["p_value"] <= 1.0
        assert entry["statistic"] >= 0.0
        assert entry["n_exceedances"] > 0
        assert isinstance(entry["reject_corrected"], bool)


def test_time_command_station_by_name_and_index(runner, panel_csv):
    result = _ok(runner.invoke(
        main, ["test-time", "--input", str(panel_csv), "--gap", "0", "--k", "60",
               "--station", "stn_b", "--station", "2", "--alpha", "0.1"]))
    payload = json.loads(result.output)
    assert set(payload["stations"]) == {"stn_b", "stn_c"}
    assert payload["bonferroni_level"] == pytest.approx(0.05, rel=1e-10)


def test_time_command_tests_a_repeated_station_once(runner, panel_csv):
    result = _ok(runner.invoke(
        main, ["test-time", "--input", str(panel_csv), "--gap", "0", "--k", "60",
               "--station", "stn_b", "--station", "1"]))
    payload = json.loads(result.output)
    assert list(payload["stations"]) == ["stn_b"]
    assert payload["bonferroni_level"] == payload["alpha"] == 0.05


@pytest.fixture(scope="module")
def digit_named_csv(tmp_path_factory):
    """A panel whose stations are named "1" and "2"."""
    rng = np.random.default_rng(8)
    values = 10.0 * rng.pareto(2.5, size=(400, 2))
    days = np.datetime64("2000-01-01") + np.arange(400)
    f = tmp_path_factory.mktemp("digits") / "panel.csv"
    f.write_text("date,1,2\n" + "".join(
        f"{d},{a!r},{b!r}\n" for d, (a, b) in zip(days, values.tolist())))
    return f


def test_digit_station_names_match_by_name_first(runner, digit_named_csv):
    p = panel.load_panel(digit_named_csv)
    assert p.station_index("1") == 0
    base = ["--input", str(digit_named_csv), "--gap", "0"]
    result = _ok(runner.invoke(main, ["test-time", *base, "--k", "60", "--station", "1"]))
    stations = json.loads(result.output)["stations"]
    assert list(stations) == ["1"]
    assert stations["1"]["p_value"] == pytest.approx(trend_tests.time_test(p, 60, 0).p_value,
                                                     rel=1e-10)

    result = _ok(runner.invoke(main, ["sweep", *base, "--which", "time", "--station", "1",
                                      "--k-min", "40", "--k-max", "60", "--k-step", "20",
                                      "--format", "json"]))
    payload = json.loads(result.output)
    assert payload["station"] == "1"
    want = trend_tests.k_sweep(p, [40, 60], "time", station=0)
    assert [row["p_value"] for row in payload["rows"]] == pytest.approx(
        [r.p_value for r in want], rel=1e-10)


def test_sweep_csv_rows(runner, panel_csv):
    result = _ok(runner.invoke(
        main, ["sweep", "--input", str(panel_csv), "--gap", "0",
               "--k-min", "20", "--k-max", "60", "--k-step", "20"]))
    lines = result.output.splitlines()
    assert lines[0] == "k,statistic,p_value,error"
    assert [row.split(",")[0] for row in lines[1:]] == ["20", "40", "60"]
    for row in lines[1:]:
        k, stat, p, error = row.split(",")
        assert error == ""
        assert float(stat) >= 0.0
        assert 0.0 <= float(p) <= 1.0


def test_sweep_json_time_variant(runner, panel_csv):
    result = _ok(runner.invoke(
        main, ["sweep", "--input", str(panel_csv), "--gap", "0", "--which", "time",
               "--station", "stn_a", "--k-min", "30", "--k-max", "50",
               "--k-step", "10", "--format", "json"]))
    payload = json.loads(result.output)
    assert payload["which"] == "time"
    assert payload["station"] == "stn_a"
    assert [row["k"] for row in payload["rows"]] == [30, 40, 50]
    assert all(row["error"] is None for row in payload["rows"])


def test_sweep_usage_errors(runner, panel_csv):
    result = runner.invoke(
        main, ["sweep", "--input", str(panel_csv), "--which", "time",
               "--k-min", "30", "--k-max", "50"])
    assert result.exit_code == 2
    assert "--station" in (_stderr(result) + result.output)

    result = runner.invoke(
        main, ["sweep", "--input", str(panel_csv), "--k-min", "50", "--k-max", "20"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# GP fitting commands
# ---------------------------------------------------------------------------


def test_fit_gp_payload(runner, panel_csv):
    result = _ok(runner.invoke(
        main, ["fit-gp", "--input", str(panel_csv), "--gap", "0", "--k", "80"]))
    payload = json.loads(result.output)
    assert payload["converged"] is True
    assert np.isfinite(payload["gamma_hat"])
    assert payload["scale_hat"] > 0.0
    assert payload["k"] == 80
    assert 0 < payload["n_excesses"] <= 80
    assert payload["dropped_ties"] >= 0
    assert "se_gamma" not in payload


def test_fit_gp_with_cov(runner, panel_csv):
    result = _ok(runner.invoke(
        main, ["fit-gp", "--input", str(panel_csv), "--gap", "0", "--k", "80",
               "--with-cov"]))
    payload = json.loads(result.output)
    assert payload["se_gamma"] > 0.0
    assert payload["se_scale_rel"] > 0.0
    assert payload["quadrature_error"] == 0.0  # the covariance is closed-form


def test_fit_gp_has_no_tolerance_option(runner, panel_csv):
    result = runner.invoke(
        main, ["fit-gp", "--input", str(panel_csv), "--k", "80", "--with-cov",
               "--tol", "1e-3"])
    assert result.exit_code == 2
    assert "No such option" in result.output + _stderr(result)


def test_gamma_path_csv(runner, panel_csv):
    result = _ok(runner.invoke(
        main, ["gamma-path", "--input", str(panel_csv), "--gap", "0",
               "--k-min", "40", "--k-max", "140", "--k-step", "50"]))
    lines = result.output.splitlines()
    assert lines[0] == "k,gamma,scale,se,converged,error"
    assert [row.split(",")[0] for row in lines[1:]] == ["40", "90", "140"]
    for row in lines[1:]:
        k, gamma, scale, se, converged, error = row.split(",")
        assert converged == "True" and error == ""
        assert np.isfinite(float(gamma))
        assert float(scale) > 0.0 and float(se) > 0.0


# ---------------------------------------------------------------------------
# Output handling: atomicity, determinism, dry runs
# ---------------------------------------------------------------------------


def test_output_file_matches_stdout_and_leaves_no_temp(runner, panel_csv, tmp_path):
    args = ["test-space", "--input", str(panel_csv), "--gap", "0", "--k", "60"]
    streamed = _ok(runner.invoke(main, args)).output
    target = tmp_path / "out" / "space.json"
    target.parent.mkdir()
    result = _ok(runner.invoke(main, args + ["--output", str(target)]))
    assert result.output == ""
    assert target.read_text() == streamed
    leftovers = [p.name for p in target.parent.iterdir() if p.name != "space.json"]
    assert leftovers == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_file_mode_follows_the_umask(runner, panel_csv, tmp_path, umask, mode):
    target = tmp_path / "space.json"
    previous = os.umask(umask)
    try:
        _ok(runner.invoke(main, ["test-space", "--input", str(panel_csv), "--gap", "0",
                                 "--k", "60", "--output", str(target)]))
    finally:
        os.umask(previous)
    assert stat.S_IMODE(target.stat().st_mode) == mode


_SWEEP_KS = ["--k-min", "40", "--k-max", "140", "--k-step", "50"]


@pytest.mark.parametrize("command", [
    pytest.param(["ingest-check"], id="ingest-check"),
    pytest.param(["scedasis", "--k", "60"], id="scedasis"),
    pytest.param(["sigma1", "--k", "60"], id="sigma1"),
    pytest.param(["test-space", "--k", "60"], id="test-space"),
    pytest.param(["test-time", "--k", "60"], id="test-time"),
    pytest.param(["sweep", *_SWEEP_KS], id="sweep"),
    pytest.param(["fit-gp", "--k", "80", "--with-cov"], id="fit-gp-with-cov"),
    pytest.param(["gamma-path", *_SWEEP_KS], id="gamma-path"),
])
def test_reruns_are_byte_identical(runner, panel_csv, tmp_path, command):
    args = [command[0], "--input", str(panel_csv), "--gap", "0", *command[1:]]
    first, second = tmp_path / "a.out", tmp_path / "b.out"
    _ok(runner.invoke(main, args + ["--output", str(first)]))
    _ok(runner.invoke(main, args + ["--output", str(second)]))
    assert first.read_bytes() == second.read_bytes()


def test_commands_load_and_pool_once(runner, panel_csv, monkeypatch):
    calls = Counter()

    def counting(fn, key):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "scedex" and getattr(
                module, "load_panel", None) is panel.load_panel:
            monkeypatch.setattr(module, "load_panel", counting(panel.load_panel, "load_panel"))
    # every pool() of a panel reads the sample the panel sorted on first use
    sorted_values = panel.PanelSample.sorted_values
    monkeypatch.setattr(sorted_values, "func", counting(sorted_values.func, "sort"))

    _ok(runner.invoke(main, ["test-time", "--input", str(panel_csv), "--k", "60"]))
    assert calls == {"load_panel": 1, "sort": 1}  # one sort for all three stations
    calls.clear()
    _ok(runner.invoke(main, ["ingest-check", "--input", str(panel_csv)]))
    assert calls == {"load_panel": 1}


PANEL_COMMANDS = [c for c in COMMANDS if c != "mc"]
_SHARED_OPTIONS = ["--input", "--season", "--gap", "--output", "--dry-run"]

# Each panel command's own flags and the values its dry run must report.
_DRY_RUNS = {
    "ingest-check": ([], {}),
    "scedasis": (["--k", "60", "--format", "json"],
                 {"k": 60, "renormalize": False, "grid": 100}),
    "sigma1": (["--k", "60", "--renormalize"], {"k": 60, "renormalize": True}),
    "test-space": (["--k", "60"], {"k": 60}),
    "test-time": (["--k", "60", "--station", "stn_b", "--station", "0"],
                  {"k": 60, "station": ["stn_b", "0"], "alpha": 0.05}),
    "sweep": ([*_SWEEP_KS, "--format", "json"],
              {"which": "space", "k_min": 40, "k_max": 140, "k_step": 50}),
    "fit-gp": (["--k", "80", "--with-cov"], {"k": 80, "with_cov": True}),
    "gamma-path": (_SWEEP_KS, {"k_min": 40, "k_max": 140, "k_step": 50}),
}


@pytest.mark.parametrize("command", PANEL_COMMANDS)
def test_dry_run_validates_without_writing(runner, panel_csv, tmp_path, command):
    args, own = _DRY_RUNS[command]
    target = tmp_path / "never.out"
    result = _ok(runner.invoke(
        main, [command, "--input", str(panel_csv), "--season", "winter", "--gap", "3",
               *args, "--dry-run", "--output", str(target)]))
    assert not target.exists()
    lines = result.output.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "dry_run": True,
        "command": command,
        "params": {"input": str(panel_csv), "season": "winter", "gap": 3, **own},
    }


@pytest.mark.parametrize("command", PANEL_COMMANDS)
def test_help_lists_the_shared_options(runner, command):
    result = _ok(runner.invoke(main, [command, "--help"]))
    for option in _SHARED_OPTIONS:
        assert option in result.output


@pytest.mark.parametrize("command", ["sweep", "gamma-path"])
def test_bad_k_range_is_a_usage_error_even_in_a_dry_run(runner, panel_csv, command):
    for ks in (["--k-min", "50", "--k-max", "20"],
               ["--k-min", "0", "--k-max", "20"],
               ["--k-min", "10", "--k-max", "20", "--k-step", "0"]):
        result = runner.invoke(
            main, [command, "--input", str(panel_csv), *ks, "--dry-run"])
        assert result.exit_code == 2, ks
        assert "--k-" in _stderr(result) + result.output


@pytest.mark.parametrize("command, args, flag", [
    ("fit-gp", ["--k", "100", "--gap", "-1"], "--gap"),
    ("ingest-check", ["--gap", "-1"], "--gap"),
    ("test-time", ["--k", "60", "--alpha", "2"], "--alpha"),
    ("test-time", ["--k", "60", "--alpha", "0"], "--alpha"),
    ("scedasis", ["--k", "0"], "--k"),
    ("sigma1", ["--k", "0"], "--k"),
    ("test-space", ["--k", "0"], "--k"),
    ("test-time", ["--k", "-3"], "--k"),
    ("fit-gp", ["--k", "0"], "--k"),
])
def test_out_of_range_flag_is_a_usage_error_even_in_a_dry_run(runner, panel_csv, command,
                                                               args, flag):
    for extra in ([], ["--dry-run"]):
        result = runner.invoke(main, [command, "--input", str(panel_csv), *args, *extra])
        assert result.exit_code == 2, (args, extra)
        assert flag in _stderr(result) + result.output
        assert result.stdout == ""


@pytest.mark.parametrize("where", ["directory", "missing directory"])
@pytest.mark.parametrize("command, args", [
    ("ingest-check", []),
    ("test-space", ["--k", "60"]),
    ("mc", ["--harness", "size", "--n", "400", "--k", "30", "--reps", "5"]),
])
def test_unwritable_output_is_a_usage_error_even_in_a_dry_run(runner, panel_csv, tmp_path,
                                                                where, command, args):
    output = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    if command != "mc":
        args = ["--input", str(panel_csv), *args]
    for extra in ([], ["--dry-run"]):
        result = runner.invoke(main, [command, *args, "--output", str(output), *extra])
        assert result.exit_code == 2, extra
        assert "--output" in _stderr(result) + result.output
        assert result.stdout == ""
    assert list(tmp_path.iterdir()) == []


# Each panel command's own flags for a run that passes the usage checks and
# then fails, the error it fails with, the module that raises it, and the
# params its report must carry.
_FAILURES = {
    "ingest-check": ([], "PanelFormatError", "panel", {}),
    "scedasis": (["--k", "999999"], "RangeError", "tail", {"k": 999999}),
    "sigma1": (["--k", "999999"], "RangeError", "tail", {"k": 999999}),
    "test-space": (["--k", "999999"], "RangeError", "tail", {"k": 999999}),
    "test-time": (["--k", "999999", "--station", "1"], "RangeError", "tail",
                  {"k": 999999, "station": ["1"]}),
    "sweep": (["--which", "time", "--station", "nope", *_SWEEP_KS], "DomainError", "panel",
              {"which": "time", "station": "nope"}),
    "fit-gp": (["--k", "5"], "InsufficientDataError", "gp_mle", {"k": 5}),
    "gamma-path": (_SWEEP_KS, "PanelFormatError", "panel", {"k_min": 40}),
}


@pytest.mark.parametrize("command", PANEL_COMMANDS)
def test_runtime_error_renders_structured_report(runner, panel_csv, tmp_path, command):
    args, error, module, params = _FAILURES[command]
    source = panel_csv
    if error == "PanelFormatError":
        source = tmp_path / "bad.csv"
        source.write_text("date,A\n2000-01-01,1\n2000-01-02,oops\n")
    result = runner.invoke(main, [command, "--input", str(source), "--gap", "0", *args])
    assert result.exit_code == 1
    report = json.loads(_stderr(result) or result.output)
    assert set(report) == {"error", "module", "message", "hint", "command", "params"}
    assert report["error"] == error
    assert report["module"] == module
    assert report["command"] == command
    given = {"input": str(source), "season": "all", "gap": 0, "dry_run": False, **params}
    assert given.items() <= report["params"].items()
    assert report["message"]
    assert report["hint"]


@pytest.mark.parametrize("command,args", [
    ("ingest-check", []),
    ("test-space", ["--k", "1"]),
    ("sweep", ["--k-min", "1", "--k-max", "2"]),
    ("sweep", ["--which", "time", "--station", "A", "--k-min", "1", "--k-max", "2"]),
])
def test_panel_with_no_observed_value_renders_structured_report(runner, tmp_path,
                                                                 command, args):
    """ingest-check describes the file at every --gap; an analysis command
    fails with the structured report."""
    f = tmp_path / "empty.csv"
    f.write_text("date,A,B\n2000-01-01,,\n2000-01-02,na,\n")
    if command == "ingest-check":
        for gap in ("0", "1", "2"):
            payload = json.loads(_ok(runner.invoke(
                main, [command, "--input", str(f), "--gap", gap])).output)
            assert (payload["rows_raw"], payload["rows_after_selection"]) == (2, 0)
            assert payload["missing_by_station"] == {"A": 2, "B": 2}
        return
    result = runner.invoke(main, [command, "--input", str(f), *args])
    assert result.exit_code == 1
    assert result.stdout == ""
    report = json.loads(_stderr(result))
    assert (report["error"], report["module"]) == ("EmptyPoolError", "panel")
    assert report["params"]["gap"] == 2


@pytest.fixture(scope="module")
def tied_csv(tmp_path_factory):
    """30 days x 2 stations, every value 1.0: at any k the whole top k ties
    with the threshold and nothing exceeds it."""
    f = tmp_path_factory.mktemp("cli") / "tied.csv"
    _write_panel(f, np.ones((30, 2)))
    return f


@pytest.mark.parametrize("command,args", [
    ("scedasis", ["--renormalize", "--format", "json"]),
    ("scedasis", ["--renormalize"]),
    ("sigma1", ["--renormalize"]),
    ("test-space", []),
    ("test-time", []),
])
def test_no_exceedance_renders_structured_report(runner, tied_csv, command, args):
    result = runner.invoke(main, [command, "--input", str(tied_csv), "--k", "5", *args])
    assert result.exit_code == 1
    assert result.stdout == ""
    report = json.loads(_stderr(result))
    assert report["error"] == "NoExceedanceError"
    assert report["message"] == "no strict exceedances of the pooled threshold"


def test_non_utf8_input_renders_structured_report(runner, tmp_path):
    f = tmp_path / "latin.csv"
    f.write_bytes(b"date,A\n2000-01-01,1\n2000-01-02,\xff\n")
    result = runner.invoke(main, ["ingest-check", "--input", str(f)])
    assert result.exit_code == 1
    report = json.loads(_stderr(result) or result.output)
    assert report["error"] == "PanelFormatError"
    assert report["command"] == "ingest-check"
    assert report["message"] == "line 3: cannot decode byte 0xff as UTF-8"


# ---------------------------------------------------------------------------
# Monte Carlo command
# ---------------------------------------------------------------------------

MC_BASE = ["mc", "--n", "400", "--m", "2", "--k", "30", "--reps", "5", "--seed", "3"]


def test_mc_size_smoke_and_determinism(runner):
    args = MC_BASE + ["--harness", "size"]
    first = _ok(runner.invoke(main, args))
    payload = json.loads(first.output)
    assert payload["harness"] == "size"
    assert payload["replications"] == 5
    assert 0.0 <= payload["rejection_rate"] <= 1.0
    assert payload["monte_carlo_se"] >= 0.0
    second = _ok(runner.invoke(main, args))
    assert second.output == first.output


def test_mc_time_size_variant(runner):
    result = _ok(runner.invoke(
        main, MC_BASE + ["--harness", "size", "--which", "time", "--station", "1"]))
    assert 0.0 <= json.loads(result.output)["rejection_rate"] <= 1.0


def test_mc_cov_pair_round_trip(runner):
    result = _ok(runner.invoke(
        main, MC_BASE + ["--harness", "cov", "--dependence", "logistic",
                         "--alpha", "0.6", "--pair", "0,1.0,1.0:1,0.5,1.0"]))
    payload = json.loads(result.output)
    assert payload["details"][0]["pair"] == [[0.0, 1.0, 1.0], [1.0, 0.5, 1.0]]
    assert payload["rejection_rate"] is None


def test_mc_mle_smoke(runner):
    result = _ok(runner.invoke(
        main, ["mc", "--harness", "mle", "--n", "400", "--m", "1", "--k", "40",
               "--reps", "5", "--seed", "3"]))
    payload = json.loads(result.output)
    assert payload["summaries"]
    assert payload["replications"] == 5


def test_mc_scedasis_descriptors(runner):
    spec = json.dumps([{"kind": "linear", "start": 0.5, "end": 1.5},
                       {"kind": "constant", "level": 1.0}])
    result = _ok(runner.invoke(
        main, MC_BASE + ["--harness", "size", "--scedasis", spec]))
    assert 0.0 <= json.loads(result.output)["rejection_rate"] <= 1.0


@pytest.mark.parametrize("text", [
    "not json",
    '[{"kind": "constant"}]',                      # wrong count for m=2
    '[{"kind": "quadratic"}, {"kind": "constant"}]',
    '[{"kind": "linear"}, {"kind": "constant"}]',  # no start and end
    '[{"kind": "constant", "level": "high"}, {"kind": "constant"}]',
])
def test_mc_rejects_bad_scedasis_descriptors(runner, text):
    for extra in ([], ["--dry-run"]):
        result = runner.invoke(main, MC_BASE + ["--harness", "size", "--scedasis", text, *extra])
        assert result.exit_code == 2, result.exception
        assert "scedasis" in _stderr(result) + result.output


def test_mc_rejects_bad_pair_syntax(runner):
    for pairs in (["0,1.0"], ["garbage"], ["0,1.0,1.0:1,0.5,1.0", "0,x,1:1,1,1"]):
        for extra in ([], ["--dry-run"]):
            args = [a for text in pairs for a in ("--pair", text)]
            result = runner.invoke(main, MC_BASE + ["--harness", "cov", *args, *extra])
            assert result.exit_code == 2, (pairs, extra)
            assert "--pair" in _stderr(result) + result.output
            assert result.stdout == ""


@pytest.mark.parametrize("level", ["2", "0", "1"])
def test_mc_level_out_of_range_is_a_usage_error_even_in_a_dry_run(runner, level):
    for extra in ([], ["--dry-run"]):
        result = runner.invoke(main, MC_BASE + ["--harness", "size", "--level", level, *extra])
        assert result.exit_code == 2, extra
        assert "--level" in _stderr(result) + result.output
        assert result.stdout == ""


@pytest.mark.parametrize("args, params", [
    (["--harness", "size", "--which", "time", "--station", "7"], {"station": 7}),
    (["--harness", "cov", "--pair", "0,3,1:1,1,1"],      # checked before simulating
     {"pairs": [[[0, 3.0, 1.0], [1, 1.0, 1.0]]]}),
])
def test_mc_runtime_error_names_the_mc_module(runner, args, params):
    result = runner.invoke(main, MC_BASE + args)
    assert result.exit_code == 1
    report = json.loads(_stderr(result) or result.output)
    assert report["error"] == "RangeError"
    assert report["module"] == "mc"
    assert report["command"] == "mc"
    assert params.items() <= report["params"].items()


@pytest.mark.parametrize("harness", ["size", "cov", "mle"])
def test_mc_k_below_one_is_a_usage_error_even_in_a_dry_run(runner, harness):
    for extra in ([], ["--dry-run"]):
        result = runner.invoke(main, MC_BASE + ["--harness", harness, "--k", "0", *extra])
        assert result.exit_code == 2, extra
        assert "--k" in _stderr(result) + result.output
        assert result.stdout == ""


def test_mc_reps_must_be_positive(runner):
    result = runner.invoke(main, MC_BASE + ["--harness", "size", "--reps", "0"])
    assert result.exit_code == 2
    assert "--reps" in _stderr(result) + result.output


def test_mc_threads_must_be_positive(runner):
    result = runner.invoke(main, MC_BASE + ["--harness", "size", "--threads", "0"])
    assert result.exit_code == 2
    assert "--threads" in _stderr(result) + result.output


def test_mc_nan_frequency_level_is_a_spec_error(runner):
    text = '[{"kind": "constant", "level": "nan"}, {"kind": "constant"}]'
    result = runner.invoke(main, MC_BASE + ["--harness", "size", "--scedasis", text])
    assert result.exit_code == 1
    report = json.loads(_stderr(result) or result.output)
    assert report["error"] == "SimSpecError"
    assert report["module"] == "mc"
    assert "replications" not in report["message"]


@pytest.mark.parametrize("args, message", [
    (["--gamma", "nan"], "shape must be finite and exceed -1/2, got nan"),
    (["--gamma", "inf"], "shape must be finite and exceed -1/2, got inf"),
    (["--alpha", "0.3"], "alpha is the logistic parameter, but dependence is 'independent'"),
    (["--dependence", "comonotone", "--alpha", "0.3"], "dependence is 'comonotone'"),
    (["--scedasis", '[{"kind": "constant", "level": 1e308}, {"kind": "constant", "level": 1e308}]'],
     "frequency lines too large: their masses sum to inf"),
    # a NaN level used to pass every check, run every replication and only
    # then fail in the tail copula
    (["--harness", "cov", "--pair", "0,nan,1:1,1,1"], "level must be finite and positive, got nan"),
])
def test_mc_bad_spec_fails_before_any_replication(runner, monkeypatch, args, message):
    def refuse(*a, **kw):
        raise AssertionError("simulated a spec that should have been refused")

    monkeypatch.setattr(mc, "simulate_panel", refuse)
    # the harness checks its coordinates; a dry run stops before the harness
    coordinates = "--pair" in args
    for extra in ([],) if coordinates else ([], ["--dry-run"]):
        result = runner.invoke(main, MC_BASE + ["--harness", "size", *args, *extra])
        assert result.exit_code == 1, result.output
        report = json.loads(_stderr(result) or result.output)
        assert report["error"] == ("RangeError" if coordinates else "SimSpecError")
        assert report["module"] == "mc"
        assert message in report["message"]


def test_mc_negative_seed_is_a_spec_error(runner):
    # the run and the dry run both end in the structured report, not in a
    # numpy traceback from the simulator
    args = ["mc", "--harness", "size", "--n", "200", "--m", "2", "--k", "20", "--reps", "3",
            "--seed", "-1"]
    for extra in ([], ["--dry-run"]):
        result = runner.invoke(main, args + extra)
        assert result.exit_code == 1, result.output
        report = json.loads(_stderr(result) or result.output)
        assert report["error"] == "SimSpecError"
        assert report["module"] == "mc"
        assert report["command"] == "mc"
        assert "seed must be a non-negative integer, got -1" in report["message"]


def test_one_thread_loads_no_thread_pool(tmp_path):
    """concurrent.futures (and the logging it imports) costs every process
    about 8 ms; only an mc run on more than one thread needs it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(scedex.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "from scedex.cli import main\n"
        "loaded = ['concurrent.futures' in sys.modules]\n"
        "for threads in ('1', '2'):\n"
        "    main.main(['mc', '--harness', 'size', '--n', '300', '--m', '2', '--k', '20',\n"
        "               '--reps', '3', '--threads', threads, '--output', sys.argv[1]],\n"
        "              standalone_mode=False)\n"
        "    loaded.append('concurrent.futures' in sys.modules)\n"
        "print(loaded)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "mc.json")], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[False,", "False,", "True]"]


def test_the_panel_cache_loads_no_hash_library(tmp_path, cache_home):
    """hashlib loads OpenSSL, about 3 MB of a process's peak RSS: the cache
    keys its slots by file status, never by a digest of the contents."""
    f = tmp_path / "panel.csv"
    f.write_text("date,A,B\n2000-01-01,1.5,\n2000-01-02,na,2\n")
    wait_for_clock(f)
    src = os.path.dirname(os.path.dirname(os.path.abspath(scedex.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "import scedex.cli\n"
        "from scedex import panel\n"
        "panel.load_panel(sys.argv[1])\n"
        "panel._parse_fast = None  # the second load must not parse\n"
        "panel.load_panel(sys.argv[1])\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(f)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]"]
    assert len(list(cache_home.glob("*.slot"))) == 1


def test_a_cached_panel_gives_every_command_the_same_output(runner, panel_csv, tmp_path):
    f = tmp_path / "panel.csv"
    f.write_bytes(panel_csv.read_bytes())
    wait_for_clock(f)
    panel.load_panel(f)

    def refuse(*args):
        raise AssertionError("parsed a panel that has a slot")

    for command, runs in _SCIPY_FREE_RUNS.items():
        for extra in runs if command != "mc" else ():
            args = [command, "--input", str(f), *extra]
            with mock.patch.object(panel, "_slot_for", lambda *args: None):
                parsed = _ok(runner.invoke(main, args)).stdout
            with mock.patch.object(panel, "_parse_fast", refuse):
                assert _ok(runner.invoke(main, args)).stdout == parsed, args


# The first call each panel command's body makes.
_FIRST_CALLS = {
    "scedasis": (scedasis, "scedasis_all"),
    "sigma1": (dependence, "sigma1_matrix"),
    "test-space": (trend_tests, "space_test"),
    "test-time": (trend_tests, "time_test"),
    "sweep": (trend_tests, "k_sweep"),
    "fit-gp": (gp_mle, "fit_gp_pml"),
    "gamma-path": (gp_mle, "gamma_path"),
}


@pytest.mark.parametrize("selection", [["--season", "winter", "--gap", "0"], ["--gap", "2"]],
                         ids=["season", "decluster"])
@pytest.mark.parametrize("command", sorted(_FIRST_CALLS))
def test_the_loaded_panel_is_freed_before_the_body_runs(runner, panel_csv, monkeypatch,
                                                        command, selection):
    """Only ingest-check reads the panel as loaded: every other body runs
    with the selected panel alone in memory."""
    assert set(_FIRST_CALLS) == set(main.commands) - {"ingest-check", "mc"}
    load, (module, name) = panel.load_panel, _FIRST_CALLS[command]
    first = getattr(module, name)
    loaded, freed = [], []

    def watch(path):
        p = load(path)
        loaded.append(weakref.ref(p))
        return p

    def probe(*args, **kwargs):
        freed.append(loaded[0]() is None)
        return first(*args, **kwargs)

    monkeypatch.setattr(panel, "load_panel", watch)
    monkeypatch.setattr(module, name, probe)
    args = [command, "--input", str(panel_csv), *_SCIPY_FREE_RUNS[command][0], *selection]
    _ok(runner.invoke(main, args))
    assert freed and all(freed)


@pytest.mark.parametrize("env", [
    {"XDG_CACHE_HOME": "{blocked}"},
    {"XDG_CACHE_HOME": None, "HOME": None},
    {"XDG_CACHE_HOME": "relative/cache", "HOME": None},
], ids=["unwritable", "no-home", "relative-no-home"])
def test_an_unusable_cache_changes_nothing(runner, panel_csv, tmp_path, monkeypatch, env):
    monkeypatch.chdir(tmp_path)  # where a relative cache directory would go
    args = ["ingest-check", "--input", str(panel_csv)]
    want = _ok(runner.invoke(main, args)).stdout
    # a regular file where the cache directory's parent should be: even root
    # cannot create the directory
    (tmp_path / "file").write_text("")
    for name, value in env.items():
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value.format(blocked=tmp_path / "file" / "cache"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            result = _ok(runner.invoke(main, args))
            assert (result.stdout, _stderr(result)) == (want, "")
    assert not (tmp_path / "relative").exists()


def test_mc_dry_run_checks_the_simulation_spec(runner):
    ok = _ok(runner.invoke(main, MC_BASE + ["--harness", "size", "--dry-run"]))
    payload = json.loads(ok.output)
    assert payload == {
        "dry_run": True,
        "command": "mc",
        "params": {"harness": "size", "n": 400, "m": 2, "gamma": 0.25,
                   "dependence": "independent", "k": 30, "reps": 5, "seed": 3,
                   "which": "space", "station": 0, "level": 0.05, "threads": 1},
    }

    # every flag given is reported, as for the panel commands
    scedasis_json = '[{"kind": "constant"}, {"kind": "constant"}]'
    ok = _ok(runner.invoke(main, MC_BASE + [
        "--harness", "cov", "--dependence", "logistic", "--alpha", "0.6",
        "--scedasis", scedasis_json, "--pair", "0,1.0,1.0:1,0.5,1.0", "--which", "time",
        "--station", "1", "--level", "0.1", "--threads", "2", "--dry-run"]))
    assert json.loads(ok.output)["params"] == {
        "harness": "cov", "n": 400, "m": 2, "gamma": 0.25, "dependence": "logistic",
        "alpha": 0.6, "scedasis_json": scedasis_json, "k": 30, "reps": 5, "seed": 3,
        "which": "time", "station": 1, "level": 0.1,
        "pairs": [[[0, 1.0, 1.0], [1, 0.5, 1.0]]], "threads": 2}

    bad = runner.invoke(
        main, MC_BASE + ["--harness", "size", "--gamma", "-0.9", "--dry-run"])
    assert bad.exit_code == 1
    report = json.loads(_stderr(bad) or bad.output)
    assert report["command"] == "mc"
    assert "shape" in report["message"]
