"""Golden payloads: the stdout of every analysis command, the Monte Carlo
harnesses and a few failing inputs, compared byte for byte with the text
files under ``tests/golden``.

The panels come from ``simulate_panel`` at pinned seeds and are written to
CSV here: one complete, one with holes (S01 lacks its first 30% of days,
and a fixed mask blanks scattered cells), and one rounded to one decimal so
that the pooled threshold ties.  A change that moves a payload on purpose
rewrites the files it moves with

    PYTHONPATH=src python tests/test_golden.py

and declares each moved file as a payload change.
"""

import pathlib

import numpy as np
import pytest
from click.testing import CliRunner

from scedex.cli import main
from scedex.mc import SimSpec, simulate_panel

GOLDEN = pathlib.Path(__file__).with_name("golden")

PANELS = {
    "complete": (SimSpec(n=3000, m=6, gamma=0.1, dependence="logistic", alpha=0.6, seed=7),
                 "%.10g"),
    "holed": (SimSpec(n=3000, m=8, gamma=0.25,
                      scedasis=((1.0, 1.0), (0.5, 1.5)) + ((1.0, 1.0),) * 6, seed=8),
              "%.10g"),
    "rounded": (SimSpec(n=2000, m=4, gamma=0.1, dependence="logistic", alpha=0.8, seed=9),
                "%.1f"),
}


def _write_panels(directory: pathlib.Path) -> None:
    for name, (spec, fmt) in PANELS.items():
        p = simulate_panel(spec)
        cells = np.char.mod(fmt, p.values).astype(object)
        if name == "holed":
            cells[np.random.default_rng(spec.seed).random(cells.shape) < 0.02] = "na"
            cells[: int(0.3 * spec.n), 0] = ""
        days = np.datetime_as_string(p.day_labels).tolist()
        lines = ["date," + ",".join(p.station_ids)]
        lines += [day + "," + ",".join(row) for day, row in zip(days, cells.tolist())]
        (directory / f"{name}.csv").write_text("\n".join(lines) + "\n")
    # rows out of date order: a structured failure at ingest
    (directory / "unsorted.csv").write_text(
        "date,A,B\n2000-01-02,1,2\n2000-01-01,3,4\n")


def _analysis_cases(panel: str, k: int, k_path: str) -> dict:
    k_min, k_max, k_step = k_path.split(":")
    path = ["--k-min", k_min, "--k-max", k_max, "--k-step", k_step]
    base = ["--input", f"{panel}.csv"]
    cases = {
        "ingest-check": ["ingest-check"],
        "scedasis": ["scedasis", "--k", str(k), "--grid", "10"],
        "scedasis-json": ["scedasis", "--k", str(k), "--grid", "10", "--format", "json"],
        "sigma1": ["sigma1", "--k", str(k)],
        "test-space": ["test-space", "--k", str(k)],
        "test-space-k2": ["test-space", "--k", str(3 * k)],
        "test-time": ["test-time", "--k", str(k)],
        "sweep-space": ["sweep", *path],
        "sweep-time": ["sweep", "--which", "time", "--station", "S01", *path],
        "gamma-path": ["gamma-path", *path],
        "fit-gp": ["fit-gp", "--k", str(k), "--with-cov"],
    }
    return {f"{panel}/{name}": args + base for name, args in cases.items()}


MC = ["mc", "--n", "2000", "--m", "3", "--k", "100"]
LOGISTIC = ["--gamma", "0.1", "--dependence", "logistic", "--alpha", "0.6"]

# name -> (args, expected exit status); a failure's golden is its stderr report
CASES = {
    **{name: (args, 0) for name, args in {
        **_analysis_cases("complete", 300, "100:900:200"),
        **_analysis_cases("holed", 200, "20:620:150"),
        **_analysis_cases("rounded", 120, "30:480:90"),
        "holed/ingest-check-winter": ["ingest-check", "--input", "holed.csv",
                                      "--season", "winter", "--gap", "0"],
        "rounded/gamma-path-small-k": ["gamma-path", "--input", "rounded.csv",
                                       "--k-min", "2", "--k-max", "14", "--k-step", "4"],
        "mc/size": [*MC, "--harness", "size", "--reps", "20"],
        "mc/size-time": [*MC, "--harness", "size", "--which", "time", "--station", "1",
                         "--reps", "10"],
        "mc/cov": [*MC, "--harness", "cov", "--reps", "6", *LOGISTIC,
                   "--pair", "0,1,1:1,1,1", "--pair", "0,1,0.5:0,0.5,1"],
        "mc/mle": [*MC, "--harness", "mle", "--reps", "5", *LOGISTIC],
    }.items()},
    **{name: (args, 1) for name, args in {
        "fail/test-space-k-too-large": ["test-space", "--input", "holed.csv", "--k", "30000"],
        "fail/fit-gp-too-few-excesses": ["fit-gp", "--input", "complete.csv", "--k", "5"],
        "fail/fit-gp-shape-boundary": ["fit-gp", "--input", "rounded.csv", "--k", "10"],
        "fail/test-time-unknown-station": ["test-time", "--input", "rounded.csv", "--k", "50",
                                           "--station", "S99"],
        "fail/unsorted-dates": ["test-space", "--input", "unsorted.csv", "--k", "1"],
        "fail/mc-negative-seed": [*MC, "--harness", "size", "--reps", "3", "--seed", "-1"],
    }.items()},
}

# the size harness's payload does not depend on the thread count
THREADED = {"mc/size": ["1", "3"]}


def _runner() -> CliRunner:
    try:  # click < 8.2 mixes stderr into stdout unless told not to
        return CliRunner(mix_stderr=False)
    except TypeError:
        return CliRunner()


def _run(runner: CliRunner, args: list, status: int) -> str:
    result = runner.invoke(main, args)
    assert result.exit_code == status, (result.exit_code, result.stdout, result.exception)
    if status == 0:
        return result.stdout
    assert result.stdout == ""
    return f"exit {status}\n{result.stderr}"


@pytest.fixture(scope="module")
def panels(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_panels(directory)
    return directory


@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_matches_its_golden_file(name, panels, monkeypatch):
    monkeypatch.chdir(panels)  # the payloads name their input relative to it
    args, status = CASES[name]
    want = (GOLDEN / f"{name}.txt").read_text()
    runner = _runner()
    for threads in THREADED.get(name, [None]):
        extra = [] if threads is None else ["--threads", threads]
        assert _run(runner, args + extra, status) == want, (name, threads)


def test_every_golden_file_has_a_case():
    stored = {str(p.relative_to(GOLDEN).with_suffix("")) for p in GOLDEN.rglob("*.txt")}
    assert stored == set(CASES)


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.environ["XDG_CACHE_HOME"] = tmp  # leave the user's panel cache alone
        _write_panels(pathlib.Path(tmp))
        os.chdir(tmp)
        runner = _runner()
        for name, (args, status) in sorted(CASES.items()):
            target = GOLDEN / f"{name}.txt"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(_run(runner, args, status))
