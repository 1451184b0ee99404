"""Tests of the benchmark itself: generator, reference, checks, tracer, metrics.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

import scedex  # noqa: E402


def _python(code: str, cwd: str, **env) -> subprocess.CompletedProcess:
    full_env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH, SRC]), **env)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd,
                          env=full_env, capture_output=True, text=True, timeout=120)


# ---------------------------------------------------------------------------
# Generator and independent reference
# ---------------------------------------------------------------------------


def test_generator_is_seeded_and_plants_exact_missing_counts(tmp_path):
    a = workloads.write_panel(str(tmp_path / "a.csv"), 3, 4, with_missing=True, n=600)
    b = workloads.write_panel(str(tmp_path / "b.csv"), 3, 4, with_missing=True, n=600)
    c = workloads.write_panel(str(tmp_path / "c.csv"), 4, 4, with_missing=True, n=600)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()

    p = scedex.load_panel(a.path)
    assert p.n == 600
    assert {s: int(p.missing_mask[:, j].sum()) for j, s in enumerate(p.station_ids)} \
        == a.missing_by_station
    assert a.missing_by_station["S01"] >= 180          # the leading 30% gap
    np.testing.assert_array_equal(np.isnan(a.values), p.missing_mask)
    np.testing.assert_array_equal(a.values[~p.missing_mask], p.values[~p.missing_mask])
    text = (tmp_path / "a.csv").read_text()
    assert ",na," in text or ",na\n" in text
    assert ",nan," in text or ",nan\n" in text
    assert ",," in text or ",\n" in text


@pytest.mark.parametrize("with_missing", [False, True])
def test_reference_tail_matches_scedex(tmp_path, with_missing):
    truth = workloads.write_panel(str(tmp_path / "p.csv"), 5, 6, with_missing, n=3000)
    ref = workloads.reference_tail(truth, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = scedex.decluster(scedex.load_panel(truth.path), gap_days=2)
    assert p.n == ref.rows_kept
    curves = scedex.scedasis_all(p, 200)
    assert [c.n_exceedances for c in curves] == ref.exceedances.tolist()
    assert curves[0].tie_count == ref.ties


def test_reference_decluster_keeps_the_larger_of_two_close_days():
    values = np.array([[1.0], [5.0], [2.0], [np.nan], [0.5], [4.0]])
    days = np.arange(6, dtype=np.int64)
    assert workloads.reference_decluster(values, days, 2).tolist() == [1, 5]
    assert workloads.reference_decluster(values, days, 0).tolist() == [0, 1, 2, 4, 5]


# ---------------------------------------------------------------------------
# Output checks and verdicts
# ---------------------------------------------------------------------------


def _fit_payload(**over):
    d = {"k": 800, "converged": True, "n_excesses": 800, "dropped_ties": 0,
         "gamma_hat": 0.1, "se_gamma": 0.06, "quadrature_error": 1e-4}
    d.update(over)
    return json.dumps(d)


def test_fit_gp_check_catches_each_broken_invariant():
    ctx = {"tail": workloads.TailTruth(rows_kept=10, exceedances=np.zeros(2), ties=0)}
    assert workloads.check_fit_gp(_fit_payload(), ctx, "tail") is None
    assert "independence" in workloads.check_fit_gp(_fit_payload(se_gamma=0.03), ctx, "tail")
    assert "ties" in workloads.check_fit_gp(_fit_payload(dropped_ties=1), ctx, "tail")
    assert "tolerance" in workloads.check_fit_gp(_fit_payload(quadrature_error=0.01), ctx,
                                                 "tail")


def test_mc_check_requires_every_replication_accounted_for():
    out = {"harness": "size", "replications": 299, "skipped": 0, "rejection_rate": 0.05,
           "monte_carlo_se": (0.05 * 0.95 / 299) ** 0.5, "summaries": {"which": "space"}}
    assert "reps" in workloads.check_mc(json.dumps(out), "size", "space")
    out["skipped"] = 1
    assert workloads.check_mc(json.dumps(out), "size", "space") is None
    out["monte_carlo_se"] *= 2
    assert "standard error" in workloads.check_mc(json.dumps(out), "size", "space")


def test_gamma_path_check_counts_rows_and_recomputes_the_se():
    rows = ["k,gamma,scale,se,converged,error"]
    for k in range(200, 2001, 50):
        g = 0.1
        rows.append(f"{k},{g},1.0,{(1 + g) / k ** 0.5:.12g},True,")
    good = "\n".join(rows) + "\n"
    assert workloads.check_gamma_path(good, {}) is None
    assert "rows" in workloads.check_gamma_path("\n".join(rows[:-1]) + "\n", {})
    bad = good.replace(f"{1.1 / 200 ** 0.5:.12g}", "0.5", 1)
    assert "se" in workloads.check_gamma_path(bad, {})


def _run(code=0, out=b"{}", err=b""):
    return run.OpRun("op", 1.0, 10.0, code, out, err)


def test_judge_separates_structured_failures_from_wrong_outputs():
    op = Op("fit", [], lambda out, ctx: None, expect_error="QuadratureError")
    report = json.dumps({"error": "QuadratureError", "module": "gp_mle"}).encode()

    failed = _run(1, b"", b"warning line\n" + report)
    run.judge(op, failed, {}, {})
    assert failed.status == "failed"

    other = _run(1, b"", json.dumps({"error": "RangeError"}).encode())
    run.judge(op, other, {}, {})
    assert other.status == "wrong"

    crash = _run(1, b"", b"Traceback (most recent call last):\nKeyError: 1\n")
    run.judge(op, crash, {}, {})
    assert crash.status == "wrong"

    rerun = Op("again", [], lambda out, ctx: None, same_as="fit")
    differs = _run(0, b"{\"a\": 2}")
    run.judge(rerun, differs, {}, {"fit": _run(0, b"{\"a\": 1}")})
    assert differs.status == "wrong" and "differs" in differs.reason

    checked = Op("x", [], lambda out, ctx: "bad value")
    bad = _run(0)
    run.judge(checked, bad, {}, {})
    assert (bad.status, bad.reason) == ("wrong", "bad value")


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    value, pct, beyond = run.tail_percentile([float(i) for i in range(20)])
    assert (value, pct, beyond) == (9.0, 50.0, 10)
    assert sum(x > value for x in range(20)) == 10


# ---------------------------------------------------------------------------
# Tracer and layer metrics
# ---------------------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    sp = [[0, None, "cli.a", 1, 0.0, 10.0, None],
          [1, 0, "panel.b", 1, 1.0, 4.0, None],
          [2, 1, "tail.c", 1, 2.0, 3.0, None],
          [3, 0, "tail.c", 1, 5.0, 6.0, None]]
    assert spans.self_times(sp) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_layer_metrics_sum_spans_and_derive_ratios():
    trace = {
        "spans": [[0, None, "cli.test_time", 1, 0.0, 2.0, None],
                  [1, 0, "panel.load_panel", 1, 0.0, 1.0, None],
                  [2, 0, "tail.pool", 1, 1.0, 1.5, None]],
        "counts": {"panel.load_bytes": 2_000_000, "panel.decluster_rows_in": 100,
                   "panel.decluster_rows_kept": 25, "mc.replications": 3, "mc.skipped": 1},
        "maxima": {"gp_mle.quadrature_error": 5e-3},
    }
    m = spans.layer_metrics([trace, trace])
    assert m["cli.test_time_s"] == 4.0 and m["cli.self_s"] == 1.0
    assert m["panel.load_panel_calls"] == 2 and m["tail.pool_calls"] == 2
    assert m["panel.ingest_MBps"] == 2.0
    assert m["panel.decluster_kept_ratio"] == 0.25
    assert m["mc.skipped_frac"] == 0.25
    assert m["gp_mle.quadrature_error"] == 5e-3
    assert m["trace.spans"] == 6


def test_every_declared_per_layer_metric_is_produced(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    produced = set(spans.layer_metrics([{"spans": [], "counts": {}, "maxima": {}}]))
    produced |= {"cli.interpreter_s", "cli.import_s", "mc.thread_speedup", "trace.wall_s",
                 "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_wraps_every_alias_and_nests_spans(tmp_path):
    out = tmp_path / "spans.json"
    code = f"""
        import scedex, scedex.tail, scedex.gp_mle, scedex.trend_tests
        from spans import Recorder, install
        rec = Recorder()
        install(rec)
        assert scedex.gp_mle.pool is scedex.tail.pool is scedex.pool
        assert scedex.trend_tests.pool is scedex.tail.pool
        spec = scedex.SimSpec(n=2000, m=3, gamma=0.1, seed=1)
        p = scedex.simulate_panel(spec)
        scedex.trend_tests.space_test(p, 100)
        scedex.gp_mle.fit_gp_pml(p, 100)
        rec.dump({str(out)!r})
    """
    proc = _python(code, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    by_id = {s[0]: s for s in data["spans"]}
    names = [s[2] for s in data["spans"]]
    assert names.count("tail.pool") == 2
    sigma1 = next(s for s in data["spans"] if s[2] == "dependence.sigma1_matrix")
    assert by_id[sigma1[1]][2] == "trend_tests.space_test"
    fit = next(s for s in data["spans"] if s[2] == "gp_mle.fit_gp_excesses")
    assert by_id[fit[1]][2] == "gp_mle.fit_gp_pml"
    assert data["counts"]["gp_mle.fit_iterations"] >= 1
    assert data["counts"]["tail.pooled_values"] == 2 * 2000 * 3


def test_traced_cli_reports_per_op_counts_and_keeps_output(tmp_path):
    truth = workloads.write_panel(str(tmp_path / "p.csv"), 2, 5, True, n=1500)
    env = dict(os.environ, PYTHONPATH=SRC, SCEDEX_BENCH_SPANS=str(tmp_path / "s.json"))
    args = ["test-time", "--input", truth.path, "--k", "100"]
    plain = subprocess.run([sys.executable, "-m", "scedex.cli", *args], env=env,
                           capture_output=True, timeout=120)
    traced = subprocess.run([sys.executable, os.path.join(BENCH, "traced_cli.py"), *args],
                            env=env, capture_output=True, timeout=120)
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    m = spans.layer_metrics([json.loads((tmp_path / "s.json").read_text())])
    assert m["tail.pool_calls"] == 5            # the CLI never passes pooled=
    assert m["panel.load_panel_calls"] == 1
    assert m["cli.test_time_s"] > 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-analysis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
