"""Workload definitions for the scedex benchmark: seeded inputs, the batch of
CLI operations each workload runs, and the checks on every operation's output.

Every input comes from ``scedex.mc.simulate_panel`` at the workload seed.  The
checks compare outputs with truth planted by the generator (row and
missing-cell counts) and with an independent numpy re-implementation of
declustering and pooled thresholding (per-station exceedance counts and
threshold ties), plus invariants that hold for any correct output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

N_DAYS = 24000
GAP = 2
MISSING_SPELLINGS = ("", "nan", "na")
MISSING_RATE = 0.01          # random missing cells, every station
S01_GAP_SHARE = 0.3          # S01 misses this leading share of days
MC_REPS = 300


@dataclass
class Op:
    """One CLI invocation: ``python -m scedex.cli <argv>``.

    ``check(stdout, ctx)`` returns None when the output is right or a reason
    string.  ``expect_error`` names the structured error an op may end with
    at this version of scedex; such an op counts as failed, and its report
    must still be the structured one (exit 1, JSON on stderr).
    """

    name: str
    argv: list
    check: object
    expect_error: str | None = None
    same_as: str | None = None   # must be byte-identical to this op's stdout


@dataclass
class Workload:
    name: str
    ops: list
    panel: "PanelTruth | None" = None
    # check-context key -> (panel, k) whose reference tail the checks need
    references: dict = field(default_factory=dict)


@dataclass
class PanelTruth:
    path: str
    values: np.ndarray          # as written (6 significant digits), NaN where missing
    day_numbers: np.ndarray
    station_ids: tuple
    missing_by_station: dict
    date_min: str
    date_max: str


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def _spec(seed: int, m: int, n: int = N_DAYS):
    from scedex.mc import SimSpec
    return SimSpec(n=n, m=m, gamma=0.1, dependence="logistic", alpha=0.6, seed=seed)


def write_panel(path: str, seed: int, m: int, with_missing: bool,
                n: int = N_DAYS) -> PanelTruth:
    """Simulate a panel, plant the missing cells, write it as CSV."""
    from scedex.mc import simulate_panel

    p = simulate_panel(_spec(seed, m, n))
    fmt = ",".join(["%.6g"] * m)
    rows = p.values.tolist()
    cells = [fmt % tuple(r) for r in rows]
    written = np.fromstring(",".join(cells), sep=",").reshape(n, m)
    mask = np.zeros((n, m), dtype=bool)
    if with_missing:
        rng = np.random.default_rng([seed, m, 7])
        mask = rng.random((n, m)) < MISSING_RATE
        mask[: int(S01_GAP_SHARE * n), 0] = True
        spelling = rng.integers(0, len(MISSING_SPELLINGS), size=(n, m))
        for i in np.flatnonzero(mask.any(axis=1)).tolist():
            row = ["%.6g" % x for x in rows[i]]
            for j in np.flatnonzero(mask[i]).tolist():
                row[j] = MISSING_SPELLINGS[spelling[i, j]]
            cells[i] = ",".join(row)
        written[mask] = np.nan
    days = np.datetime_as_string(p.day_labels).tolist()
    text = "date," + ",".join(p.station_ids) + "\n" + "".join(
        f"{d},{c}\n" for d, c in zip(days, cells))
    with open(path, "w") as fh:
        fh.write(text)
    return PanelTruth(
        path=path,
        values=written,
        day_numbers=p.day_labels.astype(np.int64),
        station_ids=p.station_ids,
        missing_by_station={s: int(mask[:, j].sum()) for j, s in enumerate(p.station_ids)},
        date_min=str(days[0]),
        date_max=str(days[-1]),
    )


MC_SETUP_REPLICATIONS = 50


def simulate_mc_inputs(seed: int) -> None:
    """Draw the first replications of each Monte Carlo spec: the panels the mc
    ops regenerate internally (the harness takes no input file)."""
    from scedex.mc import SimSpec, simulate_panel

    for spec in (SimSpec(n=5000, m=4, gamma=0.25, seed=seed),
                 SimSpec(n=5000, m=4, gamma=0.1, dependence="logistic", alpha=0.6,
                         seed=seed)):
        for rep in range(MC_SETUP_REPLICATIONS):
            simulate_panel(spec, rep)


# ---------------------------------------------------------------------------
# Independent reference: declustering and the pooled threshold
# ---------------------------------------------------------------------------


def reference_decluster(values: np.ndarray, day_numbers: np.ndarray, gap: int) -> np.ndarray:
    """Rows kept by runs declustering: rank days by their station maximum
    (largest first, earlier day first on ties) and keep a day unless a kept
    day lies within ``gap`` days of it.  Returns sorted row indices."""
    filled = np.where(np.isnan(values), -np.inf, values)
    row_max = filled.max(axis=1)
    rows = np.flatnonzero(np.isfinite(row_max))
    order = rows[np.lexsort((day_numbers[rows], -row_max[rows]))]
    kept_days: set = set()
    kept = []
    for r in order.tolist():
        d = int(day_numbers[r])
        if any((d + o) in kept_days for o in range(-gap, gap + 1)):
            continue
        kept_days.add(d)
        kept.append(r)
    return np.sort(np.asarray(kept, dtype=np.int64))


@dataclass
class TailTruth:
    rows_kept: int
    exceedances: np.ndarray     # per station, strict exceedances of the pooled threshold
    ties: int                   # top-k values equal to the threshold


def reference_tail(truth: PanelTruth, k: int, gap: int = GAP) -> TailTruth:
    kept = reference_decluster(truth.values, truth.day_numbers, gap)
    vals = truth.values[kept]
    pooled = np.sort(vals[~np.isnan(vals)])
    thr = pooled[pooled.size - k - 1]
    exceed = np.nan_to_num(vals, nan=-np.inf) > thr
    above = int(exceed.sum())
    return TailTruth(rows_kept=int(kept.size), exceedances=exceed.sum(axis=0), ties=k - above)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _p_ok(p) -> bool:
    return isinstance(p, (int, float)) and 0.0 <= p <= 1.0


def _csv_rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def check_ingest(out: str, ctx: dict):
    truth: PanelTruth = ctx["panel"]
    ref: TailTruth = ctx["tail_k1000"]
    d = json.loads(out)
    if d["rows_raw"] != N_DAYS:
        return f"rows_raw {d['rows_raw']} != planted {N_DAYS}"
    if d["missing_by_station"] != truth.missing_by_station:
        return "missing_by_station differs from the planted counts"
    if d["missing_cells"] != sum(truth.missing_by_station.values()):
        return "missing_cells differs from the planted total"
    if d["stations"] != list(truth.station_ids):
        return "station list differs"
    if (d["date_min"], d["date_max"]) != (truth.date_min, truth.date_max):
        return "date span differs"
    if d["rows_after_selection"] != ref.rows_kept:
        return f"rows_after_selection {d['rows_after_selection']} != reference {ref.rows_kept}"
    return None


def check_scedasis(out: str, ctx: dict):
    truth: PanelTruth = ctx["panel"]
    ref: TailTruth = ctx["tail_k1000"]
    rows = _csv_rows(out)
    m = len(truth.station_ids)
    if len(rows) != m * 101:
        return f"{len(rows)} rows, expected {m * 101}"
    share_sum = 0.0
    for j, sid in enumerate(truth.station_ids):
        curve = [float(r["c_hat"]) for r in rows[j * 101:(j + 1) * 101]]
        if rows[j * 101]["station"] != sid or curve[0] != 0.0:
            return f"curve of {sid} malformed"
        if any(b < a for a, b in zip(curve, curve[1:])):
            return f"curve of {sid} decreases"
        if not _close(curve[-1], ref.exceedances[j] / 1000):
            return f"C_hat({sid}, 1) = {curve[-1]}, reference {ref.exceedances[j] / 1000}"
        share_sum += curve[-1]
    if ref.ties == 0 and not _close(share_sum, 1.0):
        return f"shares sum to {share_sum} without ties"
    return None


def check_space(out: str, ctx: dict):
    d = json.loads(out)
    m = len(ctx["panel"].station_ids)
    if d["df"] != m - 1 or d["m"] != m or d["k"] != 1000:
        return f"df/m/k = {d['df']}/{d['m']}/{d['k']}, expected {m - 1}/{m}/1000"
    if not _p_ok(d["p_value"]) or d["statistic"] < 0:
        return "p-value outside [0, 1] or negative statistic"
    return None


def check_time(out: str, ctx: dict):
    truth: PanelTruth = ctx["panel"]
    ref: TailTruth = ctx["tail_k1000"]
    d = json.loads(out)
    if list(d["stations"]) != list(truth.station_ids):
        return "station set differs"
    if not _close(d["bonferroni_level"], 0.05 / len(truth.station_ids)):
        return "Bonferroni level wrong"
    for j, sid in enumerate(truth.station_ids):
        r = d["stations"][sid]
        if not _p_ok(r["p_value"]) or r["statistic"] < 0:
            return f"{sid}: p-value outside [0, 1] or negative statistic"
        if r["n_exceedances"] != int(ref.exceedances[j]):
            return f"{sid}: {r['n_exceedances']} exceedances, reference {int(ref.exceedances[j])}"
    return None


def check_sweep(out: str, ctx: dict):
    rows = _csv_rows(out)
    ks = list(range(300, 1501, 50))
    if [int(r["k"]) for r in rows] != ks:
        return f"sweep rows {len(rows)}, expected k = 300..1500 step 50 ({len(ks)} rows)"
    for r in rows:
        if not r["error"] and not _p_ok(float(r["p_value"])):
            return f"k={r['k']}: p-value outside [0, 1]"
    return None


def check_gamma_path(out: str, ctx: dict):
    rows = _csv_rows(out)
    ks = list(range(200, 2001, 50))
    if [int(r["k"]) for r in rows] != ks:
        return f"gamma-path rows {len(rows)}, expected k = 200..2000 step 50 ({len(ks)} rows)"
    for r in rows:
        if r["error"]:
            continue
        g, se, k = float(r["gamma"]), float(r["se"]), int(r["k"])
        if not -0.5 < g < 1.0:
            return f"k={k}: gamma {g} implausible for a true shape of 0.1"
        if not _close(se, (1.0 + g) / math.sqrt(k), rel=1e-6):
            return f"k={k}: se {se} != (1 + gamma)/sqrt(k)"
    return None


def check_fit_gp(out: str, ctx: dict, panel_key: str):
    ref: TailTruth = ctx[panel_key]
    d = json.loads(out)
    k = d["k"]
    if k != 800 or not d["converged"]:
        return "fit did not converge at k=800"
    if d["n_excesses"] + d["dropped_ties"] != k or d["dropped_ties"] != ref.ties:
        return (f"excesses {d['n_excesses']} + ties {d['dropped_ties']}; "
                f"reference ties {ref.ties}")
    g = d["gamma_hat"]
    if not -0.5 < g < 1.0:
        return f"gamma_hat {g} implausible for a true shape of 0.1"
    # Positive dependence can only widen the pooled fit's spread.
    if d["se_gamma"] < (1.0 + g) / math.sqrt(k) * (1 - 1e-9):
        return f"se_gamma {d['se_gamma']} below the independence value (1+g)/sqrt(k)"
    if not 0 <= d["quadrature_error"] <= 2e-3:
        return f"quadrature error {d['quadrature_error']} above the default tolerance"
    return None


def check_mc(out: str, harness: str, which: str | None = None):
    d = json.loads(out)
    if d["harness"] != harness or d["replications"] + d["skipped"] != MC_REPS:
        return f"replications {d['replications']} + skipped {d['skipped']} != reps {MC_REPS}"
    if harness == "size":
        r = d["rejection_rate"]
        if not _p_ok(r) or d["summaries"]["which"] != which:
            return "rejection rate outside [0, 1] or wrong test"
        if not _close(d["monte_carlo_se"], math.sqrt(r * (1 - r) / d["replications"]), 1e-6):
            return "Monte Carlo standard error inconsistent with the rejection rate"
    else:
        s = d["summaries"]
        if not -0.5 < s["mean_gamma"] < 1.0:
            return f"mean gamma {s['mean_gamma']} implausible for a true shape of 0.1"
        # Under positive dependence the sandwich exceeds the independence
        # variance (1 + gamma)^2.
        if s["predicted_k_var_gamma"] < (1 + s["gamma_true"]) ** 2:
            return "predicted k var(gamma) below the independence value"
        if s["k_var_gamma"] <= 0:
            return "non-positive Monte Carlo variance"
    return None


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

WORKLOADS = ("cli-analysis", "sandwich-cov", "mc-calibration")


def setup(name: str, seed: int, workdir: str) -> Workload:
    """Generate the workload's inputs in ``workdir`` and return its batch."""
    if name == "cli-analysis":
        path = os.path.join(workdir, "panel_m32_missing.csv")
        truth = write_panel(path, seed, 32, with_missing=True)
        inp = ["--input", path]
        ops = [
            Op("ingest-check", ["ingest-check", *inp], check_ingest),
            Op("scedasis", ["scedasis", *inp, "--k", "1000"], check_scedasis),
            Op("test-space", ["test-space", *inp, "--season", "winter", "--k", "1000"],
               check_space),
            Op("test-time", ["test-time", *inp, "--k", "1000"], check_time),
            Op("sweep", ["sweep", *inp, "--k-min", "300", "--k-max", "1500"], check_sweep),
            Op("gamma-path", ["gamma-path", *inp, "--k-min", "200", "--k-max", "2000"],
               check_gamma_path),
            Op("scedasis-rerun", ["scedasis", *inp, "--k", "1000"], check_scedasis,
               same_as="scedasis"),
        ]
        return Workload(name, ops, truth, {"tail_k1000": (truth, 1000)})
    if name == "sandwich-cov":
        references, ops = {}, []
        for m in (8, 16, 32):
            path = os.path.join(workdir, f"panel_m{m}.csv")
            references[f"tail_m{m}"] = (write_panel(path, seed, m, with_missing=False), 800)

            def check(out, ctx, _key=f"tail_m{m}"):
                return check_fit_gp(out, ctx, _key)

            ops.append(Op(f"fit-gp-m{m}",
                          ["fit-gp", "--input", path, "--k", "800", "--with-cov"],
                          check, expect_error="QuadratureError"))
        ops.append(Op("fit-gp-m8-rerun", list(ops[0].argv), ops[0].check,
                      expect_error="QuadratureError", same_as="fit-gp-m8"))
        return Workload(name, ops, references=references)
    if name == "mc-calibration":
        simulate_mc_inputs(seed)
        base = ["mc", "--n", "5000", "--m", "4", "--k", "250", "--reps", str(MC_REPS),
                "--seed", str(seed)]
        ops = [
            Op("mc-size-space", [*base, "--harness", "size", "--threads", "1"],
               lambda out, ctx: check_mc(out, "size", "space")),
            Op("mc-size-time", [*base, "--harness", "size", "--which", "time",
                                "--threads", "1"],
               lambda out, ctx: check_mc(out, "size", "time")),
            Op("mc-mle", [*base, "--harness", "mle", "--gamma", "0.1", "--dependence",
                          "logistic", "--alpha", "0.6", "--threads", "1"],
               lambda out, ctx: check_mc(out, "mle")),
            Op("mc-size-space-2threads", [*base, "--harness", "size", "--threads", "2"],
               lambda out, ctx: check_mc(out, "size", "space"),
               same_as="mc-size-space"),
        ]
        return Workload(name, ops)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def check_context(w: Workload) -> dict:
    """Reference values the checks compare against (computed outside any timing)."""
    ctx = {key: reference_tail(truth, k) for key, (truth, k) in w.references.items()}
    ctx["panel"] = w.panel
    return ctx
