"""Acceptance gate: the package's headline guarantees, one test per claim.

Each test prints a single PASS/FAIL line with the measured quantity, so
``pytest -v -s tests/test_acceptance.py`` doubles as a report.  Monte Carlo
checks use pinned seeds; the bands already include the sampling noise, so a
seed change should only move the numbers within band.

Targets are closed forms derived in the tests, never copied from a program
run.
"""

import math
import time

import numpy as np
import pytest

from scedex import PanelSample, dependence, gp_mle, mc, scedasis, tail, trend_tests


def _panel(values, start="2000-01-01"):
    values = np.asarray(values, dtype=float)
    n, m = values.shape
    return PanelSample(
        values=values,
        day_labels=np.datetime64(start) + np.arange(n),
        station_ids=tuple(f"S{j}" for j in range(m)),
    )


def _gate(label: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Exact identities
# ---------------------------------------------------------------------------


def test_exact_identities():
    rng = np.random.default_rng(2024)
    p = _panel(10.0 * rng.pareto(2.0, size=(300, 3)) + rng.uniform(0, 0.01, (300, 3)))
    k = 50

    curves = scedasis.scedasis_all(p, k)
    share_sum = float(sum(c.c1 for c in curves))

    dep = dependence.sigma1_matrix(p, k)
    diag_exact = all(dep.entries[j, j] == curves[j].c1 for j in range(p.m))

    level_k = tail.TailAtK(p, k)
    rung_at_one = float(level_k.ladder(1.0)[1])

    fisher_defect = max(
        float(np.max(np.abs(
            gp_mle.fisher_info(g) @ gp_mle.fisher_info_inverse(g) - np.eye(2)
        )))
        for g in (-0.45, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0)
    )

    ok = (abs(share_sum - 1.0) < 1e-12 and diag_exact
          and rung_at_one == level_k.threshold and fisher_defect < 1e-12)
    _gate("exact identities", ok,
          f"sum shares={share_sum!r}, sigma1 diag exact={diag_exact}, "
          f"ladder(1)={rung_at_one!r} vs threshold={level_k.threshold!r}, "
          f"fisher identity defect={fisher_defect:.2e}")


# ---------------------------------------------------------------------------
# Hand-checked examples
# ---------------------------------------------------------------------------


def test_worked_space_statistic():
    # k = 25: station 0 alone exceeds on days 0-14 and station 1 on days
    # 15-24, with no ties, so Sigma = diag(.6, .4), D = (.5, -.5), the
    # centred covariance block is [[.25]] and T = 1
    values = np.arange(100.0).reshape(50, 2) / 100.0
    values[:15, 0] = 10.0 + np.arange(15)
    values[15:25, 1] = 10.0 + np.arange(15, 25)
    res = trend_tests.space_test(_panel(values), 25)
    _gate("worked space statistic", abs(res.statistic - 1.0) < 1e-12,
          f"T={res.statistic!r} (target 1.0), df={res.df}")


def test_worked_ks_statistic():
    p = _panel(np.array([10.0, 1.0, 11.0, 2.0, 12.0, 3.0, 13.0, 4.0])[:, None])
    res = trend_tests.time_test(p, 4, 0)
    _gate("worked KS statistic", abs(res.statistic - 0.25) < 1e-12,
          f"KS={res.statistic!r} (target 0.25)")


def test_ks_pvalue_reference_constant():
    # P(sup|B| > d) = 2 * sum_{i>=1} (-1)^(i-1) exp(-2 i^2 d^2).  At d = 1.36,
    # 2 d^2 = 3.6992: 2 e^-3.6992 - 2 e^-14.7968 + 2 e^-33.2928 - ...
    # = 0.0494866 - 0.0000007 + ... = 0.0494859.
    target = 0.0494859
    value = trend_tests.kolmogorov_pvalue(1.36)
    _gate(
        "KS p-value at 1.36", abs(value - target) <= 1e-4,
        f"kolmogorov_pvalue(1.36)={value:.7f} vs {target} +- 1e-4, the value "
        f"of the alternating series 2*sum_i (-1)^(i-1) exp(-2 i^2 d^2) at "
        f"d=1.36.  The target once quoted here, 0.0487, cannot be produced "
        f"by that series (scipy.special.kolmogorov agrees with 0.0494859 to "
        f"1e-12); it was a transcription slip.",
    )


def test_logistic_tail_copula_closed_form():
    value = mc.logistic_tail_copula(0.5)(1.0, 1.0)
    _gate("logistic R(1,1; 0.5)", abs(value - (2.0 - math.sqrt(2.0))) <= 1e-12,
          f"R={value!r} (target 2-sqrt(2)={2.0 - math.sqrt(2.0)!r})")


# ---------------------------------------------------------------------------
# Sandwich covariance: single-station closed form
# ---------------------------------------------------------------------------


def test_sandwich_reduces_to_single_station_form():
    start = time.perf_counter()
    worst = 0.0
    for g in (-0.4, -0.25, 0.0, 0.25, 0.5, 1.0):
        inv = gp_mle.fisher_info_inverse(g)
        cov = inv @ gp_mle.sigma_gamma0(g, [1.0])[0] @ inv
        target = np.array([(1.0 + g) ** 2, 1.0 + (1.0 + g) ** 2])
        worst = max(worst, float(np.max(np.abs(np.diag(cov) - target))))
    elapsed = time.perf_counter() - start
    _gate("sandwich single-station reduction", worst < 1e-4 and elapsed < 10.0,
          f"max |diag - ((1+g)^2, 1+(1+g)^2)| = {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Null rejection rates (size)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dep,alpha,which,seed", [
    ("independent", None, "space", 101),
    ("independent", None, "time", 101),
    ("logistic", 0.7, "space", 102),
    ("logistic", 0.7, "time", 102),
])
def test_null_rejection_rate_is_nominal(dep, alpha, which, seed):
    spec = mc.SimSpec(n=5000, m=4, gamma=0.25, dependence=dep, alpha=alpha,
                      seed=seed)
    report = mc.mc_test_size(spec, 250, which=which, reps=500)
    rate = report.rejection_rate
    _gate(f"size of {which} test, {dep}", 0.025 <= rate <= 0.085,
          f"rejection rate {rate:.4f} at nominal 0.05 "
          f"({report.replications} reps, MC se {report.monte_carlo_se:.4f})")


# ---------------------------------------------------------------------------
# Power against scedasis trends
# ---------------------------------------------------------------------------


def test_time_test_power_under_linear_trend():
    spec = mc.SimSpec(n=5000, m=1, gamma=0.25,
                      scedasis=(mc.linear_scedasis(0.5, 1.5),), seed=103)
    rate = mc.mc_test_size(spec, 250, which="time", reps=500).rejection_rate
    _gate("time-test power, linear trend", rate > 0.5,
          f"rejection rate {rate:.4f} (> 0.5 required)")


def test_space_test_power_under_two_groups():
    funcs = tuple(mc.constant_scedasis(v) for v in (4 / 3, 4 / 3, 2 / 3, 2 / 3))
    spec = mc.SimSpec(n=5000, m=4, gamma=0.25, scedasis=funcs, seed=104)
    rate = mc.mc_test_size(spec, 250, which="space", reps=500).rejection_rate
    _gate("space-test power, 2:1 groups", rate > 0.8,
          f"rejection rate {rate:.4f} (> 0.8 required)")


# ---------------------------------------------------------------------------
# Pooled fit: bias and scaled variance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [0.0, 0.25])
def test_mle_bias_and_scaled_variance(gamma):
    # k = 1000 kept intermediate: at k/n = 0.05 the fitted excesses stay
    # inside the simulator's exact-tail region with overwhelming probability.
    spec = mc.SimSpec(n=20000, m=1, gamma=gamma, seed=110)
    rep = mc.mc_mle_variance(spec, 1000, reps=300)
    bias = rep.summaries["bias_gamma"]
    k_var = rep.summaries["k_var_gamma"]
    target = (1.0 + gamma) ** 2
    ok = abs(bias) < 0.02 and abs(k_var / target - 1.0) < 0.15
    _gate(f"MLE bias/variance, gamma={gamma}", ok,
          f"bias {bias:+.4f} (<0.02), k*Var {k_var:.4f} vs (1+gamma)^2={target:.4f} "
          f"(within 15%), {rep.replications} reps")


def test_mle_variance_with_comonotone_stations():
    # Two comonotone stations duplicate every pooled exceedance, so only k/2
    # excesses are distinct and the pseudo-MLE is the MLE on k/2 points:
    # k * Var(gamma_hat) -> k * (1+gamma)^2 / (k/2) = 2 (1+gamma)^2.
    gamma = 0.25
    spec = mc.SimSpec(n=10000, m=2, gamma=gamma, dependence="comonotone", seed=105)
    rep = mc.mc_mle_variance(spec, 1000, reps=300)
    k_var = rep.summaries["k_var_gamma"]
    single = (1.0 + gamma) ** 2
    target = 2.0 * single
    predicted = rep.summaries["predicted_k_var_gamma"]
    ok = abs(k_var / target - 1.0) <= 0.2 and abs(predicted - target) <= 1e-9
    _gate(
        "MLE variance, comonotone pair", ok,
        f"k*Var(gamma_hat)={k_var:.4f} vs 2*(1+gamma)^2={target:.4f} "
        f"(ratio {k_var / target:.3f}, within 20%); sandwich prediction "
        f"{predicted!r} (within 1e-9 of the target).  The target once quoted "
        f"here, the single-station (1+gamma)^2={single:.4f}, ignores that "
        f"the duplicated excesses carry no new information, so it cannot be "
        f"met.",
    )


def test_sandwich_se_matches_analytic_on_logistic_panels():
    # At m = 16 and k = 3200 the asymptotics hold (k * Var(gamma_hat) is within
    # Monte Carlo error of the analytic sandwich), so the data-driven SE must
    # find the analytic one: the edge is estimated at t = 1, away from the
    # lower corner where only k s pooled values can exceed level s.
    spec = mc.SimSpec(n=24000, m=16, gamma=0.1, dependence="logistic", alpha=0.6,
                      seed=5)
    k, reps = 3200, 20
    v = np.geomspace(1e-6, 1.0, 4000)
    sigma, _ = gp_mle.sigma_gamma0(spec.gamma, spec.c1,
                                   edge=(v, mc.analytic_cross_surface(spec)(v, 1.0)))
    inv = gp_mle.fisher_info_inverse(spec.gamma)
    analytic = math.sqrt((inv @ sigma @ inv)[0, 0] / k)
    start = time.perf_counter()
    se = []
    for rep in range(reps):
        p = mc.simulate_panel(spec, rep)
        fit = gp_mle.fit_gp_pml(p, k)
        se.append(gp_mle.mle_asymptotic_cov(fit, p).se_gamma)
    elapsed = time.perf_counter() - start
    ratio = float(np.mean(se)) / analytic
    _gate("sandwich SE, logistic m=16 k=3200", abs(ratio - 1.0) <= 0.05 and elapsed < 15.0,
          f"mean se_gamma {np.mean(se):.5f} vs analytic {analytic:.5f} "
          f"(ratio {ratio:.3f}, within 5%), {reps} reps, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Covariance formula against simulation
# ---------------------------------------------------------------------------


def test_covariance_formula_under_logistic_dependence():
    spec = mc.SimSpec(n=5000, m=2, gamma=0.25, dependence="logistic",
                      alpha=0.5, seed=107)
    pair = ((0, 1.0, 1.0), (1, 1.0, 1.0))
    rep = mc.mc_covariance_check(spec, 250, [pair], reps=500)
    d = rep.details[0]
    target = (2.0 - math.sqrt(2.0)) / 2.0
    ok = abs(d["analytic"] - target) < 1e-9 and abs(d["z"]) <= 3.0
    _gate("cross-station covariance, logistic alpha=0.5", ok,
          f"empirical {d['empirical']:.4f} vs (1/m)(2-sqrt(2))={target:.4f}, "
          f"z={d['z']:+.2f} (|z|<=3), MC se {d['mc_se']:.4f}")


# ---------------------------------------------------------------------------
# Scale equivariance
# ---------------------------------------------------------------------------


def test_scale_equivariance():
    rng = np.random.default_rng(2718)
    values = 5.0 * rng.pareto(2.5, size=(400, 2)) + rng.uniform(0, 0.01, (400, 2))
    lam = 3.7
    p, q = _panel(values), _panel(lam * values)
    k = 60

    fit_p, fit_q = gp_mle.fit_gp_pml(p, k), gp_mle.fit_gp_pml(q, k)
    d_gamma = abs(fit_p.gamma_hat - fit_q.gamma_hat)
    d_scale = abs(fit_q.scale_hat / lam - fit_p.scale_hat) / fit_p.scale_hat
    d_space = abs(trend_tests.space_test(p, k).statistic
                  - trend_tests.space_test(q, k).statistic)
    d_ks = max(abs(trend_tests.time_test(p, k, j).statistic
                   - trend_tests.time_test(q, k, j).statistic) for j in range(2))

    ok = d_gamma <= 1e-9 and d_scale <= 1e-9 and d_space <= 1e-9 and d_ks <= 1e-9
    _gate("scale equivariance (lambda=3.7)", ok,
          f"|d gamma|={d_gamma:.2e}, rel scale defect={d_scale:.2e}, "
          f"|d T|={d_space:.2e}, max |d KS|={d_ks:.2e}")
