"""Synthetic-panel simulator and Monte Carlo harnesses.

The simulator's tail construction is exact, so most checks compare observed
frequencies against closed forms: marginal exceedance rates, joint rates
under the logistic copula, and the Laplace transform of the positive-stable
mixing variable.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from scedex import (
    InsufficientDataError,
    McReport,
    RangeError,
    ScedexError,
    SimSpec,
    SimSpecError,
    analytic_cross_surface,
    analytic_r_lookup,
    analytic_sigma,
    constant_scedasis,
    linear_scedasis,
    logistic_tail_copula,
    mc_covariance_check,
    mc_mle_variance,
    mc_test_size,
    simulate_panel,
)
from scedex import mc as mc_module
from scedex.mc import TAIL_MASS, _draw_uniforms, _positive_stable, _replicate


# ---------------------------------------------------------------------------
# tail copulas
# ---------------------------------------------------------------------------


def test_logistic_copula_closed_form_values():
    R = logistic_tail_copula(0.5)
    assert R(1.0, 1.0) == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
    assert R(1.0, 0.0) == 0.0
    assert R(0.0, 0.7) == 0.0
    # alpha = 1: tail independence
    assert logistic_tail_copula(1.0)(0.8, 0.9) == 0.0


def test_logistic_copula_dependence_ordering():
    # smaller alpha means stronger dependence
    vals = [logistic_tail_copula(a)(1.0, 1.0) for a in (0.2, 0.5, 0.9)]
    assert vals[0] > vals[1] > vals[2]
    for a in (0.2, 0.5, 0.9):
        r = logistic_tail_copula(a)(0.6, 0.9)
        assert 0.0 <= r <= 0.6


def test_logistic_copula_validation():
    for bad in (0.0, -0.3, 1.2):
        with pytest.raises(RangeError):
            logistic_tail_copula(bad)
    with pytest.raises(RangeError):
        logistic_tail_copula(0.5)(-1.0, 0.5)


def test_logistic_copula_vectorised():
    R = logistic_tail_copula(0.7)
    x = np.array([0.1, 0.5, 1.0])
    out = R(x, np.ones(3))
    assert out.shape == (3,)
    assert out[2] == pytest.approx(2.0 - 2.0**0.7, abs=1e-12)


# ---------------------------------------------------------------------------
# simulation specs
# ---------------------------------------------------------------------------


def test_spec_normalises_frequencies_preserving_ratios():
    spec = SimSpec(
        n=100, m=2, gamma=0.25,
        scedasis=(constant_scedasis(2.0), constant_scedasis(1.0)),
    )
    assert spec.c1 == pytest.approx([2 / 3, 1 / 3], abs=1e-12)
    assert spec.c1.sum() == pytest.approx(1.0, abs=1e-12)
    lv0 = spec.scedasis[0](np.array([0.3]))[0]
    lv1 = spec.scedasis[1](np.array([0.3]))[0]
    assert lv0 / lv1 == pytest.approx(2.0, abs=1e-12)
    # average integral is one: levels are 4/3 and 2/3
    assert lv0 == pytest.approx(4 / 3, abs=1e-12)


def test_spec_default_scedasis_is_flat():
    spec = SimSpec(n=10, m=3, gamma=0.0)
    assert spec.c1 == pytest.approx([1 / 3] * 3, abs=1e-12)
    u = np.linspace(0, 1, 7)
    for j in range(3):
        assert spec.scedasis[j](u) == pytest.approx(np.ones(7), abs=1e-12)


def test_spec_validation():
    with pytest.raises(SimSpecError):
        SimSpec(n=0, m=1, gamma=0.2)
    with pytest.raises(SimSpecError):
        SimSpec(n=10, m=1, gamma=-0.6)
    with pytest.raises(SimSpecError):
        SimSpec(n=10, m=1, gamma=0.2, dependence="telepathic")
    with pytest.raises(SimSpecError):
        SimSpec(n=10, m=2, gamma=0.2, dependence="logistic")  # alpha missing
    with pytest.raises(SimSpecError):
        SimSpec(n=10, m=2, gamma=0.2, dependence="logistic", alpha=1.5)
    with pytest.raises(SimSpecError):
        SimSpec(n=10, m=2, gamma=0.2, scedasis=(constant_scedasis(1.0),))
    with pytest.raises(SimSpecError):
        SimSpec(n=10, m=1, gamma=0.2, scedasis=(lambda u: np.asarray(u) * 1.0,))
    with pytest.raises(SimSpecError):
        # a narrow spike: normalised level tops 10, beyond the exact-tail cap
        spike = lambda u: np.where(np.asarray(u) < 0.01, 100.0, 0.01)
        SimSpec(n=10, m=1, gamma=0.2, scedasis=(spike,))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_spec_rejects_nan_frequencies_before_simulating():
    # NaN fails every comparison, so "<= 0" checks let it through
    with pytest.raises(SimSpecError, match="finite and strictly positive"):
        SimSpec(n=10, m=2, gamma=0.2,
                scedasis=(constant_scedasis(math.nan), constant_scedasis(1.0)))
    # NaN wherever the integrator looks, finite on the level grid
    blind = lambda u: np.ones_like(u) if np.ndim(u) else math.nan
    with pytest.raises(SimSpecError, match="finite positive mass"):
        SimSpec(n=10, m=2, gamma=0.2, scedasis=(blind, constant_scedasis(1.0)))
    with pytest.raises(SimSpecError, match="finite and strictly positive"):
        SimSpec(n=10, m=2, gamma=0.2,
                scedasis=(constant_scedasis(math.inf), constant_scedasis(1.0)))


def test_spec_quantile_functions():
    spec = SimSpec(n=10, m=1, gamma=0.25)
    q = 0.02
    assert spec.tail_quantile(q) == pytest.approx((q**-0.25 - 1) / 0.25, rel=1e-14)
    assert spec.intermediate_quantile(50.0) == pytest.approx(
        (50.0**0.25 - 1) / 0.25, rel=1e-14
    )
    assert spec.scale_norm(50.0) == pytest.approx(50.0**0.25, rel=1e-14)
    flat = SimSpec(n=10, m=1, gamma=0.0)
    assert flat.tail_quantile(q) == pytest.approx(-math.log(q), rel=1e-14)


# ---------------------------------------------------------------------------
# random ingredients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_positive_stable_laplace_transform(alpha):
    rng = np.random.default_rng(2024)
    s = _positive_stable(rng, alpha, 200_000)
    assert np.all(s > 0)
    for t in (0.5, 1.0, 2.0):
        emp = np.exp(-t * s)
        want = math.exp(-(t**alpha))
        se = emp.std(ddof=1) / math.sqrt(emp.size)
        assert abs(emp.mean() - want) < 5 * se


def test_simulate_deterministic_replications():
    spec = SimSpec(n=50, m=2, gamma=0.25, seed=7)
    a = simulate_panel(spec, replication=3)
    b = simulate_panel(spec, replication=3)
    c = simulate_panel(spec, replication=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.n == 50 and a.m == 2
    assert a.station_ids == ("S01", "S02")
    assert not a.missing_mask.any()
    assert np.all(a.values >= 0)


def test_simulate_marginal_exceedance_rates():
    spec = SimSpec(n=200_000, m=1, gamma=0.25, seed=11)
    p = simulate_panel(spec)
    x = p.values[:, 0]
    for y in (20.0, 100.0):
        thr = float(spec.intermediate_quantile(y))
        rate = np.mean(x > thr)
        se = math.sqrt((1 / y) * (1 - 1 / y) / x.size)
        assert abs(rate - 1.0 / y) < 5 * se


def test_simulate_linear_trend_shifts_exceedances():
    spec = SimSpec(
        n=100_000, m=1, gamma=0.0, seed=13,
        scedasis=(linear_scedasis(0.5, 1.5),),
    )
    p = simulate_panel(spec)
    thr = float(spec.intermediate_quantile(10.0))
    half = spec.n // 2
    first = np.count_nonzero(p.values[:half, 0] > thr)
    second = np.count_nonzero(p.values[half:, 0] > thr)
    # expected rates: 0.075 and 0.125 per day
    assert first == pytest.approx(0.075 * half, abs=5 * math.sqrt(0.075 * half))
    assert second == pytest.approx(0.125 * half, abs=5 * math.sqrt(0.125 * half))


@pytest.mark.parametrize("spec", [
    SimSpec(n=3000, m=3, gamma=0.2, dependence="logistic", alpha=0.5, seed=4,
            scedasis=(linear_scedasis(1.0, 2.0), constant_scedasis(1.0),
                      linear_scedasis(2.0, 1.0))),
    SimSpec(n=2000, m=2, gamma=0.0, seed=8),
])
def test_simulate_matches_the_direct_quantile_transform(spec):
    """The panel is built in place; transforming the same uniforms in one
    expression (GP quantile where v <= c TAIL_MASS, filler elsewhere) must
    give the identical array."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((spec.seed, 2))))
    v = _draw_uniforms(spec, rng)
    u = np.arange(1, spec.n + 1) / spec.n
    c = np.column_stack([f(u) for f in spec.scedasis])
    tail = v <= c * TAIL_MASS
    frac = (v - c * TAIL_MASS) / (1.0 - c * TAIL_MASS)
    want = np.where(tail, spec.tail_quantile(np.where(tail, v / c, TAIL_MASS)),
                    spec.tail_quantile(TAIL_MASS) * (1.0 - np.clip(frac, 0.0, 1.0)))
    assert np.array_equal(simulate_panel(spec, 2).values, want)


def test_simulate_comonotone_duplicates_columns():
    spec = SimSpec(n=500, m=3, gamma=0.5, dependence="comonotone", seed=3)
    p = simulate_panel(spec)
    assert np.array_equal(p.values[:, 0], p.values[:, 1])
    assert np.array_equal(p.values[:, 0], p.values[:, 2])


def test_simulate_logistic_joint_exceedance_rate():
    alpha = 0.5
    spec = SimSpec(n=200_000, m=2, gamma=0.25, dependence="logistic",
                   alpha=alpha, seed=17)
    p = simulate_panel(spec)
    y = 20.0
    thr = float(spec.intermediate_quantile(y))
    joint = np.mean((p.values[:, 0] > thr) & (p.values[:, 1] > thr))
    want = logistic_tail_copula(alpha)(1.0, 1.0) / y
    se = math.sqrt(want * (1 - want) / spec.n)
    assert abs(joint - want) < 5 * se


# ---------------------------------------------------------------------------
# analytic lookups
# ---------------------------------------------------------------------------


def test_analytic_r_independent():
    spec = SimSpec(n=100, m=2, gamma=0.25)
    r = analytic_r_lookup(spec)
    assert r(0, 1, 0.5, 0.8) == 0.0
    # same-station pairs always use min: (1/m) min(s, t) under flat frequency
    assert r(0, 0, 0.3, 0.8) == pytest.approx(0.15, abs=1e-12)
    assert r(1, 1, 0.9, 0.2) == pytest.approx(0.1, abs=1e-12)


def test_analytic_r_logistic_flat():
    spec = SimSpec(n=100, m=2, gamma=0.25, dependence="logistic", alpha=0.5)
    r = analytic_r_lookup(spec)
    R = logistic_tail_copula(0.5)
    for s, t in [(1.0, 1.0), (0.4, 0.9), (0.05, 0.6)]:
        assert r(0, 1, s, t) == pytest.approx(R(s, t) / 2.0, abs=1e-12)


def test_analytic_r_matches_direct_quadrature_with_trend():
    spec = SimSpec(
        n=100, m=2, gamma=0.0, dependence="logistic", alpha=0.6,
        scedasis=(linear_scedasis(0.5, 1.5), constant_scedasis(1.0)),
    )
    r = analytic_r_lookup(spec)
    R = logistic_tail_copula(0.6)
    c0, c1f = spec.scedasis

    def oracle(s, t):
        val, _ = quad(lambda u: float(R(s * float(c0(u)), t * float(c1f(u)))), 0, 1)
        return val / 2.0

    for s, t in [(1.0, 1.0), (0.3, 0.7)]:
        assert r(0, 1, s, t) == pytest.approx(oracle(s, t), abs=1e-9)


def test_analytic_r_broadcasts():
    spec = SimSpec(n=100, m=2, gamma=0.25, dependence="comonotone")
    r = analytic_r_lookup(spec)
    s = np.array([0.2, 0.5, 1.0])
    out = r(0, 1, s, np.ones(3))
    assert out.shape == (3,)
    assert out == pytest.approx(s / 2.0, abs=1e-12)


def test_analytic_cross_surface_sums_the_pairs():
    """Two stations share a frequency function and one trends, so the pair
    sum is regrouped as a group of 2 and a group of 1."""
    spec = SimSpec(
        n=100, m=3, gamma=0.1, dependence="logistic", alpha=0.6,
        scedasis=(constant_scedasis(1.0), linear_scedasis(0.5, 1.5), constant_scedasis(1.0)),
    )
    r = analytic_r_lookup(spec)
    cross = analytic_cross_surface(spec)
    s = np.array([0.05, 0.3, 1.0, 0.7])
    t = np.array([0.6, 0.3, 1.0, 0.1])
    want = sum(r(i, j, s, t) for i in range(3) for j in range(3) if i != j)
    assert cross(s, t) == pytest.approx(want, abs=1e-12)
    assert cross(0.4, 0.9) == pytest.approx(
        sum(r(i, j, 0.4, 0.9) for i in range(3) for j in range(3) if i != j), abs=1e-12)


def test_analytic_sigma_truncates_in_time():
    spec = SimSpec(n=100, m=2, gamma=0.25)
    # same station, flat frequency: (1/m) * s * min(t1, t2)
    assert analytic_sigma(spec, 0, 0, 1.0, 1.0, 0.4, 1.0) == pytest.approx(0.2, abs=1e-10)
    assert analytic_sigma(spec, 0, 0, 0.5, 1.0, 1.0, 1.0) == pytest.approx(0.25, abs=1e-10)
    assert analytic_sigma(spec, 0, 1, 1.0, 1.0, 1.0, 1.0) == 0.0
    assert analytic_sigma(spec, 0, 0, 1.0, 1.0, 0.0, 1.0) == 0.0


def test_analytic_sigma_logistic_pair():
    spec = SimSpec(n=100, m=2, gamma=0.25, dependence="logistic", alpha=0.5)
    want = logistic_tail_copula(0.5)(1.0, 1.0) / 2.0
    assert analytic_sigma(spec, 0, 1, 1.0, 1.0, 1.0, 1.0) == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# harnesses
# ---------------------------------------------------------------------------


def test_harnesses_need_at_least_one_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before the thread count was checked")

    monkeypatch.setattr(mc_module, "simulate_panel", refuse)
    spec = SimSpec(n=400, m=2, gamma=0.25, seed=1)
    pair = [((0, 1.0, 1.0), (1, 1.0, 1.0))]
    with pytest.raises(RangeError, match="threads >= 1, got 0"):
        mc_test_size(spec, k=30, reps=5, threads=0)
    with pytest.raises(RangeError, match="threads >= 1, got 0"):
        mc_covariance_check(spec, k=30, pairs=pair, reps=5, threads=0)
    with pytest.raises(RangeError, match="threads >= 1, got -2"):
        mc_mle_variance(spec, k=30, reps=5, threads=-2)


@pytest.mark.parametrize("threads", [1, 3])
def test_replicate_stacks_successes_in_rep_order(threads):
    def one(rep):
        if rep % 2:
            raise RangeError("odd replication")
        return np.array([rep, -rep])

    vals, skipped = _replicate(one, 6, threads, need=3)
    assert vals.tolist() == [[0, 0], [2, -2], [4, -4]]
    assert skipped == 3
    with pytest.raises(ScedexError, match="3 of 6 replications succeeded; need at least 4"):
        _replicate(one, 6, threads, need=4)


def test_mc_test_size_smoke():
    spec = SimSpec(n=2000, m=2, gamma=0.25, seed=101)
    rep = mc_test_size(spec, k=100, which="space", reps=20)
    assert isinstance(rep, McReport)
    assert rep.replications + rep.skipped == 20
    assert 0.0 <= rep.rejection_rate <= 1.0
    n = rep.replications
    want_se = math.sqrt(rep.rejection_rate * (1 - rep.rejection_rate) / n)
    assert rep.monte_carlo_se == pytest.approx(want_se, abs=1e-15)
    assert rep.summaries["which"] == "space"


def test_mc_test_size_time_variant_and_validation():
    spec = SimSpec(n=1500, m=1, gamma=0.0, seed=5)
    rep = mc_test_size(spec, k=80, which="time", reps=10, station=0)
    assert rep.replications == 10
    with pytest.raises(RangeError):
        mc_test_size(spec, k=80, which="both", reps=5)
    with pytest.raises(RangeError):
        mc_test_size(spec, k=80, reps=5, level=1.5)
    with pytest.raises(RangeError, match="station index 1"):
        mc_test_size(spec, k=80, which="time", reps=5, station=1)  # m = 1
    with pytest.raises(RangeError, match="n_effective=1500"):
        mc_test_size(spec, k=1500, which="time", reps=5)  # k must stay below n * m
    with pytest.raises(RangeError, match="n_effective=1500"):
        mc_test_size(spec, k=0, which="time", reps=5)
    with pytest.raises(RangeError, match="reps"):
        mc_test_size(spec, k=80, which="time", reps=0)
    with pytest.raises(RangeError, match="two stations"):
        mc_test_size(spec, k=80, which="space", reps=5)  # m = 1


def test_mc_test_size_threads_match_serial():
    spec = SimSpec(n=1000, m=2, gamma=0.25, seed=23)
    a = mc_test_size(spec, k=60, reps=12, threads=1)
    b = mc_test_size(spec, k=60, reps=12, threads=3)
    assert a.rejection_rate == b.rejection_rate


def test_mc_covariance_check_smoke():
    spec = SimSpec(n=2000, m=2, gamma=0.25, dependence="logistic",
                   alpha=0.5, seed=107)
    var_pair = ((0, 1.0, 1.0), (0, 1.0, 1.0))
    cross_pair = ((0, 1.0, 1.0), (1, 1.0, 1.0))
    rep = mc_covariance_check(spec, k=50, pairs=[var_pair, cross_pair], reps=60)
    assert rep.replications == 60
    assert len(rep.details) == 2
    for d in rep.details:
        assert {"pair", "empirical", "analytic", "mc_se", "z"} <= set(d)
        assert abs(d["z"]) < 5.0
    assert rep.summaries["max_abs_z"] == pytest.approx(
        max(abs(d["z"]) for d in rep.details), abs=1e-15
    )


def test_mc_covariance_check_validation():
    spec = SimSpec(n=2000, m=2, gamma=0.25, seed=1)
    with pytest.raises(RangeError):
        mc_covariance_check(spec, k=50, pairs=[], reps=5)
    with pytest.raises(RangeError):
        mc_covariance_check(spec, k=50, pairs=[((5, 1.0, 1.0), (0, 1.0, 1.0))], reps=5)
    with pytest.raises(RangeError):
        mc_covariance_check(spec, k=50, pairs=[((0, 1.0, 0.0), (0, 1.0, 1.0))], reps=5)
    with pytest.raises(RangeError):
        # k*s/N beyond the exact-tail region
        mc_covariance_check(spec, k=500, pairs=[((0, 9.0, 1.0), (0, 9.0, 1.0))], reps=5)
    with pytest.raises(RangeError, match="k >= 1"):
        mc_covariance_check(spec, k=0, pairs=[((0, 1.0, 1.0), (1, 1.0, 1.0))], reps=5)
    with pytest.raises(RangeError, match="level"):
        mc_covariance_check(spec, k=50, pairs=[((0, 0.0, 1.0), (1, 1.0, 1.0))], reps=5)
    with pytest.raises(RangeError, match="level"):
        mc_covariance_check(spec, k=50, pairs=[((0, -1.0, 1.0), (1, 1.0, 1.0))], reps=5)
    with pytest.raises(RangeError, match="reps"):
        mc_covariance_check(spec, k=50, pairs=[((0, 1.0, 1.0), (1, 1.0, 1.0))], reps=2)


def test_mc_mle_variance_smoke():
    spec = SimSpec(n=5000, m=1, gamma=0.25, seed=106)
    rep = mc_mle_variance(spec, k=200, reps=15)
    s = rep.summaries
    assert rep.replications <= 15
    assert s["k_var_gamma"] > 0
    assert s["predicted_k_var_gamma"] == pytest.approx(1.25**2, rel=1e-10)
    assert s["predicted_k_var_scale_rel"] == pytest.approx(1.0 + 1.25**2, rel=1e-10)
    assert s["mc_rel_se_variance"] == pytest.approx(
        math.sqrt(2.0 / (rep.replications - 1)), abs=1e-15
    )
    with pytest.raises(RangeError):
        mc_mle_variance(spec, k=600, reps=3)  # k/N leaves the exact tail
    with pytest.raises(InsufficientDataError):
        mc_mle_variance(spec, k=9, reps=3)  # no GP fit below k = 10
    with pytest.raises(RangeError, match="reps"):
        mc_mle_variance(spec, k=200, reps=2)
