"""Synthetic-panel simulator and Monte Carlo harnesses.

The simulator's tail construction is exact, so most checks compare observed
frequencies against closed forms: marginal exceedance rates, joint rates
under the logistic copula, and the Laplace transform of the positive-stable
mixing variable.
"""

import hashlib
import math
import sys
import threading
import warnings

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
    analytic_sigma,
    logistic_tail_copula,
    mc_covariance_check,
    mc_mle_variance,
    mc_test_size,
    simulate_panel,
)
from scedex import mc as mc_module
from scedex.mc import (TAIL_MASS, _analytic_moment_corner, _draw_uniforms, _positive_stable,
                       _replicate)


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
    spec = SimSpec(n=100, m=2, gamma=0.25, scedasis=((2, 2), (1.0, 1.0)))
    assert spec.scedasis == ((2.0, 2.0), (1.0, 1.0))  # stored as given, as floats
    assert spec.c1 == pytest.approx([2 / 3, 1 / 3], abs=1e-12)
    assert spec.c1.sum() == pytest.approx(1.0, abs=1e-12)
    lv0 = spec.level(0, np.array([0.3]))[0]
    lv1 = spec.level(1, np.array([0.3]))[0]
    assert lv0 / lv1 == pytest.approx(2.0, abs=1e-12)
    # average integral is one: levels are 4/3 and 2/3
    assert lv0 == pytest.approx(4 / 3, abs=1e-12)


def test_spec_default_scedasis_is_flat():
    spec = SimSpec(n=10, m=3, gamma=0.0)
    assert spec.scedasis == ((1.0, 1.0),) * 3
    assert spec.c1 == pytest.approx([1 / 3] * 3, abs=1e-12)
    u = np.linspace(0, 1, 7)
    for j in range(3):
        assert spec.level(j, u) == pytest.approx(np.ones(7), abs=1e-12)
    assert spec == SimSpec(n=10, m=3, gamma=0.0, scedasis=[(1, 1)] * 3)  # compared by value
    assert hash(spec) == hash(SimSpec(n=10, m=3, gamma=0.0, scedasis=[(1, 1)] * 3))


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
    with pytest.raises(SimSpecError, match="expected 2 frequency lines, got 1"):
        SimSpec(n=10, m=2, gamma=0.2, scedasis=((1.0, 1.0),))
    with pytest.raises(SimSpecError, match="expected 2 frequency lines, got 3"):
        SimSpec(n=10, m=2, gamma=0.2, scedasis=((1.0, 1.0),) * 3)
    # one busy station among many: its normalised level 30 * 20 / 49 tops 10,
    # beyond the exact-tail cap
    with pytest.raises(SimSpecError, match="frequency level 12.2 too extreme"):
        SimSpec(n=10, m=30, gamma=0.2, scedasis=((20, 20),) + ((1, 1),) * 29)
    SimSpec(n=10, m=30, gamma=0.2, scedasis=((14, 14),) + ((1, 1),) * 29)  # level 9.77
    # a line is capped at its top end: its mean level 10 * 15.5 / 24.5 = 6.3
    # is under the cap, its end level 10 * 30 / 24.5 = 12.2 is not
    with pytest.raises(SimSpecError, match="frequency level 12.2 too extreme"):
        SimSpec(n=10, m=10, gamma=0.2, scedasis=((1, 30),) + ((1, 1),) * 9)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_spec_rejects_a_shape_that_is_not_finite(gamma):
    # NaN fails every comparison, so a "<= -1/2" check let it through to
    # every replication
    with pytest.raises(SimSpecError, match="shape must be finite and exceed -1/2"):
        SimSpec(n=10, m=2, gamma=gamma)


@pytest.mark.parametrize("dependence", ["independent", "comonotone"])
def test_spec_rejects_alpha_without_logistic_dependence(dependence):
    with pytest.raises(SimSpecError, match="alpha is the logistic parameter"):
        SimSpec(n=10, m=2, gamma=0.2, dependence=dependence, alpha=0.3)


@pytest.mark.parametrize("lines", [
    ((1.0, 1.0), 2.0),                     # a number, not a pair
    ((1.0, 1.0), (1.0, 2.0, 3.0)),         # three ends
    ((1.0, 1.0), (1.0,)),                  # one end
    ((1.0, 1.0), lambda u: u + 1.0),       # a callable
    ((1.0, 1.0), ("low", "high")),         # not numbers
    ((1.0, 1.0), (1.0, 1j)),
    lambda u: u + 1.0,                     # one callable for every station
    (1.0, 2.0),                            # one bare pair
], ids=["number", "triple", "single", "callable", "strings", "complex", "bare-callable",
        "bare-pair"])
def test_spec_rejects_a_line_that_is_not_a_pair_of_numbers(lines):
    with pytest.raises(SimSpecError, match=r"must be a \(start, end\) pair of numbers"):
        SimSpec(n=10, m=2, gamma=0.2, scedasis=lines)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", None])
def test_spec_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    # numpy's SeedSequence refuses these only once simulate_panel runs, with a
    # raw ValueError or TypeError: the spec refuses them when it is built
    with pytest.raises(SimSpecError, match="seed must be a non-negative integer"):
        SimSpec(n=10, m=1, gamma=0.2, seed=seed)


def test_spec_accepts_numpy_integer_seeds():
    a = simulate_panel(SimSpec(n=30, m=2, gamma=0.2, seed=np.int64(5)), 1)
    b = simulate_panel(SimSpec(n=30, m=2, gamma=0.2, seed=5), 1)
    assert np.array_equal(a.values, b.values)


def test_spec_rejects_nan_frequencies_before_simulating():
    # NaN fails every comparison, so "<= 0" checks let it through; a line is
    # positive on [0, 1] exactly when both its ends are finite and positive
    for bad in (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0):
        for line in ((bad, 1.0), (1.0, bad), (bad, bad)):
            with pytest.raises(SimSpecError, match="finite and strictly positive"):
                SimSpec(n=10, m=2, gamma=0.2, scedasis=(line, (1.0, 1.0)))


@pytest.mark.parametrize("lines", [
    ((1e308, 1e308), (1e308, 1e308)),       # each line's mass overflows
    ((8e307, 8e307),) * 3,                  # finite masses whose sum overflows
])
def test_spec_rejects_lines_whose_masses_overflow(lines):
    # an infinite mass sum made rho 0 and c1 NaN (under a RuntimeWarning),
    # so every frequency level read 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimSpecError, match="frequency lines too large: their masses sum to inf"):
            SimSpec(n=10, m=len(lines), gamma=0.2, scedasis=lines)


@pytest.mark.parametrize("funcs", [
    ((2.0, 2.0), (1.0, 1.0)),
    ((0.5, 1.5), (1.0, 1.0), (2.0, 0.25)),
])
def test_spec_integrals_match_adaptive_quadrature(funcs):
    spec = SimSpec(n=10, m=len(funcs), gamma=0.2, scedasis=funcs)
    lines = [lambda u, a=a, b=b: a + (b - a) * u for a, b in funcs]
    integrals = np.array([quad(f, 0.0, 1.0)[0] for f in lines])
    assert spec.c1 == pytest.approx(integrals / integrals.sum(), abs=1e-14)
    u = np.linspace(0.0, 1.0, 11)
    for j, f in enumerate(lines):
        assert spec.level(j, u) == pytest.approx(len(funcs) / integrals.sum() * f(u), abs=1e-14)


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
        scedasis=((0.5, 1.5),),
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
            scedasis=((1.0, 2.0), (1.0, 1.0), (2.0, 1.0))),
    SimSpec(n=2000, m=2, gamma=0.0, seed=8),
])
def test_simulate_matches_the_direct_quantile_transform(spec):
    """The panel is built in place; transforming the same uniforms in one
    expression (GP quantile where v <= c TAIL_MASS, filler elsewhere) must
    give the identical array."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((spec.seed, 2))))
    v = _draw_uniforms(spec, rng)
    u = np.arange(1, spec.n + 1) / spec.n
    c = np.column_stack([spec.level(j, u) for j in range(spec.m)])
    tail = v <= c * TAIL_MASS
    frac = (v - c * TAIL_MASS) / (1.0 - c * TAIL_MASS)
    want = np.where(tail, spec.tail_quantile(np.where(tail, v / c, TAIL_MASS)),
                    spec.tail_quantile(TAIL_MASS) * (1.0 - np.clip(frac, 0.0, 1.0)))
    assert np.array_equal(simulate_panel(spec, 2).values, want)


_TREND3 = ((0.5, 1.5), (1.0, 1.0), (1.5, 0.5))
_PINNED_SPECS = {
    "independent": SimSpec(n=400, m=3, gamma=0.2, seed=11),
    "logistic": SimSpec(n=400, m=3, gamma=0.2, dependence="logistic", alpha=0.6, seed=11),
    "comonotone": SimSpec(n=400, m=3, gamma=0.2, dependence="comonotone", seed=11),
    "logistic-trend": SimSpec(n=400, m=3, gamma=0.2, dependence="logistic", alpha=0.6,
                              seed=11, scedasis=_TREND3),
}


@pytest.mark.parametrize("name, replication, digest", [
    ("independent", 0, "61fab9460e9c312c9d263b5bed4e23e0483b136d962de08f7376eecb9e78000f"),
    ("independent", 7, "58d97568b827463afafcbc8f038b86a5ec259535a178266265ca3f4e34c5c537"),
    ("logistic", 0, "3509d426500a18662c9633b0ade89354d3dfff6e0ecc3f47bdcaa5bf6abb2125"),
    ("logistic", 7, "935356662c0b105293263a01f484c597c9e2efceed75bf456f20872a47ca310c"),
    ("comonotone", 0, "6998125fe19f4ffd48a553787ba2b85f0d6e9e797f9d5d920ada8259dddd0dbb"),
    ("comonotone", 7, "d737ed582ddd50b258835373e616cc68a7b1c2cda305d29ddc5d808292db7271"),
    ("logistic-trend", 0, "61dd9fb011c88e8a4fa5ede45b5d2eb294df35093a5324d4e6abe08f3937a4c5"),
    ("logistic-trend", 7, "1bff145136946bea92ca22cb98e3b8c4339fa68360fbfab05222485454c952c1"),
])
def test_simulate_panel_bits_are_pinned(name, replication, digest):
    """The simulator's output to the bit, recorded with numpy 2.4 on x86-64:
    a change to the arithmetic or its order, or to the random streams, shows
    here."""
    values = simulate_panel(_PINNED_SPECS[name], replication).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("threads", [1, 2])
def test_spec_frame_is_read_only_and_survives_replications(threads):
    spec = SimSpec(n=600, m=3, gamma=0.2, dependence="logistic", alpha=0.6, seed=4,
                   scedasis=_TREND3)
    c_mat, tail_mass, body_mass, x0 = spec._frame
    before = [a.copy() for a in (c_mat, tail_mass, body_mass)]
    u = np.arange(1, spec.n + 1) / spec.n
    assert np.array_equal(c_mat, np.column_stack([spec.level(j, u) for j in range(spec.m)]))
    assert np.array_equal(tail_mass, c_mat * TAIL_MASS)
    assert np.array_equal(body_mass, 1.0 - tail_mass)
    assert x0 == float(spec.tail_quantile(TAIL_MASS))
    for a in (c_mat, tail_mass, body_mass):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0
    mc_test_size(spec, k=40, reps=6, threads=threads)
    mc_covariance_check(spec, k=40, pairs=[((0, 1.0, 1.0), (2, 1.0, 0.5))], reps=6,
                        threads=threads)
    assert spec._frame[0] is c_mat  # built once
    for a, b in zip((c_mat, tail_mass, body_mass), before):
        assert np.array_equal(a, b)


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


def test_quadrature_rule_matches_leggauss_and_integrates_monomials():
    u, w = mc_module._nodes()
    assert mc_module._nodes() is mc_module._nodes()
    assert not (u.flags.writeable or w.flags.writeable)
    assert u.size == w.size == 200
    assert np.all(np.diff(u) > 0) and np.array_equal(w, w[::-1])
    # numpy's eigensolver rule as an oracle: its nodes, and its weights to
    # within their own error (about 2e-11 relative)
    x, v = np.polynomial.legendre.leggauss(200)
    assert np.abs(u - (x + 1.0) / 2.0).max() <= 2.3e-16
    assert np.abs(w / (v / 2.0) - 1.0).max() <= 5e-11
    # exact for polynomials of degree < 400 up to rounding (leggauss: 2.9e-15)
    p = np.arange(400)
    assert np.abs(w @ u[:, None] ** p - 1.0 / (p + 1)).max() <= 1e-15


def _r(spec):
    """The pairwise tail-copula surface r(i, j; s, t): the covariance over
    the whole record."""
    return lambda i, j, s, t: analytic_sigma(spec, i, j, s, t, 1.0, 1.0)


def test_analytic_r_independent():
    spec = SimSpec(n=100, m=2, gamma=0.25)
    r = _r(spec)
    assert r(0, 1, 0.5, 0.8) == 0.0
    # same-station pairs always use min: (1/m) min(s, t) under flat frequency
    assert r(0, 0, 0.3, 0.8) == pytest.approx(0.15, abs=1e-12)
    assert r(1, 1, 0.9, 0.2) == pytest.approx(0.1, abs=1e-12)


def test_analytic_r_logistic_flat():
    spec = SimSpec(n=100, m=2, gamma=0.25, dependence="logistic", alpha=0.5)
    r = _r(spec)
    R = logistic_tail_copula(0.5)
    for s, t in [(1.0, 1.0), (0.4, 0.9), (0.05, 0.6)]:
        assert r(0, 1, s, t) == pytest.approx(R(s, t) / 2.0, abs=1e-12)


def test_analytic_r_matches_direct_quadrature_with_trend():
    spec = SimSpec(
        n=100, m=2, gamma=0.0, dependence="logistic", alpha=0.6,
        scedasis=((0.5, 1.5), (1.0, 1.0)),
    )
    r = _r(spec)
    R = logistic_tail_copula(0.6)

    def oracle(s, t):
        val, _ = quad(lambda u: float(R(s * spec.level(0, u), t * spec.level(1, u))), 0, 1)
        return val / 2.0

    for s, t in [(1.0, 1.0), (0.3, 0.7)]:
        assert r(0, 1, s, t) == pytest.approx(oracle(s, t), abs=1e-9)


def test_analytic_r_broadcasts():
    spec = SimSpec(n=100, m=2, gamma=0.25, dependence="comonotone")
    r = _r(spec)
    s = np.array([0.2, 0.5, 1.0])
    out = r(0, 1, s, np.ones(3))
    assert out.shape == (3,)
    assert out == pytest.approx(s / 2.0, abs=1e-12)


def _moment_corner_by_quad(spec, R):
    """Nested adaptive quadrature of the moment int_0^1 X(v, 1) / v dv and the
    corner X(1, 1) of the cross-station edge X(v, 1) = sum over i != j of
    r(i, j; v, 1).  Under R = min the integrands kink where v c_i(u) = c_j(u);
    quad is told where, in u and in v."""
    pairs = [(i, j) for i in range(spec.m) for j in range(spec.m) if i != j]

    def crossing(i, j, v):
        d0, d1 = (v * spec.level(i, u) - spec.level(j, u) for u in (0.0, 1.0))
        return [d0 / (d0 - d1)] if d0 * d1 < 0 else None

    def edge(v):
        return sum(_sigma_by_quad(spec, R, i, j, v, 1.0, 1.0, points=crossing(i, j, v))
                   for i, j in pairs)

    kinks = [float(spec.level(j, u) / spec.level(i, u)) for i, j in pairs for u in (0.0, 1.0)]
    moment, _ = quad(lambda v: edge(v) / v, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200,
                     points=[v for v in kinks if 0 < v < 1] or None)
    return moment, edge(1.0)


@pytest.mark.parametrize("alpha", [0.2, 0.6, 0.9, 0.99])
@pytest.mark.parametrize("lines", [None, _TREND3])
def test_analytic_moment_corner_matches_nested_quadrature(alpha, lines):
    spec = SimSpec(n=100, m=3, gamma=0.1, dependence="logistic", alpha=alpha,
                   scedasis=lines)
    moment, corner = _analytic_moment_corner(spec)
    want_moment, want_corner = _moment_corner_by_quad(spec, logistic_tail_copula(alpha))
    assert moment == pytest.approx(want_moment, rel=1e-12)
    assert corner == pytest.approx(want_corner, rel=1e-12)


def test_analytic_moment_corner_groups_stations_on_one_line():
    """Two stations share a frequency line and one trends, so the pair sum is
    regrouped as a group of 2 and a group of 1."""
    spec = SimSpec(n=100, m=3, gamma=0.1, dependence="logistic", alpha=0.6,
                   scedasis=((1.0, 1.0), (0.5, 1.5), (1.0, 1.0)))
    want = _moment_corner_by_quad(spec, logistic_tail_copula(0.6))
    assert _analytic_moment_corner(spec) == pytest.approx(want, rel=1e-12)


def test_analytic_moment_corner_at_min_kinks():
    """Comonotone stations on different trends: min(v c_i(u), c_j(u)) kinks
    inside (0, 1), where the fixed rule is not exact (see
    test_analytic_sigma_at_a_min_kink)."""
    spec = SimSpec(n=100, m=3, gamma=0.1, dependence="comonotone", scedasis=_TREND3)
    (moment, corner), (want_moment, want_corner) = (_analytic_moment_corner(spec),
                                                     _moment_corner_by_quad(spec, np.minimum))
    assert moment == pytest.approx(want_moment, rel=1e-7)  # measured: 7.7e-9
    # the corner is analytic_sigma's whole-record value (measured: 4.1e-6)
    assert corner == pytest.approx(want_corner, rel=1e-5)


@pytest.mark.parametrize("spec", [
    SimSpec(n=100, m=3, gamma=0.1),
    SimSpec(n=100, m=1, gamma=0.1, dependence="logistic", alpha=0.6),
    SimSpec(n=100, m=1, gamma=0.1, dependence="comonotone"),
])
def test_analytic_moment_corner_is_zero_without_cross_dependence(spec):
    assert _analytic_moment_corner(spec) == (0.0, 0.0)


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


def _sigma_by_quad(spec, R, j1, j2, s1, s2, upper, **opts):
    val, _ = quad(lambda u: float(R(s1 * spec.level(j1, u), s2 * spec.level(j2, u))), 0.0,
                  upper, **opts)
    return val / spec.m


def test_analytic_sigma_matches_adaptive_quadrature_with_trend():
    spec = SimSpec(
        n=100, m=2, gamma=0.1, dependence="logistic", alpha=0.6,
        scedasis=((0.5, 1.5), (1.0, 1.0)),
    )
    R = logistic_tail_copula(0.6)
    for s1, s2, t1, t2 in [(1.0, 0.8, 0.6, 0.9), (0.3, 1.0, 0.25, 0.25)]:
        want = _sigma_by_quad(spec, R, 0, 1, s1, s2, min(t1, t2), epsabs=1e-14, epsrel=1e-14)
        assert analytic_sigma(spec, 0, 1, s1, s2, t1, t2) == pytest.approx(want, abs=1e-12)


def test_analytic_sigma_at_a_min_kink():
    """Comonotone stations under different trends: min(s c_0(u), t c_1(u))
    switches branch at u = 1/2, where the fixed rule loses its exactness
    (measured: 2.9e-6 relative)."""
    spec = SimSpec(
        n=100, m=2, gamma=0.1, dependence="comonotone",
        scedasis=((0.5, 1.5), (1.0, 1.0)),
    )
    want = _sigma_by_quad(spec, np.minimum, 0, 1, 1.0, 1.0, 1.0, points=[0.5])
    assert want == pytest.approx(0.4375, abs=1e-12)
    assert analytic_sigma(spec, 0, 1, 1.0, 1.0, 1.0, 1.0) == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize("dependence,alpha",
                         [("independent", None), ("comonotone", None), ("logistic", 0.5)])
def test_tail_integrals_reject_bad_stations_and_negative_levels(dependence, alpha):
    spec = SimSpec(n=100, m=2, gamma=0.25, dependence=dependence, alpha=alpha)
    r = _r(spec)
    for i, j in [(-1, 0), (0, -1), (0, 2), (2, 2)]:
        with pytest.raises(RangeError, match="out of range"):
            r(i, j, 1.0, 1.0)
        with pytest.raises(RangeError, match="out of range"):
            analytic_sigma(spec, i, j, 1.0, 1.0, 0.0, 1.0)
    for i, j in [(0, 0), (0, 1)]:  # min within a station, the pair copula across
        with pytest.raises(RangeError, match=">= 0"):
            r(i, j, np.array([0.5, -0.1]), 1.0)
        with pytest.raises(RangeError, match=">= 0"):
            analytic_sigma(spec, i, j, -1.0, 1.0, 1.0, 1.0)
        with pytest.raises(RangeError, match=">= 0"):
            analytic_sigma(spec, i, j, 1.0, -1.0, 1.0, 1.0)


@pytest.mark.parametrize("t1,t2", [(2.0, 3.0), (1.0, 1.5), (-1.0, 1.0), (0.5, -0.1),
                                   (np.nan, 1.0), (1.0, np.nan)])
def test_analytic_sigma_rejects_time_fractions_outside_the_unit_interval(t1, t2):
    # the simulator has no days past u = 1; before this check (2, 3) read 1.0,
    # t = -1 read 0.0 and NaN read nan
    spec = SimSpec(n=100, m=2, gamma=0.25)
    with pytest.raises(RangeError, match=r"time fractions must lie in \[0, 1\]"):
        analytic_sigma(spec, 0, 0, 1.0, 1.0, t1, t2)


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


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_replicate_raises_a_failing_replication_on_the_caller(threads):
    before = threading.active_count()

    def one(rep):
        if rep == 4:
            raise TypeError("replication 4 is broken")
        return float(rep)

    with pytest.raises(TypeError, match="replication 4 is broken"):
        _replicate(one, 12, threads, need=1)
    assert threading.active_count() == before  # every helper was joined
    vals, _ = _replicate(lambda rep: float(rep), 12, threads, need=1)
    assert vals.tolist() == list(map(float, range(12)))
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_replicate_stops_handing_out_replications_after_a_failure(threads):
    ran = []

    def one(rep):
        ran.append(rep)
        raise ValueError("broken")

    with pytest.raises(ValueError):
        _replicate(one, 50, threads, need=1)
    assert len(ran) <= threads  # each thread ran at most the one that failed


@pytest.mark.parametrize("threads", [2, 3])
def test_replicate_runs_a_share_on_the_callers_thread(threads):
    """So a tracer's spans of those replications nest in the harness's span."""
    caller = threading.get_ident()
    caller_ran = threading.Event()
    idents = []

    def one(rep):
        idents.append(threading.get_ident())
        if threading.get_ident() == caller:
            caller_ran.set()
        else:  # a helper waits until the caller has taken a replication
            caller_ran.wait(timeout=10)
        return rep

    vals, skipped = _replicate(one, 2 * threads, threads, need=1)
    assert vals.tolist() == list(range(2 * threads)) and skipped == 0
    assert caller in idents


def test_replicate_hands_each_replication_to_one_thread_under_stress():
    # more threads than cores, and thread switches as often as the
    # interpreter allows: a replication handed out twice or never shows
    ran = []

    def one(rep):
        ran.append(rep)
        return rep

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (2, 8):
            ran.clear()
            vals, skipped = _replicate(one, 3000, threads, need=1)
            assert sorted(ran) == list(range(3000)) and skipped == 0
            assert vals.tolist() == list(range(3000))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads, reps, helpers", [(1, 5, 0), (2, 5, 1), (3, 5, 2),
                                                    (8, 3, 2), (8, 1, 0)])
def test_replicate_starts_one_helper_fewer_than_it_uses_threads(threads, reps, helpers,
                                                                 monkeypatch):
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(mc_module.threading, "Thread", Counted)
    vals, _ = _replicate(lambda rep: rep, reps, threads, need=1)
    assert vals.tolist() == list(range(reps))
    assert len(started) == helpers


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


def test_mc_mle_variance_threads_match_serial():
    spec = SimSpec(n=1000, m=3, gamma=0.1, dependence="logistic", alpha=0.6, seed=29)
    a = mc_mle_variance(spec, k=80, reps=8, threads=1)
    b = mc_mle_variance(spec, k=80, reps=8, threads=2)
    assert (a.replications, a.skipped) == (b.replications, b.skipped)
    assert a.summaries == b.summaries


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
    for bad in (math.nan, math.inf, -math.inf):  # NaN passed both checks and reached R
        with pytest.raises(RangeError, match="level must be finite and positive"):
            mc_covariance_check(spec, k=50, pairs=[((0, 1.0, 1.0), (1, bad, 1.0))], reps=5)
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
