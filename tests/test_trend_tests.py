"""Space and time homogeneity tests, with closed-form and scipy oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from scedex import (
    EmptyPoolError,
    NoExceedanceError,
    SimSpec,
    RangeError,
    SingularCovarianceError,
    bonferroni,
    chi2_pvalue,
    k_sweep,
    kolmogorov_pvalue,
    sigma1_matrix,
    simulate_panel,
    space_test,
    time_test,
)
from scedex.trend_tests import ks_statistic_from_jumps

from conftest import make_panel


# ---------------------------------------------------------------------------
# Kolmogorov tail probabilities
# ---------------------------------------------------------------------------


def test_kolmogorov_pvalue_against_scipy():
    # the defining series 2 sum (-1)^{i-1} exp(-2 i^2 d^2), summed until its
    # terms underflow
    for d in (0.3, 0.5, 0.8, 1.0, 1.36, 2.0):
        total, i = 0.0, 1
        while (term := math.exp(-2.0 * i * i * d * d)) > 0.0:
            total += term if i % 2 else -term
            i += 1
        assert kolmogorov_pvalue(d) == pytest.approx(2.0 * total, abs=1e-12)


def test_kolmogorov_pvalue_near_critical_value():
    # 1.36 sits just above the 5% critical point of the Kolmogorov law
    assert kolmogorov_pvalue(1.36) == pytest.approx(0.049486, abs=1e-5)
    assert kolmogorov_pvalue(1.3581) == pytest.approx(0.05, abs=1e-4)


def test_kolmogorov_pvalue_matches_scipy():
    # both branches: the alternating series from d = 1, the theta form below
    for d in np.linspace(0.01, 6.0, 1199):
        assert kolmogorov_pvalue(float(d)) == pytest.approx(
            float(special.kolmogorov(d)), rel=1e-12, abs=0.0)


def test_kolmogorov_pvalue_edges():
    assert kolmogorov_pvalue(0.0) == 1.0
    assert kolmogorov_pvalue(math.inf) == 0.0
    # first term only: the next one, exp(-800), underflows
    assert kolmogorov_pvalue(10.0) == pytest.approx(2.0 * math.exp(-200.0), rel=1e-12)
    assert 0.0 <= kolmogorov_pvalue(0.02) <= 1.0  # tiny d: near-certain p
    with pytest.raises(RangeError):
        kolmogorov_pvalue(-0.1)
    with pytest.raises(RangeError):
        kolmogorov_pvalue(math.nan)


@pytest.mark.parametrize("df", [*range(1, 40), 63, 127, 255])
def test_chi2_pvalue_matches_scipy(df):
    # at df = 255 the far end is near 1e-143: the terms are formed in log space
    for x in np.linspace(0.0, 5.0 * df + 50.0, 201):
        assert chi2_pvalue(float(x), df) == pytest.approx(
            float(special.chdtrc(df, x)), rel=1e-12, abs=0.0)


def test_chi2_pvalue_edges():
    for df in (1, 2, 255):
        assert chi2_pvalue(0.0, df) == 1.0
        assert chi2_pvalue(math.inf, df) == 0.0
        with pytest.raises(RangeError):
            chi2_pvalue(math.nan, df)
        with pytest.raises(RangeError):
            chi2_pvalue(-1.0, df)
    assert chi2_pvalue(2.0, 2) == pytest.approx(math.exp(-1.0), rel=1e-15)
    with pytest.raises(RangeError):
        chi2_pvalue(1.0, 0)
    with pytest.raises(RangeError):
        chi2_pvalue(1.0, 1.5)


# ---------------------------------------------------------------------------
# space test
# ---------------------------------------------------------------------------


def _share_panel(counts, n=60):
    """Station j alone exceeds on ``counts[j]`` days of its own, and no two
    values tie; at k = sum(counts) the joint matrix is diag(counts) / k."""
    m = len(counts)
    vals = np.arange(n * m, dtype=float).reshape(n, m) / (n * m)
    day = 0
    for j, c in enumerate(counts):
        vals[day:day + c, j] = 10.0 + np.arange(day, day + c)
        day += c
    return make_panel(vals)


def test_space_statistic_hand_value():
    # shares (.6, .4) with joint matrix diag(.6, .4) and k = 25:
    # D = (.5, -.5), centred covariance block [[.25]], statistic exactly 1
    p = _share_panel([15, 10])
    assert sigma1_matrix(p, 25, renormalize=True).entries.tolist() == [[0.6, 0.0], [0.0, 0.4]]
    res = space_test(p, k=25)
    assert res.statistic == pytest.approx(1.0, abs=1e-12)
    assert res.df == 1
    assert res.p_value == pytest.approx(float(stats.chi2.sf(1.0, 1)), abs=1e-12)
    assert res.extras["tie_count"] == 0


def test_space_statistic_three_stations():
    # equal shares: statistic is identically zero whatever the covariance
    res = space_test(_share_panel([10, 10, 10]), k=30)
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.df == 2


def test_space_test_balanced_panel(small_panel):
    res = space_test(small_panel, k=4)
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == 1.0
    assert res.df == 1
    assert res.extras["tie_count"] == 0


def test_space_test_duplicated_station_is_singular():
    col = np.array([10.0, 1, 11, 2, 12, 3, 13, 4])
    p = make_panel(np.column_stack([col, col]))
    with pytest.raises(SingularCovarianceError) as exc:
        space_test(p, k=4)
    assert (0, 1) in exc.value.suspects
    assert "1 near-duplicate station pair(s): (0, 1);" in str(exc.value)


def test_singular_report_stays_short_at_tens_of_stations():
    # 133 near-duplicate pairs at this spec: the message names five
    spec = SimSpec(n=24000, m=32, gamma=0.1, dependence="logistic", alpha=0.6, seed=1)
    with pytest.raises(SingularCovarianceError) as exc:
        space_test(simulate_panel(spec), k=64)
    message = str(exc.value)
    assert len(exc.value.suspects) > 5
    assert f"{len(exc.value.suspects)} near-duplicate station pair(s)" in message
    assert "fewest exceedances at a station: 0, at station(s)" in message
    assert len(message) < 300


def test_near_duplicate_pairs_at_tens_of_stations():
    # three planted duplicates among 32 dependent stations, listed row-major
    spec = SimSpec(n=24000, m=32, gamma=0.1, dependence="logistic", alpha=0.6, seed=1)
    base = simulate_panel(spec)
    values = np.array(base.values)
    for a, b in [(3, 17), (20, 5), (30, 31)]:
        values[:, b] = values[:, a]
    p = make_panel(values)
    with pytest.raises(SingularCovarianceError) as exc:
        space_test(p, k=1000)
    assert exc.value.suspects == [(3, 17), (5, 20), (30, 31)]
    assert ("3 near-duplicate station pair(s): (3, 17), (5, 20), (30, 31); "
            "fewest exceedances at a station: 24, at station(s) 0") in str(exc.value)


def test_space_test_needs_two_stations():
    p = make_panel(np.arange(1.0, 9.0).reshape(-1, 1))
    with pytest.raises(RangeError):
        space_test(p, k=3)


def test_space_test_invariant_to_scale(small_panel):
    a = space_test(small_panel, k=4)
    b = space_test(make_panel(small_panel.values * 3.7), k=4)
    assert a.statistic == b.statistic
    assert a.p_value == b.p_value


# ---------------------------------------------------------------------------
# time test
# ---------------------------------------------------------------------------


def test_ks_statistic_hand_values():
    # single jump at 1/2: both one-sided deviations are 1/2
    assert ks_statistic_from_jumps(np.array([0.5])) == pytest.approx(0.5, abs=1e-15)
    # perfectly spread jumps (i - 1/2)/N: deviation 1/(2 sqrt(N))
    N = 25
    u = (np.arange(1, N + 1) - 0.5) / N
    assert ks_statistic_from_jumps(u) == pytest.approx(0.1, abs=1e-14)
    with pytest.raises(NoExceedanceError):
        ks_statistic_from_jumps(np.array([]))


def test_time_test_hand_value():
    # exceedances land on days 1, 3, 5, 7 of 8: u = (1, 3, 5, 7)/8,
    # both deviations equal 1/8, so the statistic is sqrt(4)/8 = 1/4
    p = make_panel(np.array([[10.0, 1, 11, 2, 12, 3, 13, 4]]).T)
    res = time_test(p, k=4, j=0)
    assert res.statistic == pytest.approx(0.25, abs=1e-12)
    assert res.station == 0
    assert res.extras["n_exceedances"] == 4
    assert res.p_value == pytest.approx(kolmogorov_pvalue(0.25), abs=1e-15)


def test_time_test_clustered_start():
    # all exceedances in the first quarter: strong deviation from uniformity
    vals = np.concatenate([[50.0, 60, 70, 80], np.linspace(1, 2, 12)])
    p = make_panel(vals.reshape(-1, 1))
    res = time_test(p, k=4, j=0)
    assert res.statistic == pytest.approx(np.sqrt(4) * (1 - 4 / 16), abs=1e-12)
    assert res.p_value == pytest.approx(kolmogorov_pvalue(1.5), abs=1e-15)
    assert res.p_value < 0.05


def test_time_test_no_exceedances():
    p = make_panel([[10.0, 0.1], [11.0, 0.2], [12.0, 0.3], [13.0, 0.4]])
    with pytest.raises(NoExceedanceError):
        time_test(p, k=3, j=1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_ks_statistic_matches_scipy(n, seed):
    rng = np.random.default_rng(seed)
    u = np.sort(rng.uniform(1e-6, 1.0, size=n))
    want = stats.kstest(u, "uniform").statistic * np.sqrt(n)
    assert ks_statistic_from_jumps(u) == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# multiple comparisons and sweeps
# ---------------------------------------------------------------------------


def test_bonferroni_divides_alpha():
    p = np.full(49, 0.5)
    p[7] = 1e-4
    res = bonferroni(p)
    assert res.corrected_level == pytest.approx(0.05 / 49, abs=1e-15)
    assert res.reject.sum() == 1
    assert bool(res.reject[7])


def test_bonferroni_validation():
    with pytest.raises(RangeError):
        bonferroni([])
    with pytest.raises(RangeError):
        bonferroni([0.5, 1.5])
    with pytest.raises(RangeError):
        bonferroni([0.5], alpha=0.0)


def test_k_sweep_space(small_panel):
    rows = k_sweep(small_panel, [2, 4, 6], which="space")
    assert [r.k for r in rows] == [2, 4, 6]
    assert all(r.error is None for r in rows)
    assert all(r.p_value is not None for r in rows)


def test_k_sweep_records_errors_and_continues():
    col = np.array([10.0, 1, 11, 2, 12, 3, 13, 4])
    p = make_panel(np.column_stack([col, col]))
    rows = k_sweep(p, [3, 4], which="space")
    assert all(r.statistic is None and r.error for r in rows)


def test_k_sweep_raises_on_a_panel_with_nothing_observed():
    p = make_panel(np.ones((8, 2)), missing=np.ones((8, 2), dtype=bool))
    for which, station in (("space", None), ("time", 0)):
        with pytest.raises(EmptyPoolError, match="no non-missing observations"):
            k_sweep(p, [1, 2], which=which, station=station)


def test_k_sweep_time_requires_station(small_panel):
    with pytest.raises(RangeError):
        k_sweep(small_panel, [4], which="time")
    rows = k_sweep(small_panel, [4], which="time", station=0)
    assert rows[0].error is None
    with pytest.raises(RangeError):
        k_sweep(small_panel, [4], which="sideways")
