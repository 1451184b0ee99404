"""Pooled order statistics and the level-k tail.

The small 8x2 fixture pools to N=16 tie-free values; with k=4 the global
threshold is the 5th largest pooled value (5.0), checked by hand.  Property
tests recount the level-k tail of tied panels with missing cells, check
that every estimator sees the same exceedances and ties, and that the
tail-copula ranks place every cell at the levels the threshold rule does.
"""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from scedex import (
    EmpiricalTailDependence,
    EmptyPoolError,
    FitConvergenceError,
    InsufficientDataError,
    NoExceedanceError,
    PanelSample,
    RangeError,
    decluster,
    fit_gp_pml,
    gamma_path,
    k_sweep,
    pool,
    scedasis_all,
    sigma1_matrix,
    split_season,
    time_test,
)
from scedex.tail import TailAtK, check_k

from conftest import make_panel


def test_pool_sorted_and_frozen(small_panel):
    o = pool(small_panel)
    assert o.n_effective == 16
    assert np.all(np.diff(o.values) > 0)  # fixture is tie-free
    assert o.values[-1] == 9.0
    # arrays are frozen
    with pytest.raises(ValueError):
        o.values[0] = -1.0


def test_pool_keeps_tied_values():
    p = make_panel([[2.0, 2.0], [2.0, 1.0]])
    o = pool(p)
    assert o.values.tolist() == [1.0, 2.0, 2.0, 2.0]


def test_pool_skips_missing(small_panel):
    vals = small_panel.values.copy()
    miss = np.zeros_like(vals, dtype=bool)
    miss[3, 0] = True  # drop the maximum, 9.0
    p = make_panel(vals, missing=miss)
    o = pool(p)
    assert o.n_effective == 15
    assert o.values[-1] == 8.0


def test_pool_empty_raises():
    p = make_panel([[1.0, 2.0]], missing=[[True, True]])
    with pytest.raises(EmptyPoolError):
        pool(p)


def test_pool_shares_the_panels_one_read_only_array(small_panel):
    assert pool(small_panel).values is pool(small_panel).values
    assert not pool(small_panel).values.flags.writeable


def test_derived_panels_pool_their_own_rows():
    rng = np.random.default_rng(3)
    vals = rng.pareto(2.0, (60, 3))  # 2001-01-01 on: January and February
    missing = rng.random((60, 3)) < 0.1
    p = make_panel(vals, missing=missing)
    whole = pool(p).values  # sorted before the derived panels exist
    february = split_season(p, {2})  # all 28 days the record spans: no thin-year warning
    for derived in (decluster(p, 1), february):
        assert derived.n < p.n
        assert np.array_equal(pool(derived).values,
                              np.sort(derived.values[~derived.missing_mask]))
        assert pool(derived).n_effective < whole.size


def test_one_sort_per_panel(monkeypatch):
    sorts = []
    sort = PanelSample.sorted_values.func

    def counted(panel):
        sorts.append(panel)
        return sort(panel)

    monkeypatch.setattr(PanelSample.sorted_values, "func", counted)
    rng = np.random.default_rng(11)
    p = make_panel(rng.pareto(2.0, (400, 3)))
    k_sweep(p, [40, 60, 80], which="space")
    gamma_path(p, [40, 60, 80])
    for j in range(p.m):
        time_test(p, 60, j)
    assert len(sorts) == 1 and sorts[0] is p


def test_check_k_bounds():
    assert check_k(1, 16) == 1
    assert check_k(15, 16) == 15
    for bad in (0, 16, -3):
        with pytest.raises(RangeError):
            check_k(bad, 16)


def test_renormalising_without_exceedances_raises():
    # the top k = 5 all tie with the threshold 1.0: nothing exceeds it
    p = make_panel(np.ones((30, 2)))
    tail = TailAtK(p, 5)
    assert (tail.n_exceedances, tail.tie_count, tail.divisor(False)) == (0, 5, 5)
    for compute in (lambda: tail.divisor(True),
                    lambda: scedasis_all(p, 5, renormalize=True),
                    lambda: sigma1_matrix(p, 5, renormalize=True),
                    lambda: time_test(p, 5, 0)):
        with pytest.raises(NoExceedanceError, match="no strict exceedances of the pooled"):
            compute()


def test_global_threshold_is_k_plus_first_largest(small_panel):
    o = pool(small_panel)
    # exactly k = 4 pooled values (6, 7, 8, 9) exceed the threshold
    tail = TailAtK(small_panel, 4)
    thr = tail.threshold
    assert thr == 5.0
    assert int((o.values > thr).sum()) == 4
    assert TailAtK(small_panel, 1).threshold == 8.0
    assert TailAtK(small_panel, 15).threshold == 0.1


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=40),
    m=st.integers(min_value=1, max_value=4),
    k_draw=st.integers(min_value=0, max_value=10**6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_quantile_process_nonincreasing(n, m, k_draw, seed):
    """Deeper levels l <= k can only move the threshold down, never up, and
    on tied panels with missing cells the tail-copula ranks of the level-k
    table put each station at every level l exactly where the level-l
    threshold does: r_jj(l/k, l/k) counts its cells above that threshold."""
    rng = np.random.default_rng(seed)
    vals = np.floor(rng.pareto(1.0, (n, m)) * 3)
    missing = rng.random((n, m)) < 0.2
    N = int(np.count_nonzero(~missing))
    if N < 2:
        reject()
    k = 1 + k_draw % (N - 1)
    p = make_panel(vals, missing=missing)
    etd = EmpiricalTailDependence(p, k)
    thresholds = [TailAtK(p, level).threshold for level in range(1, k + 1)]
    assert np.all(np.diff(thresholds) <= 0)
    for level, thr in zip(range(1, k + 1), thresholds):
        counts = ((vals > thr) & ~missing).sum(axis=0)
        for j in range(m):
            assert etd.r(j, j, level / k, level / k) * k == pytest.approx(counts[j], abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=30),
    m=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_station_shares_sum_to_one_without_ties(n, m, seed):
    rng = np.random.default_rng(seed)
    vals = rng.permutation(n * m).reshape(n, m) + 1.0
    p = make_panel(vals)
    k = max(1, (n * m) // 3)
    total = sum(c.c1 for c in scedasis_all(p, k))
    assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=60),
    m=st.integers(min_value=1, max_value=4),
    k_draw=st.integers(min_value=0, max_value=10**6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_every_estimator_sees_the_same_level_k_tail(n, m, k_draw, seed):
    """Heavy-tailed integer panels (many ties) with about 20% missing cells."""
    rng = np.random.default_rng(seed)
    vals = np.floor(rng.pareto(1.0, (n, m)) * 3)
    missing = rng.random((n, m)) < 0.2
    observed = np.sort(vals[~missing])
    N = observed.size
    if N < 2:
        reject()
    k = 1 + k_draw % (N - 1)
    # Independent recount: strict exceedances of X_{N-k:N}, missing cells excluded.
    thr = observed[N - k - 1]
    counts = ((vals > thr) & ~missing).sum(axis=0)
    ties = k - int(np.count_nonzero(observed > thr))
    p = make_panel(vals, missing=missing)

    curves = scedasis_all(p, k)
    assert [c.n_exceedances for c in curves] == counts.tolist()
    assert [c.tie_count for c in curves] == [ties] * m
    assert np.diag(sigma1_matrix(p, k).entries) * k == pytest.approx(counts, abs=1e-9)
    assert EmpiricalTailDependence(p, k).c1 * k == pytest.approx(counts, abs=1e-9)
    for j in range(m):
        if counts[j] == 0:
            with pytest.raises(NoExceedanceError):
                time_test(p, k, j)
        else:
            assert time_test(p, k, j).extras["n_exceedances"] == counts[j]
    if k - ties < 10:
        with pytest.raises(InsufficientDataError):
            fit_gp_pml(p, k)
        return
    try:
        fit = fit_gp_pml(p, k)
    except FitConvergenceError:
        reject()  # a degenerate excess sample has no fit to read the count from
    assert fit.dropped_ties == ties
