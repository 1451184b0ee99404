"""Integrated scedasis curves on hand-checkable panels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scedex import RangeError, scedasis_all, scedasis_curve

from conftest import make_panel


def test_hand_curve_station0(small_panel):
    # threshold 5.0; station 0 exceeds on days 4 (9.0) and 6 (6.0)
    c = scedasis_curve(small_panel, k=4, j=0)
    assert c.jump_times.tolist() == [0.5, 0.75]
    assert c.n_exceedances == 2
    assert c.divisor == 4
    assert c.tie_count == 0
    assert c.c1 == 0.5


def test_hand_curve_station1(small_panel):
    # station 1 exceeds on days 2 (7.0) and 7 (8.0)
    c = scedasis_curve(small_panel, k=4, j=1)
    assert c.jump_times.tolist() == [0.25, 0.875]
    assert c.c1 == 0.5
    assert c.value([0.5, 1.0]).tolist() == [0.25, 0.5]


def test_step_curve_evaluation(small_panel):
    c = scedasis_curve(small_panel, k=4, j=0)
    assert c.value(0.0) == 0.0
    assert c.value(0.49) == 0.0  # floor(8 * .49) = 3, before the first jump
    assert c.value(0.5) == 0.25  # jump at day 4 included
    assert c.value(0.75) == 0.5
    assert c.value(1.0) == 0.5
    got = c.value([0.0, 0.5, 1.0])
    assert got.tolist() == [0.0, 0.25, 0.5]
    for bad in (-0.1, 1.1):
        with pytest.raises(RangeError):
            c.value(bad)


@pytest.mark.parametrize("bad", [math.nan, [0.5, math.nan], math.inf, [-math.inf, 0.5]])
def test_curve_value_rejects_non_finite_times(small_panel, bad):
    # NaN fails both range comparisons: value([0.5, nan]) read C_j(1) at nan
    with pytest.raises(RangeError, match=r"t must lie in \[0, 1\]"):
        scedasis_curve(small_panel, k=4, j=0).value(bad)


def test_curve_value_matches_c1_at_one(small_panel):
    for c in scedasis_all(small_panel, k=4):
        assert c.value(1.0) == c.c1


def test_shares_sum_to_one_tie_free(small_panel):
    curves = scedasis_all(small_panel, k=4)
    assert sum(c.c1 for c in curves) == 1.0
    assert all(c.tie_count == 0 for c in curves)


def test_threshold_ties_reduce_realised_count():
    # pooled sample [1,2,3,5,5,5,9,10]: threshold 5.0 is triply tied, only
    # two observations lie strictly above it
    p = make_panel(np.array([[1.0, 2, 3, 5, 5, 5, 9, 10]]).T)
    raw = scedasis_curve(p, k=4, j=0)
    assert raw.tie_count == 2
    assert raw.divisor == 4
    assert raw.c1 == 0.5

    renorm = scedasis_curve(p, k=4, j=0, renormalize=True)
    assert renorm.divisor == 2
    assert renorm.c1 == 1.0
    assert renorm.jump_times.tolist() == raw.jump_times.tolist()


def test_renormalised_shares_sum_to_one_with_ties():
    p = make_panel([[5.0, 5.0], [5.0, 2.0], [9.0, 10.0], [1.0, 3.0]])
    curves = scedasis_all(p, k=4, renormalize=True)
    assert sum(c.c1 for c in curves) == 1.0
    assert [c.c1 for c in curves] == [0.5, 0.5]
    raw = scedasis_all(p, k=4)
    assert sum(c.c1 for c in raw) == 0.5


def test_missing_days_do_not_count(small_panel):
    vals = small_panel.values.copy()
    miss = np.zeros_like(vals, dtype=bool)
    miss[3, 0] = True  # remove the 9.0: pool shrinks to 15, threshold drops to 4.0
    p = make_panel(vals, missing=miss)
    c0 = scedasis_curve(p, k=4, j=0)
    c1 = scedasis_curve(p, k=4, j=1)
    assert c0.jump_times.tolist() == [1 / 8, 6 / 8]  # days 1 (5.0) and 6 (6.0)
    assert c1.jump_times.tolist() == [2 / 8, 7 / 8]
    assert c0.c1 + c1.c1 == 1.0


def test_station_index_validated(small_panel):
    with pytest.raises(RangeError):
        scedasis_curve(small_panel, k=4, j=5)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=40),
    m=st.integers(min_value=1, max_value=5),
    kfrac=st.floats(min_value=0.05, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_tie_free_shares_always_sum_to_one(n, m, kfrac, seed):
    rng = np.random.default_rng(seed)
    vals = rng.permutation(n * m).reshape(n, m) + 1.0
    p = make_panel(vals)
    k = min(n * m - 1, max(1, int(kfrac * n * m)))
    curves = scedasis_all(p, k)
    assert sum(c.n_exceedances for c in curves) == k
    assert sum(c.c1 for c in curves) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=30),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_curves_are_nondecreasing_step_functions(n, seed):
    rng = np.random.default_rng(seed)
    vals = rng.permutation(2 * n).reshape(n, 2) + 1.0
    p = make_panel(vals)
    c = scedasis_curve(p, k=n // 2, j=0)
    grid = np.linspace(0, 1, 41)
    v = c.value(grid)
    assert np.all(np.diff(v) >= 0)
    assert v[0] == 0.0
    assert v[-1] == c.c1
