"""Joint exceedance counts and the tail-copula counts of the sandwich."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scedex import (
    EmpiricalTailDependence,
    RangeError,
    scedasis_all,
    sigma1_matrix,
)
from scedex.tail import pool

from conftest import make_panel


# Both stations spike on days 1 and 3; pooled threshold at k=4 is 6.0.
JOINT_PANEL = [
    [10.0, 9.0],
    [1.0, 2.0],
    [8.0, 7.0],
    [0.5, 0.3],
    [3.0, 4.0],
    [0.2, 0.1],
    [6.0, 5.0],
    [0.4, 0.6],
]


def test_sigma1_hand_disjoint(small_panel):
    # stations never exceed on the same day in the small fixture
    dep = sigma1_matrix(small_panel, k=4)
    assert dep.entries.tolist() == [[0.5, 0.0], [0.0, 0.5]]
    assert dep.divisor == 4
    assert dep.tie_count == 0
    assert dep.m == 2


def test_sigma1_hand_joint_days():
    # two joint days of k = 4 exceedances: the off-diagonal is 2/4
    dep = sigma1_matrix(make_panel(JOINT_PANEL), k=4)
    assert dep.entries.tolist() == [[0.5, 0.5], [0.5, 0.5]]


def test_sigma1_diagonal_is_scedasis_share(small_panel):
    dep = sigma1_matrix(small_panel, k=4)
    shares = [c.c1 for c in scedasis_all(small_panel, k=4)]
    assert np.diag(dep.entries).tolist() == shares


def test_sigma1_renormalised_with_ties():
    p = make_panel([[5.0, 5.0], [5.0, 2.0], [9.0, 10.0], [1.0, 3.0]])
    raw = sigma1_matrix(p, k=4)
    assert raw.entries.tolist() == [[0.25, 0.25], [0.25, 0.25]]
    assert raw.tie_count == 2
    ren = sigma1_matrix(p, k=4, renormalize=True)
    assert ren.entries.tolist() == [[0.5, 0.5], [0.5, 0.5]]
    assert ren.divisor == 2


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=40),
    m=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_sigma1_symmetric_and_dominated(n, m, seed):
    """Joint counts are symmetric and bounded by either marginal count."""
    rng = np.random.default_rng(seed)
    vals = rng.permutation(n * m).reshape(n, m) + 1.0
    p = make_panel(vals)
    dep = sigma1_matrix(p, k=(n * m) // 3)
    e = dep.entries
    assert np.array_equal(e, e.T)
    d = np.diag(e)
    assert np.all(e <= np.minimum.outer(d, d) + 1e-12)
    assert np.all(e >= 0)


# ---------------------------------------------------------------------------
# tail-copula counts
# ---------------------------------------------------------------------------


def _above(p, level):
    """Which cells strictly exceed the level-``level`` pooled threshold,
    thresholded from scratch on the raw panel."""
    o = pool(p)
    filled = np.where(p.missing_mask, -np.inf, p.values)
    return filled > o.values[o.n_effective - 1 - level]


def _brute_pair_count(p, k, i, j, si, sj):
    """Recount joint exceedances at order-statistic levels floor(k s)."""
    def above(col, s):
        levels = np.floor(k * np.atleast_1d(s) + 1e-9).astype(int)
        return np.stack([_above(p, l)[:, col] for l in levels], axis=1).astype(float)

    return above(i, si).T @ above(j, sj) / k


def _brute_edge(p, k):
    """X(l/k, 1) for l = 1..k: the joint counts of every ordered station pair
    i != j with i above level l and j above level k, divided by k."""
    top = _above(p, k).astype(float)
    edge = []
    for level in range(1, k + 1):
        joint = _above(p, level).astype(float).T @ top
        edge.append((joint.sum() - np.trace(joint)) / k)
    return np.array(edge)


def _surface_panel(kind="clean"):
    """400 days, 3 dependent stations; the holed panel lacks station 0's
    first 30% of rows and about 5% of all cells, and the tied one rounds to
    0.1."""
    rng = np.random.default_rng(515)
    base = rng.pareto(2.0, size=(400, 1))
    vals = np.hstack([base + rng.pareto(4.0, size=(400, 1)) for _ in range(3)])
    if kind == "tied":
        return make_panel(np.round(vals, 1))
    if kind == "clean":
        return make_panel(vals)
    holes = np.random.default_rng(516).random((400, 3)) < 0.05
    holes[:120, 0] = True
    return make_panel(vals, missing=holes)


@pytest.fixture(scope="module")
def surface_panel():
    return _surface_panel()


@pytest.fixture(scope="module", params=["clean", "holed"])
def any_surface_panel(request):
    return _surface_panel(request.param)


LEVELS = np.arange(1, 41) / 40


def test_surface_exact_at_grid_nodes(any_surface_panel):
    """r is the step count at every level l / k, l = 1..k, of either side."""
    etd = EmpiricalTailDependence(any_surface_panel, 40)
    for i, j in [(0, 1), (1, 2), (0, 0), (2, 0)]:
        want = _brute_pair_count(any_surface_panel, 40, i, j, LEVELS, LEVELS)
        assert np.array_equal(etd.r(i, j, LEVELS[:, None], LEVELS[None, :]), want)


def test_surface_vanishes_at_zero(surface_panel):
    etd = EmpiricalTailDependence(surface_panel, 40)
    assert etd.r(0, 1, 0.0, 0.7) == 0.0
    assert etd.r(0, 1, 0.7, 0.0) == 0.0
    assert etd.r(0, 1, 0.0, 0.0) == 0.0


def test_surface_transpose_symmetry(surface_panel):
    etd = EmpiricalTailDependence(surface_panel, 40)
    pts = [(0.3, 0.9), (0.05, 0.6), (1.0, 0.5)]
    for s, t in pts:
        assert etd.r(0, 2, s, t) == etd.r(2, 0, t, s)


def test_surface_diagonal_matches_marginal(surface_panel):
    """r_jj(s, s) is the marginal exceedance frequency at level floor(k s)."""
    k = 40
    etd = EmpiricalTailDependence(surface_panel, k)
    o = pool(surface_panel)
    for s in np.r_[LEVELS, 0.33, 0.999]:
        ks = int(np.floor(k * s + 1e-9))
        thr = o.values[o.n_effective - ks - 1]
        marg = np.count_nonzero(surface_panel.values[:, 1] > thr) / k
        assert etd.r(1, 1, s, s) == marg


def test_surface_monotone_queries(surface_panel):
    etd = EmpiricalTailDependence(surface_panel, 40)
    s = np.linspace(0.0, 1.0, 21)
    vals = etd.r(0, 1, s, np.full_like(s, 0.8))
    assert np.all(np.diff(vals) >= 0)


@pytest.mark.parametrize("s, t", [(2.0, 2.0), (1.0 + 1e-6, 0.5), (0.5, -0.1),
                                  (np.nan, 0.5), ([0.5, 1.5], 1.0)])
def test_surface_rejects_fractions_outside_the_unit_interval(s, t):
    """The table holds only the cells above level k, so nothing past s = 1
    can be read from it; a tail share never exceeds 1 per station pair."""
    vals = np.arange(60.0).reshape(20, 3)
    etd = EmpiricalTailDependence(make_panel(vals), 40)
    with pytest.raises(RangeError, match="in \\[0, 1\\]"):
        etd.r(0, 0, s, t)
    assert etd.r(0, 0, 1.0, 1.0) == 13 / 40  # 21, 24, ..., 57 exceed 19


def test_cross_is_the_sum_of_pair_counts(any_surface_panel):
    """The edge X(l/k, 1) of the aggregate surface X = sum over i != j of
    r_ij is the brute-force joint count at every level l = 1..k."""
    p = any_surface_panel
    etd = EmpiricalTailDependence(p, 40)
    pairwise = sum(etd.r(i, j, LEVELS, 1.0) for i in range(3) for j in range(3) if i != j)
    assert pairwise == pytest.approx(_brute_edge(p, 40), abs=1e-12)


@pytest.mark.parametrize("kind", ["clean", "holed", "tied"])
@pytest.mark.parametrize("k", [50, 200])
def test_moment_and_corner_match_a_brute_force_recount(kind, k):
    """X(v, 1) is a step function, constant on [l/k, (l+1)/k) and 0 below
    1/k, so its moment is sum over l = 1..k-1 of X(l/k, 1) log((l+1)/l) and
    its corner X(1, 1) the level-k count; one station has neither."""
    p = _surface_panel(kind)
    if kind == "tied":
        assert np.unique(pool(p).values[-k:]).size < k
    etd = EmpiricalTailDependence(p, k)
    edge = _brute_edge(p, k)
    levels = np.arange(1, k)
    assert etd.moment == pytest.approx(edge[:-1] @ np.log((levels + 1) / levels), abs=1e-12)
    assert etd.corner == pytest.approx(edge[-1], abs=1e-12)
    assert etd.moment > 0 and etd.corner > 0
    lone = EmpiricalTailDependence(make_panel(p.values[:, :1]), k)
    assert (lone.moment, lone.corner) == (0.0, 0.0)


def test_surface_c1_matches_sigma1(any_surface_panel):
    """One exceedance rule: the surface's shares, sigma1's diagonal and the
    scedasis curves' shares are the same counts, to the bit."""
    p = any_surface_panel
    etd = EmpiricalTailDependence(p, 40)
    assert np.array_equal(etd.c1, np.diag(sigma1_matrix(p, 40).entries))
    assert etd.c1.tolist() == [c.c1 for c in scedasis_all(p, 40)]
