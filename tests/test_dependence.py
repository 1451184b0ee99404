"""Joint exceedance counts and the gridded tail-copula plug-in."""

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
# gridded surface
# ---------------------------------------------------------------------------


def _brute_pair_count(p, k, i, j, si, sj):
    """Recount joint exceedances at order-statistic levels from scratch."""
    o = pool(p)
    n_eff = o.n_effective
    filled = np.where(p.missing_mask, -np.inf, p.values)
    out = np.empty((np.size(si), np.size(sj)))
    for a, sa in enumerate(np.atleast_1d(si)):
        ka = min(max(int(np.floor(k * sa + 1e-9)), 1), n_eff - 1)
        ta = o.values[n_eff - ka - 1]
        for b, sb in enumerate(np.atleast_1d(sj)):
            kb = min(max(int(np.floor(k * sb + 1e-9)), 1), n_eff - 1)
            tb = o.values[n_eff - kb - 1]
            out[a, b] = np.count_nonzero((filled[:, i] > ta) & (filled[:, j] > tb)) / k
    return out


@pytest.fixture(scope="module")
def surface_panel():
    rng = np.random.default_rng(515)
    base = rng.pareto(2.0, size=(400, 1))
    vals = np.hstack([base + rng.pareto(4.0, size=(400, 1)) for _ in range(3)])
    return make_panel(vals)


def test_surface_exact_at_grid_nodes(surface_panel):
    k = 40
    etd = EmpiricalTailDependence(surface_panel, k, grid_size=8)
    nodes = np.geomspace(1.0 / k, 1.0, 8)
    for i, j in [(0, 1), (1, 2), (0, 0)]:
        want = _brute_pair_count(surface_panel, k, i, j, nodes, nodes)
        got = np.array([[etd.r(i, j, sa, sb) for sb in nodes] for sa in nodes])
        assert got == pytest.approx(want, abs=1e-12)


def test_surface_vanishes_at_zero(surface_panel):
    etd = EmpiricalTailDependence(surface_panel, 40, grid_size=8)
    assert etd.r(0, 1, 0.0, 0.7) == 0.0
    assert etd.r(0, 1, 0.7, 0.0) == 0.0
    assert etd.r(0, 1, 0.0, 0.0) == 0.0


def test_surface_transpose_symmetry(surface_panel):
    etd = EmpiricalTailDependence(surface_panel, 40, grid_size=8)
    pts = [(0.3, 0.9), (0.05, 0.6), (1.0, 0.5)]
    for s, t in pts:
        assert etd.r(0, 2, s, t) == pytest.approx(etd.r(2, 0, t, s), abs=1e-14)


def test_surface_diagonal_matches_marginal(surface_panel):
    """r_jj(s, s) is the marginal exceedance frequency at level s."""
    k = 40
    etd = EmpiricalTailDependence(surface_panel, k, grid_size=8)
    nodes = np.geomspace(1.0 / k, 1.0, 8)
    o = pool(surface_panel)
    for s in nodes:
        ks = int(np.floor(k * s + 1e-9))
        thr = o.values[o.n_effective - ks - 1]
        marg = np.count_nonzero(surface_panel.values[:, 1] > thr) / k
        assert etd.r(1, 1, s, s) == pytest.approx(marg, abs=1e-12)


def test_surface_monotone_queries(surface_panel):
    etd = EmpiricalTailDependence(surface_panel, 40, grid_size=16)
    s = np.linspace(0.0, 1.0, 21)
    vals = etd.r(0, 1, s, np.full_like(s, 0.8))
    assert np.all(np.diff(vals) >= -1e-12)


def test_cross_is_the_sum_of_pair_counts(surface_panel):
    """The edge X(v, 1) of the aggregate surface X = sum over i != j of r_ij:
    at every grid level it is the sum of the pairwise surfaces and of the
    brute-force joint counts."""
    k = 40
    etd = EmpiricalTailDependence(surface_panel, k, grid_size=8)
    nodes, edge = etd.edge
    assert np.array_equal(nodes, np.geomspace(1.0 / k, 1.0, 8))
    brute = sum(_brute_pair_count(surface_panel, k, i, j, nodes, [1.0])[:, 0]
                for i in range(3) for j in range(3) if i != j)
    pairwise = sum(etd.r(i, j, nodes, np.ones_like(nodes))
                   for i in range(3) for j in range(3) if i != j)
    assert edge == pytest.approx(brute, abs=1e-12)
    assert edge == pytest.approx(pairwise, abs=1e-12)


def test_surface_needs_two_levels():
    vals = np.arange(20.0).reshape(10, 2)
    with pytest.raises(RangeError, match="k=1"):
        EmpiricalTailDependence(make_panel(vals), 1)
    assert EmpiricalTailDependence(make_panel(vals), 2).edge[0][0] == 0.5


def test_surface_c1_matches_sigma1(surface_panel):
    etd = EmpiricalTailDependence(surface_panel, 40)
    dep = sigma1_matrix(surface_panel, 40)
    assert etd.c1 == pytest.approx(np.diag(dep.entries), abs=1e-14)


def test_surface_grid_size_validated(surface_panel):
    with pytest.raises(RangeError):
        EmpiricalTailDependence(surface_panel, 40, grid_size=1)
