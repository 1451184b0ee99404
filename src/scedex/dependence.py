"""Cross-station tail dependence: joint exceedance counts at pooled thresholds.

The central object is the matrix of joint exceedance frequencies at the
pooled threshold, which doubles as the covariance estimate used to
studentise the spatial homogeneity test.  For the sandwich covariance of the
pooled GP fit, :class:`EmpiricalTailDependence` estimates the edge
X(v, 1) of the aggregate cross-station tail-copula surface on a level grid:
tail copulas are homogeneous of degree 1, so the edge determines the whole
surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .panel import PanelSample
from .tail import TailAtK


@dataclass(frozen=True)
class TailDependenceMatrix:
    """Joint exceedance counts at the pooled threshold, divided by ``divisor``.

    The diagonal coincides exactly with the per-station scedasis curve values
    at t = 1; an off-diagonal entry never exceeds the smaller of the two
    diagonals involved.
    """

    entries: np.ndarray
    k: int
    divisor: int
    tie_count: int

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float).copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def m(self) -> int:
        return int(self.entries.shape[0])


def sigma1_matrix(p: PanelSample, k: int, renormalize: bool = False) -> TailDependenceMatrix:
    """All pairwise joint exceedance frequencies at the pooled threshold.

    With ``renormalize`` the realised exceedance count replaces ``k`` as the
    divisor, which restores the exact row-sum identity when the threshold is
    tied.
    """
    tail = TailAtK(p, k)
    # Only days with an exceedance add to E.T @ E, and its entries are whole
    # counts, exact in any summation order: the at most k rows holding one
    # give the same bits as all n rows, without a float copy of all n.  The
    # rows come from the flat indices of the exceedances, ascending, cheaper
    # than a reduction over every cell (and np.unique would import numpy.ma).
    rows = np.flatnonzero(tail.exceed) // p.m
    E = tail.exceed[rows[np.diff(rows, prepend=-1) > 0]].astype(np.float64)
    divisor = tail.divisor(renormalize)
    return TailDependenceMatrix(entries=(E.T @ E) / divisor, k=tail.k, divisor=divisor,
                                tie_count=tail.tie_count)


# ---------------------------------------------------------------------------
# Gridded tail-copula estimates (for the sandwich covariance)
# ---------------------------------------------------------------------------


# _cell and _bilinear serve only r, which bench/spans.py:161 wraps (ROADMAP item 3)
def _cell(nodes: np.ndarray, x: np.ndarray):
    """Index of the grid cell holding each ``x`` and the fractional position
    inside it; the first and last cells extend beyond the grid."""
    i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, nodes.size - 2)
    return i, (x - nodes[i]) / (nodes[i + 1] - nodes[i])


def _bilinear(nodes: np.ndarray, grid: np.ndarray, s, t):
    """Bilinear interpolation of ``grid`` on ``nodes`` x ``nodes`` at the
    broadcast points (s, t); a float for scalar queries."""
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    i, ds = _cell(nodes, s)
    j, dt = _cell(nodes, t)
    out = (grid[i, j] * (1.0 - ds) * (1.0 - dt) + grid[i, j + 1] * (1.0 - ds) * dt
           + grid[i + 1, j] * ds * (1.0 - dt) + grid[i + 1, j + 1] * ds * dt)
    return float(out) if out.ndim == 0 else out


class EmpiricalTailDependence:
    """Tail-copula estimates on a geometric level grid.

    Values are joint exceedance counts at pooled order-statistic thresholds,
    divided by ``k``, at the ``grid_size`` geometric levels ``s`` over
    [1/k, 1].

    :attr:`edge` is the pair (levels, X(s, 1)) for the aggregate surface
    X(s, t) = sum over i != j of r(i, j; s, t), the input of the sandwich
    covariance.  :meth:`r` is one station pair's surface on the full grid,
    interpolated bilinearly and decaying linearly to 0 below the smallest
    level (the surfaces vanish at s = 0 or t = 0).
    """

    def __init__(self, p: PanelSample, k: int, grid_size: int = 64):
        tail = TailAtK(p, k)
        self.k = k = tail.k
        if k < 2:
            raise RangeError(f"a tail-copula level grid needs k >= 2, got k={k}")
        self.m = p.m
        self.grid_size = G = int(grid_size)
        if G < 2:
            raise RangeError("grid_size must be >= 2")

        s_nodes = np.geomspace(1.0 / k, 1.0, G)
        # Levels run from 1 to k < n_effective, so every threshold is defined;
        # they are non-increasing in the grid index.
        _, thresholds = tail.ladder(s_nodes)

        # Observation i exceeds grid level a  <=>  value > thresholds[a].
        # With thresholds non-increasing, that set of levels is [e, G) where
        # e = G - #{thresholds < value}.
        thr_asc = thresholds[::-1]
        filled = np.where(p.missing_mask, -np.inf, p.values)
        # kept only for r, which bench/spans.py:161 wraps (ROADMAP item 3)
        self._first_level = G - np.searchsorted(thr_asc, filled, side="left")
        # Grids gain a leading zero row and column at level 0, where every
        # surface vanishes.
        self._nodes = np.concatenate(([0.0], s_nodes))

        # N[r, a] = number of stations in row r above level a (rows above no
        # level add nothing).  Summed over rows, N(a) N(top) counts every
        # ordered station pair jointly above (a, top), and N(a) the
        # same-station pairs among them.
        first = self._first_level[self._first_level.min(axis=1) < G]
        rows = first.shape[0]
        hist = np.bincount((np.arange(rows)[:, None] * (G + 1) + first).ravel(),
                           minlength=rows * (G + 1)).reshape(rows, G + 1)
        N = np.cumsum(hist[:, :G], axis=1).astype(float)
        self.edge = (s_nodes, N.T @ (N[:, -1] - 1.0) / k)

        self.c1 = tail.exceed.sum(axis=0) / k

    # bench/spans.py:161 wraps r; no pipeline calls it (ROADMAP item 3)
    def r(self, i: int, j: int, s, t):
        """Interpolated tail-copula surface value(s) r_{ij}(s, t)."""
        G = self.grid_size
        hist, _, _ = np.histogram2d(self._first_level[:, i], self._first_level[:, j],
                                    bins=[np.arange(G + 2), np.arange(G + 2)])
        # row exceeds (a, b) jointly <=> e_i <= a and e_j <= b
        counts = np.cumsum(np.cumsum(hist, axis=0), axis=1)[:G, :G] / self.k
        return _bilinear(self._nodes, np.pad(counts, ((1, 0), (1, 0))), s, t)
