"""Cross-station tail dependence: joint exceedance counts at pooled thresholds.

The central object is the matrix of joint exceedance frequencies at the
pooled threshold, which doubles as the covariance estimate used to
studentise the spatial homogeneity test.  For the sandwich covariance of the
pooled GP fit, :class:`EmpiricalTailDependence` sums two numbers of the
edge X(v, 1) of the aggregate cross-station tail-copula surface exactly, its
moment and its corner: tail copulas are homogeneous of degree 1, so the
edge determines the whole surface.  Both read the exceedance table of
:class:`~scedex.tail.TailAtK`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .panel import PanelSample
from .tail import TailAtK


@dataclass(frozen=True, eq=False)
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
    tail = TailAtK.of(p, k)
    # Only days with an exceedance add to E.T @ E, and its entries are whole
    # counts, exact in any summation order.
    E = tail.hits.astype(np.float64)
    divisor = tail.divisor(renormalize)
    return TailDependenceMatrix(entries=(E.T @ E) / divisor, k=tail.k, divisor=divisor,
                                tie_count=tail.tie_count)


class EmpiricalTailDependence:
    """The tail-copula counts of the level-k exceedance table.

    Each cell c of the table gets the rank l_c = #{pooled values >= x_c}: it
    exceeds the level-l pooled threshold X_{N-l:N} exactly when l_c <= l,
    and a cell that does not exceed the level-k one ranks k + 1.  Every
    deeper threshold is at least the level-k one, so the table holds every
    cell any level counts.  With N_d the number of stations exceeding on
    exceedance day d, the aggregate surface X(s, t) = sum over i != j of
    r_ij(s, t) has the step edge X(v, 1) = (1/k) sum_d (N_d - 1)
    #{c in d: l_c <= kv}, and the sandwich covariance needs two numbers of it:

    - :attr:`moment` = int_0^1 X(v, 1) / v dv
      = (1/k) sum_d (N_d - 1) sum_{c in d} log(k / l_c);
    - :attr:`corner` = X(1, 1) = (1/k) sum_d N_d (N_d - 1).

    Both are 0 for one station.  :attr:`c1` holds the stations' tail shares.
    """

    def __init__(self, p: PanelSample, k: int):
        tail = TailAtK.of(p, k)
        self.k = k = tail.k
        # a hit exceeds X_{N-k:N}, so every pooled value at least as large
        # is among the top k
        self._ranks = np.full(tail.hits.shape, k + 1)
        self._ranks[tail.hits] = k - np.searchsorted(tail.top, p.values[tail.rows][tail.hits])
        N = tail.hits.sum(axis=1)
        # log(k / l_c) on the hits; min() puts the other cells at log 1 = 0
        depth = np.log(k / np.minimum(self._ranks, k)).sum(axis=1)
        self.moment = float((N - 1) @ depth) / k
        self.corner = float(N @ (N - 1)) / k
        self.c1 = tail.hits.sum(axis=0) / k

    # bench/spans.py:161 wraps r; no pipeline calls it (ROADMAP item 3)
    def r(self, i: int, j: int, s, t):
        """The empirical step surface r_ij(s, t) = (1/k) #{days: l_di <= floor(ks)
        and l_dj <= floor(kt)} at the broadcast points (s, t) in [0, 1]; a
        float for scalar queries.  Past 1 the table holds too few cells."""
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        if not np.all((0.0 <= s) & (s <= 1.0) & (0.0 <= t) & (t <= 1.0)):
            raise RangeError("tail fractions s and t must lie in [0, 1]")
        # l <= floor(ks) <=> l <= ks; 1e-9 reads s = l / k as level l despite rounding
        a = self._ranks[:, i, None] <= self.k * s.ravel() + 1e-9
        b = self._ranks[:, j, None] <= self.k * t.ravel() + 1e-9
        out = np.count_nonzero(a & b, axis=0).reshape(s.shape) / self.k
        return float(out) if out.ndim == 0 else out
