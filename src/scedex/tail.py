"""Pooled order statistics and the level-k tail view.

All stations are pooled into one sample of size ``n_effective``; thresholds
are order statistics of the pool.  The panel sorts that sample once
(:attr:`PanelSample.sorted_values`) and :func:`pool` wraps it.  Every
estimator takes just the panel and ``k`` and reads the level-k tail from one
:class:`TailAtK`: the threshold X_{N-k:N}, the ties at it, the exceedance
table (the days holding an exceedance and which of their cells exceed), and
the ladder of deeper levels ``floor(k s)`` that the tail-copula level grid of
:class:`~scedex.dependence.EmpiricalTailDependence` walks.  Exceedances are
always strict (``>``), and a missing cell holds NaN, which never exceeds a
threshold.  Every deeper level's threshold is at least the level-k one, so
the table holds every cell any estimator counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyPoolError, NoExceedanceError, RangeError
from .panel import PanelSample


# bench/spans.py:84 reads n_effective off pool's result (ROADMAP item 3)
@dataclass(frozen=True)
class PooledOrderStatistics:
    """The non-missing observations of a panel, pooled and sorted ascending."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if arr.ndim != 1 or arr.size == 0:
            raise EmptyPoolError("pooled sample is empty")

    @property
    def n_effective(self) -> int:
        return int(self.values.size)


# bench/tests/test_bench.py:246 counts the calls to pool (ROADMAP item 3)
def pool(p: PanelSample) -> PooledOrderStatistics:
    """All non-missing observations of the panel, sorted ascending (the panel
    sorts them once and every call shares that array)."""
    return PooledOrderStatistics(values=p.sorted_values)


def check_k(k: int, n_effective: int) -> int:
    """Validate an intermediate-sequence value ``k`` (1 <= k < n_effective)."""
    k = int(k)
    if not 1 <= k < n_effective:
        raise RangeError(f"k must satisfy 1 <= k < n_effective={n_effective}, got {k}")
    return k


class TailAtK:
    """The pooled tail at level ``k``: what every estimator counts as extreme.

    ``threshold`` is the pooled order statistic X_{N-k:N}; an observation is
    extreme when it strictly exceeds it, and a missing cell (NaN) never does.
    ``n_exceedances`` pooled observations do, so ``tie_count = k -
    n_exceedances`` of the top k are tied with the threshold.  The
    exceedance table, built on first use, is :attr:`rows` and :attr:`hits`.
    """

    def __init__(self, p: PanelSample, k: int):
        self.pooled = o = pool(p)
        self.k = check_k(k, o.n_effective)
        self.threshold = float(o.values[o.n_effective - self.k - 1])
        self.n_exceedances = int(
            o.n_effective - np.searchsorted(o.values, self.threshold, side="right"))
        self.tie_count = self.k - self.n_exceedances
        self.panel = p

    def ladder(self, s):
        """Levels ``floor(k * s)`` of the tail fractions ``s`` and the pooled
        order statistics ``X_{N - floor(k s):N}`` at those levels.

        Levels come back as integral floats; s in [1/k, 1] gives levels 1 to
        k, the range of the tail-copula level grid, and the thresholds do not
        increase with s.  Levels are not range-checked: level 0 maps to the
        pooled maximum, and a level past n_effective - 1 to the minimum.
        """
        o = self.pooled
        n = o.n_effective
        s = np.asarray(s, dtype=float)
        # 1e-9 guards floor() against representation error at exact grid points.
        levels = np.floor(self.k * s + 1e-9)
        return levels, o.values[(n - 1 - np.clip(levels, 0, n - 1)).astype(int)]

    def divisor(self, renormalize: bool) -> int:
        """``k``, or with ``renormalize`` the realised exceedance count, which
        must not be 0 (every top-k value tied with the threshold)."""
        if not renormalize:
            return self.k
        if self.n_exceedances == 0:
            raise NoExceedanceError("no strict exceedances of the pooled threshold")
        return self.n_exceedances

    @cached_property
    def rows(self) -> np.ndarray:
        """The days holding at least one exceedance, ascending (at most k)."""
        # Flat indices ascend, so a change of row marks each new day: cheaper
        # than a reduction over every cell (np.unique would import numpy.ma).
        flat = np.flatnonzero(self.panel.values > self.threshold) // self.panel.m
        return flat[np.diff(flat, prepend=-1) > 0]

    @cached_property
    def hits(self) -> np.ndarray:
        """``rows`` x stations: which cells of those days exceed."""
        return self.panel.values[self.rows] > self.threshold
