"""Pooled order statistics, the level-k tail view, and the tail empirical /
tail quantile processes.

All stations are pooled into one sample of size ``n_effective``; thresholds
are order statistics of the pool.  The panel sorts that sample once
(:attr:`PanelSample.sorted_values`) and :func:`pool` wraps it.  Every
estimator takes just the panel and ``k`` and reads the level-k tail from one
:class:`TailAtK`: the threshold X_{N-k:N}, the ties at it, and the ladder of
deeper levels ``floor(k s)`` that the tail processes and tail copulas walk.
Exceedances are always strict (``>``), and a missing cell holds NaN, which
never exceeds a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyPoolError, RangeError
from .panel import PanelSample


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


def pool(p: PanelSample) -> PooledOrderStatistics:
    """All non-missing observations of the panel, sorted ascending (the panel
    sorts them once and every call shares that array)."""
    if p.sorted_values.size == 0:
        raise EmptyPoolError("panel has no non-missing observations")
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
    n_exceedances`` of the top k are tied with the threshold.  ``exceed`` is
    the days x stations exceedance matrix, built on first use.
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

        Level 0 maps to the pooled maximum.  Levels come back as integral
        floats and are not range-checked here: each caller rejects the ones it
        does not admit before using them (a level outside [0, n_effective)
        reads the nearest order statistic).
        """
        o = self.pooled
        n = o.n_effective
        s = np.asarray(s, dtype=float)
        # 1e-9 guards floor() against representation error at exact grid points.
        levels = np.floor(self.k * s + 1e-9)
        return levels, o.values[(n - 1 - np.clip(levels, 0, n - 1)).astype(int)]

    def divisor(self, renormalize: bool) -> int:
        """``k``, or with ``renormalize`` the realised exceedance count."""
        return self.n_exceedances if renormalize else self.k

    @cached_property
    def exceed(self) -> np.ndarray:
        return self.panel.values > self.threshold


def _validate_grid(grid: np.ndarray, name: str) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise RangeError(f"{name} must be a non-empty, finite 1-D grid")
    if np.any(np.diff(grid) < 0):
        raise RangeError(f"{name} must be sorted ascending")
    return grid


def tail_empirical_process(p: PanelSample, k: int, j: int, s_grid, t_grid) -> np.ndarray:
    """Exceedance-frequency surface for station ``j``.

    Entry ``(a, b)`` counts days ``i <= floor(n * t_grid[b])`` on which
    station ``j`` strictly exceeds the pooled order statistic at level
    ``floor(k * s_grid[a])``, divided by ``k``.
    """
    tail = TailAtK(p, k)
    n_eff = tail.pooled.n_effective
    if not 0 <= j < p.m:
        raise RangeError(f"station index {j} out of range for m={p.m}")
    s_grid = _validate_grid(s_grid, "s_grid")
    t_grid = _validate_grid(t_grid, "t_grid")
    if s_grid[0] <= 0:
        raise RangeError("s_grid must be strictly positive")
    if t_grid[0] < 0 or t_grid[-1] > 1:
        raise RangeError("t_grid must lie in [0, 1]")

    n = p.n
    col = p.values[:, j]
    # 1e-9 guards floor() against representation error at exact grid points.
    t_cut = np.floor(n * t_grid + 1e-9).astype(int)

    ks, thresholds = tail.ladder(s_grid)
    too_deep = np.flatnonzero(ks >= n_eff)
    if too_deep.size:
        a = too_deep[0]
        raise RangeError(f"s={s_grid[a]} gives floor(k*s)={int(ks[a])} >= n_effective={n_eff}")
    out = np.empty((s_grid.size, t_grid.size), dtype=float)
    for a, thr in enumerate(thresholds):
        cum = np.concatenate(([0], np.cumsum(col > thr)))
        out[a] = cum[t_cut] / tail.k
    return out


def tail_quantile_process(p: PanelSample, k: int, s_grid) -> np.ndarray:
    """Pooled tail quantiles relative to the global threshold.

    Returns an array of rows ``(s, X_{N - floor(k s):N} - X_{N-k:N})`` for
    ``s`` in ``s_grid``; admissible levels are ``1/(2k) <= s < n_effective/k``
    (levels below one exceedance hit the pooled maximum).
    """
    tail = TailAtK(p, k)
    s_grid = _validate_grid(s_grid, "s_grid")
    lo = 1.0 / (2 * tail.k)
    hi = tail.pooled.n_effective / tail.k
    if s_grid[0] < lo - 1e-12 or s_grid[-1] >= hi:
        raise RangeError(
            f"s_grid must lie in [{lo}, {hi}) = [1/(2k), n_effective/k)"
        )
    _, thresholds = tail.ladder(s_grid)
    return np.column_stack((s_grid, thresholds - tail.threshold))
