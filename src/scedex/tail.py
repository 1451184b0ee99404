"""The level-k tail view: what every estimator counts as extreme.

All stations are pooled into one sample of size ``N``; thresholds are order
statistics of that sample, which the panel sorts once
(:attr:`PanelSample.sorted_values`).  This module is the only reader of that
sample at a level: every estimator takes just the panel and ``k`` and reads
the level-k tail from the panel's one :class:`TailAtK`, got through
:meth:`TailAtK.of`: the threshold X_{N-k:N}, the ties at it, the k largest
pooled values and their excesses over it, and the exceedance table (the
days holding an exceedance and which of their cells exceed).  The panel
holds the view it was last asked for, so the estimators run at one level
share one table.  Exceedances are always strict (``>``), and a missing cell
holds NaN, which never exceeds a threshold.  The tail-copula counts of
:class:`~scedex.dependence.EmpiricalTailDependence` rank the table's cells
against the top k to place them at deeper levels; every deeper level's
threshold is at least the level-k one, so the table holds every cell any
estimator counts.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import NoExceedanceError, RangeError
from .panel import PanelSample


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
    n_exceedances`` of the top k, :attr:`top`, are tied with the threshold
    and left out of :attr:`excesses`.  The exceedance table, built on first
    use, is :attr:`rows` and :attr:`hits`.
    The view holds the panel's arrays, not the panel, so a panel that holds
    its view forms no reference cycle.
    """

    def __init__(self, p: PanelSample, k: int):
        self.values = p.values
        s = p.sorted_values
        self.k = check_k(k, s.size)
        self.top = s[s.size - self.k:]  # the k largest, ascending: a view of s
        self.threshold = float(s[s.size - self.k - 1])
        self.tie_count = int(np.searchsorted(self.top, self.threshold, side="right"))
        self.n_exceedances = self.k - self.tie_count

    @classmethod
    def of(cls, p: PanelSample, k: int) -> "TailAtK":
        """The view of ``p`` at ``k``: the one the panel holds if it is at
        ``k``, else a new one that replaces it (a panel holds one view)."""
        view = p.__dict__.get("_tail")
        if view is None or view.k != k:
            # the frozen panel's instance dict, as cached_property writes it
            view = p.__dict__["_tail"] = cls(p, k)
        return view

    def divisor(self, renormalize: bool) -> int:
        """``k``, or with ``renormalize`` the realised exceedance count, which
        must not be 0 (every top-k value tied with the threshold)."""
        if not renormalize:
            return self.k
        if self.n_exceedances == 0:
            raise NoExceedanceError("no strict exceedances of the pooled threshold")
        return self.n_exceedances

    @property
    def excesses(self) -> np.ndarray:
        """The strict exceedances' excesses over the threshold, ascending: a
        new array, empty when every top-k value is tied with the threshold."""
        return self.top[self.tie_count:] - self.threshold

    @cached_property
    def rows(self) -> np.ndarray:
        """The days holding at least one exceedance, ascending (at most k)."""
        # Flat indices ascend, so a change of row marks each new day: cheaper
        # than a reduction over every cell (np.unique would import numpy.ma).
        flat = np.flatnonzero(self.values > self.threshold) // self.values.shape[1]
        return flat[np.diff(flat, prepend=-1) > 0]

    @cached_property
    def hits(self) -> np.ndarray:
        """``rows`` x stations: which cells of those days exceed."""
        return self.values[self.rows] > self.threshold
