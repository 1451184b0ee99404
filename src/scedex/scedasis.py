"""Integrated scedasis curves: per-station cumulative frequency of extremes.

For station ``j`` the curve counts, among the ``k`` largest pooled
observations, those recorded at station ``j`` up to time fraction ``t``:

    C_hat_j(t) = (1/k) * #{ i <= floor(n t) : X_{i,j} > pooled threshold }.

Summed over stations at ``t = 1`` the curves add to exactly 1 whenever the
threshold is not tied; with ties the optional renormalisation divides by the
realised exceedance count instead of ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .panel import PanelSample
from .tail import TailAtK


@dataclass(frozen=True)
class ScedasisCurve:
    """Right-continuous step curve of one station's share of pooled extremes.

    ``jump_times`` holds the time fractions i/n of the exceedance days
    (strictly increasing, one jump of size 1/divisor per exceedance).
    ``divisor`` is ``k`` unless the curve was renormalised by the realised
    exceedance count; ``tie_count`` is the number of pooled observations tied
    with the threshold that kept the realised count below ``k``.
    """

    station: int
    k: int
    n_rows: int
    jump_times: np.ndarray
    divisor: int
    tie_count: int

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float).copy()
        jt.setflags(write=False)
        object.__setattr__(self, "jump_times", jt)

    @property
    def n_exceedances(self) -> int:
        return int(self.jump_times.size)

    @property
    def c1(self) -> float:
        """Curve value at t = 1 (this station's share of the pooled tail)."""
        return self.n_exceedances / self.divisor

    def value(self, t):
        """Evaluate the curve at time fraction(s) ``t`` in [0, 1]."""
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0) & (t <= 1)):  # NaN fails both comparisons
            raise RangeError("t must lie in [0, 1]")
        # The curve only moves on the grid i/n: evaluate at floor(n t)/n.
        cut = np.floor(self.n_rows * t + 1e-9) / self.n_rows
        counts = np.searchsorted(self.jump_times, cut + 1e-12, side="left")
        out = counts / self.divisor
        return float(out) if out.ndim == 0 else out


def _curve(tail: TailAtK, j: int, renormalize: bool) -> ScedasisCurve:
    n = tail.panel.n
    rows = tail.rows[tail.hits[:, j]] + 1  # 1-based day index
    return ScedasisCurve(
        station=j,
        k=tail.k,
        n_rows=n,
        jump_times=rows / n,
        divisor=tail.divisor(renormalize),
        tie_count=tail.tie_count,
    )


def scedasis_curve(p: PanelSample, k: int, j: int, renormalize: bool = False) -> ScedasisCurve:
    """Estimate station ``j``'s integrated scedasis curve at level ``k``."""
    tail = TailAtK(p, k)
    if not 0 <= j < p.m:
        raise RangeError(f"station index {j} out of range for m={p.m}")
    return _curve(tail, j, renormalize)


def scedasis_all(p: PanelSample, k: int, renormalize: bool = False) -> list[ScedasisCurve]:
    """Scedasis curves for every station (one level-k tail view for all)."""
    tail = TailAtK(p, k)
    return [_curve(tail, j, renormalize) for j in range(p.m)]
