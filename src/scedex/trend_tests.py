"""Homogeneity tests for the frequency of extremes, in space and in time.

The space test compares the stations' shares of the pooled tail against
equality via a chi-square quadratic form studentised by the estimated joint
exceedance matrix.  The time test checks one station's exceedance times for
uniformity with a Kolmogorov-Smirnov statistic.  Both consume renormalised
scedasis curves so that the shares sum to one exactly even when the pooled
threshold is tied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dependence import sigma1_matrix
from .errors import NoExceedanceError, RangeError, ScedexError, SingularCovarianceError
from .panel import PanelSample
from .scedasis import scedasis_curve

# Condition-number ceiling for the studentising matrix; beyond this the
# quadratic form is numerically meaningless (typically duplicated stations).
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class TestResult:
    statistic: float
    law: str                  # "chi-square" or "kolmogorov"
    p_value: float
    k: int
    df: int | None = None
    station: int | None = None
    extras: dict = field(default_factory=dict)


def kolmogorov_pvalue(d: float) -> float:
    """Tail probability of the Kolmogorov law: 2 sum (-1)^{i-1} exp(-2 i^2 d^2)."""
    if d < 0:
        raise RangeError(f"Kolmogorov statistic must be >= 0, got {d}")
    from scipy.special import kolmogorov

    return float(kolmogorov(d))


@dataclass(frozen=True)
class BonferroniResult:
    corrected_level: float
    reject: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.reject, dtype=bool).copy()
        r.setflags(write=False)
        object.__setattr__(self, "reject", r)


def bonferroni(p_values, alpha: float = 0.05) -> BonferroniResult:
    """Flag p-values below alpha divided by the number of comparisons."""
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise RangeError("p_values must be a non-empty 1-D collection")
    if np.any(p < 0) or np.any(p > 1):
        raise RangeError("p-values must lie in [0, 1]")
    if not 0 < alpha < 1:
        raise RangeError(f"alpha must lie in (0, 1), got {alpha}")
    corrected = alpha / p.size
    return BonferroniResult(corrected_level=corrected, reject=p < corrected)


def _near_duplicate_pairs(sigma: np.ndarray, tol: float = 1e-9) -> list[tuple[int, int]]:
    """Station pairs whose joint exceedance frequency saturates its bound."""
    m = sigma.shape[0]
    out = []
    for a in range(m):
        for b in range(a + 1, m):
            cap = min(sigma[a, a], sigma[b, b])
            if cap > 0 and sigma[a, b] >= cap * (1 - tol):
                out.append((a, b))
    return out


def space_test_from_estimates(c1_values, sigma1_entries, k: int) -> TestResult:
    """Spatial homogeneity statistic from precomputed shares and joint matrix.

    D = sqrt(k) (C_hat_j(1) - 1/m) is projected onto the centred subspace
    (the shares sum to one, so D has one linear constraint); the first m-1
    components are studentised by the matching block of M Sigma M' with
    M = I - (1/m) 1 1'.  The statistic is asymptotically chi-square with
    m - 1 degrees of freedom.
    """
    c1 = np.asarray(c1_values, dtype=float)
    sigma = np.asarray(sigma1_entries, dtype=float)
    m = c1.size
    if m < 2:
        raise RangeError("space test needs at least two stations")
    if sigma.shape != (m, m):
        raise RangeError(f"sigma matrix must be {m}x{m}, got {sigma.shape}")

    D = np.sqrt(k) * (c1 - 1.0 / m)
    M = np.eye(m) - np.ones((m, m)) / m
    V = M @ sigma @ M.T
    A = V[: m - 1, : m - 1]

    zero_var = [j for j in range(m) if sigma[j, j] == 0.0]
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        suspects = _near_duplicate_pairs(sigma)
        parts = []
        if suspects:
            parts.append(
                "near-duplicate station pair(s): "
                + ", ".join(f"({a}, {b})" for a, b in suspects)
            )
        if zero_var:
            parts.append(f"station(s) with no exceedances: {zero_var}")
        detail = "; ".join(parts) if parts else "no station pair singled out"
        raise SingularCovarianceError(
            f"studentising matrix is numerically singular (cond={cond:.3g} > "
            f"{CONDITION_LIMIT:.0e}); {detail}",
            suspects=suspects,
        )

    d = D[: m - 1]
    stat = float(d @ np.linalg.solve(A, d))
    from scipy.special import chdtrc

    p = float(chdtrc(m - 1, stat))
    return TestResult(
        statistic=stat,
        law="chi-square",
        p_value=p,
        k=k,
        df=m - 1,
        extras={"condition_number": float(cond)},
    )


def space_test(p: PanelSample, k: int) -> TestResult:
    """Test equality of the stations' shares of the pooled tail."""
    if p.m < 2:
        raise RangeError("space test needs at least two stations")
    dep = sigma1_matrix(p, k, renormalize=True)
    if dep.divisor == 0:
        raise NoExceedanceError("no strict exceedances of the pooled threshold")
    c1 = np.diag(dep.entries)
    result = space_test_from_estimates(c1, dep.entries, dep.divisor)
    extras = dict(result.extras)
    extras["tie_count"] = dep.tie_count
    return TestResult(
        statistic=result.statistic,
        law=result.law,
        p_value=result.p_value,
        k=dep.k,
        df=result.df,
        extras=extras,
    )


def ks_statistic_from_jumps(jump_times: np.ndarray) -> float:
    """sup_t |sqrt(N) (F_hat(t) - t)| for a step CDF with jumps at jump_times.

    The supremum over t in [0, 1] of the scaled deviation is attained at a
    jump (from the right) or just before one (from the left); both one-sided
    limits reduce to the classical closed form below.
    """
    u = np.asarray(jump_times, dtype=float)
    N = u.size
    if N == 0:
        raise NoExceedanceError("cannot form a KS statistic from zero jumps")
    i = np.arange(1, N + 1)
    d_plus = np.max(i / N - u)
    d_minus = np.max(u - (i - 1) / N)
    return float(np.sqrt(N) * max(d_plus, d_minus, 0.0))


def time_test(p: PanelSample, k: int, j: int) -> TestResult:
    """Test uniformity in time of station ``j``'s exceedances of the pooled threshold."""
    curve = scedasis_curve(p, k, j, renormalize=True)
    if curve.n_exceedances == 0:
        raise NoExceedanceError(
            f"station {j} has no strict exceedances of the pooled threshold at k={curve.k}"
        )
    stat = ks_statistic_from_jumps(curve.jump_times)
    return TestResult(
        statistic=stat,
        law="kolmogorov",
        p_value=kolmogorov_pvalue(stat),
        k=curve.k,
        station=j,
        extras={"n_exceedances": curve.n_exceedances, "tie_count": curve.tie_count},
    )


@dataclass(frozen=True)
class SweepRow:
    k: int
    statistic: float | None
    p_value: float | None
    error: str | None = None


def k_sweep(
    p: PanelSample,
    k_values,
    which: str = "space",
    station: int | None = None,
) -> list[SweepRow]:
    """Run one test across a range of threshold levels.

    Failures at individual levels are recorded in the row and the sweep
    continues.
    """
    if which not in ("space", "time"):
        raise RangeError(f"which must be 'space' or 'time', got {which!r}")
    if which == "time" and station is None:
        raise RangeError("time sweep requires a station")
    rows: list[SweepRow] = []
    for k in k_values:
        try:
            if which == "space":
                res = space_test(p, int(k))
            else:
                res = time_test(p, int(k), station)
            rows.append(SweepRow(k=int(k), statistic=res.statistic, p_value=res.p_value))
        except ScedexError as exc:
            rows.append(SweepRow(k=int(k), statistic=None, p_value=None, error=str(exc)))
    return rows
