"""Homogeneity tests for the frequency of extremes, in space and in time.

The space test compares the stations' shares of the pooled tail against
equality via a chi-square quadratic form studentised by the estimated joint
exceedance matrix.  The time test checks one station's exceedance times for
uniformity with a Kolmogorov-Smirnov statistic.  Both consume renormalised
scedasis curves so that the shares sum to one exactly even when the pooled
threshold is tied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dependence import sigma1_matrix
from .errors import NoExceedanceError, RangeError, SingularCovarianceError, each
from .panel import PanelSample
from .scedasis import scedasis_curve

# Condition-number ceiling for the studentising matrix; beyond this the
# quadratic form is numerically meaningless (typically duplicated stations).
CONDITION_LIMIT = 1e12
# A singular-matrix report names this many pairs or stations at most.
_SHOWN = 5


@dataclass(frozen=True)
class TestResult:
    statistic: float
    law: str                  # "chi-square" or "kolmogorov"
    p_value: float
    k: int
    df: int | None = None
    station: int | None = None
    extras: dict = field(default_factory=dict)


def _check_statistic(x: float, law: str) -> None:
    # NaN fails every comparison, so a series summed until its terms are
    # negligible would never stop on it
    if not x >= 0:
        raise RangeError(f"{law} statistic must be a number >= 0, got {x}")


def chi2_pvalue(x: float, df: int) -> float:
    """Survival function P(X > x) of the chi-square law with integer ``df``.

    Closed form of the regularised upper incomplete gamma function at
    half-integer order, with y = x / 2:

        even df:  exp(-y) sum_{i < df/2} y^i / i!
        odd df:   erfc(sqrt y) + exp(-y) sum_{i = 1}^{(df-1)/2} y^(i - 1/2) / Gamma(i + 1/2)

    The exp(-y) terms are formed in log space and summed relative to the
    largest, so large ``df`` at large ``x`` neither overflows nor underflows
    before the result does.
    """
    _check_statistic(x, "chi-square")
    if int(df) != df or df < 1:
        raise RangeError(f"degrees of freedom must be a positive integer, got {df}")
    y = x / 2.0
    if y == 0.0:
        return 1.0
    if math.isinf(y):
        return 0.0
    log_y = math.log(y)
    half, odd = divmod(int(df), 2)
    if odd:
        logs = [(i - 0.5) * log_y - y - math.lgamma(i + 0.5) for i in range(1, half + 1)]
        head = math.erfc(math.sqrt(y))
    else:
        logs = [i * log_y - y - math.lgamma(i + 1.0) for i in range(half)]
        head = 0.0
    if not logs:
        return head
    top = max(logs)
    return head + math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


def kolmogorov_pvalue(d: float) -> float:
    """Survival function P(K > d) of the Kolmogorov law, the limit of
    sqrt(N) times the KS distance under uniformity.

    For d >= 1 the alternating series 2 sum_{i >= 1} (-1)^(i-1) exp(-2 i^2 d^2);
    below 1 that series cancels badly, and its Jacobi theta form
    1 - sqrt(2 pi) / d sum_{i >= 1} exp(-(2i - 1)^2 pi^2 / (8 d^2)) is used.
    Each sum stops at the first term no larger than 1e-17 of its running total.
    """
    _check_statistic(d, "Kolmogorov")
    if d == 0.0:
        return 1.0
    if math.isinf(d):
        return 0.0
    total, i = 0.0, 1
    if d >= 1.0:
        while True:
            term = math.exp(-2.0 * i * i * d * d)
            total += term if i % 2 else -term
            if term <= 1e-17 * total:
                return 2.0 * total
            i += 1
    r = math.pi / d
    a = -r * r / 8.0
    while True:
        term = math.exp((2 * i - 1) ** 2 * a)
        total += term
        if term <= 1e-17 * total:
            return 1.0 - math.sqrt(2.0 * math.pi) * (total / d)
        i += 1


@dataclass(frozen=True, eq=False)
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


def _near_duplicate_pairs(sigma: np.ndarray) -> list[tuple[int, int]]:
    """Station pairs ``(a, b)``, ``a < b``, in row-major order, whose joint
    exceedance frequency reaches its bound, the smaller of the two stations'
    own: every exceedance of one is an exceedance of the other.  The entries
    are whole counts over one divisor, so the comparison is exact."""
    own = np.diag(sigma)
    cap = np.minimum.outer(own, own)
    a, b = np.nonzero(np.triu((sigma >= cap) & (cap > 0), 1))
    return list(zip(a.tolist(), b.tolist()))


def _first(items: list) -> str:
    """The first :data:`_SHOWN` items, comma-separated, with ", ..." if more."""
    return ", ".join(map(str, items[:_SHOWN])) + (", ..." if len(items) > _SHOWN else "")


def space_test(p: PanelSample, k: int) -> TestResult:
    """Test equality of the stations' shares of the pooled tail.

    The shares C_hat_j(1) and the joint exceedance matrix Sigma are both
    renormalised by the realised exceedance count N, so the shares sum to
    one.  D = sqrt(N) (C_hat_j(1) - 1/m) is projected onto the centred
    subspace (that sum gives D one linear constraint); the first m-1
    components are studentised by the matching block of M Sigma M' with
    M = I - (1/m) 1 1'.  The statistic is asymptotically chi-square with
    m - 1 degrees of freedom.
    """
    m = p.m
    if m < 2:
        raise RangeError("space test needs at least two stations")
    dep = sigma1_matrix(p, k, renormalize=True)
    sigma = dep.entries
    D = np.sqrt(dep.divisor) * (np.diag(sigma) - 1.0 / m)
    M = np.eye(m) - np.ones((m, m)) / m
    V = M @ sigma @ M.T
    A = V[: m - 1, : m - 1]

    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        # the message names a few pairs; the error keeps them all
        suspects = _near_duplicate_pairs(sigma)
        pairs = (f"{len(suspects)} near-duplicate station pair(s): "
                 + _first([f"({a}, {b})" for a, b in suspects])
                 if suspects else "no station pair singled out")
        counts = np.rint(np.diag(sigma) * dep.divisor).astype(np.int64)
        fewest = np.flatnonzero(counts == counts.min()).tolist()
        raise SingularCovarianceError(
            f"studentising matrix is numerically singular (cond={cond:.3g} > "
            f"{CONDITION_LIMIT:.0e}); {pairs}; fewest exceedances at a station: "
            f"{counts.min()}, at station(s) {_first(fewest)}",
            suspects=suspects,
        )

    d = D[: m - 1]
    stat = float(d @ np.linalg.solve(A, d))
    return TestResult(
        statistic=stat,
        law="chi-square",
        p_value=chi2_pvalue(stat, m - 1),
        k=dep.k,
        df=m - 1,
        extras={"condition_number": float(cond), "tie_count": dep.tie_count},
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

    A level fails as :func:`~scedex.errors.each` says: in its row, and the
    sweep continues; a panel with nothing observed fails at every level, and
    its :class:`EmptyPoolError` is raised.
    """
    if which not in ("space", "time"):
        raise RangeError(f"which must be 'space' or 'time', got {which!r}")
    if which == "time" and station is None:
        raise RangeError("time sweep requires a station")

    def one(k):
        res = space_test(p, k) if which == "space" else time_test(p, k, station)
        return SweepRow(k=k, statistic=res.statistic, p_value=res.p_value)

    return each(map(int, k_values), one,
                lambda k, error: SweepRow(k=k, statistic=None, p_value=None, error=error))
