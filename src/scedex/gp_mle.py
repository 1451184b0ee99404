"""Generalized Pareto fitting on pooled excesses, with misspecification-robust
standard errors.

The ``k`` largest pooled observations, reduced by the pooled threshold, are
fed to a GP(gamma, sigma) pseudo maximum likelihood.  Because the pooled
sample is neither independent across stations nor identically distributed in
time, the usual inverse-Fisher variance is wrong; the limiting covariance is
a sandwich built from the stations' shares of the tail and the tail-copula
surfaces of the station pairs.  The cross-station part is linear in those
surfaces, so it needs only their sum over all ordered pairs, and because
every tail copula is homogeneous of degree 1 it is closed-form in two
numbers of that sum's edge X(v, 1): its moment int_0^1 X(v, 1) / v dv and
its corner X(1, 1).  No integral is evaluated numerically, and the cost does
not depend on the number of stations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dependence import EmpiricalTailDependence
from .errors import (
    DomainError,
    FitConvergenceError,
    InsufficientDataError,
    RangeError,
    each,
)
from .panel import PanelSample
from .tail import TailAtK

GAMMA_MIN = -0.5 + 1e-6
GAMMA_MAX = 10.0
# Switch the likelihood derivatives to series expansions below this: the
# closed forms divide log1p(g z) by g^3, whose rounding error blows past the
# series truncation error once |g| drops under about 1e-5.
_SMALL_GAMMA = 1e-5
_SCORE_TOL = 1e-8
_MAX_ITER = 80


# ---------------------------------------------------------------------------
# Log-likelihood, score, Hessian
# ---------------------------------------------------------------------------


def _loglik_terms(g: float, tau: float, x: np.ndarray):
    """Summed log-likelihood, score and Hessian in (gamma, log sigma), as
    (ll, s_g, s_t, h_gg, h_gt, h_tt).

    The log-density is -log sigma - (1 + 1/g) log(1 + g x / sigma), and its
    third-order series in g for |g| < 1e-5.  With z = x / sigma, w = 1 + g z
    and B = z / w, every closed form is a combination of four sums: sum D
    with D = log1p(g z) - g B, sum B, B.B and sum B / w.  Returns None when
    an excess lies outside the support, 1 + g x / sigma <= 0.
    """
    n = x.size
    z = x / math.exp(tau)
    gz = g * z
    w = 1.0 + gz
    if w.min() <= 0:
        return None
    B = z / w
    sum_b = float(B.sum())
    sum_bb = float(B @ B)
    sum_bw = float((B / w).sum())
    if abs(g) < _SMALL_GAMMA:
        ll = float(np.sum(-tau - z - g * z * (2.0 - z) / 2.0
                          - g * g * z * z * (2.0 * z - 3.0) / 6.0
                          + g ** 3 * z ** 3 * (3.0 * z - 4.0) / 12.0))
        s_g = float(np.sum(z * z / 2.0 - z + g * z * z * (3.0 - 2.0 * z) / 3.0
                           + g * g * z ** 3 * (0.75 * z - 1.0)))
        h_gg = float(np.sum(z * z * (1.0 - 2.0 * z / 3.0) + g * z ** 3 * (1.5 * z - 2.0)
                            + g * g * z ** 4 * (3.0 - 2.4 * z)))
    else:
        # D is O((g z)^2): summed in place of log1p(g z) it spares s_g and
        # h_gg the cancellation of sum log1p(g z) / g^2 against sum B / g
        sum_d = float((np.log1p(gz) - gz / w).sum())
        c = 1.0 + 1.0 / g
        ll = -n * tau - c * (sum_d + g * sum_b)
        s_g = sum_d / (g * g) - sum_b
        h_gg = c * sum_bb - 2.0 * sum_d / g ** 3
    u = 1.0 + g
    return ll, s_g, u * sum_b - n, h_gg, sum_b - u * sum_bb, -u * sum_bw


def _ascent_step(s_g: float, s_t: float, h_gg: float, h_gt: float, h_tt: float,
                 norm: float) -> tuple[float, float, bool]:
    """The Newton step -H^-1 s by Cramer's rule where the Hessian is negative
    definite (h_gg < 0 and det > 0), else the steepest-ascent step
    s / max(1, |s|); the flag says which."""
    det = h_gg * h_tt - h_gt * h_gt
    if h_gg < 0 and det > 0:
        return (h_gt * s_t - h_tt * s_g) / det, (h_gt * s_g - h_gg * s_t) / det, True
    scale = max(1.0, norm)
    return s_g / scale, s_t / scale, False


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GpFit:
    gamma_hat: float
    scale_hat: float
    k: int
    n_excesses: int
    dropped_ties: int
    loglik: float
    iterations: int
    converged: bool
    score_norm: float
    method: str  # always "newton", the one optimiser; the payload keeps the key


def _start_values(x: np.ndarray) -> tuple[tuple[float, float], tuple[float, float]]:
    """Two starts (g0, log sigma0) for Newton, both with the scale that puts
    the GP(g0) median, sigma (2^g0 - 1) / g0, at the sample median.  The
    first takes the log-spacing of the top quartile for g0 and lies in
    Newton's basin on most samples; the second, for the few where Newton
    stalls from the first, takes g0 = 1, where that scale is the median
    itself.  Not the mean excess: the largest values dominate it on heavy
    tails, and Newton started there climbs to the shape bound."""
    xs = np.sort(x)[::-1]
    q = max(1, xs.size // 4)
    g0 = float(np.mean(np.log(xs[:q]) - np.log(xs[q - 1])))
    g0 = float(np.clip(g0, 0.01, 2.0))
    median = 0.5 * float(xs[(xs.size - 1) // 2] + xs[xs.size // 2])  # np.median imports numpy.ma
    return (g0, math.log(g0 * median / (2.0 ** g0 - 1.0))), (1.0, math.log(median))


def _newton(g: float, tau: float, x: np.ndarray, first: int, last: int, trace: list):
    """Damped Newton ascent in (gamma, log sigma) from ``(g, tau)``, logging
    iterations ``first``..``last`` to ``trace``.

    Returns (gamma, log sigma, loglik, score norm, last iteration, converged);
    converged means a score norm below ``_SCORE_TOL`` at a negative-definite
    Hessian.
    """
    terms = _loglik_terms(g, tau, x)
    if terms is None:
        return g, tau, -math.inf, math.inf, first - 1, False
    ll, s_g, s_t, h_gg, h_gt, h_tt = terms
    for it in range(first, last + 1):
        norm = math.hypot(s_g, s_t)
        trace.append({"iter": it, "gamma": g, "log_scale": tau,
                      "loglik": ll, "score_norm": norm})
        d_g, d_t, definite = _ascent_step(s_g, s_t, h_gg, h_gt, h_tt, norm)
        if norm < _SCORE_TOL and definite:
            return g, tau, ll, norm, it, True
        # damped update: stay inside bounds/support, require non-decrease
        alpha = 1.0
        accepted = False
        while alpha > 1e-14:
            g_new = g + alpha * d_g
            tau_new = tau + alpha * d_t
            if GAMMA_MIN <= g_new <= GAMMA_MAX:
                cand = _loglik_terms(g_new, tau_new, x)
                if cand is not None and cand[0] >= ll - 1e-10 * (1 + abs(ll)):
                    g, tau = g_new, tau_new
                    ll, s_g, s_t, h_gg, h_gt, h_tt = cand
                    accepted = True
                    break
            alpha /= 2.0
        if not accepted:
            break
    return g, tau, ll, norm, it, False


def fit_gp_excesses(excesses, k: int | None = None, dropped_ties: int = 0) -> GpFit:
    """GP pseudo-ML fit of finite positive excesses via damped Newton in
    (gamma, log sigma), from at most two starts (:func:`_start_values`).

    The shape is constrained to (-0.5, 10]; convergence requires the score
    norm below 1e-8 at an interior point with negative-definite Hessian.
    When Newton stalls from the first start, it runs once more from the
    second and keeps the higher of the two ends; an end at the shape bound
    or one that has not converged is an error.
    """
    x = np.asarray(excesses, dtype=float)
    if x.ndim != 1:
        raise RangeError("excesses must be 1-D")
    if not np.all(np.isfinite(x)):
        raise DomainError("excesses must be finite")
    if np.any(x <= 0):
        raise DomainError("excesses must be strictly positive")
    if x.size < 10:
        raise InsufficientDataError(
            f"need at least 10 positive excesses, got {x.size}"
        )
    k_label = int(k) if k is not None else int(x.size)

    trace: list[dict] = []
    first, second = _start_values(x)  # g > 0 and x > 0: inside the support
    g, tau, ll, norm, it, converged = _newton(*first, x, 1, _MAX_ITER, trace)
    if not converged:
        # the second start may converge to a local maximum below the first
        # start's stalled end (at the shape bound on tied tails): keep the higher
        stalled = g, tau, ll, norm
        g, tau, ll, norm, it, converged = _newton(*second, x, it + 1, it + _MAX_ITER, trace)
        if stalled[2] > ll:
            (g, tau, ll, norm), converged = stalled, False
        if g <= GAMMA_MIN + 1e-4 or g >= GAMMA_MAX - 1e-4:
            raise FitConvergenceError(
                f"likelihood is maximised at the shape boundary (gamma={g:.6g}); "
                "the excess configuration is degenerate for a GP fit",
                trace=trace,
            )
        if not converged:
            raise FitConvergenceError(
                f"optimiser failed to converge after {it} Newton iterations "
                f"from two starts (score norm {norm:.3g})",
                trace=trace,
            )
    return GpFit(
        gamma_hat=g, scale_hat=math.exp(tau), k=k_label,
        n_excesses=int(x.size), dropped_ties=int(dropped_ties),
        loglik=ll, iterations=it, converged=True,
        score_norm=norm, method="newton",
    )


def fit_gp_pml(p: PanelSample, k: int) -> GpFit:
    """Fit a GP to the ``k`` largest pooled excesses over the pooled threshold.

    Observations tied with the threshold contribute zero excess and are
    dropped (their count is recorded on the fit).
    """
    tail = TailAtK.of(p, k)
    if tail.k < 10:
        raise InsufficientDataError(f"k must be at least 10 for a GP fit, got {tail.k}")
    if tail.n_exceedances < 10:
        raise InsufficientDataError(
            f"only {tail.n_exceedances} positive excesses at k={tail.k} "
            f"({tail.tie_count} tied with the threshold)"
        )
    return fit_gp_excesses(tail.excesses, k=tail.k, dropped_ties=tail.tie_count)


# ---------------------------------------------------------------------------
# Limiting covariance
# ---------------------------------------------------------------------------


def _check_shape(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma > -0.5):
        raise DomainError(f"shape must be finite and exceed -1/2, got {gamma}")


def fisher_info(gamma: float) -> np.ndarray:
    """Fisher information of the GP in (shape, scale) at unit scale."""
    _check_shape(gamma)
    d = 1.0 + 3.0 * gamma + 2.0 * gamma ** 2   # = (1+gamma)(1+2gamma)
    return np.array([[2.0 / d, 1.0 / d], [1.0 / d, 1.0 / (1.0 + 2.0 * gamma)]])


def fisher_info_inverse(gamma: float) -> np.ndarray:
    """Closed-form inverse of :func:`fisher_info`."""
    _check_shape(gamma)
    gp1 = 1.0 + gamma
    return np.array([[gp1 ** 2, -gp1], [-gp1, 2.0 * gp1]])


def _score_covariance(gamma: float, moment: float, corner: float) -> np.ndarray:
    """Score covariance in (shape, scale) of a pooled tail whose aggregate
    tail-copula surface T has edge moment ``moment`` = int_0^1 E(v) / v dv and
    corner ``corner`` = E(1), where E(v) = T(v, 1).

    T(s, t) sums the tail copulas of every ordered station pair, same-station
    pairs included.  Tail copulas are homogeneous of degree 1, so
    T(s, t) = max(s, t) E(min(s, t) / max(s, t)).  The entry tau_ab is

        int int w_a(s) w_b(t) T(s, t) - w_a(s) q_b(t) T(s, 1)
                - q_a(s) w_b(t) T(1, t) + q_a(s) q_b(t) T(1, 1) ds dt

    with the shape weight (1/s - (1+g) s^(g-1)) / g, the scale weight
    (1+g) s^(g-1) and their compensators q(t) = t^(1+g) w(t).  The weights
    combine the powers s^p, p in {-1, g-1}; splitting the square at s = t and
    substituting s = v t gives int int s^p t^q T = (M(p) + M(q)) / (p + q + 3)
    with M(p) = int_0^1 v^p E(v) dv.  The M(g - 1) terms cancel against the
    compensators, which leaves M(-1) and E(1).  Nothing divides by g, so the
    form needs no series branch near g = 0; it diverges as g -> -1/2.
    """
    g = gamma
    d = 1.0 + 2.0 * g
    u = 1.0 + g
    t11 = 2.0 * moment / (u * d) + (g / (u * d)) ** 2 * corner
    t22 = (u / d) ** 2 * corner
    t12 = moment / d - g * corner / d ** 2
    return np.array([[t11, t12], [t12, t22]])


def sigma_gamma0(gamma: float, c1, *, moment: float = 0.0,
                 corner: float = 0.0) -> tuple[np.ndarray, float]:
    """Limiting covariance of the pooled GP score in (shape, scale).

    Station j's own tail surface is C_j(1) min(s, t), with the tail shares
    C_j(1) given by ``c1``.  ``moment`` = int_0^1 X(v, 1) / v dv and
    ``corner`` = X(1, 1) are the two numbers of the aggregate cross-station
    surface X(s, t) = sum over stations i != j of r_ij(s, t) that the
    covariance depends on; both 0 treats stations as tail independent.  The
    cost does not depend on the number of stations.

    Returns the 2x2 matrix and its integration error, which is 0.0: every
    entry is closed-form (see :func:`_score_covariance`).
    """
    _check_shape(gamma)
    c1 = np.asarray(c1, dtype=float)
    if c1.ndim != 1 or c1.size == 0:
        raise RangeError("c1 must be a non-empty 1-D collection")
    if not np.all(np.isfinite(c1) & (c1 >= 0)):
        raise RangeError("tail shares must be finite and >= 0")
    for name, x in (("moment", moment), ("corner", corner)):
        if not (math.isfinite(x) and x >= 0):
            raise RangeError(f"{name} must be finite and >= 0, got {x}")

    # the same-station surfaces sum to C min(s, t), whose edge C v has
    # moment and corner C
    total = float(c1.sum())
    # bench/spans.py:91 reads the 0.0 as result[1] (ROADMAP item 3)
    return _score_covariance(gamma, total + moment, total + corner), 0.0


@dataclass(frozen=True, eq=False)
class AsymptoticCov:
    """Sandwich covariance of sqrt(k) (gamma_hat - gamma, scale ratio - 1)."""

    matrix: np.ndarray
    sigma: np.ndarray
    k: int

    def __post_init__(self):
        for name in ("matrix", "sigma"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def se_gamma(self) -> float:
        return float(np.sqrt(self.matrix[0, 0] / self.k))

    @property
    def se_scale_rel(self) -> float:
        """Standard error of the relative scale estimate."""
        return float(np.sqrt(self.matrix[1, 1] / self.k))


def mle_asymptotic_cov(fit: GpFit, p: PanelSample) -> AsymptoticCov:
    """Sandwich covariance I^{-1} Sigma I^{-1} for a pooled GP fit.

    The tail shares and the moment and corner of the aggregate cross-station
    edge X(v, 1) are counted from the panel at the fit's ``k``
    (:class:`EmpiricalTailDependence`); one station's moment and corner are
    0.  The shape entry does not depend on the moment: it is
    (1 + gamma)^2 sum_d N_d^2 / k, with N_d the number of stations that
    exceed on exceedance day d.  For analytic inputs call :func:`sigma_gamma0` and
    :func:`fisher_info_inverse` directly.
    """
    if not fit.converged:
        raise FitConvergenceError("cannot form a covariance from a non-converged fit")
    dep = EmpiricalTailDependence(p, fit.k)
    sigma, _ = sigma_gamma0(fit.gamma_hat, dep.c1, moment=dep.moment,
                            corner=dep.corner)
    inv = fisher_info_inverse(fit.gamma_hat)
    return AsymptoticCov(
        matrix=inv @ sigma @ inv,
        sigma=sigma,
        k=fit.k,
    )


@dataclass(frozen=True)
class GammaPathRow:
    k: int
    gamma: float | None
    scale: float | None
    se: float | None
    converged: bool
    error: str | None = None


def gamma_path(p: PanelSample, k_values) -> list[GammaPathRow]:
    """Shape estimates across a range of threshold levels.

    Standard errors use the tail-independent-stations reference
    (1 + gamma_hat) / sqrt(k), which is exact for a single station and for
    independent stations under the pooled normalisation; cross-station
    dependence inflates the truth above it (see :func:`mle_asymptotic_cov`
    for the full version).  A level fails as :func:`~scedex.errors.each`
    says: in its row, and the sweep continues.
    """

    def one(k):
        fit = fit_gp_pml(p, k)
        return GammaPathRow(k=k, gamma=fit.gamma_hat, scale=fit.scale_hat,
                            se=(1.0 + fit.gamma_hat) / math.sqrt(fit.k),
                            converged=fit.converged)

    return each(map(int, k_values), one, lambda k, error: GammaPathRow(
        k=k, gamma=None, scale=None, se=None, converged=False, error=error))
