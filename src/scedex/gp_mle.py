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
_POLISH_ITER = 10       # Newton steps from the profile maximum
_PROFILE_GRID = 200     # scan points of Grimshaw's profile


# ---------------------------------------------------------------------------
# Log-likelihood, score, Hessian
# ---------------------------------------------------------------------------


def _loglik_terms(g: float, tau: float, x: np.ndarray):
    """Summed log-likelihood, score and Hessian in (gamma, log sigma).

    The log-density is -log sigma - (1 + 1/g) log(1 + g x / sigma), and its
    third-order series in g for |g| < 1e-5.  Returns None when an excess lies
    outside the support, 1 + g x / sigma <= 0.
    """
    sigma = math.exp(tau)
    z = x / sigma
    w = 1.0 + g * z
    if np.any(w <= 0):
        return None
    B = z / w
    if abs(g) < _SMALL_GAMMA:
        ll = np.sum(-tau - z - g * z * (2.0 - z) / 2.0
                    - g * g * z * z * (2.0 * z - 3.0) / 6.0
                    + g ** 3 * z ** 3 * (3.0 * z - 4.0) / 12.0)
        s_g = np.sum(z * z / 2.0 - z + g * z * z * (3.0 - 2.0 * z) / 3.0
                     + g * g * z ** 3 * (0.75 * z - 1.0))
        h_gg = np.sum(z * z * (1.0 - 2.0 * z / 3.0) + g * z ** 3 * (1.5 * z - 2.0)
                      + g * g * z ** 4 * (3.0 - 2.4 * z))
    else:
        A = np.log1p(g * z)
        ll = np.sum(-tau - (1.0 + 1.0 / g) * A)
        s_g = np.sum(A / g ** 2 - (1.0 + 1.0 / g) * B)
        h_gg = np.sum(2.0 * B / g ** 2 - 2.0 * A / g ** 3
                      + (1.0 + 1.0 / g) * B * B)
    s_t = np.sum(-1.0 + (1.0 + g) * B)
    h_tt = np.sum(-(1.0 + g) * B / w)
    h_gt = np.sum(B - (1.0 + g) * B * B)
    score = np.array([s_g, s_t])
    hess = np.array([[h_gg, h_gt], [h_gt, h_tt]])
    return float(ll), score, hess


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
    method: str


def _start_values(x: np.ndarray) -> tuple[float, float]:
    """Moment-style start: log-spacing of the top quartile for the shape,
    mean excess for the scale."""
    xs = np.sort(x)[::-1]
    q = max(1, xs.size // 4)
    g0 = float(np.mean(np.log(xs[:q]) - np.log(xs[q - 1])))
    g0 = float(np.clip(g0, 0.01, 2.0))
    return g0, float(np.log(np.mean(x)))


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
    ll, score, hess = terms
    for it in range(first, last + 1):
        norm = float(np.linalg.norm(score))
        trace.append({"iter": it, "gamma": g, "log_scale": tau,
                      "loglik": ll, "score_norm": norm})
        eig = np.linalg.eigvalsh(hess)
        if norm < _SCORE_TOL and np.all(eig < 0):
            return g, tau, ll, norm, it, True
        if np.all(eig < 0):
            step = np.linalg.solve(hess, -score)
        else:
            step = score / max(1.0, np.linalg.norm(score))  # steepest ascent
        # damped update: stay inside bounds/support, require non-decrease
        alpha = 1.0
        accepted = False
        while alpha > 1e-14:
            g_new = g + alpha * step[0]
            tau_new = tau + alpha * step[1]
            if GAMMA_MIN <= g_new <= GAMMA_MAX:
                cand = _loglik_terms(g_new, tau_new, x)
                if cand is not None and cand[0] >= ll - 1e-10 * (1 + abs(ll)):
                    g, tau, (ll, score, hess) = g_new, tau_new, cand
                    accepted = True
                    break
            alpha /= 2.0
        if not accepted:
            break
    return g, tau, ll, norm, it, False


def _profile_maximum(x: np.ndarray) -> tuple[float, float]:
    """Shape and log-scale of the likelihood maximum over the admissible
    shapes, by Grimshaw's reduction (Technometrics 1993).

    With theta = gamma / sigma the likelihood is maximised over the shape in
    closed form, gamma(theta) = mean log(1 + theta x), which leaves a profile
    in theta alone, -n (1 + log sigma(theta) + gamma(theta)) with
    sigma(theta) = gamma(theta) / theta.  Its slope has the sign of
    h(theta) = (1 + gamma(theta)) mean 1 / (1 + theta x) - 1, whose root at
    theta = 0 is double and changes no sign.  theta is carried as
    e = theta max(x) in (-1, inf); gamma(theta) increases with it, so the
    admissible shapes are one interval of e.  A scan of log(1 + e) over that
    interval picks the best grid point, and a safeguarded Newton/bisection
    root of h between its neighbours refines it.
    """
    x_max = float(np.max(x))
    r = x / x_max

    def shape(e: float) -> float:
        return float(np.mean(np.log1p(e * r)))

    def log_scale(e: float, g: float) -> float:
        return math.log(g * x_max / e) if e != 0.0 else math.log(float(np.mean(x)))

    def h(e: float) -> tuple[float, float]:
        """h and its derivative in e."""
        q = 1.0 / (1.0 + e * r)
        g, v, rq = shape(e), float(np.mean(q)), r * q
        return (1.0 + g) * v - 1.0, float(np.mean(rq)) * v - (1.0 + g) * float(np.mean(rq * q))

    def crossing(lo: float, hi: float, target: float) -> float:
        """Smallest log(1 + e) in [lo, hi] whose shape reaches ``target``
        (``hi`` if none does)."""
        while hi - lo > 1e-12 * max(1.0, abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if shape(math.expm1(mid)) < target else (lo, mid)
        return hi

    # log(1 + e) stops at log(eps): e any closer to -1 rounds to -1
    phi_hi = 1.0
    while shape(math.expm1(phi_hi)) < GAMMA_MAX and phi_hi < 512.0:
        phi_hi *= 2.0
    grid = np.expm1(np.linspace(crossing(-36.0, 0.0, GAMMA_MIN),
                                crossing(0.0, phi_hi, GAMMA_MAX), _PROFILE_GRID))
    shapes = [shape(e) for e in grid]
    j = int(np.argmax([-(g + log_scale(e, g)) for e, g in zip(grid, shapes)]))
    e = float(grid[j])
    if 0 < j < grid.size - 1 and h(grid[j - 1])[0] > 0.0 > h(grid[j + 1])[0]:
        a, b = float(grid[j - 1]), float(grid[j + 1])
        for _ in range(100):
            val, slope = h(e)
            if val == 0.0:
                break
            a, b = (e, b) if val > 0.0 else (a, e)
            step = e - val / slope if slope != 0.0 else math.nan
            nxt = step if a < step < b else 0.5 * (a + b)
            done = abs(nxt - e) <= 4e-16 * abs(e)
            e = nxt
            if done:
                break
    g = shape(e)
    return g, log_scale(e, g)


def fit_gp_excesses(excesses, k: int | None = None, dropped_ties: int = 0) -> GpFit:
    """GP pseudo-ML fit of finite positive excesses via damped Newton in
    (gamma, log sigma), with a profile-likelihood fallback.

    The shape is constrained to (-0.5, 10]; convergence requires the score
    norm below 1e-8 at an interior point with negative-definite Hessian.
    When Newton stalls, the maximum is located on Grimshaw's one-dimensional
    profile (:func:`_profile_maximum`) and polished by Newton from there.
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
    g, tau = _start_values(x)  # g > 0 and x > 0: inside the support
    g, tau, ll, norm, it, converged = _newton(g, tau, x, 1, _MAX_ITER, trace)
    method = "newton"
    if not converged:
        # Newton stalled: the profile pass is the first entry of the polish
        method = "profile"
        newton_iterations = it
        g, tau, ll, norm, it, converged = _newton(
            *_profile_maximum(x), x, it + 1, it + _POLISH_ITER, trace)
        if g <= GAMMA_MIN + 1e-4 or g >= GAMMA_MAX - 1e-4:
            raise FitConvergenceError(
                f"likelihood is maximised at the shape boundary (gamma={g:.6g}); "
                "the excess configuration is degenerate for a GP fit",
                trace=trace,
            )
        if not converged:
            raise FitConvergenceError(
                f"optimiser failed to converge after {newton_iterations} Newton "
                f"iterations, a profile pass and a Newton polish (score norm {norm:.3g})",
                trace=trace,
            )
    return GpFit(
        gamma_hat=g, scale_hat=math.exp(tau), k=k_label,
        n_excesses=int(x.size), dropped_ties=int(dropped_ties),
        loglik=ll, iterations=it, converged=True,
        score_norm=norm, method=method,
    )


def fit_gp_pml(p: PanelSample, k: int) -> GpFit:
    """Fit a GP to the ``k`` largest pooled excesses over the pooled threshold.

    Observations tied with the threshold contribute zero excess and are
    dropped (their count is recorded on the fit).
    """
    tail = TailAtK(p, k)
    if tail.k < 10:
        raise InsufficientDataError(f"k must be at least 10 for a GP fit, got {tail.k}")
    if tail.n_exceedances < 10:
        raise InsufficientDataError(
            f"only {tail.n_exceedances} positive excesses at k={tail.k} "
            f"({tail.tie_count} tied with the threshold)"
        )
    o = tail.pooled
    positive = o.values[o.n_effective - tail.n_exceedances:] - tail.threshold
    return fit_gp_excesses(positive, k=tail.k, dropped_ties=tail.tie_count)


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


@dataclass(frozen=True)
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
    for the full version).  Failures at individual levels are recorded and
    the sweep continues.
    """
    rows: list[GammaPathRow] = []
    for k in k_values:
        try:
            fit = fit_gp_pml(p, int(k))
            rows.append(
                GammaPathRow(
                    k=int(k),
                    gamma=fit.gamma_hat,
                    scale=fit.scale_hat,
                    se=(1.0 + fit.gamma_hat) / math.sqrt(fit.k),
                    converged=fit.converged,
                )
            )
        except (FitConvergenceError, InsufficientDataError, RangeError, DomainError) as exc:
            rows.append(
                GammaPathRow(
                    k=int(k), gamma=None, scale=None, se=None,
                    converged=False, error=str(exc),
                )
            )
    return rows
