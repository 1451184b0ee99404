"""Generalized Pareto fitting on pooled excesses, with misspecification-robust
standard errors.

The ``k`` largest pooled observations, reduced by the pooled threshold, are
fed to a GP(gamma, sigma) pseudo maximum likelihood.  Because the pooled
sample is neither independent across stations nor identically distributed in
time, the usual inverse-Fisher variance is wrong; the limiting covariance is
a sandwich built from the stations' shares of the tail and the tail-copula
surfaces of the station pairs.  The cross-station part is linear in those
surfaces, so it integrates one symmetric aggregate surface, the sum over all
ordered pairs, and its cost does not depend on the number of pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dependence import EmpiricalTailDependence
from .errors import (
    DomainError,
    FitConvergenceError,
    InsufficientDataError,
    QuadratureError,
    RangeError,
)
from .panel import PanelSample
from .tail import PooledOrderStatistics, TailAtK, pool

GAMMA_MIN = -0.5 + 1e-6
GAMMA_MAX = 10.0
# Switch the likelihood derivatives to series expansions below this: the
# closed forms divide log1p(g z) by g^3, whose rounding error blows past the
# series truncation error once |g| drops under about 1e-5.
_SMALL_GAMMA = 1e-5
_WEIGHT_SMALL = 1e-7  # the score weights only divide by g once
_SCORE_TOL = 1e-8
_MAX_ITER = 80


# ---------------------------------------------------------------------------
# Log-likelihood, score, Hessian
# ---------------------------------------------------------------------------


def gp_loglik(gamma: float, sigma: float, x) -> float:
    """GP log-density summed over the excess(es) ``x``.

    For gamma != 0:  -log sigma - (1 + 1/gamma) log(1 + gamma x / sigma),
    for gamma == 0:  -log sigma - x / sigma, both on their natural support
    (x >= 0, and x < -sigma/gamma when gamma < 0).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if sigma <= 0:
        raise DomainError(f"scale must be positive, got {sigma}")
    if np.any(x < 0):
        raise DomainError("excesses must be >= 0")
    z = x / sigma
    if abs(gamma) < _SMALL_GAMMA and gamma == 0.0:
        return float(np.sum(-math.log(sigma) - z))
    w = 1.0 + gamma * z
    if np.any(w <= 0):
        raise DomainError(
            f"excess outside GP support: need 1 + gamma*x/sigma > 0 "
            f"(gamma={gamma}, sigma={sigma})"
        )
    if abs(gamma) < _SMALL_GAMMA:
        # third-order expansion around gamma = 0, stable under cancellation
        ll = -math.log(sigma) - z - gamma * z * (2.0 - z) / 2.0 \
            - gamma * gamma * z * z * (2.0 * z - 3.0) / 6.0 \
            + gamma ** 3 * z ** 3 * (3.0 * z - 4.0) / 12.0
        return float(np.sum(ll))
    return float(np.sum(-math.log(sigma) - (1.0 + 1.0 / gamma) * np.log1p(gamma * z)))


def _loglik_terms(g: float, tau: float, x: np.ndarray):
    """Summed log-likelihood, score and Hessian in (gamma, log sigma).

    Returns None when ``(g, tau)`` is outside the admissible region.
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
    if xs[q - 1] > 0:
        g0 = float(np.mean(np.log(xs[:q]) - np.log(xs[q - 1])))
    else:
        g0 = 0.1
    g0 = float(np.clip(g0, 0.01, 2.0))
    return g0, float(np.log(np.mean(x)))


def _profile_tau(g: float, x: np.ndarray) -> float:
    """Root of the scale score at fixed shape (unique: the score is strictly
    decreasing in log sigma)."""
    n = x.size

    def psi(tau: float) -> float:
        sigma = math.exp(tau)
        z = x / sigma
        w = 1.0 + g * z
        if np.any(w <= 0):
            return math.inf
        return float(-n + (1.0 + g) * np.sum(z / w))

    tau_hi = math.log(np.mean(x)) + 1.0
    while psi(tau_hi) > 0:
        tau_hi += 1.0
    tau_lo = tau_hi - 2.0
    if g < 0:
        # support requires sigma > -g * max(x)
        tau_support = math.log(-g * float(np.max(x)))
        tau_lo = max(tau_lo, tau_support + 1e-9)
        while psi(tau_lo) <= 0 and tau_lo > tau_support + 1e-12:
            tau_lo = tau_support + (tau_lo - tau_support) / 4.0
    else:
        while psi(tau_lo) <= 0:
            tau_lo -= 1.0
    from scipy.optimize import brentq

    return float(brentq(psi, tau_lo, tau_hi, xtol=1e-13, maxiter=200))


def fit_gp_excesses(excesses, k: int | None = None, dropped_ties: int = 0) -> GpFit:
    """GP pseudo-ML fit of positive excesses via damped Newton in
    (gamma, log sigma), with a profile-likelihood fallback.

    The shape is constrained to (-0.5, 10]; convergence requires the score
    norm below 1e-8 at an interior point with negative-definite Hessian.
    """
    x = np.asarray(excesses, dtype=float)
    if x.ndim != 1:
        raise RangeError("excesses must be 1-D")
    if np.any(x <= 0):
        raise DomainError("excesses must be strictly positive")
    if x.size < 10:
        raise InsufficientDataError(
            f"need at least 10 positive excesses, got {x.size}"
        )
    k_label = int(k) if k is not None else int(x.size)

    trace: list[dict] = []
    g, tau = _start_values(x)
    terms = _loglik_terms(g, tau, x)
    if terms is None:  # start inside support by construction, but be safe
        g, tau = 0.1, float(np.log(np.mean(x)))
        terms = _loglik_terms(g, tau, x)
    ll, score, hess = terms
    method = "newton"
    it = 0
    for it in range(1, _MAX_ITER + 1):
        norm = float(np.linalg.norm(score))
        trace.append({"iter": it, "gamma": g, "log_scale": tau,
                      "loglik": ll, "score_norm": norm})
        eig = np.linalg.eigvalsh(hess)
        if norm < _SCORE_TOL and np.all(eig < 0):
            return GpFit(
                gamma_hat=g, scale_hat=math.exp(tau), k=k_label,
                n_excesses=int(x.size), dropped_ties=int(dropped_ties),
                loglik=ll, iterations=it, converged=True,
                score_norm=norm, method=method,
            )
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

    # Newton stalled: profile-likelihood fallback on the shape alone.
    from scipy.optimize import minimize_scalar

    method = "profile"

    def neg_profile(gv: float) -> float:
        tv = _profile_tau(gv, x)
        t = _loglik_terms(gv, tv, x)
        return math.inf if t is None else -t[0]

    res = minimize_scalar(neg_profile, bounds=(GAMMA_MIN, GAMMA_MAX),
                          method="bounded", options={"xatol": 1e-12})
    g = float(res.x)
    tau = _profile_tau(g, x)
    ll, score, hess = _loglik_terms(g, tau, x)
    norm = float(np.linalg.norm(score))
    trace.append({"iter": it + 1, "gamma": g, "log_scale": tau,
                  "loglik": ll, "score_norm": norm})
    at_boundary = g <= GAMMA_MIN + 1e-4 or g >= GAMMA_MAX - 1e-4
    if at_boundary:
        raise FitConvergenceError(
            f"likelihood is maximised at the shape boundary (gamma={g:.6g}); "
            "the excess configuration is degenerate for a GP fit",
            trace=trace,
        )
    eig = np.linalg.eigvalsh(hess)
    if norm >= _SCORE_TOL or not np.all(eig < 0):
        raise FitConvergenceError(
            f"optimiser failed to converge after {it} Newton iterations and a "
            f"profile pass (score norm {norm:.3g}, Hessian eigs {eig})",
            trace=trace,
        )
    return GpFit(
        gamma_hat=g, scale_hat=math.exp(tau), k=k_label,
        n_excesses=int(x.size), dropped_ties=int(dropped_ties),
        loglik=ll, iterations=it + 1, converged=True,
        score_norm=norm, method=method,
    )


def fit_gp_pml(
    p: PanelSample, k: int, pooled: PooledOrderStatistics | None = None
) -> GpFit:
    """Fit a GP to the ``k`` largest pooled excesses over the pooled threshold.

    Observations tied with the threshold contribute zero excess and are
    dropped (their count is recorded on the fit).
    """
    tail = TailAtK(p, k, pooled)
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


def fisher_info(gamma: float) -> np.ndarray:
    """Fisher information of the GP in (shape, scale) at unit scale."""
    if gamma <= -0.5:
        raise DomainError(f"shape must exceed -1/2, got {gamma}")
    d = 1.0 + 3.0 * gamma + 2.0 * gamma ** 2   # = (1+gamma)(1+2gamma)
    return np.array([[2.0 / d, 1.0 / d], [1.0 / d, 1.0 / (1.0 + 2.0 * gamma)]])


def fisher_info_inverse(gamma: float) -> np.ndarray:
    """Closed-form inverse of :func:`fisher_info`."""
    if gamma <= -0.5:
        raise DomainError(f"shape must exceed -1/2, got {gamma}")
    gp1 = 1.0 + gamma
    return np.array([[gp1 ** 2, -gp1], [-gp1, 2.0 * gp1]])


def _same_station_coeffs(gamma: float) -> tuple[float, float, float]:
    """Per-station contributions to the score covariance: the (shape, shape),
    (scale, scale) and (shape, scale) coefficients multiplying C_j(1)."""
    g = gamma
    a = (2.0 + 6.0 * g + 5.0 * g * g) / ((1.0 + g) ** 2 * (1.0 + 2.0 * g) ** 2)
    b = ((1.0 + g) / (1.0 + 2.0 * g)) ** 2
    c = (1.0 + g) / (1.0 + 2.0 * g) ** 2
    return a, b, c


def _quad_axis(n_panels: int, order: int, beta: float):
    """Composite Gauss-Legendre nodes/weights on (0, 1) for the substitution
    s = u^beta (beta >= 1 clusters nodes near 0)."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    mids = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    u = (mids[:, None] + half[:, None] * gl_x[None, :]).ravel()
    wu = (half[:, None] * gl_w[None, :]).ravel()
    s = u ** beta
    jac = beta * u ** (beta - 1.0)
    return s, wu * jac


def _score_weights(gamma: float, s: np.ndarray):
    """The four weight functions entering the score covariance integrals.

    The shape component of the score integrates the tail fluctuation against
    (F1, G1); the scale component against (P2, Q2).
    """
    g = gamma
    if abs(g) < _WEIGHT_SMALL:
        L = np.log(s)
        F1 = -(1.0 + L) / s
        G1 = -(1.0 + L)
        P2 = (1.0 + g) * s ** (g - 1.0)
        Q2 = (1.0 + g) * s ** (2.0 * g)
        return F1, G1, P2, Q2
    F1 = (1.0 / s - (1.0 + g) * s ** (g - 1.0)) / g
    G1 = (s ** g - (1.0 + g) * s ** (2.0 * g)) / g
    P2 = (1.0 + g) * s ** (g - 1.0)
    Q2 = (1.0 + g) * s ** (2.0 * g)
    return F1, G1, P2, Q2


def _eval_r(cross: Callable, s: np.ndarray, t: np.ndarray, chunk: int = 32) -> np.ndarray:
    """Evaluate a tail-copula surface on matching matrices in row blocks so
    lookups that expand an inner integration axis stay memory-bounded."""
    if s.ndim < 2:
        return np.asarray(cross(s, t), dtype=float)
    out = np.empty(s.shape)
    for a in range(0, s.shape[0], chunk):
        out[a:a + chunk] = cross(s[a:a + chunk], t[a:a + chunk])
    return out


def _cross_station_taus(gamma: float, cross: Callable, n_panels: int, order: int):
    """The cross-station score covariances, summed over all station pairs.

    ``cross(s, t)`` is the aggregate surface X(s, t) = sum over i != j of
    r_ij(s, t); it is symmetric and must accept broadcast arrays.  Returns
    (tau11, tau22, tau12) where 1 = shape component, 2 = scale component,
    evaluated by quadrature of

        int int wa(s) wb(t) X(s,t) - wa(s) qb(t) X(s,1)
                - qa(s) wb(t) X(1,t) + qa(s) qb(t) X(1,1) ds dt.

    Every term is linear in the surface, so this equals the sum of the
    per-pair integrals; symmetry makes tau21 = tau12.

    Tail-copula surfaces are typically non-smooth on the diagonal (exactly
    min(s,t) under complete dependence), so the double integral is split
    into the two triangles s <= t and s >= t, each mapped to the unit square
    by s = t v, where the integrand is smooth up to endpoint singularities
    that the clustered composite rule absorbs.  By symmetry the surface is
    evaluated on the s <= t triangle only.

    For gamma < 0 the corner of the double integral behaves like t^(2 gamma)
    (two score weights, one taming factor of r).  The substitution t = u^beta
    turns that into u^(beta (1 + 2 gamma) - 1); choosing beta = 2q/(1 + 2 gamma)
    with integer q makes the exponent an odd integer, so the dominant singular
    term is polynomial and the rule converges fast; q is the smallest integer
    keeping beta >= 6, which also soaks up the logarithmic weights near
    gamma = 0.  The cap keeps the substitution inside floating-point range;
    within a hair of gamma = -1/2 the variance integrals nearly diverge and
    the caller reports honest failure instead.
    """
    if gamma < 0:
        q = math.ceil(3.0 * (1.0 + 2.0 * gamma))
        beta = min(2.0 * q / (1.0 + 2.0 * gamma), 40.0)
    else:
        beta = 6.0
    s, w = _quad_axis(n_panels, order, beta)
    v, wv = _quad_axis(n_panels, order, beta)

    T = np.broadcast_to(s[None, :], (v.size, s.size))
    S = v[:, None] * T                      # inner coordinate on each triangle
    W2 = (wv[:, None] * w[None, :]) * T     # quadrature weight times jacobian

    # Within a hair of the shape boundary the clustered nodes underflow and
    # the weights overflow; the caller checks finiteness, so keep quiet here.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        F1, _, P2, _ = _score_weights(gamma, s)
        F1_in, _, P2_in, _ = _score_weights(gamma, S)

    x_tri = _eval_r(cross, S, T)            # X(s, t) on s <= t, = X(t, s)
    x_s1 = np.asarray(cross(s, np.ones_like(s)), dtype=float)   # = X(1, s)
    x_11 = float(cross(1.0, 1.0))

    # The compensator weights integrate in closed form; everything that needs
    # quadrature carries a factor r = O(s and t) near zero, which tames the
    # singular score weights (the raw compensators behave like s^(2*gamma)
    # and would converge hopelessly slowly for gamma < -1/4).
    int_G1 = -gamma / ((1.0 + gamma) * (1.0 + 2.0 * gamma))
    int_Q2 = (1.0 + gamma) / (1.0 + 2.0 * gamma)

    weights_1d = {"F": F1, "P": P2}
    weights_2d = {"F": F1_in, "P": P2_in}
    comp_integrals = {"F": int_G1, "P": int_Q2}

    def tau(a: str, b: str) -> float:
        wa, wb = weights_1d[a], weights_1d[b]
        iqa, iqb = comp_integrals[a], comp_integrals[b]
        with np.errstate(over="ignore", invalid="ignore"):
            two_d = float(np.sum(W2 * x_tri * (weights_2d[a] * wb[None, :]
                                               + wa[None, :] * weights_2d[b])))
        t2 = np.dot(w * wa, x_s1) * iqb
        t3 = iqa * np.dot(w * wb, x_s1)
        t4 = iqa * iqb * x_11
        return two_d - t2 - t3 + t4

    return tau("F", "F"), tau("P", "P"), tau("F", "P")


def sigma_gamma0(
    gamma: float,
    c1_values,
    cross: Callable | None = None,
    tol: float = 1e-6,
    n_panels: tuple[int, int] = (32, 64),
    order: int = 4,
) -> tuple[np.ndarray, float]:
    """Limiting covariance of the pooled GP score in (shape, scale).

    Same-station contributions use closed forms linear in the stations'
    tail shares ``c1_values``.  Cross-station contributions are linear in the
    tail-copula surfaces, so they integrate the four score-weight
    combinations once against ``cross(s, t)``, the symmetric aggregate
    surface X(s, t) = sum over stations i != j of r_ij(s, t); their cost does
    not depend on the number of station pairs.  ``cross=None`` treats
    stations as tail independent (all cross terms vanish).

    Returns the 2x2 matrix together with the quadrature error estimate
    (difference between the two nested panel counts); the estimate must meet
    ``tol`` or a :class:`QuadratureError` is raised.
    """
    if gamma <= -0.5:
        raise DomainError(f"shape must exceed -1/2, got {gamma}")
    c1 = np.asarray(c1_values, dtype=float)
    if c1.ndim != 1 or c1.size == 0:
        raise RangeError("c1_values must be a non-empty 1-D collection")
    if np.any(c1 < 0):
        raise RangeError("tail shares must be >= 0")

    a, b, c = _same_station_coeffs(gamma)
    total = float(c1.sum())
    sigma = np.array([[a, c], [c, b]]) * total
    quad_err = 0.0

    if cross is not None and c1.size > 1:
        coarse = np.array(_cross_station_taus(gamma, cross, n_panels[0], order))
        fine = np.array(_cross_station_taus(gamma, cross, n_panels[1], order))
        if not (np.all(np.isfinite(coarse)) and np.all(np.isfinite(fine))):
            raise QuadratureError(
                f"cross-station variance integrals are numerically divergent at "
                f"gamma={gamma:.6g} (the shape is too close to -1/2)"
            )
        quad_err = float(np.max(np.abs(fine - coarse)))
        if quad_err > tol:
            raise QuadratureError(
                f"cross-station quadrature error {quad_err:.3g} exceeds tol {tol:.3g}; "
                f"increase n_panels or loosen tol"
            )
        sigma += np.array([[fine[0], fine[2]], [fine[2], fine[1]]])

    return sigma, quad_err


@dataclass(frozen=True)
class AsymptoticCov:
    """Sandwich covariance of sqrt(k) (gamma_hat - gamma, scale ratio - 1)."""

    matrix: np.ndarray
    fisher: np.ndarray
    sigma: np.ndarray
    quadrature_error: float
    k: int

    def __post_init__(self):
        for name in ("matrix", "fisher", "sigma"):
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


def mle_asymptotic_cov(
    fit: GpFit,
    p: PanelSample,
    pooled: PooledOrderStatistics | None = None,
    grid_size: int = 64,
    tol: float = 2e-3,
    c1_values=None,
    cross: Callable | None = None,
) -> AsymptoticCov:
    """Sandwich covariance I^{-1} Sigma I^{-1} for a pooled GP fit.

    By default the tail shares and the aggregate cross-station surface
    X(s, t) = sum over i != j of r_ij(s, t) are estimated from the panel at
    the fit's ``k`` (one symmetric surface on a ``grid_size``-point geometric
    level grid, bilinearly interpolated, whose quadrature cost does not
    depend on the number of station pairs); analytic inputs can be supplied
    instead via ``c1_values``/``cross``.
    The default tolerance is looser than for analytic surfaces because the
    integrands inherit the interpolation kinks, which keep the nested panel
    counts from agreeing more tightly than the surface's own sampling error
    (order 1/sqrt(k)) anyway.
    """
    if not fit.converged:
        raise FitConvergenceError("cannot form a covariance from a non-converged fit")
    if c1_values is None or (cross is None and p.m > 1):
        dep = EmpiricalTailDependence(p, fit.k, grid_size=grid_size, pooled=pooled)
        if c1_values is None:
            c1_values = dep.c1
        if cross is None and p.m > 1:
            cross = dep.cross
    sigma, quad_err = sigma_gamma0(fit.gamma_hat, c1_values, cross, tol=tol)
    inv = fisher_info_inverse(fit.gamma_hat)
    matrix = inv @ sigma @ inv
    return AsymptoticCov(
        matrix=matrix,
        fisher=fisher_info(fit.gamma_hat),
        sigma=sigma,
        quadrature_error=quad_err,
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


def gamma_path(
    p: PanelSample, k_values, pooled: PooledOrderStatistics | None = None
) -> list[GammaPathRow]:
    """Shape estimates across a range of threshold levels.

    Standard errors use the tail-independent-stations reference
    (1 + gamma_hat) / sqrt(k), which is exact for a single station and for
    independent stations under the pooled normalisation; cross-station
    dependence inflates the truth above it (see :func:`mle_asymptotic_cov`
    for the full version).  Failures at individual levels are recorded and
    the sweep continues.
    """
    o = pooled if pooled is not None else pool(p)
    rows: list[GammaPathRow] = []
    for k in k_values:
        try:
            fit = fit_gp_pml(p, int(k), pooled=o)
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
