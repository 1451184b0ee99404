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


# ---------------------------------------------------------------------------
# Log-likelihood, score, Hessian
# ---------------------------------------------------------------------------


def gp_loglik(gamma: float, sigma: float, x) -> float:
    """GP log-density summed over the excess(es) ``x``.

    For gamma != 0:  -log sigma - (1 + 1/gamma) log(1 + gamma x / sigma),
    for gamma == 0:  -log sigma - x / sigma, both on their natural support
    (x >= 0, and x < -sigma/gamma when gamma < 0).  This is the fit's own
    likelihood (:func:`_loglik_terms`), which switches to a third-order
    series in gamma for |gamma| < 1e-5.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if sigma <= 0:
        raise DomainError(f"scale must be positive, got {sigma}")
    if np.any(x < 0):
        raise DomainError("excesses must be >= 0")
    terms = _loglik_terms(gamma, math.log(sigma), x)
    if terms is None:
        raise DomainError(
            f"excess outside GP support: need 1 + gamma*x/sigma > 0 "
            f"(gamma={gamma}, sigma={sigma})"
        )
    return terms[0]


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
    method = "profile"  # unless Newton converges
    for it in range(1, _MAX_ITER + 1):
        norm = float(np.linalg.norm(score))
        trace.append({"iter": it, "gamma": g, "log_scale": tau,
                      "loglik": ll, "score_norm": norm})
        eig = np.linalg.eigvalsh(hess)
        if norm < _SCORE_TOL and np.all(eig < 0):
            method = "newton"
            break
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
    iterations = it

    if method == "profile":
        # Newton stalled: profile-likelihood fallback on the shape alone.
        from scipy.optimize import minimize_scalar

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
        iterations = it + 1
        trace.append({"iter": iterations, "gamma": g, "log_scale": tau,
                      "loglik": ll, "score_norm": norm})
        if g <= GAMMA_MIN + 1e-4 or g >= GAMMA_MAX - 1e-4:
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
        loglik=ll, iterations=iterations, converged=True,
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


def _edge_moment(nodes: np.ndarray, values: np.ndarray) -> float:
    """Integral of E(v) / v over (0, 1] for the E that is linear between
    consecutive ``nodes`` and runs linearly from E(0) = 0 up to the first;
    exact cell by cell."""
    a, b = nodes[:-1], nodes[1:]
    ea, eb = values[:-1], values[1:]
    log_ratio = np.log(b / a)
    # on [a, b]: E(v) = ea + (eb - ea) (v - a) / (b - a)
    cells = ea * log_ratio + (eb - ea) * (1.0 - a * log_ratio / (b - a))
    return float(values[0] + cells.sum())


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


def sigma_gamma0(gamma: float, c1_values, *, edge=None) -> tuple[np.ndarray, float]:
    """Limiting covariance of the pooled GP score in (shape, scale).

    Station j's own tail surface is C_j(1) min(s, t), with the tail shares
    C_j(1) given by ``c1_values``.  ``edge`` is a pair (nodes, values) that
    samples X(v, 1), the edge of the aggregate cross-station surface
    X(s, t) = sum over stations i != j of r_ij(s, t), at nodes increasing to
    exactly 1; X(v, 1) is taken linear between nodes and from 0 at v = 0.
    ``edge=None`` treats stations as tail independent (all cross terms
    vanish).  The cost does not depend on the number of stations.

    Returns the 2x2 matrix and its integration error, which is 0.0: every
    entry is closed-form in the edge (see :func:`_score_covariance`).
    """
    if gamma <= -0.5:
        raise DomainError(f"shape must exceed -1/2, got {gamma}")
    c1 = np.asarray(c1_values, dtype=float)
    if c1.ndim != 1 or c1.size == 0:
        raise RangeError("c1_values must be a non-empty 1-D collection")
    if np.any(c1 < 0):
        raise RangeError("tail shares must be >= 0")

    # the same-station surfaces sum to C min(s, t), whose edge is C v
    moment = corner = float(c1.sum())
    if edge is not None:
        nodes, values = (np.asarray(x, dtype=float) for x in edge)
        if (nodes.ndim != 1 or nodes.size == 0 or values.shape != nodes.shape
                or nodes[0] <= 0 or nodes[-1] != 1.0 or np.any(np.diff(nodes) <= 0)):
            raise RangeError("edge nodes must increase from above 0 to exactly 1, "
                             "with one value per node")
        moment += _edge_moment(nodes, values)
        corner += float(values[-1])
    return _score_covariance(gamma, moment, corner), 0.0


@dataclass(frozen=True)
class AsymptoticCov:
    """Sandwich covariance of sqrt(k) (gamma_hat - gamma, scale ratio - 1)."""

    matrix: np.ndarray
    fisher: np.ndarray
    sigma: np.ndarray
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


def mle_asymptotic_cov(fit: GpFit, p: PanelSample, c1_values=None, edge=None) -> AsymptoticCov:
    """Sandwich covariance I^{-1} Sigma I^{-1} for a pooled GP fit.

    By default the tail shares and the edge X(v, 1) of the aggregate
    cross-station surface are estimated from the panel at the fit's ``k``
    (:class:`EmpiricalTailDependence` with its default level grid); analytic
    inputs can be supplied instead via ``c1_values``/``edge`` (see
    :func:`sigma_gamma0`).
    """
    if not fit.converged:
        raise FitConvergenceError("cannot form a covariance from a non-converged fit")
    if c1_values is None or (edge is None and p.m > 1):
        dep = EmpiricalTailDependence(p, fit.k)
        if c1_values is None:
            c1_values = dep.c1
        if edge is None and p.m > 1:
            edge = dep.edge
    sigma, _ = sigma_gamma0(fit.gamma_hat, c1_values, edge=edge)
    inv = fisher_info_inverse(fit.gamma_hat)
    return AsymptoticCov(
        matrix=inv @ sigma @ inv,
        fisher=fisher_info(fit.gamma_hat),
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
