"""Synthetic panels with known tail behaviour, and Monte Carlo harnesses.

The simulator draws each day's station uniforms from a chosen copula
(independent, logistic, or comonotone) and maps them through marginals whose
upper tail is exactly generalized Pareto, modulated by a per-station
frequency c(u, j), linear in the time fraction u:

    P(X_{i,j} > x) = c(i/n, j) * (1 - F0(x))        for x above a threshold,

where 1 - F0(x) = (1 + gamma x)^(-1/gamma) on its top decile and a uniform
filler carries the rest.  Everything about the tail (thresholds, quantiles,
pairwise tail copulas, limiting covariances) is therefore available in
closed form, so the harnesses can separate finite-threshold effects from
estimation error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientDataError, RangeError, ScedexError, SimSpecError
from .gp_mle import fit_gp_pml, sigma_gamma0, fisher_info_inverse
from .panel import PanelSample
from .tail import check_k
from . import trend_tests

TAIL_MASS = 0.1  # marginal mass carried by the exact GP tail

_DEPENDENCES = ("independent", "logistic", "comonotone")


# ---------------------------------------------------------------------------
# Tail copulas
# ---------------------------------------------------------------------------


def logistic_tail_copula(alpha: float) -> Callable:
    """The logistic-family tail copula R(x, y) = x + y - (x^(1/a) + y^(1/a))^a.

    ``alpha = 1`` gives tail independence (R = 0); ``alpha -> 0`` approaches
    complete dependence min(x, y).
    """
    if not 0 < alpha <= 1:
        raise RangeError(f"logistic parameter must lie in (0, 1], got {alpha}")

    def R(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(x < 0) or np.any(y < 0):
            raise RangeError("tail copula arguments must be >= 0")
        out = x + y - (x ** (1.0 / alpha) + y ** (1.0 / alpha)) ** alpha
        out = np.maximum(out, 0.0)  # guard float dust at the boundary
        return float(out) if out.ndim == 0 else out

    return R


@functools.cache
def _nodes() -> tuple:
    """The 200-node Gauss-Legendre rule on [0, 1], read-only (nodes, weights):
    every quadrature in this module uses it.  Built on first use."""
    x, w = np.polynomial.legendre.leggauss(200)
    rule = ((x + 1.0) / 2.0, w / 2.0)
    for a in rule:
        a.setflags(write=False)
    return rule


# ---------------------------------------------------------------------------
# Simulation specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimSpec:
    """Recipe for a synthetic panel.

    ``scedasis`` holds one frequency line per station, a ``(start, end)``
    pair: station j's frequency at time fraction u in [0, 1] is proportional
    to ``start + (end - start) u``, so a constant level c is ``(c, c)``.
    None means ``(1, 1)`` everywhere.  Both ends must be finite and positive.
    The lines are stored as given; :meth:`level` rescales them jointly so
    their average integral is exactly 1, preserving the ratios between
    stations.  ``alpha`` is the logistic parameter and is only taken with
    ``dependence="logistic"``.  ``seed`` is a non-negative integer; with the
    replication number it keys the panel's random stream.
    """

    n: int
    m: int
    gamma: float
    dependence: str = "independent"
    alpha: float | None = None
    scedasis: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise SimSpecError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise SimSpecError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (math.isfinite(self.gamma) and self.gamma > -0.5):
            raise SimSpecError(f"shape must be finite and exceed -1/2, got {self.gamma}")
        if self.dependence not in _DEPENDENCES:
            raise SimSpecError(
                f"dependence must be one of {_DEPENDENCES}, got {self.dependence!r}"
            )
        if self.dependence == "logistic":
            if self.alpha is None or not 0 < self.alpha <= 1:
                raise SimSpecError(
                    f"logistic dependence needs alpha in (0, 1], got {self.alpha}"
                )
        elif self.alpha is not None:
            raise SimSpecError(
                f"alpha is the logistic parameter, but dependence is {self.dependence!r}"
            )
        try:
            ends = np.array(((1.0, 1.0),) * self.m if self.scedasis is None else self.scedasis,
                            dtype=float)
        except (TypeError, ValueError):
            ends = np.empty(0)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise SimSpecError("each frequency line must be a (start, end) pair of numbers")
        if len(ends) != self.m:
            raise SimSpecError(f"expected {self.m} frequency lines, got {len(ends)}")
        # a line is positive on [0, 1] exactly when both its ends are
        if not np.all((ends > 0) & np.isfinite(ends)):
            raise SimSpecError("frequency lines must be finite and strictly positive "
                               "at both ends")
        with np.errstate(over="ignore"):
            masses = ends.sum(axis=1) / 2.0
            total = masses.sum()
        if not np.isfinite(total):
            raise SimSpecError(f"frequency lines too large: their masses sum to {total}")
        rho = self.m / total
        if rho * ends.max() * TAIL_MASS > 1.0:
            raise SimSpecError(
                f"frequency level {rho * ends.max():.3g} too extreme: the exact-tail "
                f"construction needs max level <= {1.0 / TAIL_MASS:.3g}"
            )
        object.__setattr__(self, "scedasis", tuple(map(tuple, ends.tolist())))
        object.__setattr__(self, "_rho", rho)
        object.__setattr__(self, "_c1", tuple(rho * masses / self.m))

    def level(self, j: int, u) -> np.ndarray:
        """Station j's normalised frequency level c(u, j) at time fractions u."""
        start, end = self.scedasis[j]
        return self._rho * (start + (end - start) * np.asarray(u, dtype=float))

    @property
    def c1(self) -> np.ndarray:
        """Exact per-station integrated frequencies C_j(1) (they sum to 1)."""
        return np.asarray(self._c1)

    @functools.cached_property
    def _frame(self) -> tuple:
        """What every replication of this spec shares, built on first use and
        read-only: the days x stations frequency levels c(i/n, j), the tail
        masses c TAIL_MASS and 1 - c TAIL_MASS, and the filler's top x0."""
        u_rows = np.arange(1, self.n + 1) / self.n
        c_mat = np.column_stack([self.level(j, u_rows) for j in range(self.m)])
        tail_mass = c_mat * TAIL_MASS
        body_mass = 1.0 - tail_mass
        for a in (c_mat, tail_mass, body_mass):
            a.setflags(write=False)
        return c_mat, tail_mass, body_mass, float(self.tail_quantile(TAIL_MASS))

    # -- exact marginal quantities -----------------------------------------

    def tail_quantile(self, q) -> np.ndarray:
        """The exact marginal tail quantile Q0(q) (valid for q <= TAIL_MASS)."""
        q = np.asarray(q, dtype=float)
        if self.gamma == 0.0:
            return -np.log(q)
        return np.expm1(-self.gamma * np.log(q)) / self.gamma

    def intermediate_quantile(self, y) -> np.ndarray:
        """U0(y) = Q0(1/y): threshold with marginal exceedance mass 1/y."""
        return self.tail_quantile(1.0 / np.asarray(y, dtype=float))

    def scale_norm(self, y) -> float:
        """The exact scale normalisation a0(y) = y^gamma."""
        return float(y) ** self.gamma


def _positive_stable(rng: np.random.Generator, alpha: float, size: int) -> np.ndarray:
    """Positive stable draws with Laplace transform exp(-t^alpha) (Kanter)."""
    theta = rng.uniform(0.0, math.pi, size)
    w = rng.standard_exponential(size)
    a = (
        np.sin(alpha * theta) ** alpha
        * np.sin((1.0 - alpha) * theta) ** (1.0 - alpha)
        / np.sin(theta)
    ) ** (1.0 / (1.0 - alpha))
    return (a / w) ** ((1.0 - alpha) / alpha)


def _draw_uniforms(spec: SimSpec, rng: np.random.Generator) -> np.ndarray:
    """Per-day station uniforms whose lower joint tail realises the chosen
    tail copula, in one fresh days x stations array."""
    n, m = spec.n, spec.m
    if spec.dependence == "comonotone":
        v = np.repeat(rng.random((n, 1)), m, axis=1)
    elif spec.dependence == "independent" or spec.alpha == 1.0:
        v = rng.random((n, m))
    else:
        s = _positive_stable(rng, spec.alpha, n)
        v = rng.standard_exponential((n, m))
        # 1 - Gumbel-copula uniform, -expm1(-((e / s) ** alpha)), in place
        v /= s[:, None]
        v **= spec.alpha
        np.negative(v, out=v)
        np.expm1(v, out=v)
        np.negative(v, out=v)
    return np.maximum(v, 1e-300, out=v)


def simulate_panel(spec: SimSpec, replication: int = 0) -> PanelSample:
    """Draw one synthetic panel; deterministic given (seed, replication).

    Uses the Philox counter-based generator keyed by (seed, replication), so
    replications form independent substreams that can run in any order.
    """
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((spec.seed, replication)))
    )
    n, m = spec.n, spec.m
    c_mat, tail_mass, body_mass, x0 = spec._frame
    v = _draw_uniforms(spec, rng)

    # The exact GP quantile on the tail cells, then the filler x0 (1 - frac)
    # over the uniforms' own buffer.  Every full-size temporary is paid in
    # fresh pages, so the replication allocates as few as it can; the tail
    # cells are flat indices into the C-ordered v, cheaper than a 2-D mask.
    at = np.flatnonzero(v <= tail_mass)
    flat = v.ravel()  # a view
    tail = spec.tail_quantile(flat[at] / c_mat.ravel()[at])
    v -= tail_mass
    v /= body_mass
    np.clip(v, 0.0, 1.0, out=v)
    np.subtract(1.0, v, out=v)
    v *= x0
    flat[at] = tail

    # the panel owns the buffer: nothing else holds it
    return PanelSample._adopt(v, np.datetime64("2000-01-01") + np.arange(n),
                              tuple(f"S{j + 1:02d}" for j in range(m)))


def _tail_integral(spec: SimSpec, i: int, j: int, s, t, upper: float = 1.0):
    """(1/m) int_0^upper R_ij(s c_i(u), t c_j(u)) du by :func:`_nodes`.  R_ij is
    min within one station and the spec's pair copula across stations; where
    the arguments of min cross, the rule is not exact (the integrand kinks)."""
    if not (0 <= i < spec.m and 0 <= j < spec.m):
        raise RangeError(f"station indices ({i}, {j}) out of range for m={spec.m}")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if not (np.all(s >= 0) and np.all(t >= 0)):
        raise RangeError("tail copula arguments must be >= 0")
    if i == j or spec.dependence == "comonotone":
        R = np.minimum
    elif spec.dependence == "independent":
        R = lambda x, y: 0.0 * np.minimum(x, y)
    else:
        R = logistic_tail_copula(spec.alpha)
    u, w = _nodes()
    vals = R(s[..., None] * spec.level(i, upper * u), t[..., None] * spec.level(j, upper * u))
    out = upper * (vals @ w) / spec.m
    return float(out) if out.ndim == 0 else out


def _analytic_moment_corner(spec: SimSpec) -> tuple:
    """(moment, corner): int_0^1 X(v, 1) / v dv and X(1, 1) of the spec's exact
    aggregate cross-station surface X(s, t) = sum over i != j of r(i, j; s, t),
    the two numbers of it that :func:`sigma_gamma0` reads; (0, 0) for one
    station or tail independence.

    The moment is 3 int_0^1 X(w^3, 1) / w dw on :func:`_nodes`: the
    substitution v = w^3 smooths the power v^(1/alpha - 1) with which a
    logistic edge leaves 0.  Stations on the same frequency line have the
    same surfaces, so r is evaluated once per ordered pair of such groups and
    weighted by the number of ordered station pairs it stands for.
    """
    if spec.m == 1:
        return 0.0, 0.0
    groups: dict[tuple, list[int]] = {}
    for j, line in enumerate(spec.scedasis):
        groups.setdefault(line, []).append(j)
    w, weights = _nodes()
    v = np.append(w ** 3, 1.0)
    edge = sum(pairs * _tail_integral(spec, a[0], b[-1], v, 1.0)  # distinct when a is b
               for a in groups.values() for b in groups.values()
               if (pairs := len(a) * (len(b) - (a is b))))
    return 3.0 * float(weights @ (edge[:-1] / w)), float(edge[-1])


def analytic_sigma(spec: SimSpec, j1: int, j2: int, s1: float, s2: float,
                   t1: float, t2: float) -> float:
    """Limiting covariance of the threshold-exceedance counts:
    (1/m) int_0^{t1 ^ t2} R(s1 c_{j1}(u), s2 c_{j2}(u)) du."""
    if not (0 <= t1 <= 1 and 0 <= t2 <= 1):  # NaN fails both comparisons
        raise RangeError(f"time fractions must lie in [0, 1], got t1={t1}, t2={t2}")
    return _tail_integral(spec, j1, j2, s1, s2, upper=min(t1, t2))


# ---------------------------------------------------------------------------
# Harnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McReport:
    replications: int
    skipped: int
    rejection_rate: float | None = None
    monte_carlo_se: float | None = None
    summaries: dict = field(default_factory=dict)
    details: list = field(default_factory=list)


def _replicate(fn: Callable, reps: int, threads: int, need: int):
    """Evaluate fn(rep) for rep = 0..reps-1 on ``threads`` threads.

    A replication that raises a ``ScedexError`` is skipped.  Returns the
    successes stacked in rep order, so the aggregation is independent of
    completion order, and the number skipped; raises ``ScedexError`` when
    fewer than ``need`` succeed.
    """
    if threads < 1:
        raise RangeError(f"need threads >= 1, got {threads}")

    def guarded(rep: int):
        try:
            return fn(rep)
        except ScedexError:
            return None

    if threads == 1:  # on the caller's thread, so a tracer nests each call in it
        results = [guarded(r) for r in range(reps)]
    else:
        # imported here: concurrent.futures (and the logging it loads) costs
        # every process that imports scedex about 8 ms, and only this uses it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool_:
            results = list(pool_.map(guarded, range(reps)))
    done = [r for r in results if r is not None]
    if len(done) < need:
        raise ScedexError(
            f"{len(done)} of {reps} replications succeeded; need at least {need}"
        )
    return np.array(done), reps - len(done)


def mc_test_size(
    spec: SimSpec,
    k: int,
    which: str = "space",
    reps: int = 500,
    level: float = 0.05,
    station: int = 0,
    threads: int = 1,
) -> McReport:
    """Rejection rate of a trend test on simulated panels.

    Under a homogeneous spec this measures size; under a trending spec,
    power.  The time test is evaluated at ``station``.
    """
    if which not in ("space", "time"):
        raise RangeError(f"which must be 'space' or 'time', got {which!r}")
    if not 0 < level < 1:
        raise RangeError(f"level must lie in (0, 1), got {level}")
    if which == "time" and not 0 <= station < spec.m:
        raise RangeError(f"station index {station} out of range for m={spec.m}")
    if which == "space" and spec.m < 2:
        raise RangeError("space test needs at least two stations")
    if reps < 1:
        raise RangeError(f"need reps >= 1, got {reps}")
    check_k(k, spec.n * spec.m)  # a simulated panel has no missing cells

    def one(rep: int) -> float:
        panel = simulate_panel(spec, rep)
        if which == "space":
            res = trend_tests.space_test(panel, k)
        else:
            res = trend_tests.time_test(panel, k, station)
        return float(res.p_value < level)

    flags, skipped = _replicate(one, reps, threads, need=1)
    rate = float(flags.mean())
    se = math.sqrt(rate * (1.0 - rate) / flags.size)
    return McReport(
        replications=int(flags.size),
        skipped=int(skipped),
        rejection_rate=rate,
        monte_carlo_se=se,
        summaries={
            "level": level,
            "which": which,
            "degenerate": bool(rate in (0.0, 1.0)),
        },
    )


def mc_covariance_check(
    spec: SimSpec,
    k: int,
    pairs: Sequence[tuple],
    reps: int = 500,
    threads: int = 1,
) -> McReport:
    """Empirical vs analytic covariance of tail exceedance counts.

    Each pair is ((j1, s1, t1), (j2, s2, t2)).  Counts use the simulator's
    exact intermediate quantiles as thresholds (the deterministic levels the
    limiting covariance is indexed by), so the scaled counts are compared
    directly against sigma(j1, j2; s1, s2, t1, t2) without the
    self-normalisation that an estimated threshold would introduce.
    """
    pairs = list(pairs)
    if not pairs:
        raise RangeError("need at least one coordinate pair")
    if k < 1:
        raise RangeError(f"need k >= 1, got {k}")
    if reps < 3:
        raise RangeError(f"need reps >= 3 for a covariance, got {reps}")
    n, m = spec.n, spec.m
    N = n * m
    coords = sorted({cc for pair in pairs for cc in pair})
    for (j, s, t) in coords:
        if not 0 <= j < m:
            raise RangeError(f"station index {j} out of range for m={m}")
        if not 0 < t <= 1:
            raise RangeError(f"time fraction must lie in (0, 1], got {t}")
        if not (math.isfinite(s) and s > 0):
            raise RangeError(f"level must be finite and positive, got {s}")
        if k * s / N > TAIL_MASS + 1e-12:
            raise RangeError(
                f"level s={s} leaves the exact-tail region (k*s/N = {k * s / N:.4g} "
                f"> {TAIL_MASS})"
            )
    thresholds = {cc: float(spec.intermediate_quantile(N / (k * cc[1]))) for cc in coords}

    def one(rep: int) -> np.ndarray:
        panel = simulate_panel(spec, rep)
        out = np.empty(len(coords))
        for a, (j, s, t) in enumerate(coords):
            cut = int(math.floor(n * t + 1e-9))
            out[a] = np.count_nonzero(panel.values[:cut, j] > thresholds[(j, s, t)]) / k
        return out

    vals, skipped = _replicate(one, reps, threads, need=3)
    centered = (vals - vals.mean(axis=0)) * math.sqrt(k)

    details = []
    index = {cc: a for a, cc in enumerate(coords)}
    for (c1, c2) in pairs:
        prod = centered[:, index[c1]] * centered[:, index[c2]]
        emp = float(prod.mean() * vals.shape[0] / (vals.shape[0] - 1))
        se = float(prod.std(ddof=1) / math.sqrt(prod.size))
        ana = analytic_sigma(spec, c1[0], c2[0], c1[1], c2[1], c1[2], c2[2])
        details.append({
            "pair": (c1, c2),
            "empirical": emp,
            "analytic": ana,
            "mc_se": se,
            "z": (emp - ana) / se if se > 0 else math.inf,
        })
    worst = max(abs(d["z"]) for d in details)
    return McReport(
        replications=int(vals.shape[0]),
        skipped=int(skipped),
        summaries={"max_abs_z": float(worst)},
        details=details,
    )


def mc_mle_variance(
    spec: SimSpec,
    k: int,
    reps: int = 300,
    threads: int = 1,
) -> McReport:
    """Bias and scaled variance of the pooled GP fit against the sandwich
    prediction computed from the spec's exact tail-copula surfaces, through
    the moment and corner of their aggregate edge
    (:func:`_analytic_moment_corner`)."""
    if k < 10:
        raise InsufficientDataError(f"k must be at least 10 for a GP fit, got {k}")
    if reps < 3:
        raise RangeError(f"need reps >= 3 for a variance, got {reps}")
    N = spec.n * spec.m
    if k / N > TAIL_MASS:
        raise RangeError(
            f"k/N = {k / N:.4g} leaves the exact-tail region (> {TAIL_MASS}); "
            "the fit would see the filler part of the marginal"
        )
    a0 = spec.scale_norm(N / k)

    def one(rep: int) -> np.ndarray:
        panel = simulate_panel(spec, rep)
        fit = fit_gp_pml(panel, k)
        return np.array([fit.gamma_hat, fit.scale_hat])

    vals, skipped = _replicate(one, reps, threads, need=3)

    gammas = vals[:, 0]
    rel_scales = vals[:, 1] / a0 - 1.0
    k_var_gamma = float(k * gammas.var(ddof=1))
    k_var_scale = float(k * rel_scales.var(ddof=1))

    moment, corner = _analytic_moment_corner(spec)
    sigma, _ = sigma_gamma0(spec.gamma, spec.c1, moment=moment, corner=corner)
    inv = fisher_info_inverse(spec.gamma)
    sandwich = inv @ sigma @ inv
    rel_se = math.sqrt(2.0 / (vals.shape[0] - 1))  # relative MC error of a variance

    return McReport(
        replications=int(vals.shape[0]),
        skipped=int(skipped),
        summaries={
            "gamma_true": spec.gamma,
            "mean_gamma": float(gammas.mean()),
            "bias_gamma": float(gammas.mean() - spec.gamma),
            "k_var_gamma": k_var_gamma,
            "k_var_scale_rel": k_var_scale,
            "predicted_k_var_gamma": float(sandwich[0, 0]),
            "predicted_k_var_scale_rel": float(sandwich[1, 1]),
            "mc_rel_se_variance": rel_se,
        },
    )
