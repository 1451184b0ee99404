"""GP pseudo-likelihood machinery: likelihood, fitting, sandwich covariance.

Oracles: scipy.stats.genpareto for the log-density, numerical differentiation
for score and Hessian, numerically integrated score outer products for the
Fisher information, the complete-dependence tail copula min(s, t) * C,
for which every cross-station covariance integral has a closed form (the
same-station coefficients scaled by C), and direct numerical integration of
the score covariance's defining double integral on a logistic surface.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from scedex import (
    AsymptoticCov,
    DomainError,
    FitConvergenceError,
    InsufficientDataError,
    RangeError,
    fisher_info,
    fisher_info_inverse,
    fit_gp_excesses,
    fit_gp_pml,
    gamma_path,
    mle_asymptotic_cov,
    sigma_gamma0,
)
from scedex import gp_mle as gp_mle_module
from scedex.dependence import EmpiricalTailDependence
from scedex.gp_mle import _loglik_terms, _score_covariance
from scedex.mc import SimSpec, logistic_tail_copula, simulate_panel
from scedex.tail import TailAtK

from conftest import make_panel

GAMMA_GRID = [-0.45, -0.43, -0.31, -0.13, -0.02, 0.0, 0.17, 0.25, 1.0, 2.0]


# ---------------------------------------------------------------------------
# log-likelihood, score, Hessian
# ---------------------------------------------------------------------------


def _loglik(gamma, sigma, x):
    return _loglik_terms(gamma, math.log(sigma), x)[0]


def _support_sample(gamma, sigma, n=40):
    if gamma < 0:
        hi = -sigma / gamma * 0.95
    else:
        hi = sigma * 8.0
    return np.linspace(hi / n, hi, n)


@pytest.mark.parametrize("gamma", [-0.3, -0.1, 0.25, 1.0, 3.0])
@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_loglik_matches_scipy(gamma, sigma):
    x = _support_sample(gamma, sigma)
    want = stats.genpareto.logpdf(x, c=gamma, scale=sigma).sum()
    assert _loglik(gamma, sigma, x) == pytest.approx(want, rel=1e-12)


def test_loglik_gamma_exactly_zero():
    x = np.array([0.1, 1.0, 2.5])
    sigma = 1.7
    want = np.sum(-np.log(sigma) - x / sigma)
    assert _loglik(0.0, sigma, x) == pytest.approx(want, rel=1e-15)


def test_loglik_tiny_gamma_uses_stable_branch():
    x = _support_sample(0.0, 1.0)
    for g in (1e-7, -1e-7, 4e-9):
        want = stats.genpareto.logpdf(x, c=g, scale=1.0).sum()
        assert _loglik(g, 1.0, x) == pytest.approx(want, rel=1e-9)


def test_loglik_is_none_outside_support():
    # the upper endpoint of shape -0.4 at unit scale is 1/0.4 = 2.5
    assert _loglik_terms(-0.4, 0.0, np.array([1.0, 3.0])) is None
    assert _loglik_terms(-0.4, 0.0, np.array([1.0, 2.4])) is not None


@settings(max_examples=25, deadline=None)
@given(
    gamma=st.floats(min_value=-0.45, max_value=4.0),
    sigma=st.floats(min_value=0.1, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(gamma=5e-324, sigma=1.0, seed=0)
def test_loglik_matches_scipy_random(gamma, sigma, seed):
    rng = np.random.default_rng(seed)
    x = stats.genpareto.rvs(c=gamma, scale=sigma, size=30, random_state=rng)
    if abs(gamma) < 1e-12:
        # scipy's log-density leaves the exponential limit at subnormal shapes
        # (-35.0 against the exact -35.9128 for the example above), so the
        # reference there is that limit itself.
        want = -x.size * math.log(sigma) - x.sum() / sigma
    else:
        want = stats.genpareto.logpdf(x, c=gamma, scale=sigma).sum()
    assert _loglik(gamma, sigma, x) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("gamma", [-0.35, -0.05, 0.3, 1.2])
def test_score_and_hessian_match_numerical_derivatives(gamma):
    rng = np.random.default_rng(7)
    # draw from the shape under test so every point stays inside the support
    x = stats.genpareto.rvs(c=gamma, scale=1.0, size=50, random_state=rng)
    tau = 0.3

    def ll(g, t):
        return _loglik_terms(g, t, x)[0]

    _, s_g, s_t, h_gg, h_gt, h_tt = _loglik_terms(gamma, tau, x)
    h = 1e-6
    num_g = (ll(gamma + h, tau) - ll(gamma - h, tau)) / (2 * h)
    num_t = (ll(gamma, tau + h) - ll(gamma, tau - h)) / (2 * h)
    assert s_g == pytest.approx(num_g, rel=1e-5, abs=1e-5)
    assert s_t == pytest.approx(num_t, rel=1e-5, abs=1e-5)

    h = 1e-4
    num_gg = (ll(gamma + h, tau) - 2 * ll(gamma, tau) + ll(gamma - h, tau)) / h**2
    num_tt = (ll(gamma, tau + h) - 2 * ll(gamma, tau) + ll(gamma, tau - h)) / h**2
    num_gt = (
        ll(gamma + h, tau + h) - ll(gamma + h, tau - h)
        - ll(gamma - h, tau + h) + ll(gamma - h, tau - h)
    ) / (4 * h**2)
    assert h_gg == pytest.approx(num_gg, rel=5e-4, abs=5e-4)
    assert h_tt == pytest.approx(num_tt, rel=5e-4, abs=5e-4)
    assert h_gt == pytest.approx(num_gt, rel=5e-4, abs=5e-4)


def test_loglik_terms_continuous_across_taylor_seam():
    rng = np.random.default_rng(11)
    x = stats.genpareto.rvs(c=0.0, scale=1.0, size=60, random_state=rng)
    for sign in (1.0, -1.0):
        dg = sign * 0.02e-5
        below = _loglik_terms(sign * 0.99e-5, 0.1, x)
        above = _loglik_terms(sign * 1.01e-5, 0.1, x)
        # the log-likelihood continues to first order through the branch switch
        assert above[0] == pytest.approx(below[0] + below[1] * dg, abs=1e-8)
        assert np.allclose(below[1:3], above[1:3], rtol=1e-4, atol=1e-6)
        assert np.allclose(below[3:], above[3:], rtol=1e-4, atol=1e-5)


def _reference_terms(g, tau, x):
    """(ll, s_g, s_t, h_gg, h_gt, h_tt) summed termwise in long double, each
    with the summed magnitudes of its terms (the scale its rounding error
    is measured against).  Every series term is split into monomials, so a
    cancellation inside a term counts in the scale too."""
    g, tau = np.longdouble(g), np.longdouble(tau)
    z = np.asarray(x, dtype=np.longdouble) / np.exp(tau)
    w = 1 + g * z
    B = z / w
    one = np.ones_like(z)
    u = 1 + g
    if abs(g) < gp_mle_module._SMALL_GAMMA:
        g2, g3 = g * g, g ** 3
        ll = [-tau * one, -z, -g * z, g * z ** 2 / 2, -g2 * z ** 3 / 3, g2 * z ** 2 / 2,
              g3 * z ** 4 / 4, -g3 * z ** 3 / 3]
        s_g = [z ** 2 / 2, -z, g * z ** 2, -2 * g * z ** 3 / 3, 3 * g2 * z ** 4 / 4, -g2 * z ** 3]
        h_gg = [z ** 2, -2 * z ** 3 / 3, 3 * g * z ** 4 / 2, -2 * g * z ** 3, 3 * g2 * z ** 4,
                -12 * g2 * z ** 5 / 5]
    else:
        A = np.log1p(g * z)
        c = 1 + 1 / g
        ll = [-tau * one, -c * A]
        s_g = [A / g ** 2, -c * B]
        h_gg = [2 * B / g ** 2, -2 * A / g ** 3, c * B * B]
    quantities = (ll, s_g, [-one, u * B], h_gg, [B, -u * B * B], [-u * B / w])
    return [(sum(t.sum() for t in q), sum(np.abs(t).sum() for t in q)) for q in quantities]


@pytest.mark.parametrize("n", [10, 250, 5000])
@pytest.mark.parametrize(
    "gamma", [-0.45, -0.05, -1.01e-5, -0.99e-5, 0.99e-5, 1.01e-5, 7e-4, 0.3, 2.0])
def test_four_sums_match_the_long_double_termwise_sums(gamma, n):
    """Each of the six numbers is within 1e-13 of its terms' summed
    magnitudes of the long-double termwise sum: about 450 double epsilons,
    room for a few roundings per term, the condition of log1p and 1 / w near
    the support's end (w >= 0.09 here) and the summation order of n terms."""
    rng = np.random.default_rng([n, 17])
    x = stats.genpareto.rvs(c=gamma, scale=1.0, size=n, random_state=rng)
    tau = 0.1  # the scale exp(0.1) > 1 keeps every draw inside the support
    got = _loglik_terms(gamma, tau, x)
    assert len(got) == 6 and all(type(v) is float for v in got)
    for name, v, (want, scale) in zip(
            ("ll", "s_g", "s_t", "h_gg", "h_gt", "h_tt"), got, _reference_terms(gamma, tau, x)):
        assert abs(v - float(want)) <= 1e-13 * float(scale), name


_BUILT_HESSIANS = {
    "negative definite": [[-2.0, 0.5], [0.5, -1.0]],
    "det = 0": [[-1.0, 2.0], [2.0, -4.0]],
    "det = 0, diagonal": [[-1.0, 0.0], [0.0, 0.0]],
    "h_gg = 0": [[0.0, 0.0], [0.0, -1.0]],
    "h_gg = 0, indefinite": [[0.0, 1.0], [1.0, -3.0]],
    "indefinite": [[-1.0, 2.0], [2.0, -1.0]],
    "positive definite": [[2.0, 0.5], [0.5, 1.0]],
    "negative definite, scaled": [[-3.1e3, 1.2e3], [1.2e3, -7.5e2]],
}


@pytest.mark.parametrize("score", [(0.3, -1.7), (4e-9, 2e-9)])
@pytest.mark.parametrize("case", _BUILT_HESSIANS)
def test_closed_form_step_agrees_with_eigvalsh_and_solve(case, score):
    """Definiteness as eigvalsh reports it, and the step solve (or the
    steepest-ascent rule) gives, to 1e-14 relative: these matrices have
    condition numbers under 20, so both rules round only a few times."""
    h = np.array(_BUILT_HESSIANS[case])
    s = np.array(score)
    norm = float(np.linalg.norm(s))
    d_g, d_t, definite = gp_mle_module._ascent_step(
        s[0], s[1], h[0, 0], h[0, 1], h[1, 1], math.hypot(*s))
    assert definite == bool(np.all(np.linalg.eigvalsh(h) < 0))
    want = np.linalg.solve(h, -s) if definite else s / max(1.0, norm)
    assert np.allclose([d_g, d_t], want, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "gamma,sigma", [(0.5, 2.0), (-0.3, 1.0), (0.0, 3.0), (0.25, 0.5)]
)
def test_fit_recovers_simulated_truth(gamma, sigma):
    rng = np.random.default_rng(42)
    n = 20000
    x = stats.genpareto.rvs(c=gamma, scale=sigma, size=n, random_state=rng)
    x = x[x > 0]
    fit = fit_gp_excesses(x)
    assert fit.converged
    assert fit.score_norm < 1e-8
    se_g = (1.0 + gamma) / math.sqrt(n)
    assert fit.gamma_hat == pytest.approx(gamma, abs=5 * se_g)
    assert fit.scale_hat == pytest.approx(sigma, rel=6 * se_g)


def test_fit_scale_equivariance():
    rng = np.random.default_rng(3)
    x = stats.genpareto.rvs(c=0.25, scale=1.0, size=2000, random_state=rng)
    lam = 3.7
    a = fit_gp_excesses(x)
    b = fit_gp_excesses(lam * x)
    assert b.gamma_hat == pytest.approx(a.gamma_hat, abs=1e-9)
    assert b.scale_hat == pytest.approx(lam * a.scale_hat, rel=1e-9)


def _recording_newton(monkeypatch) -> list:
    """Patch ``_newton`` to append the end point of each of its runs to the
    returned list."""
    ends = []
    newton = gp_mle_module._newton

    def recorded(*args):
        ends.append(newton(*args))
        return ends[-1]

    monkeypatch.setattr(gp_mle_module, "_newton", recorded)
    return ends


def _start_the_scale_at_the_mean_excess(patch: pytest.MonkeyPatch) -> None:
    """Patch the first start's log-scale to log mean(x), the earlier start;
    the second start stays."""
    start = gp_mle_module._start_values
    patch.setattr(gp_mle_module, "_start_values", lambda x: (
        (start(x)[0][0], float(np.log(np.mean(x)))), start(x)[1]))


def _heavy_tailed_samples():
    return {(gamma, n, seed): stats.genpareto.rvs(c=gamma, scale=1.0, size=n,
                                                   random_state=np.random.default_rng(seed))
            for gamma in (3.0, 4.0, 6.0) for n in (50, 100, 200, 500, 1000)
            for seed in range(10)}


def test_heavy_tailed_fits_converge_by_newton_alone(monkeypatch):
    # the median-matched scale start lies in Newton's basin; the mean excess,
    # which the largest values dominate here, sent Newton to the shape bound
    ends = _recording_newton(monkeypatch)
    for key, x in _heavy_tailed_samples().items():
        ends.clear()
        fit = fit_gp_excesses(x)
        assert len(ends) == 1, key
        assert fit.converged and fit.score_norm < 1e-8, key


def test_second_start_reaches_the_default_fit(monkeypatch):
    # With the log mean excess as the first scale start, Newton stalls on
    # many heavy-tailed samples and the fit restarts from the second start.
    # Where the default fit converges, the restarted one reaches the same
    # maximum: both meet the score tolerance, so on the quadratic model they
    # lie within 2 tol / lambda_min(-H) of each other.  Where the default
    # fit fails, the forced one fails too.
    samples = _heavy_tailed_samples()
    samples.update({(gamma, n, 3): stats.genpareto.rvs(
        c=gamma, scale=1.0, size=n, random_state=np.random.default_rng(3))
        for gamma in (-0.3, 0.0, 0.25, 1.0) for n in (15, 50, 200, 2000)})

    def fit_all():
        fits = {}
        for key, x in samples.items():
            try:
                fits[key] = fit_gp_excesses(x)
            except FitConvergenceError:
                fits[key] = None
        return fits

    default = fit_all()
    _start_the_scale_at_the_mean_excess(monkeypatch)
    ends = _recording_newton(monkeypatch)
    restarted = 0
    for key, fit in default.items():
        ends.clear()
        try:
            forced = fit_gp_excesses(samples[key])
        except FitConvergenceError:
            forced = None
        if fit is None:
            assert forced is None, key
            continue
        assert forced is not None, key
        if len(ends) == 1:
            continue
        restarted += 1
        assert forced.converged and forced.score_norm < 1e-8, key
        _, _, _, h_gg, h_gt, h_tt = _loglik_terms(
            fit.gamma_hat, math.log(fit.scale_hat), samples[key])
        reach = 2 * gp_mle_module._SCORE_TOL / np.linalg.eigvalsh(
            -np.array([[h_gg, h_gt], [h_gt, h_tt]])).min()
        assert forced.gamma_hat == pytest.approx(fit.gamma_hat, abs=reach), key
        assert forced.scale_hat == pytest.approx(fit.scale_hat, rel=reach), key
        assert forced.loglik == pytest.approx(fit.loglik, rel=1e-12), key
    assert None in default.values() and restarted >= 40


def _profile_scan_maximum(x: np.ndarray) -> float:
    """Best log-likelihood on a (gamma, log sigma) grid over the admissible
    shapes: at each shape, log sigma runs from the support edge (or far
    below the smallest excess) to far above the largest."""
    best = -math.inf
    top = math.log(x.max())
    for g in np.concatenate([np.linspace(gp_mle_module.GAMMA_MIN, 1.0, 300),
                             np.linspace(1.0, gp_mle_module.GAMMA_MAX, 100)[1:]]):
        low = math.log(-g * x.max()) + 1e-9 if g < 0 else math.log(x.min()) - 8.0
        taus = np.linspace(low, top + 8.0, 400)
        z = x[None, :] / np.exp(taus)[:, None]
        if abs(g) < 1e-12:
            ll = -x.size * taus - z.sum(axis=1)
        else:
            ll = -x.size * taus - (1.0 + 1.0 / g) * np.log1p(g * z).sum(axis=1)
        best = max(best, float(ll.max()))
    return best


@pytest.mark.parametrize("gamma,n,seed", [
    (-0.45, 50, 0), (-0.45, 200, 24), (4.0, 10, 1), (6.0, 10, 10),
    (-0.49, 30, 33), (-0.49, 100, 60), (-0.45, 30, 36), (-0.4, 30, 32), (-0.4, 30, 58),
    (-0.3, 10, 47), (-0.3, 10, 50), (0.1, 10, 41), (0.1, 10, 43), (2.0, 10, 60),
    (6.0, 12, 35)])
def test_second_start_reaches_the_global_maximum(gamma, n, seed, monkeypatch):
    # Newton stalls from the first start on these samples; the fit from the
    # second start is the global maximum, not a local one at the bound
    x = stats.genpareto.rvs(c=gamma, scale=1.0, size=n,
                            random_state=np.random.default_rng(seed))
    ends = _recording_newton(monkeypatch)
    fit = fit_gp_excesses(x)
    assert len(ends) == 2
    assert fit.converged and fit.score_norm < 1e-8
    best = _profile_scan_maximum(x)
    assert fit.loglik >= best - 1e-10 * (1.0 + abs(best))


def test_a_stalled_end_above_a_local_maximum_is_a_boundary_failure(monkeypatch):
    # On this tied comonotone tail Newton stalls at the shape bound from the
    # first start, and from the second it converges to an interior local
    # maximum below that end: the fit reports the bound, not the local maximum
    p = simulate_panel(SimSpec(n=2000, m=4, gamma=0.5, dependence="comonotone", seed=1), 32)
    x = np.asarray(TailAtK.of(p, 25).excesses)
    ends = _recording_newton(monkeypatch)
    with pytest.raises(FitConvergenceError, match="shape boundary"):
        fit_gp_excesses(x)
    (g1, _, ll1, _, _, ok1), (g2, _, ll2, _, _, ok2) = ends
    assert not ok1 and g1 < gp_mle_module.GAMMA_MIN + 1e-4
    assert ok2 and g2 > 0.5 and ll2 < ll1 and ll2 < _profile_scan_maximum(x)


def _termwise_terms(g, tau, x):
    """The earlier termwise log-likelihood, score vector and Hessian matrix,
    one array expression and one sum per term."""
    sigma = math.exp(tau)
    z = x / sigma
    w = 1.0 + g * z
    if np.any(w <= 0):
        return None
    B = z / w
    if abs(g) < gp_mle_module._SMALL_GAMMA:
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
        h_gg = np.sum(2.0 * B / g ** 2 - 2.0 * A / g ** 3 + (1.0 + 1.0 / g) * B * B)
    s_t = np.sum(-1.0 + (1.0 + g) * B)
    h_tt = np.sum(-(1.0 + g) * B / w)
    h_gt = np.sum(B - (1.0 + g) * B * B)
    return float(ll), np.array([s_g, s_t]), np.array([[h_gg, h_gt], [h_gt, h_tt]])


def _linalg_newton(g, tau, x, first, last, trace):
    """The earlier damped Newton: ``_newton`` on the termwise terms, with
    eigvalsh for definiteness, solve for the step and norm for the score."""
    terms = _termwise_terms(g, tau, x)
    if terms is None:
        return g, tau, -math.inf, math.inf, first - 1, False
    ll, score, hess = terms
    for it in range(first, last + 1):
        norm = float(np.linalg.norm(score))
        trace.append({"iter": it, "gamma": g, "log_scale": tau,
                      "loglik": ll, "score_norm": norm})
        eig = np.linalg.eigvalsh(hess)
        if norm < gp_mle_module._SCORE_TOL and np.all(eig < 0):
            return g, tau, ll, norm, it, True
        if np.all(eig < 0):
            step = np.linalg.solve(hess, -score)
        else:
            step = score / max(1.0, np.linalg.norm(score))
        alpha = 1.0
        accepted = False
        while alpha > 1e-14:
            g_new = g + alpha * step[0]
            tau_new = tau + alpha * step[1]
            if gp_mle_module.GAMMA_MIN <= g_new <= gp_mle_module.GAMMA_MAX:
                cand = _termwise_terms(g_new, tau_new, x)
                if cand is not None and cand[0] >= ll - 1e-10 * (1 + abs(ll)):
                    g, tau, (ll, score, hess) = g_new, tau_new, cand
                    accepted = True
                    break
            alpha /= 2.0
        if not accepted:
            break
    return g, tau, ll, norm, it, False


def _fits_by(newton, run):
    """``run()`` with ``newton`` as the Newton pass, started where these fits
    were first compared (the log mean excess for the scale); its value and
    the (excesses, fit) of every fit that returned.

    The start is pinned because near gamma = 0 the score carries rounding
    noise of about 1e-10, so the two passes can part by about 1e-12 in the
    shape on a new trajectory: from the median-matched start they do at
    k = 180 of the gamma path (1.24e-12) and nowhere else."""
    fits = []
    fit = gp_mle_module.fit_gp_excesses

    def recorded(x, **kw):
        fits.append((np.asarray(x), fit(x, **kw)))
        return fits[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gp_mle_module, "fit_gp_excesses", recorded)
        patch.setattr(gp_mle_module, "_newton", newton)
        _start_the_scale_at_the_mean_excess(patch)
        return run(), fits


_MLE_SPEC = SimSpec(n=5000, m=4, gamma=0.1, dependence="logistic", alpha=0.6, seed=1)


@pytest.mark.parametrize("case", ["mc mle replications", "gamma path"])
def test_four_sum_newton_fits_as_the_linalg_newton(case):
    """On the first 40 replications of the benchmark's mle spec, and along a
    small panel's gamma path: the same iterations and method, shape and
    relative scale within 1e-12, and a long-double score norm under the
    1e-8 stopping tolerance at every fit."""
    if case == "gamma path":
        p = simulate_panel(SimSpec(n=1500, m=3, gamma=0.1, dependence="logistic",
                                   alpha=0.6, seed=5))

        def run():
            return gamma_path(p, range(20, 1001, 20))
    else:
        def run():
            return [fit_gp_pml(simulate_panel(_MLE_SPEC, rep), 250) for rep in range(40)]
    old_out, old = _fits_by(_linalg_newton, run)
    new_out, new = _fits_by(gp_mle_module._newton, run)
    if case == "gamma path":
        assert [(r.k, r.error) for r in new_out] == [(r.k, r.error) for r in old_out]
    assert len(new) == len(old)
    for (x, a), (_, b) in zip(old, new):
        assert (b.iterations, b.method) == (a.iterations, a.method)
        assert abs(b.gamma_hat - a.gamma_hat) <= 1e-12
        assert abs(b.scale_hat / a.scale_hat - 1.0) <= 1e-12
        terms = _reference_terms(b.gamma_hat, math.log(b.scale_hat), x)
        assert math.hypot(float(terms[1][0]), float(terms[2][0])) < 1e-8


def test_fit_boundary_shape_raises_with_trace():
    # uniform spacing has true shape -1, far below the admissible region
    x = np.linspace(0.01, 1.0, 50)
    with pytest.raises(FitConvergenceError) as exc:
        fit_gp_excesses(x)
    trace = exc.value.trace
    assert len(trace) > 0
    assert {"iter", "gamma", "log_scale", "loglik", "score_norm"} <= set(trace[0])


def test_fit_input_validation():
    with pytest.raises(InsufficientDataError):
        fit_gp_excesses(np.ones(5) + np.arange(5))
    with pytest.raises(DomainError):
        fit_gp_excesses(np.concatenate([np.zeros(2), np.arange(1.0, 12.0)]))
    with pytest.raises(RangeError):
        fit_gp_excesses(np.ones((4, 4)))
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="finite"):
            fit_gp_excesses(np.append(np.arange(1.0, 12.0), bad))


def test_fit_gp_pml_drops_threshold_ties():
    small = np.linspace(0.1, 5.0, 10)
    large = 10.0 * 1.3 ** np.arange(1, 15)
    vals = np.concatenate([small, [10.0, 10.0, 10.0], large])
    p = make_panel(vals.reshape(-1, 1))
    fit = fit_gp_pml(p, k=16)
    # threshold is the tied value 10.0: two of the top sixteen excesses vanish
    assert fit.dropped_ties == 2
    assert fit.n_excesses == 14
    assert fit.k == 16
    assert fit.converged


def test_fit_gp_pml_needs_k_at_least_ten(small_panel):
    with pytest.raises(InsufficientDataError):
        fit_gp_pml(small_panel, k=4)


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------


def test_fisher_inverse_identity():
    for g in [-0.45, -0.3, 0.0, 0.25, 1.0, 2.0, 5.0, 10.0]:
        prod = fisher_info(g) @ fisher_info_inverse(g)
        assert np.allclose(prod, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("gamma", [-0.3, 0.4])
def test_fisher_is_expected_score_outer_product(gamma):
    """Integrate score x score' against the GP density at unit scale."""
    hi = -1.0 / gamma if gamma < 0 else np.inf

    def element(a, b):
        def f(x):
            s = _loglik_terms(gamma, 0.0, np.array([x]))[1:3]
            return s[a] * s[b] * stats.genpareto.pdf(x, c=gamma)
        val, err = integrate.quad(f, 0, hi, limit=200)
        return val

    want = fisher_info(gamma)
    for a in range(2):
        for b in range(2):
            assert element(a, b) == pytest.approx(want[a, b], abs=1e-8)


def test_fisher_domain():
    # a NaN shape passed `gamma <= -0.5` and gave a NaN matrix; inf gave zeros
    for fn in (fisher_info, fisher_info_inverse):
        for bad in (-0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="shape must be finite and exceed -1/2"):
                fn(bad)


# ---------------------------------------------------------------------------
# limiting score covariance and the sandwich
# ---------------------------------------------------------------------------


def _min_edge(c=1.0):
    """Moment and corner of the aggregate surface c min(s, t), whose edge c v
    has both equal to c.  c = 1 is two comonotone stations (1/2 min on each
    ordered pair)."""
    return {"moment": c, "corner": c}


def _same_station_coeffs(g):
    """The classic one-station score covariance: (shape, shape), (scale,
    scale) and (shape, scale) entries per unit of tail share."""
    a = (2.0 + 6.0 * g + 5.0 * g * g) / ((1.0 + g) ** 2 * (1.0 + 2.0 * g) ** 2)
    b = ((1.0 + g) / (1.0 + 2.0 * g)) ** 2
    c = (1.0 + g) / (1.0 + 2.0 * g) ** 2
    return a, b, c


@pytest.mark.parametrize("gamma", GAMMA_GRID)
def test_cross_taus_closed_form_under_complete_dependence(gamma):
    """With X(s,t) = C min(s,t) every cross integral equals the same-station
    coefficient scaled by C."""
    a, b, c = _same_station_coeffs(gamma)
    (t11, t12), (_, t22) = sigma_gamma0(gamma, [0.0, 0.0], **_min_edge(0.5))[0]
    assert t11 == pytest.approx(0.5 * a, rel=1e-12)
    assert t22 == pytest.approx(0.5 * b, rel=1e-12)
    assert t12 == pytest.approx(0.5 * c, rel=1e-12)


def test_cross_taus_vanish_without_dependence():
    dependent, _ = sigma_gamma0(0.3, [0.5, 0.5], moment=0.0, corner=0.0)
    assert np.array_equal(dependent, sigma_gamma0(0.3, [0.5, 0.5])[0])


@pytest.mark.parametrize("gamma", [-0.2, 0.25])
def test_sigma_closed_form_matches_direct_integration(gamma):
    """The edge closed form against the defining integrals

        int int w_a(s) w_b(t) X(s,t) - (int w_a(s) X(s,1)) int q_b
            - int q_a (int w_b(t) X(1,t)) + int q_a int q_b X(1,1)

    evaluated by adaptive quadrature on a logistic surface, the square split
    at its diagonal kink."""
    g = gamma
    X = lambda s, t: s + t - (s ** (1 / 0.6) + t ** (1 / 0.6)) ** 0.6
    assert X(0.3, 0.8) == pytest.approx(logistic_tail_copula(0.6)(0.3, 0.8), rel=1e-15)
    w = {"F": lambda s: (1.0 / s - (1.0 + g) * s ** (g - 1.0)) / g,
         "P": lambda s: (1.0 + g) * s ** (g - 1.0)}
    iq = {"F": -g / ((1.0 + g) * (1.0 + 2.0 * g)), "P": (1.0 + g) / (1.0 + 2.0 * g)}
    opts = dict(epsabs=1e-10, epsrel=1e-10)

    def tau(a, b):
        f = lambda s, t: w[a](s) * w[b](t) * X(s, t)
        two_d = (integrate.dblquad(f, 0, 1, 0, lambda t: t, **opts)[0]
                 + integrate.dblquad(f, 0, 1, lambda t: t, 1, **opts)[0])
        edge_a = integrate.quad(lambda s: w[a](s) * X(s, 1.0), 0, 1, **opts)[0]
        edge_b = integrate.quad(lambda t: w[b](t) * X(1.0, t), 0, 1, **opts)[0]
        return two_d - edge_a * iq[b] - iq[a] * edge_b + iq[a] * iq[b] * X(1.0, 1.0)

    moment = integrate.quad(lambda v: X(v, 1.0) / v, 0, 1, epsabs=1e-13, epsrel=1e-13)[0]
    got = _score_covariance(g, moment, X(1.0, 1.0))
    assert got[0, 0] == pytest.approx(tau("F", "F"), rel=1e-9)
    assert got[1, 1] == pytest.approx(tau("P", "P"), rel=1e-9)
    assert got[0, 1] == pytest.approx(tau("F", "P"), rel=1e-9)
    assert got[1, 0] == got[0, 1]


def test_sigma_continuous_through_zero_shape():
    """Nothing in the closed form divides by gamma: across +-1e-7 (where the
    score weights used to switch to their series) and through 0 the entries
    move by their first-order change only."""
    edge = {"moment": 2.5 / 1.3, "corner": 2.5}  # of the edge 2.5 v^1.3
    at = lambda g: sigma_gamma0(g, [0.3, 0.7], **edge)[0]
    slope = (at(1e-4) - at(-1e-4)) / 2e-4
    for g in (-1.01e-7, -1e-7, -0.99e-7, 0.0, 0.99e-7, 1e-7, 1.01e-7):
        assert np.allclose(at(g), at(0.0) + g * slope, rtol=1e-12, atol=1e-13)
    with pytest.raises(DomainError):
        sigma_gamma0(-0.5, [0.3, 0.7], **edge)


@pytest.mark.parametrize("gamma", [-0.43, -0.1, 0.0, 0.25, 1.0])
def test_sandwich_single_station_closed_form(gamma):
    """For one station the sandwich diagonal is ((1+g)^2, 1 + (1+g)^2)."""
    sigma, qe = sigma_gamma0(gamma, [1.0])
    assert qe == 0.0
    inv = fisher_info_inverse(gamma)
    sandwich = inv @ sigma @ inv
    gp1 = 1.0 + gamma
    assert sandwich[0, 0] == pytest.approx(gp1**2, rel=1e-12)
    assert sandwich[1, 1] == pytest.approx(1.0 + gp1**2, rel=1e-12)
    assert sandwich[0, 1] == pytest.approx(sandwich[1, 0], rel=1e-12)


@pytest.mark.parametrize("gamma", [-0.43, 0.0, 0.25, 1.0])
def test_sigma_comonotone_duplicates_double_the_single_station(gamma):
    """Duplicating a station under complete dependence doubles the score
    covariance: same-station terms contribute C1 + C2 = 1 and each ordered
    cross pair adds the same coefficients times min's share 1/2.  With m
    copies each of the m (m - 1) ordered pairs adds min's share 1/m, so
    X = (m - 1) min and the covariance is m times the single station's."""
    single, _ = sigma_gamma0(gamma, [1.0])
    double, _ = sigma_gamma0(gamma, [0.5, 0.5], **_min_edge())
    assert np.allclose(double, 2.0 * single, atol=1e-9)
    quadruple, _ = sigma_gamma0(gamma, [0.25] * 4, **_min_edge(3.0))
    assert np.allclose(quadruple, 4.0 * single, atol=1e-9)


def test_sigma_depends_on_stations_only_through_shares_and_edge():
    """The station count enters only through the tail shares' sum and the
    aggregate edge's moment and corner, so its cost does not grow with the
    number of pairs."""
    edge = {"moment": 0.7 / 1.2, "corner": 0.7}  # of the edge 0.7 v^1.2
    two, _ = sigma_gamma0(0.25, [0.5] * 2, **edge)
    many, _ = sigma_gamma0(0.25, [1.0 / 32] * 32, **edge)
    assert np.allclose(two, many, rtol=1e-14, atol=0.0)


def test_sigma_independent_stations_match_single():
    one, _ = sigma_gamma0(0.25, [1.0])
    two, _ = sigma_gamma0(0.25, [0.5, 0.5])
    assert np.array_equal(one, two)


def test_sigma_validation():
    for bad in (-0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="shape must be finite and exceed -1/2"):
            sigma_gamma0(bad, [1.0])
    with pytest.raises(RangeError):
        sigma_gamma0(0.2, [])
    with pytest.raises(RangeError):
        sigma_gamma0(0.2, [-0.1, 1.1])
    for bad in ({"moment": -0.1}, {"corner": -1e-300}):
        with pytest.raises(RangeError):
            sigma_gamma0(0.2, [0.5, 0.5], **bad)
    with pytest.raises(TypeError):
        sigma_gamma0(0.2, [0.5, 0.5], 1.0, 0.5)  # the moment and corner are keyword-only


@pytest.mark.parametrize("bad", [
    {"c1": [math.nan, 0.5]}, {"c1": [math.inf, 0.5]}, {"c1": [0.5, -math.inf]},
    {"moment": math.nan}, {"moment": math.inf}, {"corner": math.nan},
    {"corner": math.inf},
])
def test_sigma_rejects_non_finite_inputs(bad):
    """A NaN or infinite share, moment or corner used to come back as a NaN
    or infinite matrix without an error."""
    args = {"c1": [0.5, 0.5], **bad}
    with pytest.raises(RangeError, match="finite"):
        sigma_gamma0(0.2, args.pop("c1"), **args)


def test_sigma_near_boundary_is_exact():
    """At gamma = -0.49 the entries are of order 1/(1 + 2 gamma)^2 = 2500, and
    the comonotone doubling still holds to rounding."""
    single, _ = sigma_gamma0(-0.49, [1.0])
    double, _ = sigma_gamma0(-0.49, [0.5, 0.5], **_min_edge())
    assert single[1, 1] == pytest.approx((0.51 / 0.02) ** 2, rel=1e-12)
    assert np.allclose(double, 2.0 * single, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("gamma", [-0.3, 0.0, 0.1, 0.5, 1.2])
@pytest.mark.parametrize("moment", [0.0, 1.0, 10.0])
def test_shape_variance_ignores_the_moment(gamma, moment):
    """With I^-1 = [[u^2, -u], [-u, 2u]], u = 1 + gamma, the moment terms
    cancel in the (shape, shape) entry of I^-1 Sigma I^-1, which leaves
    u^2 (sum c1 + corner)."""
    c1, corner = [0.2, 0.3, 0.5], 0.8
    inv = fisher_info_inverse(gamma)
    sigma, _ = sigma_gamma0(gamma, c1, moment=moment, corner=corner)
    assert (inv @ sigma @ inv)[0, 0] == pytest.approx((1.0 + gamma) ** 2 * 1.8, rel=1e-12)


# ---------------------------------------------------------------------------
# sandwich from a fitted panel
# ---------------------------------------------------------------------------


def test_asymptotic_cov_from_panel():
    rng = np.random.default_rng(99)
    n = 4000
    vals = rng.uniform(size=(n, 2)) ** -0.5  # Pareto tail, shape 1/2
    p = make_panel(vals)
    fit = fit_gp_pml(p, k=300)
    cov = mle_asymptotic_cov(fit, p)
    assert isinstance(cov, AsymptoticCov)
    m = cov.matrix
    assert m.shape == (2, 2)
    assert m[0, 1] == pytest.approx(m[1, 0], rel=1e-12)
    assert np.all(np.linalg.eigvalsh(m) > 0)
    ref = (1.0 + fit.gamma_hat) / math.sqrt(fit.k)
    assert 0.5 * ref < cov.se_gamma < 2.0 * ref
    dep = EmpiricalTailDependence(p, fit.k)
    assert np.array_equal(cov.sigma, sigma_gamma0(fit.gamma_hat, dep.c1, moment=dep.moment,
                                                  corner=dep.corner)[0])
    with pytest.raises(ValueError):
        cov.matrix[0, 0] = 0.0


def test_asymptotic_cov_analytic_inputs_bypass_estimation():
    """Analytic inputs go to sigma_gamma0 and the inverse Fisher information
    directly.  A one-station panel without ties has share exactly 1 and a
    moment and corner of exactly 0, so its estimated sandwich is the same to
    the bit."""
    rng = np.random.default_rng(5)
    vals = rng.uniform(size=(3000, 1)) ** -0.25
    p = make_panel(vals)
    fit = fit_gp_pml(p, k=250)
    inv = fisher_info_inverse(fit.gamma_hat)
    analytic = inv @ sigma_gamma0(fit.gamma_hat, [1.0])[0] @ inv
    gp1 = 1.0 + fit.gamma_hat
    assert analytic[0, 0] == pytest.approx(gp1**2, rel=1e-12)
    assert analytic[1, 1] == pytest.approx(1.0 + gp1**2, rel=1e-12)
    dep = EmpiricalTailDependence(p, fit.k)
    assert (dep.moment, dep.corner) == (0.0, 0.0)
    cov = mle_asymptotic_cov(fit, p)
    assert np.array_equal(cov.matrix, analytic)
    assert cov.se_gamma == pytest.approx(gp1 / math.sqrt(fit.k), rel=1e-12)


@pytest.mark.parametrize("holed", [False, True])
def test_se_gamma_is_the_count_form(holed):
    """se_gamma = (1 + gamma_hat) sqrt(sum_d N_d^2) / k, with N_d the number
    of stations exceeding on exceedance day d: a day on which N stations
    exceed counts N^2 times."""
    spec = SimSpec(n=3000, m=4, gamma=0.1, dependence="logistic", alpha=0.6)
    p = simulate_panel(spec, 3)
    if holed:
        holes = np.random.default_rng(4).random(p.values.shape) < 0.05
        holes[:900, 0] = True
        p = make_panel(p.values, missing=holes)
    fit = fit_gp_pml(p, 300)
    N = TailAtK(p, fit.k).hits.sum(axis=1)
    want = (1.0 + fit.gamma_hat) * math.sqrt(N @ N) / fit.k
    got = mle_asymptotic_cov(fit, p).se_gamma
    assert abs(got - want) <= 4 * np.spacing(want)
    assert N.max() > 1


def test_asymptotic_cov_default_flags_succeed_on_simulated_panels():
    """Default arguments used to stop with a quadrature-tolerance error on
    about half of these panels (n = 5000, m = 4, k = 250)."""
    spec = SimSpec(n=5000, m=4, gamma=0.1, dependence="logistic", alpha=0.6)
    for rep in range(20):
        p = simulate_panel(spec, rep)
        fit = fit_gp_pml(p, 250)
        cov = mle_asymptotic_cov(fit, p)
        assert np.all(np.isfinite(cov.matrix))
        assert np.all(np.linalg.eigvalsh(cov.sigma) > 0)
        # positive dependence can only widen the pooled fit's spread
        assert cov.se_gamma >= (1.0 + fit.gamma_hat) / math.sqrt(fit.k)


def test_gamma_path_records_failures_and_continues():
    rng = np.random.default_rng(21)
    vals = rng.uniform(size=(500, 1)) ** -0.3
    p = make_panel(vals)
    rows = gamma_path(p, [5, 50, 120, 10_000])
    assert [r.k for r in rows] == [5, 50, 120, 10_000]
    assert rows[0].error is not None and not rows[0].converged  # k too small
    assert rows[3].error is not None  # k beyond the sample
    for r in rows[1:3]:
        assert r.converged and r.error is None
        assert r.se == pytest.approx((1.0 + r.gamma) / math.sqrt(r.k), rel=1e-12)
