"""GARCH-family estimation, a one-step stepper, realized volatility, HAR-VPIN.

The conditional variance h_t = a0 + sum_i a_i e_{t-i}^2 + lam e_{t-1}^2
1[e_{t-1}<0] + sum_j g_j h_{t-j} is computed here and nowhere else, by two
implementations with different jobs:

- In sample, `_variance_path` filters a whole return vector at once. The
  recursion is linear AR in h, so the variance path and, in
  `garch_loglik`, every partial derivative of it come from the same IIR
  filter, which keeps the quasi-likelihood and its analytic gradient exact
  and fast. `fit_garch` and `garch_loglik` both call it, and both read the
  likelihood from its output through `_quasi_loglik`.
- Out of sample, `GarchState` advances a fitted model one return at a time
  in Python floats; the backtest engine steps it once per bar.

The optimizer works on transformed parameters (log variance intercept,
logistic persistence split across terms) so the positivity and stationarity
constraints hold by construction; the leverage coefficient is unconstrained
and guarded by a feasibility check on h.

Presample convention: h is seeded with the sample variance of the input
(assigned to h_0 and used for every h_{t-j} before the sample), presample
shocks are zero, and the AR(1) mean uses the sample mean as the price-change
before the first observation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter, lfiltic
from scipy.special import expit

from .errors import DataError, NonConvergenceError
from .marketdata import BarSeries, session_log_returns
from .stats import OlsFit, ols

LOG_2PI = math.log(2.0 * math.pi)

MEAN_PARAM_COUNT = {"zero": 0, "constant": 1, "ar1": 2}
MAX_FIT_ITER = 500


# ---------------------------------------------------------------------------
# Specification and fit containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GarchSpec:
    """Orders and options: p ARCH terms, q GARCH terms, optional leverage."""

    p: int = 1
    q: int = 1
    leverage: bool = False
    mean_model: str = "constant"

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0 or self.p + self.q < 1:
            raise DataError(f"need p + q >= 1, got p={self.p}, q={self.q}")
        if self.mean_model not in MEAN_PARAM_COUNT:
            raise DataError(f"unknown mean model {self.mean_model!r}")
        if self.leverage and self.p < 1:
            raise DataError("the leverage term requires p >= 1")

    @property
    def n_mean(self) -> int:
        return MEAN_PARAM_COUNT[self.mean_model]

    @property
    def n_params(self) -> int:
        return self.n_mean + 1 + self.p + int(self.leverage) + self.q

    def param_names(self) -> tuple[str, ...]:
        names = {"zero": [], "constant": ["mu"], "ar1": ["mu", "phi"]}[self.mean_model]
        names = names + ["omega"] + [f"alpha{i}" for i in range(1, self.p + 1)]
        if self.leverage:
            names.append("lambda")
        names += [f"gamma{j}" for j in range(1, self.q + 1)]
        return tuple(names)


@dataclass(frozen=True)
class GarchFit:
    spec: GarchSpec
    omega: float
    alphas: np.ndarray
    gammas: np.ndarray
    leverage_coef: float
    mean_params: np.ndarray
    cond_variance: np.ndarray
    residuals: np.ndarray
    log_likelihood: float
    seed_variance: float
    last_return: float
    iterations: int

    def __post_init__(self) -> None:
        for name in ("alphas", "gammas", "mean_params", "cond_variance",
                     "residuals"):
            object.__setattr__(self, name,
                               np.ascontiguousarray(getattr(self, name), dtype=np.float64))
        if not self.omega > 0:
            raise DataError("omega must be positive")
        if np.any(self.alphas < 0) or np.any(self.gammas < 0):
            raise DataError("ARCH/GARCH coefficients must be non-negative")
        if not self.persistence < 1.0:
            raise DataError(f"persistence {self.persistence} violates stationarity")
        if np.any(self.cond_variance <= 0):
            raise DataError("conditional variances must be positive")

    @property
    def persistence(self) -> float:
        return float(self.alphas.sum() + self.gammas.sum())

    def theta(self) -> np.ndarray:
        """Natural parameter vector in the garch_loglik layout."""
        parts = [self.mean_params, [self.omega], self.alphas]
        if self.spec.leverage:
            parts.append([self.leverage_coef])
        parts.append(self.gammas)
        return np.concatenate([np.atleast_1d(np.asarray(p, float)) for p in parts])

    def parameter_table(self, r: np.ndarray) -> list[tuple[str, float, float]]:
        """(name, estimate, Hessian standard error) on the fitted returns `r`."""
        x = np.asarray(r, dtype=np.float64)
        if x.shape != self.cond_variance.shape:
            raise DataError(f"the fit saw {self.cond_variance.shape[0]} returns, "
                            f"got {x.size}")
        theta = self.theta()
        se = _hessian_std_errors(theta, x, self.spec, self.seed_variance,
                                 float(np.mean(x)))
        return [(n, float(v), float(s))
                for n, v, s in zip(self.spec.param_names(), theta, se)]


@dataclass(frozen=True)
class HarVpinFit:
    beta0: float
    betaF: float
    betaH: float
    betaD: float
    betaV: float
    betaVPIN: float
    horizon: int
    diagnostics: OlsFit


# ---------------------------------------------------------------------------
# Likelihood with analytic gradient (natural parameters)
# ---------------------------------------------------------------------------


def _lag(x: np.ndarray, k: int, fill: float = 0.0) -> np.ndarray:
    out = np.empty_like(x)
    out[:k] = fill
    out[k:] = x[:-k]
    return out


def _mean_residuals(theta_mean: np.ndarray, r: np.ndarray, mean_model: str,
                    r_prev: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Residuals and their derivatives w.r.t. each mean parameter."""
    if mean_model == "zero":
        return r.copy(), []
    if mean_model == "constant":
        return r - theta_mean[0], [np.full(r.shape[0], -1.0)]
    rlag = np.concatenate([[r_prev], r[:-1]])
    eps = r - theta_mean[0] - theta_mean[1] * rlag
    return eps, [np.full(r.shape[0], -1.0), -rlag]


def _coefficients(theta: np.ndarray, spec: GarchSpec):
    """(omega, alphas, lambda, gammas) from the natural parameter vector."""
    nm, p = spec.n_mean, spec.p
    lam = float(theta[nm + 1 + p]) if spec.leverage else 0.0
    return (float(theta[nm]), theta[nm + 1:nm + 1 + p], lam,
            theta[nm + 1 + p + int(spec.leverage):])


def _variance_path(theta: np.ndarray, x: np.ndarray, spec: GarchSpec,
                   seed_var: float, r_prev: float):
    """The in-sample filter at theta.

    Returns h, the residuals, the residuals' derivatives with respect to each
    mean parameter, and the AR polynomial [1, -gamma_1..q] of h.
    """
    omega, alphas, lam, gammas = _coefficients(theta, spec)
    eps, deps = _mean_residuals(theta[:spec.n_mean], x, spec.mean_model, r_prev)
    e2 = eps * eps
    forcing = np.full(x.shape[0], omega)
    for i in range(1, spec.p + 1):
        forcing += alphas[i - 1] * _lag(e2, i)
    if spec.leverage:
        forcing += lam * _lag(e2 * (eps < 0.0), 1)
    a_poly = np.concatenate([[1.0], -gammas])
    # recursion runs from t=1; position 0 is the (parameter-free) seed
    h = np.empty(x.shape[0])
    h[0] = seed_var
    if spec.q == 0:
        h[1:] = forcing[1:]
    else:
        zi = lfiltic([1.0], a_poly, np.full(spec.q, seed_var))
        h[1:] = lfilter([1.0], a_poly, forcing[1:], zi=zi)[0]
    return h, eps, deps, a_poly


def _quasi_loglik(h: np.ndarray, eps: np.ndarray) -> float:
    """Gaussian quasi log-likelihood of residuals eps with variances h; -inf
    when some h_t is not positive and finite."""
    if not np.all(np.isfinite(h)) or np.any(h <= 0.0):
        return -math.inf
    return -0.5 * float(np.sum(LOG_2PI + np.log(h) + eps * eps / h))


def garch_loglik(theta: np.ndarray, r: np.ndarray, spec: GarchSpec,
                 seed_var: float | None = None,
                 r_prev: float | None = None) -> tuple[float, np.ndarray]:
    """Gaussian quasi log-likelihood and its gradient in natural parameters.

    Layout: [mean params..., omega, alpha_1..p, (lambda,) gamma_1..q].
    Infeasible points (any h_t <= 0) return -inf with a zero gradient.
    """
    x = np.asarray(r, dtype=np.float64)
    n = x.shape[0]
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape[0] != spec.n_params:
        raise DataError(f"expected {spec.n_params} parameters, got {theta.shape[0]}")
    if seed_var is None:
        seed_var = float(np.var(x))
    if r_prev is None:
        r_prev = float(np.mean(x))
    h, eps, deps, a_poly = _variance_path(theta, x, spec, seed_var, r_prev)
    ll = _quasi_loglik(h, eps)
    if ll == -math.inf:
        return ll, np.zeros(spec.n_params)

    nm, p, q = spec.n_mean, spec.p, spec.q
    _, alphas, lam, _ = _coefficients(theta, spec)
    e2 = eps * eps
    neg = eps < 0.0
    dldh = 0.5 * (e2 / h - 1.0) / h
    dlde = -eps / h

    def ar_filter(src: np.ndarray) -> np.ndarray:
        # dh/dtheta: the same recursion from a zero seed
        out = np.empty(n)
        out[0] = 0.0
        out[1:] = src[1:] if q == 0 else lfilter([1.0], a_poly, src[1:])
        return out

    grad = np.empty(spec.n_params)
    for m, dm in enumerate(deps):
        src = np.zeros(n)
        for i in range(1, p + 1):
            src += alphas[i - 1] * _lag(2.0 * eps * dm, i)
        if spec.leverage:
            src += lam * _lag(2.0 * eps * dm * neg, 1)
        grad[m] = float(dldh @ ar_filter(src)) + float(dlde @ dm)
    grad[nm] = float(dldh @ ar_filter(np.ones(n)))
    for i in range(1, p + 1):
        grad[nm + i] = float(dldh @ ar_filter(_lag(e2, i)))
    off = nm + 1 + p
    if spec.leverage:
        grad[off] = float(dldh @ ar_filter(_lag(e2 * neg, 1)))
        off += 1
    for j in range(1, q + 1):
        grad[off + j - 1] = float(dldh @ ar_filter(_lag(h, j, fill=seed_var)))
    return ll, grad


# ---------------------------------------------------------------------------
# Transformed-space optimization
# ---------------------------------------------------------------------------


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def _raw_to_natural(raw: np.ndarray, spec: GarchSpec):
    nm, p, q = spec.n_mean, spec.p, spec.q
    m = p + q
    mean = raw[:nm].copy()
    if spec.mean_model == "ar1":
        mean[1] = math.tanh(raw[1])
    # clamp so a wild line-search step degrades the objective instead of
    # overflowing exp; the optimum is nowhere near the boundary
    omega = math.exp(min(max(raw[nm], -700.0), 700.0))
    s = float(expit(raw[nm + 1]))
    logits = np.concatenate([raw[nm + 2:nm + 1 + m], [0.0]])
    wts = _softmax(logits)
    coefs = s * wts
    theta = np.empty(spec.n_params)
    theta[:nm] = mean
    theta[nm] = omega
    theta[nm + 1:nm + 1 + p] = coefs[:p]
    off = nm + 1 + p
    if spec.leverage:
        theta[off] = raw[nm + 1 + m]
        off += 1
    theta[off:] = coefs[p:]
    return theta, omega, s, wts


def _chain_gradient(g_nat: np.ndarray, raw: np.ndarray, spec: GarchSpec,
                    omega: float, s: float, wts: np.ndarray) -> np.ndarray:
    nm, p, q = spec.n_mean, spec.p, spec.q
    m = p + q
    g = np.empty(raw.shape[0])
    g[:nm] = g_nat[:nm]
    if spec.mean_model == "ar1":
        phi = math.tanh(raw[1])
        g[1] = g_nat[1] * (1.0 - phi * phi)
    g[nm] = g_nat[nm] * omega
    off = nm + 1 + p
    gc = np.concatenate([g_nat[nm + 1:nm + 1 + p],
                         g_nat[off + int(spec.leverage):]])
    avg = float(wts @ gc)
    g[nm + 1] = s * (1.0 - s) * avg
    g[nm + 2:nm + 1 + m] = s * wts[:-1] * (gc[:-1] - avg)
    if spec.leverage:
        g[nm + 1 + m] = g_nat[off]
    return g


def _initial_raw(spec: GarchSpec, seed_var: float, rbar: float) -> np.ndarray:
    nm, p, q = spec.n_mean, spec.p, spec.q
    m = p + q
    raw = np.zeros(nm + 1 + m + int(spec.leverage))
    if spec.mean_model in ("constant", "ar1"):
        raw[0] = rbar
    # start at persistence 0.9: a tenth in the ARCH terms, the rest GARCH
    s0 = 0.9
    if p and q:
        wts = np.concatenate([np.full(p, 0.1 / p), np.full(q, 0.8 / q)]) / s0
    else:
        wts = np.full(m, 1.0 / m)
    raw[nm] = math.log(seed_var * (1.0 - s0))
    raw[nm + 1] = math.log(s0 / (1.0 - s0))
    raw[nm + 2:nm + 1 + m] = np.log(wts[:-1] / wts[-1])
    return raw


def fit_garch(r: np.ndarray, spec: GarchSpec | None = None) -> GarchFit:
    """Quasi-maximum-likelihood fit with constraints built into the transform."""
    if spec is None:
        spec = GarchSpec()
    x = np.asarray(r, dtype=np.float64)
    n = x.shape[0]
    if n < 50 * (spec.p + spec.q):
        raise DataError(f"need at least {50 * (spec.p + spec.q)} observations, got {n}")
    if float(np.std(x)) == 0.0:
        raise DataError("cannot fit a constant series")
    seed_var = float(np.var(x))
    rbar = float(np.mean(x))

    def objective(raw: np.ndarray):
        theta, omega, s, wts = _raw_to_natural(raw, spec)
        ll, g = garch_loglik(theta, x, spec, seed_var, rbar)
        if not math.isfinite(ll):
            return 1e12, np.zeros(raw.shape[0])
        return -ll, -_chain_gradient(g, raw, spec, omega, s, wts)

    res = minimize(objective, _initial_raw(spec, seed_var, rbar), jac=True,
                   method="L-BFGS-B",
                   options={"maxiter": MAX_FIT_ITER, "ftol": 1e-13, "gtol": 1e-7})
    grad_norm = float(np.max(np.abs(res.jac)))
    if not res.success and grad_norm > 1.0:
        raise NonConvergenceError(
            f"GARCH fit did not converge: {res.message} "
            f"(iterations {res.nit}, gradient norm {grad_norm:.3e})",
            iterations=int(res.nit), gradient_norm=grad_norm)

    theta, _, _, _ = _raw_to_natural(res.x, spec)
    h, eps, _, _ = _variance_path(theta, x, spec, seed_var, rbar)
    omega, alphas, lam, gammas = _coefficients(theta, spec)
    return GarchFit(
        spec=spec,
        omega=omega,
        alphas=alphas,
        gammas=gammas,
        leverage_coef=lam,
        mean_params=theta[:spec.n_mean],
        cond_variance=h,
        residuals=eps,
        log_likelihood=_quasi_loglik(h, eps),
        seed_variance=seed_var,
        last_return=float(x[-1]),
        iterations=int(res.nit),
    )


def _hessian_std_errors(theta, x, spec, seed_var, rbar) -> np.ndarray:
    k = theta.shape[0]
    H = np.empty((k, k))
    for idx in range(k):
        step = 6e-6 * max(abs(float(theta[idx])), 1e-8)
        tp = theta.copy()
        tp[idx] += step
        _, gp = garch_loglik(tp, x, spec, seed_var, rbar)
        tm = theta.copy()
        tm[idx] -= step
        _, gm = garch_loglik(tm, x, spec, seed_var, rbar)
        H[:, idx] = (gp - gm) / (2.0 * step)
    H = 0.5 * (H + H.T)
    try:
        cov = np.linalg.inv(-H)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(-H)
    diag = np.diag(cov).copy()
    diag[diag < 0] = np.nan
    return np.sqrt(diag)


# ---------------------------------------------------------------------------
# Out-of-sample stepping and simulation
# ---------------------------------------------------------------------------


class GarchState:
    """Out-of-sample stepper: a fitted model advanced one return at a time.

    Holds the newest max(p, 1) squared residuals and their negative parts and
    the newest max(q, 1) variances, newest first, in Python floats because the
    engine steps it once per bar. Its presample is the end of the fit's own
    in-sample path, so stepping it through returns after the fit window gives
    the variances the in-sample filter would give on the longer series.
    """

    def __init__(self, fit: GarchFit):
        spec = fit.spec
        self.omega = fit.omega
        self.alphas = [float(a) for a in fit.alphas]
        self.gammas = [float(g) for g in fit.gammas]
        self.lam = fit.leverage_coef if spec.leverage else None
        self.mean_model = spec.mean_model
        self.mean_params = [float(m) for m in fit.mean_params]
        k = max(spec.p, 1)
        tail = [float(e) for e in fit.residuals[::-1][:k]]
        self.e2 = [e * e for e in tail]
        self.e2neg = [e * e * (e < 0.0) for e in tail]
        self.h = [float(v) for v in fit.cond_variance[::-1][:max(spec.q, 1)]]
        self.r_last = fit.last_return

    def variance_forecast(self) -> float:
        v = self.omega
        for a, e2 in zip(self.alphas, self.e2):
            v += a * e2
        if self.lam is not None:
            v += self.lam * self.e2neg[0]
        for g, h in zip(self.gammas, self.h):
            v += g * h
        return v

    def mean_forecast(self) -> float:
        if self.mean_model == "zero":
            return 0.0
        if self.mean_model == "constant":
            return self.mean_params[0]
        mu, phi = self.mean_params
        return mu + phi * self.r_last

    def update(self, r: float) -> float:
        """Absorb one return; returns its conditional variance."""
        h = self.variance_forecast()
        eps = r - self.mean_forecast()
        e2 = eps * eps
        self.e2 = [e2] + self.e2[:-1]
        self.e2neg = [e2 * (eps < 0.0)] + self.e2neg[:-1]
        self.h = [h] + self.h[:-1]
        self.r_last = r
        return h


def simulate_garch(n: int, omega: float, alphas, gammas, leverage: float = 0.0,
                   mu: float = 0.0, phi: float = 0.0,
                   rng: np.random.Generator | None = None,
                   burn: int = 500) -> np.ndarray:
    """Simulated returns from the model, Gaussian shocks, burn-in discarded."""
    if rng is None:
        rng = np.random.default_rng(0)
    alphas = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
    gammas = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
    persistence = float(alphas.sum() + gammas.sum() + leverage / 2.0)
    if not omega > 0 or persistence >= 1:
        raise DataError("simulation parameters must be stationary")
    p, q = alphas.shape[0], gammas.shape[0]
    total = n + burn
    z = rng.standard_normal(total)
    hv = omega / (1.0 - persistence)
    eps = np.zeros(total)
    hbuf = np.full(max(q, 1), hv)
    ebuf = np.zeros(max(p, 1))
    nbuf = np.zeros(max(p, 1), dtype=bool)
    r = np.empty(total)
    prev_r = mu / (1.0 - phi) if phi else mu
    for t in range(total):
        h = omega
        for i in range(p):
            h += alphas[i] * ebuf[i]
        if leverage and p:
            h += leverage * ebuf[0] * nbuf[0]
        for j in range(q):
            h += gammas[j] * hbuf[j]
        e = z[t] * math.sqrt(h)
        r[t] = mu + phi * prev_r + e if phi else mu + e
        prev_r = r[t]
        if p:
            ebuf[1:] = ebuf[:-1]
            nbuf[1:] = nbuf[:-1]
            ebuf[0] = e * e
            nbuf[0] = e < 0
        if q:
            hbuf[1:] = hbuf[:-1]
            hbuf[0] = h
    return r[burn:]


# ---------------------------------------------------------------------------
# Realized volatility and HAR-VPIN
# ---------------------------------------------------------------------------


def realized_vol(bars: BarSeries, blocks: int) -> np.ndarray:
    """Rolling sum of squared session log returns over `blocks` bars.

    Returns are `session_log_returns`, so a return across a session break
    (lunch or overnight) adds nothing. Aligned with the input bars; the
    first `blocks` positions are NaN.
    """
    if blocks < 1:
        raise DataError("blocks must be >= 1")
    n = len(bars)
    if blocks >= n:
        raise DataError(f"need more than {blocks} bars, got {n}")
    r2 = np.nan_to_num(session_log_returns(bars)[1:] ** 2)
    csum = np.concatenate([[0.0], np.cumsum(r2)])
    rv = np.full(n, np.nan)
    rv[blocks:] = csum[blocks:] - csum[:-blocks]
    return rv


def fit_har_vpin(rv_f: np.ndarray, rv_h: np.ndarray, rv_d: np.ndarray,
                 volume: np.ndarray, vpin: np.ndarray,
                 horizon: int = 1) -> HarVpinFit:
    """OLS of the next-`horizon` realized variance on the HAR terms and VPIN."""
    if horizon < 1:
        raise DataError("horizon must be >= 1")
    cols = [np.asarray(c, dtype=np.float64).ravel()
            for c in (rv_f, rv_h, rv_d, volume, vpin)]
    n = cols[0].shape[0]
    if any(c.shape[0] != n for c in cols):
        raise DataError("HAR inputs must be aligned")
    if n < 100:
        raise DataError(f"need at least 100 aligned observations, got {n}")
    # forward target: realized variance accumulated over the next H blocks
    fcs = np.concatenate([[0.0], np.cumsum(cols[0])])
    target = np.full(n, np.nan)
    target[:n - horizon] = fcs[1 + horizon:] - fcs[1:n - horizon + 1]
    keep = np.isfinite(target)
    for c in cols:
        keep &= np.isfinite(c)
    X = np.column_stack([np.ones(int(keep.sum()))] + [c[keep] for c in cols])
    fit = ols(X, target[keep])
    b = fit.coefficients
    return HarVpinFit(beta0=float(b[0]), betaF=float(b[1]), betaH=float(b[2]),
                      betaD=float(b[3]), betaV=float(b[4]), betaVPIN=float(b[5]),
                      horizon=horizon, diagnostics=fit)
