"""GARCH-family estimation, and the one-step forecasts of a fitted model.

The conditional variance h_t = a0 + sum_i a_i e_{t-i}^2 + lam e_{t-1}^2
1[e_{t-1}<0] + sum_j g_j h_{t-j} is computed here and nowhere else, by one
filter, `_variance_path`, over a whole return vector at once. The recursion
is linear AR in h, so the variance path and, in `garch_loglik`, every
partial derivative of it come from the same IIR filter, which keeps the
quasi-likelihood and its analytic gradient exact and fast. `fit_garch` and
`garch_loglik` both call it, and both read the likelihood from its output
through `_quasi_loglik`. The filter and the gradient write every length-n
intermediate into a `_Workspace`, which `fit_garch` and the Hessian standard
errors allocate once per fit and pass to every evaluation; only the filter
kernel's output is allocated per call.

The filter is causal, so it also serves out of sample: `GarchFit.path` runs
it over the fit's own returns followed by later ones, and the entry after
each return is the one-step variance forecast for the next. The backtest
engine reads its forecasts from there.

`GarchSpec.split` and `GarchSpec.join` are the one home of the layout of
theta, the natural parameter vector: every function here that reads theta,
or a gradient in it, takes its pieces from `split` and builds one with `join`.

The GARCH(1,1) simulator that the synthetic tick generator and the tests
draw from is `marketdata.simulate_garch`.

The optimizer works on transformed parameters (log variance intercept,
logistic persistence split across terms) so the positivity and stationarity
constraints hold by construction. Leverage splits alpha_1's weight into a+
for up shocks and a- for down ones, each counting half in the persistence
sum alpha + lambda / 2 + sum gamma: alpha_1 = a+ and lambda = a- - a+, so
alpha_1 + lambda = a- >= 0 and every h after the seed is at least omega.

The optimizer is L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995). `_lbfgsb` drives
scipy's compiled kernel, `setulb`, with the calls `scipy.optimize.minimize`
makes, so every fit takes the same steps without importing `scipy.optimize`,
whose package init loads `scipy.linalg`, `scipy.sparse` and `scipy.special`.
Where `_scipy.setulb` finds no kernel with the exact signature the driver
was written against, as on scipy 1.9 with its f2py kernel, `fit_garch` calls
`minimize` itself. The kernels, `setulb`, the filter's `linear_filter` and
the `expit` ufunc of the persistence transform, all come from `_scipy`,
which loads each compiled module without the scipy package around it.

Presample convention: h is seeded with the sample variance of the input
(assigned to h_0 and used for every h_{t-j} before the sample), presample
shocks are zero, and the AR(1) mean uses the sample mean as the price-change
before the first observation.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _scipy
from .errors import DataError, NonConvergenceError

LOG_2PI = math.log(2.0 * math.pi)

MEAN_PARAMS = {"zero": (), "constant": ("mu",), "ar1": ("mu", "phi")}
MAX_FIT_ITER = 500
# (alpha_1, lambda) = (a+, a- - a+) from the persistence shares (a+ / 2, a- / 2)
_LEVERAGE_MAP = np.array([[2.0, 0.0], [-2.0, 2.0]])


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
        if self.mean_model not in MEAN_PARAMS:
            raise DataError(f"unknown mean model {self.mean_model!r}")
        if self.leverage and self.p < 1:
            raise DataError("the leverage term requires p >= 1")

    @property
    def n_mean(self) -> int:
        return len(MEAN_PARAMS[self.mean_model])

    @property
    def n_params(self) -> int:
        return self.n_mean + 1 + self.p + int(self.leverage) + self.q

    @property
    def min_obs(self) -> int:
        """The fewest returns `fit_garch` accepts."""
        return 50 * (self.p + self.q)

    def split(self, theta: np.ndarray):
        """(mean, omega, alphas, lam, gammas) of a vector in the natural
        layout [mean params..., omega, alpha_1..p, (lambda,) gamma_1..q],
        the one place that layout is written; lam is 0.0 without the
        leverage term, and the arrays are views of `theta`."""
        nm, p = self.n_mean, self.p
        g = nm + 1 + p + int(self.leverage)  # the first gamma
        return (theta[:nm], float(theta[nm]), theta[nm + 1:nm + 1 + p],
                float(theta[g - 1]) if self.leverage else 0.0, theta[g:])

    def join(self, mean, omega: float, alphas, lam: float, gammas) -> np.ndarray:
        """The natural parameter vector from its pieces; `split` inverted."""
        return np.concatenate([mean, [omega], alphas,
                               [lam] if self.leverage else [], gammas],
                              dtype=np.float64)

    def param_names(self) -> tuple[str, ...]:
        names = [*MEAN_PARAMS[self.mean_model], "omega"]
        names += [f"alpha{i}" for i in range(1, self.p + 1)]
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
        if self.alphas[:1].sum() + self.leverage_coef < 0:
            raise DataError("alpha_1 + lambda must be non-negative")
        if not self.persistence < 1.0:
            raise DataError(f"persistence {self.persistence} violates stationarity")
        if np.any(self.cond_variance <= 0):
            raise DataError("conditional variances must be positive")

    @property
    def persistence(self) -> float:
        return float(self.alphas.sum() + self.leverage_coef / 2.0 + self.gammas.sum())

    def theta(self) -> np.ndarray:
        """Natural parameter vector in the garch_loglik layout."""
        return self.spec.join(self.mean_params, self.omega, self.alphas,
                              self.leverage_coef, self.gammas)

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

    def path(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Conditional variances and means of `r`, the fit's own returns
        followed by later ones, each len(r) + 1 long: entry i is the one-step
        forecast for r[i] given r[:i], so the last is the forecast for the
        return after `r`. The filter is the fit's, seed and presample
        included."""
        x = np.asarray(r, dtype=np.float64)
        n = self.cond_variance.shape[0]
        if x.shape[0] < n:
            raise DataError(f"the fit saw {n} returns, got {x.shape[0]}")
        rbar = float(np.mean(x[:n]))
        # the trailing slot's variance depends only on the returns before it
        h, _, _, _ = _variance_path(self.theta(), np.append(x, 0.0), self.spec,
                                    self.seed_variance, rbar)
        if not np.array_equal(h[:n], self.cond_variance):
            raise DataError("the returns do not start with the ones the model "
                            "was fit on")
        mean = np.full(h.shape[0], self.mean_params[0] if self.spec.n_mean else 0.0)
        if self.spec.mean_model == "ar1":
            # the previous return; the window mean before r[0]
            mean += self.mean_params[1] * np.append(rbar, x)
        return h, mean


# ---------------------------------------------------------------------------
# Likelihood with analytic gradient (natural parameters)
# ---------------------------------------------------------------------------


def _ar_filter(a_poly: np.ndarray, x: np.ndarray,
               presample: np.ndarray | None = None) -> np.ndarray:
    """y with a_poly[0] y_t + a_poly[1] y_{t-1} + ... = x_t, bit for bit
    `lfilter([1], a_poly, x, zi=lfiltic([1], a_poly, presample))[0]`, where
    `presample` holds y_{-1}, y_{-2}, ...; without it the presample is zero.
    """
    kernel, unit = _scipy.linear_filter(), np.ones(1)
    if presample is None:
        return kernel(unit, a_poly, x, -1)
    # lfiltic's state for a unit numerator and a_poly[0] == 1
    q = a_poly.shape[0] - 1
    zi = np.zeros(q)
    for m in range(q):
        zi[m] -= np.sum(a_poly[m + 1:] * presample[:q - m], axis=0)
    return kernel(unit, a_poly, x, -1, zi)[0]


class _Workspace:
    """The length-n buffers one fit's likelihood evaluations write into.

    Every call overwrites each buffer before it reads it, so nothing carries
    over from one call to the next, not even from one that returned early at
    an infeasible point; reusing a workspace only spares each evaluation the
    fresh temporaries, whose pages the allocator would hand back and fault
    in again. Arrays a caller keeps must come from a workspace nothing
    writes to afterwards.
    """

    __slots__ = ("eps", "e2", "h", "dldh", "lag", "src", "out")

    def __init__(self, n: int):
        for name in self.__slots__:
            setattr(self, name, np.empty(n))


def _lag(x: np.ndarray, k: int, out: np.ndarray,
         fill: float = 0.0) -> np.ndarray:
    out[:k] = fill
    out[k:] = x[:-k]
    return out


def _lag_negative(x: np.ndarray, eps: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """x * (eps < 0), lagged once."""
    out[0] = 0.0
    np.less(eps[:-1], 0.0, out=out[1:])
    np.multiply(x[:-1], out[1:], out=out[1:])
    return out


def _mean_residuals(theta_mean: np.ndarray, r: np.ndarray, mean_model: str,
                    r_prev: float, work: _Workspace) -> None:
    """Residuals into work.eps; the AR(1) mean uses work.lag as scratch."""
    eps = work.eps
    if mean_model == "zero":
        eps[:] = r
        return
    np.subtract(r, theta_mean[0], out=eps)
    if mean_model == "ar1":
        rlag = _lag(r, 1, work.lag, fill=r_prev)
        eps -= np.multiply(theta_mean[1], rlag, out=rlag)


def _mean_derivative(m: int, r: np.ndarray, r_prev: float,
                     out: np.ndarray) -> np.ndarray:
    """The residuals' derivative w.r.t. mean parameter m: -1 for mu,
    -r_{t-1} for phi."""
    if m == 0:
        out.fill(-1.0)
        return out
    return np.negative(_lag(r, 1, out, fill=r_prev), out=out)


def _variance_path(theta: np.ndarray, x: np.ndarray, spec: GarchSpec,
                   seed_var: float, r_prev: float,
                   work: _Workspace | None = None):
    """The in-sample filter at theta, written into `work` (a fresh
    workspace when None).

    Returns h, the residuals and their squares, which are the workspace's
    own arrays, and the AR polynomial [1, -gamma_1..q] of h.
    """
    if work is None:
        work = _Workspace(x.shape[0])
    mean, omega, alphas, lam, gammas = spec.split(theta)
    _mean_residuals(mean, x, spec.mean_model, r_prev, work)
    eps, e2, h, lag = work.eps, work.e2, work.h, work.lag
    np.multiply(eps, eps, out=e2)
    # the forcing term, filtered in place below
    h.fill(omega)
    for i in range(1, spec.p + 1):
        h += np.multiply(alphas[i - 1], _lag(e2, i, lag), out=lag)
    if spec.leverage:
        h += np.multiply(lam, _lag_negative(e2, eps, lag), out=lag)
    a_poly = np.concatenate([[1.0], -gammas])
    # recursion runs from t=1; position 0 is the (parameter-free) seed
    h[0] = seed_var
    if spec.q:
        h[1:] = _ar_filter(a_poly, h[1:], np.full(spec.q, seed_var))
    return h, eps, e2, a_poly


def _quasi_loglik(work: _Workspace) -> float:
    """Gaussian quasi log-likelihood of the residuals in `work` given its
    variances h; -inf when some h_t is not positive and finite. Uses
    work.dldh and work.out as scratch."""
    h = work.h
    if not np.all(np.isfinite(h)) or np.any(h <= 0.0):
        return -math.inf
    terms, ratio = work.dldh, work.out
    np.add(LOG_2PI, np.log(h, out=terms), out=terms)
    terms += np.divide(work.e2, h, out=ratio)
    return -0.5 * float(np.sum(terms))


def garch_loglik(theta: np.ndarray, r: np.ndarray, spec: GarchSpec,
                 seed_var: float | None = None,
                 r_prev: float | None = None,
                 work: _Workspace | None = None) -> tuple[float, np.ndarray]:
    """Gaussian quasi log-likelihood and its gradient in natural parameters.

    theta and the gradient are in the layout `GarchSpec.split` reads.
    Infeasible points (any h_t <= 0) return -inf with a zero gradient.
    Intermediates go into `work`, a fresh workspace when None.
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
    if work is None:
        work = _Workspace(n)
    h, eps, e2, a_poly = _variance_path(theta, x, spec, seed_var, r_prev, work)
    ll = _quasi_loglik(work)
    if ll == -math.inf:
        return ll, np.zeros(spec.n_params)

    p, q = spec.p, spec.q
    _, _, alphas, lam, _ = spec.split(theta)
    dldh, lag, src, out = work.dldh, work.lag, work.src, work.out
    # dl/dh = 0.5 * (e2 / h - 1) / h
    np.divide(e2, h, out=dldh)
    dldh -= 1.0
    np.multiply(0.5, dldh, out=dldh)
    dldh /= h

    def dldh_dot_filtered(v: np.ndarray) -> float:
        # dh/dtheta: the same recursion from a zero seed, into `out`
        out[0] = 0.0
        out[1:] = v[1:] if q == 0 else _ar_filter(a_poly, v[1:])
        return float(dldh @ out)

    g_mean = []
    for m in range(spec.n_mean):
        dm = _mean_derivative(m, x, r_prev, src)
        # dl/de = -eps / h, dotted with dm before `out` is reused
        direct = float(np.divide(np.negative(eps, out=out), h, out=out) @ dm)
        deps2 = np.multiply(np.multiply(2.0, eps, out=out), dm, out=out)
        src.fill(0.0)
        for i in range(1, p + 1):
            src += np.multiply(alphas[i - 1], _lag(deps2, i, lag), out=lag)
        if spec.leverage:
            src += np.multiply(lam, _lag_negative(deps2, eps, lag), out=lag)
        g_mean.append(dldh_dot_filtered(src) + direct)
    src.fill(1.0)
    g_omega = dldh_dot_filtered(src)
    g_alphas = [dldh_dot_filtered(_lag(e2, i, lag)) for i in range(1, p + 1)]
    g_lam = (dldh_dot_filtered(_lag_negative(e2, eps, lag)) if spec.leverage
             else 0.0)
    g_gammas = [dldh_dot_filtered(_lag(h, j, lag, fill=seed_var))
                for j in range(1, q + 1)]
    return ll, spec.join(g_mean, g_omega, g_alphas, g_lam, g_gammas)


# ---------------------------------------------------------------------------
# Transformed-space optimization
# ---------------------------------------------------------------------------


def _raw_to_natural(raw: np.ndarray, spec: GarchSpec):
    """theta from the raw vector the optimizer moves, [mean params, log
    omega, logit s, k-1 softmax logits]: phi is tanh of its raw value, and s
    times the softmax of the logits and a last 0 splits the persistence into
    k shares [alpha_1 or a+ / 2, a- / 2, alpha_2..p, gamma_1..q], the leverage
    pair mapped by _LEVERAGE_MAP. Also returns omega, s and the weights, for
    `_chain_gradient`."""
    nm = spec.n_mean
    mean = raw[:nm].copy()
    if spec.mean_model == "ar1":
        mean[1] = math.tanh(raw[1])
    # clamp so a wild line-search step degrades the objective instead of
    # overflowing exp; the optimum is nowhere near the boundary
    omega = math.exp(min(max(raw[nm], -700.0), 700.0))
    s = _scipy.special("expit")(raw[nm + 1])
    logits = np.concatenate([raw[nm + 2:], [0.0]])
    wts = np.exp(logits - logits.max())
    wts /= wts.sum()  # the softmax
    coefs, lam = s * wts, 0.0
    if spec.leverage:
        alpha1, lam = _LEVERAGE_MAP @ coefs[:2]
        coefs = np.concatenate([[alpha1], coefs[2:]])
    return (spec.join(mean, omega, coefs[:spec.p], lam, coefs[spec.p:]),
            omega, s, wts)


def _chain_gradient(g_nat: np.ndarray, raw: np.ndarray, spec: GarchSpec,
                    omega: float, s: float, wts: np.ndarray) -> np.ndarray:
    """`g_nat`, a gradient in theta, carried to `_raw_to_natural`'s layout."""
    g_mean, g_omega, g_alphas, g_lam, g_gammas = spec.split(g_nat)
    if spec.mean_model == "ar1":
        phi = math.tanh(raw[1])
        g_mean = g_mean * np.array([1.0, 1.0 - phi * phi])
    if spec.leverage:
        g_alphas = np.concatenate([_LEVERAGE_MAP.T @ [g_alphas[0], g_lam], g_alphas[1:]])
    gc = np.concatenate([g_alphas, g_gammas])
    avg = float(wts @ gc)
    return np.concatenate([g_mean, [g_omega * omega, s * (1.0 - s) * avg],
                           s * wts[:-1] * (gc[:-1] - avg)])


def _initial_raw(spec: GarchSpec, seed_var: float, rbar: float) -> np.ndarray:
    p, q = spec.p, spec.q
    # start at persistence 0.9: a tenth in the ARCH terms, the rest GARCH
    s0 = 0.9
    if p and q:
        wts = np.concatenate([np.full(p, 0.1 / p), np.full(q, 0.8 / q)]) / s0
    else:
        wts = np.full(p + q, 1.0 / (p + q))
    if spec.leverage:  # a+ = a-, so lambda starts at 0
        wts = np.concatenate([[wts[0] / 2.0], [wts[0] / 2.0], wts[1:]])
    # mu starts at the sample mean and phi at 0
    return np.concatenate([[rbar, 0.0][:spec.n_mean],
                           [math.log(seed_var * (1.0 - s0)),
                            math.log(s0 / (1.0 - s0))],
                           np.log(wts[:-1] / wts[-1])])


def _objective(x: np.ndarray, spec: GarchSpec, seed_var: float, rbar: float):
    """The function `fit_garch` minimizes: raw parameters to the negative
    log-likelihood and its gradient, evaluated in a workspace of its own; an
    infeasible point, where either is not finite (h near the underflow limit
    overflows the gradient), gives 1e12, a zero gradient and no warning."""
    work = _Workspace(x.shape[0])

    def objective(raw: np.ndarray):
        theta, omega, s, wts = _raw_to_natural(raw, spec)
        with np.errstate(over="ignore", invalid="ignore"):
            ll, g = garch_loglik(theta, x, spec, seed_var, rbar, work)
            grad = -_chain_gradient(g, raw, spec, omega, s, wts)
        if not (math.isfinite(ll) and np.isfinite(grad).all()):
            return 1e12, np.zeros(raw.shape[0])
        return -ll, grad

    return objective


_MAX_FIT_EVALS = 15000  # scipy's default maxfun
# scipy's names for the kernel's stop codes: task[0], then task[1]
_LBFGSB_STATES = {4: "CONVERGENCE", 5: "STOP", 6: "WARNING", 7: "ERROR",
                  8: "ABNORMAL"}
_LBFGSB_REASONS = {
    401: "NORM OF PROJECTED GRADIENT <= PGTOL",
    402: "RELATIVE REDUCTION OF F <= FACTR*EPSMCH",
    502: "TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT",
    504: "TOTAL NO. OF ITERATIONS REACHED LIMIT",
    601: "ROUNDING ERRORS PREVENT PROGRESS",
    602: "STP = STPMAX",
    603: "STP = STPMIN",
    604: "XTOL TEST SATISFIED",
}


def _lbfgsb(objective, x0: np.ndarray, setulb):
    """L-BFGS-B without bounds from x0 on `objective(x) -> (f, gradient)`.

    It makes the calls scipy 1.17's `minimize(method="L-BFGS-B", jac=True)`
    makes with maxcor 10, ftol 1e-13, gtol 1e-7 and maxls 20, so it takes the
    same steps bit for bit: it stops after MAX_FIT_ITER iterations or once
    more than _MAX_FIT_EVALS evaluations are spent, and an x equal to the last
    one evaluated reuses that f and gradient.

    Returns (x, gradient, iterations, converged, message).
    """
    m, n = 10, x0.shape[0]
    x = np.array(x0, dtype=np.float64)
    f, g = np.array(0.0), np.zeros(n)
    unbounded = np.zeros(n)  # l and u, unread with every nbd 0
    nbd, iwa = np.zeros(n, np.int32), np.zeros(3 * n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = (np.zeros(4, np.int32), np.zeros(44, np.int32),
                           np.zeros(29))
    factr = 1e-13 / sys.float_info.epsilon
    nit = evals = 0
    x_eval = g_eval = None
    while True:
        setulb(m, x, unbounded, unbounded, nbd, f, g, factr, 1e-7, wa, iwa,
               task, lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # FG: evaluate at x
            if x_eval is None or not np.array_equal(x, x_eval):
                x_eval = x.copy()
                f, g_eval = objective(x.copy())
                evals += 1
            g = g_eval.copy()
        elif task[0] == 1:  # NEW_X: one iteration done
            nit += 1
            if nit >= MAX_FIT_ITER:
                task[:] = 5, 504
            elif evals > _MAX_FIT_EVALS:
                task[:] = 5, 502
        else:
            break
    state, reason = int(task[0]), int(task[1])
    message = _LBFGSB_STATES.get(state, str(state))
    if reason:
        message += f": {_LBFGSB_REASONS.get(reason, reason)}"
    return x, g, nit, state == 4, message


def _minimize(objective, x0: np.ndarray):
    """`_lbfgsb` on scipy's kernel where `_scipy.setulb` finds it, else
    scipy's own driver, `minimize`, with the same options."""
    setulb = _scipy.setulb()
    if setulb is not None:
        return _lbfgsb(objective, x0, setulb)
    from scipy.optimize import minimize

    res = minimize(objective, x0, jac=True, method="L-BFGS-B",
                   options={"maxiter": MAX_FIT_ITER, "ftol": 1e-13, "gtol": 1e-7})
    return res.x, res.jac, int(res.nit), bool(res.success), res.message


def fit_garch(r: np.ndarray, spec: GarchSpec | None = None) -> GarchFit:
    """Quasi-maximum-likelihood fit with constraints built into the transform."""
    if spec is None:
        spec = GarchSpec()
    x = np.asarray(r, dtype=np.float64)
    n = x.shape[0]
    if n < spec.min_obs:
        raise DataError(f"need at least {spec.min_obs} observations, got {n}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.shape[0]:
        raise DataError(f"return {bad[0]} is not finite ({x[bad[0]]})")
    if float(np.std(x)) == 0.0:
        raise DataError("cannot fit a constant series")
    seed_var = float(np.var(x))
    rbar = float(np.mean(x))

    # the objective's workspace is freed when _minimize returns, before the
    # fit's own is allocated below
    raw, jac, nit, converged, message = _minimize(
        _objective(x, spec, seed_var, rbar), _initial_raw(spec, seed_var, rbar))
    grad_norm = float(np.max(np.abs(jac)))
    if not converged and grad_norm > 1.0:
        raise NonConvergenceError(
            f"GARCH fit did not converge: {message} "
            f"(iterations {nit}, gradient norm {grad_norm:.3e})",
            iterations=nit, gradient_norm=grad_norm)

    theta, _, _, _ = _raw_to_natural(raw, spec)
    # the fit keeps h and eps, so they come from a workspace nothing else
    # writes to
    work = _Workspace(n)
    h, eps, _, _ = _variance_path(theta, x, spec, seed_var, rbar, work)
    mean, omega, alphas, lam, gammas = spec.split(theta)
    return GarchFit(
        spec=spec,
        omega=omega,
        alphas=alphas,
        gammas=gammas,
        leverage_coef=lam,
        mean_params=mean,
        cond_variance=h,
        residuals=eps,
        log_likelihood=_quasi_loglik(work),
        seed_variance=seed_var,
        iterations=nit,
    )


def _hessian_std_errors(theta, x, spec, seed_var, rbar) -> np.ndarray:
    k = theta.shape[0]
    H = np.empty((k, k))
    work = _Workspace(x.shape[0])
    for idx in range(k):
        step = 6e-6 * max(abs(float(theta[idx])), 1e-8)
        tp = theta.copy()
        tp[idx] += step
        _, gp = garch_loglik(tp, x, spec, seed_var, rbar, work)
        tm = theta.copy()
        tm[idx] -= step
        _, gm = garch_loglik(tm, x, spec, seed_var, rbar, work)
        H[:, idx] = (gp - gm) / (2.0 * step)
    H = 0.5 * (H + H.T)
    try:
        cov = np.linalg.inv(-H)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(-H)
    diag = np.diag(cov).copy()
    diag[diag < 0] = np.nan
    return np.sqrt(diag)
