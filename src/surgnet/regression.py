"""Count regression: OLS/VIF screening, Poisson MLE with goodness of fit,
and NB2 negative binomial MLE with the boundary likelihood-ratio test.

Both count models use a log link, ln mu = x beta. The negative binomial
variance is mu + alpha * mu^2; the heterogeneity parameter is estimated
on the log scale (t = ln alpha) so the alpha > 0 constraint never binds.
Standard errors come from the inverse observed information at the
optimum, and 95% intervals use coef +/- 1.959964 * se throughout.

Newton iteration runs on an internally centered and scaled copy of the
design (an exact affine reparametrization, mapped back afterwards);
covariates on wildly different scales would otherwise leave the
iteration stuck with the gradient above tolerance. Convergence is
always judged on the original-scale gradient.

The gamma-function terms of the NB2 likelihood are evaluated through
exact rising-factorial log sums, which stay accurate down to alpha ~ 0
(where the model collapses onto the Poisson) instead of cancelling
catastrophically like a difference of two large log-gammas would.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.special import chdtrc, gammaln, ndtr

from .errors import ConvergenceError, DataError

Z95 = 1.959964  # two-sided 95% normal quantile, reporting convention

MAX_ITER = 200
MAX_HALVINGS = 30
LL_RTOL = 1e-9
GRAD_TOL = 1e-6
LN_ALPHA_FLOOR = np.log(1e-8)   # iteration clamp for t = ln alpha
LN_ALPHA_BOUNDARY = np.log(1e-6)  # estimates below this report as boundary


# ---------------------------------------------------------------------------
# design matrix


@dataclass(frozen=True)
class DesignMatrix:
    """Response vector plus covariate matrix with named columns."""

    y: np.ndarray
    x: np.ndarray
    columns: tuple
    intercept: str | None = "_cons"
    n_dropped_missing: int = 0

    @property
    def n_obs(self):
        return self.y.size

    @property
    def n_params(self):
        return self.x.shape[1]

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.y.tobytes())
        h.update(self.x.tobytes())
        h.update(repr(self.columns).encode())
        return h.hexdigest()

    @classmethod
    def build(cls, y, columns, add_intercept=True):
        """Assemble a design from a name -> vector mapping.

        Rows with a missing (NaN) response or covariate are dropped and
        counted in ``n_dropped_missing``. The response must be
        non-negative integers. An intercept column named ``_cons`` is
        appended last unless ``add_intercept`` is false.
        """
        names = tuple(columns)
        y = np.asarray(y, dtype=np.float64)
        mats = [np.asarray(columns[name], dtype=np.float64) for name in names]
        if any(m.shape != y.shape for m in mats) or y.ndim != 1:
            raise DataError("covariate columns must be vectors matching the "
                            "response length")

        keep = np.isfinite(y)
        for m in mats:
            keep &= np.isfinite(m)
        dropped = int(y.size - keep.sum())
        y = y[keep]
        x = np.column_stack([m[keep] for m in mats]) if mats else \
            np.empty((y.size, 0))

        if y.size == 0:
            raise DataError("no complete rows left after dropping missing values")
        if np.any(y < 0) or np.any(y != np.floor(y)):
            raise DataError("response must be non-negative integer counts")
        if "dMale" in names:
            d = x[:, names.index("dMale")]
            if not np.all((d == 0) | (d == 1)):
                raise DataError("dMale must be a 0/1 dummy")

        intercept = None
        if add_intercept:
            x = np.column_stack([x, np.ones(y.size)])
            names = names + ("_cons",)
            intercept = "_cons"
        return cls(y=y.astype(np.int64), x=x, columns=names,
                   intercept=intercept, n_dropped_missing=dropped)


# ---------------------------------------------------------------------------
# OLS and collinearity screening


@dataclass(frozen=True)
class OlsResult:
    columns: tuple
    coef: np.ndarray
    r_squared: float
    n_obs: int


@dataclass(frozen=True)
class VifEntry:
    name: str
    vif: float
    tolerance: float


def _has_constant(x, columns, intercept):
    if intercept is not None and intercept in columns:
        return True
    return any(np.ptp(x[:, j]) == 0 and x[0, j] != 0 for j in range(x.shape[1]))


def ols_fit(x, y, columns=None, intercept="_cons") -> OlsResult:
    """Least squares via pivoted QR; errors out on rank deficiency,
    naming the collinear columns. R-squared is centered when the design
    contains a constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = x.shape
    columns = tuple(columns) if columns is not None \
        else tuple(f"x{j}" for j in range(p))
    if n <= p:
        raise DataError(f"need more observations ({n}) than parameters ({p})")

    q, r, piv = linalg.qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag.max() * max(n, p) * np.finfo(float).eps if diag.size else 0.0
    rank = int((diag > tol).sum())
    if rank < p:
        bad = sorted(columns[j] for j in piv[rank:])
        raise DataError(f"design matrix is rank deficient; "
                        f"collinear column(s): {bad}")

    coef = np.empty(p)
    coef[piv] = linalg.solve_triangular(r, q.T @ y)
    resid = y - x @ coef
    ssr = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum()) \
        if _has_constant(x, columns, intercept) else float(y @ y)
    if sst == 0.0:
        r2 = 0.0 if ssr == 0.0 else 1.0
    else:
        r2 = 1.0 - ssr / sst
    return OlsResult(columns=columns, coef=coef, r_squared=r2, n_obs=n)


def vif(x, columns, intercept="_cons"):
    """Variance inflation factor and tolerance (1/VIF) per covariate.

    Each non-intercept column is regressed on all the others; perfect
    collinearity reports an infinite VIF rather than failing.
    """
    x = np.asarray(x, dtype=np.float64)
    columns = tuple(columns)
    n, p = x.shape
    if n <= p:
        raise DataError(f"need more observations ({n}) than parameters ({p})")
    out = []
    for j, name in enumerate(columns):
        if name == intercept:
            continue
        others = [k for k in range(p) if k != j]
        xo = x[:, others]
        target = x[:, j]
        coef, *_ = np.linalg.lstsq(xo, target, rcond=None)
        centered = _has_constant(xo, [columns[k] for k in others], intercept)
        sst = float(((target - target.mean()) ** 2).sum()) if centered \
            else float(target @ target)
        if sst == 0.0:
            v = float("inf")
        else:
            resid = target - xo @ coef
            r2 = 1.0 - float(resid @ resid) / sst
            v = float("inf") if r2 >= 1.0 - 1e-12 else 1.0 / (1.0 - r2)
        out.append(VifEntry(name=name, vif=v,
                            tolerance=0.0 if np.isinf(v) else 1.0 / v))
    return out


# ---------------------------------------------------------------------------
# fit results


@dataclass(frozen=True)
class FitResult:
    """One row per coefficient (estimate, se, z, p, CI); alpha extras
    for the negative binomial."""

    model: str
    columns: tuple
    coef: np.ndarray
    std_err: np.ndarray
    z: np.ndarray
    p: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    log_likelihood: float
    n_obs: int
    iterations: int
    grad_max_abs: float
    design_key: str
    alpha: float | None = None
    ln_alpha: float | None = None
    alpha_std_err: float | None = None
    ln_alpha_std_err: float | None = None
    alpha_ci: tuple | None = None
    ln_alpha_ci: tuple | None = None
    alpha_boundary: bool = False
    trace: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GofResult:
    pearson_chi2: float
    deviance: float
    df: int
    p_value: float


@dataclass(frozen=True)
class LrAlphaResult:
    """LR test of alpha = 0; null distribution is the 50:50 mixture of a
    point mass at zero and chi-square(1)."""

    statistic: float
    p_value: float


def _wald(coef, se):
    with np.errstate(divide="ignore", invalid="ignore"):
        z = coef / se
    p = 2.0 * ndtr(-np.abs(z))
    return z, p, coef - Z95 * se, coef + Z95 * se


# ---------------------------------------------------------------------------
# Poisson


def poisson_loglik(beta, x, y) -> float:
    eta = x @ beta
    with np.errstate(over="ignore"):
        return float(np.sum(y * eta - np.exp(eta) - gammaln(y + 1.0)))


def poisson_score(beta, x, y) -> np.ndarray:
    mu = np.exp(x @ beta)
    return x.T @ (y - mu)


def poisson_hessian(beta, x, y) -> np.ndarray:
    mu = np.exp(x @ beta)
    return -(x * mu[:, None]).T @ x


def poisson_fit(dm: DesignMatrix) -> FitResult:
    """Poisson MLE by Newton-Raphson with step-halving.

    Converges when the relative log-likelihood change drops below 1e-9
    and the score's max-abs component below 1e-6. Raises
    ConvergenceError with an iteration trace on failure, including the
    boundary case of an all-zero response (no finite optimum).
    """
    x, y = dm.x, dm.y.astype(np.float64)
    n, p = x.shape
    if n <= p:
        raise DataError(f"need more observations ({n}) than parameters ({p})")
    if y.sum() == 0:
        raise ConvergenceError(
            "Poisson MLE diverges: response is identically zero, the "
            "optimum sits at mu -> 0 (log-likelihood unbounded below)",
            trace={"boundary": "all-zero response"})

    scaler = _Scaler(x, dm.columns, dm.intercept)
    xs = scaler.x_scaled
    start = np.zeros(p)
    if scaler.intercept_idx is not None:
        start[scaler.intercept_idx] = np.log(y.mean())

    theta, ll, it, gmax, trace = _newton(
        start,
        lambda b: poisson_loglik(b, xs, y),
        lambda b: poisson_score(b, xs, y),
        lambda b: poisson_hessian(b, xs, y),
        conv_grad=lambda b: poisson_score(scaler.to_original(b), x, y),
        label="poisson")

    beta = scaler.to_original(theta)
    se = _diag_se(scaler.cov_original(_invert_information(
        -poisson_hessian(theta, xs, y), "poisson")), "poisson")
    z, pv, lo, hi = _wald(beta, se)
    return FitResult(
        model="poisson", columns=dm.columns, coef=beta, std_err=se, z=z, p=pv,
        ci_low=lo, ci_high=hi, log_likelihood=ll, n_obs=n, iterations=it,
        grad_max_abs=gmax, design_key=dm.fingerprint(), trace=trace)


def poisson_gof(fit: FitResult, dm: DesignMatrix) -> GofResult:
    """Pearson chi-square and deviance of a converged Poisson fit; the
    p-value is the chi-square upper tail of the Pearson statistic at
    n - p degrees of freedom."""
    if fit.model != "poisson":
        raise DataError("goodness of fit is defined for the Poisson fit")
    if fit.design_key != dm.fingerprint():
        raise DataError("fit and design matrix do not match")
    y = dm.y.astype(np.float64)
    with np.errstate(over="ignore"):
        mu = np.exp(dm.x @ fit.coef)
    if not np.all(np.isfinite(mu) & (mu > 0.0)):
        raise DataError("fitted mean of zero or not finite; "
                        "cannot form the Pearson statistic")
    pearson = float(np.sum((y - mu) ** 2 / mu))
    dev_terms = y * np.log(y / mu, out=np.zeros_like(y), where=y > 0)
    deviance = float(2.0 * np.sum(dev_terms - (y - mu)))
    df = dm.n_obs - dm.n_params
    return GofResult(pearson_chi2=pearson, deviance=deviance, df=df,
                     p_value=float(chdtrc(df, pearson)))


# ---------------------------------------------------------------------------
# NB2 negative binomial
#
# params layout: (beta_0 .. beta_{p-1}, t) with t = ln alpha.


def _gamma_ratio_sums(y, r, need_trigamma=False):
    """Exact sums replacing the Gamma-ratio terms for integer counts.

    Returns (lng, dig, trg) gathered per observation:
      lng = ln Gamma(y+r) - ln Gamma(r)   = sum_{k<y} ln(r+k)
      dig = digamma(y+r) - digamma(r)     = sum_{k<y} 1/(r+k)
      trg = trigamma(y+r) - trigamma(r)   = -sum_{k<y} 1/(r+k)^2
    """
    ks = np.arange(int(y.max()) if y.size else 0, dtype=np.float64)
    base = r + ks
    lng = np.concatenate([[0.0], np.cumsum(np.log(base))])[y]
    dig = np.concatenate([[0.0], np.cumsum(1.0 / base)])[y]
    trg = None
    if need_trigamma:
        trg = -np.concatenate([[0.0], np.cumsum(1.0 / base ** 2)])[y]
    return lng, dig, trg


def negbin_loglik(params, x, y) -> float:
    params = np.asarray(params, dtype=np.float64)
    y = np.asarray(y)
    beta, t = params[:-1], params[-1]
    r = np.exp(-t)
    eta = x @ beta
    # a huge ln alpha underflows r to 0: log(0) and 0 * inf give a
    # non-finite ll, which the line search rejects
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        amu = np.exp(t + eta)
        lng, _, _ = _gamma_ratio_sums(y, r)
        ll = lng - gammaln(y + 1.0) - r * np.log1p(amu) \
            + y * (t + eta - np.log1p(amu))
    return float(np.sum(ll))


def negbin_score(params, x, y) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    y = np.asarray(y)
    beta, t = params[:-1], params[-1]
    r = np.exp(-t)
    mu = np.exp(x @ beta)
    amu = np.exp(t) * mu
    yf = y.astype(np.float64)
    g_beta = x.T @ ((yf - mu) / (1.0 + amu))
    _, dig, _ = _gamma_ratio_sums(y, r)
    g_t = np.sum(r * (np.log1p(amu) - dig) + (yf - mu) / (1.0 + amu))
    return np.append(g_beta, g_t)


def negbin_hessian(params, x, y) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    y = np.asarray(y)
    beta, t = params[:-1], params[-1]
    a, r = np.exp(t), np.exp(-t)
    mu = np.exp(x @ beta)
    amu = a * mu
    denom = 1.0 + amu
    yf = y.astype(np.float64)

    w = mu * (1.0 + a * yf) / denom ** 2
    h_bb = -(x * w[:, None]).T @ x
    h_bt = x.T @ (-(yf - mu) * amu / denom ** 2)
    _, dig, trg = _gamma_ratio_sums(y, r, need_trigamma=True)
    h_tt = np.sum(
        -r * (np.log1p(amu) - dig)
        + mu / denom
        + r ** 2 * trg
        - amu * (yf - mu) / denom ** 2)

    h = np.empty((params.size, params.size))
    h[:-1, :-1] = h_bb
    h[:-1, -1] = h[-1, :-1] = h_bt
    h[-1, -1] = h_tt
    return h


def negbin_start(pois: FitResult, dm: DesignMatrix) -> np.ndarray:
    """NB2 start (beta..., ln alpha) from a Poisson fit on ``dm``: its
    coefficients and the method-of-moments alpha of its residuals,
    floored at 0.01."""
    y = dm.y.astype(np.float64)
    mu = np.exp(dm.x @ pois.coef)
    num = float(np.sum((y - mu) ** 2 - mu))
    den = float(np.sum(mu ** 2))
    alpha = max(0.01, num / den) if den > 0 else 0.01
    return np.append(pois.coef, np.log(alpha))


def negbin_fit(dm: DesignMatrix, start=None) -> FitResult:
    """NB2 MLE over (beta, ln alpha) by Newton iteration with step-halving.

    ``start`` is (beta..., ln_alpha) on the original covariate scale; by
    default it is ``negbin_start`` of a Poisson fit made here, so a caller
    that already holds that fit passes its ``negbin_start``. When the
    data are equidispersed the iteration drives alpha toward zero, where
    the likelihood flattens. Two exits reach the boundary: the clamp stop
    (a step takes ln alpha below ``LN_ALPHA_FLOOR``, where it is pinned,
    and the ln-alpha score there is <= 0) and the flat-tail relabel
    (converged with alpha below 1e-6). Both report alpha frozen at the
    floor, beta re-optimized there by a profile run whose iterations add
    to the main run's, ``alpha_boundary=True``, and NaN alpha standard
    errors (the information in ln alpha vanishes, so an interior-style
    interval would be meaningless). Interior optima report ln-alpha and
    alpha with delta-method standard errors and intervals. ``trace`` is
    ``{"iterations": k}``, plus ``"boundary": True`` at the boundary.
    """
    x, y = dm.x, dm.y
    n, p = x.shape
    if n <= p:
        raise DataError(f"need more observations ({n}) than parameters ({p})")
    scaler = _Scaler(x, dm.columns, dm.intercept)
    xs = scaler.x_scaled

    if start is None:
        start = negbin_start(poisson_fit(dm), dm)
    start = np.asarray(start, dtype=np.float64)
    if start.size != p + 1:
        raise DataError(f"start must have {p + 1} entries (beta, ln_alpha)")
    theta = np.append(scaler.from_original(start[:-1]), start[-1])

    ll_fn = lambda th: negbin_loglik(th, xs, y)
    g_fn = lambda th: negbin_score(th, xs, y)

    def conv_grad(th):
        orig = np.append(scaler.to_original(th[:-1]), th[-1])
        return negbin_score(orig, x, y)

    def clamp(th, ll):
        if th[-1] >= LN_ALPHA_FLOOR:
            return th, ll, False
        th[-1] = LN_ALPHA_FLOOR
        return th, ll_fn(th), g_fn(th)[-1] <= 0.0

    theta, ll, it, gmax, trace = _newton(
        theta, ll_fn, g_fn, lambda th: negbin_hessian(th, xs, y),
        conv_grad=conv_grad, label="negbin", project=clamp)
    boundary = trace.get("boundary", False)
    if not boundary and theta[-1] < LN_ALPHA_BOUNDARY:
        # converged in the flat tail: alpha is indistinguishable from zero
        # at this sample size, so report the boundary convention
        boundary = True
        theta[-1] = LN_ALPHA_FLOOR

    if boundary:
        # alpha pinned at the floor: finish the beta profile
        pin = lambda b: np.append(b, LN_ALPHA_FLOOR)
        beta_s, ll, it_profile, gmax, _ = _newton(
            theta[:-1],
            lambda b: negbin_loglik(pin(b), xs, y),
            lambda b: negbin_score(pin(b), xs, y)[:-1],
            lambda b: negbin_hessian(pin(b), xs, y)[:-1, :-1],
            conv_grad=lambda b: conv_grad(pin(b))[:-1],
            label="negbin (boundary)")
        theta = np.append(beta_s, LN_ALPHA_FLOOR)
        info = -negbin_hessian(theta, xs, y)[:-1, :-1]
        it += it_profile
        trace = {"iterations": it, "boundary": True}
    else:
        info = -negbin_hessian(theta, xs, y)
    se_all = _diag_se(scaler.cov_original(_invert_information(info, "negbin")),
                      "negbin")
    se = se_all[:p]
    t_se = float("nan") if boundary else float(se_all[p])

    beta = scaler.to_original(theta[:-1])
    t = float(theta[-1])
    alpha = float(np.exp(t))
    z, pv, lo, hi = _wald(beta, se)
    return FitResult(
        model="negbin", columns=dm.columns, coef=beta, std_err=se, z=z, p=pv,
        ci_low=lo, ci_high=hi, log_likelihood=ll, n_obs=n,
        iterations=it, grad_max_abs=gmax, design_key=dm.fingerprint(),
        alpha=alpha, ln_alpha=t,
        alpha_std_err=alpha * t_se, ln_alpha_std_err=t_se,
        alpha_ci=(float(np.exp(t - Z95 * t_se)), float(np.exp(t + Z95 * t_se))),
        ln_alpha_ci=(t - Z95 * t_se, t + Z95 * t_se),
        alpha_boundary=boundary, trace=trace)


def lr_test_alpha(poisson: FitResult, negbin: FitResult) -> LrAlphaResult:
    """Boundary LR test of alpha = 0 comparing nested fits on one design."""
    if poisson.model != "poisson" or negbin.model != "negbin":
        raise DataError("expected a poisson fit and a negbin fit, in that order")
    if poisson.design_key != negbin.design_key:
        raise DataError("fits were not run on the same design matrix")
    statistic = max(0.0, 2.0 * (negbin.log_likelihood - poisson.log_likelihood))
    return LrAlphaResult(statistic=statistic,
                         p_value=float(0.5 * chdtrc(1, statistic)))


# ---------------------------------------------------------------------------
# shared Newton machinery


class _Scaler:
    """Exact affine reparametrization: columns centered (when an intercept
    is present) and scaled to unit spread for the iteration, with the
    coefficient vector and covariance mapped back afterwards."""

    def __init__(self, x, columns, intercept):
        self.intercept_idx = columns.index(intercept) \
            if intercept in columns else None
        center = x.mean(axis=0) if self.intercept_idx is not None \
            else np.zeros(x.shape[1])
        scale = x.std(axis=0)
        scale[scale == 0.0] = 1.0
        if self.intercept_idx is not None:
            center[self.intercept_idx] = 0.0
            scale[self.intercept_idx] = 1.0
        self.center, self.scale = center, scale
        self.x_scaled = (x - center) / scale

    def to_original(self, beta_scaled):
        beta = beta_scaled / self.scale
        if self.intercept_idx is not None:
            # center[intercept] is 0, so the sum skips it by construction
            beta[self.intercept_idx] = beta_scaled[self.intercept_idx] - \
                float(np.sum(self.center / self.scale * beta_scaled))
        return beta

    def from_original(self, beta):
        beta_scaled = beta * self.scale
        if self.intercept_idx is not None:
            beta_scaled[self.intercept_idx] = beta[self.intercept_idx] + \
                float(np.sum(self.center * beta))
        return beta_scaled

    def cov_original(self, cov_scaled):
        """Map a covariance back to the original scale. Trailing
        parameters past the covariates (NB2's ln alpha) are not
        reparametrized: their Jacobian entries are the identity."""
        p = self.scale.size
        jac = np.eye(cov_scaled.shape[0])
        jac[:p, :p] = np.diag(1.0 / self.scale)
        if self.intercept_idx is not None:
            i = self.intercept_idx
            jac[i, :p] = -self.center / self.scale
            jac[i, i] = 1.0
        return jac @ cov_scaled @ jac.T


def _invert_information(info, label):
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"{label}: observed information is singular at the optimum") from exc
    return cov


def _diag_se(cov, label):
    diag = np.diag(cov).copy()
    if np.any(diag <= 0):
        raise ConvergenceError(
            f"{label}: observed information is not positive definite "
            f"at the optimum")
    return np.sqrt(diag)


def _line_step(theta, ll_cur, g, h, ll_fn, label):
    """One damped Newton step; falls back to a gradient step when the
    Newton direction is unusable. Returns (theta_new, ll_new).

    Acceptance allows float-level slack: near the optimum a genuine
    ascent step can change the log-likelihood by less than its own
    rounding noise.
    """
    direction = None
    try:
        direction = np.linalg.solve(-h, g)
        if not np.isfinite(direction).all() or float(g @ direction) <= 0.0:
            direction = None
    except np.linalg.LinAlgError:
        direction = None
    if direction is None:
        direction = g / max(1.0, float(np.max(np.abs(g))))

    slack = 1e-13 * max(1.0, abs(ll_cur))
    scale = 1.0
    for _ in range(MAX_HALVINGS):
        cand = theta + scale * direction
        ll_new = ll_fn(cand)
        if np.isfinite(ll_new) and ll_new > ll_cur - slack:
            return cand, ll_new
        scale *= 0.5
    if float(np.max(np.abs(g))) < GRAD_TOL:
        return theta, ll_cur
    raise ConvergenceError(
        f"{label}: step-halving exhausted without improving the "
        f"log-likelihood (ll={ll_cur:.6f})",
        trace={"ll": ll_cur, "grad_max_abs": float(np.max(np.abs(g)))})


def _newton(theta, ll_fn, g_fn, h_fn, label, conv_grad=None, project=None):
    """Maximize ll_fn by damped Newton iteration.

    Returns (theta, ll, iterations, grad_max_abs, trace); the trace is
    ``{"iterations": k}``. Convergence needs both a small relative
    log-likelihood change and a small gradient; ``conv_grad``, when
    given, supplies the gradient used for that check (and for reporting)
    in place of ``g_fn``. ``project``, when given, maps each accepted
    step ``(theta, ll)`` to ``(theta, ll, stop)`` before the check; a
    true ``stop`` ends the iteration at the projected point and adds
    ``"boundary": True`` to the trace. Raises ConvergenceError, with
    ``iterations``, ``ll`` and ``grad_max_abs`` in its trace, after
    MAX_ITER steps or when the start's log-likelihood is not finite.
    """
    if conv_grad is None:
        conv_grad = g_fn
    if project is None:
        project = lambda th, ll_th: (th, ll_th, False)
    ll = ll_fn(theta)
    if not np.isfinite(ll):
        raise ConvergenceError(f"{label}: log-likelihood not finite at start")
    for it in range(1, MAX_ITER + 1):
        step = _line_step(theta, ll, g_fn(theta), h_fn(theta), ll_fn, label)
        theta_new, ll_new, stop = project(*step)
        rel = abs(ll_new - ll) / max(1.0, abs(ll))
        theta, ll = theta_new, ll_new
        gmax = float(np.max(np.abs(conv_grad(theta))))
        if stop:
            return theta, ll, it, gmax, {"iterations": it, "boundary": True}
        if rel < LL_RTOL and gmax < GRAD_TOL:
            return theta, ll, it, gmax, {"iterations": it}
    raise ConvergenceError(
        f"{label}: no convergence in {MAX_ITER} iterations "
        f"(ll={ll:.6f}, grad_max_abs={gmax:.3e})",
        trace={"iterations": MAX_ITER, "ll": ll, "grad_max_abs": gmax})
