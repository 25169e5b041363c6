"""Count regression: OLS/VIF screening, Poisson MLE with goodness of fit,
and NB2 negative binomial MLE with the boundary likelihood-ratio test.

Every fit reads one ``DesignMatrix``, whose ``build`` alone picks the
sample: listwise deletion over the response and the requested columns,
then the covariates constant on the rows left are dropped.

Both count models use a log link, ln mu = x beta. The negative binomial
variance is mu + alpha * mu^2; the heterogeneity parameter is estimated
on the log scale (t = ln alpha) so the alpha > 0 constraint never binds.
Standard errors come from the inverse observed information at the
optimum, and 95% intervals use coef +/- 1.959964 * se throughout.

Newton iteration runs on an internally centered and scaled copy of the
design (an exact affine reparametrization, mapped back afterwards);
covariates on wildly different scales would otherwise leave the
iteration stuck with the gradient above tolerance. ``_newton`` alone
judges convergence (``MAX_ITER``, ``LL_RTOL``, ``GRAD_TOL``), always on
the original-scale score (``_Scaler.score_original``).

The gamma-function terms of the NB2 likelihood are evaluated through
exact rising-factorial log sums, which stay accurate down to alpha ~ 0
(where the model collapses onto the Poisson) instead of cancelling
catastrophically like a difference of two large log-gammas would; at
r = 1 the same sums give ln y! in both likelihoods. The NB2 iteration
is unconstrained in ln alpha; a fit that converges with alpha below 1e-6
is reported at the boundary, alpha pinned at 1e-8.

Every p-value (Wald, goodness of fit, LR) comes from ``tails``.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataError
from .tails import chi2_p, normal_p

Z95 = 1.959964  # two-sided 95% normal quantile, reporting convention

MAX_ITER = 200
MAX_HALVINGS = 30
LL_RTOL = 1e-9
GRAD_TOL = 1e-6
LN_ALPHA_FLOOR = np.log(1e-8)   # reported t = ln alpha of a boundary fit
LN_ALPHA_BOUNDARY = np.log(1e-6)  # estimates below this report as boundary
COLLINEAR_TOL = 1e-12  # tolerance 1 - R_j^2 at or below this is collinear


# ---------------------------------------------------------------------------
# design matrix


@dataclass(frozen=True)
class DesignMatrix:
    """Response vector plus covariate matrix with named columns; the last
    column is the intercept ``_cons``. ``n_dropped_missing`` and
    ``dropped_constant`` record how ``build`` chose the sample. A design
    with no more rows than columns cannot be made, so no fit sees one."""

    y: np.ndarray
    x: np.ndarray
    columns: tuple
    n_dropped_missing: int = 0
    dropped_constant: tuple = ()

    def __post_init__(self):
        n, p = self.x.shape
        if n <= p:
            raise DataError(f"need more observations ({n}) than parameters ({p})")

    @property
    def n_obs(self):
        return self.y.size

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.y.tobytes())
        h.update(self.x.tobytes())
        h.update(repr(self.columns).encode())
        return h.hexdigest()

    @classmethod
    def build(cls, y, columns):
        """Assemble a design from a name -> vector mapping.

        The sample is decided here, once, in two steps. First the rows
        where the response or any requested column is missing (NaN) are
        dropped, listwise, and counted in ``n_dropped_missing``. Then each
        covariate that is constant on the rows left (collinear with the
        intercept) is dropped and named, in request order, in
        ``dropped_constant``. The response must be non-negative integers.
        An intercept column named ``_cons`` is appended last.
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
        mats = [m[keep] for m in mats]

        if y.size == 0:
            raise DataError("no complete rows left after dropping missing values")
        if np.any(y < 0) or np.any(y != np.floor(y)):
            raise DataError("response must be non-negative integer counts")

        constant = tuple(n for n, m in zip(names, mats) if np.ptp(m) == 0.0)
        kept = [(n, m) for n, m in zip(names, mats) if n not in constant]
        x = np.column_stack([m for _, m in kept] + [np.ones(y.size)])
        return cls(y=y.astype(np.int64), x=x,
                   columns=tuple(n for n, _ in kept) + ("_cons",),
                   n_dropped_missing=dropped, dropped_constant=constant)


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


def _screen(dm: DesignMatrix):
    """Centered cross products of ``[covariates | y]``, scaled to unit
    diagonal, and each covariate's tolerance ``1 - R_j^2`` on the other
    covariates and the intercept.

    Returns ``(mean, spread, corr, tolerance)``: the column means, the
    square roots of the centered sums of squares, the cross-product
    matrix divided by them (a constant column is left undivided) and the
    tolerances. The one pass over the rows is ``np.einsum``, numpy's own
    loop rather than BLAS, so no BLAS thread count reaches it; the rest
    is small LAPACK solves on the (k+1)x(k+1) matrix, whose unit diagonal
    keeps ``lstsq``'s rank cut-off free of the covariates' units. Each
    tolerance is the residual sum of squares of a least-squares fit
    inside that matrix (Belsley, Kuh & Welsch, Regression Diagnostics,
    1980), which holds when the other covariates are themselves
    collinear. A constant covariate has tolerance 0.
    """
    z = np.column_stack([dm.x[:, :-1], dm.y]).astype(np.float64)
    mean = z.mean(axis=0)
    z -= mean
    s = np.einsum("ni,nj->ij", z, z)
    spread = np.sqrt(np.diag(s))
    unit = np.where(spread > 0.0, spread, 1.0)
    corr = s / np.outer(unit, unit)
    k = corr.shape[0] - 1
    tolerance = np.zeros(k)
    for j in np.flatnonzero(spread[:k] > 0.0):
        others = np.arange(k) != j
        b = np.linalg.lstsq(corr[:k, :k][np.ix_(others, others)],
                            corr[:k, j][others], rcond=None)[0]
        tolerance[j] = corr[j, j] - corr[j, :k][others] @ b
    return mean, spread, corr, tolerance


def ols_fit(dm: DesignMatrix) -> OlsResult:
    """Least squares of the response on the design, solved from the
    centered cross products of ``_screen``; R-squared is centered (the
    design holds the intercept), and 0 with no covariate or a constant
    response.

    Raises DataError naming every covariate that ``vif`` reports as
    collinear: tolerance at or below ``COLLINEAR_TOL``, or constant.
    """
    mean, spread, corr, tolerance = _screen(dm)
    collinear = [name for name, t in zip(dm.columns, tolerance)
                 if t <= COLLINEAR_TOL]
    if collinear:
        raise DataError(f"design matrix is rank deficient; "
                        f"collinear column(s): {collinear}")
    k = tolerance.size
    # slopes and R^2 of the unit-scaled problem; both are 0 with no
    # covariate, and a constant response has slopes 0
    b = np.linalg.solve(corr[:k, :k], corr[:k, k])
    r2 = float(corr[k, :k] @ b) if spread[k] > 0.0 else 0.0
    slopes = b * spread[k] / spread[:k]
    coef = np.append(slopes, mean[k] - mean[:k] @ slopes)
    return OlsResult(columns=dm.columns, coef=coef, r_squared=r2,
                     n_obs=dm.n_obs)


def vif(dm: DesignMatrix):
    """Variance inflation factor and tolerance (1/VIF) per covariate, each
    covariate regressed on all the other columns, intercept included.
    A collinear covariate (tolerance at or below ``COLLINEAR_TOL``, or
    constant) reports an infinite VIF and tolerance 0 rather than
    failing."""
    out = []
    for name, t in zip(dm.columns, _screen(dm)[3]):
        t = float(t)
        if t <= COLLINEAR_TOL:
            out.append(VifEntry(name=name, vif=float("inf"), tolerance=0.0))
        else:
            out.append(VifEntry(name=name, vif=1.0 / t, tolerance=t))
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
    p = np.array([normal_p(v) for v in z.tolist()])
    return z, p, coef - Z95 * se, coef + Z95 * se


# ---------------------------------------------------------------------------
# Poisson


def poisson_loglik(beta, x, y) -> float:
    eta = x @ beta
    with np.errstate(over="ignore"):
        ln_y_factorial = _gamma_ratio_sums(y, 1.0)[0]
        return float(np.sum(y * eta - np.exp(eta) - ln_y_factorial))


def poisson_score(beta, x, y) -> np.ndarray:
    mu = np.exp(x @ beta)
    return x.T @ (y - mu)


def poisson_hessian(beta, x, y) -> np.ndarray:
    mu = np.exp(x @ beta)
    return -(x * mu[:, None]).T @ x


def poisson_fit(dm: DesignMatrix) -> FitResult:
    """Poisson MLE by Newton-Raphson with step-halving.

    Converges by ``_newton``'s rule (``LL_RTOL``, ``GRAD_TOL``). Raises
    ConvergenceError with an iteration trace on failure, including the
    boundary case of an all-zero response (no finite optimum).
    """
    x, y = dm.x, dm.y
    n, p = x.shape
    if y.sum() == 0:
        raise ConvergenceError(
            "Poisson MLE diverges: response is identically zero, the "
            "optimum sits at mu -> 0 (log-likelihood unbounded below)",
            trace={"boundary": "all-zero response"})

    scaler = _Scaler(x)
    xs = scaler.x_scaled
    start = np.zeros(p)
    start[-1] = np.log(y.mean())

    theta, ll, it, gmax = _newton(
        start,
        lambda b: poisson_loglik(b, xs, y),
        lambda b: poisson_score(b, xs, y),
        lambda b: poisson_hessian(b, xs, y),
        scaler, label="poisson")

    beta = scaler.to_original(theta)
    se = _std_errors(-poisson_hessian(theta, xs, y), scaler, "poisson")
    z, pv, lo, hi = _wald(beta, se)
    return FitResult(
        model="poisson", columns=dm.columns, coef=beta, std_err=se, z=z, p=pv,
        ci_low=lo, ci_high=hi, log_likelihood=ll, n_obs=n, iterations=it,
        grad_max_abs=gmax, design_key=dm.fingerprint())


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
    df = dm.n_obs - dm.x.shape[1]
    return GofResult(pearson_chi2=pearson, deviance=deviance, df=df,
                     p_value=chi2_p(pearson, df))


# ---------------------------------------------------------------------------
# NB2 negative binomial
#
# params layout: (beta_0 .. beta_{p-1}, t) with t = ln alpha.


def _gamma_ratio_sums(y, r, need_trigamma=False):
    """Exact sums replacing the Gamma-ratio terms for integer counts.

    Returns (lng, dig, trg) gathered per observation:
      lng = ln Gamma(y+r) - ln Gamma(r)   = sum_{k<y} ln(r+k), ln y! at r = 1
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
    beta, t = params[:-1], params[-1]
    eta = x @ beta
    # a huge ln alpha underflows r to 0, a hugely negative one overflows it:
    # log(0), 0 * inf and inf - inf give a non-finite ll, which the line
    # search rejects
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r = np.exp(-t)
        amu = np.exp(t + eta)
        lng, _, _ = _gamma_ratio_sums(y, r)
        ll = lng - _gamma_ratio_sums(y, 1.0)[0] - r * np.log1p(amu) \
            + y * (t + eta - np.log1p(amu))
    return float(np.sum(ll))


def negbin_score(params, x, y) -> np.ndarray:
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


def negbin_fit(dm: DesignMatrix, start) -> FitResult:
    """NB2 MLE over (beta, ln alpha) by Newton iteration with step-halving.

    ``start`` is (beta..., ln_alpha) on the original covariate scale, such
    as ``negbin_start`` of the caller's Poisson fit. When the data are
    equidispersed the iteration drives alpha toward zero, where the
    likelihood flattens, and converges in that flat tail. One rule
    reaches the boundary: a converged ln alpha below ``LN_ALPHA_BOUNDARY``
    (alpha below 1e-6) is pinned at ``LN_ALPHA_FLOOR`` (alpha 1e-8), and
    beta is re-optimized there by a profile run whose iterations add to
    the main run's. Such a fit reports ``alpha_boundary=True`` and NaN
    alpha standard errors (the information in ln alpha vanishes, so an
    interior-style interval would be meaningless). Interior optima report
    ln-alpha and alpha with delta-method standard errors and intervals.
    """
    x, y = dm.x, dm.y
    n, p = x.shape
    scaler = _Scaler(x)
    xs = scaler.x_scaled

    start = np.asarray(start, dtype=np.float64)
    if start.size != p + 1:
        raise DataError(f"start must have {p + 1} entries (beta, ln_alpha)")
    theta = np.append(scaler.from_original(start[:-1]), start[-1])

    theta, ll, it, gmax = _newton(
        theta,
        lambda th: negbin_loglik(th, xs, y),
        lambda th: negbin_score(th, xs, y),
        lambda th: negbin_hessian(th, xs, y),
        scaler, label="negbin")
    boundary = bool(theta[-1] < LN_ALPHA_BOUNDARY)
    if boundary:
        # alpha is indistinguishable from zero at this sample size: pin it
        # at the floor and finish the beta profile there
        pin = lambda b: np.append(b, LN_ALPHA_FLOOR)
        beta_s, ll, it_profile, gmax = _newton(
            theta[:-1],
            lambda b: negbin_loglik(pin(b), xs, y),
            lambda b: negbin_score(pin(b), xs, y)[:-1],
            lambda b: negbin_hessian(pin(b), xs, y)[:-1, :-1],
            scaler, label="negbin (boundary)")
        theta = np.append(beta_s, LN_ALPHA_FLOOR)
        info = -negbin_hessian(theta, xs, y)[:-1, :-1]
        it += it_profile
    else:
        info = -negbin_hessian(theta, xs, y)
    se_all = _std_errors(info, scaler, "negbin")
    se = se_all[:p]
    t_se = float("nan") if boundary else float(se_all[p])

    beta = scaler.to_original(theta[:-1])
    t = float(theta[-1])
    alpha = float(np.exp(t))
    with np.errstate(over="ignore"):  # a vast ln-alpha error: bound inf
        alpha_ci = (float(np.exp(t - Z95 * t_se)), float(np.exp(t + Z95 * t_se)))
    z, pv, lo, hi = _wald(beta, se)
    return FitResult(
        model="negbin", columns=dm.columns, coef=beta, std_err=se, z=z, p=pv,
        ci_low=lo, ci_high=hi, log_likelihood=ll, n_obs=n,
        iterations=it, grad_max_abs=gmax, design_key=dm.fingerprint(),
        alpha=alpha, ln_alpha=t,
        alpha_std_err=alpha * t_se, ln_alpha_std_err=t_se,
        alpha_ci=alpha_ci,
        ln_alpha_ci=(t - Z95 * t_se, t + Z95 * t_se),
        alpha_boundary=boundary)


def lr_test_alpha(poisson: FitResult, negbin: FitResult) -> LrAlphaResult:
    """Boundary LR test of alpha = 0 comparing nested fits on one design."""
    if poisson.model != "poisson" or negbin.model != "negbin":
        raise DataError("expected a poisson fit and a negbin fit, in that order")
    if poisson.design_key != negbin.design_key:
        raise DataError("fits were not run on the same design matrix")
    statistic = max(0.0, 2.0 * (negbin.log_likelihood - poisson.log_likelihood))
    return LrAlphaResult(statistic=statistic,
                         p_value=0.5 * normal_p(np.sqrt(statistic)))


# ---------------------------------------------------------------------------
# shared Newton machinery


class _Scaler:
    """Exact affine reparametrization of a design whose last column is the
    intercept: the other columns centered and scaled to unit spread for
    the iteration, with the coefficient vector and covariance mapped back
    afterwards."""

    def __init__(self, x):
        center = x.mean(axis=0)
        scale = x.std(axis=0)
        scale[scale == 0.0] = 1.0
        center[-1], scale[-1] = 0.0, 1.0
        self.center, self.scale = center, scale
        self.x_scaled = (x - center) / scale

    def to_original(self, beta_scaled):
        beta = beta_scaled / self.scale
        # center[-1] is 0, so the sum skips the intercept by construction
        beta[-1] = beta_scaled[-1] - \
            float(np.sum(self.center / self.scale * beta_scaled))
        return beta

    def from_original(self, beta):
        beta_scaled = beta * self.scale
        beta_scaled[-1] = beta[-1] + float(np.sum(self.center * beta))
        return beta_scaled

    def cov_original(self, cov_scaled):
        """Map a covariance back to the original scale. Trailing
        parameters past the covariates (NB2's ln alpha) are not
        reparametrized: their Jacobian entries are the identity."""
        p = self.scale.size
        jac = np.eye(cov_scaled.shape[0])
        jac[:p, :p] = np.diag(1.0 / self.scale)
        jac[p - 1, :p] = -self.center / self.scale
        jac[p - 1, p - 1] = 1.0
        return jac @ cov_scaled @ jac.T

    def score_original(self, g_scaled):
        """Map a score on the scaled design to the original scale, the
        transpose of ``from_original``'s map: g * scale + center *
        g_intercept. Trailing parameters (NB2's ln alpha) pass through."""
        p = self.scale.size
        g = g_scaled.copy()
        g[:p] = g_scaled[:p] * self.scale + self.center * g_scaled[p - 1]
        return g


def _std_errors(info, scaler, label):
    """Original-scale standard errors from the scaled observed information."""
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"{label}: observed information is singular at the optimum") from exc
    diag = np.diag(scaler.cov_original(cov))
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


def _newton(theta, ll_fn, g_fn, h_fn, scaler, label):
    """Maximize ll_fn by damped Newton iteration on ``scaler``'s design.

    Returns (theta, ll, iterations, grad_max_abs). Each step computes the
    score once and the next step reuses it. Convergence needs a relative
    log-likelihood change below LL_RTOL and the original-scale score
    (``scaler.score_original``) below GRAD_TOL; its max-abs is reported.
    Raises ConvergenceError, with ``iterations``, ``ll`` and
    ``grad_max_abs`` in its trace, after MAX_ITER steps or when the
    start's log-likelihood is not finite.
    """
    ll = ll_fn(theta)
    if not np.isfinite(ll):
        raise ConvergenceError(f"{label}: log-likelihood not finite at start")
    g = g_fn(theta)
    for it in range(1, MAX_ITER + 1):
        theta_new, ll_new = _line_step(theta, ll, g, h_fn(theta), ll_fn, label)
        rel = abs(ll_new - ll) / max(1.0, abs(ll))
        theta, ll, g = theta_new, ll_new, g_fn(theta_new)
        gmax = float(np.max(np.abs(scaler.score_original(g))))
        if rel < LL_RTOL and gmax < GRAD_TOL:
            return theta, ll, it, gmax
    raise ConvergenceError(
        f"{label}: no convergence in {MAX_ITER} iterations "
        f"(ll={ll:.6f}, grad_max_abs={gmax:.3e})",
        trace={"iterations": MAX_ITER, "ll": ll, "grad_max_abs": gmax})
