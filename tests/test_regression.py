"""Design assembly, OLS/VIF screening, Poisson and NB2 maximum likelihood."""

import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from surgnet import regression as reg
from surgnet.errors import ConvergenceError, DataError
from surgnet.regression import (
    Z95,
    DesignMatrix,
    lr_test_alpha,
    negbin_fit,
    negbin_hessian,
    negbin_loglik,
    negbin_score,
    ols_fit,
    poisson_fit,
    poisson_gof,
    poisson_hessian,
    poisson_loglik,
    poisson_score,
    vif,
)


def nb_draws(rng, mu, alpha):
    """Gamma-Poisson mixture: mean mu, variance mu + alpha mu^2."""
    if alpha == 0.0:
        return rng.poisson(mu)
    lam = rng.gamma(shape=1.0 / alpha, scale=alpha * mu)
    return rng.poisson(lam)


def simulated_design(rng, n, beta=(0.4, -0.2, 0.3), alpha=0.8):
    x1 = rng.normal(size=n)
    x2 = rng.uniform(-1, 1, size=n)
    mu = np.exp(beta[0] * x1 + beta[1] * x2 + beta[2])
    y = nb_draws(rng, mu, alpha)
    return DesignMatrix.build(y, {"x1": x1, "x2": x2})


def fit_both(dm):
    """The Poisson fit of ``dm`` and the NB2 fit started from it, as a run
    makes them."""
    pois = poisson_fit(dm)
    return pois, negbin_fit(dm, start=reg.negbin_start(pois, dm))


# ---------------------------------------------------------------------------
# design matrix


def test_build_orders_columns_with_intercept_last():
    y = [0, 1, 2, 1]
    dm = DesignMatrix.build(y, {"b": [1.0, 2.0, 3.0, 1.0],
                                "a": [4.0, 5.0, 6.0, 6.0]})
    assert dm.columns == ("b", "a", "_cons")
    assert_allclose(dm.x[:, 2], 1.0)
    assert dm.y.dtype == np.int64
    assert dm.n_obs == 4 and dm.x.shape == (4, 3)


def test_build_drops_incomplete_rows():
    y = [1.0, 2.0, np.nan, 3.0, 4.0]
    dm = DesignMatrix.build(y, {"a": [1.0, np.nan, 2.0, 3.0, 4.0]})
    assert dm.n_obs == 3
    assert dm.n_dropped_missing == 2
    assert list(dm.y) == [1, 3, 4]


def test_build_drops_incomplete_rows_before_constant_columns():
    # "k" is constant once its NaN row is gone: both are dropped, and the
    # NaN row stays out of the sample
    y = [1, 2, 0, 3, 4]
    dm = DesignMatrix.build(y, {"a": [1.0, 2.0, 3.0, 5.0, 4.0],
                                "k": [7.0, 7.0, np.nan, 7.0, 7.0],
                                "b": [0.5, 0.0, 1.0, 2.0, 1.5]})
    assert dm.columns == ("a", "b", "_cons")
    assert dm.dropped_constant == ("k",)
    assert dm.n_obs == 4 and dm.n_dropped_missing == 1
    assert list(dm.y) == [1, 2, 3, 4]
    assert_allclose(dm.x[:, 0], [1.0, 2.0, 5.0, 4.0])


def test_build_validation_errors():
    with pytest.raises(DataError, match="non-negative integer"):
        DesignMatrix.build([0, 1.5, 2], {"a": [1.0, 2.0, 3.0]})
    with pytest.raises(DataError, match="non-negative integer"):
        DesignMatrix.build([0, -1, 2], {"a": [1.0, 2.0, 3.0]})
    with pytest.raises(DataError, match="matching the response"):
        DesignMatrix.build([0, 1], {"a": [1.0, 2.0, 3.0]})
    with pytest.raises(DataError, match="no complete rows"):
        DesignMatrix.build([np.nan, np.nan], {"a": [1.0, 2.0]})


def test_fingerprint_tracks_content():
    dm1 = DesignMatrix.build([0, 1, 2], {"a": [1.0, 2.0, 3.0]})
    dm2 = DesignMatrix.build([0, 1, 2], {"a": [1.0, 2.0, 3.0]})
    dm3 = DesignMatrix.build([0, 1, 3], {"a": [1.0, 2.0, 3.0]})
    assert dm1.fingerprint() == dm2.fingerprint()
    assert dm1.fingerprint() != dm3.fingerprint()


# ---------------------------------------------------------------------------
# OLS + VIF


def test_ols_recovers_exact_coefficients():
    rng = np.random.default_rng(1)
    x = np.column_stack([rng.normal(size=50), rng.uniform(size=50),
                         np.ones(50)])
    beta = np.array([2.0, -1.5, 0.7])
    y = x @ beta
    res = ols_fit(DesignMatrix(y=y, x=x, columns=("a", "b", "_cons")))
    assert_allclose(res.coef, beta, atol=1e-10)
    assert res.r_squared == pytest.approx(1.0)
    assert res.n_obs == 50


def test_ols_r_squared_is_centered_with_constant():
    rng = np.random.default_rng(2)
    x1 = rng.normal(size=200)
    y = 1.0 + 0.5 * x1 + rng.normal(size=200)
    x = np.column_stack([x1, np.ones(200)])
    res = ols_fit(DesignMatrix(y=y, x=x, columns=("x1", "_cons")))
    assert res.r_squared == pytest.approx(np.corrcoef(x1, y)[0, 1] ** 2)


def test_ols_r_squared_is_exactly_zero_without_covariates():
    y = np.random.default_rng(0).poisson(2.5, size=300)
    res = ols_fit(DesignMatrix.build(y, {}))
    assert res.r_squared == 0.0
    assert res.coef.tolist() == [y.mean()]


def test_ols_rank_deficiency_names_columns():
    x1 = np.arange(10.0)
    x = np.column_stack([x1, 2 * x1, np.ones(10)])
    with pytest.raises(DataError, match=r"rank deficient; collinear "
                                        r"column\(s\): \['a', 'a_doubled'\]"):
        ols_fit(DesignMatrix(y=x1, x=x, columns=("a", "a_doubled", "_cons")))


def test_ols_needs_more_rows_than_columns():
    with pytest.raises(DataError, match="more observations"):
        ols_fit(DesignMatrix(y=np.ones(2), x=np.ones((2, 2)),
                             columns=("a", "_cons")))


def test_vif_matches_pairwise_r_squared():
    rng = np.random.default_rng(3)
    x1 = rng.normal(size=400)
    x2 = 0.9 * x1 + np.sqrt(1 - 0.81) * rng.normal(size=400)
    x = np.column_stack([x1, x2, np.ones(400)])
    entries = vif(DesignMatrix(y=x1, x=x, columns=("x1", "x2", "_cons")))
    assert [e.name for e in entries] == ["x1", "x2"]  # intercept excluded
    r2 = np.corrcoef(x1, x2)[0, 1] ** 2
    for e in entries:
        assert e.vif == pytest.approx(1.0 / (1.0 - r2), rel=1e-9)
        assert e.tolerance == pytest.approx(1.0 - r2, rel=1e-9)


def test_vif_flags_perfect_collinearity_as_inf():
    x1 = np.arange(12.0)
    x = np.column_stack([x1, 3 * x1 + 1, np.ones(12)])
    entries = vif(DesignMatrix(y=x1, x=x, columns=("a", "b", "_cons")))
    assert all(np.isinf(e.vif) and e.tolerance == 0.0 for e in entries)


def _lstsq_reference(x, target):
    """(coefficients, residual sum of squares, centered total sum of
    squares) of an n-row least-squares fit."""
    coef = np.linalg.lstsq(x, target, rcond=None)[0]
    resid = target - x @ coef
    return coef, resid @ resid, np.sum((target - target.mean()) ** 2)


def test_ols_and_vif_match_row_by_row_least_squares():
    rng = np.random.default_rng(5)
    n = 600
    base, noise = rng.normal(size=(n, 3)), 0.3 * rng.normal(size=(n, 5))
    # correlated covariates on scales from 1e-4 to 1e3, some off-center
    x = np.column_stack([
        1e-4 * (base[:, 0] + noise[:, 0]),
        50.0 + 12.0 * (0.8 * base[:, 0] + 0.6 * base[:, 1] + noise[:, 1]),
        1e3 * (base[:, 1] - 0.5 * base[:, 2] + noise[:, 2]),
        (base[:, 2] + noise[:, 3] > 0.0).astype(float),
        0.01 * (base[:, 0] + base[:, 2] + noise[:, 4]) + 3.0,
        np.ones(n),
    ])
    y = rng.poisson(np.exp(0.3 * base[:, 0] - 0.2 * base[:, 2] + 1.0))
    dm = DesignMatrix(y=y, x=x, columns=("a", "b", "c", "d", "e", "_cons"))

    coef, rss, sst = _lstsq_reference(x, y.astype(float))
    res = ols_fit(dm)
    assert_allclose(res.coef, coef, rtol=1e-9)
    assert res.r_squared == pytest.approx(1.0 - rss / sst, rel=1e-9)

    entries = vif(dm)
    assert [e.name for e in entries] == ["a", "b", "c", "d", "e"]
    for j, e in enumerate(entries):
        _, rss_j, sst_j = _lstsq_reference(np.delete(x, j, axis=1), x[:, j])
        assert e.vif == pytest.approx(sst_j / rss_j, rel=1e-9)
        assert e.tolerance == pytest.approx(rss_j / sst_j, rel=1e-9)
    assert max(e.vif for e in entries) > 5.0  # the correlation shows


def test_collinear_pair_is_inf_beside_an_independent_column():
    rng = np.random.default_rng(6)
    a, c = rng.normal(size=500), rng.normal(size=500)
    x = np.column_stack([a, 4.0 - 2.5 * a, c, np.ones(500)])
    dm = DesignMatrix(y=rng.poisson(2.0, size=500), x=x,
                      columns=("a", "b", "c", "_cons"))
    entries = vif(dm)
    assert [np.isinf(e.vif) and e.tolerance == 0.0 for e in entries] == \
        [True, True, False]
    assert entries[2].vif == pytest.approx(1.0, abs=0.02)
    with pytest.raises(DataError,
                       match=r"collinear column\(s\): \['a', 'b'\]$"):
        ols_fit(dm)


def test_vif_near_one_for_independent_columns():
    rng = np.random.default_rng(4)
    x = np.column_stack([rng.normal(size=3000), rng.normal(size=3000),
                         np.ones(3000)])
    entries = vif(DesignMatrix(y=x[:, 0], x=x, columns=("a", "b", "_cons")))
    for e in entries:
        assert e.vif == pytest.approx(1.0, abs=0.01)


# ---------------------------------------------------------------------------
# Poisson likelihood, score, Hessian


def test_poisson_loglik_matches_scipy():
    rng = np.random.default_rng(5)
    x = np.column_stack([rng.normal(size=30), np.ones(30)])
    y = rng.integers(0, 6, size=30).astype(np.int64)
    beta = np.array([0.3, -0.2])
    assert poisson_loglik(beta, x, y) == pytest.approx(
        oracles.poisson_loglik_direct(beta, x, y), rel=1e-12)


def test_poisson_score_and_hessian_match_finite_differences():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = 40
        x = np.column_stack([rng.normal(scale=0.5, size=n),
                             rng.uniform(-1, 1, size=n), np.ones(n)])
        y = rng.integers(0, 8, size=n).astype(np.int64)
        beta = rng.normal(scale=0.5, size=3)
        g_fd = oracles.finite_diff_gradient(
            lambda b: poisson_loglik(b, x, y), beta)
        assert_allclose(poisson_score(beta, x, y), g_fd, rtol=1e-4, atol=1e-4)
        h_fd = oracles.finite_diff_jacobian(
            lambda b: poisson_score(b, x, y), beta)
        assert_allclose(poisson_hessian(beta, x, y), h_fd, rtol=1e-4, atol=1e-4)


def test_poisson_intercept_only_identity():
    rng = np.random.default_rng(7)
    y = rng.poisson(3.0, size=50)
    dm = DesignMatrix.build(y, {})
    fit = poisson_fit(dm)
    assert fit.coef[0] == pytest.approx(np.log(y.mean()), abs=1e-8)
    assert fit.model == "poisson"
    assert fit.grad_max_abs < 1e-6


def test_poisson_fit_recovers_simulated_coefficients():
    rng = np.random.default_rng(8)
    n = 4000
    x1 = rng.normal(size=n)
    y = rng.poisson(np.exp(0.5 * x1 + 0.2))
    dm = DesignMatrix.build(y, {"x1": x1})
    fit = poisson_fit(dm)
    assert fit.coef[0] == pytest.approx(0.5, abs=0.05)
    assert fit.coef[1] == pytest.approx(0.2, abs=0.05)
    # standard errors equal the inverse-information diagonal
    mu = np.exp(dm.x @ fit.coef)
    info = (dm.x * mu[:, None]).T @ dm.x
    assert_allclose(fit.std_err, np.sqrt(np.diag(np.linalg.inv(info))),
                    rtol=1e-6)
    assert fit.log_likelihood == pytest.approx(
        oracles.poisson_loglik_direct(fit.coef, dm.x, dm.y), rel=1e-12)


def test_wald_interval_invariant():
    rng = np.random.default_rng(9)
    dm = simulated_design(rng, 600)
    for fit in fit_both(dm):
        assert_allclose(fit.ci_low, fit.coef - Z95 * fit.std_err, rtol=1e-12)
        assert_allclose(fit.ci_high, fit.coef + Z95 * fit.std_err, rtol=1e-12)
        assert_allclose(fit.z, fit.coef / fit.std_err, rtol=1e-12)
        from scipy import stats
        assert_allclose(fit.p, 2 * stats.norm.sf(np.abs(fit.z)), rtol=1e-12)
        assert fit.design_key == dm.fingerprint()


def test_poisson_all_zero_response_is_boundary_error():
    dm = DesignMatrix.build(np.zeros(20), {"a": np.arange(20.0)})
    with pytest.raises(ConvergenceError) as exc_info:
        poisson_fit(dm)
    assert exc_info.value.trace == {"boundary": "all-zero response"}


def test_poisson_needs_more_rows_than_params():
    # no fit is handed such a design: making it fails
    with pytest.raises(DataError, match=r"^need more observations \(2\) "
                                        r"than parameters \(2\)$"):
        poisson_fit(DesignMatrix.build([1, 2], {"a": [0.0, 1.0]}))


# ---------------------------------------------------------------------------
# goodness of fit


def test_gof_hand_computed_on_intercept_only():
    y = np.array([1, 3, 0, 2])
    dm = DesignMatrix.build(y, {})
    fit = poisson_fit(dm)
    gof = poisson_gof(fit, dm)
    mu = y.mean()
    assert gof.pearson_chi2 == pytest.approx(np.sum((y - mu) ** 2 / mu))
    expected_dev = 2 * sum(
        (yi * np.log(yi / mu) if yi > 0 else 0.0) - (yi - mu) for yi in y)
    assert gof.deviance == pytest.approx(expected_dev)
    assert gof.df == 3
    from scipy import stats
    assert gof.p_value == pytest.approx(stats.chi2.sf(gof.pearson_chi2, 3),
                                       rel=1e-12)


def test_gof_rejects_overdispersed_data():
    rng = np.random.default_rng(10)
    dm = simulated_design(rng, 2000, alpha=1.2)
    gof = poisson_gof(poisson_fit(dm), dm)
    assert gof.pearson_chi2 > 2 * gof.df
    assert gof.p_value < 1e-6


def test_gof_of_an_overflowing_fit_is_a_labelled_error():
    # exp(x @ beta) overflows to inf on rows with y = 0 and y > 0 alike
    dm = simulated_design(np.random.default_rng(12), 200)
    fit = dataclasses.replace(poisson_fit(dm), coef=np.array([800.0, 0.0, 0.0]))
    assert np.any(dm.y[dm.x[:, 0] > 1.0] == 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="fitted mean of zero or not finite"):
            poisson_gof(fit, dm)


def test_gof_design_mismatch_errors():
    rng = np.random.default_rng(11)
    dm1 = simulated_design(rng, 300)
    dm2 = simulated_design(rng, 300)
    fit = poisson_fit(dm1)
    with pytest.raises(DataError, match="do not match"):
        poisson_gof(fit, dm2)
    with pytest.raises(DataError, match="Poisson"):
        poisson_gof(fit_both(dm1)[1], dm1)


# ---------------------------------------------------------------------------
# negative binomial


def test_negbin_loglik_matches_scipy_nbinom():
    rng = np.random.default_rng(12)
    x = np.column_stack([rng.normal(size=40), np.ones(40)])
    y = rng.integers(0, 10, size=40).astype(np.int64)
    for alpha in (0.05, 0.5, 1.5, 4.0):
        params = np.array([0.4, -0.1, np.log(alpha)])
        assert negbin_loglik(params, x, y) == pytest.approx(
            oracles.negbin_loglik_direct(params[:-1], alpha, x, y), rel=1e-10)


def test_negbin_gamma_terms_match_gammaln():
    from scipy.special import gammaln
    y = np.array([0, 1, 2, 7, 19])
    for r in (0.3, 1.0, 12.5):
        lng, dig, trg = reg._gamma_ratio_sums(y, r, need_trigamma=True)
        assert_allclose(lng, gammaln(y + r) - gammaln(r), rtol=1e-12, atol=1e-12)
        from scipy.special import polygamma
        assert_allclose(dig, polygamma(0, y + r) - polygamma(0, r), rtol=1e-10)
        assert_allclose(trg, polygamma(1, y + r) - polygamma(1, r),
                        rtol=1e-9, atol=1e-12)
    # at r = 1 the sums are ln y!, which both likelihoods use
    assert_allclose(reg._gamma_ratio_sums(y, 1.0)[0], gammaln(y + 1.0),
                    rtol=1e-13, atol=0.0)


def test_negbin_score_and_hessian_match_finite_differences():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = 40
        x = np.column_stack([rng.normal(scale=0.5, size=n),
                             rng.uniform(-1, 1, size=n), np.ones(n)])
        y = rng.integers(0, 8, size=n).astype(np.int64)
        params = np.append(rng.normal(scale=0.5, size=3),
                           rng.uniform(-2.0, 1.0))
        g_fd = oracles.finite_diff_gradient(
            lambda th: negbin_loglik(th, x, y), params)
        assert_allclose(negbin_score(params, x, y), g_fd, rtol=1e-4, atol=1e-4)
        h_fd = oracles.finite_diff_jacobian(
            lambda th: negbin_score(th, x, y), params)
        assert_allclose(negbin_hessian(params, x, y), h_fd,
                        rtol=1e-4, atol=1e-4)


def test_negbin_fit_recovers_simulated_parameters():
    rng = np.random.default_rng(14)
    n = 3000
    x1 = rng.normal(size=n)
    mu = np.exp(0.5 * x1 + 0.3)
    y = nb_draws(rng, mu, 1.0)
    dm = DesignMatrix.build(y, {"x1": x1})
    fit = fit_both(dm)[1]
    assert fit.model == "negbin"
    assert fit.coef[0] == pytest.approx(0.5, abs=0.08)
    assert fit.coef[1] == pytest.approx(0.3, abs=0.08)
    assert fit.alpha == pytest.approx(1.0, abs=0.2)
    assert not fit.alpha_boundary
    assert fit.grad_max_abs < 1e-6
    assert fit.ln_alpha == pytest.approx(np.log(fit.alpha), rel=1e-12)
    # delta-method relation between the alpha and ln-alpha standard errors
    assert fit.alpha_std_err == pytest.approx(fit.alpha * fit.ln_alpha_std_err,
                                              rel=1e-12)
    lo, hi = fit.alpha_ci
    assert lo == pytest.approx(
        np.exp(fit.ln_alpha - Z95 * fit.ln_alpha_std_err), rel=1e-12)
    assert hi == pytest.approx(
        np.exp(fit.ln_alpha + Z95 * fit.ln_alpha_std_err), rel=1e-12)
    assert fit.log_likelihood == pytest.approx(
        oracles.negbin_loglik_direct(fit.coef, fit.alpha, dm.x, dm.y),
        rel=1e-10)


def test_negbin_nesting_at_tiny_alpha():
    rng = np.random.default_rng(15)
    dm = simulated_design(rng, 500, alpha=0.0)
    pois = poisson_fit(dm)
    params = np.append(pois.coef, np.log(1e-10))
    assert negbin_loglik(params, dm.x, dm.y) == pytest.approx(
        pois.log_likelihood, abs=1e-4)


def test_negbin_boundary_on_equidispersed_data():
    for n in (30, 2000, 20_000):
        rng = np.random.default_rng(16)
        x1 = rng.normal(size=n)
        y = rng.poisson(np.exp(0.3 * x1 + 0.5))
        pois, fit = fit_both(DesignMatrix.build(y, {"x1": x1}))
        assert fit.alpha_boundary
        assert fit.alpha == pytest.approx(1e-8, rel=1e-6)
        assert np.isnan(fit.ln_alpha_std_err) and np.isnan(fit.alpha_std_err)
        # the frozen-alpha fit still matches the Poisson solution
        assert_allclose(fit.coef, pois.coef, atol=1e-5)
        assert fit.log_likelihood == pytest.approx(pois.log_likelihood,
                                                   abs=1e-3)
        lr = lr_test_alpha(pois, fit)
        assert lr.statistic < 4.0
        assert lr.p_value >= 0.5 * 0.0455 - 1e-9  # chi2(1) tail at 4


def equidispersed_design(seed, n=200):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=n)
    return DesignMatrix.build(rng.poisson(np.exp(0.4 * x1 + 0.2)), {"x1": x1})


def boundary_fit_runs(monkeypatch, dm):
    """NB2 fit of ``dm`` with every ``_newton`` run recorded as (label,
    final last parameter, iterations)."""
    start = reg.negbin_start(poisson_fit(dm), dm)
    runs = []
    newton = reg._newton

    def recording(*args, **kwargs):
        theta, ll, it, gmax = newton(*args, **kwargs)
        runs.append((kwargs["label"], float(theta[-1]), it))
        return theta, ll, it, gmax

    with monkeypatch.context() as patch:
        patch.setattr(reg, "_newton", recording)
        fit = negbin_fit(dm, start=start)
    assert [r[0] for r in runs] == ["negbin", "negbin (boundary)"]
    assert fit.alpha_boundary
    assert fit.alpha == pytest.approx(1e-8, rel=1e-12)
    assert np.isnan(fit.alpha_std_err) and np.isnan(fit.ln_alpha_std_err)
    assert fit.iterations == runs[0][2] + runs[1][2]
    return runs[0]


def test_negbin_boundary_exit_by_flat_tail_relabel(monkeypatch):
    # seed 7 is a design whose iteration runs past ln alpha = LN_ALPHA_FLOOR
    for seed in (4, 7):
        _, ln_alpha, _ = boundary_fit_runs(monkeypatch,
                                           equidispersed_design(seed))
        assert ln_alpha < reg.LN_ALPHA_BOUNDARY


def test_fits_raise_labelled_non_convergence(monkeypatch):
    dm = simulated_design(np.random.default_rng(9), 600)
    start = reg.negbin_start(poisson_fit(dm), dm)
    monkeypatch.setattr(reg, "MAX_ITER", 1)
    for label, fit in (("poisson", lambda: poisson_fit(dm)),
                       ("negbin", lambda: negbin_fit(dm, start=start))):
        with pytest.raises(ConvergenceError,
                           match=f"^{label}: no convergence in 1 iter"
                           ) as exc_info:
            fit()
        trace = exc_info.value.trace
        assert set(trace) == {"iterations", "ll", "grad_max_abs"}
        assert trace["iterations"] == 1 and np.isfinite(trace["ll"])
        assert trace["grad_max_abs"] >= reg.GRAD_TOL


def test_negbin_alpha_interval_past_float_range_is_inf():
    # ten counts, one covariate: ln alpha is interior, but its standard
    # error is in the thousands, so exp of the upper limit overflows
    dm = DesignMatrix.build([3, 2, 0, 1, 0, 1, 0, 0, 1, 2],
                            {"x1": [2, 0, 2, 2, 0, 1, 1, 1, 2, 0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_both(dm)[1]
    assert not fit.alpha_boundary
    assert fit.ln_alpha_std_err > 1000.0
    assert fit.alpha_ci[1] == np.inf and 0.0 <= fit.alpha_ci[0] < fit.alpha


def test_negbin_non_finite_start_fails_at_start():
    dm = simulated_design(np.random.default_rng(9), 200)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(ConvergenceError,
                          match="^negbin: log-likelihood not finite at start"):
        negbin_fit(dm, start=np.append(np.zeros(3), 1000.0))


def test_negbin_huge_ln_alpha_is_rejected_without_warnings():
    # at ln alpha = 1000, r = exp(-ln alpha) underflows to 0; at -1000 it
    # overflows
    dm = simulated_design(np.random.default_rng(9), 200)
    theta = np.append(poisson_fit(dm).coef, np.log(0.01))

    def ll_fn(params):
        return negbin_loglik(params, dm.x, dm.y)

    ll = ll_fn(theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(ll_fn(np.append(theta[:-1], -1000.0)))
        assert not np.isfinite(ll_fn(np.append(theta[:-1], 1000.0)))
        # a Newton step whose first candidate lands exactly there
        step = np.append(np.zeros(3), 1000.0 - theta[-1])
        cand, ll_new = reg._line_step(theta, ll, step, -np.eye(4), ll_fn,
                                      "negbin")
    assert cand[-1] < 1000.0 and np.isfinite(ll_new) and ll_new > ll


def test_line_step_without_an_acceptable_halving():
    # no candidate has a finite log-likelihood, so every halving fails
    theta, h = np.zeros(2), -np.eye(2)

    def ll_fn(params):
        return -np.inf

    # a score below GRAD_TOL: the point is the optimum, and it stands
    g = np.array([0.5 * reg.GRAD_TOL, 0.0])
    cand, ll = reg._line_step(theta, -3.0, g, h, ll_fn, "poisson")
    assert cand is theta and ll == -3.0
    # a larger one: the search has failed
    with pytest.raises(ConvergenceError,
                       match="^poisson: step-halving exhausted") as exc_info:
        reg._line_step(theta, -3.0, np.array([0.5, -2.0]), h, ll_fn, "poisson")
    assert exc_info.value.trace == {"ll": -3.0, "grad_max_abs": 2.0}


def test_line_step_with_a_singular_hessian_follows_the_score():
    # np.linalg.solve refuses a singular matrix; the step is the score
    # scaled to a max-abs of 1
    theta, g = np.zeros(2), np.array([0.5, -2.0])
    cand, ll = reg._line_step(theta, -3.0, g, np.zeros((2, 2)),
                              lambda t: -3.0 + float(g @ t), "poisson")
    assert_allclose(cand, g / 2.0)
    assert ll == pytest.approx(-3.0 + g @ g / 2.0)


def test_std_errors_of_a_singular_information_are_a_convergence_error():
    x = np.column_stack([np.arange(4.0), np.ones(4)])
    with pytest.raises(ConvergenceError,
                       match="^negbin: observed information is singular"):
        reg._std_errors(np.ones((2, 2)), reg._Scaler(x), "negbin")


def test_negbin_explicit_start_agrees_with_warm_start():
    rng = np.random.default_rng(17)
    dm = simulated_design(rng, 800, alpha=0.8)
    pois, warm = fit_both(dm)
    assert np.array_equal(reg.negbin_start(pois, dm)[:-1], pois.coef)
    explicit = negbin_fit(dm, start=np.append(np.zeros(3), np.log(0.5)))
    assert_allclose(warm.coef, explicit.coef, atol=1e-6)
    assert warm.alpha == pytest.approx(explicit.alpha, abs=1e-6)
    with pytest.raises(DataError, match="entries"):
        negbin_fit(dm, start=np.zeros(2))


def test_lr_test_alpha():
    rng = np.random.default_rng(18)
    dm = simulated_design(rng, 2500, alpha=1.0)
    pois, nb = fit_both(dm)
    lr = lr_test_alpha(pois, nb)
    assert lr.statistic == pytest.approx(
        2 * (nb.log_likelihood - pois.log_likelihood))
    assert lr.statistic > 0
    assert lr.p_value < 1e-6
    from scipy import stats
    assert lr.p_value == pytest.approx(0.5 * stats.chi2.sf(lr.statistic, 1),
                                       rel=1e-12)


def test_lr_test_argument_validation():
    rng = np.random.default_rng(19)
    dm1 = simulated_design(rng, 400)
    dm2 = simulated_design(rng, 400)
    pois, nb = fit_both(dm1)
    with pytest.raises(DataError, match="in that order"):
        lr_test_alpha(nb, pois)
    with pytest.raises(DataError, match="same design"):
        lr_test_alpha(poisson_fit(dm2), nb)


def test_scaler_round_trip_is_exact_reparametrization():
    rng = np.random.default_rng(20)
    x = np.column_stack([rng.normal(50.0, 15.0, size=120),
                         rng.uniform(0.0, 0.01, size=120),
                         np.ones(120)])
    scaler = reg._Scaler(x)
    beta = np.array([0.02, 35.0, -1.0])
    # same linear predictor through either parametrization
    eta_orig = x @ beta
    eta_scaled = scaler.x_scaled @ scaler.from_original(beta.copy())
    assert_allclose(eta_scaled, eta_orig, rtol=1e-12)
    back = scaler.to_original(scaler.from_original(beta.copy()))
    assert_allclose(back, beta, rtol=1e-12)
    # covariance mapping: trailing parameters (NB2's ln alpha) pass through
    jac = np.diag(1.0 / scaler.scale)
    jac[2, :] = -scaler.center / scaler.scale
    jac[2, 2] = 1.0
    jac_t = np.zeros((4, 4))
    jac_t[:3, :3] = jac
    jac_t[3, 3] = 1.0
    root = rng.normal(size=(4, 4))
    cov = root @ root.T
    assert np.array_equal(scaler.cov_original(cov), jac_t @ cov @ jac_t.T)
    cov_b = np.ascontiguousarray(cov[:3, :3])
    assert np.array_equal(scaler.cov_original(cov_b), jac @ cov_b @ jac.T)
    # the scaled score maps back to the score on the original design
    y = rng.poisson(np.exp(x @ beta)).astype(np.float64)
    assert_allclose(
        scaler.score_original(poisson_score(scaler.from_original(beta.copy()),
                                            scaler.x_scaled, y)),
        poisson_score(beta, x, y), rtol=1e-9)


def test_ill_conditioned_design_still_converges():
    # covariates on wildly different scales, near-constant column included
    rng = np.random.default_rng(21)
    n = 1500
    age = rng.normal(55, 15, size=n)
    tiny = rng.uniform(0.0, 0.01, size=n)
    close = 0.9 + 0.01 * rng.uniform(size=n)
    mu = np.exp(0.005 * age + 20.0 * tiny + 0.2 * close - 1.0)
    y = nb_draws(rng, mu, 0.8)
    dm = DesignMatrix.build(y, {"age": age, "tiny": tiny, "close": close})
    fit = fit_both(dm)[1]
    assert fit.grad_max_abs < 1e-6
    assert fit.alpha > 0.3


def _scales_design(rng):
    # a covariate on a 1e-3 scale beside one on a 1e3 scale
    n = 2000
    tiny = rng.uniform(0.0, 2e-3, size=n)
    big = rng.uniform(0.0, 2e3, size=n)
    z = rng.normal(size=n)
    mu = np.exp(200.0 * tiny + 3e-4 * big + 0.2 * z - 0.3)
    return DesignMatrix.build(nb_draws(rng, mu, 0.8),
                              {"tiny": tiny, "big": big, "z": z})


def _small_alpha_design(rng):
    n = 2000
    x1, x2 = rng.normal(size=n), rng.uniform(-1, 1, size=n)
    mu = np.exp(0.4 * x1 - 0.2 * x2 + 1.0)
    return DesignMatrix.build(nb_draws(rng, mu, 0.05), {"x1": x1, "x2": x2})


def _assert_no_ascent(ll_u, u, n_steps=64, size=1e-3):
    """No step of length ``size`` in ``n_steps`` seeded random directions
    from ``u`` raises ``ll_u`` by more than float slack."""
    steps = np.random.default_rng(0).normal(size=(n_steps, u.size))
    steps *= size / np.linalg.norm(steps, axis=1, keepdims=True)
    ll0 = ll_u(u)
    gain = max(ll_u(u + step) for step in steps) - ll0
    assert gain <= 1e-12 * max(1.0, abs(ll0)), gain


def _assert_optimum(ll, theta, se, spread):
    """At ``theta``, the reported optimum of the log-likelihood ``ll``:
    the central-difference gradient is below 1e-4 of the score's spread
    (the root of the observed information), ``se`` equals
    sqrt(diag(inv(-H))) for H the finite-difference Hessian, at rtol 1e-3,
    and no small random step raises ``ll``. Differences and steps are
    taken in u = theta * spread, so that one step moves every parameter's
    term of the linear predictor alike."""
    def ll_u(u):
        return ll(u / spread)

    u = theta * spread
    grad = oracles.finite_diff_gradient(ll_u, u)
    hess = oracles.finite_diff_jacobian(
        lambda v: oracles.finite_diff_gradient(ll_u, v, step=1e-3), u,
        step=1e-3)
    assert np.all(np.abs(grad) < 1e-4 * np.sqrt(np.diag(-hess)))
    assert_allclose(np.sqrt(np.diag(np.linalg.inv(-hess))) / spread, se,
                    rtol=1e-3)
    _assert_no_ascent(ll_u, u)


@pytest.mark.parametrize("design, seed", [(_scales_design, 0),
                                          (_scales_design, 1),
                                          (_small_alpha_design, 0),
                                          (_small_alpha_design, 1)])
def test_reported_optima_are_maxima_of_the_direct_likelihoods(design, seed):
    dm = design(np.random.default_rng(seed))
    spread = dm.x.std(axis=0)
    spread[-1] = 1.0  # the intercept column is constant
    pois, nb = fit_both(dm)
    _assert_optimum(lambda b: oracles.poisson_loglik_direct(b, dm.x, dm.y),
                    pois.coef, pois.std_err, spread)
    assert not nb.alpha_boundary
    if design is _small_alpha_design:
        assert 0.02 < nb.alpha < 0.1
    _assert_optimum(
        lambda t: oracles.negbin_loglik_direct(t[:-1], np.exp(t[-1]),
                                               dm.x, dm.y),
        np.append(nb.coef, nb.ln_alpha),
        np.append(nb.std_err, nb.ln_alpha_std_err), np.append(spread, 1.0))
