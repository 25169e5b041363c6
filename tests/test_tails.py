"""Tail probabilities and log-factorials against scipy.special."""

import math
import sys

import numpy as np
import pytest
from scipy import special

from surgnet import regression as reg
from surgnet.tails import chi2_p, normal_p, t_p

DFS = (1, 2, 3, 5, 10, 30, 100, 1e3, 1e4, 2e4, 4e4, 1e5, 1e6)
# upper-tail probabilities from the centre out to the last normal floats
TAILS = (1 - 1e-12, 1 - 1e-6, 0.99, 0.9, 0.5, 0.1, 1e-2, 1e-5, 1e-10,
         1e-20, 1e-50, 1e-100, 1e-200, 1e-300)
RTOL = 1e-12

# Once x/2 is more than 0.4 a above a = df/2, scipy's chdtrc takes its
# prefactor from a ln x - x - lgamma(a), which for df > 400 errs by up to
# 1.2e-11 (at df = 2e4). The scipy grid skips those points; these are
# checked against the 50-digit value of mpmath's
# gammainc(df/2, x/2, inf, regularized=True), rounded to a float.
SCIPY_CHI2_INEXACT = {
    (1e3, 1500.0): 1.0454640385979657e-22,
    (1e3, 2500.0): 2.1059268048481405e-129,
    (1e3, 3500.0): 1.0443523005432747e-273,
    (1e4, 14500.0): 5.9567886276050193e-173,
    (1e4, 15500.0): 2.2870552980590461e-245,
    (1e4, 16000.0): 4.8904500985071235e-285,
    (2e4, 28100.0): 7.3058511877829664e-285,
    (2e4, 28300.0): 1.6780344899052465e-297,
}


def assert_tail(got, want, what):
    """Relative error within RTOL where ``want`` is a normal float, and
    exactly 0 where it is 0."""
    if want == 0.0:
        assert got == 0.0, what
    elif want >= sys.float_info.min:
        assert abs(got - want) <= RTOL * want, (what, got, want)


def test_normal_p_matches_ndtr():
    for z in np.linspace(0.0, 40.0, 801).tolist():
        assert_tail(normal_p(z), float(2.0 * special.ndtr(-z)), z)
        assert normal_p(-z) == normal_p(z)
    # math.erfc gives the subnormal 5.8e-316 here, ndtr gives 0
    assert normal_p(38.0) == 0.0


def test_chi2_p_matches_chdtrc():
    for df in DFS:
        xs = [float(special.chdtri(df, q)) for q in TAILS]
        for x in xs + [1.5 * xs[-1]]:
            if df > 400 and x > 1.4 * df:
                continue
            assert_tail(chi2_p(x, df), float(special.chdtrc(df, x)), (df, x))
    for (df, x), want in SCIPY_CHI2_INEXACT.items():
        assert_tail(chi2_p(x, df), want, (df, x))


def test_lr_tail_is_the_normal_tail_at_the_root():
    # chi-square(1) is the square of a standard normal
    for q in TAILS:
        x = float(special.chdtri(1, q))
        assert_tail(normal_p(math.sqrt(x)), float(special.chdtrc(1, x)), x)


def test_t_p_matches_stdtr():
    ts = np.r_[0.0, np.geomspace(1e-8, 0.25, 25), np.linspace(0.5, 40.0, 80),
               np.geomspace(40.0, 1e160, 60)]
    for df in DFS:
        for t in ts.tolist():
            if df == 1 and t < 1e-2:
                # scipy's stdtr errs by up to 3e-9 here; t(1) is Cauchy
                want = 2.0 / math.pi * math.atan2(1.0, t)
            else:
                want = float(2.0 * special.stdtr(df, -t))
            assert_tail(t_p(t, df), want, (df, t))
            assert t_p(-t, df) == t_p(t, df)


def test_edge_cases_agree_with_scipy():
    nan = math.nan
    assert math.isnan(normal_p(nan)) and math.isnan(special.ndtr(nan))
    for x, df in ((nan, 3.0), (3.0, nan), (-1.0, 3.0), (0.0, 0.0)):
        assert math.isnan(chi2_p(x, df)), (x, df)
        assert math.isnan(special.chdtrc(df, x)), (x, df)
    for t, df in ((nan, 3.0), (1.0, nan), (1.0, 0.0)):
        assert math.isnan(t_p(t, df)), (t, df)
        assert math.isnan(special.stdtr(df, -t)), (t, df)
    for df in DFS:
        assert t_p(0.0, df) == 1.0 == 2.0 * special.stdtr(df, 0.0)
        assert chi2_p(0.0, df) == 1.0 == special.chdtrc(df, 0.0)
        assert chi2_p(math.inf, df) == 0.0 == special.chdtrc(df, math.inf)
        assert t_p(math.inf, df) == 0.0 == special.stdtr(df, -math.inf)
    assert chi2_p(2.5, 0) == 0.0 == special.chdtrc(0, 2.5)


def test_log_factorial_matches_gammaln():
    y = np.arange(10**6 + 1)
    got = reg._gamma_ratio_sums(y, 1.0)[0]
    want = special.gammaln(y + 1.0)
    assert got[0] == got[1] == 0.0
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("df", [3, 40, 2000])
def test_tails_return_python_floats(df):
    for p in (normal_p(np.float64(1.5)), chi2_p(np.float64(df), df),
              t_p(np.float64(1.5), np.int64(df))):
        assert type(p) is float
