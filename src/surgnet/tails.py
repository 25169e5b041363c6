"""Tail probabilities of the run's tests, in plain floating point.

``normal_p`` is the two-sided p of a Wald z, and at sqrt(x) the
chi-square(1) tail of an LR statistic x. ``chi2_p`` is the Pearson
goodness-of-fit tail, the regularized incomplete gamma Q(df/2, x/2), by
the series and continued fraction of Numerical Recipes (3rd ed., 6.2).
``t_p`` is the two-sided Student-t p of a Spearman rho, the regularized
incomplete beta I_x(df/2, 1/2) at x = df/(df + t^2), by the BPSER series,
or the BGRAT expansion and BUP shift of DiDonato & Morris (ACM TOMS 18(3),
1992); the textbook beta fraction errs by 5e-11 at df = 10^6, t = 2.

Their prefactors x^a e^-x / Gamma(a) and x^a / B(a, 1/2) come from
Stirling's series with ln(1 + d) - d taken without cancellation, never
from a difference of two large log-gammas, which at df ~ 10^4 alone costs
about 1e-9 of relative accuracy. The tests hold every result within 1e-12
relative of scipy.special's, or of an exact value where scipy's own error
is larger. A tail below the smallest normal float is reported as 0.
"""

import math
import sys
from itertools import count

_TINY = sys.float_info.min
_EPS = sys.float_info.epsilon


def normal_p(z):
    """Two-sided p of a standard normal z: 2 Phi(-|z|)."""
    return _flush(math.erfc(abs(z) * math.sqrt(0.5)))


def chi2_p(x, df):
    """Upper tail of chi-square(df) at x: Q(df/2, x/2)."""
    x, df = float(x), float(df)
    if not (x >= 0.0 and df >= 0.0) or x == df == 0.0:
        return math.nan
    a, x = 0.5 * df, 0.5 * x
    if x == 0.0 or a == 0.0 or x == math.inf:
        return float(x == 0.0)
    if a < 10.0:
        front = math.exp(a * math.log(x) - x - math.lgamma(a))
    else:
        front = math.sqrt(0.5 * a / math.pi) * math.exp(
            a * _log1pmx((x - a) / a) - _stirling(a))
    if x < a + 1.0:  # 1 - P(a, x), P by its power series
        term = total = 1.0 / a
        for k in count(1):
            term *= x / (a + k)
            total += term
            if term < total * _EPS:
                return 1.0 - front * total
    # Q(a, x) by its continued fraction, evaluated by modified Lentz
    b, c = x + 1.0 - a, 1.0 / _TINY
    d = h = 1.0 / b
    for k in count(1):
        an, b = k * (a - k), b + 2.0
        d = 1.0 / ((an * d + b) or _TINY)
        c = (b + an / c) or _TINY
        h *= c * d
        if abs(c * d - 1.0) <= _EPS:
            return _flush(front * h)


def t_p(t, df):
    """Two-sided p of Student's t with df degrees of freedom."""
    t, df = float(t), float(df)
    if not df > 0.0 or t != t:
        return math.nan
    a, s = 0.5 * df, t * t / df  # x = 1 / (1 + s), 1 - x = s / (1 + s)
    if s == 0.0 or s == math.inf:
        return float(s == 0.0)
    x = 1.0 / (1.0 + s)
    head = math.exp(_half_ratio(a) - a * math.log1p(s)) / math.sqrt(math.pi)
    if x <= 0.7:  # TOMS 708's BPSER: the power series of I_x(a, 1/2) in x
        coef = total = 1.0
        for j in count(1):
            coef *= x * (j - 0.5) / j
            term = coef * a / (a + j)
            total += term
            if term < total * _EPS:
                return _flush(head / a * total)
    # BGRAT at a + n >= 15, plus the n terms x^a (1-x)^b / (a B(a, b)) of
    # I_x(a, b) - I_x(a + 1, b) (TOMS 708's BUP)
    n = max(0, math.ceil(15.0 - a))
    term, total = head * math.sqrt(s / (1.0 + s)) / a, 0.0
    for k in range(n):
        total += term
        term *= x * (a + k + 0.5) / (a + k + 1.0)
    return _flush(total + _bgrat(a + n, s))


def _half_ratio(a):
    """ln Gamma(a + 1/2) - ln Gamma(a)."""
    if a < 10.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    return (0.5 * math.log(a) + a * _log1pmx(0.5 / a)
            + _stirling(a + 0.5) - _stirling(a))


def _bgrat(a, s):
    """I_x(a, 1/2) at x = 1 / (1 + s) by the expansion of TOMS 708's BGRAT
    in Q(1/2, z) = erfc(sqrt z), z = -(a - 1/4) ln x, for a >= 15, x > 0.7."""
    nu, lnx = a - 0.25, -math.log1p(s)
    z = -nu * lnx
    r = math.sqrt(z / math.pi) * math.exp(-z)  # e^-z z^b / Gamma(b)
    u = r * math.exp(_half_ratio(a)) / math.sqrt(nu)
    if u == 0.0:
        return 0.0
    v, t2 = 0.25 / (nu * nu), 0.25 * lnx * lnx
    j = total = math.erfc(math.sqrt(z)) / r
    t = 1.0
    for n, dn in enumerate(_BGRAT_D, 1):
        bp2n = 2.0 * n - 1.5
        j = (bp2n * (bp2n + 1.0) * j + (z + bp2n + 1.0) * t) * v
        t *= t2
        total += dn * j
        if abs(dn * j) <= _EPS * total:
            break
    return u * total


def _bgrat_coefficients(b, terms):
    """BGRAT's d_1 .. d_terms, which depend on b alone."""
    c = [1.0 / math.factorial(2 * n + 1) for n in range(terms + 1)]
    d = [0.0]
    for n in range(1, terms + 1):
        d.append((b - 1.0) * c[n] + sum(
            (b * i - n) * c[i] * d[n - i] for i in range(1, n)) / n)
    return d[1:]


_BGRAT_D = _bgrat_coefficients(0.5, 30)


def _flush(p):
    return 0.0 if p < _TINY else p


def _stirling(a):
    """ln Gamma(a) - (a - 1/2) ln a + a - ln sqrt(2 pi), for a >= 10."""
    r = 1.0 / (a * a)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (
        1 / 1680 - r / 1188)))) / a


def _log1pmx(d):
    """ln(1 + d) - d, without the cancellation of that difference near 0."""
    if abs(d) > 0.5:
        return math.log1p(d) - d
    w = d / (2.0 + d)  # ln(1 + d) = 2 atanh(w) = 2 (w + w^3/3 + w^5/5 ...)
    s, w2 = 0.0, w * w
    for k in range(20, 0, -1):
        s = w2 * (1.0 / (2 * k + 1) + s)
    return w * (2.0 * s - d)
