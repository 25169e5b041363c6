"""Spearman rank correlation over named columns.

Ranks use average-tie assignment; rho is the Pearson correlation of the
rank vectors and p-values come from the t approximation with n - 2
degrees of freedom, by ``tails.t_p``. Columns with zero variance have
undefined rho against everything; those pairs are reported as NaN.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .tails import t_p


@dataclass(frozen=True)
class SpearmanResult:
    names: tuple
    rho: np.ndarray
    p: np.ndarray
    n_obs: int
    degenerate: tuple = field(default_factory=tuple)

    def pair(self, a, b):
        i, j = self.names.index(a), self.names.index(b)
        return float(self.rho[i, j]), float(self.p[i, j])


def average_ranks(x) -> np.ndarray:
    """1-based ranks with ties assigned their group's average rank."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    order = np.argsort(x, kind="stable")
    sx = x[order]
    new_group = np.r_[True, sx[1:] != sx[:-1]]
    group = np.cumsum(new_group) - 1
    counts = np.bincount(group)
    first = np.r_[0, np.cumsum(counts[:-1])]
    group_rank = first + (counts - 1) / 2.0 + 1.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = group_rank[group]
    return ranks


def _rank_corr(rx, ry) -> float:
    """Pearson correlation of two rank vectors.

    Identical or exactly reversed rank vectors short-circuit to +/-1, so
    perfectly monotone inputs come out exact rather than within rounding
    error of 1.
    """
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        return float("nan")
    if np.array_equal(rx, ry):
        return 1.0
    if np.array_equal(ry, rx.size + 1.0 - rx):
        return -1.0
    r = float(np.dot(dx, dy) / np.sqrt(sxx * syy))
    return max(-1.0, min(1.0, r))


def spearman_rho(x, y) -> float:
    """Spearman rho of two vectors; NaN when either has zero variance."""
    return _rank_corr(average_ranks(x), average_ranks(y))


def _t_pvalue(rho, n):
    if np.isnan(rho):
        return float("nan")
    if abs(rho) >= 1.0:
        return 0.0
    t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    return t_p(t, n - 2)


def spearman_matrix(columns) -> SpearmanResult:
    """Symmetric (rho, p) matrices over a name -> vector mapping.

    Requires at least 3 observations and equal column lengths. Diagonal
    rho is 1 with p 0; pairs involving a zero-variance column are NaN and
    the offending names are listed in ``degenerate``.
    """
    names = tuple(columns)
    if not names:
        raise DataError("no columns to correlate")
    vectors = [np.asarray(columns[name], dtype=np.float64) for name in names]
    n = vectors[0].size
    if any(v.size != n for v in vectors):
        raise DataError("columns have unequal lengths")
    if n < 3:
        raise DataError(f"need at least 3 observations, got {n}")

    ranks = [average_ranks(v) for v in vectors]
    degenerate = tuple(name for name, r in zip(names, ranks) if np.ptp(r) == 0.0)

    k = len(names)
    rho = np.eye(k)
    p = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            r = _rank_corr(ranks[i], ranks[j])
            rho[i, j] = rho[j, i] = r
            p[i, j] = p[j, i] = _t_pvalue(r, n)
    return SpearmanResult(names=names, rho=rho, p=p, n_obs=n, degenerate=degenerate)
