"""Spearman rank correlation against scipy-based oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

import oracles
from surgnet.correlation import (
    average_ranks,
    spearman_matrix,
    spearman_rho,
)
from surgnet.errors import DataError


def test_average_ranks_hand_example():
    # ties share the average of the ranks they occupy
    assert_allclose(average_ranks([10.0, 20.0, 20.0, 30.0]),
                    [1.0, 2.5, 2.5, 4.0])
    assert_allclose(average_ranks([5.0, 5.0, 5.0]), [2.0, 2.0, 2.0])
    assert_allclose(average_ranks([3.0, 1.0, 2.0]), [3.0, 1.0, 2.0])


def test_average_ranks_match_scipy():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        x = rng.choice([0.0, 1.0, 2.5, 7.0, -3.0], size=n) \
            if rng.uniform() < 0.5 else rng.normal(size=n)
        assert_allclose(average_ranks(x), stats.rankdata(x, method="average"))


def test_monotone_inputs_give_exact_unit_rho():
    x = np.array([1.0, 4.0, 9.0, 16.0, 25.0])
    assert spearman_rho(x, np.log(x)) == 1.0
    assert spearman_rho(x, -np.sqrt(x)) == -1.0


def test_constant_vector_gives_nan():
    assert np.isnan(spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


def test_rho_matches_scipy_oracle_with_ties():
    rng = np.random.default_rng(123)
    for _ in range(300):
        n = int(rng.integers(3, 51))
        if rng.uniform() < 0.5:  # force ties
            x = rng.integers(0, 5, size=n).astype(float)
            y = rng.integers(0, 5, size=n).astype(float)
        else:
            x = rng.normal(size=n)
            y = x * rng.normal() + rng.normal(size=n)
        want_rho, want_p = oracles.spearman_by_scipy(x, y)
        got = spearman_rho(x, y)
        if np.isnan(want_rho):
            assert np.isnan(got)
        else:
            assert got == pytest.approx(want_rho, abs=1e-12)


def test_matrix_shape_and_symmetry():
    rng = np.random.default_rng(4)
    cols = {"a": rng.normal(size=30), "b": rng.normal(size=30),
            "c": rng.integers(0, 3, size=30).astype(float)}
    res = spearman_matrix(cols)
    assert res.names == ("a", "b", "c")
    assert res.n_obs == 30
    assert res.degenerate == ()
    assert_allclose(res.rho, res.rho.T)
    assert_allclose(np.diag(res.rho), 1.0)
    assert_allclose(np.diag(res.p), 0.0)
    for i, a in enumerate(res.names):
        for j, b in enumerate(res.names):
            if i == j:
                continue
            want_rho, want_p = oracles.spearman_by_scipy(cols[a], cols[b])
            assert res.rho[i, j] == pytest.approx(want_rho, abs=1e-12)
            assert res.p[i, j] == pytest.approx(want_p, rel=1e-12)


def test_pair_accessor():
    x = np.arange(10.0)
    res = spearman_matrix({"u": x, "v": -x})
    rho, p = res.pair("u", "v")
    assert rho == -1.0 and p == 0.0


def test_degenerate_column_reported_and_nan():
    res = spearman_matrix({"a": [1.0, 2.0, 3.0, 4.0],
                           "b": [2.0, 2.0, 2.0, 2.0],
                           "c": [4.0, 3.0, 2.0, 1.0]})
    assert res.degenerate == ("b",)
    i = res.names.index("b")
    assert np.isnan(res.rho[i, 0]) and np.isnan(res.p[i, 0])
    assert res.rho[0, 2] == -1.0


def test_matrix_errors():
    with pytest.raises(DataError, match="no columns"):
        spearman_matrix({})
    with pytest.raises(DataError, match="unequal"):
        spearman_matrix({"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0]})
    with pytest.raises(DataError, match="at least 3"):
        spearman_matrix({"a": [1.0, 2.0], "b": [3.0, 4.0]})


def test_pvalue_t_approximation():
    x = np.arange(20.0)
    rng = np.random.default_rng(9)
    y = x + rng.normal(scale=6.0, size=20)
    res = spearman_matrix({"x": x, "y": y})
    rho, p = res.pair("x", "y")
    t = rho * np.sqrt((20 - 2) / (1 - rho ** 2))
    assert p == pytest.approx(2 * stats.t.sf(abs(t), 18), rel=1e-12)
    assert 0.0 < p < 1.0
