"""The 0/1 CSR matrices and scipy's kernel behind their products, checked
bit for bit against ``scipy.sparse``."""

import importlib.machinery
import itertools
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from surgnet import csr
from surgnet.csr import Csr
from surgnet.network import CoworkerGraph, project_one_mode

# exact zeros of both signs, subnormals and the smallest normal
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308)


@st.composite
def matrices(draw, square=False, sorted_rows=False, repeats=False):
    """A 0/1 ``Csr`` with up to 9 rows and columns, empty rows and
    unused columns among them, rows in sorted or drawn column order;
    with ``repeats``, a row may list a column more than once."""
    m = draw(st.integers(0, 9))
    n = m if square else draw(st.integers(0, 9))
    columns = st.lists if repeats else st.sets
    rows = [sorted(draw(columns(st.integers(0, n - 1), max_size=n + 2)))
            if n else [] for _ in range(m)]
    if not sorted_rows:
        rows = [draw(st.permutations(row)) for row in rows]
    return Csr(np.cumsum([0] + [len(r) for r in rows]),
               [j for r in rows for j in r], n)


def scipy_of(a):
    return sparse.csr_matrix((np.ones(a.nnz), a.indices, a.indptr),
                             shape=a.shape)


@st.composite
def right_hand_sides(draw, n):
    """A vector of length n, or an (n, k) block in C or Fortran order."""
    values = st.one_of(st.sampled_from(EDGE_VALUES),
                       st.floats(-1e300, 1e300))
    k = draw(st.sampled_from([None, 1, 2, 5]))
    size = n * (k or 1)
    x = np.array(draw(st.lists(values, min_size=size, max_size=size)),
                 dtype=np.float64)
    if k is None:
        return x
    return x.reshape(k, n).T if draw(st.booleans()) else x.reshape(n, k)


@settings(max_examples=100, deadline=None)
@given(a=st.one_of(matrices(), matrices(repeats=True)), data=st.data())
def test_products_equal_scipy_bit_for_bit(a, data):
    # scipy sums a column listed twice in a row once per listing
    x = data.draw(right_hand_sides(a.shape[1]))
    got, want = a @ x, scipy_of(a) @ x
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    # the signs of the zeros too
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("shape", [(), (4,), (4, 2), (6, 1), (5, 2, 1)])
def test_a_mismatched_right_hand_side_is_refused(shape):
    # the kernel reads x unchecked, so its length is checked first
    with pytest.raises(ValueError, match="cannot multiply"):
        Csr([0, 1, 2], [0, 4], 5) @ np.zeros(shape)


@settings(max_examples=100, deadline=None)
@given(a=st.one_of(matrices(), matrices(repeats=True)), data=st.data())
def test_integer_products_keep_their_type_and_equal_float64(a, data):
    dtype = data.draw(st.sampled_from([np.int16, np.int32]))
    top = np.iinfo(dtype).max // max(1, int(np.diff(a.indptr).max(initial=0)))
    x = data.draw(right_hand_sides(a.shape[1])).astype(np.float64)
    x = np.clip(np.nan_to_num(x), -top, top).round().astype(dtype)
    got = a @ x
    assert got.dtype == dtype and got.shape == (a @ x.astype(float)).shape
    assert np.array_equal(got.astype(float), a @ x.astype(float))


def _star(leaves):
    """Node 0 joined to nodes 1..leaves, as a symmetric ``Csr``."""
    indptr = np.concatenate([[0], leaves + np.arange(leaves + 1)])
    indices = np.concatenate([np.arange(1, leaves + 1), np.zeros(leaves)])
    return Csr(indptr, indices, leaves + 1)


@pytest.mark.parametrize("k", [None, 3])
def test_an_int16_product_reaches_its_type_maximum_exactly(k):
    # 2**15 columns: the hub row sums 2**15 - 1 ones, int16's maximum
    star = _star(2**15 - 1)
    x = np.ones(2**15 if k is None else (2**15, k), dtype=np.int16)
    got, want = star @ x, star @ x.astype(np.float64)
    assert got.dtype == np.int16 and got[0].max() == 2**15 - 1
    assert got.astype(np.float64).tobytes() == want.tobytes()


@pytest.mark.parametrize("a, x", [
    # one more leaf: the hub could sum 2**15 ones
    (_star(2**15), np.ones(2**15 + 1, dtype=np.int16)),
    # a longest row of 2 times a value of 2**30
    (Csr([0, 2, 2], [0, 1], 2), np.array([1, 2**30], dtype=np.int32)),
    (Csr([0, 2, 2], [0, 1], 2), np.array([[-2**30], [0]], dtype=np.int32)),
])
def test_an_integer_product_that_could_overflow_is_refused(a, x):
    with pytest.raises(ValueError, match="overflow"):
        a @ x
    # one less fits
    assert (a @ (x - np.sign(x)).astype(x.dtype)).dtype == x.dtype


def test_a_column_listed_twice_adds_twice():
    a = Csr([0, 3, 3], [1, 0, 1], 2)
    x = np.array([0.1, 0.7])
    assert np.array_equal(a @ x, scipy_of(a) @ x)
    assert (a @ x)[0] == 0.7 + 0.1 + 0.7


@pytest.mark.parametrize("indptr, indices, n_cols, fault", [
    ([0, 1], [100000000], 2, "outside"),
    ([0, 3], [1], 2, "ends at 3"),
    ([0, 1], [-1], 2, "outside"),
    ([1, 1], [], 2, "start at 0"),
    ([], [], 2, "start at 0"),
    ([0, 2, 1], [0, 1], 2, "decreases"),
    ([[0, 1]], [0], 2, "1-D"),
    ([0, 1], [[0]], 2, "1-D"),
    ([0, 1], [0], -1, "column count"),
    ([0, 1], [0], 2**31, "column count"),
    # values past int32 are refused, not wrapped by the cast
    ([0, 1], np.array([2**32], dtype=np.int64), 2, "outside"),
    (np.array([0, 2**32 + 1], dtype=np.int64), [0], 2, "ends at"),
])
def test_malformed_arrays_are_refused_at_construction(indptr, indices,
                                                      n_cols, fault):
    # scipy's kernel reads the arrays unchecked, so nothing here multiplies
    with pytest.raises(ValueError, match=fault):
        Csr(indptr, indices, n_cols)


@settings(max_examples=50, deadline=None)
@given(a=matrices(repeats=True), data=st.data())
def test_take_equals_scipy_row_indexing(a, data):
    m = a.shape[0]
    rows = data.draw(st.lists(st.integers(0, m - 1), max_size=12)) if m else []
    for order in (rows, rows[::-1], list(range(m))[::-1], []):
        got, want = a.take(order), scipy_of(a)[np.array(order, dtype=np.intp)]
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)


@settings(max_examples=50, deadline=None)
@given(a=matrices(repeats=True))
def test_row_expansions_equal_scipy_and_itertools(a):
    assert np.array_equal(a.rows(), scipy_of(a).tocoo().row)
    u, v = a.row_pairs()
    assert list(zip(u.tolist(), v.tolist())) == [
        p for i in range(a.shape[0])
        for p in itertools.combinations(a.row(i).tolist(), 2)]


@st.composite
def shaped_pairs(draw):
    """A shape, small or with m * n >= 2**31, and (row, column) pairs in
    it in drawn order, every other one listed twice."""
    m, n = draw(st.one_of(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                          st.sampled_from([(2**16, 2**16), (3, 2**30)])))
    pairs = draw(st.lists(st.tuples(st.integers(0, m - 1),
                                    st.integers(0, n - 1)),
                          max_size=12)) if m and n else []
    return (m, n), draw(st.permutations(pairs + pairs[::2]))


@settings(max_examples=50, deadline=None)
@given(shaped_pairs())
# int64 keys: 65535 * 2**16 + 65535 overflows int32
@example(((2**16, 2**16), [(65535, 65535), (0, 1), (65535, 65535), (4, 3)]))
def test_from_pairs_of_any_shape_keeps_each_pair_once(shaped):
    (m, n), pairs = shaped
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    a = csr.from_pairs((m, n), u, v)
    assert a.shape == (m, n)
    # rows in order, each row's columns sorted and distinct
    assert list(zip(a.rows().tolist(), a.indices.tolist())) == \
        sorted(set(pairs))


@settings(max_examples=50, deadline=None)
@given(a=matrices(), data=st.data())
def test_level_one_block_is_the_rows_transposed(a, data):
    start = data.draw(st.integers(0, a.shape[0]))
    stop = data.draw(st.integers(start, a.shape[0]))
    block = a.rows_transposed(start, stop)
    assert block.flags.c_contiguous
    assert np.array_equal(block, scipy_of(a)[start:stop].toarray().T)


@settings(max_examples=50, deadline=None)
@given(b=matrices(sorted_rows=True))
def test_projection_adjacency_equals_scipy_btb(b):
    n = b.shape[1]
    btb = (scipy_of(b).T @ scipy_of(b)).tocsr()
    btb.setdiag(0)
    btb.eliminate_zeros()
    btb.sort_indices()
    g = project_one_mode(tuple(range(n)), b)
    adj = g.adjacency()
    assert np.array_equal(adj.indptr, btb.indptr)
    assert np.array_equal(adj.indices, btb.indices)


@settings(max_examples=50, deadline=None)
@given(b=matrices(sorted_rows=True))
def test_a_graph_built_from_its_edges_equals_the_projection(b):
    g = project_one_mode(tuple(range(b.shape[1])), b)
    h = CoworkerGraph(g.nodes, g.edges())
    assert h.nodes == g.nodes
    assert np.array_equal(h.adjacency().indptr, g.adjacency().indptr)
    assert np.array_equal(h.adjacency().indices, g.adjacency().indices)
    assert np.array_equal(h.component_labels(), g.component_labels())


def test_both_load_routes_give_the_same_products():
    rng = np.random.default_rng(7)
    m = sparse.random(30, 40, density=0.2, format="csr", random_state=1)
    a = Csr(m.indptr, m.indices, 40)
    x, v = rng.standard_normal((40, 6)), rng.standard_normal(40)
    want = (scipy_of(a) @ x, scipy_of(a) @ v)
    # both routes run as if scipy.sparse had not loaded its kernel yet
    with mock.patch.dict(sys.modules):
        sys.modules.pop(csr._KERNEL_NAME)
        from_file = csr._load_kernel()
        # the file load leaves sys.modules as it found it
        assert csr._KERNEL_NAME not in sys.modules
        with mock.patch.object(csr, "_kernel_path", return_value=None):
            ordinary = csr._load_kernel()
    assert ordinary is sparse._sparsetools
    for kernel in (from_file, ordinary):
        with mock.patch.object(csr, "_KERNEL", kernel):
            got = (a @ x, a @ v)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_no_matching_extension_file_gives_no_kernel_path(monkeypatch):
    assert csr._kernel_path() is not None
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                        [".no-such-extension"])
    assert csr._kernel_path() is None


def test_a_kernel_scipy_already_loaded_is_reused():
    # test_csr imports scipy.sparse, which loads its kernel first
    assert csr._load_kernel() is sparse._sparsetools
    # a process that imports scipy.sparse before surgnet multiplies with
    # scipy's own module, and gets scipy's bits
    src = str(Path(csr.__file__).resolve().parents[1])
    code = """
import numpy as np
import scipy.sparse
from surgnet import csr
assert csr._KERNEL is scipy.sparse._sparsetools
m = scipy.sparse.random(50, 40, density=0.2, format='csr', random_state=3)
m.data[:] = 1.0
a = csr.Csr(m.indptr, m.indices, 40)
x = np.random.default_rng(3).standard_normal((40, 7))
assert np.array_equal(a @ x, m @ x) and np.array_equal(a @ x[:, 0], m @ x[:, 0])
"""
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
