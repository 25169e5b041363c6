"""0/1 matrices in CSR form: the one sparse layout of a run.

The case tables' provider and dx matrices, each segment's incidence B
and each co-worker graph's adjacency are ``Csr`` objects, and only this
module does index arithmetic on their ``indptr``: building them from
(row, column) pairs (``pair_counts``), gathering and expanding rows, and
multiplying. A ``Csr`` is its ``indptr`` and ``indices`` arrays and a
column count, with no value array: ``@`` is one call of scipy's compiled
``csr_matvec`` or ``csr_matvecs`` on all-ones values made for the call,
the routine that ``scipy.sparse.csr_matrix @`` calls on the same arrays,
so the bits are scipy's. It lives in scipy's private ``_sparsetools``
extension, loaded here from its file at import: importing
``scipy.sparse`` would also load numpy's lazy submodules (``f2py``,
``testing``, ``ma`` and more) through scipy's array-API layer.
"""

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

_KERNEL_NAME = "scipy.sparse._sparsetools"


def _kernel_path():
    """The ``_sparsetools`` extension file under scipy's package directory,
    or None; found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    for root in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_kernel():
    """scipy's ``_sparsetools`` module, loaded from its file when one is
    found, else by ``from scipy.sparse import _sparsetools``. A loaded
    extension enters itself in ``sys.modules``; it is taken out again so
    that a later ``import scipy.sparse`` loads it the ordinary way."""
    if _KERNEL_NAME in sys.modules:
        return sys.modules[_KERNEL_NAME]
    path = _kernel_path()
    if path is not None:
        spec = importlib.util.spec_from_file_location(_KERNEL_NAME, path)
        kernel = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(kernel)
        sys.modules.pop(_KERNEL_NAME, None)
        return kernel
    from scipy.sparse import _sparsetools
    return _sparsetools


_KERNEL = _load_kernel()


class Csr:
    """A 0/1 matrix: row i has ones at columns
    ``indices[indptr[i]:indptr[i + 1]]``. A column listed twice in a row
    counts twice: ``@`` adds it once per listing, as ``csr_matvec`` does.

    Both arrays are int32, checked by ``_check`` before the cast. ``A @ x``
    takes a float64 vector of length ``n_cols`` or an (n_cols, k) block and
    returns a new array whose rows sum each row's columns of ``x`` in order.
    """

    def __init__(self, indptr, indices, n_cols):
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        _check(indptr, indices, int(n_cols))
        self.indptr = indptr.astype(np.int32, copy=False)
        self.indices = indices.astype(np.int32, copy=False)
        self.shape = (self.indptr.size - 1, int(n_cols))
        self.nnz = self.indices.size

    def __matmul__(self, x):
        x = np.asarray(x, dtype=np.float64)
        m, n = self.shape
        if x.shape[0] != n or x.ndim > 2:
            raise ValueError(f"cannot multiply {self.shape} by {x.shape}")
        a = (self.indptr, self.indices, np.ones(self.nnz))
        # scipy's own dispatch: a vector or one column takes csr_matvec
        if x.ndim == 1 or x.shape[1] == 1:
            out = np.zeros(m)
            _KERNEL.csr_matvec(m, n, *a, x.ravel(), out)
            return out.reshape(m, *x.shape[1:])
        out = np.zeros((m, x.shape[1]))
        _KERNEL.csr_matvecs(m, n, x.shape[1], *a, x.ravel(), out.ravel())
        return out

    def row(self, i):
        """The column indices of row ``i``, a view."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def rows(self):
        """The row of each stored entry, aligned with ``indices``."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def take(self, rows):
        """The matrix of rows ``rows``, in that order, repeats allowed."""
        rows = np.asarray(rows, dtype=np.int64)
        starts, ends = self.indptr[rows], self.indptr[rows + 1]
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(ends - starts, out=indptr[1:])
        at = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], ends - starts)
        return Csr(indptr, self.indices[at], self.shape[1])

    def row_pairs(self):
        """Columns (u, v) of every pair of entries p < q in one row, by p
        then q: the entry at p pairs with the ``later[p]`` after it in its
        row, its k-th pair being (p, p + 1 + k)."""
        at = np.arange(self.nnz)
        later = np.repeat(self.indptr[1:], np.diff(self.indptr)) - at - 1
        first = np.repeat(at, later)
        k = np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
        return self.indices[first], self.indices[first + 1 + k]

    def rows_transposed(self, start, stop):
        """Rows ``start:stop`` as a dense C-ordered (n_cols, stop - start)
        float64 array: column j is row ``start + j``."""
        lo, hi = self.indptr[start], self.indptr[stop]
        block = np.zeros((self.shape[1], stop - start))
        block[self.indices[lo:hi], np.repeat(
            np.arange(stop - start), np.diff(self.indptr[start:stop + 1]))] = 1.0
        return block


def _check(indptr, indices, n_cols):
    """Raise a ValueError naming the fault unless the arrays, as given, are
    CSR arrays of ``n_cols`` columns that fit int32: the kernel trusts them."""
    if indptr.ndim != 1 or indices.ndim != 1:
        raise ValueError("indptr and indices must be 1-D")
    if not 0 <= n_cols < 2**31:
        raise ValueError(f"column count {n_cols} is not in [0, 2**31)")
    if indptr.size == 0 or indptr[0] != 0:
        raise ValueError("indptr must start at 0")
    if (indptr[1:] < indptr[:-1]).any():
        raise ValueError("indptr decreases")
    if indptr[-1] != indices.size:
        raise ValueError(f"indptr ends at {indptr[-1]}, not at the number "
                         f"of indices, {indices.size}")
    if indices.size and not 0 <= indices.min() <= indices.max() < n_cols:
        raise ValueError(f"a column index lies outside [0, {n_cols})")


def _indptr(rows, n):
    """CSR row pointers of entries whose sorted row numbers are ``rows``."""
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def pair_counts(shape, u, v):
    """``(a, counts)``: ``a`` has a one at each (i, j) in ``zip(u, v)``, its
    rows sorted and distinct, and ``counts`` (int64) how often each of its
    entries occurs."""
    m, n = shape
    # int32 keys, where they fit, sort in about half the time
    key = np.int32 if m * n < 2**31 else np.int64
    keys, counts = np.unique(np.asarray(u, dtype=key) * n
                             + np.asarray(v, dtype=key), return_counts=True)
    rows = keys // n
    return Csr(_indptr(rows, m), keys - rows * n, n), counts
