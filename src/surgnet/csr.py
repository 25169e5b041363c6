"""0/1 matrices in CSR form and their products with dense arrays.

Every product the measures, the graph summary and the team means make
is a 0/1 matrix in CSR form times a dense vector or block. ``Csr`` holds such a matrix as
its ``indptr`` and ``indices`` arrays and a column count, and its ``@``
is one call of scipy's compiled ``csr_matvec`` or ``csr_matvecs`` on an
all-ones value array: the routine, on the same arrays, that
``scipy.sparse.csr_matrix @`` calls, so the product's bits are the ones
scipy gives. The routine lives in scipy's private ``_sparsetools``
extension, which is loaded here from its file: importing ``scipy.sparse``
would also load numpy's lazily imported submodules (``f2py``,
``testing``, ``ma`` and more) through scipy's array-API layer.
``pair_counts`` builds the co-worker graphs' pair-count matrices.
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
    ``indices[indptr[i]:indptr[i + 1]]``, none of them repeated.

    Both arrays are int32. ``A @ x`` takes a float64 vector of length
    ``n_cols``, or an (n_cols, k) block, and returns a new array whose
    rows sum each row's columns of ``x`` in index order.
    """

    def __init__(self, indptr, indices, n_cols):
        self.indptr = np.asarray(indptr, dtype=np.int32)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.shape = (self.indptr.size - 1, int(n_cols))
        self.nnz = self.indices.size
        self._ones = np.ones(self.nnz)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=np.float64)
        m, n = self.shape
        if x.shape[0] != n or x.ndim > 2:
            raise ValueError(f"cannot multiply {self.shape} by {x.shape}")
        a = (self.indptr, self.indices, self._ones)
        # scipy's own dispatch: a vector or one column takes csr_matvec
        if x.ndim == 1 or x.shape[1] == 1:
            out = np.zeros(m)
            _KERNEL.csr_matvec(m, n, *a, x.ravel(), out)
            return out.reshape(m, *x.shape[1:])
        out = np.zeros((m, x.shape[1]))
        _KERNEL.csr_matvecs(m, n, x.shape[1], *a, x.ravel(), out.ravel())
        return out

    def rows_transposed(self, start, stop):
        """Rows ``start:stop`` as a dense C-ordered (n_cols, stop - start)
        float64 array: column j is row ``start + j``."""
        lo, hi = self.indptr[start], self.indptr[stop]
        block = np.zeros((self.shape[1], stop - start))
        block[self.indices[lo:hi], np.repeat(
            np.arange(stop - start), np.diff(self.indptr[start:stop + 1]))] = 1.0
        return block

    def principal(self, members):
        """The submatrix of a square matrix on rows and columns
        ``members``, which are sorted and distinct; each row keeps its
        entries' order."""
        at = np.full(self.shape[1], -1, dtype=np.int32)
        at[members] = np.arange(members.size)
        rows = at[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))]
        cols = at[self.indices]
        keep = (rows >= 0) & (cols >= 0)
        return Csr(_indptr(rows[keep], members.size), cols[keep], members.size)


def _indptr(rows, n):
    """CSR row pointers of entries whose sorted row numbers are ``rows``."""
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def pair_counts(n, u, v):
    """The (n, n) matrix whose entry (i, j) counts the k with
    ``(u[k], v[k]) == (i, j)``, as CSR ``(indptr, indices, counts)`` with
    each row's indices sorted and int64 counts."""
    # int32 keys, where they fit, sort in about half the time
    key = np.int32 if n * n < 2**31 else np.int64
    keys, counts = np.unique(np.asarray(u, dtype=key) * n + v,
                             return_counts=True)
    rows = keys // n
    return _indptr(rows, n), (keys - rows * n).astype(np.int32), counts
