"""Lift one-dimensional operators and spectra to d axes.

Both discretizations are d-fold tensor products.  Arrays over the d-cube
are flattened row-major, so axis 0 varies slowest and is the leftmost
Kronecker factor; every module lifts its 1D pieces through this one.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import scipy.sparse as sp

__all__ = ["along", "kron", "kron_sum", "kron_sum_apply", "axis_sum"]


def along(x, axis: int, ndim: int) -> np.ndarray:
    """The 1D array x shaped to broadcast along one axis of an ndim-array."""
    shape = [1] * ndim
    shape[axis] = -1
    return np.reshape(x, shape)


def kron(factors) -> sp.csr_matrix:
    """Kronecker product of per-axis factors, axis 0 leftmost; None is the identity."""
    size = next(f.shape[0] for f in factors if f is not None)
    eye = sp.identity(size, format="csr")
    return reduce(lambda a, b: sp.kron(a, b, format="csr"),
                  [eye if f is None else f for f in factors], sp.identity(1, format="csr"))


def kron_sum(blocks) -> sp.csr_matrix:
    """sum_j I x .. x blocks[j] x .. x I: one square block per axis, all of one size."""
    d = len(blocks)
    terms = [kron([b if a == j else None for a in range(d)]) for j, b in enumerate(blocks)]
    return sum(terms[1:], terms[0])


def kron_sum_apply(blocks, x) -> np.ndarray:
    """kron_sum(blocks) @ x one axis at a time, never forming the d-dimensional sum.

    Each block acts on the fibres of its axis; with sparse blocks the products
    run in scipy's own loops, not in (threaded) BLAS.
    """
    shape = [b.shape[0] for b in blocks]
    cube = np.reshape(x, shape)
    out = np.zeros(shape, dtype=np.result_type(cube, *(b.dtype for b in blocks)))
    for j, b in enumerate(blocks):
        fibres = np.moveaxis(cube, j, 0)
        out += np.moveaxis((b @ fibres.reshape(shape[j], -1)).reshape(fibres.shape), 0, j)
    return out.reshape(-1)


def axis_sum(values, d: int) -> np.ndarray:
    """The d-cube of sums values[i_0] + .. + values[i_{d-1}]: the spectrum of kron_sum."""
    return sum(along(values, j, d) for j in range(d))
