"""Lift one-dimensional operators and spectra to d axes.

Both discretizations are d-fold tensor products.  Arrays over the d-cube
are flattened row-major, so axis 0 varies slowest and is the leftmost
Kronecker factor; every module lifts its 1D pieces through this one.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import scipy.sparse as sp

__all__ = ["along", "kron", "kron_sum", "axis_sum"]


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


def kron_sum(block, d: int) -> sp.csr_matrix:
    """sum_j I x .. x block x .. x I with the block on axis j, over d axes."""
    terms = [kron([block if a == j else None for a in range(d)]) for j in range(d)]
    return sum(terms[1:], terms[0])


def axis_sum(values, d: int) -> np.ndarray:
    """The d-cube of sums values[i_0] + .. + values[i_{d-1}]: the spectrum of kron_sum."""
    return sum(along(values, j, d) for j in range(d))
