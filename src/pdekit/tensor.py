"""Lift one-dimensional operators and spectra to d axes.

Both discretizations are d-fold tensor products.  Arrays over the d-cube
are flattened row-major, so axis 0 varies slowest and is the leftmost
Kronecker factor; every module lifts its 1D pieces through this one.
kron_sum_solver inverts a weighted sum of one block from one eigensolve.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["along", "kron", "kron_sum", "kron_sum_apply", "kron_sum_solver", "axis_sum"]


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
    """sum_j I x .. x blocks[j] x .. x I: one square block per axis, all of one size,
    as a fold of sp.kronsum(b, S) = S x I + I x b, which keeps axis 0 leftmost."""
    return reduce(lambda acc, b: sp.kronsum(b, acc, format="csr"), blocks[1:],
                  sp.csr_matrix(blocks[0]))


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


def _matmul_along(M, cube, axis: int) -> np.ndarray:
    """Dense M applied to every fibre of the cube along one axis, as stacked matrix products."""
    shape = cube.shape
    if axis == cube.ndim - 1:
        return (cube.reshape(-1, shape[axis]) @ M.T).reshape(shape)
    return (M @ cube.reshape(math.prod(shape[:axis]), shape[axis], -1)).reshape(shape)


def kron_sum_solver(block, weights):
    """The map x -> K^-1 @ x for K = kron_sum([w * block for w in weights]), never forming K.

    One weight makes K the scaled block itself, factored by its sparse LU.
    For d >= 2 the block is diagonalized once, B = V diag(lam) V^-1: x is
    carried into the eigenbasis along every axis, divided by the spectrum
    axis_sum(w_j lam), and carried back.  A sum that is singular to rounding
    raises numpy.linalg.LinAlgError before anything is divided.  A real block
    and real weights map real x to real results.
    """
    weights = np.asarray(weights)
    d = weights.size
    real = not (np.iscomplexobj(block.data) or np.iscomplexobj(weights))
    if d == 1:
        try:
            lu = spla.splu(sp.csc_matrix(weights[0] * block))
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(f"sparse factorization failed: {exc}") from exc
        return lambda x: (lu.solve(x.real) + 1j * lu.solve(x.imag)
                          if real and np.iscomplexobj(x) else lu.solve(x))
    lam, V = np.linalg.eig(block.toarray())
    W = np.linalg.inv(V)
    spectrum = axis_sum([w * lam for w in weights], d)
    if np.abs(spectrum).min() <= d * np.finfo(float).eps * np.abs(spectrum).max():
        raise np.linalg.LinAlgError("Kronecker sum is singular to rounding")

    def solve(x):
        cube = np.reshape(x, spectrum.shape)
        for j in range(d):
            cube = _matmul_along(W, cube, j)
        cube = cube / spectrum
        for j in range(d):
            cube = _matmul_along(V, cube, j)
        out = cube.reshape(-1)
        return out.real if real and not np.iscomplexobj(x) else out
    return solve


def axis_sum(values, d: int) -> np.ndarray:
    """The d-cube of sums v_0[i_0] + .. + v_{d-1}[i_{d-1}]: the spectrum of kron_sum.

    values is one 1D array, used on every axis, or a list of d of them.
    """
    per_axis = values if isinstance(values, list) else [values] * d
    return sum(along(v, j, d) for j, v in enumerate(per_axis))
