"""Lift one-dimensional operators and spectra to d axes.

Both discretizations are d-fold tensor products.  Arrays over the d-cube
are flattened row-major, so axis 0 varies slowest and is the leftmost
Kronecker factor; every module lifts its 1D pieces through this one.
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


def _matmul_along(M, cube, axis: int) -> np.ndarray:
    """Dense M applied to every fibre of the cube along one axis, as stacked matrix products."""
    shape = cube.shape
    if axis == cube.ndim - 1:
        return (cube.reshape(-1, shape[axis]) @ M.T).reshape(shape)
    return (M @ cube.reshape(math.prod(shape[:axis]), shape[axis], -1)).reshape(shape)


def kron_sum_solver(blocks):
    """The map x -> kron_sum(blocks)^-1 @ x, one axis at a time, never forming the sum.

    One block is the whole sum and is factored by its own sparse LU.  For
    d >= 2 each block is diagonalized, B_j = V_j diag(lam_j) V_j^-1: x is
    carried into the eigenbasis along every axis, divided by the spectrum
    axis_sum(lam), and carried back.  A sum that is singular to rounding
    raises numpy.linalg.LinAlgError before anything is divided.  Real blocks
    map real x to real results.
    """
    if len(blocks) == 1:
        block = sp.csc_matrix(blocks[0])
        try:
            lu = spla.splu(block)
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(f"sparse factorization failed: {exc}") from exc
        if np.iscomplexobj(block.data):
            return lu.solve
        return lambda x: (lu.solve(x.real) + 1j * lu.solve(x.imag)
                          if np.iscomplexobj(x) else lu.solve(x))
    d = len(blocks)
    eigs = [np.linalg.eig(b.toarray()) for b in blocks]
    inverses = [np.linalg.inv(V) for _, V in eigs]
    spectrum = axis_sum([lam for lam, _ in eigs], d)
    if np.abs(spectrum).min() <= d * np.finfo(float).eps * np.abs(spectrum).max():
        raise np.linalg.LinAlgError("Kronecker sum is singular to rounding")
    real = not any(np.iscomplexobj(b.data) for b in blocks)

    def solve(x):
        cube = np.reshape(x, spectrum.shape)
        for j, W in enumerate(inverses):
            cube = _matmul_along(W, cube, j)
        cube = cube / spectrum
        for j, (_, V) in enumerate(eigs):
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
