"""Lift one-dimensional operators and spectra to d axes.

Both discretizations are d-fold tensor products.  Arrays over the d-cube
are flattened row-major, so axis 0 varies slowest and is the leftmost
Kronecker factor; every module lifts its 1D pieces through this one.
kron_sum builds a Kronecker sum as CSR by index arithmetic on its blocks;
kron_sum_solver inverts a weighted sum of one block in a form it names: the
block's sparse LU for one axis, else one eigendecomposition of the block.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

__all__ = ["along", "kron", "kron_sum", "kron_sum_apply", "kron_sum_solver", "axis_sum"]

EIGENBASIS_LIMIT = 1e-6  # largest eps ||V||_1 ||V^-1||_1 the "eig" form of kron_sum_solver takes


def along(x, axis: int, ndim: int) -> np.ndarray:
    """The 1D array x shaped to broadcast along one axis of an ndim-array."""
    shape = [1] * ndim
    shape[axis] = -1
    return np.reshape(x, shape)


def kron(factors) -> sp.csr_matrix:
    """Kronecker product of per-axis factors, axis 0 leftmost; None is the identity.

    For factors with stored entries, bit for bit the fold of sp.kron over
    them from a 1 x 1 identity, the identities float, built in one step:
    every stored entry is one stored entry per factor, its value their
    product taken left to right from 1.0, and the one conversion to CSR
    orders each row by column.
    """
    size = next(f.shape[0] for f in factors if f is not None)
    shape = (size ** len(factors),) * 2
    rows = cols = np.zeros(1, dtype=np.int32 if shape[0] <= np.iinfo(np.int32).max else np.int64)
    data = np.ones(1)
    for f in factors:
        f = sp.identity(size, format="coo") if f is None else sp.coo_matrix(f)
        rows = (rows[:, None] * size + f.row).reshape(-1)
        cols = (cols[:, None] * size + f.col).reshape(-1)
        data = (data[:, None] * f.data).reshape(-1)
    return sp.csr_matrix((data, (rows, cols)), shape=shape)


def kron_sum(blocks) -> sp.csr_matrix:
    """sum_j I x .. x blocks[j] x .. x I: one square block per axis, all of one size, as CSR.

    For blocks with stored entries the result is bit for bit the fold of
    sp.kronsum(b, S) = S x I + I x b over them, built by index arithmetic.
    Row r = (i_0, .., i_{d-1}) of the term of axis j holds row i_j of
    blocks[j], so its columns differ from r on axis j only.  In column order
    a row therefore holds the entries left of the diagonal axis by axis
    (axis 0 first), the shared diagonal, then the entries right of it in
    reverse axis order.  The values follow the fold's arithmetic: terms are
    added in axis order, (T_0 + T_1) + T_2 + .., every stage scales what it
    lifts by a unit of the common dtype (for complex data that settles the
    signs of zero parts), and a sum that cancels to zero is not stored.
    """
    if len(blocks) == 1:
        return sp.csr_matrix(blocks[0])
    blocks = [_canonical(b) for b in blocks]
    d, N = len(blocks), blocks[0].shape[0]
    cube = [N] * d
    dtype = np.result_type(*(b.dtype for b in blocks))
    one = dtype.type(1)
    # each block entry's row and side: left of (0), on (1) or right of (2) the diagonal
    rows = [np.repeat(np.arange(N), np.diff(b.indptr)) for b in blocks]
    sides = [np.sign(b.indices - r) + 1 for b, r in zip(blocks, rows)]
    counts = [np.stack([np.bincount(r[s == k], minlength=N) for k in range(3)])
              for r, s in zip(rows, sides)]
    lo, on, hi = ([along(c[k], j, d) for j, c in enumerate(counts)] for k in range(3))
    left, diag = sum(lo), sum(on) > 0
    indptr = np.zeros(N ** d + 1, dtype=np.int64)
    np.cumsum(np.broadcast_to(left + diag + sum(hi), cube), out=indptr[1:])
    first = indptr[:-1].reshape(cube)
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.zeros(indptr[-1], dtype=dtype)
    for j, (b, r, s, c) in enumerate(zip(blocks, rows, sides, counts)):
        outer, inner = N ** j, N ** (d - 1 - j)
        starts = np.stack([first + sum(lo[:j]), first + left,
                           first + left + diag + sum(hi[j + 1:])])
        # an entry's place in its segment: its rank in the block row less the sides before
        skipped = np.concatenate([np.zeros((1, N), dtype=np.int64), np.cumsum(c[:2], axis=0)])
        offset = np.arange(b.nnz) - b.indptr[r] - skipped[s, r]
        pos = starts.reshape(3, outer, N, inner)[s, :, r, :] + offset[:, None, None]
        indices[pos] = ((np.arange(outer)[:, None] * N + b.indices[:, None, None]) * inner
                        + np.arange(inner))
        values = b.data.astype(dtype)[:, None, None]
        if j == 0:
            data[pos] = values
        elif dtype.kind == "c":
            # both operands are lifted by a complex unit and added in full
            term = np.zeros_like(data)
            term[pos] = values * one
            data = term + data * one
            data[data == 0] = 0
        else:
            data[pos] += values
    keep = data != 0
    if not keep.all():
        indptr = np.concatenate([[0], np.cumsum(keep)])[indptr]
        indices, data = indices[keep], data[keep]
    idx = np.int32 if max(indptr[-1], N ** d) <= np.iinfo(np.int32).max else np.int64
    return sp.csr_matrix((data, indices.astype(idx), indptr.astype(idx)),
                         shape=(N ** d, N ** d))


def _canonical(block) -> sp.csr_matrix:
    """block as CSR with sorted column indices and no duplicates."""
    block = sp.csr_matrix(block)
    if not block.has_canonical_format:
        block = block.copy()
        block.sum_duplicates()
    return block


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
    """The map x -> K^-1 @ x for K = kron_sum([w * block for w in weights]), and its form's name.

    One weight makes K the scaled block itself, factored by its sparse LU
    ("splu").  More take one dense eigendecomposition of the block,
    B = V diag(lam) V^-1 ("eig"): x is carried into the eigenbasis along
    every axis, divided by the spectrum axis_sum(w_j lam), and carried back.
    An eigenbasis too ill-conditioned to carry x there and back,
    eps ||V||_1 ||V^-1||_1 > EIGENBASIS_LIMIT (a defective block has one), or
    a sum that is singular to rounding raises numpy.linalg.LinAlgError before
    anything is divided.  A real block and real weights map real x to real
    results.
    """
    import scipy.sparse.linalg as spla

    weights = np.asarray(weights)
    d = weights.size
    real = not (np.iscomplexobj(block.data) or np.iscomplexobj(weights))
    if d == 1:
        try:
            lu = spla.splu(sp.csc_matrix(weights[0] * block))
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(f"sparse factorization failed: {exc}") from exc
        return (lambda x: (lu.solve(x.real) + 1j * lu.solve(x.imag)
                           if real and np.iscomplexobj(x) else lu.solve(x))), "splu"
    lam, V = np.linalg.eig(block.toarray())
    V_inv = np.linalg.inv(V)
    drift = np.finfo(float).eps * np.linalg.norm(V, 1) * np.linalg.norm(V_inv, 1)
    if drift > EIGENBASIS_LIMIT:
        raise np.linalg.LinAlgError(f"eigenbasis is ill-conditioned: drift {drift:.1e}")
    spectrum = axis_sum([w * lam for w in weights], d)
    if np.abs(spectrum).min() <= d * np.finfo(float).eps * np.abs(spectrum).max():
        raise np.linalg.LinAlgError("Kronecker sum is singular to rounding")

    def solve(x):
        cube = np.array(np.reshape(x, spectrum.shape), dtype=np.result_type(x, spectrum))
        for j in range(d):
            cube = _matmul_along(V_inv, cube, j)
        cube /= spectrum
        for j in range(d):
            cube = _matmul_along(V, cube, j)
        out = cube.reshape(-1)
        return out.real if real and not np.iscomplexobj(x) else out
    return solve, "eig"


def axis_sum(values, d: int) -> np.ndarray:
    """The d-cube of sums v_0[i_0] + .. + v_{d-1}[i_{d-1}]: the spectrum of kron_sum.

    values is one 1D array, used on every axis, or a list of d of them.
    """
    per_axis = values if isinstance(values, list) else [values] * d
    return sum(along(v, j, d) for j, v in enumerate(per_axis))
