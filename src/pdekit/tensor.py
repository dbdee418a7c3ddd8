"""Lift one-dimensional operators and spectra to d axes.

Both discretizations are d-fold tensor products.  Arrays over the d-cube
are flattened row-major, so axis 0 varies slowest and is the leftmost
Kronecker factor; every module lifts its 1D pieces through this one.
kron builds a Kronecker product as CSR from the index arithmetic of its
factors' entries, and kron_sum is the sum of its kron terms in axis order;
kron_sum_solver inverts a weighted sum of one block in a form it names: the
block's sparse LU for one axis, else one eigendecomposition of the block,
which also gives the adjoint inverse and the spectrum divided by.
require_nonsingular is the one rule for the diagonal such an inverse divides by.
refine is the one refinement loop every gated classical solve runs: the
restricted lattice's eigenbasis division, conjugate gradient and GMRES.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

__all__ = ["along", "kron", "kron_sum", "kron_sum_apply", "kron_sum_solver",
           "SingularToRounding", "require_nonsingular", "axis_sum", "refine"]

EIGENBASIS_LIMIT = 1e-6  # largest eps ||V||_1 ||V^-1||_1 the "eig" form of kron_sum_solver takes


def along(x, axis: int, ndim: int) -> np.ndarray:
    """The 1D array x shaped to broadcast along one axis of an ndim-array."""
    shape = [1] * ndim
    shape[axis] = -1
    return np.reshape(x, shape)


def kron(factors) -> sp.csr_matrix:
    """Kronecker product of per-axis factors, axis 0 leftmost; None is the identity.

    Each factor is read as CSR.  For CSR or dense factors with stored
    entries, bit for bit the fold of sp.kron over them from a 1 x 1
    identity, the identities float, built in one step: every stored entry is
    one stored entry per factor (an identity's are its diagonal ones), its
    value their product taken left to right from 1.0, and the one conversion
    to CSR orders each row by column.
    """
    size = next(f.shape[0] for f in factors if f is not None)
    shape = (size ** len(factors),) * 2
    rows = cols = np.zeros(1, dtype=np.int32 if shape[0] <= np.iinfo(np.int32).max else np.int64)
    data = np.ones(1)
    diagonal = np.arange(size, dtype=rows.dtype)
    identity = diagonal, diagonal, np.ones(size)
    for f in factors:
        if f is None:
            f_rows, f_cols, f_data = identity
        else:
            f = sp.csr_matrix(f)
            f_rows, f_cols, f_data = np.repeat(diagonal, np.diff(f.indptr)), f.indices, f.data
        rows = (rows[:, None] * size + f_rows).reshape(-1)
        cols = (cols[:, None] * size + f_cols).reshape(-1)
        data = (data[:, None] * f_data).reshape(-1)
    return sp.csr_matrix((data, (rows, cols)), shape=shape)


def kron_sum(blocks) -> sp.csr_matrix:
    """sum_j I x .. x blocks[j] x .. x I: one square block per axis, all of one size, as CSR.

    The kron terms are added in axis order, (T_0 + T_1) + T_2 + .., by
    scipy's CSR sum, which drops what cancels to zero: for CSR or dense
    blocks with stored entries, bit for bit the fold of
    sp.kronsum(b, S) = S x I + I x b over them.  One block is returned as
    CSR unscaled, as the fold does (kron would scale it by 1.0, which turns
    a -0 imaginary part into +0).
    """
    if len(blocks) == 1:
        return sp.csr_matrix(blocks[0])
    d = len(blocks)
    terms = (kron([b if k == j else None for k in range(d)]) for j, b in enumerate(blocks))
    return sum(terms, start=next(terms))


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
    """K^-1, K^-H (or None), their form and K's spectrum (or None), K = kron_sum([w * block, ..]).

    One weight makes K the scaled block itself, factored by its sparse LU
    ("splu", no adjoint, no spectrum).  More take one dense eigendecomposition
    B = V diag(lam) V^-1 ("eig"): K^-1 carries x by V^-1 along every axis,
    divides by the read-only spectrum axis_sum(w_j lam) and carries it back
    by V; K^-H carries x by V^H, divides by the conjugate spectrum and
    carries it back by V^-H.  An eigenbasis too ill-conditioned to carry x
    there and back, eps ||V||_1 ||V^-1||_1 > EIGENBASIS_LIMIT (a defective
    block has one), raises numpy.linalg.LinAlgError, and a spectrum singular
    to rounding SingularToRounding, before anything is divided.  A real
    block and real weights map real x to real results.
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
                           if real and np.iscomplexobj(x) else lu.solve(x))), None, "splu", None
    lam, V = np.linalg.eig(block.toarray())
    V_inv = np.linalg.inv(V)
    drift = np.finfo(float).eps * np.linalg.norm(V, 1) * np.linalg.norm(V_inv, 1)
    if drift > EIGENBASIS_LIMIT:
        raise np.linalg.LinAlgError(f"eigenbasis is ill-conditioned: drift {drift:.1e}")
    spectrum = axis_sum([w * lam for w in weights], d)
    require_nonsingular(spectrum, d, "Kronecker sum")
    spectrum.flags.writeable = False

    def carry(x, into, divisor, back):
        cube = np.array(np.reshape(x, spectrum.shape), dtype=np.result_type(x, spectrum))
        for j in range(d):
            cube = _matmul_along(into, cube, j)
        cube /= divisor
        for j in range(d):
            cube = _matmul_along(back, cube, j)
        out = cube.reshape(-1)
        return out.real if real and not np.iscomplexobj(x) else out
    return (lambda x: carry(x, V_inv, spectrum, V),
            lambda x: carry(x, V.conj().T, spectrum.conj(), V_inv.conj().T), "eig", spectrum)


class SingularToRounding(np.linalg.LinAlgError):
    """require_nonsingular's refusal, told apart from an ill-conditioned eigenbasis."""


def require_nonsingular(divisors, d: int, what: str) -> None:
    """Refuse (SingularToRounding) divisors x of a d-axis inverse if min |x| <= d eps max |x|."""
    size = np.abs(divisors)
    if size.min() <= d * np.finfo(float).eps * size.max():
        raise SingularToRounding(f"{what} is singular to rounding")


def axis_sum(values, d: int) -> np.ndarray:
    """The d-cube of sums v_0[i_0] + .. + v_{d-1}[i_{d-1}]: the spectrum of kron_sum.

    values is one 1D array, used on every axis, or a list of d of them.
    """
    per_axis = values if isinstance(values, list) else [values] * d
    return sum(along(v, j, d) for j, v in enumerate(per_axis))


def refine(x, residual, correct, norm, aim):
    """(x, norm(residual(x))): x refined on its true residual while that falls above aim.

    Each step takes r = residual(x) and the trial x + correct(r), and keeps
    the trial only if norm(residual(trial)) < norm(r), so a trial that does
    not fall, NaN included, ends the loop untaken.  A start whose residual is
    at most aim, or NaN, takes no step.  The caller gates the returned norm.
    """
    r = residual(x)
    size = norm(r)
    while size > aim:
        trial = x + correct(r)
        r_trial = residual(trial)
        fell = norm(r_trial)
        if not fell < size:
            break
        x, r, size = trial, r_trial, fell
    return x, size
