"""Differentiation matrices for the two collocation bases, and the
diagonal-dominance check for elliptic coefficient matrices.

Fourier basis (N = n+1 modes, m = floor(n/2)): the first-derivative matrix
is diag(i (k-m) pi), and the second-derivative matrix is its square.  The
closed second-order operator fills the zero row at k = m with ones, the
point evaluation of every mode at x = 0.

Chebyshev basis: the first-derivative matrix is upper triangular with entries
2r/sigma_k at (k, r) for k+r odd, r > k (sigma_0 = 2, otherwise 1); its
square has interior entries r(r^2 - k^2)/sigma_k for k+r even, r > k+1 and
two empty rows at n-1, n.  The closed operator fills those rows with point
evaluation at the interval ends: row n is all ones (value at +1, T_k(1) = 1)
and row n-1 alternates (-1)^k (value at -1).

Storage is sparse: the Fourier matrices are diagonal apart from one closure
row, the Chebyshev ones keep the parity-structured triangle.  Closure rows
enter as COO entries; the closed block is the one 1D object the spectral
path lifts (tensor.kron_sum) and inverts (tensor.kron_sum_solver).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import BudgetExceeded, ParameterError
from .tensor import kron

__all__ = [
    "diff_matrix",
    "multi_diff",
    "boundary_row_indices",
    "gdd_check",
    "random_gdd",
]

BASES = ("fourier", "chebyshev")
SYSTEM_BUDGET = 1 << 17  # max rows of an assembled operator (storage is sparse)
NNZ_BUDGET = 1 << 24  # max stored nonzeros of one assembled mixed term
DENSE_LIMIT = 4096  # max rows of an operator factorized densely (SVD)


def _cheb_pairs(n: int, offset: int):
    """(k, r, sigma_k) over r >= k + offset with k + r of offset's parity, row-major."""
    k, r = np.triu_indices(n + 1, offset)
    keep = (k + r) % 2 == offset % 2
    k, r = k[keep], r[keep]
    return k, r, np.where(k == 0, 2.0, 1.0)


def boundary_row_indices(basis: str, n: int) -> tuple:
    """Row indices carrying point-evaluation closures in the closed operator.

    Chebyshev has one row per interval end; Fourier has the single center
    row (index pairs with no second entry use the same row for both ends).
    Returned as (plus_index, minus_index): the rows receiving data from the
    +1 and -1 ends respectively.
    """
    if basis == "chebyshev":
        return (n, n - 1)
    if basis == "fourier":
        m = n // 2
        return (m, m)
    raise ParameterError(f"basis must be one of {BASES}, got {basis!r}")


def diff_matrix(basis: str, order: int, n: int, with_boundary_rows: bool = False) -> sp.csr_matrix:
    """Differentiation matrix of the given order, optionally closed.

    Closure rows are only defined for the second-order operator; asking for
    them at order 1 is rejected.
    """
    if basis not in BASES:
        raise ParameterError(f"basis must be one of {BASES}, got {basis!r}")
    if order not in (1, 2):
        raise ParameterError(f"order must be 1 or 2, got {order}")
    min_n = 2 if basis == "chebyshev" else 1
    if n < min_n:
        raise ParameterError(f"{basis} needs n >= {min_n}, got {n}")
    if with_boundary_rows and order == 1:
        raise ParameterError("closure rows are defined for the second-order operator only")

    N = n + 1
    if basis == "fourier":
        freq = (np.arange(N) - n // 2) * np.pi
        rows = cols = np.flatnonzero(freq)
        vals = 1j * freq[rows] if order == 1 else (-(freq[rows] ** 2)).astype(complex)
    else:
        rows, cols, sigma = _cheb_pairs(n, order)
        vals = (2.0 * cols if order == 1 else cols * (cols * cols - rows * rows)) / sigma
    if with_boundary_rows:
        # the closure rows are empty in the open block: the point evaluations fill them
        plus, minus = boundary_row_indices(basis, n)
        evals = {plus: np.ones(N)}  # T_k(1) = 1, and every Fourier mode is 1 at x = 0
        if minus != plus:
            evals[minus] = (-1.0) ** np.arange(N)  # T_k(-1)
        rows = np.concatenate([rows, np.repeat(list(evals), N)])
        cols = np.concatenate([cols, np.tile(np.arange(N), len(evals))])
        vals = np.concatenate([vals, *evals.values()])
    return sp.csr_matrix((vals, (rows, cols)), shape=(N, N))


def multi_diff(pattern, basis: str, n: int, d: int) -> sp.csr_matrix:
    """Tensor operator for one mixed term d^2/dx_j1 dx_j2 of a second-order PDE.

    pattern is a length-d 0/1 multi-index with exactly two 1s: it places the
    plain first-derivative matrix on both axes, with no closure rows
    anywhere, and the identity elsewhere.  Its nonzeros, nnz(D1)^2 N^(d-2),
    are counted before it is built; above NNZ_BUDGET it raises BudgetExceeded.
    """
    pattern = tuple(int(p) for p in pattern)
    if len(pattern) != d:
        raise ParameterError(f"pattern length {len(pattern)} != d={d}")
    if any(p not in (0, 1) for p in pattern) or sum(pattern) != 2:
        raise ParameterError(f"pattern must hold exactly two 1s and zeros, got {pattern}")
    N = n + 1
    if N ** d > SYSTEM_BUDGET:
        raise BudgetExceeded(f"operator of size {N ** d} exceeds budget")
    D = diff_matrix(basis, 1, n)
    nnz = D.nnz ** 2 * N ** (d - 2)
    if nnz > NNZ_BUDGET:
        raise BudgetExceeded(f"mixed term of {nnz} nonzeros exceeds NNZ_BUDGET={NNZ_BUDGET}")
    return kron([D if p else None for p in pattern])


def gdd_check(A) -> dict:
    """Diagonal-dominance margin of a coefficient matrix.

    Returns {"C", "norm_sigma", "norm_star", "accepted"} where
    C = 1 - sum_j (1/|A_jj|) sum_{j2 != j} |A_{j,j2}|, norm_sigma is the sum
    of all |entries| and norm_star the sum of diagonal magnitudes.  Operators
    with C <= 0 are flagged rejected.  A zero diagonal entry or diagonal
    entries of mixed sign (ellipticity violation) are structural errors.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ParameterError(f"coefficient matrix must be square, got shape {A.shape}")
    diag = np.diag(A)
    if np.any(diag == 0):
        raise ParameterError("zero diagonal coefficient")
    re = diag.real if np.iscomplexobj(diag) else diag
    if np.any(re > 0) and np.any(re < 0):
        raise ParameterError("diagonal coefficients of mixed sign (not elliptic)")
    C = 1.0 - sum(
        (np.abs(A[j]).sum() - abs(A[j, j])) / abs(A[j, j]) for j in range(A.shape[0]))
    return {
        "C": float(C),
        "norm_sigma": float(np.abs(A).sum()),
        "norm_star": float(np.abs(diag).sum()),
        "accepted": bool(C > 0),
    }


def random_gdd(rng, d: int) -> np.ndarray:
    """A random d x d coefficient matrix that gdd_check accepts.

    Diagonal entries are drawn from [0.5, 2], off-diagonal ones from
    [-1, 1] and then scaled so the dominance margin C is a draw from
    [0.05, 0.8].  Every draw comes from rng, in a fixed order.
    """
    diag = rng.uniform(0.5, 2.0, size=d)
    off = rng.uniform(-1.0, 1.0, size=(d, d))
    np.fill_diagonal(off, 0.0)
    weight = sum(np.abs(off[j]).sum() / diag[j] for j in range(d))
    margin = rng.uniform(0.05, 0.8)
    if weight > 0:
        off *= (1.0 - margin) / weight
    return np.diag(diag) + off
