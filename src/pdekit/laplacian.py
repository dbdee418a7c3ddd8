"""Circulant FDM Laplacians on 2n periodic lattice sites and their Kronecker sums.

Operators are stored by their circulant symbol (first column of the 1D
matrix); dense matrices are materialized only on demand and under a size
budget.  Eigenvalues come from the closed cosine form

    lambda_l = sum_{j=1..k} 2 r_j (cos(pi l j / n) - 1),    l = 0..2n-1,

written in the (cos - 1) form so that lambda_0 = 0 exactly and no
cancellation of the r_0 term occurs.  A d-dimensional operator has
eigenvalues equal to d-fold sums of the 1D ones; its extreme nonzero
magnitudes are d * max|lambda| and min_{l != 0}|lambda_l|, so condition
numbers never require materialization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import BudgetExceeded, ParameterError
from .stencil import Stencil
from .tensor import kron_sum

__all__ = [
    "CirculantOperator",
    "build_circulant",
    "eigenvalues_1d",
    "condition_number_1d",
    "kronecker_sum",
    "condition_number",
    "spectral_norm",
]

DENSE_BUDGET = 1 << 22  # max entries a dense materialization may hold
DENSE_LIMIT = 4096  # max rows of an operator factorized densely (eigvalsh, SVD)


@dataclass(frozen=True)
class CirculantOperator:
    """Periodic order-2k Laplacian on (2n)^dim sites, h = pi/n per axis."""

    n: int
    stencil: Stencil
    dim: int
    symbol: np.ndarray  # first column of the 1D circulant, length 2n

    @property
    def sites_1d(self) -> int:
        return 2 * self.n

    def dense_1d(self) -> np.ndarray:
        """Materialize the 1D matrix from the symbol."""
        N = self.sites_1d
        if N * N > DENSE_BUDGET:
            raise BudgetExceeded(f"dense 1d circulant of size {N} exceeds budget")
        M = np.empty((N, N))
        for i in range(N):
            M[i] = np.roll(self.symbol, i)
        return M

    def dense(self) -> np.ndarray:
        """Materialize the full Kronecker sum; budget-checked."""
        N = self.sites_1d ** self.dim
        if N * N > DENSE_BUDGET:
            raise BudgetExceeded(f"dense operator of size {N} exceeds budget")
        return kron_sum(sp.csr_matrix(self.dense_1d()), self.dim).toarray()


def build_circulant(s: Stencil, n: int) -> CirculantOperator:
    """1D periodic Laplacian symbol for stencil s on 2n sites.

    Requires the stencil to fit around the cycle without self-overlap
    (k <= 2n would alias taps onto each other at k > n; the advertised
    condition-number bands moreover assume k grows slower than n^(2/3),
    so a warning is emitted once k reaches that scale).
    """
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    N = 2 * n
    if 2 * s.k + 1 > N:
        raise ParameterError(f"stencil width {2 * s.k + 1} exceeds lattice size {N}")
    if s.k ** 3 >= n ** 2:
        warnings.warn(
            f"k={s.k} is not small against n^(2/3) (n={n}); "
            "condition-number bands are derived for k = o(n^(2/3))",
            stacklevel=2,
        )
    symbol = np.zeros(N)
    symbol[0] = float(s.exact[0])
    for j in range(1, s.k + 1):
        w = float(s.exact[j])
        symbol[j % N] += w
        symbol[-j % N] += w
    return CirculantOperator(n=int(n), stencil=s, dim=1, symbol=symbol)


def eigenvalues_1d(op: CirculantOperator) -> np.ndarray:
    """All 2n eigenvalues by the cosine formula; index l matches frequency l."""
    if op.dim != 1:
        raise ParameterError("eigenvalues_1d expects a 1d operator")
    n = op.n
    l = np.arange(2 * n)
    lam = np.zeros(2 * n)
    for j in range(1, op.stencil.k + 1):
        lam += 2.0 * float(op.stencil.exact[j]) * (np.cos(np.pi * l * j / n) - 1.0)
    return lam


def spectral_norm(op: CirculantOperator) -> float:
    """max |eigenvalue| of the operator (d * the 1D maximum)."""
    base = CirculantOperator(op.n, op.stencil, 1, op.symbol)
    return op.dim * float(np.abs(eigenvalues_1d(base)).max())


def condition_number_1d(op: CirculantOperator) -> float:
    """max|lambda| / min nonzero |lambda|, the kernel direction excluded."""
    if op.dim != 1:
        raise ParameterError("condition_number_1d expects a 1d operator")
    if op.n < 2:
        raise ParameterError("condition number is degenerate at n = 1")
    lam = np.abs(eigenvalues_1d(op)[1:])  # l = 0 is the exact kernel
    return float(lam.max() / lam.min())


def kronecker_sum(op: CirculantOperator, d: int) -> CirculantOperator:
    """The d-dimensional Laplacian sum_i I x..x L x..x I over the same symbol."""
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    if op.dim != 1:
        raise ParameterError("kronecker_sum starts from a 1d operator")
    return CirculantOperator(n=op.n, stencil=op.stencil, dim=int(d), symbol=op.symbol)


def condition_number(op: CirculantOperator) -> float:
    """Condition number over the nonzero spectrum of the d-dimensional operator.

    All 1D eigenvalues are <= 0, so the extreme magnitudes of d-fold sums
    are d * max|lambda| (every axis extremal) and the smallest nonzero
    |lambda| (one axis at frequency 1, the rest in the kernel).
    """
    if op.n < 2:
        raise ParameterError("condition number is degenerate at n = 1")
    base = CirculantOperator(op.n, op.stencil, 1, op.symbol)
    lam = np.abs(eigenvalues_1d(base)[1:])
    return float(op.dim * lam.max() / lam.min())
