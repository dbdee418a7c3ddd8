"""The 1D spectrum of the order-2k lattice Laplacian, and what it fixes in d.

On 2n periodic sites, h = pi/n, the order-2k Laplacian is a circulant with
the closed cosine eigenvalues

    lambda_l = sum_{j=1..k} 2 r_j (cos(pi l j / n) - 1),    l = 0..2n-1,

written in the (cos - 1) form so that lambda_0 = 0 exactly and no
cancellation of the r_0 term occurs.  The reflection-restricted operators
are diagonalized by the DST-II (Dirichlet) and the DCT-II (Neumann), whose
eigenvalues are the sectors l = 1..n and l = 0..n-1 of the same spectrum.
For every boundary condition the d-dimensional operator is the Kronecker
sum of its 1D factor, so its eigenvalues are the d-fold sums of one sector
spectrum, and its norm and condition number are closed forms of that
spectrum: no lattice operator is ever built.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ParameterError
from .stencil import Stencil

__all__ = [
    "eigenvalues_1d",
    "condition_number",
    "spectral_norm",
]


def eigenvalues_1d(s: Stencil, n: int) -> np.ndarray:
    """All 2n eigenvalues of stencil s on 2n periodic sites; index l is frequency l.

    Requires the stencil to fit around the cycle without self-overlap
    (width 2k+1 <= 2n).  The advertised condition-number bands moreover
    assume k grows slower than n^(2/3), so a warning is emitted once k
    reaches that scale.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    if 2 * s.k + 1 > 2 * n:
        raise ParameterError(f"stencil width {2 * s.k + 1} exceeds lattice size {2 * n}")
    if s.k ** 3 >= n ** 2:
        warnings.warn(
            f"k={s.k} is not small against n^(2/3) (n={n}); "
            "condition-number bands are derived for k = o(n^(2/3))",
            stacklevel=2,
        )
    l = np.arange(2 * n)
    lam = np.zeros(2 * n)
    for j in range(1, s.k + 1):
        lam += 2.0 * float(s.exact[j]) * (np.cos(np.pi * l * j / n) - 1.0)
    return lam


def spectral_norm(lam, d: int) -> float:
    """max |eigenvalue| of the d-axis Kronecker sum over the 1D spectrum lam."""
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    return d * float(np.abs(lam).max())


def condition_number(lam, d: int) -> float:
    """Condition number over the nonzero spectrum of the d-axis Kronecker sum.

    lam is any sector of the 1D spectrum.  Its eigenvalues are all <= 0, so
    the extreme magnitudes of the d-fold sums are d * max|lambda| (every
    axis extremal) and, at the low end, the smallest nonzero |lambda| when
    lam holds the exact kernel 0 (one axis off the kernel, the rest on it),
    else d * min|lambda|.
    """
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    lam = np.abs(np.asarray(lam, dtype=float))
    nonzero = lam[lam > 0]
    if nonzero.size == 0:
        raise ParameterError("condition number is degenerate: the spectrum is all zero")
    low = nonzero.min() if nonzero.size < lam.size else d * nonzero.min()
    return float(d * lam.max() / low)
