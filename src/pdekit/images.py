"""Method-of-images restrictions of the periodic Laplacian.

A Dirichlet (antisymmetric) or Neumann (symmetric) problem on n sites is the
periodic problem on 2n sites restricted to a symmetry sector.  Site i of the
restricted lattice pairs with its mirror image 2n-1-i (0-indexed; the
published piecewise formulas are 1-indexed, so their correction index i+j-1
reads i+j+1 here and 2n-i-j+1 reads 2n-i-j-1).  The third variant
("dirichlet_alt") reflects through lattice points instead of midpoints: it
lives on a 2n+2 cycle, pairs site i+1 with 2n+1-i, and is stored padded to
(n+1) x (n+1) with a zero final row and column to keep the (n+1)-dimensional
description literal.

Entry formulas, with r_j = 0 for j > k and s = +1 (Neumann), -1 (Dirichlet):

    dirichlet/neumann:  L''_ij = r_|i-j| + s r_{i+j+1} + s r_{2n-i-j-1}
    dirichlet_alt:      L''_ij = r_|i-j| - r_{i+j+2}   - r_{2n-i-j}
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SymmetryViolation
from .stencil import Stencil

__all__ = [
    "RestrictedLaplacian",
    "restrict",
    "fold_vector",
    "unfold_vector",
]

_BCS = ("neumann", "dirichlet", "dirichlet_alt")


@dataclass(frozen=True)
class RestrictedLaplacian:
    n: int
    bc: str
    matrix: np.ndarray
    sign: int  # +1 symmetric sector, -1 antisymmetric

    @property
    def parent_sites(self) -> int:
        """Size of the periodic lattice this restriction folds."""
        return 2 * self.n + (2 if self.bc == "dirichlet_alt" else 0)


def restrict(s: Stencil, n: int, bc: str) -> RestrictedLaplacian:
    """Restricted Laplacian matrix for the given boundary condition.

    Requires k < n/2 so the two edge corrections cannot collide in one
    entry; at k >= n/2 a tap would fold back onto itself.
    """
    if bc not in _BCS:
        raise ParameterError(f"bc must be one of {_BCS}, got {bc!r}")
    if not s.k < n / 2:
        raise ParameterError(f"edge corrections collide: need k < n/2, got k={s.k}, n={n}")

    r = np.zeros(2 * n + 1)  # r_j, zero past k
    r[:s.k + 1] = [float(c) for c in s.exact]
    i, j = np.ogrid[:n, :n]
    if bc == "dirichlet_alt":
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = r[abs(i - j)] - r[i + j + 2] - r[2 * n - i - j]
        return RestrictedLaplacian(n=n, bc=bc, matrix=M, sign=-1)

    sign = 1 if bc == "neumann" else -1
    M = r[abs(i - j)] + sign * (r[i + j + 1] + r[2 * n - i - j - 1])
    return RestrictedLaplacian(n=n, bc=bc, matrix=M, sign=sign)


def _pairing(n: int, bc: str):
    """Index arrays (i, mirror(i)) of the parent lattice, restricted order."""
    k = np.arange(n)
    if bc == "dirichlet_alt":
        return k + 1, 2 * n + 1 - k
    return k, 2 * n - 1 - k


def fold_vector(v: np.ndarray, bc: str, n: int | None = None, rtol: float = 1e-10,
                axis: int = -1) -> np.ndarray:
    """Coordinates of v in the symmetry-sector basis (e_i + s e_mirror)/sqrt(2).

    v lives on the parent periodic lattice (2n sites, or 2n+2 for
    dirichlet_alt, where the two reflection fixed points must be zero) along
    the given axis; every fiber along that axis is folded.  Raises
    SymmetryViolation when a fiber has a component in the complementary
    sector larger than rtol * ||fiber||.
    """
    if bc not in _BCS:
        raise ParameterError(f"bc must be one of {_BCS}, got {bc!r}")
    v = np.moveaxis(np.asarray(v, dtype=float), axis, -1)
    if n is None:
        n = (v.shape[-1] - 2) // 2 if bc == "dirichlet_alt" else v.shape[-1] // 2
    expected = 2 * n + (2 if bc == "dirichlet_alt" else 0)
    if v.shape[-1] != expected:
        raise ParameterError(f"expected a vector of length {expected}, got {v.shape[-1]}")
    sign = 1 if bc == "neumann" else -1
    i, m = _pairing(n, bc)
    out = (v[..., i] + sign * v[..., m]) / np.sqrt(2.0)
    bad = np.abs(v[..., i] - sign * v[..., m]) / np.sqrt(2.0)
    if bc == "dirichlet_alt":
        # reflection fixed points carry no sector freedom
        bad = np.concatenate([bad, np.abs(v[..., [0, n + 1]])], axis=-1)
        out = np.concatenate([out, np.zeros_like(out[..., :1])], axis=-1)
    bad = bad.max(axis=-1, initial=0.0)
    scale = np.linalg.norm(v, axis=-1)
    over = (scale > 0) & (bad > rtol * scale)
    if over.any():
        j = over.argmax()
        raise SymmetryViolation(
            f"component {bad.flat[j]:.3e} in the complementary sector exceeds "
            f"rtol*||v|| = {rtol * scale.flat[j]:.3e}")
    return np.moveaxis(out, -1, axis)


def unfold_vector(w: np.ndarray, bc: str) -> np.ndarray:
    """Inverse of fold_vector back onto the parent lattice."""
    if bc not in _BCS:
        raise ParameterError(f"bc must be one of {_BCS}, got {bc!r}")
    w = np.asarray(w, dtype=float)
    if bc == "dirichlet_alt":
        n = w.size - 1
        v = np.zeros(2 * n + 2)
    else:
        n = w.size
        v = np.zeros(2 * n)
    sign = 1 if bc == "neumann" else -1
    i, m = _pairing(n, bc)
    v[i] = w[:n] / np.sqrt(2.0)
    v[m] = sign * w[:n] / np.sqrt(2.0)
    return v
