"""The bound-verification sweeps, each defined once.

A suite takes a seed and returns one row per case: the measured numbers,
the bounds they are held to, and a boolean "pass".  `pdekit verify-bounds`
prints and writes the scalar columns; the acceptance tests assert on the
same rows.  The conditioning suites also carry the assembled operators, so
that each violation they flag can be certified in exact arithmetic.  Only
kappa_general draws from the seed.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np

from .laplacian import condition_number, eigenvalues_1d, spectral_norm
from .spectral_ops import diff_matrix, random_gdd
from .spectral_system import assemble_system, condition_report
from .stencil import make_stencil, second_moment
from .transforms import (alternating_phase, centering_phase, cyclic_permutation,
                         dft_matrix, qct_matrix, qsft_matrix, twiddle_phase)

__all__ = [
    "SUITES",
    "fdm_kappa",
    "svd_fourier",
    "svd_chebyshev",
    "kappa_poisson",
    "kappa_general",
    "stencil",
    "transforms",
]

KAPPA_WINDOW = (1.0 / 3.0, 3.0 / 4.0)  # of kappa / (d n^2) on the periodic lattice
NORM_CAP = 4.0 * math.pi ** 2 / 3.0  # per-axis spectral norm of the lattice operator
CROSS_TERM_SLACK = 1e-12
TRANSFORM_TOL = 1e-12
GDD_DRAWS = 50


def stencil(seed):
    """Exact rational identities of the order-2k stencils, k = 1..30.

    The decay margin is max_j |r_j| / (2/j^2), held to at most 1.
    """
    rows = []
    for k in range(1, 31):
        s = make_stencil(k)
        exact = all(isinstance(c, Fraction) for c in s.exact)
        symmetric = bool(np.array_equal(s.coeffs, s.coeffs[::-1]))
        zero_sum = s.exact[0] + 2 * sum(s.exact[1:]) == 0
        # the printed identity carries a minus sign; with this sign
        # convention (positive center falls out of -u'' ~ +1) the exact
        # weighted moment is +1, and that is what the closed form gives
        moment = second_moment(s) == 1
        decay = max(abs(s.exact[j]) / Fraction(2, j * j) for j in range(1, k + 1))
        rows.append({"k": k, "exact_rational": exact, "symmetric": symmetric,
                     "zero_sum": zero_sum, "moment_one": moment,
                     "decay_margin": float(decay),
                     "pass": exact and symmetric and zero_sum and moment and decay <= 1})
    return rows


def fdm_kappa(seed):
    """kappa/(d n^2) in KAPPA_WINDOW and per-axis norm under NORM_CAP, 45 lattices."""
    low, high = KAPPA_WINDOW
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for d in (1, 2, 3):
            for k in (1, 2, 4):
                for n in (8, 16, 32, 64, 128):
                    lam = eigenvalues_1d(make_stencil(k), n)
                    ratio = condition_number(lam, d) / (d * n * n)
                    norm = spectral_norm(lam, d) / d
                    rows.append({"d": d, "k": k, "n": n, "kappa_over_dn2": ratio,
                                 "norm_1d": norm,
                                 "pass": low <= ratio <= high and norm <= NORM_CAP})
    return rows


def _svd_envelope(basis):
    rows = []
    for n in range(4, 65):
        M = diff_matrix(basis, 2, n, with_boundary_rows=True).dense()
        sv = np.linalg.svd(M, compute_uv=False)
        if basis == "fourier":
            hi, lo = (2.0 * n) ** 2.5, 1.0 / math.sqrt(2.0)
        else:
            hi, lo = float(n) ** 4, 1.0 / 16.0
        rows.append({"n": n, "sigma_max": float(sv[0]), "max_bound": hi,
                     "sigma_min": float(sv[-1]), "min_bound": lo,
                     "pass": bool(sv[0] <= hi and sv[-1] >= lo)})
    return rows


def svd_fourier(seed):
    """Closed Fourier second-derivative matrix: sigma in [1/sqrt 2, (2n)^2.5], n = 4..64."""
    return _svd_envelope("fourier")


def svd_chebyshev(seed):
    """Closed Chebyshev second-derivative matrix: sigma in [1/16, n^4], n = 4..64."""
    return _svd_envelope("chebyshev")


def kappa_poisson(seed):
    """kappa <= (2n)^4 for the Poisson systems of both bases, d = 1..3, n = 2..8.

    Each row carries its assembled SpectralSystem under "system".
    """
    rows = []
    for basis in ("fourier", "chebyshev"):
        for d in (1, 2, 3):
            for n in range(2, 9):
                system = assemble_system(np.eye(d), basis, n, np.zeros((n + 1) ** d))
                rep = condition_report(system)
                rows.append({"basis": basis, "d": d, "n": n, "kappa": rep["kappa"],
                             "bound": rep["bound_poisson"],
                             "pass": bool(rep["within_poisson"]), "system": system})
    return rows


def kappa_general(seed):
    """Condition and cross-term bounds of seeded diagonally dominant operators.

    One generator gives GDD_DRAWS draws of (d, n, A), and each draw is
    assembled in both bases.  L1 is the operator of A's diagonal part and
    M = L2 L1^{-1} the cross-term map, with L2 = L - L1; the cross-term
    bound is ||M|| <= 1 - C up to CROSS_TERM_SLACK.  Each row carries the
    sparse L and L1 and the dense M (None when L1 is singular).
    """
    rng = np.random.default_rng(seed)
    rows = []
    for trial in range(GDD_DRAWS):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(3, 7)) if d == 2 else int(rng.integers(2, 5))
        A = random_gdd(rng, d)
        zero = np.zeros((n + 1) ** d)
        for basis in ("fourier", "chebyshev"):
            system = assemble_system(A, basis, n, zero)
            rep = condition_report(system)
            L1 = assemble_system(np.diag(np.diag(A)), basis, n, zero).L
            pure = L1.toarray()
            try:
                M = np.linalg.solve(pure.T, (system.L.toarray() - pure).T).T
                ratio = float(np.linalg.norm(M, 2))
            except np.linalg.LinAlgError:
                M, ratio = None, math.inf
            C = system.gdd["C"]
            kappa_ok = bool(rep["within_general"])
            cross_term_ok = ratio <= 1.0 - C + CROSS_TERM_SLACK
            rows.append({"trial": trial, "basis": basis, "d": d, "n": n, "C": C,
                         "kappa": rep["kappa"], "kappa_bound": rep["bound_general"],
                         "sigma_min": rep["sigma_min"], "perturbation": ratio,
                         "pert_bound": 1.0 - C, "kappa_ok": kappa_ok,
                         "cross_term_ok": cross_term_ok,
                         "pass": kappa_ok and cross_term_ok,
                         "L": system.L, "L1": L1, "M": M})
    return rows


def transforms(seed):
    """Six transform identities at sizes 2..64, each deviation within TRANSFORM_TOL.

    The shifted DFT factors as S F R; the plain DFT F conjugates the
    twiddle phase into the cyclic shift; both DFTs are unitary; the cosine
    transform is a symmetric involution.
    """
    rows = []
    for n in range(1, 64):
        F, Fs, Q = dft_matrix(n), qsft_matrix(n), qct_matrix(n)
        S = np.diag(centering_phase(n))
        R = np.diag(alternating_phase(n))
        T = np.diag(twiddle_phase(n))
        eye = np.eye(n + 1)
        errors = {
            "factorization": Fs - S @ F @ R,
            "shift_conjugation": cyclic_permutation(n) - F @ T @ np.conj(F.T),
            "unitarity": Fs @ np.conj(Fs.T) - eye,
            "dft_unitarity": F @ np.conj(F.T) - eye,
            "qct_involution": Q @ Q - eye,
            "qct_symmetry": Q - Q.T,
        }
        row = {"n": n} | {name: float(np.abs(E).max()) for name, E in errors.items()}
        row["worst"] = max(row[name] for name in errors)
        row["pass"] = row["worst"] <= TRANSFORM_TOL
        rows.append(row)
    return rows


SUITES = {
    "fdm_kappa": fdm_kappa,
    "svd_fourier": svd_fourier,
    "svd_chebyshev": svd_chebyshev,
    "kappa_poisson": kappa_poisson,
    "kappa_general": kappa_general,
    "stencil": stencil,
    "transforms": transforms,
}
