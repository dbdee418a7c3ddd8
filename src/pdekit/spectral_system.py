"""Coefficient-space linear systems for pure second-order elliptic PDEs.

The operator sum_{j1,j2} A_{j1,j2} d^2/dx_j1 dx_j2 on [-1,1]^d becomes, in a
collocation basis, L = sum_j A_jj Dbar^(j) + sum_{j1 != j2} A_{j1,j2} D^(j1,j2)
where Dbar^(j) places the closed second-derivative block B on axis j and the
mixed terms place two first-derivative matrices.  The pure part is the
Kronecker sum of the weighted blocks A_jj B.  B is diff_matrix(basis, 2, n,
with_boundary_rows=True), built once per system and stored on it as block:
SpectralSystem.inverse reads the system's inverse and its spectrum off it once.

Boundary data rides the closure rows: for Chebyshev, rows with k_j = n carry
the +1 face of axis j and rows with k_j = n-1 the -1 face; for Fourier
(periodic) the single center row per axis carries the axis-mean data.  The
source coefficients f-hat fill every row that retains at least one interior
axis and are dropped from rows whose axes are all closure indices (those
rows are pure constraint rows).

Mixed-derivative contributions are dropped from Chebyshev closure rows so
the constraint equations stay exact.  Fourier closure rows keep them: the
first-derivative matrix is diagonal with a zero at the center frequency, so
the term of axes j1, j2 already vanishes on a row closed on j1 or j2, and a
row closed only on other axes (d >= 3) keeps the whole PDE, as its f-hat
right-hand side does.

Closure variants for the periodic basis: "axes" (default, one mean-value row
per axis, mirroring the Chebyshev structure), "point" (a single all-ones row
pinning the value at the origin node), "pin" (pin one coefficient directly).
Under "point" and "pin" the pure part sums the open block
diff_matrix(basis, 2, n), so every row but the centre one holds the PDE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import BudgetExceeded, DegenerateRhs, ParameterError
from .spectral_ops import (BASES, DENSE_LIMIT, SYSTEM_BUDGET, boundary_row_indices, diff_matrix,
                           gdd_check, multi_diff)
from .tensor import SingularToRounding, axis_sum, kron_sum, kron_sum_solver, require_nonsingular

__all__ = [
    "choose_truncation",
    "certified_truncation_order",
    "embed_boundary",
    "SpectralSystem",
    "assemble_system",
    "closure_levels",
    "block_inverse",
    "state_prep_q",
    "min_eig_sum",
    "condition_report",
]


def choose_truncation(g: float, g_prime: float, eps: float) -> int:
    """Truncation order floor(ln(W)/ln(ln(W))) with W = g'(1+eps)/(g eps).

    g is a lower bound on the solution norm, g_prime an upper bound on its
    derivative magnitudes, eps the target normalized error.  The result is
    clamped below at 2.  Note this is the asymptotic-order expression; the
    finite-W guarantee it is usually quoted with does not actually hold (see
    certified_truncation_order for the version that does).
    """
    _require_rule_inputs(g, g_prime, eps)
    if g_prime < g:
        raise ParameterError(f"need g_prime >= g, got {g_prime} < {g}")
    omega = g_prime * (1.0 + eps) / (g * eps)
    if omega <= math.e:
        raise ParameterError(f"eps too large: ratio {omega:.3g} must exceed e")
    n = math.floor(math.log(omega) / math.log(math.log(omega)))
    return max(2, n)


def certified_truncation_order(g: float, g_prime: float, eps: float, n_max: int = 500) -> int:
    """Smallest n with g' (e/(2n))^n <= g eps/(1+eps), evaluated in log space.

    This is the inequality choose_truncation is supposed to guarantee; the
    closed formula undershoots it at every finite ratio, so callers needing
    the certificate use this search instead.
    """
    _require_rule_inputs(g, g_prime, eps)
    target = math.log(g * eps / (1.0 + eps)) - math.log(g_prime)
    for n in range(2, n_max + 1):
        if n * (1.0 - math.log(2.0 * n)) <= target:
            return n
    raise ParameterError(f"no certificate below n_max={n_max}")


def _require_rule_inputs(g: float, g_prime: float, eps: float) -> None:
    """Reject NaN, infinite or nonpositive g and g', and eps outside (0, 1)."""
    if not (0 < g < math.inf and 0 < g_prime < math.inf and 0 < eps < 1):
        raise ParameterError(f"need finite g, g_prime > 0 and eps in (0,1), "
                             f"got g={g}, g_prime={g_prime}, eps={eps}")


def embed_boundary(basis: str, n: int, d: int, axis: int, side: str, coeffs) -> np.ndarray:
    """Place a (d-1)-dimensional coefficient vector on an axis's closure rows.

    side is "plus" or "minus" (the x = +1 / x = -1 face; identical for the
    periodic basis, whose single closure row serves both).  coeffs has length
    (n+1)^(d-1), for d = 1 a scalar; None means zeros.  Returns a full-length
    vector.
    """
    if side not in ("plus", "minus"):
        raise ParameterError(f"side must be 'plus' or 'minus', got {side!r}")
    if not 0 <= axis < d:
        raise ParameterError(f"axis {axis} out of range for d={d}")
    N = n + 1
    plus, minus = boundary_row_indices(basis, n)
    row = plus if side == "plus" else minus
    out = np.zeros(N ** d, dtype=complex)
    if coeffs is None:
        return out
    coeffs = np.atleast_1d(np.asarray(coeffs))
    if coeffs.size != N ** (d - 1):
        raise ParameterError(f"expected {N ** (d - 1)} coefficients, got {coeffs.size}")
    cube_shape = [N] * d
    cube = out.reshape(cube_shape)
    sel = [slice(None)] * d
    sel[axis] = row
    cube[tuple(sel)] = coeffs.reshape([N] * (d - 1)) if d > 1 else coeffs[0]
    return out


@dataclass
class SpectralSystem:
    """An assembled L c = b system, its closed 1D block B under every closure, and its scalars.

    inverse is block_inverse(self), kept from the first read and read by the
    solve, condition_report and min_eig_sum; a refusal is kept too and
    raised again on each read.  dataclasses.replace starts afresh.  An L
    assigned after the first read keeps the old L's inverse: certificates
    are computed on the new L, and condition_report checks its entries.  A
    system whose inverse was read holds closures, so it cannot be pickled.
    """

    basis: str
    n: int
    d: int
    A: np.ndarray
    closure: str
    L: sp.csr_matrix
    block: sp.csr_matrix
    rhs: np.ndarray
    gdd: dict
    q: float | None = None

    @property
    def size(self) -> int:
        return (self.n + 1) ** self.d

    @property
    def inverse(self):
        inverse, refusal = self._inverse
        if refusal is not None:
            raise refusal
        return inverse

    @cached_property
    def _inverse(self):
        try:
            return block_inverse(self), None
        except np.linalg.LinAlgError as refusal:
            return None, refusal


def closure_levels(basis: str, n: int, d: int) -> np.ndarray:
    """The number of closure axes of each row of a d-axis system, axis 0 slowest."""
    return axis_sum(np.isin(np.arange(n + 1), boundary_row_indices(basis, n)), d).reshape(-1)


def _require_finite(name: str, *arrays) -> None:
    if not all(np.isfinite(x).all() for x in arrays):
        raise ParameterError(f"{name} has non-finite entries")


def assemble_system(A, basis: str, n: int, fhat, boundary=None,
                    closure: str = "axes", point_value: complex = 0.0) -> SpectralSystem:
    """Build L and the right-hand side from coefficient-space data.

    A is the d x d coefficient matrix (the GDD margin is computed and
    attached; callers decide whether to proceed on rejected operators).
    fhat has length (n+1)^d.  boundary is a per-axis list of
    (plus_coeffs, minus_coeffs) pairs of (n+1)^(d-1)-vectors; None means
    homogeneous.  For the periodic basis the pair collapses to one vector per
    axis (the coefficients of the solution's x_j = 0 slice), passed in the
    plus slot with minus None; the alternative closures "point"/"pin" take
    the scalar point_value instead.  Non-finite A, fhat or boundary data are
    rejected, and so is a system above SYSTEM_BUDGET rows (BudgetExceeded),
    before anything is built, or a mixed term above NNZ_BUDGET nonzeros.
    """
    A = np.asarray(A)
    _require_finite("A", A)
    if basis not in BASES:
        raise ParameterError(f"basis must be one of {BASES}, got {basis!r}")
    d = A.shape[0]
    gdd = gdd_check(A)
    N = n + 1
    fhat = np.asarray(fhat, dtype=complex).reshape(-1)
    if fhat.size != N ** d:
        raise ParameterError(f"fhat has length {fhat.size}, expected {N ** d}")
    _require_finite("fhat", fhat)
    if basis == "chebyshev" and closure != "axes":
        raise ParameterError("closure variants exist for the periodic basis only")
    if closure not in ("axes", "point", "pin"):
        raise ParameterError(f"closure must be axes, point or pin, got {closure!r}")

    if N ** d > SYSTEM_BUDGET:
        raise BudgetExceeded(f"operator of size {N ** d} exceeds budget")

    closed = closure_levels(basis, n, d)
    # the mixed terms first: multi_diff checks NNZ_BUDGET before it builds
    mixed = None
    for j1 in range(d):
        for j2 in range(j1 + 1, d):
            w = A[j1, j2] + A[j2, j1]
            if w != 0:
                pat = [0] * d
                pat[j1] = pat[j2] = 1
                term = w * multi_diff(pat, basis, n, d)
                mixed = term if mixed is None else mixed + term
    B = diff_matrix(basis, 2, n, with_boundary_rows=True)
    pure = B if closure == "axes" else diff_matrix(basis, 2, n)
    L = kron_sum([A[j, j] * pure for j in range(d)])
    if mixed is not None:
        if basis == "chebyshev":
            # constraint rows must stay exact; the mixed action enters interior rows only
            mixed = sp.diags((closed == 0).astype(float)) @ mixed
        L = L + mixed

    if closure in ("point", "pin"):
        _require_finite("point_value", point_value)
        center = np.ravel_multi_index([n // 2] * d, [N] * d)
        cols = np.arange(N ** d) if closure == "point" else np.array([center])
        row = sp.csr_matrix((np.ones(cols.size), (np.full(cols.size, center), cols)),
                            shape=L.shape)
        L = sp.diags((np.arange(N ** d) != center).astype(float)) @ L + row
        rhs = np.array(fhat, dtype=complex)
        rhs[center] = point_value
        q = None
    else:
        # rows whose every axis is a closure index are pure constraint rows
        rhs = np.where(closed == d, 0.0, fhat)
        plus_terms, minus_terms = [], []
        for j in range(d):
            gp, gm = (None, None) if boundary is None else boundary[j]
            if basis == "fourier" and gm is not None:
                raise ParameterError(
                    "periodic closures take one data vector per axis (plus slot)")
            ep = embed_boundary(basis, n, d, j, "plus", gp)
            em = embed_boundary(basis, n, d, j, "minus", gm)
            # before scaling: a complex inf times A_jj computes inf * 0 and warns
            _require_finite(f"boundary data of axis {j}", ep, em)
            plus_terms.append(A[j, j] * ep)
            minus_terms.append(A[j, j] * em)
            rhs = rhs + plus_terms[-1] + minus_terms[-1]
        q = state_prep_q(fhat, plus_terms, minus_terms)[0] if boundary is not None else 1.0

    if basis == "chebyshev":
        rhs_out = rhs if rhs.imag.any() else rhs.real
    else:
        rhs_out = rhs
    return SpectralSystem(basis=basis, n=int(n), d=int(d), A=A, closure=closure,
                          L=L.tocsr(), block=B, rhs=rhs_out, gdd=gdd, q=q)


def state_prep_q(fhat, weighted_plus, weighted_minus=None):
    """Cancellation overhead q and the success probability 1/q^2.

    weighted_plus / weighted_minus are per-axis full-length vectors already
    scaled by A_jj (the embedding of the boundary coefficients onto closure
    rows).  q^2 is the ratio of the sum of squared magnitudes of the three
    ingredient families to the squared magnitudes of their row sums; exact
    cancellation raises DegenerateRhs.  The source coefficients enter
    unplaced, exactly as the overhead is defined.
    """
    fhat = np.asarray(fhat, dtype=complex).reshape(-1)
    if weighted_minus is None:
        weighted_minus = [np.zeros_like(fhat) for _ in weighted_plus]
    num = 0.0
    den = 0.0
    for gp, gm in zip(weighted_plus, weighted_minus):
        gp = np.asarray(gp, dtype=complex).reshape(-1)
        gm = np.asarray(gm, dtype=complex).reshape(-1)
        num += float((np.abs(fhat) ** 2 + np.abs(gp) ** 2 + np.abs(gm) ** 2).sum())
        den += float((np.abs(fhat + gp + gm) ** 2).sum())
    if num == 0.0:
        raise DegenerateRhs("all source and boundary coefficients vanish")
    if den == 0.0:
        raise DegenerateRhs("source and boundary terms cancel exactly")
    q = math.sqrt(num / den)
    return q, 1.0 / (q * q)


def min_eig_sum(system) -> float:
    """min |lam| over the spectrum the system's inverse divides by: a near-singularity flag.

    That is L's own spectrum for Fourier (the substitution's pivots) and the
    pure part's, sum_j A_jj lam_j over the eigenvalues lam of B, for
    Chebyshev.  Where the inverse has none (one axis) or is refused, one
    eigenvalue solve of B gives the latter; B above DENSE_LIMIT rows raises
    BudgetExceeded.
    """
    try:
        spectrum = system.inverse[3]
    except np.linalg.LinAlgError:
        spectrum = None
    if spectrum is None:
        if system.block.shape[0] > DENSE_LIMIT:
            raise BudgetExceeded(
                f"min_eig_sum of {system.block.shape[0]} rows exceeds DENSE_LIMIT")
        lam = np.linalg.eigvals(system.block.toarray())
        spectrum = axis_sum([system.A[j, j] * lam for j in range(system.d)], system.d)
    return float(np.abs(spectrum).min())


def _sigma_max(op) -> float:
    """Largest singular value of a LinearOperator: ARPACK Lanczos on op^H op (svds, k = 1).

    tol=0 asks for full precision and the start vector is seeded, so one
    operator always gives the same bits.  A complex operator runs as its
    real form [[Re, -Im], [Im, Re]], which has the same singular values, each
    twice: ARPACK's real Lanczos takes any size, its complex Arnoldi needs at
    least three rows.
    """
    import scipy.sparse.linalg as spla

    if np.issubdtype(op.dtype, np.complexfloating):
        m = op.shape[0]

        def real_form(apply):
            def split(x):
                z = apply(x[:m] + 1j * x[m:])
                return np.concatenate([z.real, z.imag])
            return split

        op = spla.LinearOperator((2 * m, 2 * m), matvec=real_form(op.matvec),
                                 rmatvec=real_form(op.rmatvec), dtype=float)
    v0 = np.random.default_rng(0).standard_normal(op.shape[0])
    return float(spla.svds(op, k=1, tol=0, v0=v0, return_singular_vectors=False)[0])


def block_inverse(system: SpectralSystem):
    """x -> M x, x -> M^H x or None, M's form and the read-only spectrum M divides by, or None.

    When every off-diagonal entry of B runs from a closure row to an open
    column, every one of L runs from a row with more closure axes to a column
    with fewer (such a basis has diagonal mixed terms; the point/pin row is
    the top level's only row), and M is L^-1 by substitution, no adjoint,
    dividing by L's pivots, its eigenvalues: the rows with no closure axis
    hold only their pivot, then sweep k = 1..d takes the CSR rows with k
    closure axes, subtracts their action on the levels solved and divides by
    the pivots.  Otherwise M inverts L's pure part kron_sum([A_jj B]) in the
    form tensor.kron_sum_solver names.  A refused M raises LinAlgError, and
    SingularToRounding when L itself is: its pivots, or a pure part it equals.
    """
    B, L = system.block.tocoo(), system.L
    closed = closure_levels(system.basis, system.n, 1)
    off = (B.row != B.col) & (B.data != 0)
    if not closed[B.row[off]].all() or closed[B.col[off]].any():
        try:
            return kron_sum_solver(system.block, np.diag(system.A))
        except SingularToRounding as exc:
            if _is_pure_part(system):
                raise
            raise np.linalg.LinAlgError(f"the pure part of L: {exc}") from exc
    level = closure_levels(system.basis, system.n, system.d)
    pivots = L.diagonal()
    require_nonsingular(pivots, system.d, "L")
    pivots.flags.writeable = False
    sweeps = [(rows, L[rows], pivots[rows])
              for rows in (np.flatnonzero(level == k) for k in range(1, system.d + 1))]

    def solve(b):
        c = np.where(level == 0, b / pivots, 0)
        for rows, part, diag in sweeps:
            c[rows] = (b[rows] - part @ c) / diag  # the unsolved entries of c are still 0
        return c
    return solve, None, "substitution", pivots


def _is_pure_part(system) -> bool:
    """Whether A is diagonal and L's entries are kron_sum([A_jj B])'s: a caller may replace L."""
    A = system.A
    return not (np.count_nonzero(A - np.diag(np.diag(A)))
                or (kron_sum([w * system.block for w in np.diag(A)]) != system.L).nnz)


def condition_report(system) -> dict:
    """Extreme singular values of L, and the bounds they are measured against.

    sigma_max comes from Lanczos on the sparse L, sigma_min = 1 / ||L^-1||_2
    from Lanczos on L^-1; L is never made dense.  When the system's inverse
    (SpectralSystem.inverse) takes the "eig" form and L equals its pure part
    kron_sum([A_jj B]), L^-1 and L^-H are that form's per-axis maps
    ("lanczos-eig", lu_nnz None).  Otherwise they come from one sparse LU of
    L in its natural order, the least fill on these operators
    ("lanczos-splu", lu_nnz the factor's stored entries).  An exactly
    singular factor, or an inverse refused as L singular to rounding (then
    no LU runs), is a verdict that no estimator ran: method "singular",
    sigma_min = 0, kappa = inf and lu_nnz None.  Systems above DENSE_LIMIT
    rows raise BudgetExceeded.
    bound_poisson is (2n)^4; bound_general scales it by
    norm_sigma / (C * norm_star) when the operator is GDD-accepted.
    min_eig_sum is the near-singularity indicator (see min_eig_sum).
    """
    import scipy.sparse.linalg as spla

    L = system.L
    size = L.shape[0]
    if size > DENSE_LIMIT:
        raise BudgetExceeded(
            f"condition report of {size} rows exceeds DENSE_LIMIT={DENSE_LIMIT}")
    smax = _sigma_max(spla.aslinearoperator(L))
    smin, method, lu_nnz = 0.0, "singular", None
    try:
        inverse, adjoint, form, _ = system.inverse
    except np.linalg.LinAlgError as refusal:
        form = "singular" if isinstance(refusal, SingularToRounding) else None
    if form == "eig" and _is_pure_part(system):
        inverse = spla.LinearOperator(L.shape, matvec=inverse, rmatvec=adjoint, dtype=L.dtype)
        smin, method = 1.0 / _sigma_max(inverse), "lanczos-eig"
    elif form != "singular":
        try:
            lu = spla.splu(L.tocsc(), permc_spec="NATURAL")
        except RuntimeError as exc:
            if "singular" not in str(exc):
                raise
        else:
            inverse = spla.LinearOperator(L.shape, matvec=lu.solve, dtype=L.dtype,
                                          rmatvec=lambda x: lu.solve(x, trans="H"))
            smin, method = 1.0 / _sigma_max(inverse), "lanczos-splu"
            lu_nnz = lu.L.nnz + lu.U.nnz
    kappa = smax / smin if smin > 0 else math.inf
    bound_poisson = float((2 * system.n) ** 4)
    gdd = system.gdd
    bound_general = (
        gdd["norm_sigma"] / (gdd["C"] * gdd["norm_star"]) * bound_poisson
        if gdd["accepted"] else math.inf)
    return {
        "sigma_max": smax,
        "sigma_min": smin,
        "kappa": kappa,
        "bound_poisson": bound_poisson,
        "bound_general": bound_general,
        "within_poisson": kappa <= bound_poisson,
        "within_general": kappa <= bound_general,
        "min_eig_sum": min_eig_sum(system),
        "method": method,
        "lu_nnz": lu_nnz,
    }
