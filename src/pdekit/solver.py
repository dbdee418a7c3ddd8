"""Solve assembled coefficient-space systems and move between spaces.

solve_system runs right-preconditioned GMRES on the sparse L, a restarted
GMRES of its own (Saad and Schultz 1986) with classical Gram-Schmidt done
twice, from the inverse SpectralSystem.inverse reads once off the closed
1D block B the system stores: L^-1 itself by substitution for the Fourier
block, so GMRES takes no step, and for the Chebyshev one the inverse of L's
pure part in the form tensor.kron_sum_solver names.  No global
factorization is formed.  Every solve certifies its residual on L itself.

Node conventions (per axis, N = n + 1 points):
  fourier    x_l = 2l/N - 1,            basis functions e^{i pi (k - m) x},
             m = n // 2; synthesis is sqrt(N) times the shifted Fourier
             transform, analysis its inverse over sqrt(N).
  chebyshev  x_l = cos(pi l / n),       basis functions T_k(x); synthesis
             and analysis are the weighted cosine transform conjugated by
             the endpoint weights (the transform is an involution, so the
             two directions differ only in the scale factors).

Multi-axis arrays are stored flattened in row-major order, axis 0 slowest,
matching the Kronecker ordering of the assembled operators.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, ParameterError
from .expressions import builtin_expression
from .spectral_ops import BASES
from .spectral_system import SpectralSystem, assemble_system, condition_report
from .tensor import along
from .transforms import endpoint_weights, qct_apply, qsft_apply

__all__ = [
    "nodes",
    "node_grids",
    "analyze_values",
    "synthesize_nodes",
    "evaluate_at",
    "SolveResult",
    "solve_system",
    "error_metrics",
    "manufactured_problem",
    "solve_manufactured",
    "convergence_study",
]


def nodes(basis: str, n: int) -> np.ndarray:
    """The N = n + 1 collocation points of one axis."""
    if basis == "fourier":
        return 2.0 * np.arange(n + 1) / (n + 1) - 1.0
    if basis == "chebyshev":
        if n < 1:
            raise ParameterError("chebyshev nodes need n >= 1")
        return np.cos(np.pi * np.arange(n + 1) / n)
    raise ParameterError(f"unknown basis {basis!r}")


def node_grids(basis: str, n: int, d: int):
    """Per-axis coordinate arrays for a tensor grid."""
    return [nodes(basis, n)] * d


def _cube(basis: str, values, n: int, d: int) -> np.ndarray:
    """values as the (n+1)^d cube of one expansion, after the checks its axes share."""
    if basis not in BASES:
        raise ParameterError(f"unknown basis {basis!r}")
    min_n = 1 if basis == "chebyshev" else 0
    if n < min_n:
        raise ParameterError(f"{basis} expansions need n >= {min_n}, got {n}")
    values = np.asarray(values)
    if values.size != (n + 1) ** d:
        raise ParameterError(f"expected (n+1)^d = {(n + 1) ** d} values, got {values.size}")
    return values.reshape([n + 1] * d)


def analyze_values(basis: str, values, n: int, d: int = 1) -> np.ndarray:
    """Node values on the tensor grid -> coefficient vector."""
    cube = _cube(basis, values, n, d)
    for axis in range(d):
        if basis == "fourier":
            cube = qsft_apply(cube, inverse=True, axis=axis) / math.sqrt(n + 1.0)
        else:
            delta = along(endpoint_weights(n), axis, d)
            cube = math.sqrt(2.0 / n) * delta * qct_apply(delta * cube, axis=axis)
    return cube.reshape(-1)


def synthesize_nodes(basis: str, coeffs, n: int, d: int = 1) -> np.ndarray:
    """Coefficient vector -> values on the tensor grid (flattened)."""
    cube = _cube(basis, coeffs, n, d)
    for axis in range(d):
        if basis == "fourier":
            cube = math.sqrt(n + 1.0) * qsft_apply(cube, axis=axis)
        else:
            delta = along(endpoint_weights(n), axis, d)
            cube = math.sqrt(n / 2.0) * qct_apply(cube / delta, axis=axis) / delta
    return cube.reshape(-1)


def evaluate_at(basis: str, coeffs, n: int, d: int, points) -> np.ndarray:
    """Evaluate the expansion at arbitrary points inside [-1, 1]^d.

    points is (m, d) (or a length-d vector for one point).  Chebyshev axes
    use the stable three-term recurrence; Fourier axes accumulate phases.
    """
    cube = _cube(basis, coeffs, n, d)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != d:
        raise ParameterError(f"points have {pts.shape[1]} columns, expected {d}")
    if not np.all(np.abs(pts) <= 1.0 + 1e-12):
        raise ParameterError("evaluation points must be finite and lie in [-1, 1]^d")
    N = n + 1
    basis_rows = []
    for j in range(d):
        x = pts[:, j]
        if basis == "fourier":
            m = n // 2
            k = np.arange(N) - m
            B = np.exp(1j * np.pi * np.outer(x, k))
        else:
            B = np.polynomial.chebyshev.chebvander(x, n)
        basis_rows.append(B)
    letters = "abcdefghijkl"[:d]
    sub = ",".join([letters] + [f"p{c}" for c in letters]) + "->p"
    out = np.einsum(sub, cube, *basis_rows)
    if basis == "chebyshev" and not np.iscomplexobj(cube):
        out = out.real
    return out if np.asarray(points).ndim > 1 else out[0]


@dataclass
class SolveResult:
    """Coefficients plus the residual bookkeeping of one preconditioned GMRES solve.

    iterations counts GMRES steps over all cycles; restarts counts the cycles
    after the first; preconditioner names the inverse the solve starts from:
    "substitution" (Fourier: 0 steps), else kron_sum_solver's "eig" or "splu".
    """

    system: SpectralSystem
    coeffs: np.ndarray
    residual: float
    iterations: int
    preconditioner: str
    restarts: int

    def node_values(self) -> np.ndarray:
        return synthesize_nodes(self.system.basis, self.coeffs,
                                self.system.n, self.system.d)


GMRES_RESTART = 60   # Krylov vectors kept between restarts
GMRES_AIM = 1e-2     # GMRES aims this far below the certified tolerance


def solve_system(system: SpectralSystem, tol: float = 1e-12) -> SolveResult:
    """Right-preconditioned GMRES on the sparse L with a relative-residual certificate.

    The preconditioner M and its name come from system.inverse, the one
    reading of the system's closed block B, shared with its condition
    report.  GMRES (_gmres_cycle) starts from M b and restarts from the true
    residual while that falls and stays above GMRES_AIM * tol.  A
    substitution lands below that aim and takes no step.  When a Chebyshev L
    is its pure part (diagonal A) M takes at most a step or two; mixed terms
    are corrections GMRES absorbs, at any d.  The certificate
    ||L c - b|| / max(||b||, 1) <= tol is computed on the sparse L, never
    through M; a solve that stops above tol, or whose M is singular, raises
    ConvergenceFailure.
    """
    L = system.L
    rhs = np.asarray(system.rhs)
    try:
        precond, _, method, _ = system.inverse
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"no preconditioner for L: {exc}", residual=math.inf) from exc
    denom = max(float(np.linalg.norm(rhs)), 1.0)
    aim = GMRES_AIM * tol
    steps = cycles = 0
    c = precond(rhs)
    r = rhs - L @ c
    residual = float(np.linalg.norm(r)) / denom
    while residual > aim:
        y, k = _gmres_cycle(lambda v: L @ precond(v), r, aim * denom, GMRES_RESTART)
        steps, cycles = steps + k, cycles + 1
        trial = c + precond(y)
        r_trial = rhs - L @ trial
        fell = float(np.linalg.norm(r_trial)) / denom
        if not fell < residual:
            break
        c, r, residual = trial, r_trial, fell
    if not np.isfinite(residual) or residual > tol:
        raise ConvergenceFailure(
            f"GMRES residual {residual:.3e} stopped above {tol:.1e} after {steps} steps",
            residual=residual)
    return SolveResult(system=system, coeffs=c, residual=residual, iterations=steps,
                       preconditioner=method, restarts=max(cycles - 1, 0))


def _gmres_cycle(apply, r: np.ndarray, atol: float, restart: int) -> tuple[np.ndarray, int]:
    """One GMRES cycle for apply(y) = r from y = 0: the update y and the steps taken.

    Arnoldi keeps the basis as the rows of one array and orthogonalizes each
    new vector by classical Gram-Schmidt done twice, two block products
    against the basis per pass, never copying the basis.  Givens rotations
    keep the Hessenberg matrix triangular, so the last rotated entry of the
    right-hand side is the residual norm of the least-squares problem.  The
    cycle stops once that is at most atol, after restart (at most len(r))
    steps, or on an exact breakdown (a new vector below eps of its norm before
    the projection), as scipy's gmres does.
    """
    n = r.size
    m = min(restart, n)
    dtype = r.dtype
    eps = np.finfo(dtype).eps
    V = np.empty((m + 1, n), dtype=dtype)
    R = np.zeros((m, m), dtype=dtype)
    g = [float(np.linalg.norm(r))] + [0.0] * m
    rotations = []
    V[0] = r / g[0]
    k = 0
    while k < m:
        w = apply(V[k])
        basis = V[:k + 1]
        before = np.linalg.norm(w)
        h = (basis @ w.conj()).conj()
        w -= h @ basis
        again = (basis @ w.conj()).conj()
        w -= again @ basis
        column = (h + again).tolist()
        after = float(np.linalg.norm(w))
        breakdown = after <= eps * before
        if not breakdown:
            V[k + 1] = w / after
        for i, (c, s) in enumerate(rotations):
            column[i], column[i + 1] = (c * column[i] + s * column[i + 1],
                                        -s.conjugate() * column[i] + c * column[i + 1])
        c, s, column[k] = _givens(column[k], 0.0 if breakdown else after)
        rotations.append((c, s))
        R[:k + 1, k] = column[:k + 1]
        g[k], g[k + 1] = c * g[k], -s.conjugate() * g[k]
        k += 1
        if abs(g[k]) <= atol or breakdown:
            break
    used = k - 1 if R[k - 1, k - 1] == 0 else k  # a last step that added nothing is left out
    from scipy.linalg import solve_triangular

    y = solve_triangular(R[:used, :used], np.array(g[:used], dtype=dtype), check_finite=False)
    return y @ V[:used], k


def _givens(f, g: float) -> tuple:
    """(c, s, rho) with c real, [[c, s], [-conj(s), c]] @ [f, g] = [rho, 0], for g >= 0."""
    if f == 0:
        return 0.0, 1.0, g
    size = abs(f)
    norm = math.hypot(size, g)
    phase = f / size
    return size / norm, phase * g / norm, phase * norm


def error_metrics(u_exact, u_approx) -> dict:
    """l2_rel, l2_normalized (unit-vector distance) and sup-norm error."""
    a = np.asarray(u_approx).reshape(-1)
    b = np.asarray(u_exact).reshape(-1)
    nb = np.linalg.norm(b)
    na = np.linalg.norm(a)
    l2_rel = float(np.linalg.norm(a - b) / nb) if nb > 0 else math.inf
    if na > 0 and nb > 0:
        l2_normalized = float(np.linalg.norm(a / na - b / nb))
    else:
        l2_normalized = math.inf
    sup = float(np.max(np.abs(a - b)))
    return {"l2_rel": l2_rel, "l2_normalized": l2_normalized, "sup": sup}


def _boundary_data(expr, basis: str, n: int):
    """Per-axis (plus, minus) closure data for a manufactured solution expression.

    Chebyshev takes the traces on the faces x_j = +1 and -1; the periodic
    basis takes the x_j = 0 slice in the plus slot and leaves minus None.
    """
    d = expr.d
    faces = (1.0, -1.0) if basis == "chebyshev" else (0.0,)
    out = []
    for j in range(d):
        pair = [None, None]
        for slot, xv in enumerate(faces):
            scale, rest = expr.boundary_trace(j, xv)
            if rest is not None:
                vals = rest.value(node_grids(basis, n, d - 1))
                scale = scale * analyze_values(basis, vals, n, d - 1)
            pair[slot] = scale
        out.append(tuple(pair))
    return out


def manufactured_problem(expr, A, basis: str, n: int, closure: str = "axes"):
    """Assemble the system whose exact solution is the given expression.

    Returns (system, exact node values).  The source term is the elliptic
    image of the expression sampled at the nodes and carried to coefficient
    space; boundary data comes from the expression's face (or center-slice)
    traces.
    """
    if isinstance(expr, str):
        expr = builtin_expression(expr, np.asarray(A).shape[0])
    d = expr.d
    grids = node_grids(basis, n, d)
    u_exact = expr.value(grids).reshape(-1)
    fhat = analyze_values(basis, expr.elliptic_image(A, grids).reshape(-1), n, d)
    if closure in ("point", "pin"):
        if closure == "pin":
            raise ParameterError("pin closure needs an explicit coefficient value")
        center = expr.value([np.zeros(1)] * d).reshape(-1)[0]
        system = assemble_system(A, basis, n, fhat, closure="point",
                                 point_value=center)
    else:
        boundary = _boundary_data(expr, basis, n)
        system = assemble_system(A, basis, n, fhat, boundary=boundary, closure=closure)
    return system, u_exact


def solve_manufactured(expr, A, basis: str, n: int, closure: str = "axes") -> dict:
    """End-to-end manufactured solve; returns errors and the solve pieces."""
    system, u_exact = manufactured_problem(expr, A, basis, n, closure=closure)
    result = solve_system(system)
    u_num = result.node_values()
    metrics = error_metrics(u_exact, u_num)
    return {
        "system": system,
        "result": result,
        "u_exact": u_exact,
        "u_numeric": u_num,
        **metrics,
    }


def convergence_study(expr, A, basis: str, n_values, closure: str = "axes",
                      with_kappa: bool = False):
    """Sweep truncation orders; one row per n with the study's CSV schema.

    Columns: basis, d, n, raw_l2, normalized_l2, kappa, q, residual,
    runtime_ms.  kappa costs a condition report (Lanczos on L and on L^-1,
    the latter per axis for a pure-part L, else through one sparse LU) per
    n and is skipped (NaN) unless requested; a requested kappa above
    DENSE_LIMIT rows raises BudgetExceeded.
    """
    rows = []
    for n in n_values:
        t0 = time.perf_counter()
        run = solve_manufactured(expr, A, basis, int(n), closure=closure)
        ms = 1e3 * (time.perf_counter() - t0)
        system = run["system"]
        kappa = condition_report(system)["kappa"] if with_kappa else math.nan
        rows.append({
            "basis": basis,
            "d": system.d,
            "n": int(n),
            "raw_l2": run["l2_rel"],
            "normalized_l2": run["l2_normalized"],
            "kappa": kappa,
            "q": system.q,
            "residual": run["result"].residual,
            "runtime_ms": ms,
        })
    return rows
