"""Solve assembled coefficient-space systems and move between spaces.

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
import scipy.sparse.linalg as spla

from .errors import ConvergenceFailure, ParameterError
from .expressions import builtin_expression
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


def analyze_values(basis: str, values, n: int, d: int = 1) -> np.ndarray:
    """Node values on the tensor grid -> coefficient vector."""
    cube = np.asarray(values).reshape([n + 1] * d)
    for axis in range(d):
        if basis == "fourier":
            cube = qsft_apply(cube, inverse=True, axis=axis) / math.sqrt(n + 1.0)
        elif basis == "chebyshev":
            delta = along(endpoint_weights(n), axis, d)
            cube = math.sqrt(2.0 / n) * delta * qct_apply(delta * cube, axis=axis)
        else:
            raise ParameterError(f"unknown basis {basis!r}")
    return cube.reshape(-1)


def synthesize_nodes(basis: str, coeffs, n: int, d: int = 1) -> np.ndarray:
    """Coefficient vector -> values on the tensor grid (flattened)."""
    cube = np.asarray(coeffs).reshape([n + 1] * d)
    for axis in range(d):
        if basis == "fourier":
            cube = math.sqrt(n + 1.0) * qsft_apply(cube, axis=axis)
        elif basis == "chebyshev":
            delta = along(endpoint_weights(n), axis, d)
            cube = math.sqrt(n / 2.0) * qct_apply(cube / delta, axis=axis) / delta
        else:
            raise ParameterError(f"unknown basis {basis!r}")
    return cube.reshape(-1)


def evaluate_at(basis: str, coeffs, n: int, d: int, points) -> np.ndarray:
    """Evaluate the expansion at arbitrary points inside [-1, 1]^d.

    points is (m, d) (or a length-d vector for one point).  Chebyshev axes
    use the stable three-term recurrence; Fourier axes accumulate phases.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != d:
        raise ParameterError(f"points have {pts.shape[1]} columns, expected {d}")
    if np.any(np.abs(pts) > 1.0 + 1e-12):
        raise ParameterError("evaluation points must lie in [-1, 1]^d")
    N = n + 1
    cube = np.asarray(coeffs).reshape([N] * d)
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
    """Coefficients plus the residual bookkeeping of one direct solve."""

    system: SpectralSystem
    coeffs: np.ndarray
    residual: float

    def node_values(self) -> np.ndarray:
        return synthesize_nodes(self.system.basis, self.coeffs,
                                self.system.n, self.system.d)


def solve_system(system: SpectralSystem, tol: float = 1e-12) -> SolveResult:
    """Direct sparse solve with a relative-residual certificate."""
    L = system.L.tocsc()
    rhs = np.asarray(system.rhs)
    if np.iscomplexobj(L.data) or np.iscomplexobj(rhs):
        L = L.astype(complex)
        rhs = rhs.astype(complex)
    try:
        lu = spla.splu(L)
    except RuntimeError as exc:
        raise ConvergenceFailure(f"sparse factorization failed: {exc}",
                                 residual=math.inf) from exc
    c = lu.solve(rhs)
    denom = max(float(np.linalg.norm(rhs)), 1.0)
    residual = float(np.linalg.norm(system.L @ c - system.rhs)) / denom
    if not np.isfinite(residual) or residual > tol:
        raise ConvergenceFailure(
            f"direct solve residual {residual:.3e} exceeds {tol:.1e}",
            residual=residual)
    return SolveResult(system=system, coeffs=c, residual=residual)


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
    runtime_ms.  kappa costs a dense SVD per n and is skipped (NaN) unless
    requested; a requested kappa above DENSE_LIMIT rows raises BudgetExceeded.
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
