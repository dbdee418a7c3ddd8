"""High-order finite-difference Poisson solves on the periodic lattice.

The operator is (1/h^2) L where L is the order-2k circulant (or its
boundary-restricted image under the reflection fold) on 2n points per axis
of [0, 2pi)^d, h = pi/n.  Periodic systems are solved by eigenspace
division through the FFT, never materializing L; restricted and periodic
systems alike can be solved by conjugate gradient for the cross-check.

Parameter selection follows the high-order accuracy estimate: the error of
the order-2k scheme on a smooth solution is within
2^{d/2} n^{d/2 - 2k + 1} M (e/2)^{2k} of zero, M a bound on the relevant
derivatives, so k is taken to grow like d n^b (b < 2/3) and n is the
smallest value whose plugged-back bound clears the target.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import CompatibilityError, ConvergenceFailure, ParameterError
from .images import fold_vector, restrict
from .laplacian import (DENSE_LIMIT, build_circulant, condition_number, eigenvalues_1d,
                        kronecker_sum)
from .stencil import make_stencil
from .tensor import axis_sum, kron_sum

__all__ = [
    "FdmProblem",
    "FdmSystem",
    "SolutionField",
    "select_parameters",
    "periodic_grid",
    "assemble",
    "solve",
    "error_report",
    "convergence_rows",
]

_BCS = ("periodic", "dirichlet", "neumann")
MEAN_RTOL = 1e-10
CG_TOL = 1e-12


@dataclass
class FdmProblem:
    """A Poisson problem on the 2n-per-axis lattice of [0, 2pi)^d."""

    d: int
    n: int
    k: int
    rhs_sampler: callable
    exact_solution: callable | None = None
    bc: str = "periodic"

    def __post_init__(self):
        if self.d < 1 or self.n < 1 or self.k < 1:
            raise ParameterError(f"need d, n, k >= 1, got {self.d}, {self.n}, {self.k}")
        if self.bc not in _BCS:
            raise ParameterError(f"bc must be one of {_BCS}, got {self.bc!r}")

    @property
    def h(self) -> float:
        return math.pi / self.n

    @property
    def sites(self) -> int:
        return (2 * self.n) ** self.d


@dataclass
class FdmSystem:
    """Assembled (1/h^2) L u = f with the pieces each solve path needs."""

    problem: FdmProblem
    rhs: np.ndarray
    eig_axis: np.ndarray | None = None
    matrix: sp.csr_matrix | None = None
    meta: dict = field(default_factory=dict)

    def matvec(self, u: np.ndarray) -> np.ndarray:
        p = self.problem
        if p.bc == "periodic":
            cube = np.asarray(u).reshape([2 * p.n] * p.d)
            lam = axis_sum(self.eig_axis, p.d) / p.h ** 2
            return np.fft.ifftn(lam * np.fft.fftn(cube)).real.reshape(-1)
        return self.matrix @ np.asarray(u)


@dataclass
class SolutionField:
    """Grid solution plus the certificate of how it was obtained."""

    problem: FdmProblem
    values: np.ndarray
    method: str
    residual: float
    iterations: int = 0


def select_parameters(d: int, eps: float, deriv_bound: float, b: float = 0.5):
    """Smallest lattice order (n, k) whose accuracy bound clears eps.

    n is the least integer with n^b ln(n) >= (1/d) ln(deriv_bound/eps) and
    k = ceil(d n^b); if the plugged-back bound still misses eps there, n is
    advanced until it holds (the displayed criterion is the asymptotic one
    and can undershoot at small ratios).
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"need eps in (0,1), got {eps}")
    if deriv_bound < 1.0:
        raise ParameterError(f"need deriv_bound >= 1, got {deriv_bound}")
    if not 0.0 < b < 2.0 / 3.0:
        raise ParameterError(f"need b in (0, 2/3), got {b}")
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    target = math.log(deriv_bound / eps) / d
    n = 2
    while n ** b * math.log(n) < target:
        n += 1
        if n > 1 << 26:
            raise ParameterError("parameter selection infeasible at this eps")

    def log_bound(n, k):
        return (0.5 * d * math.log(2.0) + (0.5 * d - 2 * k + 1) * math.log(n)
                + math.log(deriv_bound) + 2 * k * (1.0 - math.log(2.0)))

    k = math.ceil(d * n ** b)
    while log_bound(n, k) > math.log(eps):
        n += 1
        k = math.ceil(d * n ** b)
        if n > 1 << 26:
            raise ParameterError("parameter selection infeasible at this eps")
    return n, k


def periodic_grid(n: int, d: int):
    """Per-axis meshgrid arrays of the 2n-point lattice x_j = pi j / n."""
    x = math.pi * np.arange(2 * n) / n
    return np.meshgrid(*[x] * d, indexing="ij")


def assemble(p: FdmProblem) -> FdmSystem:
    """Sample the source on the lattice and attach the scaled operator.

    Periodic sources must have zero lattice mean (the operator kernel is the
    constant vector); violations beyond MEAN_RTOL * ||f|| are rejected.  For
    the reflection-restricted boundary conditions the source is sampled on
    the parent lattice and folded axis by axis into the symmetry sector.
    Non-finite samples are rejected.
    """
    s = make_stencil(p.k)
    op = build_circulant(s, p.n)
    f = np.asarray(p.rhs_sampler(*periodic_grid(p.n, p.d)), dtype=float)
    if f.shape != tuple([2 * p.n] * p.d):
        raise ParameterError(f"sampler returned shape {f.shape}, expected {(2 * p.n,) * p.d}")
    if not np.isfinite(f).all():
        raise ParameterError("sampler returned non-finite source values")
    if p.bc == "periodic":
        scale = np.linalg.norm(f)
        mean = abs(f.mean()) * math.sqrt(f.size)
        if scale > 0 and mean > MEAN_RTOL * scale:
            raise CompatibilityError(
                f"periodic rhs has mean component {mean:.3e} > {MEAN_RTOL:.0e} * ||f||")
        return FdmSystem(problem=p, rhs=f.reshape(-1), eig_axis=eigenvalues_1d(op))
    restricted = restrict(s, p.n, p.bc)
    cube = f
    for axis in range(p.d):
        cube = fold_vector(cube, p.bc, axis=axis)
    if p.bc == "neumann":
        scale = np.linalg.norm(cube)
        mean = abs(cube.mean()) * math.sqrt(cube.size)
        if scale > 0 and mean > MEAN_RTOL * scale:
            raise CompatibilityError(
                f"neumann rhs has kernel component {mean:.3e} > {MEAN_RTOL:.0e} * ||f||")
    total = kron_sum(sp.csr_matrix(restricted.matrix), p.d)
    return FdmSystem(problem=p, rhs=cube.reshape(-1),
                     matrix=(total / p.h ** 2).tocsr())


def _solve_eigen(system: FdmSystem) -> np.ndarray:
    p = system.problem
    lam = axis_sum(system.eig_axis, p.d) / p.h ** 2
    F = np.fft.fftn(system.rhs.reshape([2 * p.n] * p.d))
    zero = np.abs(lam) < 1e-14 * np.abs(lam).max()
    lam_safe = np.where(zero, 1.0, lam)
    U = np.where(zero, 0.0, F / lam_safe)
    return np.fft.ifftn(U).real.reshape(-1)


def _solve_cg(system: FdmSystem) -> tuple:
    """CG on the flipped operator (the Laplacian is negative semidefinite).

    Periodic and Neumann operators have the constant kernel; the rhs and
    every matvec are projected onto the zero-mean complement so the Krylov
    space stays in the range.
    """
    p = system.problem
    size = system.rhs.size
    singular = p.bc in ("periodic", "neumann")
    if p.bc == "periodic":
        lam = np.abs(axis_sum(system.eig_axis, p.d).reshape(-1))
        lam = lam[lam > 1e-14 * lam.max()]
        kappa = float(lam.max() / lam.min())
        base = system.matvec
    else:
        base = system.matrix.__matmul__
        if size <= DENSE_LIMIT:
            ev = np.abs(np.linalg.eigvalsh(system.matrix.toarray()))
            kappa = float(ev.max() / ev[ev > 1e-12 * ev.max()].min())
        else:
            kappa = float(size)

    rhs = np.asarray(system.rhs, dtype=float)
    if singular:
        rhs = rhs - rhs.mean()

        def mv(u):
            out = base(u)
            return -(out - out.mean())
    else:
        def mv(u):
            return -base(u)

    A = spla.LinearOperator((size, size), matvec=mv, dtype=float)
    cap = int(10.0 * math.sqrt(kappa) * math.log(1.0 / CG_TOL)) + 50
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1
    u, info = spla.cg(A, -rhs, rtol=CG_TOL, atol=0.0, maxiter=cap, callback=count)
    res = float(np.linalg.norm(base(u) - rhs) / np.linalg.norm(rhs))
    if info != 0:
        raise ConvergenceFailure(
            f"conjugate gradient stopped after {iters} iterations (cap {cap})",
            residual=res)
    return u, res, iters


def solve(system: FdmSystem, method: str = "auto") -> SolutionField:
    """Solve the assembled system; the solution mean is pinned to zero.

    method "eigen" (periodic only) divides in the Fourier eigenbasis;
    "cg" runs conjugate gradient with relative tolerance 1e-12; "auto"
    picks eigen for periodic problems and cg otherwise.
    """
    p = system.problem
    if method == "auto":
        method = "eigen" if p.bc == "periodic" else "cg"
    if method == "eigen":
        if p.bc != "periodic":
            raise ParameterError("eigenspace division applies to periodic systems only")
        u = _solve_eigen(system)
        res = float(np.linalg.norm(system.matvec(u) - (system.rhs - system.rhs.mean()))
                    / max(np.linalg.norm(system.rhs), 1e-300))
        return SolutionField(problem=p, values=u, method="eigen", residual=res)
    if method != "cg":
        raise ParameterError(f"method must be auto, eigen or cg, got {method!r}")
    u, res, iters = _solve_cg(system)
    if p.bc == "periodic":
        u = u - u.mean()
    return SolutionField(problem=p, values=u, method="cg", residual=res,
                         iterations=iters)


def error_report(s: SolutionField, exact=None) -> dict:
    """Raw relative l2, sup norm, and the unit-vector (normalized) error."""
    p = s.problem
    if exact is None:
        exact = p.exact_solution
    if exact is None:
        raise ParameterError("no exact solution available")
    if callable(exact):
        if p.bc != "periodic":
            raise ParameterError("pass folded exact values directly for restricted systems")
        ue = np.asarray(exact(*periodic_grid(p.n, p.d)), dtype=float).reshape(-1)
        ue = ue - ue.mean()
    else:
        ue = np.asarray(exact, dtype=float).reshape(-1)
    nb = np.linalg.norm(ue)
    if nb == 0.0:
        raise ParameterError("exact solution is identically zero; errors undefined")
    diff = s.values - ue
    na = np.linalg.norm(s.values)
    return {
        "l2_rel": float(np.linalg.norm(diff) / nb),
        "linf": float(np.max(np.abs(diff))),
        "l2_normalized": (float(np.linalg.norm(s.values / na - ue / nb))
                          if na > 0 else math.inf),
    }


def convergence_rows(d: int, k: int, n_values, rhs_sampler, exact_solution,
                     bc: str = "periodic"):
    """CSV-ready sweep rows: n, k, d, l2_rel, linf, kappa, runtime_ms."""
    rows = []
    for n in n_values:
        p = FdmProblem(d=d, n=int(n), k=k, rhs_sampler=rhs_sampler,
                       exact_solution=exact_solution, bc=bc)
        t0 = time.perf_counter()
        field_ = solve(assemble(p))
        ms = 1e3 * (time.perf_counter() - t0)
        rep = error_report(field_)
        op = kronecker_sum(build_circulant(make_stencil(k), int(n)), d)
        rows.append({
            "n": int(n), "k": k, "d": d,
            "l2_rel": rep["l2_rel"], "linf": rep["linf"],
            "kappa": condition_number(op), "runtime_ms": ms,
        })
    return rows
