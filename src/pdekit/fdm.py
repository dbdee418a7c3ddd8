"""High-order finite-difference Poisson solves on the periodic lattice.

The operator is (1/h^2) L where L is the order-2k circulant (or its
boundary-restricted image under the reflection fold) on 2n points per axis
of [0, 2pi)^d, h = pi/n.  Every system is solved by division in the
operator's eigenbasis, never materializing L: the real FFT for
periodic lattices, the DST-II (Dirichlet) and DCT-II (Neumann) for restricted
ones.  The periodic FFT runs numpy's 1D transforms axis by axis, each pass
cut into slabs along an axis it does not transform and the slabs run on one
thread per CPU, so it has the bits of np.fft.rfftn/irfftn.  The periodic
path's elementwise passes (the division, the multiply by the spectrum, the
residual's subtraction, the error report's differences) run on the same
threads in slabs of rows along the first axis, in place where the path owns
the array: the kernel is read off the spectrum's zero frequency and the
inverse transform runs in the solve's own frequency cube.  Norms, means and
extremes are taken over whole arrays, so every output keeps the bits of
whole-cube numpy; the solve reuses the source's mean and norm that
assemble took.  Restricted residuals are taken by applying the 1D
factor along each axis.  Conjugate gradient on the same operator stays as
the cross-check.  The source and exact solution are sampled on read-only
broadcast views of the coordinate lines, never on materialized meshgrids.

Parameter selection follows the high-order accuracy estimate: the error of
the order-2k scheme on a smooth solution is within
2^{d/2} n^{d/2 - 2k + 1} M (e/2)^{2k} of zero, M a bound on the relevant
derivatives, so k is taken to grow like d n^b (b < 2/3) and n is the
smallest value whose plugged-back bound clears the target.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import CompatibilityError, ConvergenceFailure, ParameterError
from .images import fold_vector, restrict
from .laplacian import condition_number, eigenvalues_1d
from .stencil import make_stencil
from .tensor import along, axis_sum, kron_sum_apply
from .transforms import sector_apply

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


@dataclass
class FdmSystem:
    """Assembled (1/h^2) L u = f with the pieces each solve path needs.

    eig_axis is the 1D spectrum of L's axis factor: all 2n circulant
    eigenvalues when periodic, the sector's n of them when restricted.
    matrix is the restricted axis factor (1/h^2) R, which L sums over the
    d axes; periodic systems have none.  rhs_stats is (rhs, its mean, its
    2-norm) as assemble took them for its periodic checks; a solve reuses
    the two numbers while rhs is still that array, and takes them itself
    for a replaced rhs or a system built by hand.
    """

    problem: FdmProblem
    rhs: np.ndarray
    eig_axis: np.ndarray | None = None
    matrix: sp.csr_matrix | None = None
    rhs_stats: tuple | None = field(default=None, repr=False, compare=False)

    def matvec(self, u: np.ndarray) -> np.ndarray:
        p = self.problem
        if p.bc == "periodic":
            return _apply(_eigenbasis(self), u)
        return kron_sum_apply([self.matrix] * p.d, u)


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_pool_lock = threading.Lock()
_pool = None


def _executor() -> ThreadPoolExecutor:
    """The threads that run all slabs but the caller's own, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(_cpus() - 1, 1), thread_name_prefix="pdekit-fft")
        return _pool


def _forget_pool() -> None:
    """In a forked child: the executor's threads stayed in the parent, so
    work handed to it would wait forever; the child starts its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _each_slab(work, rows: int, split: bool = True) -> None:
    """work(lo, hi) on slabs of rows that cover 0..rows.

    One slab per CPU when split, never more slabs than rows; the caller runs
    the last slab and the pool the others.  Returns once every slab is done,
    and raises the first slab's error.
    """
    count = min(_cpus(), rows) if split else 1
    if count <= 1:
        work(0, rows)
        return
    edges = [rows * i // count for i in range(count + 1)]
    futures = [_executor().submit(work, edges[i], edges[i + 1]) for i in range(count - 1)]
    try:
        work(edges[-2], edges[-1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _fft_pass(fft, src: np.ndarray, dst: np.ndarray, axis: int, n: int) -> None:
    """dst = fft(src, n, axis), cut into slabs along another axis.

    numpy's FFT releases the GIL, and each 1D transform is the same
    pocketfft call whatever slab holds it.
    """
    if dst.ndim == 1:
        fft(src, n, axis, out=dst)
        return
    cut = 1 if axis == 0 else 0

    def slab(lo, hi):
        rows = (slice(None),) * cut + (slice(lo, hi),)
        fft(src[rows], n, axis, out=dst[rows])
    _each_slab(slab, dst.shape[cut])


def _rfftn(x: np.ndarray) -> np.ndarray:
    """np.fft.rfftn(x), bit for bit: the real FFT on the last axis, then the
    complex FFT in place on the others, last to first, as numpy orders them."""
    F = np.empty(x.shape[:-1] + (x.shape[-1] // 2 + 1,), dtype=complex)
    _fft_pass(np.fft.rfft, x, F, x.ndim - 1, x.shape[-1])
    for axis in range(x.ndim - 2, -1, -1):
        _fft_pass(np.fft.fft, F, F, axis, x.shape[axis])
    return F


def _irfftn(X: np.ndarray, shape) -> np.ndarray:
    """np.fft.irfftn(X, s=shape), bit for bit: the inverse complex FFT on
    every axis but the last, first to last, then the inverse real FFT.  The
    complex passes run in place on X, which the caller owns and no longer
    needs."""
    for axis in range(len(shape) - 1):
        _fft_pass(np.fft.ifft, X, X, axis, shape[axis])
    out = np.empty(shape)
    _fft_pass(np.fft.irfft, X, out, len(shape) - 1, shape[-1])
    return out


def _eigenbasis(system: FdmSystem):
    """(forward, inverse, lam, split): the transform pair that diagonalizes
    (1/h^2) L, between flat vectors and the frequency cube, L's eigenvalues
    there, and whether elementwise passes over the cube run in slabs.

    The real FFT keeps the first n+1 of the 2n frequencies on the last axis;
    the orthonormal DST-II takes the sector frequencies l = 1..n and the
    DCT-II l = 0..n-1, in eig_axis's order.  All of them run on numpy's
    FFT: importing scipy.fft pulls in scipy.special, about 0.1 s of start-up
    on every lattice run.  The periodic pair (_rfftn, _irfftn) splits each
    axis pass into slabs over the CPUs and keeps numpy's rfftn/irfftn bits;
    its inverse transforms in place on the frequency cube it is handed, which
    every caller owns, and split holds wherever those passes split (d > 1).
    lam is built once per basis: a solve or a CG run builds one basis.
    """
    p = system.problem
    lam = system.eig_axis / p.h ** 2
    if p.bc == "periodic":
        shape = (2 * p.n,) * p.d
        half = sum(along(lam[:p.n + 1] if j == p.d - 1 else lam, j, p.d) for j in range(p.d))
        return (lambda x: _rfftn(np.reshape(x, shape)),
                lambda X: _irfftn(X, shape).reshape(-1), half, p.d > 1)

    def sector(cube, inverse):
        for axis in range(p.d):
            cube = sector_apply(cube, p.bc, inverse=inverse, axis=axis)
        return cube
    return (lambda x: sector(np.reshape(x, [p.n] * p.d), False),
            lambda X: sector(X, True).reshape(-1), axis_sum(lam, p.d), False)


def _apply(basis, u: np.ndarray) -> np.ndarray:
    """(1/h^2) L u through the transform pair."""
    forward, inverse, lam, split = basis
    F = forward(u)

    def times(lo, hi):
        np.multiply(F[lo:hi], lam[lo:hi], out=F[lo:hi])
    _each_slab(times, F.shape[0], split)
    return inverse(F)


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
    if not 1.0 <= deriv_bound < math.inf:
        raise ParameterError(f"need a finite deriv_bound >= 1, got {deriv_bound}")
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
    """Per-axis meshgrid arrays of the 2n-point lattice x_j = pi j / n.

    Each is a read-only broadcast view of its coordinate line with the
    values and shape of np.meshgrid(..., indexing="ij"); no (2n)^d array is
    stored, and writing into one raises ValueError.
    """
    x = math.pi * np.arange(2 * n) / n
    shape = (2 * n,) * d
    return tuple(np.broadcast_to(line, shape)
                 for line in np.meshgrid(*[x] * d, indexing="ij", sparse=True))


def assemble(p: FdmProblem) -> FdmSystem:
    """Sample the source on the lattice and attach the scaled operator.

    Periodic sources must have zero lattice mean (the operator kernel is the
    constant vector); violations beyond MEAN_RTOL * ||f|| are rejected.  For
    the reflection-restricted boundary conditions the source is sampled on
    the parent lattice and folded axis by axis into the symmetry sector.
    Non-finite samples are rejected.  The restricted operators are
    diagonalized by the DST-II (Dirichlet) and the DCT-II (Neumann), whose
    frequencies l = 1..n and l = 0..n-1 pick their eigenvalues out of the
    circulant ones; only the 1D restricted factor is stored.
    """
    s = make_stencil(p.k)
    lam = eigenvalues_1d(s, p.n)
    f = np.asarray(p.rhs_sampler(*periodic_grid(p.n, p.d)), dtype=float)
    if f.shape != tuple([2 * p.n] * p.d):
        raise ParameterError(f"sampler returned shape {f.shape}, expected {(2 * p.n,) * p.d}")
    if p.bc == "periodic":
        # a finite norm vouches for every sample; a norm that is not finite
        # (a NaN or inf sample, or finite ones that overflow) sends for the scan
        rhs = f.reshape(-1)
        norm, rhs_mean = _norm(rhs), rhs.mean()
        if not math.isfinite(norm) and not np.isfinite(f).all():
            raise ParameterError("sampler returned non-finite source values")
        mean = abs(rhs_mean) * math.sqrt(f.size)
        if mean > MEAN_RTOL * norm:
            raise CompatibilityError(
                f"periodic rhs has mean component {mean:.3e} > {MEAN_RTOL:.0e} * ||f||")
        return FdmSystem(problem=p, rhs=rhs, eig_axis=lam,
                         rhs_stats=(rhs, rhs_mean, norm))
    if not np.isfinite(f).all():
        raise ParameterError("sampler returned non-finite source values")
    restricted = restrict(s, p.n, p.bc)
    cube = f
    for axis in range(p.d):
        cube = fold_vector(cube, p.bc, axis=axis)
    if p.bc == "neumann":
        mean = abs(cube.mean()) * math.sqrt(cube.size)
        if mean > MEAN_RTOL * _norm(cube):
            raise CompatibilityError(
                f"neumann rhs has kernel component {mean:.3e} > {MEAN_RTOL:.0e} * ||f||")
    sector = lam[1:p.n + 1] if p.bc == "dirichlet" else lam[:p.n]
    return FdmSystem(problem=p, rhs=cube.reshape(-1), eig_axis=sector,
                     matrix=sp.csr_matrix(restricted / p.h ** 2))


def _divide(basis, b: np.ndarray) -> np.ndarray:
    """The solution of (1/h^2) L u = b with no component in L's kernel.

    The 1D spectra are exactly 0 at l = 0 and nowhere else, so L has a
    kernel (periodic, Neumann) exactly when lam's entry (0, ..., 0) is 0,
    and that entry is the kernel: every other entry of the frequency cube
    is divided in place, and that one set to 0.
    """
    forward, inverse, lam, split = basis
    F = forward(b)
    kernel = lam.flat[0] == 0

    def divide(lo, hi):
        if kernel and lo == 0:
            # rows 1..hi, then row 0 but for the kernel entry
            pieces = [(slice(1, hi),)] + [(0,) * a + (slice(1, None),) for a in range(1, F.ndim)]
        else:
            pieces = [(slice(lo, hi),)]
        for piece in pieces:
            np.divide(F[piece], lam[piece], out=F[piece])
    _each_slab(divide, F.shape[0], split)
    if kernel:
        F[(0,) * F.ndim] = 0.0
    return inverse(F)


def _solve_restricted(system: FdmSystem) -> tuple:
    """Eigenbasis division on a restricted lattice, under CG's contract.

    The Neumann rhs is projected off the constant kernel as CG projects it.
    The true residual b - A u comes from the per-axis operator, not from the
    transform; the division is refined on it while its norm still falls, and
    a final ||r|| > CG_TOL ||b|| raises ConvergenceFailure.
    """
    p = system.problem
    basis = _eigenbasis(system)
    b = np.asarray(system.rhs, dtype=float)
    if p.bc == "neumann":
        b = b - b.mean()

    def residual(u):
        r = b - system.matvec(u)
        return r - r.mean() if p.bc == "neumann" else r

    u = _divide(basis, b)
    r = residual(u)
    nb, rr, steps = _norm(b), _norm(r), 0
    while rr > CG_TOL * nb:
        u_next = u + _divide(basis, r)
        r_next = residual(u_next)
        rr_next = _norm(r_next)
        if rr_next >= rr:
            break
        u, r, rr, steps = u_next, r_next, rr_next, steps + 1
    res = rr / max(nb, 1e-300)
    if rr > CG_TOL * nb:
        raise ConvergenceFailure(
            f"eigenbasis division stopped at residual {res:.3e} after {steps} "
            f"refinement steps", residual=res)
    return u, res


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product in numpy's own loop: threaded BLAS ddot leaves workers
    spinning that take a core from the sparse matvec, and its bits depend
    on the thread count."""
    return float(np.einsum("i,i->", a, b))


def _norm(v: np.ndarray) -> float:
    return math.sqrt(_dot(np.ravel(v), np.ravel(v)))


def _solve_cg(system: FdmSystem) -> tuple:
    """CG on the flipped operator (the Laplacian is negative semidefinite).

    Periodic and Neumann operators have the constant kernel; the rhs and
    every matvec are projected onto the zero-mean complement so the Krylov
    space stays in the range.  The iteration cap comes from kappa over the
    nonzero closed-form spectrum.  CG starts from zero and stops once the
    true residual, not only the recurred one, meets ||r|| <= CG_TOL ||b||.
    """
    p = system.problem
    singular = p.bc in ("periodic", "neumann")
    kappa = condition_number(system.eig_axis, p.d)
    rhs = np.asarray(system.rhs, dtype=float)
    if singular:
        rhs = rhs - rhs.mean()

    matvec = system.matvec
    if p.bc == "periodic":
        basis = _eigenbasis(system)   # once, not once per matvec

        def matvec(u):
            return _apply(basis, u)

    def mv(u):
        out = matvec(u)
        return -(out - out.mean()) if singular else -out

    cap = int(10.0 * math.sqrt(kappa) * math.log(1.0 / CG_TOL)) + 50
    u = np.zeros_like(rhs)
    r = -rhs
    rr = _dot(r, r)
    stop = CG_TOL * math.sqrt(rr)
    iters, start = 0, math.inf
    while math.sqrt(rr) > stop and iters < cap and rr < start:
        start = rr
        d = r.copy()
        while math.sqrt(rr) > stop and iters < cap:
            q = mv(d)
            alpha = rr / _dot(d, q)
            u += alpha * d
            r -= alpha * q
            rr, rr_prev = _dot(r, r), rr
            d *= rr / rr_prev
            d += r
            iters += 1
        # restart from b - A u, which the recurred r drifts away from
        r = -rhs - mv(u)
        rr = _dot(r, r)
    res = math.sqrt(rr) / max(math.sqrt(_dot(rhs, rhs)), 1e-300)
    if math.sqrt(rr) > stop:
        raise ConvergenceFailure(
            f"conjugate gradient stopped at residual {res:.3e} after {iters} "
            f"iterations (cap {cap})",
            residual=res)
    return u, res, iters


def solve(system: FdmSystem, method: str = "auto") -> SolutionField:
    """Solve the assembled system; the solution mean is pinned to zero.

    method "eigen" divides in the operator's eigenbasis: the real FFT for
    periodic lattices, which reports its residual ungated, and the
    DST-II/DCT-II for restricted ones, which meet CG's 1e-12 relative
    residual or raise.  "cg" runs conjugate gradient with relative
    tolerance 1e-12 and is kept as the cross-check; "auto" is "eigen".
    """
    p = system.problem
    if method in ("auto", "eigen"):
        if p.bc != "periodic":
            u, res = _solve_restricted(system)
            return SolutionField(problem=p, values=u, method="eigen", residual=res)
        basis = _eigenbasis(system)
        u = _divide(basis, system.rhs)
        # the residual A u - (f - mean f), subtracted in place into A u, slab by slab
        shape, split = (2 * p.n,) * p.d, basis[-1]
        f = system.rhs.reshape(shape)
        stats = system.rhs_stats
        mean, norm = (stats[1:] if stats is not None and stats[0] is system.rhs
                      else (system.rhs.mean(), _norm(system.rhs)))
        r = _apply(basis, u).reshape(shape)

        def subtract(lo, hi):
            np.subtract(r[lo:hi], f[lo:hi] - mean, out=r[lo:hi])
        _each_slab(subtract, shape[0], split)
        res = _norm(r) / max(norm, 1e-300)
        return SolutionField(problem=p, values=u, method="eigen", residual=res)
    if method != "cg":
        raise ParameterError(f"method must be auto, eigen or cg, got {method!r}")
    u, res, iters = _solve_cg(system)
    if p.bc == "periodic":
        u = u - u.mean()
    return SolutionField(problem=p, values=u, method="cg", residual=res,
                         iterations=iters)


def error_report(s: SolutionField, exact=None) -> dict:
    """Raw relative l2, sup norm, and the unit-vector (normalized) error; for
    periodic and Neumann solves, which carry no constant-kernel component, the
    exact field (array or callable) is compared after its mean is removed.

    The exact values, passed or returned by the callable, are only read:
    the report makes at most two arrays of their size, the centred values
    (scaled in place later) and the difference.  On periodic lattices the
    elementwise passes run in the FFT's slabs; the norms, the mean and the
    extremes are taken whole, so every number keeps its bits.
    """
    p = s.problem
    if exact is None:
        exact = p.exact_solution
    if exact is None:
        raise ParameterError("no exact solution available")
    if callable(exact):
        if p.bc != "periodic":
            raise ParameterError("pass folded exact values directly for restricted systems")
        exact = exact(*periodic_grid(p.n, p.d))
    ue = np.asarray(exact, dtype=float).reshape(-1)
    del exact   # a sampled field is freed once its centred copy replaces ue
    values = s.values
    split = p.bc == "periodic" and p.d > 1 and ue.shape == values.shape
    row = values.size // (2 * p.n)

    def each(work):
        """work(chunk) over the flat chunks that are the cube's row slabs."""
        if split:
            _each_slab(lambda lo, hi: work(slice(lo * row, hi * row)), 2 * p.n)
        else:
            work(slice(None))

    centre = p.bc in ("periodic", "neumann")
    if centre:
        mean, centred = ue.mean(), np.empty_like(ue)
        each(lambda c: np.subtract(ue[c], mean, out=centred[c]))
        ue = centred
    nb = _norm(ue)
    if nb == 0.0:
        raise ParameterError("exact solution is identically zero; errors undefined")
    diff = np.empty(np.broadcast_shapes(values.shape, ue.shape))
    each(lambda c: np.subtract(values[c], ue[c], out=diff[c]))
    l2_rel, linf = _norm(diff) / nb, float(abs(max(diff.max(), -diff.min())))
    na = _norm(values)
    if na > 0:
        scaled = ue if centre else np.empty_like(ue)   # the centred values are the report's own

        def normalized(c):
            """values/na - ue/nb, in diff."""
            np.divide(values[c], na, out=diff[c])
            np.divide(ue[c], nb, out=scaled[c])
            np.subtract(diff[c], scaled[c], out=diff[c])
        each(normalized)
    return {
        "l2_rel": l2_rel,
        "linf": linf,
        "l2_normalized": _norm(diff) if na > 0 else math.inf,
    }


def convergence_rows(d: int, k: int, n_values, rhs_sampler, exact_solution):
    """CSV-ready sweep rows of periodic solves: n, k, d, l2_rel, linf, kappa, runtime_ms."""
    rows = []
    for n in n_values:
        p = FdmProblem(d=d, n=int(n), k=k, rhs_sampler=rhs_sampler,
                       exact_solution=exact_solution)
        t0 = time.perf_counter()
        system = assemble(p)
        field_ = solve(system)
        ms = 1e3 * (time.perf_counter() - t0)
        rep = error_report(field_)
        rows.append({
            "n": int(n), "k": k, "d": d,
            "l2_rel": rep["l2_rel"], "linf": rep["linf"],
            "kappa": condition_number(system.eig_axis, d), "runtime_ms": ms,
        })
    return rows
