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
assemble took.  Every system stores its 1D axis factor, the order-2k
circulant or its restricted image.  The restricted division and conjugate
gradient, the cross-check, share one gate (_certified): the residual is that
factor applied along each axis, tensor.refine refines on it, and it meets
CG_TOL or raises.  The source and exact solution are sampled on read-only
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
from .tensor import along, axis_sum, kron_sum_apply, refine
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
KERNEL_BCS = ("periodic", "neumann")   # where L's kernel is the constant vector
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
    matrix is that axis factor, which L sums over the d axes: the 2n x 2n
    circulant (1/h^2) C when periodic, (1/h^2) R when restricted.
    rhs_stats is (rhs, its mean, its 2-norm) as assemble took them for its
    checks; the periodic solve reuses the two numbers while rhs is still
    that array, and takes them itself for a replaced rhs or a system built
    by hand.
    """

    problem: FdmProblem
    rhs: np.ndarray
    eig_axis: np.ndarray | None = None
    matrix: sp.csr_matrix | None = None
    rhs_stats: tuple | None = field(default=None, repr=False, compare=False)

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return kron_sum_apply([self.matrix] * self.problem.d, u)


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
    lam is built once per basis, and an eigen solve builds one basis.
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
    """Sample the source on the lattice and attach the scaled 1D factor.

    Periodic systems store the 2n x 2n order-2k circulant, built sparse from
    the stencil's 2k+1 taps.  For the reflection-restricted boundary
    conditions the source is sampled on the parent lattice and folded axis
    by axis into the symmetry sector, and the restricted factor is stored;
    the DST-II (Dirichlet) and the DCT-II (Neumann) diagonalize it, and
    their frequencies l = 1..n and l = 0..n-1 pick its eigenvalues out of
    the circulant ones.  A stored rhs with a non-finite entry is rejected,
    and so, where the operator kernel is the constant vector (periodic,
    Neumann), is a component along it beyond MEAN_RTOL * ||f||; where ||f||
    passes the float range, both are read on f / max |f|.
    """
    s = make_stencil(p.k)
    lam = eigenvalues_1d(s, p.n)
    cube = np.asarray(p.rhs_sampler(*periodic_grid(p.n, p.d)), dtype=float)
    if cube.shape != tuple([2 * p.n] * p.d):
        raise ParameterError(f"sampler returned shape {cube.shape}, expected {(2 * p.n,) * p.d}")
    if p.bc == "periodic":
        m = 2 * p.n
        rows = np.repeat(np.arange(m), 2 * p.k + 1)
        cols = (rows + np.tile(np.arange(-p.k, p.k + 1), m)) % m
        matrix = sp.csr_matrix((np.tile(s.coeffs / p.h ** 2, m), (rows, cols)), shape=(m, m))
    else:
        matrix = sp.csr_matrix(restrict(s, p.n, p.bc) / p.h ** 2)
        for axis in range(p.d):
            cube = fold_vector(cube, p.bc, axis=axis)
        lam = lam[1:p.n + 1] if p.bc == "dirichlet" else lam[:p.n]
    rhs = cube.reshape(-1)
    norm = _norm(rhs)
    scale, unit, size = 1.0, rhs, norm
    if not math.isfinite(norm):   # a NaN or inf entry, or finite ones past the float range
        if not np.isfinite(rhs).all():
            raise ParameterError("non-finite source values on the lattice")
        scale = float(np.abs(rhs).max())
        unit = rhs / scale
        size = _norm(unit)
    mean = float(unit.mean())
    kernel = abs(mean) * math.sqrt(rhs.size)
    if p.bc in KERNEL_BCS and kernel > MEAN_RTOL * size:
        raise CompatibilityError(
            f"{p.bc} rhs has kernel component {scale * kernel:.3e} > {MEAN_RTOL:.0e} * ||f||")
    return FdmSystem(problem=p, rhs=rhs, eig_axis=lam, matrix=matrix,
                     rhs_stats=(rhs, scale * mean, norm))


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


def _off_kernel(p: FdmProblem, v: np.ndarray) -> np.ndarray:
    """v less its mean where L has the constant kernel (KERNEL_BCS), else v."""
    return v - v.mean() if p.bc in KERNEL_BCS else v


def _certified(system: FdmSystem, correct, failure) -> tuple:
    """(u, relative residual): the restricted division or CG, refined and gated.

    The rhs b and every residual b - (1/h^2) L u, computed by the per-axis
    operator (FdmSystem.matvec), not the solver's own map, are taken off the
    constant kernel.  correct(r, aim) approximates e in (1/h^2) L e = r; u
    starts from correct(b, aim), aim = CG_TOL ||b||, and tensor.refine
    improves it.  A residual above aim, or no finite relative one (||b||
    overflows), raises ConvergenceFailure(failure(res)).
    """
    p = system.problem
    b = _off_kernel(p, np.asarray(system.rhs, dtype=float))
    nb = _norm(b)
    aim = CG_TOL * nb
    u, rr = refine(correct(b, aim), lambda u: _off_kernel(p, b - system.matvec(u)),
                   lambda r: correct(r, aim), _norm, aim)
    res = rr / max(nb, 1e-300) if nb < math.inf else math.nan
    if not (rr <= aim and math.isfinite(res)):
        raise ConvergenceFailure(failure(res), residual=res)
    return u, res


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product in numpy's own loop: threaded BLAS ddot leaves workers
    spinning that take a core from the sparse matvec, and its bits depend
    on the thread count."""
    return float(np.einsum("i,i->", a, b))


def _norm(v: np.ndarray) -> float:
    """2-norm: the plain sum of squares where it is finite and positive, so
    its bits; else rescaled by max |v|, which neither overflows nor underflows."""
    v = np.ravel(v)
    sq = _dot(v, v)
    scale = float(np.abs(v).max()) if v.size and not 0.0 < sq < math.inf else 0.0
    if not 0.0 < scale < math.inf:   # the plain sum, all zeros, or a NaN or inf entry
        return math.sqrt(sq)
    w = v / scale
    return scale * math.sqrt(_dot(w, w))


def _solve_cg(system: FdmSystem) -> SolutionField:
    """Conjugate gradient, refined and gated by _certified.

    Each correction is plain CG from zero on (1/h^2) L e = r / max |r|, so no
    inner product overflows, every matvec off the constant kernel (on this
    negative (semi)definite L its iterates are those on -L, negated exactly).
    It stops once the recurred residual meets the aim, or once all corrections
    together spend the cap, from kappa over the nonzero closed-form spectrum.
    """
    p = system.problem
    kappa = condition_number(system.eig_axis, p.d)
    cap = int(10.0 * math.sqrt(kappa) * math.log(1.0 / CG_TOL)) + 50
    iters = 0

    def correct(r, aim):
        nonlocal iters
        scale = float(np.abs(r).max()) or 1.0
        r = r / scale
        e, d, rr = np.zeros_like(r), r.copy(), _dot(r, r)
        while math.sqrt(rr) > aim / scale and iters < cap:
            q = _off_kernel(p, system.matvec(d))
            alpha = rr / _dot(d, q)
            e += alpha * d
            r -= alpha * q
            rr, rr_prev = _dot(r, r), rr
            d *= rr / rr_prev
            d += r
            iters += 1
        return scale * e
    u, res = _certified(system, correct, lambda res: (
        f"conjugate gradient stopped at residual {res:.3e} after {iters} "
        f"iterations (cap {cap})"))
    return SolutionField(problem=p, values=u, method="cg", residual=res, iterations=iters)


def solve(system: FdmSystem, method: str = "auto") -> SolutionField:
    """Solve the assembled system, off the constant kernel where L has one.

    method "eigen" divides in the operator's eigenbasis: the real FFT for
    periodic lattices, which reports its residual ungated unless it is not
    finite, and the DST-II/DCT-II for restricted ones, which meet the 1e-12
    relative residual or raise (_certified).  "cg" runs conjugate gradient
    through the same gate, kept as the cross-check; "auto" is "eigen".  The
    division zeroes the kernel frequency and CG works on the zero-mean
    complement, so where L has the constant kernel the mean is 0 to rounding.
    """
    p = system.problem
    if method not in ("auto", "eigen", "cg"):
        raise ParameterError(f"method must be auto, eigen or cg, got {method!r}")
    if method == "cg":
        return _solve_cg(system)
    basis = _eigenbasis(system)
    if p.bc != "periodic":
        u, res = _certified(system, lambda r, aim: _divide(basis, r), lambda res: (
            f"eigenbasis division stopped at residual {res:.3e} above {CG_TOL:.0e}"))
        return SolutionField(problem=p, values=u, method="eigen", residual=res)
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
    if not math.isfinite(res):
        raise ConvergenceFailure(f"eigenbasis division reached residual {res}", residual=res)
    return SolutionField(problem=p, values=u, method="eigen", residual=res)


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

    centre = p.bc in KERNEL_BCS
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
