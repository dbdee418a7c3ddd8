"""Seeded problem generators, timed execution and correctness checks.

Each workload is a fixed cycle of problem classes (basis or boundary
condition, dimension, size, stencil order); the seed only draws the source
modes, amplitudes, phases and coefficient matrices, so every seed has the
same size mix.  pdekit receives nothing but the generated inputs: sampler
callables, expressions, coefficient matrices and spec files.

A problem fails if it raises, if its returned residual exceeds its path's
stated tolerance (1e-12 for CG and solve_system; the periodic eigen path
states none), or if its error against the manufactured solution exceeds
the anchor recorded for its class in anchors.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pdekit
from pdekit import cli, fdm, solver
from pdekit.expressions import ProductExpression, exp_sin_factor

HERE = Path(__file__).resolve().parent
ANCHORS_PATH = HERE / "anchors.json"
RESIDUAL_TOL = 1e-12   # solve_system's default tol and fdm.CG_TOL
UNGATED_PATHS = ("eigen", "fdm")  # periodic eigenspace division states no tolerance
MODES_PER_AXIS = 3
MAX_MODE = 4
ENVELOPE = (1.0, 2.0)   # range of the envelope strength c


@dataclass
class Problem:
    """One generated input plus what is needed to check its output."""

    pid: int
    kind: str            # periodic | restricted | spectral | cli
    path: str            # solver path within the kind; warm-up runs each once
    label: str           # problem class; keys the error anchor
    unknowns: int
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    seconds: float
    failure: str | None = None
    residual: float = math.nan
    error: float = math.nan


# ---------------------------------------------------------------- workloads
# One tuple per problem class; every cycle runs them in this order, fresh draws.

WORKLOADS = {
    "lattice-periodic": {
        "kind": "periodic",
        # three cheaper and three dearer classes around three d=3 n=32 ones,
        # so the median falls inside a block of one size
        "classes": [(3, 32, 3), (3, 32, 4), (3, 32, 5), (3, 48, 4), (3, 48, 6), (3, 64, 5),
                    (2, 128, 3), (2, 256, 4), (2, 256, 6)],
    },
    "lattice-restricted": {
        "kind": "restricted",
        # as many d=2 n=48 classes above the median as d=2 n=32 and d=3 n=24
        # below it, so the median and the tail fall inside blocks of one size
        "classes": [(bc, d, n, k) for d, n, k in ((2, 32, 3), (3, 24, 5), (3, 12, 4),
                                                  (2, 48, 5), (2, 48, 3))
                    for bc in ("dirichlet", "neumann")] + [("dirichlet", 3, 12, 3)],
    },
    "spectral-direct": {
        "kind": "spectral",
        # five cheaper classes, three of them Fourier, whose times swing most
        # from run to run; a middle block of three; five dearer ones.  The
        # median falls in the middle block and the tail in the d=2 n=48 mixed
        # one, whichever way the Fourier times swing.
        "classes": [("chebyshev", 2, 32, "diag"), ("chebyshev", 2, 32, "mixed"),
                    ("fourier", 2, 64, "diag"), ("fourier", 2, 64, "mixed"),
                    ("fourier", 2, 96, "mixed"),
                    ("chebyshev", 3, 10, "diag"), ("chebyshev", 3, 10, "diag"),
                    ("chebyshev", 2, 48, "diag"),
                    ("chebyshev", 3, 10, "mixed"), ("chebyshev", 3, 10, "mixed"),
                    ("chebyshev", 3, 12, "diag"), ("chebyshev", 2, 48, "mixed"),
                    ("chebyshev", 3, 12, "mixed")],
    },
    "cli-certified": {
        "kind": "cli",
        # five cheaper and five dearer classes around the two Fourier n=24 ones
        "classes": [("chebyshev", 16, "diag"), ("fourier", 16, "mixed"),
                    ("chebyshev", 24, "diag"),
                    ("chebyshev", 24, "mixed"), ("fourier", 24, "diag"),
                    ("fourier", 24, "mixed"), ("f-gamma", 24, "diag"),
                    ("chebyshev", 36, "mixed"), ("fourier", 36, "diag"),
                    ("fourier", 36, "mixed"), ("chebyshev", 40, "diag"), ("fdm", 32, 4)],
    },
}


# ----------------------------------------------------------------- sources

def _modes(rng, d, with_phase):
    """Per axis: an envelope strength and phase, then MODES_PER_AXIS distinct
    integer frequencies with their amplitudes and phases."""
    out = []
    for _ in range(d):
        c = rng.uniform(*ENVELOPE)
        psi = rng.uniform(0.0, 2 * math.pi) if with_phase else 0.0
        m = rng.choice(np.arange(1, MAX_MODE + 1), size=MODES_PER_AXIS, replace=False)
        a = rng.uniform(0.5, 1.0, size=MODES_PER_AXIS)
        phi = rng.uniform(0.0, 2 * math.pi, size=MODES_PER_AXIS) if with_phase \
            else np.zeros(MODES_PER_AXIS)
        out.append((c, psi, m.astype(float), a, phi))
    return out


def _axis_terms(mode, x, shift, fn):
    """g = exp(c cos(t + psi)) sum_i a_i fn(m_i t + phi_i), t = x + shift, and g''.

    The envelope spreads g over every lattice frequency (the envelope's m-th
    Fourier coefficient is the Bessel value I_m(c)), so CG on the restricted
    operator cannot finish in as few steps as a pure mode sum allows.  With
    psi = phi = 0 the envelope is even in t and g keeps the parity of fn.
    """
    c, psi, m, a, phi = mode
    dfn = np.cos if fn is np.sin else (lambda z: -np.sin(z))
    t = x + shift
    s = s1 = s2 = 0.0
    for mi, ai, pi in zip(m, a, phi):
        z = mi * t + pi
        v = ai * fn(z)
        s = s + v
        s1 = s1 + ai * mi * dfn(z)
        s2 = s2 - mi * mi * v
    sin_t, cos_t = np.sin(t + psi), np.cos(t + psi)
    e = np.exp(c * cos_t)
    e1 = -c * sin_t * e
    e2 = (c * c * sin_t * sin_t - c * cos_t) * e
    return e * s, e2 * s + 2.0 * e1 * s1 + e * s2


def _grid_lines(X):
    """Per-axis coordinate lines, shaped to broadcast, when X is an ij meshgrid."""
    d = len(X)
    lines = []
    for j, x in enumerate(X):
        x = np.asarray(x)
        if x.ndim != d:
            return None
        shape = [1] * d
        shape[j] = x.shape[j]
        line = x[tuple(slice(None) if a == j else 0 for a in range(d))].reshape(shape)
        if not np.array_equal(np.broadcast_to(line, x.shape), x):
            return None
        lines.append(line)
    return lines


class LatticeSource:
    """u = prod_j g_j(x_j), g_j an enveloped multi-mode sum; f = Laplacian of u.

    Periodic sources use sin(m x + phi) under exp(c cos(x + psi)).
    Restricted sources use sin(m (x + h/2)) (Dirichlet, antisymmetric about
    -h/2) or cos(m (x + h/2)) (Neumann, symmetric) under exp(c cos(x + h/2)),
    so they lie in the sector the reflection fold keeps.  On a meshgrid the factors are evaluated once
    per axis line and broadcast; other arrays are evaluated pointwise.
    """

    def __init__(self, modes, fn, shift):
        self.modes, self.fn, self.shift = modes, fn, shift
        self.hook = None  # the tracer's span around sampling, when tracing

    def _sample(self, X, laplacian):
        if self.hook is not None:
            with self.hook():
                return self._eval(X, laplacian)
        return self._eval(X, laplacian)

    def _eval(self, X, laplacian):
        X = _grid_lines(X) or X
        terms = [_axis_terms(md, x, self.shift, self.fn) for md, x in zip(self.modes, X)]
        if not laplacian:
            return math.prod(g for g, _ in terms)
        total = 0.0
        for j, (_, g2) in enumerate(terms):
            term = g2
            for a, (g, _) in enumerate(terms):
                if a != j:
                    term = term * g
            total = total + term
        return total

    def rhs(self, *X):
        return self._sample(X, True)

    def exact(self, *X):
        return self._sample(X, False)

    def folded_exact(self, n, d):
        """Exact values in the fold's sector basis: sqrt(2)^d u on sites 0..n-1.

        Neumann solutions are fixed up to a constant, which the solver pins
        to a zero mean; so is this.
        """
        x = math.pi * np.arange(n) / n
        out = np.ones([1] * d)
        for j, md in enumerate(self.modes):
            shape = [1] * d
            shape[j] = n
            g, _ = _axis_terms(md, x, self.shift, self.fn)
            out = out * (math.sqrt(2.0) * g).reshape(shape)
        out = out.reshape(-1)
        return out - out.mean() if self.fn is np.cos else out


def random_gdd(rng, d):
    """Seeded generalized-diagonally-dominant A with mixed terms."""
    diag = rng.uniform(0.5, 2.0, size=d)
    off = rng.uniform(-1.0, 1.0, size=(d, d))
    np.fill_diagonal(off, 0.0)
    weight = sum(np.abs(off[j]).sum() / diag[j] for j in range(d))
    off *= (1.0 - rng.uniform(0.2, 0.6)) / weight
    return np.diag(diag) + off


def coefficient_matrix(rng, d, kind):
    return random_gdd(rng, d) if kind == "mixed" else np.diag(rng.uniform(0.5, 2.0, size=d))


def _chebyshev_expr(rng, d):
    return ProductExpression([exp_sin_factor(rng.uniform(0.8, 1.6)) for _ in range(d)])


# -------------------------------------------------------------- generation

def make_cycle(workload: str, seed: int, index: int = 0, workdir: Path | None = None) -> list:
    """The seeded problems of cycle `index` of the workload, in run order.

    Every cycle has the same classes and fresh draws, so a run covers
    cycles x classes distinct problems.
    """
    spec = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload), index])
    kind = spec["kind"]
    problems = []
    for pid, cls in enumerate(spec["classes"]):
        if kind == "periodic":
            d, n, k = cls
            src = LatticeSource(_modes(rng, d, True), np.sin, 0.0)
            problems.append(Problem(pid, kind, "eigen", f"periodic-d{d}-n{n}-k{k}", (2 * n) ** d,
                                    {"d": d, "n": n, "k": k, "source": src}))
        elif kind == "restricted":
            bc, d, n, k = cls
            fn = np.sin if bc == "dirichlet" else np.cos
            src = LatticeSource(_modes(rng, d, False), fn, math.pi / n / 2)
            problems.append(Problem(pid, kind, bc, f"{bc}-d{d}-n{n}-k{k}", n ** d,
                                    {"d": d, "n": n, "k": k, "bc": bc, "source": src,
                                     "exact": src.folded_exact(n, d)}))
        elif kind == "spectral":
            basis, d, n, a = cls
            A = coefficient_matrix(rng, d, a)
            expr = _chebyshev_expr(rng, d) if basis == "chebyshev" \
                else pdekit.builtin_expression("exp-sin-pi", d)
            problems.append(Problem(pid, kind, basis, f"{basis}-d{d}-n{n}-{a}", (n + 1) ** d,
                                    {"basis": basis, "d": d, "n": n, "A": A, "expr": expr}))
        else:
            where = Path(workdir or HERE / "out" / "cli") / f"c{index:02d}-p{pid:02d}"
            problems.append(_cli_problem(pid, cls, rng, where))
    return problems


def _cli_problem(pid, cls, rng, where):
    name, n, extra = cls
    if name == "fdm":
        spec = {"method": "fdm", "d": 3, "n": n, "k": extra, "solution": "exp-sin"}
        label, unknowns = f"cli-fdm-d3-n{n}-k{extra}", (2 * n) ** 3
    else:
        basis = "chebyshev" if name == "f-gamma" else name
        A = coefficient_matrix(rng, 2, extra)
        spec = {"method": "spectral", "basis": basis, "d": 2, "n": n, "A": A.tolist()}
        if name == "f-gamma":
            spec.update(f="exp-sin", gamma=float(rng.uniform(0.5, 1.5)))
        else:
            spec["solution"] = "exp-sin" if basis == "chebyshev" else "exp-sin-pi"
        label, unknowns = f"cli-{name}-d2-n{n}-{extra}", (n + 1) ** 2
    where.mkdir(parents=True, exist_ok=True)
    path = where / "spec.json"
    path.write_text(json.dumps(spec))
    return Problem(pid, "cli", name, label, unknowns,
                   {"spec": str(path), "out": str(where / "out")})


# --------------------------------------------------------------- execution

def execute(p: Problem, anchors: dict, tracer=None) -> Outcome:
    """Run one problem with the clock around the library calls, then check it."""
    run = {"periodic": _run_lattice, "restricted": _run_lattice,
           "spectral": _run_spectral, "cli": _run_cli}[p.kind]
    if p.kind == "cli":
        shutil.rmtree(p.params["out"], ignore_errors=True)
    hook = tracer.problem(p.pid) if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with hook:
            result = run(p, tracer)
        seconds = time.perf_counter() - t0
        residual, error = _read_cli(p) if p.kind == "cli" else result
    except Exception as exc:  # any raise is a failed problem, never an abort
        return Outcome(time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}")
    if p.kind == "cli" and tracer is not None:
        tracer.count("cli.artifact_bytes", directory_bytes(p.params["out"]))
    return Outcome(seconds, check(p, residual, error, anchors), residual, error)


def check(p: Problem, residual: float, error: float, anchors: dict) -> str | None:
    """Failure reason for a finished problem, or None when it is certified."""
    if p.path not in UNGATED_PATHS and not residual <= RESIDUAL_TOL:
        return f"residual {residual:.3e} > {RESIDUAL_TOL:.0e}"
    if p.path == "f-gamma":
        return None  # no known solution; the residual is its check
    anchor = anchors.get(p.label)
    if anchor is None:
        return f"no error anchor recorded for {p.label}"
    if not error <= anchor:
        return f"error {error:.3e} > anchor {anchor:.3e}"
    return None


def _run_lattice(p, tracer):
    q = p.params
    src = q["source"]
    src.hook = tracer.sampler if tracer is not None else None
    problem = fdm.FdmProblem(d=q["d"], n=q["n"], k=q["k"], rhs_sampler=src.rhs,
                             exact_solution=src.exact, bc=q.get("bc", "periodic"))
    system = fdm.assemble(problem)
    field_ = fdm.solve(system)  # auto: eigen for periodic, CG for restricted
    report = fdm.error_report(field_, None if p.kind == "periodic" else q["exact"])
    return field_.residual, report["l2_rel"]


def _run_spectral(p, tracer):
    q = p.params
    out = solver.solve_manufactured(q["expr"], q["A"], q["basis"], q["n"])
    return out["result"].residual, out["l2_rel"]


def _run_cli(p, tracer):
    q = p.params
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["solve", "--spec", q["spec"], "--out", q["out"]])
    if code != 0:
        raise RuntimeError(f"pdekit solve exited with {code}")


def _read_cli(p):
    """Residual and error from the artifacts; a spectral spec must carry kappa."""
    meta = json.loads((Path(p.params["out"]) / "metadata.json").read_text())
    if p.path != "fdm" and not 0.0 < meta.get("kappa", math.nan) < math.inf:
        raise RuntimeError("spectral solve wrote no finite kappa certificate")
    error = meta["errors"]["l2_rel"] if "errors" in meta else math.nan
    return meta["residual"], error


def directory_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def warm_up(cycle: list, anchors: dict) -> None:
    """Solve the smallest problem of each solver path once, untimed.

    The first dense eigensolve or SVD in a process costs about twice the
    steady one; this keeps that start-up cost in setup_s.
    """
    seen = set()
    for p in sorted(cycle, key=lambda p: p.unknowns):
        if p.path not in seen:
            seen.add(p.path)
            execute(p, anchors)


def load_anchors() -> dict:
    return json.loads(ANCHORS_PATH.read_text())["anchors"] if ANCHORS_PATH.exists() else {}
