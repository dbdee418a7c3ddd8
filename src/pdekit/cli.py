"""Command-line surface: golden reproduction, bound suites, and solves.

Exit codes: 0 success, 1 a verification or bound check failed, 2 the
problem spec (or command line) is invalid.  Commands are deterministic;
the random suite of verify-bounds takes its seed from --seed (default 0).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import fdm as fdm_mod
from .errors import PdekitError, SpecError
from .expressions import builtin_expression
from .golden import GOLDEN_NAMES, compare_goldens, generate_golden
from .laplacian import (DENSE_LIMIT, build_circulant, condition_number, kronecker_sum,
                        spectral_norm)
from .matrixio import write_coordinate
from .solver import analyze_values, node_grids, solve_manufactured, solve_system
from .spectral_ops import diff_matrix, gdd_check, random_gdd
from .spectral_system import assemble_system, choose_truncation, condition_report
from .stencil import make_stencil, second_moment
from .transforms import (alternating_phase, centering_phase, cyclic_permutation,
                         dft_matrix, qsft_matrix, twiddle_phase)

SUITES = ("fdm_kappa", "svd_fourier", "svd_chebyshev", "kappa_poisson",
          "kappa_general", "stencil", "transforms")

EXAMPLES = {
    "poisson-2d-cheb": {
        "method": "spectral",
        "basis": "chebyshev",
        "d": 2,
        "n": 16,
        "A": "identity",
        "solution": "exp-sin",
    },
}


def _emit_rows(rows, out: Path | None, name: str, fmt: str) -> None:
    if out is None:
        return
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        (out / f"{name}.json").write_text(json.dumps(rows, indent=2, default=str) + "\n")
        return
    path = out / f"{name}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _print_table(rows, cols) -> None:
    widths = [max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in cols]
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for r in rows:
        print("  ".join(str(r.get(c, "")).ljust(w) for c, w in zip(cols, widths)))


def cmd_reproduce_goldens(args) -> int:
    results = compare_goldens()
    rows = []
    for r in results:
        rows.append({
            "name": r["name"],
            "shape": f"{r['shape'][0]}x{r['shape'][1]}",
            "status": "ok" if r["ok"] else f"mismatch at {r['first_diff']}",
        })
    _print_table(rows, ["name", "shape", "status"])
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name in GOLDEN_NAMES:
            write_coordinate(generate_golden(name), out / f"{name}.mtx")
    return 0 if all(r["ok"] for r in results) else 1


def _suite_stencil(_seed):
    from fractions import Fraction
    rows = []
    for k in range(1, 31):
        s = make_stencil(k)
        # Minimal lattice just to read the symbol; the small-k advisory
        # does not apply to these algebraic identities.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            symbol = build_circulant(s, k + 1).symbol
        sym = all(symbol[j] == symbol[-j] for j in range(1, symbol.size))
        zero_sum = s.exact[0] + 2 * sum(s.exact[1:]) == 0
        moment = second_moment(s) == 1
        decay = all(abs(s.exact[j]) <= Fraction(2, j * j) for j in range(1, k + 1))
        ok = sym and zero_sum and moment and decay
        rows.append({"k": k, "symmetric": sym, "zero_sum": zero_sum,
                     "moment_one": moment, "decay_2_over_j2": decay, "pass": ok})
    return rows


def _suite_fdm_kappa(_seed):
    c1, c2 = 1.0 / 3.0, 3.0 / 4.0
    bound_norm = 4.0 * math.pi ** 2 / 3.0
    rows = []
    for d in (1, 2, 3):
        for k in (1, 2, 4):
            for n in (8, 16, 32, 64, 128):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    op = kronecker_sum(build_circulant(make_stencil(k), n), d)
                kappa = condition_number(op)
                ratio = kappa / (d * n * n)
                norm1 = spectral_norm(op) / d
                ok = (c1 <= ratio <= c2) and (norm1 <= bound_norm)
                rows.append({"d": d, "k": k, "n": n,
                             "kappa_over_dn2": round(ratio, 6),
                             "norm_1d": round(norm1, 6), "pass": ok})
    return rows


def _suite_svd(basis):
    def run(_seed):
        rows = []
        for n in range(4, 65):
            M = diff_matrix(basis, 2, n, with_boundary_rows=True).dense()
            sv = np.linalg.svd(M, compute_uv=False)
            if basis == "fourier":
                hi, lo = (2.0 * n) ** 2.5, 1.0 / math.sqrt(2.0)
            else:
                hi, lo = float(n) ** 4, 1.0 / 16.0
            ok = sv[0] <= hi and sv[-1] >= lo
            rows.append({"n": n, "sigma_max": f"{sv[0]:.4e}", "max_bound": f"{hi:.4e}",
                         "sigma_min": f"{sv[-1]:.4e}", "min_bound": f"{lo:.4e}",
                         "pass": bool(ok)})
        return rows
    return run


def _suite_kappa_poisson(_seed):
    rows = []
    for basis in ("fourier", "chebyshev"):
        for d in (1, 2, 3):
            for n in range(2, 9):
                system = assemble_system(np.eye(d), basis, n, np.zeros((n + 1) ** d))
                rep = condition_report(system)
                rows.append({
                    "basis": basis, "d": d, "n": n,
                    "kappa": f"{rep['kappa']:.4e}",
                    "bound": f"{rep['bound_poisson']:.4e}",
                    "pass": bool(rep["within_poisson"]),
                })
    return rows


def _suite_kappa_general(seed):
    rng = np.random.default_rng(seed)
    rows = []
    for trial in range(50):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(3, 7)) if d == 2 else int(rng.integers(2, 5))
        basis = ("fourier", "chebyshev")[trial % 2]
        A = random_gdd(rng, d)
        info = gdd_check(A)
        if not info["accepted"]:
            rows.append({"trial": trial, "basis": basis, "d": d, "n": n,
                         "status": "skipped (not diagonally dominant)", "pass": True})
            continue
        system = assemble_system(A, basis, n, np.zeros((n + 1) ** d))
        rep = condition_report(system)
        pure = assemble_system(np.diag(np.diag(A)), basis, n,
                               np.zeros((n + 1) ** d)).L.toarray()
        mixed = system.L.toarray() - pure
        try:
            ratio = np.linalg.norm(np.linalg.solve(pure.T, mixed.T).T, 2)
        except np.linalg.LinAlgError:
            rows.append({"trial": trial, "basis": basis, "d": d, "n": n,
                         "kappa": f"{rep['kappa']:.3e}",
                         "kappa_bound": f"{rep['bound_general']:.3e}",
                         "perturbation": "inf", "pert_bound": f"{1.0 - info['C']:.3e}",
                         "status": "pure block singular", "pass": False})
            continue
        ok_kappa = rep["within_general"]
        ok_pert = ratio <= 1.0 - info["C"] + 1e-12
        rows.append({
            "trial": trial, "basis": basis, "d": d, "n": n,
            "kappa": f"{rep['kappa']:.3e}",
            "kappa_bound": f"{rep['bound_general']:.3e}",
            "perturbation": f"{ratio:.3e}",
            "pert_bound": f"{1.0 - info['C']:.3e}",
            "status": "ok" if (ok_kappa and ok_pert) else "bound violated",
            "pass": bool(ok_kappa and ok_pert),
        })
    return rows


def _suite_transforms(_seed):
    rows = []
    for n in range(1, 64):
        F = dft_matrix(n)
        Fs = qsft_matrix(n)
        S = np.diag(centering_phase(n))
        R = np.diag(alternating_phase(n))
        T = np.diag(twiddle_phase(n))
        P = cyclic_permutation(n)
        e1 = np.abs(Fs - S @ F @ R).max()
        e2 = np.abs(P - F @ T @ np.conj(F.T)).max()
        e3 = np.abs(Fs @ np.conj(Fs.T) - np.eye(n + 1)).max()
        ok = max(e1, e2, e3) <= 1e-12
        rows.append({"n": n, "factorization": f"{e1:.2e}",
                     "shift_conjugation": f"{e2:.2e}",
                     "unitarity": f"{e3:.2e}", "pass": bool(ok)})
    return rows


def cmd_verify_bounds(args) -> int:
    runners = {
        "stencil": _suite_stencil,
        "fdm_kappa": _suite_fdm_kappa,
        "svd_fourier": _suite_svd("fourier"),
        "svd_chebyshev": _suite_svd("chebyshev"),
        "kappa_poisson": _suite_kappa_poisson,
        "kappa_general": _suite_kappa_general,
        "transforms": _suite_transforms,
    }
    rows = runners[args.suite](args.seed)
    cols = list(rows[0].keys())
    _print_table(rows, cols)
    passed = sum(1 for r in rows if r["pass"])
    print(f"{args.suite}: {passed}/{len(rows)} checks passed")
    _emit_rows(rows, Path(args.out) if args.out else None, args.suite, args.format)
    return 0 if passed == len(rows) else 1


def _load_spec(args) -> dict:
    if args.example:
        if args.example not in EXAMPLES:
            raise SpecError(f"unknown example {args.example!r}; available: {sorted(EXAMPLES)}")
        return dict(EXAMPLES[args.example])
    if not args.spec:
        raise SpecError("provide --spec <file.json> or --example <name>")
    try:
        spec = json.loads(Path(args.spec).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read spec: {exc}") from exc
    if not isinstance(spec, dict):
        raise SpecError("spec must be a JSON object")
    return spec


def _coeff_matrix(spec, d):
    A = spec.get("A", "identity")
    if isinstance(A, str):
        if A != "identity":
            raise SpecError(f"A must be 'identity' or a {d}x{d} matrix, got {A!r}")
        return np.eye(d)
    A = np.asarray(A, dtype=float)
    if A.shape != (d, d):
        raise SpecError(f"A has shape {A.shape}, expected ({d}, {d})")
    return A


def _constant_face(basis, n, d, value):
    """Coefficients of the constant function on a (d-1)-dimensional face."""
    if d == 1:
        return complex(value)
    vec = np.zeros((n + 1) ** (d - 1), dtype=complex)
    idx = 0 if basis == "chebyshev" else n // 2
    pos = 0
    for _ in range(d - 1):
        pos = pos * (n + 1) + idx
    vec[pos] = value
    return vec


def _solve_spectral(spec, outdir, fmt) -> int:
    basis = spec.get("basis")
    if basis not in ("fourier", "chebyshev"):
        raise SpecError(f"basis must be fourier or chebyshev, got {basis!r}")
    d = int(spec.get("d", 0))
    if d < 1:
        raise SpecError("d must be a positive integer")
    A = _coeff_matrix(spec, d)
    n = spec.get("n")
    meta = {"method": "spectral", "basis": basis, "d": d}
    if n == "auto":
        auto = spec.get("auto")
        if not auto or not all(key in auto for key in ("eps", "g", "gprime")):
            raise SpecError("auto-n requires auto: {eps, g, gprime}")
        n = choose_truncation(float(auto["g"]), float(auto["gprime"]), float(auto["eps"]))
        meta["auto"] = dict(auto)
    n = int(n) if n is not None else None
    if n is None or n < 2:
        raise SpecError("n must be an integer >= 2 or 'auto'")
    meta["n"] = n

    t0 = time.perf_counter()
    if "solution" in spec:
        run = solve_manufactured(spec["solution"], A, basis, n,
                                 closure=spec.get("closure", "axes"))
        system, result = run["system"], run["result"]
        meta["errors"] = {k: run[k] for k in ("l2_rel", "l2_normalized", "sup")}
        values = run["u_numeric"]
    else:
        fname = spec.get("f")
        if not fname:
            raise SpecError("spec needs either 'solution' or 'f'")
        expr = builtin_expression(fname, d)
        grids = node_grids(basis, n, d)
        fhat = analyze_values(basis, expr.value(grids).reshape(-1), n, d)
        gamma = spec.get("gamma")
        closure = spec.get("closure", "axes")
        if basis == "chebyshev" or closure == "axes":
            if gamma is None:
                raise SpecError("boundary data 'gamma' is required for this problem")
            if np.isscalar(gamma):
                gamma = [[gamma, gamma]] * d
            boundary = []
            for j in range(d):
                gp, gm = gamma[j]
                bp = _constant_face(basis, n, d, gp)
                bm = None if basis == "fourier" else _constant_face(basis, n, d, gm)
                boundary.append((bp, bm))
            system = assemble_system(A, basis, n, fhat, boundary=boundary)
        else:
            system = assemble_system(A, basis, n, fhat, closure=closure,
                                     point_value=complex(gamma or 0.0))
        result = solve_system(system)
        values = result.node_values()
    meta["runtime_ms"] = 1e3 * (time.perf_counter() - t0)
    meta["residual"] = result.residual
    meta["q"] = system.q
    if system.size <= DENSE_LIMIT:
        meta["kappa"] = condition_report(system)["kappa"]
    meta["gdd"] = system.gdd

    _write_solution(outdir, fmt, basis, n, d, values, meta)
    return 0


def _value_sampler(expr):
    """Pointwise product evaluation on meshgrid arrays."""
    def fn(*X):
        out = 1.0
        for j, f in enumerate(expr.factors):
            out = out * f.value(X[j])
        return out
    return fn


def _laplacian_sampler(expr):
    """Pointwise Laplacian of a product expression on meshgrid arrays."""
    def fn(*X):
        total = 0.0
        for j in range(len(expr.factors)):
            term = 1.0
            for a, f in enumerate(expr.factors):
                term = term * (f.d2 if a == j else f.value)(X[a])
            total = total + term
        return total
    return fn


def _solve_fdm(spec, outdir, fmt) -> int:
    d = int(spec.get("d", 0))
    if d < 1:
        raise SpecError("d must be a positive integer")
    bc = spec.get("bc", "periodic")
    if bc != "periodic":
        raise SpecError("the command line drives periodic lattices; use the library "
                        "API for reflection-restricted boundaries")
    name = spec.get("solution")
    if name not in ("sin", "cos", "exp-sin"):
        raise SpecError("fdm solves take solution in {'sin', 'cos', 'exp-sin'} "
                        "(families periodic on the lattice)")
    expr = builtin_expression(name, d)
    sample_f = _laplacian_sampler(expr)
    sample_u = _value_sampler(expr)
    k = int(spec.get("k", 1))
    n = spec.get("n")
    if isinstance(n, list):
        rows = fdm_mod.convergence_rows(d, k, [int(v) for v in n],
                                        sample_f, sample_u, bc=bc)
        _print_table(rows, list(rows[0].keys()))
        _emit_rows(rows, Path(outdir) if outdir else Path("."), "fdm_sweep", fmt)
        return 0
    n = int(n)

    p = fdm_mod.FdmProblem(d=d, n=n, k=k, rhs_sampler=sample_f,
                           exact_solution=sample_u, bc=bc)
    t0 = time.perf_counter()
    field_ = fdm_mod.solve(fdm_mod.assemble(p))
    meta = {
        "method": "fdm", "d": d, "n": n, "k": k, "bc": bc,
        "solver": field_.method,
        "residual": field_.residual,
        "runtime_ms": 1e3 * (time.perf_counter() - t0),
        "errors": fdm_mod.error_report(field_),
        "kappa": condition_number(kronecker_sum(build_circulant(make_stencil(k), n), d)),
    }
    _write_solution(outdir, fmt, "lattice", n, d, field_.values, meta)
    return 0


def _write_solution(outdir, fmt, basis, n, d, values, meta) -> None:
    out = Path(outdir) if outdir else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    meta_path = out / "metadata.json"
    meta_path.write_text(json.dumps(meta, indent=2, default=str) + "\n")
    values = np.asarray(values).reshape(-1)
    if fmt == "json":
        payload = {"basis": basis, "n": n, "d": d,
                   "values_re": values.real.tolist(),
                   "values_im": values.imag.tolist() if np.iscomplexobj(values) else None}
        (out / "solution.json").write_text(json.dumps(payload) + "\n")
    else:
        side = values.size
        with open(out / "solution.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "re", "im"])
            for i in range(side):
                v = complex(values[i])
                writer.writerow([i, repr(v.real), repr(v.imag)])
    ext = "json" if fmt == "json" else "csv"
    print(f"wrote {out}/solution.{ext} and {out}/metadata.json")
    print(json.dumps(meta, indent=2, default=str))


def cmd_solve(args) -> int:
    spec = _load_spec(args)
    method = spec.get("method")
    if method == "spectral":
        return _solve_spectral(spec, args.out, args.format)
    if method == "fdm":
        return _solve_fdm(spec, args.out, args.format)
    raise SpecError(f"method must be 'spectral' or 'fdm', got {method!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdekit",
        description="Spectral and high-order finite-difference Poisson tooling")
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("reproduce-goldens",
                        help="rebuild the published example matrices and diff them")
    p1.add_argument("--out", help="directory for coordinate-format copies")
    p1.set_defaults(fn=cmd_reproduce_goldens)

    p2 = sub.add_parser("verify-bounds", help="run a bound-verification suite")
    p2.add_argument("--suite", required=True, choices=SUITES)
    p2.add_argument("--seed", type=int, default=0)
    p2.add_argument("--out", help="directory for the emitted table")
    p2.add_argument("--format", choices=("csv", "json"), default="csv")
    p2.set_defaults(fn=cmd_verify_bounds)

    p3 = sub.add_parser("solve", help="run the assemble/solve/synthesize pipeline")
    p3.add_argument("--spec", help="JSON problem spec")
    p3.add_argument("--example", help=f"built-in example: {', '.join(sorted(EXAMPLES))}")
    p3.add_argument("--out", help="artifact directory (default: current)")
    p3.add_argument("--format", choices=("csv", "json"), default="csv")
    p3.set_defaults(fn=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except PdekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
