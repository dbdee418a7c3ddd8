"""Command-line surface: golden reproduction, bound suites, and solves.

Exit codes: 0 success, 1 a verification or bound check failed, 2 the
problem spec (or command line) is invalid.  Commands are deterministic;
the random suite of verify-bounds takes its seed from --seed (default 0).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import fdm as fdm_mod
from . import suites
from .errors import BudgetExceeded, ParameterError, PdekitError, SpecError
from .expressions import builtin_expression
from .golden import GOLDEN_NAMES, compare_goldens, generate_golden
from .laplacian import condition_number
from .matrixio import write_coordinate
from .solver import analyze_values, node_grids, solve_manufactured, solve_system
from .spectral_system import (assemble_system, certified_truncation_order,
                              choose_truncation, condition_report)

SUITES = tuple(suites.SUITES)

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


def _cell(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_table(rows, cols) -> None:
    widths = [max(len(c), *(len(_cell(r.get(c, ""))) for r in rows)) for c in cols]
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for r in rows:
        print("  ".join(_cell(r.get(c, "")).ljust(w) for c, w in zip(cols, widths)))


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


def cmd_verify_bounds(args) -> int:
    rows = suites.SUITES[args.suite](args.seed)
    # conditioning rows also carry their operators; only scalars are emitted
    cols = [c for c, v in rows[0].items() if np.isscalar(v)]
    rows = [{c: r[c] for c in cols} for r in rows]
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


def _number(value, name, what="a number"):
    """A numeric spec field: a JSON number, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{name} must be {what}, got {value!r}")
    return value


def _integer(value, name) -> int:
    """An integer spec field: a JSON integer or an integral float."""
    if isinstance(_number(value, name, "an integer"), float) and not value.is_integer():
        raise SpecError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _numbers(value, name, dtype):
    """A number or nested lists of numbers as an array of dtype; ragged lists are rejected."""
    def check(v):
        return [check(x) for x in v] if isinstance(v, list) else _number(v, name)
    try:
        return np.asarray(check(value), dtype=dtype)
    except ValueError as exc:
        raise SpecError(f"invalid {name} {value!r}: {exc}") from exc


def _coeff_matrix(spec, d):
    A = spec.get("A", "identity")
    if isinstance(A, str):
        if A != "identity":
            raise SpecError(f"A must be 'identity' or a {d}x{d} matrix, got {A!r}")
        return np.eye(d)
    A = _numbers(A, "A", float)
    if A.shape != (d, d):
        raise SpecError(f"A has shape {A.shape}, expected ({d}, {d})")
    return A


def _constant_face(basis, n, d, value):
    """Coefficients of the constant function on a (d-1)-dimensional face."""
    if d == 1:
        return complex(value)
    vec = np.zeros((n + 1) ** (d - 1), dtype=complex)
    idx = 0 if basis == "chebyshev" else n // 2
    vec[np.ravel_multi_index([idx] * (d - 1), [n + 1] * (d - 1))] = value
    return vec


def _solve_spectral(spec, outdir, fmt) -> int:
    basis = spec.get("basis")
    if basis not in ("fourier", "chebyshev"):
        raise SpecError(f"basis must be fourier or chebyshev, got {basis!r}")
    d = _integer(spec.get("d", 0), "d")
    if d < 1:
        raise SpecError("d must be a positive integer")
    A = _coeff_matrix(spec, d)
    n = spec.get("n")
    meta = {"method": "spectral", "basis": basis, "d": d}
    if n == "auto":
        auto = spec.get("auto")
        if not isinstance(auto, dict) or not all(key in auto for key in ("eps", "g", "gprime")):
            raise SpecError("auto-n requires auto: {eps, g, gprime}")
        g, gprime, eps = (float(_number(auto[key], f"auto.{key}"))
                          for key in ("g", "gprime", "eps"))
        # the printed closed formula undershoots its own inequality; solve
        # at the certified order and record both
        n = certified_truncation_order(g, gprime, eps)
        meta["auto"] = dict(auto, n_certified=n, n_formula=choose_truncation(g, gprime, eps))
    n = _integer(n, "n")
    if n < 2:
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
        if closure == "axes":
            if gamma is None:
                raise SpecError("boundary data 'gamma' is required for this problem")
            if not isinstance(gamma, list):
                gamma = [[gamma, gamma]] * d
            gamma = _numbers(gamma, "gamma", complex)
            if gamma.shape != (d, 2):
                raise SpecError(f"gamma must be a number or {d} pairs [g+, g-], "
                                f"got shape {gamma.shape}")
            if basis == "fourier" and np.any(gamma[:, 0] != gamma[:, 1]):
                raise SpecError("periodic faces share one closure row: each gamma "
                                "pair [g+, g-] needs g+ == g-")
            boundary = []
            for j in range(d):
                gp, gm = gamma[j]
                bp = _constant_face(basis, n, d, gp)
                bm = None if basis == "fourier" else _constant_face(basis, n, d, gm)
                boundary.append((bp, bm))
            system = assemble_system(A, basis, n, fhat, boundary=boundary)
        else:
            system = assemble_system(A, basis, n, fhat, closure=closure,
                                     point_value=complex(_number(
                                         0.0 if gamma is None else gamma, "gamma")))
        result = solve_system(system)
        values = result.node_values()
    meta["runtime_ms"] = 1e3 * (time.perf_counter() - t0)
    meta["residual"] = result.residual
    meta["q"] = system.q
    try:
        meta["kappa"] = condition_report(system)["kappa"]
    except BudgetExceeded:
        pass  # too large for the dense report; metadata carries no kappa
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
    d = _integer(spec.get("d", 0), "d")
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
    k = _integer(spec.get("k", 1), "k")
    n = spec.get("n")
    if n == []:
        raise SpecError("n must be an integer or a nonempty list of integers")
    if isinstance(n, list):
        rows = fdm_mod.convergence_rows(d, k, [_integer(v, "n") for v in n],
                                        sample_f, sample_u)
        _print_table(rows, list(rows[0].keys()))
        _emit_rows(rows, Path(outdir) if outdir else Path("."), "fdm_sweep", fmt)
        return 0
    n = _integer(n, "n")

    p = fdm_mod.FdmProblem(d=d, n=n, k=k, rhs_sampler=sample_f,
                           exact_solution=sample_u, bc=bc)
    t0 = time.perf_counter()
    system = fdm_mod.assemble(p)
    field_ = fdm_mod.solve(system)
    meta = {
        "method": "fdm", "d": d, "n": n, "k": k, "bc": bc,
        "solver": field_.method,
        "residual": field_.residual,
        "runtime_ms": 1e3 * (time.perf_counter() - t0),
        "errors": fdm_mod.error_report(field_),
        "kappa": condition_number(system.eig_axis, d),
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
    solve = {"spectral": _solve_spectral, "fdm": _solve_fdm}.get(method)
    if solve is None:
        raise SpecError(f"method must be 'spectral' or 'fdm', got {method!r}")
    try:
        return solve(spec, args.out, args.format)
    except ParameterError as exc:
        # every argument of a solve comes from the spec
        raise SpecError(str(exc)) from exc


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
