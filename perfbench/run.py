"""Certified-solve benchmark for pdekit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a pdekit checkout; it imports pdekit from ./src and
exits with code 2, printing no result, when there is none.  One process, one
closed-loop client, BLAS threads = min(2, nproc) (BLAS_ENV).

The seed draws the inputs of every cycle of problems (workloads.py).  A run
does the number of whole cycles that fills --seconds at NOMINAL_CYCLE_S, so
runs with the same --seconds do the same amount of work and their medians
and tails compare class for class.  Each problem is timed from the start of
source sampling (or the pdekit.cli.main call) until node values and their
residual and error (or the artifacts) are in hand, then checked.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
each cycle untraced and then traced, and reports the per-layer metrics
(spans.py) over the traced pass, the tracing overhead against the untraced
pass, and whether each predicted dominant layer held.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
correct is false when a problem raised or missed its error anchor; a
residual above its tolerance with correct values counts in failed only.
The full record, with the environment, is appended to --record
(default out/results.jsonl); compare.py reads those files.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # setup_s runs from here to the first timed problem

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
# Seconds per cycle on a 2-core Xeon (300 MiB L3), numpy 2.4 / OpenBLAS 0.3.31.
NOMINAL_CYCLE_S = {"lattice-periodic": 1.6, "lattice-restricted": 5.4,
                   "spectral-direct": 3.6, "cli-certified": 5.6}
SETUP_SAMPLES = 3        # this process plus two set-up-only children
MAX_LOOP_S = 120.0       # stop planning cycles past this, whatever --seconds says
TAIL_BEYOND = 10
BLAS_THREADS = min(2, os.cpu_count() or 1)
BLAS_ENV = {var: str(BLAS_THREADS)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

PREDICTED = {  # workload -> (layers predicted to dominate, on problems up to this size)
    "lattice-periodic": (("fdm.solve", "fdm.error_report"), None),
    "lattice-restricted": (("fdm.solve.dense_eig",), 4096),  # fdm's eigvalsh cutoff
    "spectral-direct": (("solver.solve_system.lu",), None),
    "cli-certified": (("spectral_system.condition_report",
                       "spectral_system.condition_report.svd"), None),
}
TIME_LAYERS = [
    "fdm.assemble", "fdm.sample", "fdm.solve", "fdm.error_report", "fdm.solve.dense_eig",
    "images.restrict", "images.fold_vector",
    "laplacian.eigenvalues_1d", "laplacian.condition_number", "stencil.make_stencil",
    "spectral_ops.multi_diff", "spectral_system.assemble_system",
    "spectral_system.condition_report", "spectral_system.condition_report.svd",
    "solver.solve_system", "solver.solve_system.lu", "solver.manufactured_problem",
    "solver.analyze_values", "solver.synthesize_nodes",
    "transforms.qct_apply", "transforms.qsft_apply",
]
CALL_LAYERS = ["images.fold_vector", "stencil.make_stencil", "spectral_ops.multi_diff",
               "transforms.qct_apply", "transforms.qsft_apply"]
COUNTS = {"fdm.solve.cg_iterations": "count", "fdm.matrix.nnz": "count",
          "fdm.solve.residual_max": "rel", "spectral_system.L.nnz": "count",
          "solver.solve_system.lu_nnz": "count", "cli.artifact_bytes": "bytes"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_CYCLE_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, default=OUT / "results.jsonl",
                    help="JSON-lines file the full record is appended to")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print {'setup_s': ...} and exit (one setup_s sample)")
    return ap.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cache = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("cache size"):
                cache = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_cache": cache, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": BLAS_THREADS, "seed": seed}


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    s = sorted(samples)
    i = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[i], 100.0 * (i + 1) / len(s), len(s) - i - 1


def planned_cycles(workload: str, seconds: float, trace: bool) -> int:
    """Whole cycles filling --seconds; a traced run times each cycle twice."""
    per_cycle = NOMINAL_CYCLE_S[workload] * (2 if trace else 1)
    return max(1, math.ceil(min(seconds, MAX_LOOP_S) / per_cycle))


def setup_children(args) -> list:
    """Set-up times of fresh processes, run one after another."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def end_to_end(outcomes, setup_samples) -> tuple:
    secs = [o.seconds for _, o in outcomes]
    unknowns = sum(p.unknowns for p, _ in outcomes)
    failed = sum(1 for _, o in outcomes if o.failure)
    t, pct, beyond = tail(secs)
    metrics = {
        "solve_s.p50": (statistics.median(secs), "s"),
        "solve_s.tail": (t, "s"),
        "unknowns_per_s": (unknowns / sum(secs), "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "certified_ratio": ((len(secs) - failed) / len(secs), "ratio"),
    }
    by_class = {}
    for p, o in outcomes:
        by_class.setdefault(p.label, []).append(o.seconds)
    extra = {"failed_ratio": failed / len(secs), "samples": len(secs),
             "class_s": by_class,
             "tail_percentile": round(pct, 2), "tail_samples_beyond": beyond,
             "setup_samples": setup_samples}
    return metrics, extra


def per_layer(workload, tracer, traced, untraced, cycles) -> tuple:
    """Per-layer metrics per cycle of traced executions.

    Times are self seconds per problem; counts are totals per cycle.  The
    overhead compares each cycle's traced pass with its untraced pass.
    """
    from spans import MAX_COUNTS
    per_exec = tracer.summary()
    n = len(per_exec)
    totals, calls, counts = {}, {}, {}
    for rec in per_exec:
        for key, s in rec["self"].items():
            totals[key] = totals.get(key, 0.0) + s
        for key, c in rec["calls"].items():
            calls[key] = calls.get(key, 0) + c
        for key, c in rec["counts"].items():
            counts[key] = max(counts.get(key, c), c) if key in MAX_COUNTS else \
                counts.get(key, 0) + c
    metrics = {f"{layer}.s": (totals.get(layer, 0.0) / n, "s") for layer in TIME_LAYERS}
    metrics["cli.main.self_s"] = (totals.get("cli.main", 0.0) / n, "s")
    for layer in CALL_LAYERS:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0) / cycles, "count")
    for name, unit in COUNTS.items():
        value = counts.get(name, 0)
        metrics[name] = (value if name in MAX_COUNTS else value / cycles, unit)
    overhead = sum(o.seconds for _, o in traced) / sum(o.seconds for _, o in untraced) - 1.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    layers, limit = PREDICTED[workload]
    keep = [e for e, (p, _) in enumerate(traced) if limit is None or p.unknowns <= limit]
    share = {}
    for e in keep:
        for key, s in per_exec[e]["self"].items():
            share[key] = share.get(key, 0.0) + s
    total = sum(share.values())
    predicted = sum(share.get(k, 0.0) for k in layers)
    rival = max((v for k, v in share.items() if k not in layers), default=0.0)
    ranked = sorted(share.items(), key=lambda kv: -kv[1])[:5]
    prediction = {"layers": list(layers),
                  "problems": "all" if limit is None else f"unknowns <= {limit}",
                  "share": predicted / total if total else 0.0,
                  "held": predicted > rival,
                  "top_self_s_per_problem": {k: v / max(1, len(keep)) for k, v in ranked}}
    return metrics, {"prediction": prediction, "traced_executions": n}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "pdekit" / "__init__.py").is_file():
        print("perfbench: no src/pdekit under the working directory; run from the "
              "repository root", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # read when numpy loads BLAS, below
    sys.path.insert(0, str(src))

    import pdekit
    if not Path(pdekit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: pdekit imported from {pdekit.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads
    import spans

    anchors = workloads.load_anchors()
    cycles = [workloads.make_cycle(args.workload, args.seed, c)
              for c in range(planned_cycles(args.workload, args.seconds, bool(args.trace)))]
    workloads.warm_up(cycles[0], anchors)
    setup_main = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main}))
        return 0

    tracer = spans.Tracer() if args.trace else None
    untraced, traced, done = [], [], 0
    loop_start = time.perf_counter()
    for cycle in cycles:
        done += 1
        for p in cycle:
            untraced.append((p, workloads.execute(p, anchors)))
        if tracer is not None:
            tracer.install()
            try:
                for p in cycle:
                    traced.append((p, workloads.execute(p, anchors, tracer)))
            finally:
                tracer.uninstall()
        if time.perf_counter() - loop_start > MAX_LOOP_S:
            break
    loop_s = time.perf_counter() - loop_start

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loop_s": loop_s, "cycles": done,
              "environment": environment(args.seed)}
    if args.trace:
        metrics, extra = per_layer(args.workload, tracer, traced, untraced, done)
        tracer.save(OUT / f"{args.workload}.spans.npz")
    else:
        metrics, extra = end_to_end(untraced, [setup_main] + setup_children(args))
    outcomes = untraced + traced
    residuals = [o.residual for _, o in outcomes if o.residual == o.residual]
    extra["residual_max"] = max(residuals, default=0.0)
    extra["residuals_over_1e-12"] = sum(r > workloads.RESIDUAL_TOL for r in residuals)
    failures = [{"label": p.label, "reason": o.failure} for p, o in outcomes if o.failure]
    wrong = [f for f in failures if not f["reason"].startswith("residual")]
    record.update(extra, metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  attempted=len(outcomes), failed=len(failures), failures=failures[:50])
    args.record.parent.mkdir(parents=True, exist_ok=True)
    with open(args.record, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    summary = {k: record[k] for k in extra if k not in ("setup_samples", "class_s")}
    print(json.dumps({"environment": record["environment"], **summary,
                      "failures": failures[:5]}, default=str))
    print(json.dumps({"correct": not wrong, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
