"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

Generation is deterministic per seed, every correctness check fires on a
corrupted solution and counts in failed_ratio, and per-layer counts repeat
exactly across runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from pdekit import cli, fdm, solver  # noqa: E402

ANCHORS = workloads.load_anchors()


def fingerprint(p: workloads.Problem):
    """Everything pdekit would receive from this problem, as plain data."""
    q = p.params
    if p.kind in ("periodic", "restricted"):
        X = fdm.periodic_grid(q["n"], q["d"])
        return [q["source"].rhs(*X).tolist(), q["source"].exact(*X).tolist()]
    if p.kind == "spectral":
        grid = [np.linspace(-1, 1, 5)] * q["d"]
        return [q["A"].tolist(), q["expr"].value(grid).tolist()]
    return Path(q["spec"]).read_text()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(workload, tmp_path):
    a = workloads.make_cycle(workload, 7, 1, tmp_path / "a")
    b = workloads.make_cycle(workload, 7, 1, tmp_path / "b")
    c = workloads.make_cycle(workload, 8, 1, tmp_path / "c")
    assert [fingerprint(p) for p in a] == [fingerprint(p) for p in b]
    assert [p.label for p in a] == [p.label for p in c]
    changed = [fingerprint(x) != fingerprint(y) for x, y in zip(a, c)]
    # the fdm spec of cli-certified takes no seeded input; every other class does
    assert sum(changed) >= len(a) - 1


def test_lattice_sources_are_multi_mode_and_in_sector():
    for p in workloads.make_cycle("lattice-restricted", 3, 0):
        q = p.params
        assert all(len(set(m)) == workloads.MODES_PER_AXIS for _, _, m, _, _ in q["source"].modes)
        f = q["source"].rhs(*fdm.periodic_grid(q["n"], q["d"]))
        system = fdm.assemble(fdm.FdmProblem(d=q["d"], n=q["n"], k=q["k"],
                                             rhs_sampler=lambda *X, f=f: f, bc=q["bc"]))
        assert system.rhs.size == p.unknowns


def test_restricted_sources_span_many_eigenmodes():
    """CG needs far more steps than a sum of MODES_PER_AXIS modes per axis allows."""
    p = next(p for p in workloads.make_cycle("lattice-restricted", 3, 0)
             if p.label == "dirichlet-d3-n24-k5")
    q = p.params
    system = fdm.assemble(fdm.FdmProblem(d=3, n=q["n"], k=q["k"], rhs_sampler=q["source"].rhs,
                                         bc=q["bc"]))
    assert fdm.solve(system).iterations > 3 * workloads.MODES_PER_AXIS ** 3


def test_grid_sampler_matches_pointwise():
    src = workloads.make_cycle("lattice-periodic", 2, 0)[0].params["source"]
    X = fdm.periodic_grid(8, 3)
    flat = [x.reshape(-1) for x in X]
    np.testing.assert_allclose(src.rhs(*X).reshape(-1), src.rhs(*flat), rtol=0, atol=1e-12)
    np.testing.assert_allclose(src.exact(*X).reshape(-1), src.exact(*flat), rtol=0, atol=1e-13)


def _smallest(workload, path, workdir=None):
    cycle = workloads.make_cycle(workload, 1, 0, workdir)
    return min((p for p in cycle if p.path == path), key=lambda p: p.unknowns)


def _corrupt_solve(monkeypatch, **change):
    original = fdm.solve

    def corrupted(system, method="auto"):
        out = original(system, method)
        if "scale" in change:
            out = dataclasses.replace(out, values=out.values * change["scale"])
        if "residual" in change:
            out = dataclasses.replace(out, residual=change["residual"])
        return out
    monkeypatch.setattr(fdm, "solve", corrupted)


def test_clean_problems_pass():
    for workload, path in (("lattice-periodic", "eigen"), ("lattice-restricted", "dirichlet"),
                           ("spectral-direct", "fourier")):
        out = workloads.execute(_smallest(workload, path), ANCHORS)
        assert out.failure is None, out.failure
        assert out.seconds > 0


@pytest.mark.parametrize("workload,path", [("lattice-periodic", "eigen"),
                                           ("lattice-restricted", "neumann")])
def test_error_check_fires_on_corrupted_values(monkeypatch, workload, path):
    _corrupt_solve(monkeypatch, scale=1.001)
    out = workloads.execute(_smallest(workload, path), ANCHORS)
    assert out.failure.startswith("error")


def test_residual_check_fires_on_cg_overshoot(monkeypatch):
    _corrupt_solve(monkeypatch, residual=1.066e-12)
    out = workloads.execute(_smallest("lattice-restricted", "dirichlet"), ANCHORS)
    assert out.failure.startswith("residual")


def test_spectral_checks_fire(monkeypatch):
    p = _smallest("spectral-direct", "fourier")
    original = solver.error_metrics
    monkeypatch.setattr(solver, "error_metrics",
                        lambda exact, approx: original(exact, np.asarray(approx) * 1.001))
    assert workloads.execute(p, ANCHORS).failure.startswith("error")
    monkeypatch.setattr(solver, "solve_system",
                        lambda system: (_ for _ in ()).throw(RuntimeError("boom")))
    assert workloads.execute(p, ANCHORS).failure.startswith("raised")


def test_cli_checks_fire(monkeypatch, tmp_path):
    p = _smallest("cli-certified", "chebyshev", tmp_path)
    assert workloads.execute(p, ANCHORS).failure is None
    monkeypatch.setattr(cli, "condition_report", lambda system: {"kappa": math.inf})
    assert "kappa" in workloads.execute(p, ANCHORS).failure
    monkeypatch.setattr(cli, "main", lambda argv: 1)
    assert workloads.execute(p, ANCHORS).failure.startswith("raised")


def test_failures_count_in_failed_ratio(monkeypatch):
    small = [p for p in workloads.make_cycle("lattice-periodic", 1, 0) if p.params["d"] == 2]
    clean = [(p, workloads.execute(p, ANCHORS)) for p in small]
    _corrupt_solve(monkeypatch, scale=1.01)
    bad = [(p, workloads.execute(p, ANCHORS)) for p in small[:1]]
    metrics, extra = run.end_to_end(clean + bad, [1.0])
    assert extra["failed_ratio"] == pytest.approx(1 / (len(small) + 1))
    assert metrics["certified_ratio"][0] == pytest.approx(len(small) / (len(small) + 1))


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail(list(range(40)))
    assert (value, beyond) == (29, 10)
    assert pct == pytest.approx(75.0)


def test_compare_verdicts():
    parent = {s: 1.0 + 0.01 * (s % 3) for s in range(10)}
    assert compare.verdict(parent, {s: v * 0.5 for s, v in parent.items()}, "lower", 0.1) \
        == "improved"
    assert compare.verdict(parent, {s: v * 1.5 for s, v in parent.items()}, "lower", 0.1) \
        == "worse"
    assert compare.verdict(parent, dict(parent), "lower", 0.1) == "unchanged"
    noisy = {s: 1.0 + 0.5 * (s % 2) for s in range(10)}
    assert compare.verdict(noisy, dict(parent), "lower", 0.1) == "unresolved"


def _traced_counts(workload, tmp_path, name):
    record = tmp_path / f"{name}.jsonl"
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", "4", "--seconds", "1", "--trace", "1", "--record", str(record)],
                   cwd=REPO, check=True, capture_output=True, timeout=300)
    metrics = json.loads(record.read_text())["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes", "rel")}


@pytest.mark.parametrize("workload", ["lattice-restricted", "spectral-direct"])
def test_per_layer_counts_repeat_across_runs(workload, tmp_path):
    first = _traced_counts(workload, tmp_path, "a")
    assert first == _traced_counts(workload, tmp_path, "b")
    busy = {"lattice-restricted": ("fdm.solve.cg_iterations", "fdm.matrix.nnz",
                                   "images.fold_vector.calls"),
            "spectral-direct": ("solver.solve_system.lu_nnz", "spectral_system.L.nnz",
                                "transforms.qct_apply.calls", "spectral_ops.multi_diff.calls")}
    assert all(first[k] > 0 for k in busy[workload])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-certified",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
