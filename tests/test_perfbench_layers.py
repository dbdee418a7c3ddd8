"""The benchmark's tracer wraps pdekit functions by name and reads fields off their results.

perfbench/spans.py and workloads.py are loaded, not changed.  A renamed or
deleted layer, or a renamed result field, would otherwise crash a traced run
or leave its layer reading zero; a workload that stopped reaching a solver
path would stop measuring it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from pdekit import fdm
from pdekit.solver import solve_manufactured
from pdekit.spectral_system import assemble_system

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """perfbench/<name>.py as a module, registered first so its dataclasses resolve."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return load("spans")


def test_traced_layers_resolve(spans):
    missing = [f"{mod}.{fn}" for mod, fn in spans.LAYERS
               if not callable(getattr(importlib.import_module(f"pdekit.{mod}"), fn, None))]
    assert spans.LAYERS and not missing


def test_work_counts_read_real_results(spans):
    # the fields the tracer reads off each layer's return value, from real returns
    half = np.pi / 16   # half a lattice step: odd about both Dirichlet mirrors
    problem = fdm.FdmProblem(d=2, n=8, k=2, bc="dirichlet", rhs_sampler=lambda *X: np.prod(
        [np.sin(x + half) for x in X], axis=0))
    lattice = fdm.assemble(problem)
    field = fdm.solve(lattice)
    system = assemble_system(np.array([[1.0, 0.2], [0.2, 1.5]]), "chebyshev", 6,
                             np.ones(49))
    periodic = fdm.assemble(fdm.FdmProblem(d=2, n=8, k=2, rhs_sampler=lambda x, y: np.sin(x)))
    for assembled in (lattice, periodic):   # every lattice stores its 1D factor
        assert spans._work_counts("fdm.assemble", assembled, None) == {
            "fdm.matrix.nnz": assembled.matrix.nnz}
    assert periodic.matrix.nnz == 16 * 5
    assert spans._work_counts("fdm.solve", field, None) == {
        "fdm.solve.cg_iterations": field.iterations, "fdm.solve.residual_max": field.residual}
    assert spans._work_counts("spectral_system.assemble_system", system, None) == {
        "spectral_system.L.nnz": system.L.nnz}
    assert lattice.matrix.nnz > 0 and system.L.nnz > 0


def test_spectral_workload_takes_both_inverses():
    # every Fourier class is solved by substitution, every Chebyshev one preconditioned by eig
    workloads = load("workloads")
    for problem in workloads.make_cycle("spectral-direct", 1, 0):
        q = problem.params
        result = solve_manufactured(q["expr"], q["A"], q["basis"], q["n"])["result"]
        want = ("substitution", 0) if q["basis"] == "fourier" else ("eig", result.iterations)
        assert (result.preconditioner, result.iterations) == want, problem.label
