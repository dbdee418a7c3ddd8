"""The benchmark's tracer wraps pdekit functions by name and reads fields off their results.

perfbench/spans.py is loaded, not changed.  A renamed or deleted layer, or a
renamed result field, would otherwise crash a traced run or leave its layer
reading zero.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pdekit import fdm
from pdekit.spectral_system import assemble_system

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert spans._work_counts("fdm.assemble", lattice, None) == {
        "fdm.matrix.nnz": lattice.matrix.nnz}
    assert spans._work_counts("fdm.solve", field, None) == {
        "fdm.solve.cg_iterations": field.iterations, "fdm.solve.residual_max": field.residual}
    assert spans._work_counts("spectral_system.assemble_system", system, None) == {
        "spectral_system.L.nnz": system.L.nnz}
    assert lattice.matrix.nnz > 0 and system.L.nnz > 0
