"""The tensor-product layer and every axis path built on it, against dense oracles.

The oracles are explicit np.kron loops and the per-fiber loop fold; axis 0
is the leftmost Kronecker factor throughout.
"""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdekit.errors import SymmetryViolation
from pdekit.fdm import FdmProblem, assemble
from pdekit.images import fold_vector, restrict, unfold_vector
from pdekit.laplacian import eigenvalues_1d
from pdekit.solver import analyze_values, synthesize_nodes
from pdekit.spectral_ops import diff_matrix, multi_diff
from pdekit.stencil import make_stencil
from pdekit.tensor import axis_sum, kron, kron_sum
from pdekit.transforms import endpoint_weights, qct_matrix, qsft_apply, qsft_matrix

from conftest import circulant

BOUNDED = settings(derandomize=True, max_examples=40, deadline=None)
BCS = ("dirichlet", "neumann", "dirichlet_alt")


def np_kron(factors):
    return reduce(np.kron, factors)


def np_kron_sum(block, d):
    eye = np.eye(block.shape[0])
    return sum(np_kron([block if a == j else eye for a in range(d)]) for j in range(d))


def fold_fiber(v, bc, rtol=1e-10):
    """Reference fold of one fiber, one sector pair at a time."""
    n = (v.size - 2) // 2 if bc == "dirichlet_alt" else v.size // 2
    sign = 1 if bc == "neumann" else -1
    out = np.zeros(n + 1 if bc == "dirichlet_alt" else n)
    bad = 0.0
    for idx in range(n):
        i, m = (idx + 1, 2 * n + 1 - idx) if bc == "dirichlet_alt" else (idx, 2 * n - 1 - idx)
        out[idx] = (v[i] + sign * v[m]) / np.sqrt(2.0)
        bad = max(bad, abs(v[i] - sign * v[m]) / np.sqrt(2.0))
    if bc == "dirichlet_alt":
        bad = max(bad, abs(v[0]), abs(v[n + 1]))
    scale = np.linalg.norm(v)
    if scale > 0 and bad > rtol * scale:
        raise SymmetryViolation("complementary sector component")
    return out


@st.composite
def sector_cubes(draw):
    """(bc, axis, cube, w): cube unfolds w along axis; other axes are free."""
    bc = draw(st.sampled_from(BCS))
    d = draw(st.integers(1, 3))
    axis = draw(st.integers(0, d - 1))
    n = draw(st.integers(1, 5))
    shape = [draw(st.integers(1, 3)) for _ in range(d)]
    shape[axis] = n + 1 if bc == "dirichlet_alt" else n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.normal(size=shape)
    cube = np.apply_along_axis(lambda f: unfold_vector(f, bc), axis, w)
    return bc, axis, cube, w


@BOUNDED
@given(sector_cubes())
def test_axis_fold_matches_fiber_fold_and_round_trips(case):
    bc, axis, cube, w = case
    got = fold_vector(cube, bc, axis=axis)
    assert np.array_equal(got, np.apply_along_axis(lambda f: fold_fiber(f, bc), axis, cube))
    if bc == "dirichlet_alt":
        w = w.copy()
        w[tuple(-1 if a == axis else slice(None) for a in range(w.ndim))] = 0.0
    assert np.allclose(got, w, atol=1e-14)


@BOUNDED
@given(sector_cubes(), st.integers(0, 2 ** 16))
def test_one_asymmetric_fiber_raises(case, pick):
    bc, axis, cube, _ = case
    fibers = np.moveaxis(cube, axis, -1).copy()
    flat = fibers.reshape(-1, fibers.shape[-1])
    # far below rtol * ||cube||, but the whole of its own fiber
    flat[pick % flat.shape[0]] = 0.0
    flat[pick % flat.shape[0], 0] = 1e-13
    bad_cube = np.moveaxis(flat.reshape(fibers.shape), -1, axis)
    with pytest.raises(SymmetryViolation):
        np.apply_along_axis(lambda f: fold_fiber(f, bc), axis, bad_cube)
    with pytest.raises(SymmetryViolation):
        fold_vector(bad_cube, bc, axis=axis)


def analysis_matrix(basis, n):
    if basis == "fourier":
        return qsft_matrix(n).conj().T / math.sqrt(n + 1.0)
    delta = np.diag(endpoint_weights(n))
    return math.sqrt(2.0 / n) * delta @ qct_matrix(n) @ delta


@BOUNDED
@given(st.sampled_from(["fourier", "chebyshev"]), st.integers(1, 3), st.integers(2, 6),
       st.integers(0, 2 ** 32 - 1))
def test_analyze_synthesize_match_kron_and_round_trip(basis, d, n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n + 1) ** d)
    if basis == "fourier":
        v = v + 1j * rng.normal(size=v.size)
    M = np_kron([analysis_matrix(basis, n)] * d)
    coeffs = analyze_values(basis, v, n, d)
    assert np.allclose(coeffs, M @ v, atol=1e-12)
    assert np.allclose(synthesize_nodes(basis, coeffs, n, d), v, atol=1e-12)
    assert np.allclose(synthesize_nodes(basis, v, n, d), np.linalg.solve(M, v), atol=1e-10)


@BOUNDED
@given(st.integers(1, 3), st.integers(0, 6), st.integers(0, 2 ** 32 - 1))
def test_qsft_inverse_round_trips_along_every_axis(d, n, seed):
    rng = np.random.default_rng(seed)
    cube = rng.normal(size=[n + 1] * d) + 1j * rng.normal(size=[n + 1] * d)
    F = qsft_matrix(n)
    for axis in range(d):
        got = qsft_apply(cube, axis=axis)
        want = np_kron([F if a == axis else np.eye(n + 1) for a in range(d)])
        assert np.allclose(got.reshape(-1), want @ cube.reshape(-1), atol=1e-12)
        assert np.allclose(qsft_apply(got, inverse=True, axis=axis), cube, atol=1e-12)


@BOUNDED
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2 ** 32 - 1), st.data())
def test_kron_kron_sum_and_axis_sum_match_numpy(d, size, seed, data):
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(size=(size, size)) for _ in range(d)]
    present = data.draw(st.lists(st.booleans(), min_size=d, max_size=d))
    present[0] = True
    factors = [b if keep else None for b, keep in zip(blocks, present)]
    want = np_kron([b if keep else np.eye(size) for b, keep in zip(blocks, present)])
    assert np.allclose(kron(factors).toarray(), want, atol=1e-13)
    assert np.allclose(kron_sum(blocks[0], d).toarray(), np_kron_sum(blocks[0], d),
                       atol=1e-13)
    values = rng.normal(size=size)
    assert np.allclose(axis_sum(values, d).reshape(-1),
                       np.diag(np_kron_sum(np.diag(values), d)), atol=1e-13)


@BOUNDED
@given(st.sampled_from(["fourier", "chebyshev"]), st.integers(1, 3), st.integers(2, 4),
       st.data())
def test_multi_diff_matches_numpy_kron(basis, d, n, data):
    j1 = data.draw(st.integers(0, d - 1))
    j2 = data.draw(st.integers(0, d - 1))
    pattern = [0] * d
    pattern[j1] += 1
    pattern[j2] += 1
    if 2 in pattern:
        D = diff_matrix(basis, 2, n, with_boundary_rows=True).dense()
    else:
        D = diff_matrix(basis, 1, n).dense()
    want = np_kron([D if p else np.eye(n + 1) for p in pattern])
    assert np.array_equal(multi_diff(pattern, basis, n, d).toarray(), want)


@BOUNDED
@given(st.integers(1, 3), st.integers(3, 4), st.integers(1, 2),
       st.sampled_from(["dirichlet", "neumann"]))
def test_lattice_kron_sums_match_numpy(d, n, k, bc):
    periodic = np.linalg.eigvalsh(np_kron_sum(circulant(k, n), d))
    closed = np.sort(axis_sum(eigenvalues_1d(make_stencil(k), n), d).reshape(-1))
    assert np.allclose(periodic, closed, rtol=0.0, atol=1e-12)
    h = math.pi / n
    sector = np.sin if bc == "dirichlet" else np.cos
    system = assemble(FdmProblem(d=d, n=n, k=1, bc=bc, rhs_sampler=lambda *X: np.prod(
        [sector(x + h / 2) for x in X], axis=0)))
    R = restrict(make_stencil(1), n, bc)
    assert np.allclose(system.matrix.toarray(), np_kron_sum(R, d) / h ** 2, rtol=1e-15, atol=0)
