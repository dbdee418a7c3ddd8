"""The tensor-product layer and every axis path built on it, against dense oracles.

The oracles are explicit np.kron loops and the per-fiber loop fold; axis 0
is the leftmost Kronecker factor throughout.
"""

import math
from functools import reduce

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdekit.errors import SymmetryViolation
from pdekit.fdm import FdmProblem, assemble
from pdekit.images import fold_vector, restrict, unfold_vector
from pdekit.laplacian import eigenvalues_1d
from pdekit.solver import analyze_values, synthesize_nodes
from pdekit.spectral_ops import diff_matrix, multi_diff
from pdekit.stencil import make_stencil
from pdekit.tensor import (SingularToRounding, axis_sum, kron, kron_sum, kron_sum_apply,
                           kron_sum_solver)
from pdekit.transforms import (endpoint_weights, qct_matrix, qsft_apply, qsft_matrix,
                               sector_apply)

from conftest import assert_same_csr, circulant

BOUNDED = settings(derandomize=True, max_examples=40, deadline=None)
BCS = ("dirichlet", "neumann", "dirichlet_alt")


def np_kron(factors):
    return reduce(np.kron, factors)


def np_kron_sum(blocks):
    eye = np.eye(blocks[0].shape[0])
    d = len(blocks)
    return sum(np_kron([b if a == j else eye for a in range(d)]) for j, b in enumerate(blocks))


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
@given(st.sampled_from(["dirichlet", "neumann"]), st.integers(1, 3), st.integers(1, 9),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_sector_transform_matches_scipy_along_every_axis(bc, d, n, seed, data):
    axis = data.draw(st.integers(0, d - 1))
    cube = np.random.default_rng(seed).normal(size=[n] * d)
    dct = scipy.fft.dct if bc == "neumann" else scipy.fft.dst
    T = dct(np.eye(n), type=2, norm="ortho", axis=0)
    want = np_kron([T if a == axis else np.eye(n) for a in range(d)]) @ cube.reshape(-1)
    got = sector_apply(cube, bc, axis=axis)
    assert np.allclose(got.reshape(-1), want, rtol=0, atol=1e-13)
    assert np.allclose(sector_apply(got, bc, inverse=True, axis=axis), cube, rtol=0, atol=1e-13)


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
    assert np.allclose(kron_sum(blocks).toarray(), np_kron_sum(blocks), atol=1e-13)
    values = rng.normal(size=size)
    assert np.allclose(axis_sum(values, d).reshape(-1),
                       np.diag(np_kron_sum([np.diag(values)] * d)), atol=1e-13)


@BOUNDED
@given(st.integers(1, 3), st.integers(1, 5), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_kron_sum_apply_matches_kron_sum(d, size, sparse, seed):
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(size=(size, size)) for _ in range(d)]
    if sparse:
        blocks = [sp.csr_matrix(b) for b in blocks]
    x = rng.normal(size=size ** d)
    assert np.allclose(kron_sum_apply(blocks, x), kron_sum(blocks) @ x, rtol=0, atol=1e-12)


@BOUNDED
@given(st.integers(1, 3), st.integers(1, 6), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_kron_sum_solver_matches_sparse_solve(d, size, complex_block, complex_x, seed):
    # a shifted block and weights of one sign keep every eigenvalue sum away from zero
    rng = np.random.default_rng(seed)
    shape = (size, size)
    block = sp.csr_matrix(rng.normal(size=shape) + 3 * size * np.eye(size)
                          + (1j * rng.normal(size=shape) if complex_block else 0))
    weights = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0, size=d)
    x = rng.normal(size=size ** d) + (1j * rng.normal(size=size ** d) if complex_x else 0)
    want = spla.spsolve(kron_sum([w * block for w in weights]).tocsc(), x)
    solve, adjoint, form, spectrum = kron_sum_solver(block, weights)
    got = solve(x)
    assert form == ("splu" if d == 1 else "eig") and (adjoint is None) == (d == 1)
    assert (spectrum is None) == (d == 1)
    assert np.iscomplexobj(got) == (complex_block or complex_x)
    assert np.allclose(got, want, rtol=0, atol=1e-12 * np.linalg.norm(want))


@BOUNDED
@given(st.integers(2, 3), st.integers(1, 6), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_eigenbasis_inverse_and_its_adjoint_match_sparse_solves(d, size, complex_block,
                                                               complex_x, seed):
    # the "eig" form's two maps: K^-1 solves K and K^-H solves K^H
    rng = np.random.default_rng(seed)
    shape = (size, size)
    block = sp.csr_matrix(rng.normal(size=shape) + 3 * size * np.eye(size)
                          + (1j * rng.normal(size=shape) if complex_block else 0))
    weights = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0, size=d)
    x = rng.normal(size=size ** d) + (1j * rng.normal(size=size ** d) if complex_x else 0)
    K = kron_sum([w * block for w in weights]).tocsc()
    inverse, adjoint, form, spectrum = kron_sum_solver(block, weights)
    assert form == "eig"
    # the spectrum divided by is K's: every eigenvalue of K within reach of one of it, and back
    gap = np.abs(spectrum.reshape(-1, 1) - np.linalg.eigvals(K.toarray()))
    reach = 1e-9 * np.abs(spectrum).max()
    assert gap.min(axis=0).max() <= reach and gap.min(axis=1).max() <= reach
    for got, want in ((inverse(x), spla.spsolve(K, x)),
                      (adjoint(x), spla.spsolve(K.conj().T.tocsc(), x))):
        assert np.iscomplexobj(got) == (complex_block or complex_x)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.linalg.norm(want))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 7), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_closed_form_is_read_off_a_one_row_block(d, size, complex_block, seed):
    # diagonal but for one row, with distinct diagonal entries: no gap lam_k - lam_row is
    # zero. kron_sum_solver keeps no form of its own for such a block (the closed Fourier
    # block is solved by substitution in the solver): one axis takes its sparse LU, more
    # its eigendecomposition, and both match spsolve
    rng = np.random.default_rng(seed)
    row = rng.integers(size)
    lam = rng.permutation(size) + rng.uniform(1.1, 1.9)
    if complex_block:
        lam = lam + 1j * rng.uniform(-0.5, 0.5, size)
    entries = rng.normal(size=size) * (rng.random(size) < 0.8)
    entries[row] = 0
    dense = np.diag(lam)
    dense[row] += entries
    block = sp.csr_matrix(dense)
    weights = rng.uniform(0.5, 2.0, size=d)
    x = rng.normal(size=size ** d)
    want = spla.spsolve(kron_sum([w * block for w in weights]).tocsc(), x)
    solve, _, form, _ = kron_sum_solver(block, weights)
    assert form == ("splu" if d == 1 else "eig")
    assert np.linalg.norm(solve(x) - want) <= 1e-12 * np.linalg.norm(want)


def kron_fold(factors):
    """The sp.kron fold tensor.kron replaced: identities float, from a 1 x 1 identity."""
    size = next(f.shape[0] for f in factors if f is not None)
    eye = sp.identity(size, format="csr")
    return reduce(lambda a, b: sp.kron(a, b, format="csr"),
                  [eye if f is None else f for f in factors], sp.identity(1, format="csr"))


def kron_sum_fold(blocks):
    """The sp.kronsum fold tensor.kron_sum replaced: sp.kronsum(b, S) = S x I + I x b."""
    return reduce(lambda acc, b: sp.kronsum(b, acc, format="csr"), blocks[1:],
                  sp.csr_matrix(blocks[0]))


@st.composite
def square_blocks(draw, d):
    """d blocks of one size: weighted closed blocks, or random sparse ones, real or
    complex, with explicit and signed zeros among their values."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        basis = draw(st.sampled_from(["fourier", "chebyshev"]))
        B = diff_matrix(basis, 2, draw(st.integers(2, 12 if d < 4 else 5)),
                        with_boundary_rows=True)
        return [w * B for w in rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0, size=d)]
    size = int(rng.integers(1, 8))
    blocks = []
    for _ in range(d):
        stored = rng.random((size, size)) < rng.uniform(0.05, 1.0)
        stored[0, -1] = True  # at least one stored entry
        rows, cols = np.nonzero(stored)
        values = [rng.normal(size=rows.size),
                  rng.choice([-1.0, 0.0, -0.0, 1.0, 2.0], size=rows.size)][int(rng.integers(2))]
        if rng.random() < 0.5:
            values = values + 1j * rng.choice([-1.0, 0.0, -0.0, 0.5], size=rows.size)
        blocks.append(sp.csr_matrix((values, (rows, cols)), shape=(size, size)))
    return blocks


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(1, 4).flatmap(square_blocks))
@example([sp.csr_matrix(([complex(-0.0, v)], ([0], [0])), shape=(1, 1))
          for v in (0.0, 0.0, 1.0)])  # the first sum is a -0 the fold drops, not carries
@example([sp.csr_matrix(([complex(-0.0, v)], ([0], [0])), shape=(1, 1))
          for v in (-1.0, 2.0)])  # lifting the first block turns its -0 real part into +0
def test_kron_sum_stores_the_bits_of_the_kronsum_fold(blocks):
    assert_same_csr(kron_sum(blocks), kron_sum_fold(blocks))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(square_blocks), st.data())
def test_kron_stores_the_bits_of_the_kron_fold(blocks, data):
    present = data.draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)))
    present[0] = True
    factors = [b if keep else None for b, keep in zip(blocks, present)]
    assert_same_csr(kron(factors), kron_fold(factors))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_zero_gap_refuses_the_closed_form(d):
    # lam_1 - lam_0 = 0: B is a Jordan block with no eigenbasis.  One axis takes its sparse
    # LU; more would carry x through eig's V, with eps ||V||_1 ||V^-1||_1 about 1 (the sum
    # came out 5.7% wrong at d = 2 and 53% at d = 3), so that form refuses it
    B = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    if d == 1:
        solve, _, form, _ = kron_sum_solver(B, [1.5])
        assert form == "splu"
        assert np.allclose(B @ solve(np.array([1.0, 2.0])) * 1.5, [1.0, 2.0], rtol=0, atol=1e-15)
    else:
        with pytest.raises(np.linalg.LinAlgError, match="ill-conditioned") as err:
            kron_sum_solver(B, np.ones(d))
        assert not isinstance(err.value, SingularToRounding)


@pytest.mark.parametrize("n", [64, 128, 256, 361])
def test_closed_chebyshev_blocks_keep_eig(n):
    # eps ||V||_1 ||V^-1||_1 reads 1.7e-11 at n = 64 and 7.8e-9 at n = 361, the largest
    # d = 2 size under SYSTEM_BUDGET: every closed Chebyshev block stays far below the limit
    B = diff_matrix("chebyshev", 2, n, with_boundary_rows=True)
    solve, _, form, _ = kron_sum_solver(B, [1.0, 1.5])
    assert form == "eig"
    if n == 64:
        x = np.random.default_rng(n).normal(size=(n + 1) ** 2)
        want = spla.spsolve(kron_sum([B, 1.5 * B]).tocsc(), x)
        assert np.linalg.norm(solve(x) - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kron_sum_solver_refuses_a_singular_sum(d):
    # weights 1, -1 (and 0): the eigenvalue sums lam_i - lam_i vanish; 0 B alone;
    # a triangular block and a full one, by sparse LU at one axis and eig above, where
    # require_nonsingular names the spectrum singular to rounding
    weights = [[0.0], [1.0, -1.0], [1.0, -1.0, 0.0]][d - 1]
    for lower in (0.0, 1.0):
        B = sp.csr_matrix(np.array([[2.0, 1.0], [lower, 3.0]]))
        with pytest.raises(np.linalg.LinAlgError) as err:
            kron_sum_solver(B, weights)
        assert isinstance(err.value, SingularToRounding) == (d > 1)


@BOUNDED
@given(st.sampled_from(["fourier", "chebyshev"]), st.integers(2, 3), st.integers(2, 4),
       st.data())
def test_multi_diff_matches_numpy_kron(basis, d, n, data):
    j1, j2 = data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
    pattern = [0] * d
    pattern[j1] = pattern[j2] = 1
    D = diff_matrix(basis, 1, n).toarray()
    want = np_kron([D if p else np.eye(n + 1) for p in pattern])
    assert np.array_equal(multi_diff(pattern, basis, n, d).toarray(), want)


@BOUNDED
@given(st.integers(1, 3), st.integers(3, 4), st.integers(1, 2),
       st.sampled_from(["dirichlet", "neumann"]))
def test_lattice_kron_sums_match_numpy(d, n, k, bc):
    periodic = np.linalg.eigvalsh(np_kron_sum([circulant(k, n)] * d))
    closed = np.sort(axis_sum(eigenvalues_1d(make_stencil(k), n), d).reshape(-1))
    assert np.allclose(periodic, closed, rtol=0.0, atol=1e-12)
    h = math.pi / n
    sector = np.sin if bc == "dirichlet" else np.cos
    system = assemble(FdmProblem(d=d, n=n, k=1, bc=bc, rhs_sampler=lambda *X: np.prod(
        [sector(x + h / 2) for x in X], axis=0)))
    R = restrict(make_stencil(1), n, bc)
    assert np.allclose(kron_sum([system.matrix] * d).toarray(), np_kron_sum([R] * d) / h ** 2,
                       rtol=1e-15, atol=0)
