"""Collocation differentiation matrices and the diagonal-dominance check."""

import tracemalloc

import numpy as np
import numpy.polynomial.chebyshev as cheb
import pytest
import scipy.sparse as sp

import pdekit.spectral_ops as spectral_ops
from pdekit.errors import BudgetExceeded, ParameterError
from pdekit.spectral_ops import boundary_row_indices, diff_matrix, gdd_check, multi_diff


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
def test_fourier_first_derivative_diagonal(n):
    D = diff_matrix("fourier", 1, n).toarray()
    m = n // 2
    want = np.diag(1j * np.pi * (np.arange(n + 1) - m))
    assert np.array_equal(D, want)


@pytest.mark.parametrize("n", [2, 5, 8, 13])
def test_fourier_second_is_square_of_first(n):
    D1 = diff_matrix("fourier", 1, n).toarray()
    D2 = diff_matrix("fourier", 2, n).toarray()
    assert np.allclose(D2, D1 @ D1, atol=1e-12)
    m = n // 2
    assert D2[m, m] == 0.0


def test_fourier_closure_row():
    # the closed row is every mode e^{i pi (k-m) x} evaluated at x = 0; the open one is empty
    for n in range(2, 65):
        m = n // 2
        assert boundary_row_indices("fourier", n) == (m, m)
        Dc = diff_matrix("fourier", 2, n, with_boundary_rows=True).toarray()
        D2 = diff_matrix("fourier", 2, n).toarray()
        assert np.array_equal(Dc[m], np.exp(1j * np.pi * (np.arange(n + 1) - m) * 0.0))
        keep = [r for r in range(n + 1) if r != m]
        assert np.array_equal(Dc[keep], D2[keep])
        assert not D2[m].any()


@pytest.mark.parametrize("n", [2, 3, 6, 11])
def test_chebyshev_derivatives_against_polynomial_module(rng, n):
    D1 = diff_matrix("chebyshev", 1, n).toarray()
    D2 = diff_matrix("chebyshev", 2, n).toarray()
    for _ in range(5):
        c = rng.normal(size=n + 1)
        want1 = np.zeros(n + 1)
        want1[:n] = cheb.chebder(c)
        assert np.allclose(D1 @ c, want1, atol=1e-11)
        want2 = np.zeros(n + 1)
        want2[:max(n - 1, 0)] = cheb.chebder(c, m=2)
        assert np.allclose(D2 @ c, want2, atol=1e-10)


def test_chebyshev_triangle_structure():
    D1 = diff_matrix("chebyshev", 1, 6).toarray()
    assert np.allclose(np.tril(D1), 0.0)
    # parity: entries only where k + r is odd
    for k in range(7):
        for r in range(7):
            if (k + r) % 2 == 0:
                assert D1[k, r] == 0.0
    assert D1[0, 1] == 1.0  # 2r/sigma_0 = 2/2
    assert D1[1, 2] == 4.0


@pytest.mark.parametrize("n", [2, 3, 6, 11, 40])
def test_chebyshev_entries_match_formula_loops(n):
    # entry by entry: 2r/sigma_k where k + r is odd, r(r^2 - k^2)/sigma_k
    # where it is even, above the diagonal only
    want1, want2 = np.zeros((n + 1, n + 1)), np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        sigma = 2.0 if k == 0 else 1.0
        for r in range(k + 1, n + 1):
            if (k + r) % 2:
                want1[k, r] = 2.0 * r / sigma
            else:
                want2[k, r] = r * (r * r - k * k) / sigma
    assert np.array_equal(diff_matrix("chebyshev", 1, n).toarray(), want1)
    assert np.array_equal(diff_matrix("chebyshev", 2, n).toarray(), want2)


def test_chebyshev_blocks_match_the_full_triangle_enumeration(monkeypatch):
    # the pairs of each parity, built by steps, against all (n+1)^2 triangle
    # pairs filtered by parity: the open and closed blocks keep their storage
    # bit for bit
    def full_triangle(n, offset):
        k, r = np.triu_indices(n + 1, offset)
        keep = (k + r) % 2 == offset % 2
        return k[keep], r[keep], np.where(k[keep] == 0, 2.0, 1.0)

    sizes = [*range(2, 65), 1024]
    blocks = [(order, n, closed) for n in sizes for order, closed in
              [(1, False), (2, False), (2, True)]]
    stepped = [diff_matrix("chebyshev", order, n, with_boundary_rows=closed)
               for order, n, closed in blocks]
    monkeypatch.setattr(spectral_ops, "_cheb_pairs", full_triangle)
    for (order, n, closed), got in zip(blocks, stepped):
        want = diff_matrix("chebyshev", order, n, with_boundary_rows=closed)
        for field in ("indptr", "indices", "data"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (order, n, closed, field)


def test_chebyshev_closure_rows():
    # the closed rows are T_k(+1) and T_k(-1); the open ones are empty
    for n in range(2, 65):
        faces = list(boundary_row_indices("chebyshev", n))
        Dc = diff_matrix("chebyshev", 2, n, with_boundary_rows=True).toarray()
        open_rows = diff_matrix("chebyshev", 2, n).toarray()
        assert np.array_equal(Dc[faces], cheb.chebvander([1.0, -1.0], n))
        assert np.array_equal(Dc[: n - 1], open_rows[: n - 1])
        assert not open_rows[faces].any()


def test_boundary_row_indices():
    assert boundary_row_indices("chebyshev", 7) == (7, 6)
    assert boundary_row_indices("fourier", 7) == (3, 3)
    with pytest.raises(ParameterError):
        boundary_row_indices("legendre", 4)


def test_diff_matrix_guards():
    with pytest.raises(ParameterError):
        diff_matrix("fourier", 3, 4)
    with pytest.raises(ParameterError):
        diff_matrix("chebyshev", 2, 1)
    with pytest.raises(ParameterError):
        diff_matrix("fourier", 1, 4, with_boundary_rows=True)
    with pytest.raises(ParameterError):
        diff_matrix("hermite", 2, 4)


@pytest.mark.parametrize("basis", ["fourier", "chebyshev"])
def test_multi_diff_mixed_term_has_no_closures(basis):
    n = 3
    D1 = diff_matrix(basis, 1, n).toarray()
    got = multi_diff((1, 1), basis, n, 2).toarray()
    assert np.allclose(got, np.kron(D1, D1), atol=0)


def test_multi_diff_third_axis_identity():
    n = 2
    D1 = diff_matrix("fourier", 1, n).toarray()
    I = np.eye(n + 1)
    got = multi_diff((1, 0, 1), "fourier", n, 3).toarray()
    assert np.allclose(got, np.kron(D1, np.kron(I, D1)), atol=0)


def test_multi_diff_guards():
    with pytest.raises(ParameterError):
        multi_diff((1,), "fourier", 4, 2)
    with pytest.raises(ParameterError):
        multi_diff((3, -1), "fourier", 4, 2)
    with pytest.raises(ParameterError):
        multi_diff((2, 0), "fourier", 4, 2)  # a pure term is assembly's closed block
    with pytest.raises(ParameterError):
        multi_diff((1, 1, 0), "fourier", 4, 2)
    with pytest.raises(BudgetExceeded):
        multi_diff((1, 0, 1), "chebyshev", 255, 3)


@pytest.mark.parametrize("basis, n, d", [("fourier", 12, 3), ("chebyshev", 9, 3),
                                         ("chebyshev", 30, 2)])
def test_multi_diff_nnz_is_predicted(basis, n, d, monkeypatch):
    want = diff_matrix(basis, 1, n).nnz ** 2 * (n + 1) ** (d - 2)
    assert multi_diff((1, 1) + (0,) * (d - 2), basis, n, d).nnz == want
    monkeypatch.setattr(spectral_ops, "NNZ_BUDGET", want - 1)
    with pytest.raises(BudgetExceeded, match=f"{want} nonzeros"):
        multi_diff((1, 1) + (0,) * (d - 2), basis, n, d)


def test_chebyshev_block_over_nnz_budget_is_refused_before_it_is_built(monkeypatch):
    # about n^2/4 = 2.0e7 entries at n = 9000: counted, not allocated
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="NNZ_BUDGET"):
            diff_matrix("chebyshev", 2, 9000, with_boundary_rows=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the budget bounds the open block's entries exactly
    want = diff_matrix("chebyshev", 2, 40).nnz
    monkeypatch.setattr(spectral_ops, "NNZ_BUDGET", want)
    assert diff_matrix("chebyshev", 2, 40).nnz == want
    monkeypatch.setattr(spectral_ops, "NNZ_BUDGET", want - 1)
    with pytest.raises(BudgetExceeded, match=f"{want} entries"):
        diff_matrix("chebyshev", 2, 40)


def test_multi_diff_returns_csr():
    out = multi_diff((1, 1), "chebyshev", 4, 2)
    assert sp.issparse(out) and out.format == "csr"


def test_gdd_margin_and_norms():
    A = np.array([[4.0, 0.5], [0.25, 3.0]])
    rep = gdd_check(A)
    assert rep["C"] == pytest.approx(1.0 - (0.5 / 4.0 + 0.25 / 3.0))
    assert rep["norm_sigma"] == pytest.approx(7.75)
    assert rep["norm_star"] == pytest.approx(7.0)
    assert rep["accepted"] is True


def test_gdd_rejections():
    assert gdd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))["accepted"] is False
    assert gdd_check(np.eye(3))["accepted"] is True
    with pytest.raises(ParameterError):
        gdd_check(np.array([[0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ParameterError):
        gdd_check(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ParameterError):
        gdd_check(np.ones((2, 3)))
