"""Symmetry-sector restrictions of the periodic Laplacian."""

import numpy as np
import pytest

from pdekit.errors import ParameterError, SymmetryViolation
from pdekit.images import fold_vector, restrict, unfold_vector
from pdekit.stencil import make_stencil

from conftest import circulant


def fold_matrix(n, bc):
    """Rows are the orthonormal sector basis vectors on the parent lattice."""
    parent = 2 * n + (2 if bc == "dirichlet_alt" else 0)
    rows = n + 1 if bc == "dirichlet_alt" else n
    F = np.zeros((rows, parent))
    sign = 1.0 if bc == "neumann" else -1.0
    for i in range(n):
        if bc == "dirichlet_alt":
            a, b = i + 1, 2 * n + 1 - i
        else:
            a, b = i, 2 * n - 1 - i
        F[i, a] = 1.0 / np.sqrt(2.0)
        F[i, b] = sign / np.sqrt(2.0)
    return F


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "dirichlet_alt"])
@pytest.mark.parametrize("k,n", [(1, 4), (2, 6), (3, 9)])
def test_restriction_equals_folded_circulant(bc, k, n):
    s = make_stencil(k)
    parent_n = n + 1 if bc == "dirichlet_alt" else n
    L = circulant(k, parent_n)
    F = fold_matrix(n, bc)
    got = restrict(s, n, bc)
    assert np.allclose(got, F @ L @ F.T, atol=1e-14)


def test_low_order_corner_entries():
    d = restrict(make_stencil(1), 5, "dirichlet")
    m = restrict(make_stencil(1), 5, "neumann")
    a = restrict(make_stencil(1), 5, "dirichlet_alt")
    assert d[0, 0] == -3.0 and d[-1, -1] == -3.0
    assert m[0, 0] == -1.0 and m[-1, -1] == -1.0
    # point reflection: interior path Laplacian padded by a zero row/column
    assert a[0, 0] == -2.0
    assert np.array_equal(a[5], np.zeros(6))
    assert np.array_equal(a[:, 5], np.zeros(6))


def test_restriction_symmetric_negative_definite():
    for bc in ("dirichlet", "neumann"):
        M = restrict(make_stencil(2), 8, bc)
        assert np.allclose(M, M.T, atol=1e-15)
        lam = np.linalg.eigvalsh(M)
        if bc == "dirichlet":
            assert lam.max() < 0.0
        else:
            assert lam.max() == pytest.approx(0.0, abs=1e-12)  # constant kernel
            assert np.allclose(M.sum(axis=1), 0.0, atol=1e-13)


def test_parent_sites_and_collision_guard():
    # n sector sites fold 2n parent sites, or 2n + 2 through lattice points
    assert restrict(make_stencil(1), 4, "dirichlet").shape == (4, 4)
    assert restrict(make_stencil(1), 4, "dirichlet_alt").shape == (5, 5)
    assert fold_vector(np.zeros(8), "dirichlet", n=4).shape == (4,)
    assert fold_vector(np.zeros(10), "dirichlet_alt", n=4).shape == (5,)
    with pytest.raises(ParameterError):
        fold_vector(np.zeros(8), "dirichlet_alt", n=4)
    with pytest.raises(ParameterError):
        restrict(make_stencil(3), 6, "dirichlet")  # needs k < n/2
    with pytest.raises(ParameterError):
        restrict(make_stencil(1), 4, "periodic")


def test_fold_round_trip_and_scaling():
    n = 6
    h = np.pi / n
    x = h * np.arange(2 * n)
    odd = np.sin(x + h / 2)
    even = np.cos(x + h / 2)
    wd = fold_vector(odd, "dirichlet")
    wn = fold_vector(even, "neumann")
    assert np.allclose(wd, np.sqrt(2.0) * odd[:n], atol=1e-14)
    assert np.allclose(unfold_vector(wd, "dirichlet"), odd, atol=1e-14)
    assert np.allclose(unfold_vector(wn, "neumann"), even, atol=1e-14)


def test_fold_alt_variant_round_trip(rng):
    n = 5
    w = rng.normal(size=n + 1)
    w[-1] = 0.0  # padding slot carries no freedom
    v = unfold_vector(w, "dirichlet_alt")
    assert v.size == 12 and v[0] == 0.0 and v[n + 1] == 0.0
    assert np.allclose(fold_vector(v, "dirichlet_alt"), w, atol=1e-14)


def test_fold_rejects_wrong_sector(rng):
    v = rng.normal(size=12)
    with pytest.raises(SymmetryViolation):
        fold_vector(v, "dirichlet")
    # a loose tolerance admits the same vector
    fold_vector(v, "dirichlet", rtol=10.0)
    with pytest.raises(ParameterError):
        fold_vector(v[:5], "dirichlet", n=3)


def test_fold_commutes_with_operator():
    # folding the periodic image of a sector vector equals applying the
    # restricted matrix to the folded vector
    s = make_stencil(2)
    n = 8
    h = np.pi / n
    x = h * np.arange(2 * n)
    v = np.sin(3 * (x + h / 2))
    L = circulant(2, n)
    R = restrict(s, n, "dirichlet")
    assert np.allclose(fold_vector(L @ v, "dirichlet"), R @ fold_vector(v, "dirichlet"),
                       atol=1e-12)
