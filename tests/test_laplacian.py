"""The 1D lattice spectrum and the closed forms read off it, against dense operators."""

from contextlib import nullcontext

import numpy as np
import pytest

from pdekit.errors import ParameterError
from pdekit.laplacian import condition_number, eigenvalues_1d, spectral_norm
from pdekit.stencil import make_stencil
from pdekit.tensor import axis_sum, kron_sum

from conftest import circulant


def test_symbol_layout():
    # the k = 2 circulant on 8 sites, first column written out by hand;
    # eigenvalue l is its DFT at frequency l, in DFT order
    symbol = np.zeros(8)
    symbol[0], symbol[1], symbol[-1] = -2.5, 4.0 / 3.0, 4.0 / 3.0
    symbol[2], symbol[-2] = -1.0 / 12.0, -1.0 / 12.0
    assert np.array_equal(circulant(2, 4)[:, 0], symbol)
    assert np.allclose(eigenvalues_1d(make_stencil(2), 4), np.fft.fft(symbol).real,
                       rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("k,n", [(1, 4), (2, 6), (3, 8)])
def test_eigenvalues_match_fft_of_symbol(k, n):
    lam = eigenvalues_1d(make_stencil(k), n)
    oracle = np.fft.fft(circulant(k, n)[:, 0]).real  # symmetric symbol: spectrum is real
    assert np.allclose(np.sort(lam), np.sort(oracle), atol=1e-12)
    assert lam[0] == 0.0
    assert lam[1:].max() < 0.0


def test_dense_matches_explicit_kron_sum():
    # the 2D operator's spectrum is the 2-fold sum of the 1D one
    L1, I = circulant(1, 3), np.eye(6)
    dense = np.kron(L1, I) + np.kron(I, L1)
    closed = np.sort(axis_sum(eigenvalues_1d(make_stencil(1), 3), 2).reshape(-1))
    assert np.allclose(np.linalg.eigvalsh(dense), closed, atol=1e-13)


def test_spectral_norm_and_condition_scaling():
    lam = eigenvalues_1d(make_stencil(1), 8)
    assert spectral_norm(lam, 1) == pytest.approx(4.0)  # -2 + 2 cos(pi) doubled
    nonzero = np.abs(lam[1:])
    for d in (1, 2, 3):
        assert spectral_norm(lam, d) == pytest.approx(d * 4.0)
        assert condition_number(lam, d) == pytest.approx(d * nonzero.max() / nonzero.min())


def test_condition_number_against_dense_svd():
    dense = kron_sum(circulant(2, 4), 2).toarray()
    sv = np.linalg.svd(dense, compute_uv=False)
    nonzero = sv[sv > 1e-10 * sv.max()]
    kappa = condition_number(eigenvalues_1d(make_stencil(2), 4), 2)
    assert kappa == pytest.approx(nonzero.max() / nonzero.min(), rel=1e-10)
    assert sv.min() < 1e-12 * sv.max()  # constant kernel present


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_condition_band_and_norm_bound(d, k):
    c1, c2 = 1.0 / 3.0, 3.0 / 4.0
    for n in (8, 32, 128):
        ctx = pytest.warns(UserWarning) if k ** 3 >= n ** 2 else nullcontext()
        with ctx:
            lam = eigenvalues_1d(make_stencil(k), n)
        assert c1 <= condition_number(lam, d) / (d * n * n) <= c2
        assert spectral_norm(lam, d) / d <= 4.0 * np.pi ** 2 / 3.0


def test_width_and_argument_guards():
    with pytest.raises(ParameterError):
        eigenvalues_1d(make_stencil(8), 8)  # width 17 > 16 sites
    with pytest.raises(ParameterError):
        eigenvalues_1d(make_stencil(1), 0)
    lam = eigenvalues_1d(make_stencil(1), 4)
    with pytest.raises(ParameterError):
        condition_number(lam, 0)
    with pytest.raises(ParameterError):
        spectral_norm(lam, 0)
    with pytest.raises(ParameterError):
        condition_number(np.zeros(4), 1)


def test_large_k_advisory_warning():
    with pytest.warns(UserWarning, match="condition-number bands"):
        eigenvalues_1d(make_stencil(4), 8)
