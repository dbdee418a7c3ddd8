"""Shifted Fourier and half-weighted cosine transforms and their factorizations."""

import numpy as np
import pytest
import scipy.fft

from pdekit.errors import ParameterError
from pdekit.images import restrict
from pdekit.laplacian import eigenvalues_1d
from pdekit.stencil import make_stencil
from pdekit.transforms import (
    alternating_phase,
    centering_phase,
    cyclic_permutation,
    dft_matrix,
    endpoint_weights,
    qct_apply,
    qct_matrix,
    qsft_apply,
    qsft_matrix,
    sector_apply,
    twiddle_phase,
)

# kind -> (fast apply, its inverse, materialized matrix) at size n + 1
FAST_AND_MATRIX = {
    "qsft": (qsft_apply, lambda v: qsft_apply(v, inverse=True), qsft_matrix),
    "qct": (qct_apply, qct_apply, qct_matrix),
    "qft": (lambda v: np.fft.ifft(v, norm="ortho"), lambda v: np.fft.fft(v, norm="ortho"),
            dft_matrix),
    "phase_pre": (lambda v: alternating_phase(v.size - 1) * v,
                  lambda v: alternating_phase(v.size - 1).conj() * v,
                  lambda n: np.diag(alternating_phase(n))),
    "phase_post": (lambda v: centering_phase(v.size - 1) * v,
                   lambda v: centering_phase(v.size - 1).conj() * v,
                   lambda n: np.diag(centering_phase(n))),
    "phase_twiddle": (lambda v: twiddle_phase(v.size - 1) * v,
                      lambda v: twiddle_phase(v.size - 1).conj() * v,
                      lambda n: np.diag(twiddle_phase(n))),
    "cyclic_shift": (lambda v: np.roll(v, 1), lambda v: np.roll(v, -1), cyclic_permutation),
}


@pytest.mark.parametrize("n", [1, 2, 3, 8, 15, 32])
def test_qsft_unitary_and_shifted_entries(n):
    F = qsft_matrix(n)
    N = n + 1
    assert np.allclose(F @ F.conj().T, np.eye(N), atol=1e-13)
    m = n // 2
    l = np.arange(N)[:, None]
    k = np.arange(N)[None, :]
    want = np.exp(2j * np.pi * (k - m) * (l - N / 2.0) / N) / np.sqrt(N)
    assert np.allclose(F, want, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 32])
def test_qct_orthogonal_and_self_inverse(n):
    C = qct_matrix(n)
    assert np.allclose(C @ C.T, np.eye(n + 1), atol=1e-13)
    assert np.allclose(C, C.T, atol=1e-15)
    d = endpoint_weights(n)
    l = np.arange(n + 1)[:, None]
    k = np.arange(n + 1)[None, :]
    want = np.sqrt(2.0 / n) * d[l] * d[k] * np.cos(np.pi * l * k / n)
    assert np.allclose(C, want, atol=1e-13)


def test_endpoint_weights():
    d = endpoint_weights(5)
    assert d[0] == d[-1] == pytest.approx(1.0 / np.sqrt(2.0))
    assert np.array_equal(d[1:-1], np.ones(4))


@pytest.mark.parametrize("n", [1, 2, 5, 12, 31])
def test_shift_factorization(n):
    # shifted transform = centering phases * plain DFT * alternating phases
    got = np.diag(centering_phase(n)) @ dft_matrix(n) @ np.diag(alternating_phase(n))
    assert np.abs(qsft_matrix(n) - got).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 12, 31])
def test_permutation_diagonalization(n):
    # cyclic shift = DFT * twiddle phases * inverse DFT
    F = dft_matrix(n)
    got = F @ np.diag(twiddle_phase(n)) @ F.conj().T
    assert np.abs(cyclic_permutation(n) - got).max() <= 1e-12


def test_cyclic_permutation_action(rng):
    P = cyclic_permutation(6)
    v = rng.normal(size=7)
    assert np.allclose(P @ v, np.roll(v, 1))
    assert np.allclose(np.linalg.matrix_power(P, 7), np.eye(7), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_qsft_apply_matches_matrix(rng, n):
    v = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    F = qsft_matrix(n)
    assert np.allclose(qsft_apply(v), F @ v, atol=1e-13)
    assert np.allclose(qsft_apply(v, inverse=True), F.conj().T @ v, atol=1e-13)
    assert np.allclose(qsft_apply(qsft_apply(v), inverse=True), v, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_qct_apply_matches_matrix_and_library_cosine(rng, n):
    v = rng.normal(size=n + 1)
    C = qct_matrix(n)
    assert np.allclose(qct_apply(v), C @ v, atol=1e-13)
    assert np.allclose(qct_apply(qct_apply(v)), v, atol=1e-13)
    # orthonormal type-1 cosine transform is the same operator
    assert np.allclose(qct_apply(v), scipy.fft.dct(v, type=1, norm="ortho"), atol=1e-13)


def test_qct_needs_two_rows():
    with pytest.raises(ParameterError):
        qct_matrix(0)
    with pytest.raises(ParameterError):
        qct_apply(np.ones(1))


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("n,k", [(3, 1), (9, 2), (16, 3), (24, 5)])
def test_sector_transform_diagonalizes_restricted_operator(bc, n, k):
    T = sector_apply(np.eye(n), bc, axis=0)
    assert np.allclose(T @ T.T, np.eye(n), atol=1e-14)
    D = T @ restrict(make_stencil(k), n, bc) @ T.T
    lam = eigenvalues_1d(make_stencil(k), n)
    assert np.allclose(D, np.diag(lam[1:n + 1] if bc == "dirichlet" else lam[:n]),
                       rtol=0, atol=1e-13 * np.abs(lam).max())


def test_sector_transform_rejections():
    with pytest.raises(ParameterError, match="bc"):
        sector_apply(np.ones(4), "periodic")
    with pytest.raises(ParameterError, match="n >= 1"):
        sector_apply(np.ones((3, 0)), "neumann")


@pytest.mark.parametrize("kind", ["qsft", "qct", "qft", "phase_pre", "phase_post",
                                  "phase_twiddle", "cyclic_shift"])
def test_every_kind_applies_like_its_matrix(rng, kind):
    apply, inverse, matrix = FAST_AND_MATRIX[kind]
    M = matrix(6)
    assert np.allclose(M @ M.conj().T, np.eye(7), atol=1e-13)
    if kind.startswith("phase"):
        assert np.allclose(np.abs(np.diag(M)), 1.0, atol=1e-15)
    v = rng.normal(size=7) + 1j * rng.normal(size=7)
    assert np.allclose(apply(v), M @ v, atol=1e-13)
    assert np.allclose(inverse(v), M.conj().T @ v, atol=1e-13)


def test_axis_apply_matches_kron(rng):
    n = 4
    I = np.eye(n + 1)
    v = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    flat = v.reshape(-1)
    for inverse in (False, True):
        F = qsft_matrix(n).conj().T if inverse else qsft_matrix(n)
        # axis 0 is the leftmost Kronecker factor
        got0 = qsft_apply(v, inverse=inverse, axis=0)
        assert np.allclose(got0.reshape(-1), np.kron(F, I) @ flat, atol=1e-12)
        got1 = qsft_apply(v, inverse=inverse, axis=1)
        assert np.allclose(got1.reshape(-1), np.kron(I, F) @ flat, atol=1e-12)
        both = qsft_apply(got0, inverse=inverse, axis=1)
        assert np.allclose(both.reshape(-1), np.kron(F, F) @ flat, atol=1e-12)
    C = qct_matrix(n)
    w = v.real
    assert np.allclose(qct_apply(w, axis=0).reshape(-1), np.kron(C, I) @ w.reshape(-1),
                       atol=1e-12)
    assert np.allclose(qct_apply(w, axis=-1).reshape(-1), np.kron(I, C) @ w.reshape(-1),
                       atol=1e-12)
