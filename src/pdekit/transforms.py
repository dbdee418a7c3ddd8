"""Shifted Fourier and weighted cosine transforms with their factorizations.

Conventions (N = n + 1, m = floor(n/2)):

  shifted Fourier (qsft):   v_hat_l = N^{-1/2} sum_k e^{2 pi i (k-m)(l-N/2)/N} v_k
  weighted cosine  (qct):   v_hat_l = sqrt(2/n) sum_k delta_k delta_l cos(k l pi / n) v_k
                            with delta_0 = delta_n = 1/sqrt(2), 1 otherwise

The qsft factors as (post phase) * (plain unitary DFT) * (pre phase), giving
an O(N log N) path through the FFT; the plain DFT here uses the +i kernel,
i.e. the orthonormal inverse FFT of numpy.  The qct is real symmetric
orthogonal (an involution), computed fast through the even extension of
length 2n.  Matrices are materialized only for tests and small systems.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .tensor import along

__all__ = [
    "endpoint_weights",
    "dft_matrix",
    "qsft_matrix",
    "qct_matrix",
    "alternating_phase",
    "centering_phase",
    "twiddle_phase",
    "cyclic_permutation",
    "qsft_apply",
    "qct_apply",
]


def endpoint_weights(n: int) -> np.ndarray:
    """delta vector of length n+1: 1/sqrt(2) at both ends, 1 inside."""
    d = np.ones(n + 1)
    d[0] = d[n] = 1.0 / np.sqrt(2.0)
    return d


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT with +i kernel: F[l,k] = e^{2 pi i k l / N} / sqrt(N)."""
    N = n + 1
    l = np.arange(N)[:, None]
    k = np.arange(N)[None, :]
    return np.exp(2j * np.pi * k * l / N) / np.sqrt(N)


def alternating_phase(n: int) -> np.ndarray:
    """Pre-phase diagonal e^{-i pi k} = (-1)^k, length n+1."""
    return np.exp(-1j * np.pi * np.arange(n + 1))


def centering_phase(n: int) -> np.ndarray:
    """Post-phase diagonal e^{-2 pi i m (l - N/2) / N}, length n+1."""
    N = n + 1
    m = n // 2
    return np.exp(-2j * np.pi * m * (np.arange(N) - N / 2.0) / N)


def twiddle_phase(n: int) -> np.ndarray:
    """Diagonal e^{-2 pi i k / N} that conjugates the DFT into a cyclic shift."""
    N = n + 1
    return np.exp(-2j * np.pi * np.arange(N) / N)


def cyclic_permutation(n: int) -> np.ndarray:
    """Permutation matrix sending basis vector e_k to e_{k+1 mod N}."""
    N = n + 1
    P = np.zeros((N, N))
    P[(np.arange(N) + 1) % N, np.arange(N)] = 1.0
    return P


def qsft_matrix(n: int) -> np.ndarray:
    """Materialized shifted-Fourier matrix (unitary)."""
    N = n + 1
    m = n // 2
    l = np.arange(N)[:, None]
    k = np.arange(N)[None, :]
    return np.exp(2j * np.pi * (k - m) * (l - N / 2.0) / N) / np.sqrt(N)


def qct_matrix(n: int) -> np.ndarray:
    """Materialized weighted cosine matrix (real symmetric orthogonal)."""
    if n < 1:
        raise ParameterError("qct needs n >= 1 (the formula divides by n)")
    d = endpoint_weights(n)
    l = np.arange(n + 1)[:, None]
    k = np.arange(n + 1)[None, :]
    return np.sqrt(2.0 / n) * d[l] * d[k] * np.cos(l * k * np.pi / n)


def qsft_apply(v: np.ndarray, inverse: bool = False, axis: int = -1) -> np.ndarray:
    """Apply the shifted Fourier transform (or its inverse) along one axis.

    Fast path: post * ifft_ortho * pre for the forward map; the inverse is
    the conjugate transpose, conj(pre) * fft_ortho * conj(post).
    """
    v = np.asarray(v, dtype=complex)
    if v.size == 0:
        raise ParameterError("empty vector")
    n = v.shape[axis] - 1
    if n == 0:
        return v.copy()
    pre = along(alternating_phase(n), axis, v.ndim)
    post = along(centering_phase(n), axis, v.ndim)
    if inverse:
        return pre.conj() * np.fft.fft(post.conj() * v, axis=axis, norm="ortho")
    return post * np.fft.ifft(pre * v, axis=axis, norm="ortho")


def qct_apply(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Apply the weighted cosine transform along one axis; it is an involution.

    Fast path: weight the endpoints, extend evenly to length 2n, take one
    FFT, and fold the two boundary terms back in.
    """
    v = np.moveaxis(np.asarray(v), axis, -1)
    n = v.shape[-1] - 1
    if n < 1:
        raise ParameterError("qct needs n >= 1 (the formula divides by n)")
    d = endpoint_weights(n)
    z = d * v.astype(complex)
    ext = np.concatenate([z, z[..., -2:0:-1]], axis=-1)
    Y = np.fft.fft(ext)[..., : n + 1]
    A = 0.5 * (Y + z[..., :1] + ((-1.0) ** np.arange(n + 1)) * z[..., n:])
    res = np.sqrt(2.0 / n) * d * A
    return np.moveaxis(res if np.iscomplexobj(v) else res.real, -1, axis)
