"""Shared test helpers: fixed-seed generators, a log-log slope fit, a
bit-for-bit CSR comparison, the dense periodic lattice Laplacian that the
closed forms are checked against and a strategy of random assembled
spectral systems."""

from itertools import combinations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import strategies as st

from pdekit.spectral_ops import random_gdd
from pdekit.spectral_system import assemble_system
from pdekit.stencil import make_stencil


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def fit_slope(xs, ys):
    """Least-squares slope of log(ys) against log(xs)."""
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(ys, dtype=float)), 1)[0])


def assert_same_csr(got, want):
    """Two CSR matrices store the same bits: shape, dtypes, indptr, indices and data."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def circulant(k, n):
    """Dense order-2k periodic Laplacian on 2n sites, built tap by tap."""
    s = make_stencil(k)
    column = np.zeros(2 * n)
    for j in range(-k, k + 1):
        column[j % (2 * n)] += s.coefficient(j)
    return scipy.linalg.circulant(column)


@st.composite
def spectral_systems(draw):
    """Random systems of both bases, d = 1..3 and n = 2..12 (8 at d = 3).

    The seed draws all but the basis, so the sizes spread evenly: d, n, a
    diagonal or GDD A with some off-diagonal pairs zeroed, negated or not;
    the closure; boundary (or point) data or none.
    """
    basis = draw(st.sampled_from(["fourier", "chebyshev"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = int(rng.integers(1, 4))
    n = int(rng.integers(2, 13 if d < 3 else 9))
    A = random_gdd(rng, d) if rng.random() < 0.7 else np.diag(rng.uniform(0.5, 2.0, size=d))
    for j1, j2 in combinations(range(d), 2):
        if rng.random() < 0.3:
            A[j1, j2] = A[j2, j1] = 0.0
    A = A if rng.random() < 0.5 else -A
    closure = "axes" if basis == "chebyshev" else rng.choice(["axes", "point", "pin"])
    N = n + 1
    fhat = rng.normal(size=N ** d) + 1j * rng.normal(size=N ** d)
    with_data = rng.random() < 0.5
    if closure != "axes":
        return assemble_system(A, basis, n, fhat, closure=str(closure),
                               point_value=rng.normal() if with_data else 0.0)
    boundary = None
    if with_data:
        boundary = [(rng.normal(size=N ** (d - 1)),
                     rng.normal(size=N ** (d - 1)) if basis == "chebyshev" else None)
                    for _ in range(d)]
    return assemble_system(A, basis, n, fhat, boundary=boundary)


# One line per acceptance criterion, collected by tests/test_acceptance.py
# and echoed after the run summary (outside stdout capture).
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
