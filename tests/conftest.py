"""Shared test helpers: fixed-seed generators, a log-log slope fit and the
dense periodic lattice Laplacian that the closed forms are checked against."""

import numpy as np
import pytest
import scipy.linalg

from pdekit.stencil import make_stencil


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def fit_slope(xs, ys):
    """Least-squares slope of log(ys) against log(xs)."""
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(ys, dtype=float)), 1)[0])


def circulant(k, n):
    """Dense order-2k periodic Laplacian on 2n sites, built tap by tap."""
    s = make_stencil(k)
    column = np.zeros(2 * n)
    for j in range(-k, k + 1):
        column[j % (2 * n)] += s.coefficient(j)
    return scipy.linalg.circulant(column)


# One line per acceptance criterion, collected by tests/test_acceptance.py
# and echoed after the run summary (outside stdout capture).
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
