"""Finite-difference Poisson layer: parameter selection, assembly, solves.

Convergence anchors were measured with this package and frozen; structural
identities (matvec against the dense operator, folded sources, eigenvalue
envelopes) are checked against independently built matrices.
"""

import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdekit import fdm
from pdekit.errors import (
    CompatibilityError,
    ConvergenceFailure,
    ParameterError,
    SymmetryViolation,
)
from pdekit.fdm import (
    FdmProblem,
    assemble,
    convergence_rows,
    error_report,
    periodic_grid,
    select_parameters,
    solve,
)
from pdekit.images import fold_vector, restrict
from pdekit.laplacian import condition_number, eigenvalues_1d
from pdekit.stencil import make_stencil
from pdekit.tensor import axis_sum, kron_sum

from conftest import circulant, fit_slope


def u_exp_sin(x):
    return np.exp(np.sin(x))


def f_exp_sin(x):
    return np.exp(np.sin(x)) * (np.cos(x) ** 2 - np.sin(x))


def u_sin2(x, y):
    return np.sin(x) * np.sin(y)


def f_sin2(x, y):
    return -2.0 * np.sin(x) * np.sin(y)


def log_accuracy_bound(d, n, k, deriv_bound):
    # 2^{d/2} n^{d/2 - 2k + 1} M (e/2)^{2k}, in log space
    return (0.5 * d * math.log(2.0) + (0.5 * d - 2 * k + 1) * math.log(n)
            + math.log(deriv_bound) + 2 * k * (1.0 - math.log(2.0)))


class TestSelectParameters:
    def test_frozen_triples(self):
        assert select_parameters(1, 1e-8, 1.0) == (30, 6)
        assert select_parameters(2, 1e-6, 1.0) == (10, 7)
        assert select_parameters(3, 1e-4, 1.0) == (5, 7)

    @pytest.mark.parametrize("d,eps,M", [(1, 1e-8, 1.0), (2, 1e-6, 1.0),
                                         (3, 1e-4, 1.0), (2, 1e-10, 50.0)])
    def test_returned_pair_clears_target(self, d, eps, M):
        n, k = select_parameters(d, eps, M)
        assert k == math.ceil(d * math.sqrt(n))
        assert log_accuracy_bound(d, n, k, M) <= math.log(eps)

    def test_n_nondecreasing_as_eps_tightens(self):
        ns = [select_parameters(2, 10.0 ** -p, 1.0)[0] for p in range(2, 12)]
        assert all(a <= b for a, b in zip(ns, ns[1:]))

    def test_rejections(self):
        with pytest.raises(ParameterError):
            select_parameters(1, 1.0, 1.0)
        with pytest.raises(ParameterError):
            select_parameters(1, -1e-3, 1.0)
        with pytest.raises(ParameterError):
            select_parameters(1, 1e-6, 0.5)
        with pytest.raises(ParameterError):
            select_parameters(1, 1e-6, 1.0, b=0.7)
        with pytest.raises(ParameterError):
            select_parameters(1, 1e-6, 1.0, b=0.0)
        with pytest.raises(ParameterError):
            select_parameters(0, 1e-6, 1.0)

    @pytest.mark.parametrize("eps, M", [(1e-6, math.nan), (1e-6, math.inf), (math.nan, 1.0)])
    def test_rejects_non_finite_inputs(self, eps, M):
        # a NaN bound used to pass every comparison and an infinite one stepped n to 2^26
        with pytest.raises(ParameterError):
            select_parameters(2, eps, M)

    # The advertised scaling is n ~ (log(1/eps))^p with p in [1.4, 1.8].
    # Measured over eps = 1e-2 .. 1e-12 the fitted exponent is 1.13: the
    # selector needs far smaller lattices than the window claims because
    # k grows with n and the bound gains (e/2)^{2k}.  Strict xfail so a
    # behavior change resurfaces the discrepancy.
    @pytest.mark.xfail(strict=True, reason="measured growth exponent 1.13 "
                       "lies below the advertised window [1.4, 1.8]")
    def test_growth_exponent_advertised_window(self):
        p = self._growth_exponent()
        assert 1.4 <= p <= 1.8

    def test_growth_exponent_honest_window(self):
        p = self._growth_exponent()
        assert abs(p - 1.126) < 0.01
        assert 1.0 <= p <= 2.0

    @staticmethod
    def _growth_exponent():
        eps_list = [10.0 ** -q for q in range(2, 13)]
        ns = [select_parameters(1, e, 1.0)[0] for e in eps_list]
        assert ns == [7, 10, 13, 17, 21, 26, 30, 35, 40, 45, 50]
        x = [math.log(math.log(1.0 / e)) for e in eps_list]
        return fit_slope(np.exp(x), ns)


class TestGridAndAssembly:
    def test_periodic_grid_values(self):
        (x,) = periodic_grid(4, 1)
        assert np.allclose(x, math.pi * np.arange(8) / 4)
        X, Y = periodic_grid(3, 2)
        assert X.shape == Y.shape == (6, 6)
        assert np.allclose(X[:, 0], X[:, 5])
        assert np.allclose(Y[0, :], Y[5, :])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_periodic_grid_is_read_only_meshgrid(self, d):
        x = math.pi * np.arange(10) / 5
        grids = periodic_grid(5, d)
        assert len(grids) == d
        for got, want in zip(grids, np.meshgrid(*[x] * d, indexing="ij")):
            assert got.shape == want.shape and np.array_equal(got, want)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[(0,) * d] = 1.0

    def test_periodic_matvec_matches_dense_1d(self, rng):
        n, k = 8, 2
        p = FdmProblem(d=1, n=n, k=k, rhs_sampler=lambda x: np.sin(x))
        system = assemble(p)
        assert np.allclose(system.eig_axis, eigenvalues_1d(make_stencil(k), n))
        dense = circulant(k, n) / p.h ** 2
        v = rng.standard_normal(2 * n)
        assert np.allclose(system.matvec(v), dense @ v, atol=1e-10)

    def test_periodic_matvec_matches_dense_2d(self, rng):
        n, k = 4, 1
        p = FdmProblem(d=2, n=n, k=k, rhs_sampler=f_sin2)
        system = assemble(p)
        dense = kron_sum([circulant(k, n)] * 2).toarray() / p.h ** 2
        v = rng.standard_normal((2 * n) ** 2)
        assert np.allclose(system.matvec(v), dense @ v, atol=1e-10)

    def test_periodic_rejects_mean_component(self):
        p = FdmProblem(d=1, n=8, k=1, rhs_sampler=lambda x: np.cos(x) + 0.5)
        with pytest.raises(CompatibilityError, match="kernel component"):
            assemble(p)

    @pytest.mark.filterwarnings("ignore:k=.*condition-number bands:UserWarning")
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))))
    @example((2, 1))
    @example((9, 8))   # 2k+1 = 2n-1: the wrapped bands meet
    def test_periodic_factor_is_the_dense_circulant(self, nk):
        n, k = nk
        system = assemble(FdmProblem(d=1, n=n, k=k, rhs_sampler=np.sin))
        factor = system.matrix
        assert factor.format == "csr" and factor.has_canonical_format
        assert factor.nnz == 2 * n * (2 * k + 1)
        assert np.array_equal(factor.toarray(), circulant(k, n) / system.problem.h ** 2)

    def test_sampler_shape_checked(self):
        p = FdmProblem(d=1, n=8, k=1, rhs_sampler=lambda x: 1.0)
        with pytest.raises(ParameterError, match="sampler returned shape"):
            assemble(p)

    @pytest.mark.parametrize("bc, bad", [("periodic", np.nan), ("periodic", np.inf),
                                         ("dirichlet", np.nan), ("neumann", np.inf)])
    def test_non_finite_source_rejected(self, bc, bad):
        h = math.pi / 8

        def f(x):
            out = np.sin(x + h / 2)
            out[3] = bad
            return out
        with pytest.raises(ParameterError, match="non-finite"):
            assemble(FdmProblem(d=1, n=8, k=1, rhs_sampler=f, bc=bc))

    @pytest.mark.parametrize("bc, trig", [("neumann", np.cos), ("dirichlet", np.sin)])
    def test_overflowing_fold_rejected(self, bc, trig):
        # every sample is finite, but the fold's sums of mirror pairs overflow
        h = math.pi / 4
        p = FdmProblem(d=1, n=4, k=1, bc=bc, rhs_sampler=lambda x: 1.5e308 * trig(x + h / 2))
        with np.errstate(over="ignore"), pytest.raises(ParameterError, match="non-finite"):
            assemble(p)

    def test_dirichlet_matrix_is_restricted_kron_sum(self):
        n, k = 6, 1
        h = math.pi / n
        f = lambda x, y: np.sin(x + h / 2) * np.sin(y + h / 2)
        p = FdmProblem(d=2, n=n, k=k, rhs_sampler=f, bc="dirichlet")
        system = assemble(p)
        R = restrict(make_stencil(k), n, "dirichlet")
        eye = np.eye(R.shape[0])
        expected = (np.kron(R, eye) + np.kron(eye, R)) / h ** 2
        assert np.allclose(system.matrix.toarray(), R / h ** 2, atol=1e-12)
        assert np.allclose(kron_sum([system.matrix] * 2).toarray(), expected, atol=1e-12)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("d,n,k", [(1, 32, 5), (2, 12, 3), (3, 8, 2)])
    def test_sector_spectrum_matches_dense_eigvalsh(self, bc, d, n, k):
        h = math.pi / n
        fn = np.sin if bc == "dirichlet" else np.cos
        f = lambda *X: np.prod([fn(x + h / 2) for x in X], axis=0)
        system = assemble(FdmProblem(d=d, n=n, k=k, rhs_sampler=f, bc=bc))
        closed = np.sort(axis_sum(system.eig_axis, d).reshape(-1)) / h ** 2
        dense = np.linalg.eigvalsh(kron_sum([system.matrix] * d).toarray())
        assert np.allclose(closed, dense, rtol=0.0, atol=1e-12 * np.abs(dense).max())
        # the closed-form kappa; Dirichlet sectors have no kernel, Neumann
        # ones the constant
        mag = np.abs(dense)
        nonzero = mag[mag > 1e-10 * mag.max()]
        assert mag.size - nonzero.size == (bc == "neumann")
        assert condition_number(system.eig_axis, d) == pytest.approx(
            nonzero.max() / nonzero.min(), rel=1e-10)

    def test_restricted_rhs_is_folded_sample(self):
        n, k = 6, 1
        h = math.pi / n
        f = lambda x: np.sin(x + h / 2)
        p = FdmProblem(d=1, n=n, k=k, rhs_sampler=f, bc="dirichlet")
        system = assemble(p)
        expected = fold_vector(f(math.pi * np.arange(2 * n) / n), "dirichlet")
        assert np.allclose(system.rhs, expected, atol=1e-12)

    def test_dirichlet_rejects_wrong_parity(self):
        # An even function has no odd-sector content to fold into.
        p = FdmProblem(d=1, n=8, k=1,
                       rhs_sampler=lambda x: np.cos(x + math.pi / 16),
                       bc="dirichlet")
        with pytest.raises(SymmetryViolation):
            assemble(p)

    def test_neumann_rejects_kernel_component(self):
        h = math.pi / 8
        p = FdmProblem(d=1, n=8, k=1,
                       rhs_sampler=lambda x: np.cos(x + h / 2) + 0.3,
                       bc="neumann")
        with pytest.raises(CompatibilityError, match="kernel component"):
            assemble(p)

    def test_problem_rejections(self):
        with pytest.raises(ParameterError):
            FdmProblem(d=0, n=8, k=1, rhs_sampler=np.sin)
        with pytest.raises(ParameterError):
            FdmProblem(d=1, n=8, k=1, rhs_sampler=np.sin, bc="mixed")


class TestSolvePaths:
    def test_eigen_and_cg_agree_on_two_mode_source(self):
        u = lambda x, y: np.sin(x) * np.sin(y) + 0.3 * np.sin(3 * x) * np.cos(2 * y)
        f = lambda x, y: -2.0 * np.sin(x) * np.sin(y) - 3.9 * np.sin(3 * x) * np.cos(2 * y)
        p = FdmProblem(d=2, n=16, k=2, rhs_sampler=f, exact_solution=u)
        system = assemble(p)
        a = solve(system, method="eigen")
        b = solve(system, method="cg")
        assert a.method == "eigen" and b.method == "cg"
        assert b.iterations > 1
        assert a.residual <= 1e-10 and b.residual <= 1e-10
        gap = np.linalg.norm(a.values - b.values) / np.linalg.norm(a.values)
        assert gap <= 1e-8
        assert abs(a.values.mean()) <= 1e-12 and abs(b.values.mean()) <= 1e-12

    def test_eigen_solves_restricted_and_jacobi_rejected(self):
        h = math.pi / 8
        p = FdmProblem(d=1, n=8, k=1, rhs_sampler=lambda x: np.sin(x + h / 2),
                       bc="dirichlet")
        field = solve(assemble(p), method="eigen")
        assert field.method == "eigen" and field.residual <= fdm.CG_TOL
        with pytest.raises(ParameterError, match="method"):
            solve(assemble(p), method="jacobi")

    @pytest.mark.parametrize("bc,shift", [("dirichlet", 0), ("neumann", 0)])
    def test_restricted_end_to_end_anchor(self, bc, shift):
        # u(x) = sin(x + h/2) (odd sector) and cos(x + h/2) (even sector)
        # solve -u'' = -u on the fold; both give the same frozen error.
        n, k = 16, 2
        h = math.pi / n
        trig = np.sin if bc == "dirichlet" else np.cos
        p = FdmProblem(d=1, n=n, k=k, rhs_sampler=lambda x: -trig(x + h / 2), bc=bc)
        exact = fold_vector(trig(math.pi * np.arange(2 * n) / n + h / 2), bc)
        if bc == "neumann":
            exact = exact - exact.mean()
        cg = solve(assemble(p), method="cg")
        for field in (cg, solve(assemble(p))):
            rep = error_report(field, exact=exact)
            assert rep["l2_rel"] == pytest.approx(1.6458e-5, rel=0.05)
            assert rep["linf"] == pytest.approx(2.3164e-5, rel=0.05)
            assert field.residual <= fdm.CG_TOL
        # the folded trig sample is an eigenvector of the restricted
        # operator, so conjugate gradient lands in one step
        assert cg.iterations == 1

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_zero_source_solves_to_zero(self, bc):
        p = FdmProblem(d=2, n=8, k=2, rhs_sampler=lambda x, y: 0.0 * x * y, bc=bc)
        field = solve(assemble(p))
        assert field.iterations == 0 and field.residual == 0.0
        assert not field.values.any()

    def test_unattainable_tolerance_stops_when_restarts_stall(self, monkeypatch):
        # below the rounding floor only the recurred residual keeps falling:
        # CG must raise with the true one within hundreds of iterations, not
        # run to its cap of thousands
        h = math.pi / 16
        g = lambda x: sum(np.sin(m * (x + h / 2)) / m for m in (1, 3, 7))
        p = FdmProblem(d=2, n=16, k=3, rhs_sampler=lambda x, y: g(x) * g(y),
                       bc="dirichlet")
        monkeypatch.setattr(fdm, "CG_TOL", 1e-20)
        stall = r"after \d{1,3} iterations \(cap \d{4,}\)"
        with pytest.raises(ConvergenceFailure, match=stall) as err:
            solve(assemble(p), method="cg")
        assert 1e-20 < err.value.residual < 1e-12

    def test_cg_solves_a_source_whose_norm_squared_overflows(self):
        # each correction scales its residual by its largest entry, so no
        # inner product overflows
        f = lambda x, y: -2e200 * np.sin(x) * np.sin(y)
        system = assemble(FdmProblem(d=2, n=8, k=2, rhs_sampler=f))
        cg, eigen = solve(system, method="cg"), solve(system)
        assert cg.residual <= fdm.CG_TOL
        gap = 10 * condition_number(system.eig_axis, 2) * fdm.CG_TOL * fdm._norm(eigen.values)
        assert fdm._norm(cg.values - eigen.values) <= gap

    def test_cg_raises_on_a_non_finite_residual(self):
        # ||b|| overflows, so no relative residual can be certified
        system = with_random_rhs("dirichlet", 1, 4, 1, 0)
        huge = dataclasses.replace(system, rhs=np.array([1e308, -1e308, 1e308, -1e308]))
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(ConvergenceFailure, match="conjugate gradient stopped") as err):
            solve(huge, method="cg")
        assert not math.isfinite(err.value.residual)

    def test_periodic_eigen_raises_on_a_non_finite_residual(self):
        # the samples and their norm are finite; the FFT's sums overflow
        system = assemble(FdmProblem(d=1, n=4, k=1, rhs_sampler=lambda x: 1e308 * np.cos(x)))
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(ConvergenceFailure, match="eigenbasis division") as err):
            solve(system)
        assert not math.isfinite(err.value.residual)

    def test_cg_on_periodic_pins_mean(self):
        p = FdmProblem(d=1, n=8, k=1, rhs_sampler=lambda x: np.sin(2 * x))
        field = solve(assemble(p), method="cg")
        assert abs(field.values.mean()) <= 1e-13
        assert field.residual <= 1e-10


BOUNDED = settings(derandomize=True, max_examples=40, deadline=None)


def with_random_rhs(bc, d, n, k, seed):
    """An assembled lattice system whose rhs is replaced by a seeded one off the kernel."""
    h = math.pi / n
    trig = np.cos if bc == "neumann" else np.sin
    shift = 0.0 if bc == "periodic" else h / 2
    system = assemble(FdmProblem(d=d, n=n, k=k, bc=bc, rhs_sampler=lambda *X: np.prod(
        [trig(x + shift) for x in X], axis=0)))
    b = np.random.default_rng(seed).normal(size=system.rhs.size)
    if bc != "dirichlet":
        b -= b.mean()
    return dataclasses.replace(system, rhs=b)


def pinned_dense_solve(A, b, singular):
    """The zero-mean solution of A u = b: the constant kernel is lifted by a rank-one term."""
    if singular:
        A = A + np.abs(A).max() / A.shape[0]
    return np.linalg.solve(A, b)


@pytest.mark.filterwarnings("ignore:k=.*condition-number bands:UserWarning")
class TestFastPathOracles:
    """The eigenbasis solves against CG and dense solves of the assembled operator."""

    @BOUNDED
    @given(st.sampled_from(["dirichlet", "neumann"]), st.integers(1, 3), st.integers(1, 6),
           st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_restricted_transform_matches_cg_and_dense(self, bc, d, k, extra, seed):
        n = 2 * k + (extra if d < 3 else 1)   # k < n/2, and at most 13^3 rows
        system = with_random_rhs(bc, d, n, k, seed)
        R = restrict(make_stencil(k), n, bc) / (math.pi / n) ** 2
        A = kron_sum([R] * d).toarray()
        b = system.rhs
        dense = pinned_dense_solve(A, b, bc == "neumann")
        fast, cg = solve(system), solve(system, method="cg")
        assert fast.method == "eigen" and fast.iterations == 0
        assert fast.residual <= fdm.CG_TOL
        assert np.linalg.norm(A @ fast.values - b) <= 2 * fdm.CG_TOL * np.linalg.norm(b)
        gap = 10 * condition_number(system.eig_axis, d) * fdm.CG_TOL * np.linalg.norm(dense)
        assert np.linalg.norm(fast.values - dense) <= gap
        assert np.linalg.norm(fast.values - cg.values) <= gap

    @BOUNDED
    @given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.data())
    def test_periodic_rfft_matches_dense_circulant(self, d, seed, data):
        n = data.draw(st.integers(2, (16, 10, 6)[d - 1]))
        k = data.draw(st.integers(1, min(6, n - 1)))   # stencil width 2k+1 <= 2n
        system = with_random_rhs("periodic", d, n, k, seed)
        A = kron_sum([circulant(k, n)] * d).toarray() / system.problem.h ** 2
        b = system.rhs
        dense = pinned_dense_solve(A, b, True)
        fast = solve(system)
        assert fast.method == "eigen"
        x = np.random.default_rng(seed + 1).normal(size=b.size)
        assert np.allclose(system.matvec(x), A @ x, rtol=0, atol=1e-12 * np.abs(A).max())
        gap = 10 * condition_number(system.eig_axis, d) * 1e-15 * np.linalg.norm(dense)
        assert np.linalg.norm(fast.values - dense) <= gap
        assert fast.residual == pytest.approx(
            np.linalg.norm(A @ fast.values - b) / np.linalg.norm(b), rel=0.5, abs=1e-15)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_restricted_transform_refines_on_the_operator_residual(self, bc):
        # a spectrum off by 1e-6 leaves the first division that far off; the
        # residual comes from the operator itself, so refinement recovers
        system = with_random_rhs(bc, 2, 16, 3, 1)
        exact = solve(system, method="cg").values
        field = solve(dataclasses.replace(system, eig_axis=system.eig_axis * (1 + 1e-6)))
        assert field.residual <= fdm.CG_TOL
        assert np.linalg.norm(field.values - exact) <= 1e-10 * np.linalg.norm(exact)

    def test_restricted_transform_raises_on_a_non_finite_residual(self):
        system = with_random_rhs("dirichlet", 1, 4, 1, 0)
        huge = dataclasses.replace(system, rhs=np.array([1e308, -1e308, 1e308, -1e308]))
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(ConvergenceFailure, match="eigenbasis division stopped") as err):
            solve(huge)
        assert math.isnan(err.value.residual)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_restricted_transform_raises_below_rounding_floor(self, bc, monkeypatch):
        monkeypatch.setattr(fdm, "CG_TOL", 1e-20)
        with pytest.raises(ConvergenceFailure, match="eigenbasis division stopped") as err:
            solve(with_random_rhs(bc, 2, 16, 3, 0))
        assert 1e-20 < err.value.residual < 1e-12


def solve_in_child(system, values, residual):
    """Fork target: the child's solve must repeat the parent's bits."""
    field = solve(system)
    assert field.values.tobytes() == values and field.residual == residual


MANY = (os.cpu_count() or 1) + 3   # more slabs than the host has CPUs


@pytest.mark.filterwarnings("ignore:k=.*condition-number bands:UserWarning")
class TestSlabFFT:
    """The slab-split periodic FFT pair against numpy's rfftn/irfftn."""

    @BOUNDED
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=3), st.sampled_from([1, MANY]),
           st.integers(0, 2 ** 32 - 1))
    def test_pair_matches_numpy_bit_for_bit(self, shape, cpus, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)
        size = np.fft.rfftn(x).shape
        X = rng.normal(size=size) + 1j * rng.normal(size=size)
        want = np.fft.irfftn(X, s=shape, axes=tuple(range(len(shape))))
        with mock.patch.object(fdm, "_cpus", lambda: cpus):
            F, y = fdm._rfftn(x), fdm._irfftn(X, tuple(shape))
        assert np.array_equal(F, np.fft.rfftn(x))
        assert np.array_equal(y, want)

    @BOUNDED
    @given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3, MANY]),
           st.data())
    def test_solve_bits_do_not_depend_on_cpus(self, d, seed, cpus, data):
        n = data.draw(st.integers(2, (40, 24, 12)[d - 1]))
        system = with_random_rhs("periodic", d, n, data.draw(st.integers(1, min(4, n - 1))), seed)
        with mock.patch.object(fdm, "_cpus", lambda: 1):
            one = solve(system)
        with mock.patch.object(fdm, "_cpus", lambda: cpus):
            split = solve(system)
        assert split.values.tobytes() == one.values.tobytes()
        assert split.residual == one.residual

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_solves(self, monkeypatch):
        monkeypatch.setattr(fdm, "_cpus", lambda: 2)   # the parent's pool has a thread
        system = with_random_rhs("periodic", 3, 12, 3, 7)
        field = solve(system)
        child = multiprocessing.get_context("fork").Process(
            target=solve_in_child, args=(system, field.values.tobytes(), field.residual))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("forked child hung in its solve")
        assert child.exitcode == 0

    def test_slab_error_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(fdm, "_cpus", lambda: MANY)

        def fft(a, n, axis, out):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("slab failed")
            np.fft.fft(a, n, axis, out=out)

        x = np.ones((MANY, 4), dtype=complex)
        with pytest.raises(FloatingPointError, match="slab failed"):
            fdm._fft_pass(fft, x, x, 1, 4)


def einsum_norm(v):
    return math.sqrt(np.einsum("i,i->", v, v))


def oracle_solve(system):
    """The periodic solve as whole-cube numpy: rfftn, the kernel found by a
    scan of the spectrum and masked by np.where, irfftn, and the residual
    and its centred rhs out of place."""
    p = system.problem
    shape, axes = (2 * p.n,) * p.d, tuple(range(p.d))
    lam = system.eig_axis / p.h ** 2
    half = sum(np.reshape(lam[:p.n + 1] if j == p.d - 1 else lam,
                          [-1 if a == j else 1 for a in range(p.d)]) for j in range(p.d))
    F = np.fft.rfftn(system.rhs.reshape(shape))
    zero = np.abs(half) < 1e-14 * np.abs(half).max()
    F = F / np.where(zero, 1.0, half)
    F[zero] = 0.0
    u = np.fft.irfftn(F, s=shape, axes=axes).reshape(-1)
    Au = np.fft.irfftn(np.fft.rfftn(u.reshape(shape)) * half, s=shape, axes=axes).reshape(-1)
    b = system.rhs
    return u, einsum_norm(Au - (b - b.mean())) / max(einsum_norm(b), 1e-300)


def oracle_errors(values, exact):
    ue = exact - exact.mean()
    nb, na = einsum_norm(ue), einsum_norm(values)
    diff = values - ue
    return {"l2_rel": einsum_norm(diff) / nb, "linf": float(np.max(np.abs(diff))),
            "l2_normalized": einsum_norm(values / na - ue / nb)}


def hexes(report):
    return {key: float(value).hex() for key, value in report.items()}


@pytest.mark.filterwarnings("ignore:k=.*condition-number bands:UserWarning")
class TestPeriodicPasses:
    """The periodic solve's slab passes and the error report against whole-cube numpy."""

    @BOUNDED
    @given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.sampled_from([1, MANY]),
           st.data())
    def test_solve_and_errors_keep_the_whole_cube_bits(self, d, seed, cpus, data):
        n = data.draw(st.integers(2, (40, 24, 12)[d - 1]))
        system = with_random_rhs("periodic", d, n, data.draw(st.integers(1, min(4, n - 1))), seed)
        exact = np.random.default_rng(seed + 1).normal(size=system.rhs.size)
        kept = exact.copy()
        with mock.patch.object(fdm, "_cpus", lambda: cpus):
            field = solve(system)
            from_array = error_report(field, exact)
            from_callable = error_report(field, lambda *X: exact.reshape(X[0].shape))
        values, residual = oracle_solve(system)
        assert field.values.tobytes() == values.tobytes()
        assert field.residual.hex() == residual.hex()
        want = hexes(oracle_errors(field.values, kept))
        assert hexes(from_array) == want and hexes(from_callable) == want
        assert exact.tobytes() == kept.tobytes()

    @BOUNDED
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=3), st.sampled_from([1, MANY]),
           st.integers(0, 2 ** 32 - 1))
    def test_inverse_in_its_own_buffer_keeps_numpys_bits(self, shape, cpus, seed):
        # the inverse runs its complex passes in the buffer it is handed
        rng = np.random.default_rng(seed)
        size = np.fft.rfftn(np.zeros(shape)).shape
        X = rng.normal(size=size) + 1j * rng.normal(size=size)
        want = np.fft.irfftn(X, s=shape, axes=tuple(range(len(shape))))
        with mock.patch.object(fdm, "_cpus", lambda: cpus):
            assert np.array_equal(fdm._irfftn(X, tuple(shape)), want)

    @BOUNDED
    @given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.sampled_from([1, MANY]),
           st.data())
    def test_cg_builds_no_basis_and_agrees_with_the_eigen_solve(self, d, seed, cpus, data):
        # CG applies the circulant factor itself, so it checks the FFT path
        # without sharing its transform or its spectrum
        n = data.draw(st.integers(2, (24, 12, 6)[d - 1]))
        system = with_random_rhs("periodic", d, n, data.draw(st.integers(1, min(3, n - 1))), seed)
        with mock.patch.object(fdm, "_cpus", lambda: cpus):
            eigen = solve(system)
            with mock.patch.object(fdm, "_eigenbasis", side_effect=AssertionError("a basis")):
                cg = solve(system, method="cg")
        assert cg.method == "cg" and cg.iterations > 1 and cg.residual <= fdm.CG_TOL
        gap = 10 * condition_number(system.eig_axis, d) * fdm.CG_TOL * np.linalg.norm(eigen.values)
        assert np.linalg.norm(cg.values - eigen.values) <= gap

    @pytest.mark.parametrize("d, n", [(1, 16), (2, 8), (3, 6)])
    def test_solve_reuses_the_assembled_mean_and_norm(self, d, n):
        b = np.random.default_rng(d).normal(size=(2 * n) ** d)
        b -= b.mean()
        system = assemble(FdmProblem(d=d, n=n, k=2, rhs_sampler=lambda *X: b.reshape(X[0].shape)))
        by_hand = fdm.FdmSystem(problem=system.problem, rhs=system.rhs, eig_axis=system.eig_axis)
        values, residual = oracle_solve(system)
        for built, norms in ((system, 1), (by_hand, 2)):
            with mock.patch.object(fdm, "_norm", wraps=fdm._norm) as taken:
                field = solve(built)
            assert taken.call_count == norms
            assert field.values.tobytes() == values.tobytes()
            assert field.residual.hex() == residual.hex()

    @pytest.mark.parametrize("bc", ["periodic", "dirichlet", "neumann"])
    def test_error_report_leaves_the_exact_array_alone(self, bc):
        n = 8
        shift = 0.0 if bc == "periodic" else math.pi / n / 2
        x = math.pi * np.arange(2 * n) / n + shift
        trig = np.cos if bc == "neumann" else np.sin
        p = FdmProblem(d=2, n=n, k=2, bc=bc,
                       rhs_sampler=lambda X, Y: -2.0 * trig(X + shift) * trig(Y + shift))
        field = solve(assemble(p))
        # a constant offset is in the kernel, and off the Dirichlet sector
        exact = np.multiply.outer(trig(x), trig(x)) + (0.0 if bc == "dirichlet" else 0.25)
        if bc != "periodic":
            exact = fold_vector(fold_vector(exact, bc, axis=0), bc, axis=1)
        kept = exact.copy()
        rep = error_report(field, exact=exact)
        assert exact.tobytes() == kept.tobytes()
        assert error_report(field, exact=kept) == rep
        assert rep["l2_rel"] < 1e-3

    def test_overflowing_zero_mean_source_is_accepted(self):
        # +-1e200 overflows the plain sum of squares, not the rescaled norm;
        # every sample is finite and the mean is 0
        p = FdmProblem(d=2, n=4, k=1, rhs_sampler=lambda x, y: 1e200 * np.cos(4 * x))
        system = assemble(p)
        assert fdm._norm(system.rhs) == 8e200
        assert np.array_equal(np.abs(system.rhs), np.full(64, 1e200))

    def test_norm_rescales_only_where_the_plain_sum_fails(self):
        v = np.random.default_rng(3).normal(size=100)
        assert fdm._norm(v) == math.sqrt(np.einsum("i,i->", v, v))
        assert fdm._norm(np.full(4, 1e200)) == 2e200
        assert fdm._norm(np.full(4, 1e-200)) == 2e-200
        assert fdm._norm(np.zeros(3)) == 0.0 and fdm._norm(np.zeros(0)) == 0.0
        assert math.isnan(fdm._norm(np.array([1e200, np.nan])))
        assert fdm._norm(np.array([1e200, -np.inf])) == math.inf

    def test_overflowing_source_with_a_mean_rejected(self):
        # ||f||^2 overflows; the kernel check must still see the mean
        for scale in (1e200, 1e300):
            p = FdmProblem(d=2, n=8, k=2, rhs_sampler=lambda x, y: scale * (1 + np.cos(x)))
            with pytest.raises(CompatibilityError, match="kernel component"):
                assemble(p)

    def test_kernel_check_reads_an_overflowing_source_scaled(self):
        # the mean's sum and the norm both overflow; on f / max|f| neither does
        p = FdmProblem(d=1, n=4, k=1, rhs_sampler=lambda x: 1e308 * (0.5 + np.cos(x)))
        with pytest.raises(CompatibilityError, match="kernel component"):
            assemble(p)

    def test_overflowing_norm_leaves_the_residual_finite(self):
        p = FdmProblem(d=2, n=8, k=2, rhs_sampler=lambda x, y: -2e200 * np.sin(x) * np.sin(y))
        assert solve(assemble(p)).residual <= 1e-13

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_beside_an_overflowing_norm_rejected(self, bad):
        def f(x, y):
            out = 1e200 * np.cos(4 * x)
            out[1, 2] = bad
            return out
        with pytest.raises(ParameterError, match="non-finite"):
            assemble(FdmProblem(d=2, n=4, k=1, rhs_sampler=f))


def test_import_loads_no_scipy_linalg():
    code = ("import sys, pdekit; "
            "print([m for m in ('scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules])")
    src = str(Path(fdm.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


class TestErrorReport:
    def test_hand_values(self):
        p = FdmProblem(d=1, n=2, k=1, rhs_sampler=lambda x: np.sin(x),
                       exact_solution=lambda x: np.sin(x))
        field = solve(assemble(p))
        rep = error_report(field)
        ue = np.sin(math.pi * np.arange(4) / 2)
        diff = field.values - ue
        assert rep["l2_rel"] == pytest.approx(np.linalg.norm(diff) / np.linalg.norm(ue))
        assert rep["linf"] == pytest.approx(np.max(np.abs(diff)))

    def test_rejections(self):
        p = FdmProblem(d=1, n=4, k=1, rhs_sampler=lambda x: np.sin(x))
        field = solve(assemble(p))
        with pytest.raises(ParameterError, match="no exact solution"):
            error_report(field)
        with pytest.raises(ParameterError, match="identically zero"):
            error_report(field, exact=np.zeros(8))
        h = math.pi / 4
        pd = FdmProblem(d=1, n=4, k=1, rhs_sampler=lambda x: np.sin(x + h / 2),
                        bc="dirichlet")
        with pytest.raises(ParameterError, match="folded exact"):
            error_report(solve(assemble(pd)), exact=lambda x: np.sin(x + h / 2))

    @pytest.mark.parametrize("bc", ["periodic", "neumann"])
    def test_constant_offsets_are_the_kernel(self, bc):
        # u = cos(x + shift) solves u'' = -cos(x + shift); so does u + 2
        n, k = 16, 3
        shift = math.pi / n / 2 if bc == "neumann" else 0.0
        p = FdmProblem(d=1, n=n, k=k, rhs_sampler=lambda x: -np.cos(x + shift), bc=bc)
        field = solve(assemble(p))
        exact = np.cos(math.pi * np.arange(2 * n) / n + shift)
        exact = fold_vector(exact, bc) if bc == "neumann" else exact
        want = error_report(field, exact=exact)
        assert want["l2_rel"] < 1e-6
        offset = [error_report(field, exact=exact + 2.0)]
        if bc == "periodic":
            offset.append(error_report(field, exact=lambda x: np.cos(x) + 2.0))
        for rep in offset:
            for key in want:
                assert rep[key] == pytest.approx(want[key], rel=1e-6)


class TestConvergence:
    def test_row_shape_and_smoke_anchor(self):
        rows = convergence_rows(1, 2, [8], lambda x: -np.sin(x), np.sin)
        (row,) = rows
        assert set(row) == {"n", "k", "d", "l2_rel", "linf", "kappa", "runtime_ms"}
        assert row["l2_rel"] == pytest.approx(2.6069e-4, rel=1e-3)
        lam = np.abs(np.linalg.eigvalsh(circulant(2, 8)))
        lam = lam[lam > 1e-10 * lam.max()]  # the constant kernel drops out
        assert row["kappa"] == pytest.approx(lam.max() / lam.min(), rel=1e-10)
        assert row["runtime_ms"] >= 0.0

    @pytest.mark.parametrize("k,frozen", [(1, -1.0035), (2, -2.9939)])
    def test_raw_error_slope_2d(self, k, frozen):
        # raw l2 error = l2_rel * ||u|| and ||sin (x) sin|| = n on the
        # (2n)^2 lattice, so the raw slope sits one above the relative one
        rows = convergence_rows(2, k, [8, 16, 32, 64], f_sin2, u_sin2)
        ns = [row["n"] for row in rows]
        raw = [row["l2_rel"] * row["n"] for row in rows]
        slope = fit_slope(ns, raw)
        assert slope == pytest.approx(frozen, abs=0.05)
        assert -(2 * k - 1) - 0.5 <= slope <= -(2 * k - 1) + 0.5

    @pytest.mark.parametrize("d,k,ns,sampler,exact,norm", [
        (1, 1, (8, 16, 32, 64), lambda x: -np.sin(x), np.sin,
         lambda n: math.sqrt(n)),
        (1, 3, (8, 16, 32, 64), lambda x: -np.sin(x), np.sin,
         lambda n: math.sqrt(n)),
        (2, 1, (8, 16, 32, 64), f_sin2, u_sin2, lambda n: float(n)),
        (2, 2, (8, 16, 32, 64), f_sin2, u_sin2, lambda n: float(n)),
    ])
    def test_accuracy_envelope(self, d, k, ns, sampler, exact, norm):
        # raw error <= 10 * 2^{d/2} n^{d/2-2k+1} M (e/2)^{2k}, M = 1 for sin
        rows = convergence_rows(d, k, ns, sampler, exact)
        for row in rows:
            raw = row["l2_rel"] * norm(row["n"])
            envelope = 10.0 * math.exp(log_accuracy_bound(d, row["n"], k, 1.0))
            assert raw <= envelope

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_order_sweep_strictly_decreasing_at_fixed_n(self):
        frozen = [4.4987e-3, 8.2370e-5, 3.6255e-6, 2.7383e-7,
                  3.0341e-8, 4.5060e-9, 8.4434e-10, 1.9133e-10]
        errs = []
        for k in range(1, 9):
            p = FdmProblem(d=1, n=16, k=k, rhs_sampler=f_exp_sin,
                           exact_solution=u_exp_sin)
            errs.append(error_report(solve(assemble(p)))["l2_rel"])
        assert all(a > b for a, b in zip(errs, errs[1:]))
        for got, want in zip(errs, frozen):
            assert got == pytest.approx(want, rel=0.05)


class TestEigenvalueEnvelope:
    @pytest.mark.parametrize("k,slope", [(1, -3.998), (2, -5.994), (3, -7.989)])
    def test_lowest_mode_deviation(self, k, slope):
        # lambda_1 = -pi^2/n^2 + O(k^3/n^4); the envelope holds with
        # constant 10 while the actual decay is n^{-(2k+2)}
        ns = [8, 16, 32, 64]
        devs = []
        for n in ns:
            lam = eigenvalues_1d(make_stencil(k), n)
            dev = abs(lam[1] + math.pi ** 2 / n ** 2)
            assert dev <= 10.0 * k ** 3 / n ** 4
            devs.append(dev)
        assert fit_slope(ns, devs) == pytest.approx(slope, abs=0.05)
        if k == 1:
            assert fit_slope(ns, devs) == pytest.approx(-4.0, abs=0.1)
