"""Node transforms, point evaluation and manufactured-solution solves."""

import contextlib
import dataclasses
import math
from unittest import mock

import numpy as np
import numpy.polynomial.chebyshev as cheb
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import pdekit.solver as solver
import pdekit.spectral_system as spectral_system
from conftest import spectral_systems
from pdekit.errors import ConvergenceFailure, ParameterError
from pdekit.solver import (
    analyze_values,
    convergence_study,
    error_metrics,
    evaluate_at,
    manufactured_problem,
    node_grids,
    nodes,
    solve_manufactured,
    solve_system,
    synthesize_nodes,
)
from pdekit.spectral_ops import random_gdd
from pdekit.spectral_system import (assemble_system, block_inverse, closure_levels,
                                   condition_report, min_eig_sum)


def test_node_sets():
    assert np.allclose(nodes("fourier", 3), np.array([-1.0, -0.5, 0.0, 0.5]))
    assert np.allclose(nodes("chebyshev", 4),
                       np.cos(np.pi * np.arange(5) / 4))
    got = nodes("chebyshev", 4)
    assert got[0] == 1.0 and got[-1] == -1.0 and np.all(np.diff(got) < 0)
    with pytest.raises(ParameterError):
        nodes("chebyshev", 0)
    with pytest.raises(ParameterError):
        nodes("legendre", 4)
    grids = node_grids("fourier", 3, 2)
    assert len(grids) == 2 and np.array_equal(grids[0], grids[1])


def fourier_synthesis_oracle(c, n):
    m = n // 2
    x = nodes("fourier", n)
    return np.array([sum(c[k] * np.exp(1j * np.pi * (k - m) * xl)
                         for k in range(n + 1)) for xl in x])


@pytest.mark.parametrize("n", [2, 3, 8, 13])
def test_fourier_synthesis_matches_direct_sum(rng, n):
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    got = synthesize_nodes("fourier", c, n)
    assert np.allclose(got, fourier_synthesis_oracle(c, n), atol=1e-12)
    back = analyze_values("fourier", got, n)
    assert np.allclose(back, c, atol=1e-12)


@pytest.mark.parametrize("n", [2, 5, 12])
def test_chebyshev_synthesis_matches_chebval(rng, n):
    c = rng.normal(size=n + 1)
    got = synthesize_nodes("chebyshev", c, n)
    assert np.allclose(got, cheb.chebval(nodes("chebyshev", n), c), atol=1e-12)
    assert np.allclose(analyze_values("chebyshev", got, n), c, atol=1e-12)


def test_two_dimensional_round_trip(rng):
    n = 5
    N = n + 1
    for basis in ("fourier", "chebyshev"):
        c = rng.normal(size=N * N)
        if basis == "fourier":
            c = c + 1j * rng.normal(size=N * N)
        vals = synthesize_nodes(basis, c, n, d=2)
        assert np.allclose(analyze_values(basis, vals, n, d=2), c, atol=1e-12)
    # chebyshev d=2 against the polynomial module's tensor evaluation
    c = rng.normal(size=N * N)
    x = nodes("chebyshev", n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    want = cheb.chebval2d(X, Y, c.reshape(N, N)).reshape(-1)
    assert np.allclose(synthesize_nodes("chebyshev", c, n, d=2), want, atol=1e-12)


def test_evaluate_at_chebyshev_polynomials(rng):
    n = 6
    coeffs = np.zeros(7)
    coeffs[3] = 1.0
    pts = rng.uniform(-1.0, 1.0, size=(9, 1))
    got = evaluate_at("chebyshev", coeffs, n, 1, pts)
    assert np.allclose(got, cheb.chebval(pts[:, 0], coeffs), atol=1e-13)


def test_evaluate_at_fourier_modes(rng):
    n = 5
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    pts = rng.uniform(-1.0, 1.0, size=(7, 1))
    m = n // 2
    want = np.array([sum(c[k] * np.exp(1j * np.pi * (k - m) * x) for k in range(6))
                     for x in pts[:, 0]])
    assert np.allclose(evaluate_at("fourier", c, n, 1, pts), want, atol=1e-12)


def test_evaluate_at_two_dims_and_guards(rng):
    n = 4
    N = n + 1
    c = rng.normal(size=N * N)
    pts = rng.uniform(-1.0, 1.0, size=(6, 2))
    want = cheb.chebval2d(pts[:, 0], pts[:, 1], c.reshape(N, N))
    assert np.allclose(evaluate_at("chebyshev", c, n, 2, pts), want, atol=1e-12)
    # single point comes back as a scalar
    single = evaluate_at("chebyshev", c, n, 2, np.array([0.3, -0.2]))
    assert np.ndim(single) == 0
    with pytest.raises(ParameterError):
        evaluate_at("chebyshev", c, n, 2, np.array([[0.3, 1.5]]))
    with pytest.raises(ParameterError):
        evaluate_at("chebyshev", c, n, 2, np.array([[0.3]]))


@pytest.mark.parametrize("basis", ["fourier", "chebyshev"])
@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
def test_evaluate_at_refuses_non_finite_points(basis, point):
    # NaN fails every comparison, so a bounds test alone let it through as a NaN value
    with pytest.raises(ParameterError, match="finite"):
        evaluate_at(basis, np.ones(5), 4, 1, [[point]])
    with pytest.raises(ParameterError, match="finite"):
        evaluate_at(basis, np.ones(25), 4, 2, [[0.5, -0.5], [0.1, point]])


@pytest.mark.parametrize("call", [
    lambda basis, v, n: analyze_values(basis, v, n, 2),
    lambda basis, v, n: synthesize_nodes(basis, v, n, 2),
    lambda basis, v, n: evaluate_at(basis, v, n, 2, np.zeros(2)),
], ids=["analyze_values", "synthesize_nodes", "evaluate_at"])
def test_axis_paths_reject_bad_sizes(call):
    for basis in ("fourier", "chebyshev"):
        with pytest.raises(ParameterError, match="values"):
            call(basis, np.ones(24), 4)   # not (n+1)^d = 25
    with pytest.raises(ParameterError, match="n >= 1"):
        call("chebyshev", np.ones(1), 0)
    with pytest.raises(ParameterError, match="basis"):
        call("legendre", np.ones(25), 4)


def test_error_metrics_hand_values():
    exact = np.array([3.0, 4.0])
    m = error_metrics(exact, exact)
    assert m["l2_rel"] == 0.0 and m["l2_normalized"] == 0.0 and m["sup"] == 0.0
    # scaling collapses the normalized metric but not the relative one
    m2 = error_metrics(exact, 2.0 * exact)
    assert m2["l2_rel"] == pytest.approx(1.0)
    assert m2["l2_normalized"] == pytest.approx(0.0, abs=1e-15)
    assert m2["sup"] == pytest.approx(4.0)
    assert error_metrics(np.zeros(2), np.ones(2))["l2_rel"] == np.inf


def test_exact_coefficients_satisfy_assembled_system():
    # the analyzed exact solution must satisfy L c = rhs to truncation level
    for basis, name in (("fourier", "exp-sin-pi"), ("chebyshev", "exp-sin")):
        n = 24
        system, u_exact = manufactured_problem(name, np.eye(1), basis, n)
        c_exact = analyze_values(basis, u_exact, n, d=1)
        resid = np.linalg.norm(system.L @ c_exact - system.rhs)
        assert resid <= 1e-9 * max(np.linalg.norm(system.rhs), 1.0)


def test_solve_system_residual_certificate():
    system, _ = manufactured_problem("exp-sin-pi", np.eye(1), "fourier", 12)
    result = solve_system(system)
    assert result.residual <= 1e-12
    vals = result.node_values()
    assert np.allclose(vals, synthesize_nodes("fourier", result.coeffs, 12, 1),
                       atol=1e-13)


def test_singular_system_raises():
    # the pure part is singular: raised before any division, so no RuntimeWarning
    system = assemble_system(np.eye(3), "chebyshev", 2, np.ones(27))
    with pytest.raises(ConvergenceFailure, match="singular") as err:
        solve_system(system)
    assert err.value.residual == math.inf


def lu_oracle(system):
    """The sparse-LU solve of L, its certified residual and a bound on ||L^-1||_2."""
    L = system.L.tocsc().astype(complex)
    lu = spla.splu(L)
    c = lu.solve(np.asarray(system.rhs, dtype=complex))
    denom = max(np.linalg.norm(system.rhs), 1.0)
    residual = np.linalg.norm(system.L @ c - system.rhs) / denom
    inverse = spla.LinearOperator(L.shape, matvec=lu.solve, dtype=complex,
                                  rmatvec=lambda y: lu.solve(y, trans="H"))
    # ||X||_2 <= sqrt(N) ||X||_1, and onenormest may fall short by a small factor
    inv_norm = 10 * math.sqrt(L.shape[0]) * spla.onenormest(inverse)
    return c, residual, inv_norm


def assert_certified(system, result):
    """The reported residual is the residual on L, and it meets the gate."""
    denom = max(np.linalg.norm(system.rhs), 1.0)
    assert result.residual == pytest.approx(
        np.linalg.norm(system.L @ result.coeffs - system.rhs) / denom, rel=1e-6, abs=1e-16)
    assert result.residual <= 1e-12


def assert_matches_lu(system, result, c_lu, inv_norm):
    """The two solves differ by no more than ||L^-1|| ||L (c - c_lu)||."""
    gap = inv_norm * np.linalg.norm(system.L @ (result.coeffs - c_lu))
    assert np.linalg.norm(result.coeffs - c_lu) <= gap


class TestSolveOracles:
    """The preconditioned GMRES solve against a sparse LU of the same L."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(spectral_systems())
    def test_matches_sparse_lu(self, system):
        c_lu, lu_residual, inv_norm = lu_oracle(system)
        if lu_residual > 1e-12:
            # the LU misses the gate as well (a rounding floor): only honesty is asked
            with contextlib.suppress(ConvergenceFailure):
                assert_certified(system, solve_system(system))
            return
        result = solve_system(system)
        assert_certified(system, result)
        assert_matches_lu(system, result, c_lu, inv_norm)

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_near_singular_pure_part(self, n):
        # min |sum_j A_jj lam_j| is 1.8e-2 at n = 10 and kappa 6.5e7 (3.0 and 8.5 at n = 9, 11)
        system, _ = manufactured_problem("exp-sin", np.diag([0.629, 1.857, 0.971]),
                                         "chebyshev", n)
        c_lu, lu_residual, inv_norm = lu_oracle(system)
        result = solve_system(system)
        assert lu_residual <= 1e-12 and result.iterations <= 2
        assert_certified(system, result)
        assert_matches_lu(system, result, c_lu, inv_norm)

    @pytest.mark.parametrize("basis", ["fourier", "chebyshev"])
    def test_pure_part_needs_at_most_a_step(self, basis):
        name = "exp-sin" if basis == "chebyshev" else "exp-sin-pi"
        for d in (1, 2, 3):
            system, _ = manufactured_problem(name, np.diag([1.5, 0.5, 1.0][:d]), basis, 8)
            assert solve_system(system).iterations <= 1
        # GMRES absorbs the mixed terms of a Chebyshev L; a Fourier L is solved by substitution
        mixed, _ = manufactured_problem(name, np.array([[1.0, 0.3], [0.3, 1.0]]), basis, 16)
        steps = solve_system(mixed).iterations
        assert steps == 0 if basis == "fourier" else steps > 1

    def test_no_sparse_lu_above_one_axis(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("splu called")
        monkeypatch.setattr(spla, "splu", refuse)
        system, _ = manufactured_problem("exp-sin", random_gdd(np.random.default_rng(3), 2),
                                         "chebyshev", 16)
        assert solve_system(system).residual <= 1e-12

    def test_one_eigendecomposition_per_preconditioner(self, monkeypatch):
        # the solve, the condition report and min_eig_sum share the system's one
        # block_inverse, and min_eig_sum reads its spectrum: no eigvals at all
        calls, reads = [], []
        eig, eigvals, read = np.linalg.eig, np.linalg.eigvals, spectral_system.block_inverse
        monkeypatch.setattr(np.linalg, "eig", lambda M: calls.append(M.shape) or eig(M))
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append("eigvals") or eigvals(M))
        monkeypatch.setattr(spectral_system, "block_inverse", lambda s: reads.append(s) or read(s))

        def solve_and_report(system):
            reads.clear()
            result = solve_system(system)
            assert result.residual <= 1e-12
            assert min_eig_sum(system) == condition_report(system)["min_eig_sum"] > 0.0
            assert len(reads) == 1 and reads[0] is system
            return result
        for A in (random_gdd(np.random.default_rng(5), 3), np.diag([1.0, 1.5])):
            calls.clear()
            solve_and_report(manufactured_problem("exp-sin", A, "chebyshev", 6)[0])
            assert calls == [(7, 7)]
        # a Fourier L is solved by substitution: no eigendecomposition at all
        calls.clear()
        for d in (1, 2, 3):
            system, _ = manufactured_problem(
                "exp-sin-pi", random_gdd(np.random.default_rng(5), d), "fourier", 6)
            result = solve_and_report(system)
            assert (result.preconditioner, result.iterations) == ("substitution", 0)
        assert calls == []

    def test_a_refused_inverse_is_read_once(self, monkeypatch):
        # the system keeps the refusal and raises it on each read: the solve, the
        # condition report and min_eig_sum share one block_inverse and one eig, and
        # only min_eig_sum's fallback reads the block's eigenvalues again
        calls = []
        eig, eigvals, read = np.linalg.eig, np.linalg.eigvals, spectral_system.block_inverse
        monkeypatch.setattr(np.linalg, "eig", lambda M: calls.append("eig") or eig(M))
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append("eigvals") or eigvals(M))
        monkeypatch.setattr(spectral_system, "block_inverse",
                            lambda s: calls.append("block_inverse") or read(s))
        system = assemble_system(np.eye(3), "chebyshev", 2, np.ones(27))
        with pytest.raises(ConvergenceFailure, match="singular to rounding"):
            solve_system(system)
        assert condition_report(system)["method"] == "singular"
        assert calls == ["block_inverse", "eig", "eigvals"]
        # a Fourier L singular to rounding: its pivots are refused once
        calls.clear()
        system = assemble_system(np.diag([np.pi ** 2, 1.0]), "fourier", 8, np.ones(81))
        assert condition_report(system)["method"] == "singular"
        assert calls == ["block_inverse", "eigvals"]

    @pytest.mark.parametrize("basis", ["fourier", "chebyshev"])
    def test_a_replaced_system_reads_its_own_inverse(self, basis):
        # dataclasses.replace gives a fresh memo: the Fourier pivots come from the new L
        system = assemble_system(np.diag([1.0, 1.5]), basis, 6, np.ones(49))
        first = system.inverse
        fresh = dataclasses.replace(system, L=(2.0 * system.L).tocsr())
        assert system.inverse is first and fresh.inverse is not first
        scale = 2.0 if basis == "fourier" else 1.0
        assert np.array_equal(fresh.inverse[3], scale * first[3])

    @pytest.mark.parametrize("closure", ["point", "pin"])
    def test_one_axis_point_and_pin_rows_take_at_most_two_steps(self, closure):
        rng = np.random.default_rng(7)
        for n in (2, 5, 8, 16, 33):
            for a in (1.0, -0.6):
                fhat = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
                system = assemble_system(np.array([[a]]), "fourier", n, fhat, closure=closure,
                                         point_value=rng.normal())
                result = solve_system(system)
                assert_certified(system, result)
                assert result.iterations <= 2

    def test_unreachable_tolerance_raises(self):
        system, _ = manufactured_problem("exp-sin", np.array([[1.0, 0.3], [0.3, 1.0]]),
                                         "chebyshev", 16)
        with pytest.raises(ConvergenceFailure, match="stopped above") as err:
            solve_system(system, tol=1e-20)
        assert 1e-20 < err.value.residual < 1e-12


@st.composite
def fourier_systems(draw):
    """Random Fourier systems: every closure, d = 1..3, real or complex A and data."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, [40, 20, 9][d - 1]))
    closure = draw(st.sampled_from(["axes", "point", "pin"]))
    A = random_gdd(rng, d) if draw(st.booleans()) else np.diag(rng.uniform(0.5, 2.0, size=d))
    A = rng.choice([-1.0, 1.0]) * A
    if draw(st.booleans()):
        A = A + 1j * rng.uniform(-0.5, 0.5, size=(d, d))
    size = (n + 1) ** d
    fhat = rng.normal(size=size) + (1j * rng.normal(size=size) if draw(st.booleans()) else 0)
    if closure != "axes":
        return assemble_system(A, "fourier", n, fhat, closure=closure,
                               point_value=rng.normal())
    boundary = [(rng.normal(size=size // (n + 1)) + 1j * rng.normal(size=size // (n + 1)),
                 None) for _ in range(d)]
    return assemble_system(A, "fourier", n, fhat, boundary=boundary)


class TestSubstitution:
    """A Fourier L is lower triangular in closure-level order and solved by substitution."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(fourier_systems())
    def test_matches_sparse_solve(self, system):
        want = spla.spsolve(system.L.tocsc(), system.rhs)
        result = solve_system(system)
        assert (result.preconditioner, result.iterations, result.restarts) == (
            "substitution", 0, 0)
        assert_certified(system, result)
        assert np.linalg.norm(result.coeffs - want) <= 1e-13 * np.linalg.norm(want)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(fourier_systems())
    def test_off_diagonal_entries_run_down_the_closure_levels(self, system):
        # a closure whose entries broke this order would leave the substitution inexact
        L = system.L.tocoo()
        level = closure_levels("fourier", system.n, system.d)
        off = L.row != L.col
        assert (level[L.row[off]] > level[L.col[off]]).all()

    @pytest.mark.parametrize("closure", ["axes"])
    def test_a_zero_pivot_raises(self, closure):
        # the row closed on axis 0 at frequency +-1 on axis 1 holds pi^2 * 1 - 1 * pi^2 = 0;
        # point/pin rows off the centre hold the PDE, where an elliptic A has no zero pivot
        system = assemble_system(np.diag([np.pi ** 2, 1.0]), "fourier", 8, np.ones(81),
                                 closure=closure)
        with pytest.raises(ConvergenceFailure, match="singular") as err:
            solve_system(system)
        assert err.value.residual == math.inf

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(spectral_systems().filter(lambda system: system.basis == "chebyshev"))
    def test_no_chebyshev_system_takes_it(self, system):
        assert block_inverse(system)[2] == ("splu" if system.d == 1 else "eig")


def scipy_cycle(apply, r, atol, restart):
    """The cycle _gmres_cycle replaced: one restart cycle of scipy's gmres from zero."""
    steps = []
    op = spla.LinearOperator((r.size, r.size), matvec=apply, dtype=r.dtype)
    y, _ = spla.gmres(op, r, rtol=0.0, atol=atol, restart=restart, maxiter=1,
                      callback=steps.append, callback_type="pr_norm")
    return y, len(steps)


class TestGmresCycle:
    """Our GMRES cycle against scipy's on the same right-preconditioned operator."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(spectral_systems())
    def test_matches_scipy_gmres(self, system):
        cycles = []
        ours_cycle = solver._gmres_cycle

        def recorded(*args):
            cycles.append(args)
            return ours_cycle(*args)
        with mock.patch.object(solver, "_gmres_cycle", recorded):
            ours = solve_system(system)
        with mock.patch.object(solver, "_gmres_cycle", scipy_cycle):
            theirs = solve_system(system)
        assert_certified(system, ours)
        assert_certified(system, theirs)
        # restarts near the rounding floor follow the last bits; each cycle's steps agree
        for apply, r, atol, restart in cycles:
            y, steps = ours_cycle(apply, r, atol, restart)
            y_scipy, steps_scipy = scipy_cycle(apply, r, atol, restart)
            assert abs(steps - steps_scipy) <= 1
            assert np.linalg.norm(r - apply(y)) <= 1.01 * np.linalg.norm(r - apply(y_scipy)) \
                + 2 * atol

    @pytest.mark.parametrize("basis, closure", [("chebyshev", "axes"), ("fourier", "axes"),
                                                ("fourier", "point")])
    def test_zero_rhs_takes_no_step(self, basis, closure):
        system = assemble_system(np.array([[1.0, 0.2], [0.2, 1.5]]), basis, 8, np.zeros(81),
                                 closure=closure)
        result = solve_system(system)
        assert (result.iterations, result.restarts, result.residual) == (0, 0, 0.0)
        assert not result.coeffs.any()

    def test_restarts_count_the_cycles_after_the_first(self):
        system, _ = manufactured_problem("exp-sin", np.array([[1.0, 0.3], [0.3, 1.0]]),
                                         "chebyshev", 24)
        with mock.patch.object(solver, "GMRES_RESTART", 4):
            result = solve_system(system)
        assert_certified(system, result)
        assert result.restarts >= (result.iterations - 1) // 4 > 0


# measured anchors for the two smooth families (normalized l2 at the nodes);
# re-measured values must stay within 5% at the sharp sizes
FOURIER_D1 = {8: 1.750e-4, 12: 6.152e-7, 16: 1.523e-9}
CHEB_D1 = {8: 4.629e-6, 12: 1.012e-8, 16: 2.807e-12}
FOURIER_D2 = {8: 2.368e-4}
CHEB_D2 = {8: 2.846e-4, 16: 4.626e-10}


def test_fourier_convergence_one_dim():
    for n, want in FOURIER_D1.items():
        out = solve_manufactured("exp-sin-pi", np.eye(1), "fourier", n)
        assert out["l2_normalized"] == pytest.approx(want, rel=0.05)
        assert out["result"].residual <= 1e-12
    floor = solve_manufactured("exp-sin-pi", np.eye(1), "fourier", 24)
    assert floor["l2_normalized"] < 1e-13


def test_chebyshev_convergence_one_dim():
    for n, want in CHEB_D1.items():
        out = solve_manufactured("exp-sin", np.eye(1), "chebyshev", n)
        assert out["l2_normalized"] == pytest.approx(want, rel=0.05)
    floor = solve_manufactured("exp-sin", np.eye(1), "chebyshev", 24)
    assert floor["l2_normalized"] < 1e-14


def test_convergence_two_dims():
    for basis, name, anchors in (("fourier", "exp-sin-pi", FOURIER_D2),
                                 ("chebyshev", "exp-sin", CHEB_D2)):
        for n, want in anchors.items():
            out = solve_manufactured(name, np.eye(2), basis, n)
            assert out["l2_normalized"] == pytest.approx(want, rel=0.05)
        floor = solve_manufactured(name, np.eye(2), basis, 24)
        assert floor["l2_normalized"] < 1e-13


def test_mixed_coefficients_converge():
    A = np.array([[1.0, 0.2], [0.2, 1.0]])
    four = solve_manufactured("exp-sin-pi", A, "fourier", 20)
    assert four["l2_normalized"] == pytest.approx(3.873e-12, rel=0.2)
    chb = solve_manufactured("exp-sin", A, "chebyshev", 20)
    assert chb["l2_normalized"] == pytest.approx(4.351e-12, rel=0.2)
    assert four["system"].gdd["accepted"] and chb["system"].gdd["accepted"]


def assert_fourier_converges(d, ns, last, mixed, closure="axes"):
    """exp-sin-pi errors fall 100-fold per step of n to below last, each solve by
    substitution; "pin" pins the exact coefficient of the centre row's mode."""
    rng = np.random.default_rng(d)
    A = random_gdd(rng, d) if mixed else np.diag(rng.uniform(0.5, 2.0, size=d))
    errs = []
    for n in ns:
        system, u_exact = manufactured_problem("exp-sin-pi", A, "fourier", n,
                                               closure="point" if closure == "pin" else closure)
        if closure == "pin":
            center = np.ravel_multi_index([n // 2] * d, [n + 1] * d)
            system = assemble_system(A, "fourier", n, system.rhs, closure="pin",
                                     point_value=analyze_values("fourier", u_exact, n, d)[center])
        result = solve_system(system)
        assert (result.preconditioner, result.iterations) == ("substitution", 0)
        assert result.residual <= 1e-12
        errs.append(error_metrics(u_exact, result.node_values())["l2_rel"])
    assert errs[0] < 1e-3 and errs[-1] < last
    assert all(b < a / 100 for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("d, ns, last", [(3, (8, 16, 24), 1e-13), (4, (8, 12, 16), 1e-8)])
def test_fourier_converges_spectrally_at_three_and_four_dims(d, ns, last, mixed):
    # a row closed on a third axis keeps the mixed terms; without them the
    # error stalled near 5e-2 (d=3) and 1.4e-2 (d=4) at every n
    assert_fourier_converges(d, ns, last, mixed)


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("d, closure", [(2, "axes"), (2, "point"), (2, "pin"),
                                        (3, "point"), (3, "pin")])
def test_fourier_closures_converge_spectrally(d, closure, mixed):
    # point/pin rows off the centre hold the PDE; with the closed block summed there
    # the error stalled near 5.6e-2 (d=2) and 1.3e-1 to 2.4e-1 (d=3) at every n
    assert_fourier_converges(d, (8, 16, 24), 1e-13, mixed, closure)


def test_point_closure_solves():
    out = solve_manufactured("exp-sin-pi", np.eye(1), "fourier", 16, closure="point")
    assert out["l2_normalized"] < 1e-8
    with pytest.raises(ParameterError):
        manufactured_problem("exp-sin-pi", np.eye(1), "fourier", 16, closure="pin")


def test_unknown_closure_rejected():
    with pytest.raises(ParameterError, match="closure"):
        manufactured_problem("exp-sin", np.eye(2), "chebyshev", 6, closure="bogus")


def test_convergence_study_rows():
    rows = convergence_study("exp-sin", np.eye(1), "chebyshev", [8, 12, 16],
                             with_kappa=True)
    assert [r["n"] for r in rows] == [8, 12, 16]
    errs = [r["normalized_l2"] for r in rows]
    assert errs[0] > errs[1] > errs[2]
    for r in rows:
        assert r["basis"] == "chebyshev" and r["d"] == 1
        assert r["residual"] <= 1e-12
        assert r["runtime_ms"] > 0.0
        assert r["kappa"] >= 1.0
        assert r["raw_l2"] >= 0.0
    no_kappa = convergence_study("exp-sin", np.eye(1), "chebyshev", [8])
    assert np.isnan(no_kappa[0]["kappa"])
