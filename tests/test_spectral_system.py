"""System assembly: truncation rules, boundary embedding, rhs layout, q."""

import math
from functools import reduce
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import pdekit.spectral_system as spectral_system
from conftest import assert_same_csr, spectral_systems
from pdekit.errors import BudgetExceeded, DegenerateRhs, ParameterError
from pdekit.solver import solve_system
from pdekit.spectral_ops import boundary_row_indices, diff_matrix, multi_diff, random_gdd
from pdekit.spectral_system import (
    assemble_system,
    certified_truncation_order,
    choose_truncation,
    condition_report,
    embed_boundary,
    min_eig_sum,
    state_prep_q,
)
from pdekit.tensor import kron_sum


def test_choose_truncation_reference_point():
    assert choose_truncation(1.0, 1.0, 1e-6) == 5


def test_choose_truncation_monotone_and_clamped():
    last = 2
    for eps in (1e-2, 1e-4, 1e-8, 1e-12, 1e-16):
        n = choose_truncation(1.0, 1.0, eps)
        assert n >= max(last, 2)
        last = n
    assert choose_truncation(1.0, 1e30, 1e-6) > choose_truncation(1.0, 1.0, 1e-6)


def test_choose_truncation_rejects_tiny_budget():
    # Omega = g'(1+eps)/(g eps) must exceed e for the formula to mean anything
    with pytest.raises(ParameterError):
        choose_truncation(1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        choose_truncation(1.0, 1.0, -0.5)


def test_certified_order_satisfies_its_inequality():
    for g, gp, eps in [(1.0, 1.0, 1e-6), (2.0, 5.0, 1e-8), (1.0, 1e10, 1e-4)]:
        n = certified_truncation_order(g, gp, eps)
        target = g * eps / ((1.0 + eps) * gp)
        assert (math.e / (2 * n)) ** n <= target
        if n > 2:
            assert (math.e / (2 * (n - 1))) ** (n - 1) > target
        assert n >= choose_truncation(g, gp, eps)


def test_formula_order_undershoots_at_desk_scale():
    # the asymptotic inverse drops loglog terms; at eps = 1e-6 it returns 5,
    # where (e/10)^5 = 1.5e-3 is far above the 1e-6 target
    n = choose_truncation(1.0, 1.0, 1e-6)
    assert n == 5
    assert (math.e / (2 * n)) ** n > 1e-6
    assert certified_truncation_order(1.0, 1.0, 1e-6) == 8


@pytest.mark.parametrize("g, g_prime, eps", [
    (math.nan, 1.0, 1e-6), (1.0, math.nan, 1e-6), (1.0, 1.0, math.nan),
    (math.inf, 1.0, 1e-6), (1.0, math.inf, 1e-6), (1.0, -math.inf, 1e-6)])
@pytest.mark.parametrize("rule", [choose_truncation, certified_truncation_order])
def test_truncation_rules_refuse_non_finite_inputs(rule, g, g_prime, eps):
    with pytest.raises(ParameterError, match="finite"):
        rule(g, g_prime, eps)


def test_certified_order_budget_guard():
    with pytest.raises(ParameterError):
        certified_truncation_order(1.0, 1e300, 1e-12, n_max=5)


def test_embed_boundary_placement():
    n, d = 2, 2
    vals = np.array([1.0, 2.0, 3.0])
    full = embed_boundary("chebyshev", n, d, 0, "plus", vals)
    cube = full.reshape(3, 3)
    assert np.array_equal(cube[2], vals)
    cube[2] = 0.0
    assert np.count_nonzero(cube) == 0
    full_m = embed_boundary("chebyshev", n, d, 0, "minus", vals).reshape(3, 3)
    assert np.array_equal(full_m[1], vals)
    full_ax1 = embed_boundary("chebyshev", n, d, 1, "plus", vals).reshape(3, 3)
    assert np.array_equal(full_ax1[:, 2], vals)
    # periodic basis: one closure row serves both faces
    fp = embed_boundary("fourier", n, d, 0, "plus", vals).reshape(3, 3)
    fm = embed_boundary("fourier", n, d, 0, "minus", vals).reshape(3, 3)
    assert np.array_equal(fp, fm)
    assert np.array_equal(fp[1], vals)


def test_embed_boundary_scalar_and_guards():
    out = embed_boundary("chebyshev", 3, 1, 0, "plus", 7.0)
    assert out[3] == 7.0 and np.count_nonzero(out) == 1
    assert np.array_equal(embed_boundary("chebyshev", 3, 2, 1, "minus", None), np.zeros(16))
    with pytest.raises(ParameterError):
        embed_boundary("chebyshev", 3, 1, 0, "up", 7.0)
    with pytest.raises(ParameterError):
        embed_boundary("chebyshev", 3, 2, 2, "plus", np.zeros(4))
    with pytest.raises(ParameterError):
        embed_boundary("chebyshev", 3, 2, 0, "plus", np.zeros(3))


def closure_mask(basis, n, d):
    bset = list(boundary_row_indices(basis, n))
    N = n + 1
    grids = np.meshgrid(*[np.arange(N)] * d, indexing="ij")
    mask = np.zeros(N ** d, dtype=bool)
    for g in grids:
        mask |= np.isin(g.reshape(-1), bset)
    return mask


@pytest.mark.parametrize("basis", ["fourier", "chebyshev"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(2, 6), st.integers(0, 2 ** 32 - 1), st.data())
def test_assembled_operator_matches_dense_formula(basis, d, n, seed, data):
    # some off-diagonal pairs are zeroed, so their mixed term is skipped
    A = random_gdd(np.random.default_rng(seed), d)
    for j1, j2 in combinations(range(d), 2):
        if data.draw(st.booleans()):
            A[j1, j2] = A[j2, j1] = 0.0
    N = n + 1
    system = assemble_system(A, basis, n, np.zeros(N ** d))
    Dc = diff_matrix(basis, 2, n, with_boundary_rows=True).toarray()
    D1 = diff_matrix(basis, 1, n).toarray()

    def on(axes, D):
        return reduce(np.kron, [D if a in axes else np.eye(N) for a in range(d)])

    expected = sum(A[j, j] * on({j}, Dc) for j in range(d))
    # Chebyshev closure rows drop the mixed terms; Fourier ones keep them
    keep = np.diag((~closure_mask(basis, n, d) | (basis == "fourier")).astype(float))
    for j1, j2 in combinations(range(d), 2):
        expected = expected + keep @ ((A[j1, j2] + A[j2, j1]) * on({j1, j2}, D1))
    assert np.allclose(system.L.toarray(), expected, atol=1e-13)
    assert system.size == N ** d
    assert system.gdd["accepted"] is True


def fold_operator(A, basis, n, closure="axes"):
    """L as the fold-based assembly built it, kept as assemble_system's oracle: the
    pure part an sp.kronsum fold (of the open block under point/pin), the Chebyshev
    mixed terms masked by a diagonal product and the point/pin row set by a second one."""
    d, N = A.shape[0], n + 1
    closed = np.isin(np.arange(N), boundary_row_indices(basis, n))
    closed = sum(np.reshape(closed, [-1 if a == j else 1 for a in range(d)])
                 for j in range(d)).reshape(-1)
    mixed = None
    for j1, j2 in combinations(range(d), 2):
        w = A[j1, j2] + A[j2, j1]
        if w != 0:
            term = w * multi_diff([int(a in (j1, j2)) for a in range(d)], basis, n, d)
            mixed = term if mixed is None else mixed + term
    B = diff_matrix(basis, 2, n, with_boundary_rows=closure == "axes")
    blocks = [A[j, j] * B for j in range(d)]
    L = reduce(lambda acc, b: sp.kronsum(b, acc, format="csr"), blocks[1:],
               sp.csr_matrix(blocks[0]))
    if mixed is not None:
        L = L + (sp.diags((closed == 0).astype(float)) @ mixed if basis == "chebyshev" else mixed)
    if closure in ("point", "pin"):
        center = np.ravel_multi_index([n // 2] * d, [N] * d)
        cols = np.arange(N ** d) if closure == "point" else np.array([center])
        row = sp.csr_matrix((np.ones(cols.size), (np.full(cols.size, center), cols)),
                            shape=L.shape)
        L = sp.diags((np.arange(N ** d) != center).astype(float)) @ L + row
    return L.tocsr()


def coefficient_draws(rng, d):
    """The identity, a GDD matrix, a negated one and one with a mixed pair zeroed."""
    zeroed = random_gdd(rng, d)
    if d > 1:
        zeroed[0, 1] = zeroed[1, 0] = 0.0
    return [np.eye(d), random_gdd(rng, d), -random_gdd(rng, d), zeroed]


@pytest.mark.parametrize("basis, closure", [("fourier", "axes"), ("fourier", "point"),
                                            ("fourier", "pin"), ("chebyshev", "axes")])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_operator_stores_the_bits_of_the_fold_assembly(basis, closure, d):
    # L's storage order and every value bit decide L @ c, so each residual and kappa
    rng = np.random.default_rng(d)
    for n in range(2, 13):
        for A in coefficient_draws(rng, d):
            system = assemble_system(A, basis, n, np.ones((n + 1) ** d), closure=closure)
            assert_same_csr(system.L, fold_operator(A, basis, n, closure))


@pytest.mark.parametrize("basis, d, n", [("chebyshev", 2, 32), ("chebyshev", 2, 48),
                                         ("chebyshev", 3, 10), ("chebyshev", 3, 12),
                                         ("fourier", 2, 64), ("fourier", 2, 96)])
def test_operator_of_the_benchmark_sizes_stores_the_fold_bits(basis, d, n):
    for A in coefficient_draws(np.random.default_rng(n), d):
        system = assemble_system(A, basis, n, np.ones((n + 1) ** d))
        assert_same_csr(system.L, fold_operator(A, basis, n))


def test_rhs_layout_chebyshev():
    n, d = 2, 2
    N = n + 1
    fhat = np.arange(1.0, 10.0)
    gp0, gm0 = np.full(3, 10.0), np.full(3, 20.0)
    gp1, gm1 = np.full(3, 40.0), np.full(3, 80.0)
    A = np.diag([2.0, 3.0])
    system = assemble_system(A, "chebyshev", n, fhat,
                             boundary=[(gp0, gm0), (gp1, gm1)])
    rhs = system.rhs.reshape(N, N)
    bset = {n, n - 1}
    for k0 in range(N):
        for k1 in range(N):
            want = 0.0 if (k0 in bset and k1 in bset) else fhat.reshape(N, N)[k0, k1]
            if k0 == n:
                want += 2.0 * 10.0
            if k0 == n - 1:
                want += 2.0 * 20.0
            if k1 == n:
                want += 3.0 * 40.0
            if k1 == n - 1:
                want += 3.0 * 80.0
            assert rhs[k0, k1] == pytest.approx(want)
    assert system.rhs.dtype == np.float64  # real data stays real


def test_small_imaginary_chebyshev_rhs_stays_complex():
    # an imaginary part below np.allclose's absolute 1e-8 is still data
    system = assemble_system(np.eye(1), "chebyshev", 4, np.ones(5) + 1e-9j)
    assert np.iscomplexobj(system.rhs)
    assert np.abs(solve_system(system).coeffs.imag).max() > 0


def test_rhs_layout_fourier():
    n, d = 2, 2
    N = n + 1
    m = n // 2
    fhat = np.arange(1.0, 10.0)
    g0 = np.full(3, 10.0)
    g1 = np.full(3, 40.0)
    A = np.diag([2.0, 3.0])
    system = assemble_system(A, "fourier", n, fhat, boundary=[(g0, None), (g1, None)])
    rhs = system.rhs.reshape(N, N)
    for k0 in range(N):
        for k1 in range(N):
            want = 0.0 if (k0 == m and k1 == m) else fhat.reshape(N, N)[k0, k1]
            if k0 == m:
                want += 2.0 * 10.0
            if k1 == m:
                want += 3.0 * 40.0
            assert rhs[k0, k1] == pytest.approx(want)


def test_fourier_rejects_minus_face_data():
    fhat = np.zeros(9)
    with pytest.raises(ParameterError):
        assemble_system(np.eye(2), "fourier", 2, fhat,
                        boundary=[(np.zeros(3), np.zeros(3)), (np.zeros(3), None)])


def test_point_and_pin_closures():
    n = 4
    N = n + 1
    m = n // 2
    fhat = np.arange(1.0, N + 1.0)
    sys_point = assemble_system(np.eye(1), "fourier", n, fhat, closure="point", point_value=3.0)
    row = sys_point.L.toarray()[m]
    assert np.allclose(row.real, np.ones(N)) and np.allclose(row.imag, 0.0)
    assert sys_point.rhs[m] == 3.0
    sys_pin = assemble_system(np.eye(1), "fourier", n, fhat, closure="pin", point_value=2.0)
    row = sys_pin.L.toarray()[m]
    want = np.zeros(N)
    want[m] = 1.0
    assert np.allclose(row, want)
    assert sys_pin.rhs[m] == 2.0
    assert sys_point.q is None and sys_pin.q is None
    with pytest.raises(ParameterError):
        assemble_system(np.eye(1), "chebyshev", n, fhat, closure="point")
    with pytest.raises(ParameterError):
        assemble_system(np.eye(1), "fourier", n, fhat, closure="corner")


def test_closed_blocks_and_point_rows_build_without_lil(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lil format used")
    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.dia_matrix):
        monkeypatch.setattr(cls, "tolil", refuse)
    monkeypatch.setattr(sp, "lil_matrix", refuse)
    monkeypatch.setattr(sp, "lil_array", refuse)
    for basis in ("fourier", "chebyshev"):
        assert diff_matrix(basis, 2, 6, with_boundary_rows=True).nnz > 0
    for closure in ("point", "pin"):
        for d in (1, 2):
            system = assemble_system(np.eye(d), "fourier", 4, np.ones(5 ** d), closure=closure)
            assert system.L.shape == (5 ** d, 5 ** d)


def test_assembly_guards():
    with pytest.raises(ParameterError):
        assemble_system(np.eye(2), "fourier", 2, np.zeros(8))  # wrong fhat length
    with pytest.raises(ParameterError):
        assemble_system(np.eye(2), "legendre", 2, np.zeros(9))
    with pytest.raises(BudgetExceeded):
        # a diagonal A builds no mixed term, so this guard is assembly's own
        assemble_system(np.eye(3), "chebyshev", 51, np.zeros(52 ** 3))


@pytest.mark.parametrize("case", ["A", "fhat", "boundary", "point_value"])
def test_non_finite_input_rejected(case):
    face = np.ones(4)
    args = {"A": np.eye(2), "basis": "chebyshev", "n": 3, "fhat": np.ones(16),
            "boundary": [(face, face), (face, face)]}
    if case == "A":
        args["A"] = np.diag([1.0, np.nan])
    elif case == "fhat":
        args["fhat"] = np.full(16, np.nan)
    elif case == "boundary":
        args["boundary"] = [(face, face), (face, np.full(4, np.inf))]
    else:
        args.update(basis="fourier", boundary=None, closure="point", point_value=np.nan)
    with pytest.raises(ParameterError, match="non-finite"):
        assemble_system(**args)


def q_oracle(fhat, plus, minus):
    """Direct scalar summation over every coefficient."""
    num = 0.0
    den = 0.0
    for gp, gm in zip(plus, minus):
        for a, b, c in zip(fhat, gp, gm):
            num += abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2
            den += abs(a + b + c) ** 2
    return math.sqrt(num / den)


def test_q_matches_direct_summation(rng):
    for _ in range(25):
        size = int(rng.integers(2, 30))
        d = int(rng.integers(1, 4))
        fhat = rng.normal(size=size) + 1j * rng.normal(size=size)
        plus = [rng.normal(size=size) + 1j * rng.normal(size=size) for _ in range(d)]
        minus = [rng.normal(size=size) + 1j * rng.normal(size=size) for _ in range(d)]
        q, prob = state_prep_q(fhat, plus, minus)
        assert q == pytest.approx(q_oracle(fhat, plus, minus), abs=1e-12)
        assert prob == pytest.approx(1.0 / q ** 2, rel=1e-14)
        assert q >= 1.0 / math.sqrt(3.0) - 1e-12  # three aligned families at worst


def test_q_is_one_for_homogeneous_boundaries():
    fhat = np.array([1.0 + 2.0j, -0.5, 3.0])
    zeros = [np.zeros(3)]
    q, prob = state_prep_q(fhat, zeros, [np.zeros(3)])
    assert q == 1.0 and prob == 1.0
    system = assemble_system(np.eye(1), "fourier", 2, np.ones(3))
    assert system.q == 1.0


def test_q_degenerate_cases():
    with pytest.raises(DegenerateRhs):
        state_prep_q(np.zeros(3), [np.zeros(3)], [np.zeros(3)])
    with pytest.raises(DegenerateRhs):
        state_prep_q(np.array([1.0, 0.0]), [np.array([-1.0, 0.0])], [np.zeros(2)])


def test_system_q_matches_oracle(rng):
    n, d = 3, 2
    N = n + 1
    fhat = rng.normal(size=N * N)
    gp0, gm0 = rng.normal(size=N), rng.normal(size=N)
    gp1, gm1 = rng.normal(size=N), rng.normal(size=N)
    A = np.diag([2.0, 1.5])
    system = assemble_system(A, "chebyshev", n, fhat,
                             boundary=[(gp0, gm0), (gp1, gm1)])
    plus = [2.0 * embed_boundary("chebyshev", n, d, 0, "plus", gp0),
            1.5 * embed_boundary("chebyshev", n, d, 1, "plus", gp1)]
    minus = [2.0 * embed_boundary("chebyshev", n, d, 0, "minus", gm0),
             1.5 * embed_boundary("chebyshev", n, d, 1, "minus", gm1)]
    assert system.q == pytest.approx(q_oracle(fhat, plus, minus), abs=1e-12)


def test_condition_report_against_dense_svd():
    system = assemble_system(np.eye(2), "fourier", 4, np.zeros(25))
    rep = condition_report(system)
    sv = np.linalg.svd(system.L.toarray(), compute_uv=False)
    assert rep["sigma_max"] == pytest.approx(sv[0], rel=1e-12)
    assert rep["sigma_min"] == pytest.approx(sv[-1], rel=1e-12)
    assert rep["kappa"] == pytest.approx(sv[0] / sv[-1], rel=1e-12)
    assert rep["bound_poisson"] == (2 * 4) ** 4
    assert rep["within_poisson"] is True


def dense_singular_values(system):
    return np.linalg.svd(system.L.toarray(), compute_uv=False)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(spectral_systems())
def test_condition_report_matches_dense_svd_oracle(system):
    rep = condition_report(system)
    sv = dense_singular_values(system)
    if sv[-1] < 1e-10 * sv[0]:
        # the dense sigma_min is rounding there; both must still read out of bounds
        kappa = sv[0] / sv[-1]
        assert rep["within_poisson"] == (kappa <= rep["bound_poisson"])
        assert rep["within_general"] == (kappa <= rep["bound_general"])
        return
    assert rep["sigma_max"] == pytest.approx(sv[0], rel=1e-10)
    assert rep["sigma_min"] == pytest.approx(sv[-1], rel=1e-10)
    assert rep["kappa"] == pytest.approx(sv[0] / sv[-1], rel=1e-10)


@pytest.mark.parametrize("basis, n", [("fourier", 1), ("fourier", 2), ("chebyshev", 2)])
def test_condition_report_of_the_smallest_systems(basis, n):
    # two and three rows: ARPACK's complex Arnoldi needs three, the real form any size
    system = assemble_system(np.diag([1.3]), basis, n, np.zeros(n + 1))
    rep = condition_report(system)
    sv = dense_singular_values(system)
    assert rep["sigma_max"] == pytest.approx(sv[0], rel=1e-12)
    assert rep["sigma_min"] == pytest.approx(sv[-1], rel=1e-12)
    assert rep["kappa"] == pytest.approx(sv[0] / sv[-1], rel=1e-12)


def test_condition_report_repeats_bit_for_bit():
    A = random_gdd(np.random.default_rng(11), 2)
    for basis in ("fourier", "chebyshev"):
        system = assemble_system(A, basis, 12, np.zeros(13 ** 2))
        assert condition_report(system) == condition_report(system)


def test_condition_report_of_an_exactly_singular_factor():
    system = assemble_system(np.diag([1.0, 2.0]), "chebyshev", 5, np.zeros(36))
    keep = np.ones(36)
    keep[14] = 0.0
    system.L = (sp.diags(keep) @ system.L).tocsr()
    rep = condition_report(system)
    assert rep["method"] == "singular"
    assert rep["sigma_min"] == 0.0 and rep["kappa"] == math.inf and rep["lu_nnz"] is None
    assert rep["sigma_max"] == pytest.approx(dense_singular_values(system)[0], rel=1e-12)
    assert rep["within_poisson"] is False and rep["within_general"] is False


def test_condition_report_needs_no_dense_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.svd called")
    A = random_gdd(np.random.default_rng(2), 2)
    system = assemble_system(A, "chebyshev", 16, np.zeros(17 ** 2))
    want = dense_singular_values(system)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    rep = condition_report(system)
    assert rep["kappa"] == pytest.approx(want[0] / want[-1], rel=1e-10)
    assert rep["method"] == "lanczos-splu" and rep["lu_nnz"] >= system.L.nnz


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2 ** 32 - 1), st.data())
def test_pure_part_reports_from_the_eigenbasis(d, seed, data):
    # a Chebyshev L = kron_sum([A_jj B]): L^-1 and L^-H are the solve's own eig form
    n = data.draw(st.integers(2, (12, 6)[d - 2]))
    A = np.diag(np.random.default_rng(seed).uniform(0.5, 2.0, size=d))
    system = assemble_system(A, "chebyshev", n, np.zeros((n + 1) ** d))
    want = dense_singular_values(system)
    rep = condition_report(system)
    assert rep["method"] == "lanczos-eig" and rep["lu_nnz"] is None
    assert rep["kappa"] == pytest.approx(want[0] / want[-1], rel=1e-10)
    assert rep["sigma_min"] == pytest.approx(want[-1], rel=1e-10)


def splu_cases():
    """Systems whose report keeps the sparse LU, by name."""
    rng = np.random.default_rng(5)
    replaced = assemble_system(np.diag([1.0, 2.0]), "chebyshev", 6, np.zeros(49))
    replaced.L = (replaced.L + sp.identity(49, format="csr")).tocsr()
    return {
        "mixed": assemble_system(random_gdd(rng, 2), "chebyshev", 8, np.zeros(81)),
        "point": assemble_system(np.diag([1.0, 1.5]), "fourier", 6, np.zeros(49),
                                 closure="point"),
        "pin": assemble_system(np.diag([1.0, 1.5]), "fourier", 6, np.zeros(49), closure="pin"),
        "d1-fourier": assemble_system(np.diag([1.3]), "fourier", 8, np.zeros(9)),
        "d1-chebyshev": assemble_system(np.diag([1.3]), "chebyshev", 8, np.zeros(9)),
        # the solve takes the substitution, so the report keeps the sparse LU
        "fourier-diagonal": assemble_system(np.diag([1.0, 1.5]), "fourier", 8, np.zeros(81)),
        "replaced-L": replaced,
    }


@pytest.mark.parametrize("case", sorted(splu_cases()))
def test_reports_off_the_pure_part_keep_the_sparse_lu(case):
    system = splu_cases()[case]
    rep = condition_report(system)
    want = dense_singular_values(system)
    assert rep["method"] == "lanczos-splu" and rep["lu_nnz"] >= system.L.nnz
    assert rep["kappa"] == pytest.approx(want[0] / want[-1], rel=1e-10)


def test_condition_report_refuses_above_dense_limit(monkeypatch):
    system = assemble_system(np.eye(1), "fourier", 6, np.zeros(7))
    monkeypatch.setattr(spectral_system, "DENSE_LIMIT", 7)
    assert condition_report(system)["kappa"] > 1.0
    monkeypatch.setattr(spectral_system, "DENSE_LIMIT", 6)
    with pytest.raises(BudgetExceeded, match="7 rows"):
        condition_report(system)


def test_chebyshev_triple_product_singularity(monkeypatch):
    # the closed operator has a zero Kronecker-sum eigenvalue at n = 2, d = 3, and L is that
    # pure part: the eigenbasis is refused as singular to rounding, and that verdict is L's,
    # so no sparse LU runs to read a rounding-level sigma_min instead
    def refuse(*args, **kwargs):
        raise AssertionError("splu called")
    system = assemble_system(np.eye(3), "chebyshev", 2, np.zeros(27))
    monkeypatch.setattr(spla, "splu", refuse)
    rep = condition_report(system)
    assert rep["method"] == "singular"
    assert rep["sigma_min"] == 0.0 and rep["kappa"] == math.inf and rep["lu_nnz"] is None
    assert rep["within_poisson"] is False


def test_general_bound_uses_gdd_margin():
    A = np.array([[2.0, 0.2], [0.1, 3.0]])
    system = assemble_system(A, "fourier", 4, np.zeros(25))
    rep = condition_report(system)
    g = system.gdd
    want = g["norm_sigma"] / (g["C"] * g["norm_star"]) * (2 * 4) ** 4
    assert rep["bound_general"] == pytest.approx(want)
    assert rep["within_general"] is True


@pytest.mark.parametrize("n, want", [(9, 2.999), (10, 1.806e-2), (11, 8.530)])
def test_min_eig_sum_flags_the_near_singular_order(n, want):
    # the pure part's smallest |sum_j A_jj lam_j| collapses at n = 10, where kappa is 6.5e7
    A = np.diag([0.629, 1.857, 0.971])
    system = assemble_system(A, "chebyshev", n, np.zeros((n + 1) ** 3))
    assert min_eig_sum(system) == pytest.approx(want, rel=1e-3)


@pytest.mark.parametrize("basis, n, d", [("chebyshev", 5, 3), ("chebyshev", 9, 2),
                                         ("fourier", 6, 2), ("fourier", 4, 3)])
def test_min_eig_sum_is_the_smallest_eigenvalue_of_the_pure_part(basis, n, d):
    # of the pure part for Chebyshev, and of L itself for Fourier, whose pivots are divided by
    A = random_gdd(np.random.default_rng(n + d), d)
    system = assemble_system(A, basis, n, np.zeros((n + 1) ** d))
    B = diff_matrix(basis, 2, n, with_boundary_rows=True)
    pure = kron_sum([A[j, j] * B for j in range(d)]).toarray()
    dense = system.L.toarray() if basis == "fourier" else pure
    assert min_eig_sum(system) == pytest.approx(np.abs(np.linalg.eigvals(dense)).min(), rel=1e-8)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(spectral_systems())
def test_min_eig_sum_matches_the_dense_spectrum(system):
    # Fourier under every closure: L's own spectrum; Chebyshev: that of the pure part
    if system.basis == "fourier":
        dense = system.L.toarray()
    else:
        dense = kron_sum([w * system.block for w in np.diag(system.A)]).toarray()
    lam = np.abs(np.linalg.eigvals(dense))
    assert abs(min_eig_sum(system) - lam.min()) <= 1e-9 * lam.max()


@pytest.mark.parametrize("closure", ["point", "pin"])
@pytest.mark.parametrize("a", [np.pi ** 2, 9.8696])
def test_min_eig_sum_of_point_and_pin_closures_is_that_of_l(closure, a):
    # the closed block's pure part has a ~0 eigenvalue a - pi^2 here, but L sums the open
    # block: its least |eigenvalue| is the centre row's pivot 1
    system = assemble_system(np.diag([a, 1.0]), "fourier", 8, np.ones(81), closure=closure)
    assert min_eig_sum(system) == 1.0


@pytest.mark.parametrize("basis", ["fourier", "chebyshev"])
def test_the_spectrum_of_the_inverse_is_read_only(basis):
    # the memo serves every later solve and report of the system: it cannot be written into
    system = assemble_system(np.diag([1.0, 1.5]), basis, 6, np.ones(49))
    spectrum = system.inverse[3]
    with pytest.raises(ValueError, match="read-only"):
        spectrum[...] = 0.0
    assert min_eig_sum(system) > 0.0 and solve_system(system).residual <= 1e-12


@settings(derandomize=True, max_examples=30, deadline=None)
@given(spectral_systems())
def test_system_stores_the_closed_block_it_is_built_from(system):
    want = diff_matrix(system.basis, 2, system.n, with_boundary_rows=True)
    assert_same_csr(system.block, want)


def test_min_eig_sum_refuses_a_block_above_dense_limit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigvals called")
    system = assemble_system(np.eye(1), "chebyshev", 6, np.zeros(7))
    monkeypatch.setattr(spectral_system, "DENSE_LIMIT", 6)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    with pytest.raises(BudgetExceeded, match="7 rows"):
        min_eig_sum(system)


def test_condition_report_carries_min_eig_sum():
    system = assemble_system(np.diag([1.0, 2.0]), "fourier", 4, np.zeros(25))
    assert condition_report(system)["min_eig_sum"] == min_eig_sum(system)


def test_mixed_term_over_nnz_budget_is_refused_before_it_is_built():
    # 2 x 362^2 rows pass SYSTEM_BUDGET, but kron(D1, D1) would hold about 1.1e9 nonzeros
    A = random_gdd(np.random.default_rng(0), 2)
    with pytest.raises(BudgetExceeded, match="NNZ_BUDGET"):
        assemble_system(A, "chebyshev", 361, np.zeros(362 ** 2))
