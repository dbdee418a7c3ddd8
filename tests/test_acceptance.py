"""Acceptance gate: every quantitative contract, one reported line each.

Each criterion test appends a line with its measured values to the
terminal summary (see conftest) and asserts both the criterion and its
runtime budget.  A line reads PASS when the stated bound holds and FAIL
when an assertion does not.  It reads REFUTED when the stated bound is
violated and every violation is certified in exact rational arithmetic:
the Chebyshev conditioning claims (C5b, C5d) do not hold for the operators
this library builds, so those tests assert the proof of each violation,
with the bounds unchanged, and report the measured margins.
"""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, fit_slope
from pdekit.expressions import derivative_sup_bound
from pdekit.fdm import FdmProblem, assemble, convergence_rows, error_report, solve
from pdekit.golden import GOLDEN_NAMES, compare_goldens
from pdekit.laplacian import (
    build_circulant,
    condition_number,
    kronecker_sum,
    spectral_norm,
)
from pdekit.solver import solve_manufactured
from pdekit.spectral_ops import diff_matrix, gdd_check, random_gdd
from pdekit.spectral_system import (
    assemble_system,
    choose_truncation,
    condition_report,
    state_prep_q,
)
from pdekit.stencil import make_stencil, second_moment
from pdekit.transforms import (
    alternating_phase,
    centering_phase,
    cyclic_permutation,
    dft_matrix,
    qct_matrix,
    qsft_matrix,
    twiddle_phase,
)

SEED = 20260814


def record(tag, label, ok, detail, elapsed, budget, refuted=False):
    status = "FAIL" if not ok else "REFUTED" if refuted else "PASS"
    ACCEPTANCE_LINES.append(
        f"{tag:<4} {label:<44} {status}  {detail}  [{elapsed:.2f}s]")
    assert elapsed < budget, f"{tag} took {elapsed:.2f}s, budget {budget}s"


def test_c1_golden_tables():
    t0 = time.perf_counter()
    results = compare_goldens()
    ok = all(r["ok"] for r in results)
    bad = [r["name"] for r in results if not r["ok"]]
    detail = (f"{sum(r['ok'] for r in results)}/{len(GOLDEN_NAMES)} match "
              "(integers exact, pi entries <=1e-12)")
    record("C1", "golden matrices", ok, detail, time.perf_counter() - t0, 1.0)
    assert ok, f"mismatched goldens: {bad}"


def test_c2_stencil_identities():
    t0 = time.perf_counter()
    worst = Fraction(0)
    for k in range(1, 31):
        s = make_stencil(k)
        assert all(isinstance(c, Fraction) for c in s.exact)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            symbol = build_circulant(s, k + 1).symbol
        assert all(symbol[j] == symbol[-j] for j in range(1, symbol.size))
        assert s.exact[0] + 2 * sum(s.exact[1:]) == 0
        # the printed identity carries a minus sign; with this sign
        # convention (positive center falls out of -u'' ~ +1) the exact
        # weighted moment is +1, and that is what the closed form gives
        assert second_moment(s) == 1
        for j in range(1, k + 1):
            assert abs(s.exact[j]) <= Fraction(2, j * j)
            worst = max(worst, abs(s.exact[j]) / Fraction(2, j * j))
    detail = f"k=1..30 exact rational, decay margin <= {float(worst):.3f}"
    record("C2", "stencil identities", True, detail,
           time.perf_counter() - t0, 1.0)


def test_c3_lattice_conditioning():
    t0 = time.perf_counter()
    c1, c2 = 1.0 / 3.0, 3.0 / 4.0
    norm_cap = 4.0 * math.pi ** 2 / 3.0
    ratios, norms = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for d in (1, 2, 3):
            for k in (1, 2, 4):
                for n in (8, 16, 32, 64, 128):
                    op = kronecker_sum(build_circulant(make_stencil(k), n), d)
                    ratios.append(condition_number(op) / (d * n * n))
                    norms.append(spectral_norm(op) / d)
    ok = (all(c1 <= r <= c2 for r in ratios)
          and all(v <= norm_cap for v in norms))
    detail = (f"kappa/(d n^2) in [{min(ratios):.4f}, {max(ratios):.4f}] "
              f"within [1/3, 3/4]; per-axis norm <= {max(norms):.4f} "
              f"(cap {norm_cap:.4f})")
    record("C3", "lattice kappa and norm windows", ok, detail,
           time.perf_counter() - t0, 30.0)
    assert ok, detail


def test_c4_spectral_singular_values():
    t0 = time.perf_counter()
    margins = {"fourier": 0.0, "chebyshev": 0.0}
    floors = {"fourier": math.inf, "chebyshev": math.inf}
    ok = True
    for n in range(4, 65):
        for basis in ("fourier", "chebyshev"):
            M = diff_matrix(basis, 2, n, with_boundary_rows=True).dense()
            sv = np.linalg.svd(M, compute_uv=False)
            if basis == "fourier":
                hi, lo = (2.0 * n) ** 2.5, 1.0 / math.sqrt(2.0)
            else:
                hi, lo = float(n) ** 4, 1.0 / 16.0
            ok = ok and sv[0] <= hi and sv[-1] >= lo
            margins[basis] = max(margins[basis], sv[0] / hi)
            floors[basis] = min(floors[basis], sv[-1] / lo)
    detail = (f"n=4..64 sigma_max/bound <= {margins['fourier']:.3f} (fourier) "
              f"{margins['chebyshev']:.3f} (cheb); sigma_min/floor >= "
              f"{floors['fourier']:.3f} / {floors['chebyshev']:.3f}")
    record("C4", "closed derivative-squared SVD bounds", ok, detail,
           time.perf_counter() - t0, 30.0)
    assert ok, detail


def exact_vector(v):
    """The float entries of v as exact fractions."""
    return [Fraction(float(t)) for t in v]


def exact_matvec(L, x):
    """L @ x over Fraction, with the stored float entries of sparse L."""
    L = L.tocsr()
    data = exact_vector(L.data)
    return [sum((data[k] * x[L.indices[k]]
                 for k in range(L.indptr[i], L.indptr[i + 1])), Fraction(0))
            for i in range(L.shape[0])]


def sq_norm(v):
    return sum((t * t for t in v), Fraction(0))


def exact_det(M):
    """Determinant of a dense float matrix by Gaussian elimination over Fraction."""
    a = [exact_vector(row) for row in M]
    det = Fraction(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            if f != 0:
                a[r] = [u - f * v for u, v in zip(a[r], a[c])]
    return det


def kappa_exceeds(L, bound):
    """True if an exact lower bound on kappa(L) is above bound.

    ||Lx||/||x|| <= sigma_max and ||Ly||/||y|| >= sigma_min for all nonzero
    x, y, so their quotient bounds kappa from below.  x and y are the float
    SVD's extreme right singular vectors, taken as exact fractions; the
    squared quotient is compared with bound^2 without rounding.
    """
    vh = np.linalg.svd(L.toarray())[2]
    x, y = exact_vector(vh[0]), exact_vector(vh[-1])
    lower_sq = (sq_norm(exact_matvec(L, x)) * sq_norm(y)
                / (sq_norm(x) * sq_norm(exact_matvec(L, y))))
    return lower_sq > Fraction(bound) ** 2


def poisson_kappa_sweep(basis):
    """(d, n, system, condition report) for the d=1..3, n=2..8 Poisson systems."""
    cases = []
    for d in (1, 2, 3):
        for n in range(2, 9):
            system = assemble_system(np.eye(d), basis, n,
                                     np.zeros((n + 1) ** d))
            cases.append((d, n, system, condition_report(system)))
    return cases


def worst_poisson_margin(cases):
    return max(rep["kappa"] / rep["bound_poisson"] for *_, rep in cases)


def test_c5a_poisson_kappa_fourier():
    t0 = time.perf_counter()
    cases = poisson_kappa_sweep("fourier")
    ok = all(rep["within_poisson"] for *_, rep in cases)
    detail = f"d=1..3 n=2..8: kappa/(2n)^4 <= {worst_poisson_margin(cases):.3e}"
    record("C5a", "poisson kappa fourth-power bound (fourier)", ok, detail,
           time.perf_counter() - t0, 30.0)
    assert ok, detail


def test_c5b_poisson_kappa_chebyshev():
    t0 = time.perf_counter()
    cases = poisson_kappa_sweep("chebyshev")
    # d = 1: C4's envelope sigma_max <= n^4, sigma_min >= 1/16 gives
    # kappa <= 16 n^4 = (2n)^4, so the bound must hold there
    d1_ok = all(rep["within_poisson"] for d, _, _, rep in cases if d == 1)
    # d = 3, n = 2: the closed block [[0,0,4],[1,-1,1],[1,1,1]] has trace 0,
    # so the sum of its three eigenvalues is an exact zero eigenvalue of L
    singular = next(system for d, n, system, _ in cases if (d, n) == (3, 2))
    singular_ok = exact_det(singular.dense()) == 0
    flagged = [(d, n, system, rep) for d, n, system, rep in cases
               if not rep["within_poisson"]]
    certified = sum(
        singular_ok if (d, n) == (3, 2)
        else kappa_exceeds(system.L, rep["bound_poisson"])
        for d, n, system, rep in flagged)
    ok = d1_ok and singular_ok and certified == len(flagged)
    detail = (f"d=1..3 n=2..8: kappa/(2n)^4 reaches "
              f"{worst_poisson_margin(cases):.3e}; {certified}/{len(flagged)} "
              f"violations certified (det L {'=' if singular_ok else '!='} 0 "
              f"at d=3 n=2)")
    record("C5b", "poisson kappa fourth-power bound (chebyshev)", ok, detail,
           time.perf_counter() - t0, 30.0, refuted=bool(flagged))
    assert d1_ok, detail
    assert singular_ok, "d=3 n=2 Chebyshev L is not exactly singular"
    assert certified == len(flagged), detail


def gdd_sweep(basis, trials=50):
    """Per seeded GDD operator: L, its diagonal part L1, L2 L1^{-1} and margins."""
    rng = np.random.default_rng(SEED)
    draws = []
    for _ in range(trials):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(3, 7)) if d == 2 else int(rng.integers(2, 5))
        A = random_gdd(rng, d)
        info = gdd_check(A)
        assert info["accepted"]
        zero = np.zeros((n + 1) ** d)
        system = assemble_system(A, basis, n, zero)
        pure = assemble_system(np.diag(np.diag(A)), basis, n, zero).L
        dense_pure = pure.toarray()
        mixed = system.L.toarray() - dense_pure
        M = np.linalg.solve(dense_pure.T, mixed.T).T
        ratio = np.linalg.norm(M, 2)
        draws.append({"C": info["C"], "L": system.L, "L1": pure, "M": M,
                      "rep": condition_report(system), "ratio": ratio,
                      "within_pert": ratio <= 1.0 - info["C"] + 1e-12})
    return draws


def gdd_margins(draws):
    ok_kappa = sum(bool(dr["rep"]["within_general"]) for dr in draws)
    ok_pert = sum(bool(dr["within_pert"]) for dr in draws)
    worst_kappa = max(dr["rep"]["kappa"] / dr["rep"]["bound_general"]
                      for dr in draws)
    worst_pert = max(dr["ratio"] / (1.0 - dr["C"]) for dr in draws)
    return ok_kappa, ok_pert, worst_kappa, worst_pert


def cross_term_exceeds(dr):
    """True if ||L2 w||^2 > (1-C)^2 ||L1 w||^2 in exact arithmetic.

    w = L1^{-1} z with z the top right singular vector of L2 L1^{-1}, so
    ||L2 w|| / ||L1 w|| is close to ||L2 L1^{-1}||, and any w for which the
    inequality holds proves ||L2 L1^{-1}|| > 1-C.  L2 is L - L1 exactly.
    """
    z = np.linalg.svd(dr["M"])[2][0]
    w = exact_vector(np.linalg.solve(dr["L1"].toarray(), z))
    Lw, L1w = exact_matvec(dr["L"], w), exact_matvec(dr["L1"], w)
    L2w = [a - b for a, b in zip(Lw, L1w)]
    return sq_norm(L2w) > (1 - Fraction(dr["C"])) ** 2 * sq_norm(L1w)


def test_c5c_gdd_kappa_fourier():
    t0 = time.perf_counter()
    draws = gdd_sweep("fourier")
    trials = len(draws)
    ok_kappa, ok_pert, worst_kappa, worst_pert = gdd_margins(draws)
    ok = ok_kappa == trials and ok_pert == trials
    detail = (f"{trials} seeded operators: kappa margin <= {worst_kappa:.3e}, "
              f"cross-term margin <= {worst_pert:.3f}")
    record("C5c", "random GDD kappa and cross-term (fourier)", ok, detail,
           time.perf_counter() - t0, 60.0)
    assert ok, detail


def test_c5d_gdd_kappa_chebyshev():
    t0 = time.perf_counter()
    draws = gdd_sweep("chebyshev")
    trials = len(draws)
    ok_kappa, ok_pert, worst_kappa, worst_pert = gdd_margins(draws)
    kappa_certified = sum(
        kappa_exceeds(dr["L"], dr["rep"]["bound_general"])
        for dr in draws if not dr["rep"]["within_general"])
    pert_certified = sum(cross_term_exceeds(dr)
                         for dr in draws if not dr["within_pert"])
    # where ||L2 L1^{-1}|| <= 1-C holds (up to the 1e-12 slack),
    # L = (I + L2 L1^{-1}) L1 and the Neumann series give
    # sigma_min(L) >= (1 - ||L2 L1^{-1}||) sigma_min(L1) >= C sigma_min(L1)
    neumann_ok = all(
        dr["rep"]["sigma_min"] >= (dr["C"] - 1e-12)
        * np.linalg.svd(dr["L1"].toarray(), compute_uv=False)[-1]
        for dr in draws if dr["within_pert"])
    ok = (kappa_certified == trials - ok_kappa
          and pert_certified == trials - ok_pert and neumann_ok)
    detail = (f"{trials} seeded operators: kappa within bound {ok_kappa}/{trials} "
              f"(worst {worst_kappa:.2e}), cross-term within 1-C "
              f"{ok_pert}/{trials} (worst {worst_pert:.2e}); violations "
              f"certified {kappa_certified}/{trials - ok_kappa} and "
              f"{pert_certified}/{trials - ok_pert}")
    record("C5d", "random GDD kappa and cross-term (chebyshev)", ok, detail,
           time.perf_counter() - t0, 60.0,
           refuted=ok_kappa < trials or ok_pert < trials)
    assert kappa_certified == trials - ok_kappa, detail
    assert pert_certified == trials - ok_pert, detail
    assert neumann_ok, "sigma_min(L) < C sigma_min(L1) where the cross-term bound holds"


def test_c6_transform_factorizations():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 64):
        F = dft_matrix(n)
        Fs = qsft_matrix(n)
        S = np.diag(centering_phase(n))
        R = np.diag(alternating_phase(n))
        T = np.diag(twiddle_phase(n))
        P = cyclic_permutation(n)
        Q = qct_matrix(n)
        eye = np.eye(n + 1)
        worst = max(
            worst,
            np.abs(Fs - S @ F @ R).max(),
            np.abs(P - F @ T @ np.conj(F.T)).max(),
            np.abs(Fs @ np.conj(Fs.T) - eye).max(),
            np.abs(F @ np.conj(F.T) - eye).max(),
            np.abs(Q @ Q - eye).max(),
            np.abs(Q - Q.T).max(),
        )
    ok = worst <= 1e-12
    detail = f"sizes 2..64: worst factorization/unitarity deviation {worst:.2e}"
    record("C6", "shifted-basis transform factorizations", ok, detail,
           time.perf_counter() - t0, 10.0)
    assert ok, detail


def test_c7_spectral_convergence_and_rule():
    t0 = time.perf_counter()
    runs = [
        ("fourier", "exp-sin-pi", 1),
        ("chebyshev", "exp-sin", 1),
        ("chebyshev", "exp-sin", 2),
    ]
    errs = []
    for basis, name, d in runs:
        run = solve_manufactured(name, np.eye(d), basis, 24)
        errs.append(run["l2_normalized"])
    ok = all(e < 1e-8 for e in errs)

    bounds_pi = derivative_sup_bound(math.pi, 44)
    bounds_1 = derivative_sup_bound(1.0, 44)
    n_fourier = choose_truncation(bounds_pi[0], bounds_pi[-1], 1e-6)
    n_cheb = choose_truncation(bounds_1[0], bounds_1[-1], 1e-6)
    ok = ok and n_fourier == 29 and n_cheb == 21
    rule_f = solve_manufactured("exp-sin-pi", np.eye(1), "fourier",
                                n_fourier)["l2_normalized"]
    rule_c = solve_manufactured("exp-sin", np.eye(1), "chebyshev",
                                n_cheb)["l2_normalized"]
    ok = ok and rule_f < 1e-6 and rule_c < 1e-6
    detail = (f"n=24 errors {max(errs):.2e} < 1e-8; rule n={n_fourier}/"
              f"{n_cheb} gives {rule_f:.2e}/{rule_c:.2e} < 1e-6")
    record("C7", "spectral accuracy and truncation rule", ok, detail,
           time.perf_counter() - t0, 60.0)
    assert ok, detail


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_c8_lattice_convergence():
    t0 = time.perf_counter()
    u2 = lambda x, y: np.sin(x) * np.sin(y)
    f2 = lambda x, y: -2.0 * np.sin(x) * np.sin(y)
    slopes = {}
    envelope_ok = True
    for k in (1, 2):
        rows = convergence_rows(2, k, [8, 16, 32, 64], f2, u2)
        raw = [row["l2_rel"] * row["n"] for row in rows]
        slopes[k] = fit_slope([row["n"] for row in rows], raw)
        for row, rv in zip(rows, raw):
            cap = 10.0 * 2.0 * row["n"] ** (2.0 - 2 * k) * (math.e / 2) ** (2 * k)
            envelope_ok = envelope_ok and rv <= cap
    slope_ok = all(abs(slopes[k] - (-(2 * k - 1))) <= 0.5 for k in (1, 2))

    errs = []
    for k in range(1, 9):
        p = FdmProblem(d=1, n=16, k=k,
                       rhs_sampler=lambda x: np.exp(np.sin(x))
                       * (np.cos(x) ** 2 - np.sin(x)),
                       exact_solution=lambda x: np.exp(np.sin(x)))
        errs.append(error_report(solve(assemble(p)))["l2_rel"])
    adaptive_ok = all(a > b for a, b in zip(errs, errs[1:]))

    ok = slope_ok and envelope_ok and adaptive_ok
    detail = (f"slopes {slopes[1]:.3f}/{slopes[2]:.3f} vs -1/-3 (+-0.5); "
              f"envelope x10 holds; fixed n=16 error {errs[0]:.1e} -> "
              f"{errs[-1]:.1e} strictly decreasing over k=1..8")
    record("C8", "lattice convergence and order adaptivity", ok, detail,
           time.perf_counter() - t0, 60.0)
    assert ok, detail


def test_c9_state_prep_overhead():
    t0 = time.perf_counter()
    fhat = np.array([0.3 - 0.1j, 1.2j, -0.7])
    q, prob = state_prep_q(fhat, [np.zeros(3)], [np.zeros(3)])
    homog_ok = q == 1.0 and prob == 1.0

    rng = np.random.default_rng(SEED)
    worst = 0.0
    for d in (1, 2, 3):
        size = 5
        f = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        plus = [rng.standard_normal(size) + 1j * rng.standard_normal(size)
                for _ in range(d)]
        minus = [rng.standard_normal(size) + 1j * rng.standard_normal(size)
                 for _ in range(d)]
        q, prob = state_prep_q(f, plus, minus)
        num = den = 0.0
        for gp, gm in zip(plus, minus):
            for a, b, c in zip(f, gp, gm):
                num += abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2
                den += abs(a + b + c) ** 2
        worst = max(worst, abs(q - math.sqrt(num / den)),
                    abs(prob * q * q - 1.0))
    ok = homog_ok and worst <= 1e-12
    detail = (f"homogeneous q == 1 exactly; seeded d=1..3 oracle gap "
              f"{worst:.2e} <= 1e-12")
    record("C9", "state preparation overhead", ok, detail,
           time.perf_counter() - t0, 1.0)
    assert ok, detail
