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
from fractions import Fraction

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, fit_slope
from pdekit import suites
from pdekit.expressions import derivative_sup_bound
from pdekit.fdm import FdmProblem, assemble, convergence_rows, error_report, solve
from pdekit.golden import GOLDEN_NAMES, compare_goldens
from pdekit.solver import solve_manufactured
from pdekit.spectral_system import choose_truncation, state_prep_q

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
    rows = suites.stencil(SEED)
    ok = all(r["pass"] for r in rows)
    worst = max(r["decay_margin"] for r in rows)
    detail = f"k=1..30 exact rational, decay margin <= {worst:.3f}"
    record("C2", "stencil identities", ok, detail,
           time.perf_counter() - t0, 1.0)
    assert ok, [r["k"] for r in rows if not r["pass"]]


def test_c3_lattice_conditioning():
    t0 = time.perf_counter()
    rows = suites.fdm_kappa(SEED)
    ok = all(r["pass"] for r in rows)
    ratios = [r["kappa_over_dn2"] for r in rows]
    detail = (f"kappa/(d n^2) in [{min(ratios):.4f}, {max(ratios):.4f}] "
              f"within [1/3, 3/4]; per-axis norm <= "
              f"{max(r['norm_1d'] for r in rows):.4f} (cap {suites.NORM_CAP:.4f})")
    record("C3", "lattice kappa and norm windows", ok, detail,
           time.perf_counter() - t0, 30.0)
    assert ok, detail


def test_c4_spectral_singular_values():
    t0 = time.perf_counter()
    sweeps = {"fourier": suites.svd_fourier(SEED),
              "chebyshev": suites.svd_chebyshev(SEED)}
    ok = all(r["pass"] for rows in sweeps.values() for r in rows)
    margins = {basis: max(r["sigma_max"] / r["max_bound"] for r in rows)
               for basis, rows in sweeps.items()}
    floors = {basis: min(r["sigma_min"] / r["min_bound"] for r in rows)
              for basis, rows in sweeps.items()}
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


def poisson_rows(basis):
    return [r for r in suites.kappa_poisson(SEED) if r["basis"] == basis]


def worst_poisson_margin(rows):
    return max(r["kappa"] / r["bound"] for r in rows)


def test_c5a_poisson_kappa_fourier():
    t0 = time.perf_counter()
    rows = poisson_rows("fourier")
    ok = all(r["pass"] for r in rows)
    detail = f"d=1..3 n=2..8: kappa/(2n)^4 <= {worst_poisson_margin(rows):.3e}"
    record("C5a", "poisson kappa fourth-power bound (fourier)", ok, detail,
           time.perf_counter() - t0, 30.0)
    assert ok, detail


def test_c5b_poisson_kappa_chebyshev():
    t0 = time.perf_counter()
    rows = poisson_rows("chebyshev")
    # d = 1: C4's envelope sigma_max <= n^4, sigma_min >= 1/16 gives
    # kappa <= 16 n^4 = (2n)^4, so the bound must hold there
    d1_ok = all(r["pass"] for r in rows if r["d"] == 1)
    # d = 3, n = 2: the closed block [[0,0,4],[1,-1,1],[1,1,1]] has trace 0,
    # so the sum of its three eigenvalues is an exact zero eigenvalue of L
    singular = next(r["system"] for r in rows if (r["d"], r["n"]) == (3, 2))
    singular_ok = exact_det(singular.L.toarray()) == 0
    flagged = [r for r in rows if not r["pass"]]
    certified = sum(
        singular_ok if (r["d"], r["n"]) == (3, 2)
        else kappa_exceeds(r["system"].L, r["bound"])
        for r in flagged)
    ok = d1_ok and singular_ok and certified == len(flagged)
    detail = (f"d=1..3 n=2..8: kappa/(2n)^4 reaches "
              f"{worst_poisson_margin(rows):.3e}; {certified}/{len(flagged)} "
              f"violations certified (det L {'=' if singular_ok else '!='} 0 "
              f"at d=3 n=2)")
    record("C5b", "poisson kappa fourth-power bound (chebyshev)", ok, detail,
           time.perf_counter() - t0, 30.0, refuted=bool(flagged))
    assert d1_ok, detail
    assert singular_ok, "d=3 n=2 Chebyshev L is not exactly singular"
    assert certified == len(flagged), detail


def gdd_rows(basis):
    """The seeded GDD operators of one basis; every draw is GDD-accepted."""
    rows = [r for r in suites.kappa_general(SEED) if r["basis"] == basis]
    assert all(r["C"] > 0 for r in rows)
    return rows


def gdd_margins(rows):
    ok_kappa = sum(r["kappa_ok"] for r in rows)
    ok_pert = sum(r["cross_term_ok"] for r in rows)
    worst_kappa = max(r["kappa"] / r["kappa_bound"] for r in rows)
    worst_pert = max(r["perturbation"] / r["pert_bound"] for r in rows)
    return ok_kappa, ok_pert, worst_kappa, worst_pert


def cross_term_exceeds(row):
    """True if ||L2 w||^2 > (1-C)^2 ||L1 w||^2 in exact arithmetic.

    w = L1^{-1} z with z the top right singular vector of L2 L1^{-1}, so
    ||L2 w|| / ||L1 w|| is close to ||L2 L1^{-1}||, and any w for which the
    inequality holds proves ||L2 L1^{-1}|| > 1-C.  L2 is L - L1 exactly.
    """
    z = np.linalg.svd(row["M"])[2][0]
    w = exact_vector(np.linalg.solve(row["L1"].toarray(), z))
    Lw, L1w = exact_matvec(row["L"], w), exact_matvec(row["L1"], w)
    L2w = [a - b for a, b in zip(Lw, L1w)]
    return sq_norm(L2w) > (1 - Fraction(row["C"])) ** 2 * sq_norm(L1w)


def test_c5c_gdd_kappa_fourier():
    t0 = time.perf_counter()
    rows = gdd_rows("fourier")
    trials = len(rows)
    ok_kappa, ok_pert, worst_kappa, worst_pert = gdd_margins(rows)
    ok = ok_kappa == trials and ok_pert == trials
    detail = (f"{trials} seeded operators: kappa margin <= {worst_kappa:.3e}, "
              f"cross-term margin <= {worst_pert:.3f}")
    record("C5c", "random GDD kappa and cross-term (fourier)", ok, detail,
           time.perf_counter() - t0, 60.0)
    assert ok, detail


def test_c5d_gdd_kappa_chebyshev():
    t0 = time.perf_counter()
    rows = gdd_rows("chebyshev")
    trials = len(rows)
    ok_kappa, ok_pert, worst_kappa, worst_pert = gdd_margins(rows)
    kappa_certified = sum(kappa_exceeds(r["L"], r["kappa_bound"])
                          for r in rows if not r["kappa_ok"])
    pert_certified = sum(cross_term_exceeds(r)
                         for r in rows if not r["cross_term_ok"])
    # where ||L2 L1^{-1}|| <= 1-C holds (up to the 1e-12 slack),
    # L = (I + L2 L1^{-1}) L1 and the Neumann series give
    # sigma_min(L) >= (1 - ||L2 L1^{-1}||) sigma_min(L1) >= C sigma_min(L1)
    neumann_ok = all(
        r["sigma_min"] >= (r["C"] - suites.CROSS_TERM_SLACK)
        * np.linalg.svd(r["L1"].toarray(), compute_uv=False)[-1]
        for r in rows if r["cross_term_ok"])
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
    rows = suites.transforms(SEED)
    ok = all(r["pass"] for r in rows)
    worst = max(r["worst"] for r in rows)
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
