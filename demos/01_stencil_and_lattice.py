"""Order-2k stencils and the periodic lattice Laplacian, end to end.

Walks the finite-difference half of the library: exact coefficients and
their identities, conditioning of the Kronecker-sum operator, the lowest
eigenvalue against its continuum limit, and what raising the order buys
at a fixed lattice size.

Run: python3 demos/01_stencil_and_lattice.py
"""

import math
import warnings

import numpy as np

from pdekit.fdm import FdmProblem, assemble, error_report, select_parameters, solve
from pdekit.laplacian import condition_number, eigenvalues_1d, spectral_norm
from pdekit.stencil import make_stencil, second_moment

warnings.simplefilter("ignore", UserWarning)


def section(title):
    print(f"\n== {title} ==")


section("exact coefficients")
for k in (1, 2, 3):
    s = make_stencil(k)
    pretty = ", ".join(str(c) for c in s.exact)
    print(f"k={k}: center then offsets 1..k -> [{pretty}]")
print("identities checked in rational arithmetic for k = 1..30:")
for k in range(1, 31):
    s = make_stencil(k)
    assert s.exact[0] + 2 * sum(s.exact[1:]) == 0
    assert second_moment(s) == 1
print("  zero row sum and unit second moment hold exactly")

section("conditioning of the d-dimensional lattice operator")
print(f"{'d':>2} {'k':>2} {'n':>4} {'kappa':>12} {'kappa/(d n^2)':>14} {'norm/d':>8}")
for d in (1, 2, 3):
    for k in (1, 2, 4):
        for n in (8, 32, 128):
            lam = eigenvalues_1d(make_stencil(k), n)
            kappa = condition_number(lam, d)
            print(f"{d:>2} {k:>2} {n:>4} {kappa:>12.2f} "
                  f"{kappa / (d * n * n):>14.4f} {spectral_norm(lam, d) / d:>8.4f}")
print("the ratio stays inside [1/3, 3/4]; the per-axis norm never exceeds "
      f"4 pi^2 / 3 = {4 * math.pi ** 2 / 3:.4f}")

section("lowest nonzero eigenvalue vs the continuum")
print("deviation |lambda_1 + pi^2/n^2|, one row per order:")
for k in (1, 2, 3):
    devs = []
    for n in (8, 16, 32, 64):
        lam = eigenvalues_1d(make_stencil(k), n)
        devs.append(abs(lam[1] + math.pi ** 2 / n ** 2))
    joined = "  ".join(f"{v:.2e}" for v in devs)
    print(f"  k={k}: {joined}   (n = 8, 16, 32, 64)")

section("raising the order at fixed n = 16")
u = lambda x: np.exp(np.sin(x))
f = lambda x: np.exp(np.sin(x)) * (np.cos(x) ** 2 - np.sin(x))
for k in range(1, 9):
    p = FdmProblem(d=1, n=16, k=k, rhs_sampler=f, exact_solution=u)
    rep = error_report(solve(assemble(p)))
    print(f"  k={k}: relative l2 error {rep['l2_rel']:.3e}")

section("parameter selection")
for d, eps in ((1, 1e-8), (2, 1e-6), (3, 1e-4)):
    n, k = select_parameters(d, eps, 1.0)
    print(f"  d={d}, eps={eps:g} -> lattice n={n}, order k={k}")
