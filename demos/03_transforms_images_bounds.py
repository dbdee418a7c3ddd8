"""Transform factorizations, image-sector folds, and the measured bounds.

The shifted Fourier and cosine transforms factor into plain FFT kernels
with diagonal phase corrections; reflection folds turn boundary problems
into symmetry sectors of the periodic lattice; singular values of the
closed derivative operators stay inside announced envelopes.  This demo
prints the measured deviation or margin for each claim.

Run: python3 demos/03_transforms_images_bounds.py
"""

import math

import numpy as np

from pdekit import suites
from pdekit.images import fold_vector, restrict, unfold_vector
from pdekit.spectral_ops import gdd_check
from pdekit.spectral_system import assemble_system, condition_report
from pdekit.stencil import make_stencil
from pdekit.transforms import qct_apply, qsft_apply, qsft_matrix


def section(title):
    print(f"\n== {title} ==")


section("shifted transform factorizations")
print("max entry deviation of each identity, sizes 8, 16, 32, 64:")
for row in suites.transforms(0):
    if row["n"] in (7, 15, 31, 63):
        print(f"  size {row['n'] + 1:>2}: factorization {row['factorization']:.1e}, "
              f"shift conjugation {row['shift_conjugation']:.1e}, "
              f"unitarity {row['unitarity']:.1e}")

rng = np.random.default_rng(7)
v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
round_trip = np.conj(qsft_matrix(31).T) @ qsft_apply(v)
print(f"vector round trip (size 32): {np.abs(round_trip - v).max():.1e}")
w = rng.standard_normal(32)
print(f"cosine transform is an involution: "
      f"{np.abs(qct_apply(qct_apply(w)) - w).max():.1e}")

section("reflection folds")
n = 8
x = math.pi * np.arange(2 * n) / n
odd = np.sin(x + math.pi / (2 * n))
folded = fold_vector(odd, "dirichlet")
back = unfold_vector(folded, "dirichlet")
print(f"odd sample folds to length {folded.size}, unfolds with deviation "
      f"{np.abs(back - odd).max():.1e}")
R = restrict(make_stencil(1), n, "dirichlet").matrix
print(f"restricted second-difference corner entry: {R[0, 0]:.0f} "
      "(reflection pulls the ghost site back inside)")

section("closed derivative-squared singular values")
print(f"{'basis':>10} {'n':>3} {'sigma_max':>11} {'cap':>11} "
      f"{'sigma_min':>10} {'floor':>7}")
for basis in ("fourier", "chebyshev"):
    for row in suites.SUITES[f"svd_{basis}"](0):
        if row["n"] in (8, 32, 64):
            print(f"{basis:>10} {row['n']:>3} {row['sigma_max']:>11.3e} "
                  f"{row['max_bound']:>11.3e} {row['sigma_min']:>10.4f} "
                  f"{row['min_bound']:>7.4f}")

section("diagonal dominance and the condition bound")
A = np.array([[1.0, 0.3, 0.1], [0.1, 1.5, 0.2], [0.0, 0.2, 0.8]])
info = gdd_check(A)
print(f"C = {info['C']:.4f}, sum norm {info['norm_sigma']:.2f}, "
      f"diagonal norm {info['norm_star']:.2f}, accepted: {info['accepted']}")
system = assemble_system(A, "fourier", 4, np.zeros(125))
rep = condition_report(system)
print(f"fourier system at n = 4, d = 3: kappa {rep['kappa']:.1f}, "
      f"general bound {rep['bound_general']:.1f}, within: {rep['within_general']}")
