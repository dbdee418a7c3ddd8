"""Classical spectral and high-order finite-difference Poisson tooling.

Two solver families over [-1, 1]^d / [0, 2pi)^d:

* order-2k central-difference lattices (stencil, laplacian, images, fdm):
  exact rational stencils, circulant spectra, method-of-images boundary
  restrictions, eigenspace and conjugate-gradient solves;
* pseudo-spectral collocation (transforms, spectral_ops, spectral_system,
  solver): shifted-Fourier and weighted-cosine transforms, differentiation
  matrices with boundary closure rows, Kronecker-sum assembly for second-
  order elliptic operators, direct solves with residual certificates.

The golden module reproduces the published worked example, the suites
module holds the bound-verification sweeps, and the cli module runs them.
"""

from .errors import (BudgetExceeded, CompatibilityError, ConvergenceFailure,
                     DegenerateRhs, ParameterError, PdekitError,
                     PrecisionExhausted, SpecError, SymmetryViolation)
from .expressions import (ProductExpression, SumExpression, builtin_expression,
                          derivative_sup_bound)
from .fdm import FdmProblem, assemble, error_report, select_parameters, solve
from .golden import compare_goldens, generate_golden, reference_golden
from .images import fold_vector, restrict, unfold_vector
from .laplacian import condition_number, eigenvalues_1d, spectral_norm
from .matrixio import read_coordinate, write_coordinate
from .solver import (SolveResult, analyze_values, convergence_study, error_metrics,
                     evaluate_at, manufactured_problem, nodes, solve_manufactured,
                     solve_system, synthesize_nodes)
from .spectral_ops import boundary_row_indices, diff_matrix, gdd_check, multi_diff
from .spectral_system import (SpectralSystem, assemble_system, certified_truncation_order,
                              choose_truncation, condition_report, state_prep_q)
from .stencil import (Stencil, apply_stencil, make_stencil, second_moment,
                      truncation_error_bound, verify_second_moment)
from .transforms import qct_apply, qct_matrix, qsft_apply, qsft_matrix

__version__ = "0.1.0"
