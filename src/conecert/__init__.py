"""Optimality certificates for cone-constrained minimax and Chebyshev
problems: multipliers, cadres, alternance determinants, penalty
stationarity, and sampled second-order tests."""

from .expr import (Dual2, DomainError, ExprError, ExprSyntaxError,
                   UnknownIdentifier, VariableIndexOutOfRange, eval2,
                   eval_value, parse, to_string)
from .problem import (ActiveSets, NlpEq, NlpIneq, PolyhedralSet, Problem,
                      Sdp, SemiInfinite, Soc, ToleranceSet, activity,
                      check_feasible, evaluate_objective, load_problem_file,
                      load_problem_text, problem_to_text,
                      squared_generators, subdifferential_generators)
from .geometry import (GeneratorSet, PointContext, SamplingSpec,
                       TangentTester, block_distances, build_generator_set,
                       nA_generators, project_psd_neg, project_soc)
from .linkernel import (lp_chebyshev_center, lp_membership, rank,
                        simplex_solve, solve_positive_combination)
from .firstorder import (Cadre, CombinatorialBudgetExceeded, NotFeasible,
                         Zbasis, find_cadre, necessary_check,
                         penalty_subdiff_check, penalty_value,
                         semiinfinite_discretize, sufficient_check,
                         verify_alternance)
from .secondorder import (hessian_bundle, multiplier_vertices,
                          second_order_necessary, second_order_sufficient)
from .oracle import (fd_check, growth_probe, hull_membership_bruteforce)

__version__ = "0.1.0"
