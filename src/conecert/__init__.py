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
                       build_generator_set, dist_to_cone, eta_generators,
                       nA_generators, project_psd_neg, project_soc,
                       tangent_membership)
from .linkernel import (det, lp_chebyshev_center, lp_direction_margin,
                        lp_membership, rank, simplex_solve,
                        solve_positive_combination)
from .firstorder import (Cadre, CombinatorialBudgetExceeded, NotFeasible,
                         Zbasis, find_cadre, linearized_spot_check,
                         necessary_check, penalty_subdiff_check,
                         penalty_value, semiinfinite_discretize,
                         sufficient_check, verify_alternance)
from .secondorder import (dd_multipliers, hessian_bundle,
                          second_order_necessary, second_order_sufficient)
from .oracle import (fd_check, growth_probe, hull_membership_bruteforce)

__version__ = "0.1.0"
