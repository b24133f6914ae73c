"""Instance-adaptive differentially private mean estimation over finite
point sets, with the geometric machinery to drive and validate it."""

from .bounds import (bound_profile, bound_report, lb_local,
                     lb_local_delta_cap, lb_packing, projection_error_bound,
                     ub_chain, ub_coarse, ub_infty, ub_local_chain,
                     ub_local_coarse)
from .central import (Dataset, MechanismOutput, PMWConfig,
                      chaining_mechanism, chaining_mechanism_linf,
                      coarse_projection_mechanism, decompose_and_run,
                      pmw_mechanism, projection_mechanism)
from .geometry import (Decomposition, Metric, Norm, Universe,
                       chaining_decomposition, diameter,
                       gaussian_mean_width, greedy_separated_set,
                       nearest_point_map, packing_number, support_function)
from .harness import (RunReport, gen_cone, gen_dataset, gen_marginals2,
                      gen_random_sphere, gen_thresholds, measure_error)
from .hull import ProjectionResult, project_onto_hull
from .local import (LocalMessage, LocalProtocolSpec, LocalReleaseParams,
                    local_chaining, local_coarse_projection,
                    local_projection_protocol, local_release,
                    simulate_protocol)
from .privacy import (Accountant, BudgetExceededError, NoiseSpec,
                      PrivacyBudget, compose, gaussian_sigma_for_zcdp,
                      mean_sensitivity, zcdp_to_approx_dp)

__version__ = "0.1.0"
