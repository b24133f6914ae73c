"""Instance-adaptive differentially private mean estimation over finite
point sets, with the geometric machinery to drive and validate it."""

from .bounds import bound_profile, bound_report, estimate
from .central import (Dataset, MechanismOutput, decompose_and_run,
                      pmw_mechanism, projection_mechanism)
from .geometry import (Decomposition, Norm, Universe, chaining_decomposition,
                       diameter, gaussian_mean_width, greedy_separated_set,
                       packing_number)
from .harness import (RunReport, gen_cone, gen_dataset, gen_marginals2,
                      gen_random_sphere, gen_thresholds, measure_error)
from .hull import ProjectionResult, project_onto_hull
from .local import LevelProtocol, local_release, simulate_protocol
from .privacy import (PrivacyBudget, compose, gaussian_sigma_for_zcdp,
                      mean_sensitivity)

__version__ = "0.1.0"
