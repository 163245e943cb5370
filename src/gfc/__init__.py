"""Conservative solver and verification harness for growth-fragmentation-
coagulation population balance equations on a truncated size axis."""

from .grid import DensityField, SizeGrid, WeightSpec, moment, project, weighted_integral
from .kernels import (AbsorptionRate, CoagulationKernel, DaughterDistribution,
                      FragmentationRate, GrowthRate, KernelSet, compute_beta,
                      daughter_moment, moment_deficit, validate_kernel_set)
from .transport import (Antiderivatives, SpectralParams, laplace_consistency,
                        resolvent_integral_bounds, resolvent_apply, transport_apply,
                        v_lambda_diagnostics)
from .fragmentation import apply_frag, build_daughter_matrix, frag_moment_identity
from .coagulation import (apply_coag, apply_coag_beta, build_coag_tables,
                          coag_moment_identity)
from .evolution import (SolverConfig, Trajectory, duhamel_solve, pde_residual,
                        regularization_probe, solve)
from .moment_bounds import (assemble_bound_params, bound_system, check_domination,
                            global_conditions)
from .config import ScenarioConfig, load_scenario

__version__ = "0.1.0"
