"""cellgamma: discrete cell-problem energies for singularly perturbed
functionals with nonlocal terms, space-time shock-layer energies, and
desk-scale Gamma-convergence sweeps."""

__version__ = "0.1.0"

from .cellopt import (CellSolution, EnergyBreakdown, OptimizerOptions,
                      assemble_energy, compute_cell_energy, energy_gradient,
                      optimize_scale)
from .errors import CellGammaError
from .gamma import (DomainSpec, SweepRow, build_recovery_field,
                    evaluate_full_energy, run_gamma_sweep)
from .grid import (CellGrid, Frame, StateField, TensorField, build_cell_grid,
                   build_frame, divergence, gradient, laplacian)
from .hyperbolic import (BaseFields, PotentialPerturbation, ShockSolution,
                         StaticReduction, assemble_st_energy,
                         build_base_fields, build_shock_grid,
                         compute_shock_cell_energy, reduce_to_static_frame,
                         viscous_profile_oracle_1d)
from .model import (EntropyPair, FluxFunction, FluxMap, JumpData, ModelSpecs,
                    ScalarPotential, SpaceTimeJumpData, catalog_lookup,
                    validate_jump_data, validate_rankine_hugoniot)
from .oracle import (finite_difference_gradient, geodesic_energy_1d,
                     geodesic_path_1d)
from .poisson import (BcVariant, duality_gap, leray_project, nonlocal_energy,
                      solve_cell_poisson)

__all__ = [
    "__version__", "CellGammaError",
    "ScalarPotential", "FluxMap", "EntropyPair",
    "FluxFunction", "JumpData", "SpaceTimeJumpData", "ModelSpecs",
    "catalog_lookup", "validate_jump_data", "validate_rankine_hugoniot",
    "Frame", "CellGrid", "StateField", "TensorField", "build_frame",
    "build_cell_grid", "gradient", "divergence", "laplacian",
    "BcVariant", "solve_cell_poisson", "nonlocal_energy", "leray_project",
    "duality_gap",
    "EnergyBreakdown", "CellSolution", "OptimizerOptions",
    "assemble_energy", "energy_gradient", "optimize_scale",
    "compute_cell_energy",
    "BaseFields", "PotentialPerturbation", "ShockSolution",
    "StaticReduction", "build_shock_grid", "build_base_fields",
    "assemble_st_energy", "compute_shock_cell_energy",
    "reduce_to_static_frame", "viscous_profile_oracle_1d",
    "geodesic_path_1d", "geodesic_energy_1d", "finite_difference_gradient",
    "DomainSpec", "SweepRow", "build_recovery_field", "evaluate_full_energy",
    "run_gamma_sweep",
]
