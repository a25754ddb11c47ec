"""Convex scheduling of a lossy energy storage system.

Maps between storage power profiles and energy (state-of-charge) profiles
via an explicit piecewise-affine bijection, builds the convex polytope of
feasible energy profiles, certifies convexity of practical cost families,
solves the reformulated problem with a projected subgradient method, and
verifies against a brute-force oracle on the original formulation.
"""

from .costs import (
    ConvexityCertificate,
    CostSpec,
    CustomCost,
    EnergyArbitrage,
    LoadBalancing,
    PeakShaving,
    PowerRegulation,
    PowerSmoothing,
    ProbeReport,
    certify_convexity,
    evaluate_energy_cost,
    evaluate_power_cost,
    instance_digest,
    midpoint_convexity_probe,
    subgradient_energy_cost,
)
from .model import (
    Bounds,
    Dynamics,
    StorageParams,
    ValidatedProblem,
    build_dynamics,
    simulate,
    step,
    validate_params,
)
from .oracle import GapReport, GridSpec, OracleResult, brute_force_solve, compare, enumerate_feasible
from .solver import Solution, SolveOptions, project_onto_polytope, recover_power_profile, solve
from .transform import (
    EnergyPolytope,
    MembershipVerdict,
    Witness,
    build_energy_polytope,
    find_nonconvexity_witness,
    in_energy_polytope,
    in_power_set,
    inverse_loss_map,
    loss_map,
    power_to_energy,
    energy_to_power,
    velocity,
)

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "ConvexityCertificate",
    "CostSpec",
    "CustomCost",
    "Dynamics",
    "EnergyArbitrage",
    "EnergyPolytope",
    "GapReport",
    "GridSpec",
    "LoadBalancing",
    "MembershipVerdict",
    "OracleResult",
    "PeakShaving",
    "PowerRegulation",
    "PowerSmoothing",
    "ProbeReport",
    "Solution",
    "SolveOptions",
    "StorageParams",
    "ValidatedProblem",
    "Witness",
    "brute_force_solve",
    "build_dynamics",
    "build_energy_polytope",
    "certify_convexity",
    "compare",
    "enumerate_feasible",
    "evaluate_energy_cost",
    "evaluate_power_cost",
    "find_nonconvexity_witness",
    "in_energy_polytope",
    "in_power_set",
    "instance_digest",
    "inverse_loss_map",
    "loss_map",
    "midpoint_convexity_probe",
    "power_to_energy",
    "energy_to_power",
    "project_onto_polytope",
    "recover_power_profile",
    "simulate",
    "solve",
    "step",
    "subgradient_energy_cost",
    "validate_params",
    "velocity",
]
