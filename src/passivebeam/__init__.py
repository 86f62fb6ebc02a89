"""Clamped beam with tip payload under passive nonlinear dynamic feedback.

Simulation and verification toolkit: certified feedback laws, a structure
preserving Hermite discretization, an energy-consistent implicit midpoint
integrator, and operator/trajectory diagnostics.
"""

from .analysis import (
    DecayReport,
    SpectrumReport,
    beam_frequencies,
    clamped_free_wavenumbers,
    decay_metrics,
    skew_check,
    spectrum,
)
from .assumptions import CertReport, CheckResult, certify_block, certify_spring_damper
from .beam_model import (
    BeamParams,
    BlockLinearization,
    ClosedLoopConfig,
    PassiveBlock,
    ScalarLaw,
    SpringDamperLaw,
    linearize_block,
    make_block,
    make_law,
)
from .discretization import (
    DiscreteSystem,
    Mesh,
    assemble,
    build_mesh,
    interpolate,
)
from .dynamics import (
    ENERGY_INCREASE_ETA,
    EnergyBreakdown,
    eval_H,
    eval_Hdot,
    zero_state,
)
from .integrator import (
    IntegratorSettings,
    Trajectory,
    first_mode_initial_state,
    simulate,
    smooth_initial_state,
    tangent_residual,
)

__all__ = [
    "BeamParams",
    "BlockLinearization",
    "CertReport",
    "CheckResult",
    "ClosedLoopConfig",
    "DecayReport",
    "DiscreteSystem",
    "ENERGY_INCREASE_ETA",
    "EnergyBreakdown",
    "IntegratorSettings",
    "Mesh",
    "PassiveBlock",
    "ScalarLaw",
    "SpectrumReport",
    "SpringDamperLaw",
    "Trajectory",
    "assemble",
    "beam_frequencies",
    "build_mesh",
    "certify_block",
    "certify_spring_damper",
    "clamped_free_wavenumbers",
    "decay_metrics",
    "eval_H",
    "eval_Hdot",
    "first_mode_initial_state",
    "interpolate",
    "linearize_block",
    "make_block",
    "make_law",
    "simulate",
    "smooth_initial_state",
    "skew_check",
    "spectrum",
    "tangent_residual",
    "zero_state",
]

__version__ = "0.1.0"
