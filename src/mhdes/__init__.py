"""Monotone energy-stability thresholds for conducting channel flows.

The package computes, for plane Couette and Hartmann base states between
two walls, the largest Reynolds number below which every disturbance
energy decays monotonically.  The disturbance magnetic field vanishes at
the walls: the clamped basis of l~ = Ha h_z sets h_z = 0 and, as
h_x = (i/a) h_z', h_x = 0, which is not the perfectly conducting
condition h_z = dh_x/dz = 0.  Hartmann's base field is the
zero-net-current state, Bbar = 0 at both walls.  The threshold at one
spanwise wavenumber is the reciprocal of the largest eigenvalue of a clamped
variational pencil; minimizing over wavenumber gives the global bound.
Independent quadrature and finite-difference routes verify the spectral
results.
"""

from .baseflow import (HA_FLOOR, BaseFlowSample, Params, baseflow_residual,
                       couette_profile, hartmann_profile, profile_for)
from .critical import NeutralPoint, minimize_over_a, neutral_sweep
from .errors import (ConsistencyError, MhdesError, NumericalError,
                     ParameterError, VerificationError)
from .orr_evp import (EvpPencil, EvpSolution, assemble_pencil, reynolds_curve,
                      solve_max_m)
from .spectral import (ClampedMaps, SpectralOperator, build_operator,
                       clamped_restrict)
from .verify import (DecayReport, EnergyBreakdown, PoincareReport, TrialField,
                     check_claim, decay_check, energy_ratio, fd_oracle,
                     make_trial_field, poincare_check, random_trial_bound)

__version__ = "0.1.0"

__all__ = [
    "HA_FLOOR",
    "BaseFlowSample",
    "Params",
    "baseflow_residual",
    "couette_profile",
    "hartmann_profile",
    "profile_for",
    "NeutralPoint",
    "minimize_over_a",
    "neutral_sweep",
    "MhdesError",
    "ParameterError",
    "ConsistencyError",
    "NumericalError",
    "VerificationError",
    "EvpPencil",
    "EvpSolution",
    "assemble_pencil",
    "solve_max_m",
    "reynolds_curve",
    "SpectralOperator",
    "ClampedMaps",
    "build_operator",
    "clamped_restrict",
    "TrialField",
    "EnergyBreakdown",
    "DecayReport",
    "PoincareReport",
    "make_trial_field",
    "energy_ratio",
    "random_trial_bound",
    "decay_check",
    "poincare_check",
    "fd_oracle",
    "check_claim",
]
