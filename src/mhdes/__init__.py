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

Each layer module is imported on the first use of a name it defines
(PEP 562), so ``import mhdes`` loads no NumPy, and the command line can
choose its BLAS thread count before NumPy starts.
"""

import importlib

__version__ = "0.1.0"

# each public name by the layer that defines it
_EXPORTS = {
    "baseflow": ("HA_FLOOR", "BaseFlowSample", "Params", "baseflow_residual",
                 "couette_profile", "hartmann_profile", "profile_for"),
    "critical": ("NeutralPoint", "minimize_over_a", "neutral_sweep"),
    "errors": ("MhdesError", "ParameterError", "ConsistencyError",
               "NumericalError", "VerificationError"),
    "orr_evp": ("EvpPencil", "EvpSolution", "assemble_pencil", "solve_max_m",
                "reynolds_curve"),
    "spectral": ("SpectralOperator", "ClampedMaps", "build_operator",
                 "clamped_restrict"),
    "verify": ("TrialField", "EnergyBreakdown", "DecayReport",
               "PoincareReport", "make_trial_field", "energy_ratio",
               "random_trial_bound", "decay_check", "poincare_check",
               "fd_oracle", "check_claim"),
}
_LAYERS = (*_EXPORTS, "cli")
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _LAYERS:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
