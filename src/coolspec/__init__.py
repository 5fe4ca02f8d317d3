"""Anti-Stokes cooling spectra for a driven three-level impurity.

Open-system dynamics of a laser-driven impurity whose ground-state doublet
couples to a super-Ohmic phonon bath.  Provides the full Bloch-Redfield,
secular, and phenomenological Lindblad generators through one entry point,
total_liouvillian, with counting-field heat statistics; a finite-memory
(time-convolutionless) validation integrator; and a sweep engine plus CLI
for cooling spectra over detuning and drive strength.
"""

from .bath import BathSpec, rate_a, rate_table, shift_b
from .config import ConfigError, HeatRoute, SweepConfig, parse_config, profile_config
from .dynamics import (
    HeatRecord,
    PropagationError,
    SteadyStateError,
    evolve,
    heat_current_trace,
    mean_heat_fd,
    min_eigenvalue,
    propagate,
    steady_state,
)
from .generators import Liouvillian, total_liouvillian
from .sweep import SpectrumRecord, run_sweep, write_output
from .system import EigenSystem, SystemSpec, build_hamiltonian, coupling_operator, eigensystem, lower_ground_state
from .tcl import TclPropagator

__version__ = "0.1.0"

__all__ = [
    "BathSpec",
    "ConfigError",
    "EigenSystem",
    "HeatRecord",
    "HeatRoute",
    "Liouvillian",
    "PropagationError",
    "SpectrumRecord",
    "SteadyStateError",
    "SweepConfig",
    "SystemSpec",
    "TclPropagator",
    "build_hamiltonian",
    "coupling_operator",
    "eigensystem",
    "evolve",
    "heat_current_trace",
    "lower_ground_state",
    "mean_heat_fd",
    "min_eigenvalue",
    "parse_config",
    "profile_config",
    "propagate",
    "rate_a",
    "rate_table",
    "run_sweep",
    "shift_b",
    "steady_state",
    "total_liouvillian",
    "write_output",
]
