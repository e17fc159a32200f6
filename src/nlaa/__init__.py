"""
Numerical toolkit for the one-dimensional nonlinear Aubry-Andre lattice:
self-consistent ground/excited eigenstates, quench and ramp dynamics,
interaction-shifted localization phase diagrams, an effective
generalized-model (mobility-edge) analysis, and empirical transition fits.

Internal units are hbar = J = 1 throughout; SI conversion happens only at
the command-line boundary, in nlaa.cli's _internal_units.
"""

__version__ = "0.1.12"

from .dynamics import (RampProtocol, Trajectory, evolve, ramp_prepare,
                       transport_experiment)
from .eigensolve import EigenSolution, SolverOptions, linear_spectrum, solve_state
from .fitting import (BootstrapResult, FitResult, UnidentifiableFitError,
                      bootstrap_delta_c, fit_transition, piecewise_model,
                      synthesize_measurement)
from .gaa import (AaLimitError, AlphaStarResult, GaaClassification, GaaParams,
                  extract_alpha_star, effective_gaa_from_density,
                  gaa_classify_spectrum, gaa_mobility_edge, gaa_potential)
from .model import (BETA_GOLDEN, BraggSchedule, LatticeState, ModelParams,
                    apply_hamiltonian, bragg_detunings, chemical_potential,
                    density_fourier_coefficients, energy_functional,
                    momentum_width, participation_ratio,
                    quasiperiodic_potential)
from .phasescan import (ScanGrid, ScanResult, TransitionResult, classify_phase,
                        critical_r, detect_transition, scan_phase_diagram,
                        transition_for_u)

__all__ = [
    "__version__",
    # model
    "BETA_GOLDEN", "ModelParams", "LatticeState",
    "BraggSchedule", "quasiperiodic_potential", "apply_hamiltonian", "participation_ratio", "momentum_width",
    "energy_functional", "chemical_potential", "density_fourier_coefficients",
    "bragg_detunings",
    # eigensolve
    "SolverOptions", "EigenSolution", "linear_spectrum", "solve_state",
    # dynamics
    "RampProtocol", "Trajectory", "evolve", "transport_experiment",
    "ramp_prepare",
    # phase scan
    "critical_r", "TransitionResult", "detect_transition", "transition_for_u",
    "ScanGrid", "ScanResult", "scan_phase_diagram", "classify_phase",
    # effective model
    "GaaParams", "AaLimitError", "GaaClassification", "gaa_potential",
    "gaa_mobility_edge", "gaa_classify_spectrum", "effective_gaa_from_density",
    "AlphaStarResult", "extract_alpha_star",
    # fitting
    "FitResult", "UnidentifiableFitError", "piecewise_model", "fit_transition",
    "synthesize_measurement", "BootstrapResult", "bootstrap_delta_c",
]
