"""Auxiliary field method for two-body Schroedinger bound states.

Approximate closed-form eigenenergies, eigenstates and observables for
linear, logarithmic and exponential potentials, validated against exact
solutions and an independent Numerov eigensolver.
"""

from .afm import (AfmSolution, AuxiliaryKind, Bound, ExpPotential,
                  LinearPotential, LogPotential, PotentialModel,
                  TangentReport, afm_solve, critical_coupling,
                  energy_at_aux, improved_linear_energy, principal_number,
                  tangent_check)
from .errors import (AuxFieldError, DomainError, GridMismatch, NoBoundState,
                     NoSolution, NumericalFailure, QuadratureFailure)
from .exact import (HydrogenScale, ObservableSet, OscillatorScale,
                    QuantumNumbers, hydrogen_observables, hydrogen_r_moment,
                    hydrogen_state, linear_s_observables, linear_s_state,
                    oscillator_observables, oscillator_r_moment,
                    oscillator_state)
from .observables import (EckartInput, afm_observable_set, eckart_bound,
                          mean_hamiltonian, p2_p4_from_potential,
                          power_law_moments, psi0_from_force)
from .oracle import RadialFunction, SolverConfig, numeric_observables, solve_radial
from .overlaps import (afm_pair_overlap, numeric_overlap, overlap_hydrogen_dilated,
                       overlap_oscillator_dilated, sample_radial)
from .specfun import (WBranch, airy_ai, airy_zero, airy_zero_estimate,
                      lambert_w, laguerre, solve_w_power)

__version__ = "0.1.0"

__all__ = [
    "AfmSolution", "AuxiliaryKind", "Bound", "PotentialModel", "LinearPotential",
    "LogPotential", "ExpPotential", "TangentReport",
    "afm_solve", "critical_coupling", "energy_at_aux",
    "improved_linear_energy", "principal_number", "tangent_check",
    "AuxFieldError", "DomainError", "GridMismatch", "NoBoundState",
    "NoSolution", "NumericalFailure", "QuadratureFailure",
    "HydrogenScale", "ObservableSet", "OscillatorScale", "QuantumNumbers",
    "hydrogen_observables", "hydrogen_r_moment", "hydrogen_state",
    "linear_s_observables", "linear_s_state", "oscillator_observables",
    "oscillator_r_moment", "oscillator_state",
    "EckartInput", "afm_observable_set", "eckart_bound", "mean_hamiltonian",
    "p2_p4_from_potential", "power_law_moments", "psi0_from_force",
    "RadialFunction", "SolverConfig", "numeric_observables", "solve_radial",
    "afm_pair_overlap", "numeric_overlap",
    "overlap_hydrogen_dilated", "overlap_oscillator_dilated", "sample_radial",
    "WBranch", "airy_ai", "airy_zero", "airy_zero_estimate",
    "lambert_w", "laguerre", "solve_w_power",
    "__version__",
]
