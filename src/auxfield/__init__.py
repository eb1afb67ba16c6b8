"""Auxiliary field method for two-body Schroedinger bound states.

Approximate closed-form eigenenergies, eigenstates and observables for
linear, logarithmic and exponential potentials, validated against exact
solutions and an independent Lagrange-mesh eigensolver.
"""

from .afm import (AfmSolution, AuxiliaryKind, Bound, ExpPotential,
                  LinearPotential, LogPotential, PotentialModel,
                  TangentReport, afm_solve, energy_at_aux, principal_number,
                  tangent_check)
from .errors import AuxFieldError, DomainError, NoBoundState, NumericalFailure
from .exact import (HydrogenScale, ObservableSet, OscillatorScale,
                    QuantumNumbers, hydrogen_observables, linear_s_observables,
                    linear_s_state, oscillator_observables)
from .observables import (afm_observable_set, eckart_bound, mean_hamiltonian,
                          p2_p4_from_potential)
from .oracle import RadialFunction, SolverConfig, numeric_observables, solve_radial
from .overlaps import afm_pair_overlap, numeric_overlap, sample_radial
from .specfun import airy_ai, airy_zero, airy_zero_estimate, lambert_w, laguerre

__version__ = "0.1.0"

__all__ = [
    "AfmSolution", "AuxiliaryKind", "Bound", "PotentialModel", "LinearPotential",
    "LogPotential", "ExpPotential", "TangentReport",
    "afm_solve", "energy_at_aux", "principal_number", "tangent_check",
    "AuxFieldError", "DomainError", "NoBoundState", "NumericalFailure",
    "HydrogenScale", "ObservableSet", "OscillatorScale", "QuantumNumbers",
    "hydrogen_observables", "linear_s_observables", "linear_s_state",
    "oscillator_observables",
    "afm_observable_set", "eckart_bound", "mean_hamiltonian",
    "p2_p4_from_potential",
    "RadialFunction", "SolverConfig", "numeric_observables", "solve_radial",
    "afm_pair_overlap", "numeric_overlap", "sample_radial",
    "airy_ai", "airy_zero", "airy_zero_estimate", "lambert_w", "laguerre",
    "__version__",
]
