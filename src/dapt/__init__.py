"""Degenerate adiabatic perturbation theory toolkit.

Numerical machinery for slowly driven quantum systems whose levels may be
degenerate: snapshot eigensystems, non-Abelian (Wilczek-Zee) holonomies,
the degenerate adiabatic approximation, order-by-order non-adiabatic
corrections, adiabaticity validity margins, and an exact reference
propagator, plus two benchmark models with closed-form solutions.
"""
from .couplings import (CouplingSet, couplings_from_path,
                        couplings_via_frame_derivatives)
from .engine import (CorrectionBlocks, DynamicalPhase, StateFamily,
                     ValidityReport, advance_order, assemble_state,
                     check_amplitudes, daa_state, first_order_blocks,
                     first_order_state, ground_amplitudes, j_integral,
                     series_state, transport_steps, validity_margins,
                     zero_order_blocks)
from .errors import (BadInitialCondition, ConfigError, DaptError,
                     DegeneracyChanged, DimensionMismatch, GapCollapse,
                     GridTooSmall, InsufficientSweep, NonHermitianInput,
                     NonUnitaryInitial, NotAntiHermitian, NotGroundStart,
                     RankDeficientOverlap, StepTooLarge)
from .grid import Grid, central_derivative, cumulative_quadrature
from .hamio import (read_csv, read_hamiltonian, write_csv, write_hamiltonian,
                    write_summary)
from .holonomy import (CorrectedHolonomy, HolonomyPath, corrected_holonomy,
                       transport_all, wz_transport)
from .linalg import unitary_deviation, unitary_expm
from .models import (GAMMA, PAULI_X, PAULI_Y, PAULI_Z, PI, GammaModel,
                     SpinHalfModel)
from .pipeline import (PowerLawFit, SweepResult, SweepRow, Workspace,
                       fit_power_law, sweep)
from .propagate import PropagationResult, propagate, residual
from .spectral import (SpectralPath, hamiltonian_samples, smooth_gauge,
                       snapshot_eigensystem)

__version__ = "0.1.0"

__all__ = [
    "BadInitialCondition", "ConfigError", "CorrectedHolonomy",
    "CorrectionBlocks", "CouplingSet", "DaptError", "DegeneracyChanged",
    "DimensionMismatch", "DynamicalPhase", "GAMMA", "GammaModel",
    "GapCollapse", "Grid", "GridTooSmall", "HolonomyPath",
    "InsufficientSweep", "NonHermitianInput", "NonUnitaryInitial",
    "NotAntiHermitian", "NotGroundStart", "PAULI_X", "PAULI_Y", "PAULI_Z",
    "PI", "PowerLawFit", "PropagationResult", "RankDeficientOverlap",
    "SpectralPath", "SpinHalfModel", "StateFamily", "StepTooLarge",
    "SweepResult", "SweepRow", "ValidityReport", "Workspace", "advance_order",
    "assemble_state", "central_derivative", "check_amplitudes",
    "corrected_holonomy", "couplings_from_path",
    "couplings_via_frame_derivatives", "cumulative_quadrature", "daa_state",
    "first_order_blocks", "first_order_state", "fit_power_law",
    "ground_amplitudes",
    "hamiltonian_samples", "j_integral", "propagate", "read_csv",
    "read_hamiltonian", "residual", "series_state", "smooth_gauge",
    "snapshot_eigensystem", "sweep", "transport_all", "transport_steps",
    "unitary_deviation",
    "unitary_expm", "validity_margins", "write_csv", "write_hamiltonian",
    "write_summary", "wz_transport", "zero_order_blocks",
]
