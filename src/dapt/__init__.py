"""Degenerate adiabatic perturbation theory toolkit.

Numerical machinery for slowly driven quantum systems whose levels may be
degenerate: snapshot eigensystems, non-Abelian (Wilczek-Zee) holonomies,
the degenerate adiabatic approximation, order-by-order non-adiabatic
corrections, adiabaticity validity margins, and an exact reference
propagator, plus two benchmark models with closed-form solutions.

The independent references the order recursion is tested against (the
closed-form first-order blocks, the J-integral, the order-0 family, the
frame-derivative couplings and the models' hand-derived closed forms)
live with the tests, in tests/oracles.py.
"""
from .couplings import couplings_from_path
from .engine import (DynamicalPhase, StateFamily, advance_order, series_state,
                     validity_margins, zero_order_blocks)
from .errors import (ConfigError, DaptError, DegeneracyChanged,
                     DimensionMismatch, GapCollapse, GridTooSmall,
                     InsufficientSweep, NonHermitianInput, NotAntiHermitian,
                     NotGroundStart, RankDeficientOverlap, StepTooLarge)
from .grid import Grid, central_derivative, cumulative_quadrature
from .hamio import (read_csv, read_hamiltonian, write_csv, write_hamiltonian,
                    write_summary)
from .holonomy import corrected_holonomy, transport_all, wz_transport
from .linalg import unitary_deviation, unitary_expm
from .models import GAMMA, GammaModel, SpinHalfModel
from .pipeline import Workspace, fit_power_law, sweep
from .propagate import propagate, residual
from .spectral import (SpectralPath, hamiltonian_samples, smooth_gauge,
                       snapshot_eigensystem)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DaptError", "DegeneracyChanged", "DimensionMismatch",
    "DynamicalPhase", "GAMMA", "GammaModel", "GapCollapse", "Grid",
    "GridTooSmall", "InsufficientSweep", "NonHermitianInput",
    "NotAntiHermitian", "NotGroundStart", "RankDeficientOverlap",
    "SpectralPath", "SpinHalfModel", "StateFamily", "StepTooLarge",
    "Workspace", "advance_order", "central_derivative", "corrected_holonomy",
    "couplings_from_path", "cumulative_quadrature", "fit_power_law",
    "hamiltonian_samples", "propagate", "read_csv", "read_hamiltonian",
    "residual", "series_state", "smooth_gauge", "snapshot_eigensystem",
    "sweep", "transport_all", "unitary_deviation", "unitary_expm",
    "validity_margins", "write_csv", "write_hamiltonian", "write_summary",
    "wz_transport", "zero_order_blocks",
]
