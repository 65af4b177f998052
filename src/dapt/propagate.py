"""Exact Schrodinger propagation in scaled time, i v d psi/ds = H(s) psi.

Classic fixed-step RK4 on the protocol grid, with each grid interval split
into enough substeps to cap the phase advanced per step. Serves as the
reference against which the perturbative reconstruction is checked, so it
deliberately shares no code with the series engine beyond the grid type.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import StepTooLarge
from .grid import Grid
from .spectral import SpectralPath, hamiltonian_samples


@dataclass(frozen=True)
class PropagationResult:
    grid: Grid
    velocity: float
    psi: np.ndarray            # (n_nodes, dim) or (n_nodes, labels, dim)
    norm_drift: float
    substeps: int

    def project(self, path: SpectralPath) -> np.ndarray:
        """Snapshot-basis coefficients <n^g(s_k)|psi(s_k)>, same layout."""
        if self.psi.ndim == 2:
            return np.einsum("kij,ki->kj", path.basis().conj(), self.psi)
        return np.einsum("kij,khi->khj", path.basis().conj(), self.psi)


def _ladder(h, samples: np.ndarray, grid: Grid, k: int, m: int) -> np.ndarray:
    """H at the 2m+1 half-substep points spanning grid interval k."""
    s = grid.s[k] + (grid.h / (2 * m)) * np.arange(2 * m + 1)
    if callable(h):
        return np.stack([np.asarray(h(x), dtype=complex) for x in s])
    w = ((s - grid.s[k]) / grid.h)[:, None, None]
    return (1.0 - w) * samples[k] + w * samples[k + 1]


def propagate(h, grid: Grid, psi0, velocity: float, max_phase: float = 0.1,
              substeps: int = None,
              max_steps: int = 2_000_000) -> PropagationResult:
    """Integrate the exact dynamics for one or more initial states.

    ``psi0`` may be a single vector (dim,) or a batch (labels, dim); the
    batch propagates in one pass. ``substeps`` overrides the automatic
    per-interval subdivision chosen from ``max_phase``.
    """
    if velocity <= 0.0:
        raise ValueError("velocity must be positive")
    samples = hamiltonian_samples(h, grid)

    psi0 = np.asarray(psi0, dtype=complex)
    single = psi0.ndim == 1
    y = psi0[None, :] if single else psi0
    dim = samples.shape[1]
    if y.shape[-1] != dim:
        raise ValueError(f"state dimension {y.shape[-1]} != H dimension {dim}")

    if substeps is None:
        scale = float(np.abs(np.linalg.eigvalsh(samples)).max())
        substeps = max(1, math.ceil(grid.h * scale / (velocity * max_phase)))
    total = (grid.n - 1) * substeps
    if total > max_steps:
        raise StepTooLarge(
            f"{total} RK4 steps exceed max_steps={max_steps}; raise the "
            "velocity, coarsen the grid, or pass substeps explicitly")

    out = np.empty((grid.n,) + y.shape, dtype=complex)
    out[0] = y
    dt = grid.h / substeps
    c = -1j / velocity
    yt = y.T.copy()                          # (dim, labels) so H @ yt works
    for k in range(grid.n - 1):
        hs = _ladder(h, samples, grid, k, substeps)
        for j in range(substeps):
            h0, hm, h1 = hs[2 * j], hs[2 * j + 1], hs[2 * j + 2]
            k1 = c * (h0 @ yt)
            k2 = c * (hm @ (yt + (dt / 2) * k1))
            k3 = c * (hm @ (yt + (dt / 2) * k2))
            k4 = c * (h1 @ (yt + dt * k3))
            yt = yt + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = yt.T
    norms = np.linalg.norm(out, axis=2)
    drift = float(np.abs(norms - norms[0]).max())
    psi = out[:, 0, :] if single else out
    return PropagationResult(grid=grid, velocity=velocity, psi=psi,
                             norm_drift=drift, substeps=substeps)


def residual(a: np.ndarray, b: np.ndarray) -> float:
    """Sup over nodes (and labels) of the 2-norm state difference."""
    diff = np.asarray(a) - np.asarray(b)
    return float(np.linalg.norm(diff, axis=-1).max())
