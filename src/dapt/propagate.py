"""Exact Schrodinger propagation in scaled time, i v d psi/ds = H(s) psi.

Commutator-free fourth-order Magnus stepping on the protocol grid (Blanes,
Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151), with each grid interval
split into enough substeps to cap the phase advanced per step. Every step
is the exponential, to roundoff, of an anti-Hermitian generator built from
H at the two Gauss-Legendre points of the substep, so every step is
unitary to roundoff.
The substeps of each interval are composed into one factor, batched over
blocks of intervals, and the factors are chained by the package's
ordered-product kernel.

Up to dimension ROW_DIM the blocks are built node-fastest: H at the Gauss
points, the generator, its exponential and the substep composition are
(dim, dim, block) stacks with the interval index last, of ROW_BYTES each,
and every product is one einsum over whole rows (linalg.row_matmul) with
no BLAS call. Larger systems keep node-first blocks of BLOCK intervals,
where ``@`` makes one zgemm call per matrix. The samples stay node-first
and the finished factors are node-first either way. Median of 9 rounds
of 8 propagations (n = 2001, substeps from MAX_PHASE, v = 0.01 to 0.1)
of a random rotating family on a 2-core host (NumPy 2.4.6, OpenBLAS),
node-first -> node-fastest, one after another and in a pool of two
threads:

    dim   one thread       two threads
    2     100 -> 60 ms     136 -> 58 ms
    3     156 -> 102 ms    184 -> 117 ms
    4     215 -> 159 ms    235 -> 145 ms
    5     277 -> 239 ms    286 -> 176 ms
    6     299 -> 325 ms    297 -> 255 ms
    7     377 -> 443 ms    353 -> 327 ms
    8     421 -> 578 ms    354 -> 383 ms

From dimension 6 on one thread gets slower, hence ROW_DIM = 5. ROW_BYTES
(384 intervals at dimension 4) keeps the traced peak of one propagation
of the n = 2001 Gamma file at 1.1 MB, against 0.9 MB for node-first
blocks; 1 << 17 bytes reads 1.3 MB.

Serves as the reference against which the perturbative reconstruction is
checked, so it shares no engine logic with the series: only the grid, the
Hermiticity check, the Taylor exponential and the generic ordered product.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import StepTooLarge
from .grid import Grid
from .linalg import (hermitian_part, ordered_product, row_expm, row_matmul,
                     small_expm, stack_matmul)
from .spectral import hamiltonian_samples

BLOCK = 128                    # intervals per batch, node-first
ROW_DIM = 5                    # largest dimension stepped node-fastest
ROW_BYTES = 3 << 15            # bytes of one (dim, dim, block) stack
MAX_PHASE = 0.1                # phase cap per substep, radians
MAX_STEPS = 2_000_000          # cap on Magnus steps per propagation
GAUSS = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0


@dataclass(frozen=True)
class PropagationResult:
    grid: Grid
    velocity: float
    psi: np.ndarray            # (n_nodes, dim) or (n_nodes, labels, dim)
    norm_drift: float
    substeps: int


def _hamiltonian_at(h, samples: np.ndarray, grid: Grid, k: np.ndarray,
                    x: np.ndarray, axis: int) -> np.ndarray:
    """H at the points ``x`` inside grid intervals ``k``: the callable
    itself, or the linear interpolant of the samples. The result holds the
    interval index on ``axis``: 0 node-first, -1 node-fastest. The samples
    stay node-first; only the block's values are transposed, here."""
    if callable(h):
        out = hermitian_part(np.stack([np.asarray(h(p), dtype=complex)
                                       for p in x]))
    else:
        w = ((x - grid.s[k]) / grid.h)[:, None, None]
        out = (1.0 - w) * samples[k] + w * samples[k + 1]
    return np.ascontiguousarray(np.moveaxis(out, 0, axis))


def _interval_factors(h, samples: np.ndarray, grid: Grid, k: np.ndarray,
                      substeps: int, velocity: float,
                      axis: int) -> np.ndarray:
    """Transposed one-interval propagators U_k^T for the intervals ``k``,
    with the interval index on ``axis``.

    Substep j of interval k is exp(Omega) with
    Omega = -i dt/(2v) (H1 + H2) - (sqrt(3) dt^2 / (12 v^2)) [H2, H1],
    H1 and H2 taken at the Gauss points, exponentiated to roundoff by the
    Taylor polynomial of dapt.linalg: row_expm on row_matmul for a
    node-fastest (dim, dim, intervals) stack (axis -1), small_expm on
    stack_matmul for a node-first one (axis 0). MAX_PHASE caps Omega's
    spectral norm near 0.1; its 1-norm on the benchmark's files is 0.005
    to 0.24, inside the degree-12 radius, so each step there is a Taylor
    polynomial of at most 5 products with no squaring.
    """
    matmul, expm = (row_matmul, row_expm) if axis else (stack_matmul,
                                                        small_expm)
    rows = 0 if axis else 1
    dt = grid.h / substeps
    a = dt / (2.0 * velocity)
    b = math.sqrt(3.0) * dt * dt / (12.0 * velocity * velocity)
    out = None
    for j in range(substeps):
        x1, x2 = (grid.s[k] + dt * (j + g) for g in GAUSS)
        h1 = _hamiltonian_at(h, samples, grid, k, x1, axis)
        h2 = _hamiltonian_at(h, samples, grid, k, x2, axis)
        # gen = i Omega
        gen = a * (h1 + h2) - 1j * b * (matmul(h2, h1) - matmul(h1, h2))
        # exp(-i gen)^T, the row-vector form ordered_product uses; H at the
        # Gauss points is freed before the polynomial
        x = -1j * np.swapaxes(gen, rows, rows + 1)
        del h1, h2, gen
        step = expm(x)
        del x
        out = step if out is None else matmul(out, step)
    return out


def substep_count(scale: float, h: float, velocity: float) -> int:
    """Substeps per grid interval of width h that keep the phase advanced
    per substep, h scale / (v substeps), within MAX_PHASE; ``scale`` bounds
    |E| over the path."""
    return max(1, math.ceil(h * scale / (velocity * MAX_PHASE)))


def propagate(h, grid: Grid, psi0, velocity: float,
              substeps: int = None) -> PropagationResult:
    """Integrate the exact dynamics for one or more initial states.

    ``psi0`` may be a single vector (dim,) or a batch (labels, dim); the
    batch propagates in one pass. ``substeps`` overrides the automatic
    per-interval subdivision chosen from MAX_PHASE. Raises StepTooLarge
    when the grid intervals times the substeps exceed MAX_STEPS.
    """
    if velocity <= 0.0:
        raise ValueError("velocity must be positive")
    if substeps is not None and substeps < 1:
        raise ValueError("substeps must be at least 1")
    samples = hamiltonian_samples(h, grid)

    psi0 = np.asarray(psi0, dtype=complex)
    single = psi0.ndim == 1
    y = psi0[None, :] if single else psi0
    dim = samples.shape[1]
    if y.shape[-1] != dim:
        raise ValueError(f"state dimension {y.shape[-1]} != H dimension {dim}")

    if substeps is None:
        scale = float(np.abs(np.linalg.eigvalsh(samples)).max())
        substeps = substep_count(scale, grid.h, velocity)
    total = (grid.n - 1) * substeps
    if total > MAX_STEPS:
        raise StepTooLarge(
            f"{total} Magnus steps exceed MAX_STEPS={MAX_STEPS}; raise the "
            "velocity, coarsen the grid, or pass substeps explicitly")

    factors = np.empty((grid.n - 1, dim, dim), dtype=complex)
    # up to ROW_DIM the steps are built node-fastest, in blocks of
    # ROW_BYTES; larger systems keep node-first blocks of BLOCK intervals
    if dim <= ROW_DIM:
        axis, block = -1, max(1, ROW_BYTES // factors[0].nbytes)
    else:
        axis, block = 0, BLOCK
    for lo in range(0, grid.n - 1, block):
        k = np.arange(lo, min(lo + block, grid.n - 1))
        factors[k] = np.moveaxis(_interval_factors(
            h, samples, grid, k, substeps, velocity, axis), axis, 0)
    out = ordered_product(factors, y)
    norms = np.linalg.norm(out, axis=2)
    drift = float(np.abs(norms - norms[0]).max())
    psi = out[:, 0, :] if single else out
    return PropagationResult(grid=grid, velocity=velocity, psi=psi,
                             norm_drift=drift, substeps=substeps)


def residual(a: np.ndarray, b: np.ndarray) -> float:
    """Sup over nodes (and labels) of the 2-norm state difference.

    The squared moduli are summed one state component at a time, each a
    whole-array operation, rather than in a reduction over the short last
    axis: 0.39 against 0.83 ms for a (16001, 4) complex difference.
    """
    diff = np.asarray(a) - np.asarray(b)
    square = 0.0
    for j in range(diff.shape[-1]):
        column = diff[..., j]
        square = square + (column.real ** 2 + column.imag ** 2)
    return float(np.sqrt(np.max(square)))
