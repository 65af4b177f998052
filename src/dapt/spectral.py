"""Snapshot eigensystems along a Hamiltonian path, grouped into degenerate levels.

A *level* is a cluster of (numerically) equal eigenvalues; its *frame block*
holds the orthonormal eigenvectors spanning that eigenspace, one column per
in-level label. Blocks are ragged: level n keeps its own degeneracy d_n
columns, no zero padding.
"""
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyChanged, DimensionMismatch, RankDeficientOverlap
from .grid import Grid
from .linalg import hermitian_part, ordered_product, stack_matmul

MIN_SINGULAR = 1e-6            # smallest accepted frame-overlap singular value
POLAR_RADIUS = 1e-3            # d max|O^dag O - I| up to which an overlap's
                               # polar factor is a series, not an SVD


def level_slices(dims) -> list:
    """Slices of each level inside the flattened snapshot index."""
    out, start = [], 0
    for d in dims:
        out.append(slice(start, start + d))
        start += d
    return out


@dataclass(frozen=True)
class SpectralPath:
    """Eigensystem samples along the whole grid.

    Attributes
    ----------
    grid : Grid
    energies : ndarray, shape (n, n_levels)
        Level energies, ascending in the level index at every node.
    blocks : tuple of ndarray
        One array per level, shape (n, dim, d_level); columns are the
        eigenvector frame at each node. Read-only views of the basis.
    """

    grid: Grid
    energies: np.ndarray
    blocks: tuple

    def __post_init__(self):
        n = self.grid.n
        if self.energies.shape != (n, len(self.blocks)):
            raise DimensionMismatch("energies shape does not match grid/levels")
        dim = self.dim
        for b in self.blocks:
            if b.shape[0] != n or b.shape[1] != dim:
                raise DimensionMismatch("frame block shape mismatch")
        # The basis is read at every velocity, so it is concatenated once;
        # the blocks become views of it rather than a second copy.
        basis = np.concatenate(self.blocks, axis=2)
        basis.flags.writeable = False
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "blocks", tuple(
            basis[:, :, sl] for sl in level_slices(self.dims)))

    @property
    def n_levels(self) -> int:
        return len(self.blocks)

    @property
    def dims(self) -> tuple:
        return tuple(b.shape[2] for b in self.blocks)

    @property
    def dim(self) -> int:
        return sum(self.dims)

    def basis(self) -> np.ndarray:
        """Full snapshot basis, shape (n, dim, dim): blocks side by side
        (read-only, shared by every caller)."""
        return self._basis


def hamiltonian_samples(h, grid: Grid) -> np.ndarray:
    """Stack H(s_k) for a callable, or validate precomputed samples.

    Returns the Hermitian part of the samples; raises NonHermitianInput
    when they are not Hermitian to tolerance (see linalg.hermitian_part).
    A HermitianSamples passed as ``h`` was checked when it was made: its
    read-only values come back as they are.
    """
    checked = isinstance(h, HermitianSamples)
    if checked:
        samples = h.values
    elif callable(h):
        samples = np.stack([np.asarray(h(s), dtype=complex) for s in grid.s])
    else:
        samples = np.asarray(h, dtype=complex)
    if samples.ndim != 3 or samples.shape[0] != grid.n \
            or samples.shape[1] != samples.shape[2]:
        raise DimensionMismatch("expected samples of shape (n, dim, dim)")
    return samples if checked else hermitian_part(samples)


class HermitianSamples:
    """H(s_k) on a grid, checked Hermitian once, when made.

    ``HermitianSamples(h, grid)`` takes what hamiltonian_samples takes and
    holds its result, read-only, as ``values``. Every function that takes
    a Hamiltonian path through hamiltonian_samples (snapshot_eigensystem,
    couplings_from_path, propagate) accepts one in place of ``h`` and does
    not check it again, so samples are checked once however many layers
    read them: read_hamiltonian returns one, and Workspace.build holds it
    as it is.
    """

    __slots__ = ("values",)

    def __init__(self, h, grid: Grid):
        values = hamiltonian_samples(h, grid)
        values.flags.writeable = False
        self.values = values


def _cluster_mask(energies: np.ndarray, tol: float) -> np.ndarray:
    """Boolean split markers between adjacent eigenvalues, per node."""
    scale = np.maximum(1.0, np.abs(energies).max(axis=1, keepdims=True))
    return np.diff(energies, axis=1) > tol * scale


def snapshot_eigensystem(h, grid: Grid,
                         degeneracy_tol: float = 1e-8) -> SpectralPath:
    """Diagonalize H(s) on the grid and group eigenvalues into levels.

    Parameters
    ----------
    h : callable or ndarray
        Hamiltonian path: callable s -> (dim, dim) or samples (n, dim, dim).
    grid : Grid
    degeneracy_tol : float
        Eigenvalues closer than tol * max(1, |E|_max) are one level.

    Returns
    -------
    SpectralPath
        Levels ascending in energy; per-node gauges are whatever the
        eigensolver returned (see smooth_gauge).

    Raises
    ------
    NonHermitianInput
        If any sample fails the Hermiticity check of hamiltonian_samples.
    DegeneracyChanged
        If the cluster structure differs between nodes (level crossing or
        a tolerance straddling a gap).
    """
    samples = hamiltonian_samples(h, grid)
    evals, evecs = np.linalg.eigh(samples)

    mask = _cluster_mask(evals, degeneracy_tol)
    if not np.all(mask == mask[0]):
        bad = int(np.argmax(np.any(mask != mask[0], axis=1)))
        raise DegeneracyChanged(
            f"degeneracy structure changes at node {bad} (s={grid.s[bad]:.6g})")
    splits = np.flatnonzero(mask[0]) + 1
    bounds = [0, *splits.tolist(), evals.shape[1]]

    energies = np.stack(
        [evals[:, a:b].mean(axis=1) for a, b in zip(bounds, bounds[1:])], axis=1)
    blocks = tuple(evecs[:, :, a:b] for a, b in zip(bounds, bounds[1:]))
    return SpectralPath(grid=grid, energies=energies, blocks=blocks)


def _newton_schulz(u: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step u (3I - u^dag u) / 2 on a stack of d x d
    matrices. It keeps u's singular vectors and maps each singular value
    1 + e to 1 - 3 e^2 / 2 + O(e^3), so it squares a small unitarity
    defect and moves u toward its own polar unitary."""
    g = stack_matmul(np.swapaxes(u, -1, -2).conj(), u)
    g *= -0.5
    diag = np.arange(u.shape[-1])
    g[..., diag, diag] += 1.5
    return stack_matmul(u, g)


def _polar_factors(overlaps: np.ndarray, level: int) -> np.ndarray:
    """Polar unitaries W Vh of the overlaps O = W S Vh, shape (m, d, d).

    Where d max|E| <= POLAR_RADIUS, E = O^dag O - I, the polar unitary is
    O (I + E)^(-1/2) from the series O (I - E/2 + 3E^2/8 - 5E^3/16),
    whose singular values are within (35/128) POLAR_RADIUS^4 of 1, then
    one Newton-Schulz step; that squares the residue to below roundoff.
    There |E|_2 <= d max|E|, so the smallest singular value is at least
    sqrt(1 - POLAR_RADIUS) and the MIN_SINGULAR check cannot fail. The
    other overlaps go to an SVD, checked against MIN_SINGULAR.
    """
    d = overlaps.shape[-1]
    diag = np.arange(d)
    e = stack_matmul(np.swapaxes(overlaps, 1, 2).conj(), overlaps)
    e[:, diag, diag] -= 1.0
    rough = np.flatnonzero(d * np.abs(e).max(axis=(1, 2)) > POLAR_RADIUS)
    series = (-5.0 / 16.0) * e
    series[:, diag, diag] += 3.0 / 8.0
    series = stack_matmul(e, series)
    series[:, diag, diag] -= 0.5
    series = stack_matmul(e, series)
    series[:, diag, diag] += 1.0
    polar = _newton_schulz(stack_matmul(overlaps, series))
    if rough.size:
        w, sig, vh = np.linalg.svd(overlaps[rough])
        low = sig.min(axis=1)
        bad = np.flatnonzero(low < MIN_SINGULAR)
        if bad.size:
            k = int(rough[bad[0]])
            raise RankDeficientOverlap(
                f"level {level}: overlap singular value {low[bad[0]]:.3e} "
                f"below {MIN_SINGULAR:.3e} between nodes {k} and {k + 1}")
        polar[rough] = stack_matmul(w, vh)
    return polar


def smooth_gauge(path: SpectralPath) -> SpectralPath:
    """Align each level's frames along the grid by unitary Procrustes.

    Node k+1's block is right-multiplied by the polar unitary of the
    overlap block(k)^dagger block(k+1), which maximizes continuity with
    node k. The first frame is left untouched, and level projectors are
    unchanged (gauge moves within each eigenspace only).

    All overlaps are taken between the raw frames, O_k = B_k^dagger B_{k+1},
    and their polar factors P_k = W_k Vh_k (O_k = W_k S_k Vh_k) taken at
    once, by a series where O_k is near unitary (see _polar_factors). The
    aligned frames are B_k H_k^dagger with H the ordered product of the
    P_k; this is the node-by-node Procrustes above, because the polar
    factor of G^dagger O is G^dagger times that of O for unitary G. One
    Newton-Schulz step on H removes the unitarity defect the n - 1
    products accumulate.

    Raises
    ------
    RankDeficientOverlap
        If an overlap's smallest singular value drops below MIN_SINGULAR;
        the grid is too coarse or the tracked subspace turned over.
    """
    new_blocks = []
    for level, b in enumerate(path.blocks):
        polar = _polar_factors(np.swapaxes(b[:-1], 1, 2).conj() @ b[1:],
                               level)
        h = _newton_schulz(ordered_product(polar, np.eye(b.shape[2])))
        new_blocks.append(stack_matmul(b, np.swapaxes(h, 1, 2).conj()))
    return SpectralPath(grid=path.grid, energies=path.energies,
                        blocks=tuple(new_blocks))
