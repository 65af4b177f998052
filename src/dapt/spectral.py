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
    """
    if callable(h):
        samples = np.stack([np.asarray(h(s), dtype=complex) for s in grid.s])
    else:
        samples = np.asarray(h, dtype=complex)
    if samples.ndim != 3 or samples.shape[0] != grid.n \
            or samples.shape[1] != samples.shape[2]:
        raise DimensionMismatch("expected samples of shape (n, dim, dim)")
    return hermitian_part(samples)


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


def smooth_gauge(path: SpectralPath) -> SpectralPath:
    """Align each level's frames along the grid by unitary Procrustes.

    Node k+1's block is right-multiplied by the polar unitary of the
    overlap block(k)^dagger block(k+1), which maximizes continuity with
    node k. The first frame is left untouched, and level projectors are
    unchanged (gauge moves within each eigenspace only).

    All overlaps are taken between the raw frames, O_k = B_k^dagger B_{k+1},
    in one batched SVD O_k = W_k S_k Vh_k. The aligned frames are
    B_k H_k^dagger with H the ordered product of the polar factors
    W_k Vh_k; this is the node-by-node Procrustes above, because the polar
    factor of G^dagger O is G^dagger times that of O for unitary G.

    Raises
    ------
    RankDeficientOverlap
        If an overlap's smallest singular value drops below MIN_SINGULAR;
        the grid is too coarse or the tracked subspace turned over.
    """
    new_blocks = []
    for level, b in enumerate(path.blocks):
        w, sig, vh = np.linalg.svd(np.swapaxes(b[:-1], 1, 2).conj() @ b[1:])
        low = sig.min(axis=1)
        bad = np.flatnonzero(low < MIN_SINGULAR)
        if bad.size:
            k = int(bad[0])
            raise RankDeficientOverlap(
                f"level {level}: overlap singular value {low[k]:.3e} "
                f"below {MIN_SINGULAR:.3e} between nodes {k} and {k + 1}")
        h = ordered_product(stack_matmul(w, vh), np.eye(b.shape[2]))
        new_blocks.append(stack_matmul(b, np.swapaxes(h, 1, 2).conj()))
    return SpectralPath(grid=path.grid, energies=path.energies,
                        blocks=tuple(new_blocks))
