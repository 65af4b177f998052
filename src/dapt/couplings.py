"""Inter- and intra-level coupling matrices along a spectral path.

Index conventions (the source of most sign bugs in this business, so they
are spelled out once here and accessed only through named methods):

* plain coupling, ``m(n, k)``:    ``M[j, h, g] = <n^h(s_j) | d/ds k^g(s_j)>``
  rows run over level n's labels, columns over level k's labels.
* recursion coupling, ``recursion(k, n)``: the matrix that right-multiplies
  correction blocks in the order-raising recursion,
  ``R[j, h, g] = <n^g(s_j) | d/ds k^h(s_j)>`` -- i.e. the plain ``m(n, k)``
  with its label axes transposed. Rows run over level k, columns over
  level n.
* transport generator, ``a(n, n)``: entrywise conjugate of ``m(n, n)``.

Between distinct levels the plain coupling is computed from the
Hamiltonian derivative, M[h, g] = <n^h| dH/ds |k^g> / (E_k - E_n); within
a level it is the frame-derivative overlap.
"""
from dataclasses import dataclass, field

import numpy as np

from .errors import GapCollapse
from .grid import Grid, central_derivative
from .spectral import SpectralPath, hamiltonian_samples, level_slices


@dataclass(frozen=True)
class CouplingSet:
    """All ordered-pair coupling matrices on a grid.

    ``matrices[(n, k)]`` holds the plain coupling samples, shape
    (n_nodes, d_n, d_k). Energies are per level, shape (n_nodes, n_levels).
    """

    grid: Grid
    energies: np.ndarray
    matrices: dict = field(repr=False)

    @property
    def n_levels(self) -> int:
        return self.energies.shape[1]

    def m(self, n: int, k: int) -> np.ndarray:
        """Plain coupling <n^h| d/ds k^g>, shape (n_nodes, d_n, d_k)."""
        return self.matrices[(n, k)]

    def a(self, n: int, k: int) -> np.ndarray:
        """Entrywise conjugate of the plain coupling (transport generator
        when n == k)."""
        return np.conj(self.matrices[(n, k)])

    def recursion(self, k: int, n: int) -> np.ndarray:
        """Recursion coupling: plain m(n, k) with label axes swapped.

        Right-multiplying a correction block B_{mk} (columns over level k)
        by ``recursion(k, n)`` yields a block with columns over level n.
        """
        return np.swapaxes(self.matrices[(n, k)], 1, 2)

    def gap(self, m: int, n: int) -> np.ndarray:
        """Energy difference E_m(s) - E_n(s), shape (n_nodes,)."""
        return self.energies[:, m] - self.energies[:, n]


def _check_gaps(path: SpectralPath, gap_floor) -> float:
    scale = np.abs(path.energies).max()
    floor = 1e-6 * max(scale, 1.0) if gap_floor is None else gap_floor
    n_levels = path.energies.shape[1]
    for n in range(n_levels):
        for k in range(n + 1, n_levels):
            gap = np.abs(path.energies[:, k] - path.energies[:, n])
            if gap.min() < floor:
                j = int(np.argmin(gap))
                raise GapCollapse(
                    f"gap between levels {n} and {k} is {gap.min():.3e} "
                    f"at node {j}, below floor {floor:.3e}")
    return floor


def couplings_from_path(path: SpectralPath, h,
                        gap_floor: float = None) -> CouplingSet:
    """Standard coupling construction.

    Off-diagonal pairs use the gap formula with the numerical derivative
    of the Hamiltonian ``h`` (callable s -> (dim, dim) or samples
    (n, dim, dim), as for snapshot_eigensystem); the intra-level
    connection uses frame derivatives.

    Raises GapCollapse if any inter-level gap dips below ``gap_floor``
    (default 1e-6 * max(1, |E|_max)).
    """
    _check_gaps(path, gap_floor)
    dh_samples = central_derivative(hamiltonian_samples(h, path.grid),
                                    path.grid)
    # <n^h| dH/ds |k^g> for every level k is a block of one product per
    # level n, B_n^dag dH/ds basis; one level's row at a time keeps the
    # temporaries at a fraction of the (n_nodes, dim, dim) stack
    basis = path.basis()
    slices = level_slices(path.dims)
    mats = {}
    for n, block in enumerate(path.blocks):
        row = np.swapaxes(block, 1, 2).conj() @ dh_samples @ basis
        for k, cols in enumerate(slices):
            if n != k:
                delta = path.energies[:, k] - path.energies[:, n]
                mats[(n, k)] = row[:, :, cols] / delta[:, None, None]
    for n in range(path.n_levels):
        dblock = central_derivative(path.blocks[n], path.grid)
        mats[(n, n)] = np.swapaxes(path.blocks[n], 1, 2).conj() @ dblock
    return CouplingSet(grid=path.grid, energies=path.energies, matrices=mats)

