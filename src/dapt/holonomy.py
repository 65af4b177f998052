"""Non-Abelian (Wilczek-Zee) holonomy transport and its velocity correction."""
import numpy as np

from .engine import transport_steps
from .errors import DimensionMismatch, NotGroundStart
from .grid import Grid
from .linalg import ordered_product, unitary_expm
from .spectral import level_slices


def wz_transport(a_nn: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve dU/ds = U A(s), U(0) = I, for anti-Hermitian A sampled on the
    grid.

    Midpoint-Magnus stepping: U(s_{k+1}) = U(s_k) expm(h A(s_{k+1/2})),
    with the midpoint generator taken as the average of adjacent node
    samples. Global error O(h^2); each factor is unitary to roundoff.

    Parameters
    ----------
    a_nn : ndarray, shape (n, d, d)
        Anti-Hermitian generator samples (conjugated intra-level coupling).
    grid : Grid

    Returns
    -------
    ndarray, shape (n, d, d)
    """
    a_nn = np.asarray(a_nn, dtype=complex)
    if a_nn.shape[0] != grid.n:
        raise DimensionMismatch("generator sample count does not match grid")
    mids = 0.5 * (a_nn[:-1] + a_nn[1:])
    return ordered_product(unitary_expm(mids, grid.h),
                           np.eye(a_nn.shape[1], dtype=complex))


def transport_all(cs) -> list:
    """Wilczek-Zee transport from the identity for every level of a
    CouplingSet, one (n, d, d) array per level: each level's midpoint
    exponentials (engine.transport_steps) chained as wz_transport chains
    its own, so the two agree bit for bit.
    """
    return [ordered_product(steps, np.eye(steps.shape[1], dtype=complex))
            for steps in transport_steps(cs)]


def corrected_holonomy(psi0_family, psi1_family, phases,
                       velocity: float) -> np.ndarray:
    """Combine zeroth- and first-order families into the corrected ground
    holonomy V, shape (n, labels, d): a view of node-contiguous memory.

    The families must hold snapshot-basis coefficients (see StateFamily);
    the zeroth order must start entirely inside the ground level (level 0).
    Rows of V are raw projections of psi^(0) + v psi^(1) onto the ground
    frame, phase-unwound by the ground level's dynamical phase; V reduces
    to the bare holonomy as v -> 0. No row renormalization is applied, so
    its unitarity defect, unitary_deviation(V), is a genuine O(v^2)
    diagnostic.

    Raises NotGroundStart if the zeroth order has weight above 1e-10
    outside level 0 at s = 0.
    """
    sl = level_slices(psi0_family.dims)[0]
    c0 = psi0_family.coefficients
    c1 = psi1_family.coefficients
    if c0.shape != c1.shape:
        raise DimensionMismatch("family shapes differ")
    outside = np.linalg.norm(c0[0, :, sl.stop:], axis=1)
    if outside.max() > 1e-10:
        raise NotGroundStart(
            f"zeroth order has weight {outside.max():.3e} outside level 0 at s=0")

    # only the ground columns of psi^(0) + v psi^(1), as rows over the nodes
    ground = np.moveaxis(c0[:, :, sl] + velocity * c1[:, :, sl], 0, -1)
    phase_back = np.exp(1j * phases.omega[:, 0] / velocity)
    return np.moveaxis(phase_back * ground, -1, 0)
