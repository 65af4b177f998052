"""Test oracles: closed-form and direct constructions that the package's
recursion is checked against.

They share the package's data types and assembly but not its order
recursion (engine.advance_order): the first-order blocks are built from the
J-integral, the mixing and the s = 0 matching pieces directly, and the
couplings by differentiating every frame, with no Hamiltonian derivative.
"""
import numpy as np

from dapt.couplings import CouplingSet
from dapt.engine import (CorrectionBlocks, DynamicalPhase, StateFamily,
                         assemble_terms, zero_order_blocks)
from dapt.grid import central_derivative, cumulative_quadrature
from dapt.spectral import SpectralPath


def daa_state(cs, holonomies, phases: DynamicalPhase,
              velocity: float) -> StateFamily:
    """Degenerate adiabatic approximation (order 0) of the ground start."""
    return assemble_terms([zero_order_blocks(cs, holonomies)], phases,
                          velocity)[0]


def j_integral(cs, holonomies, n: int, m: int) -> np.ndarray:
    """Running integral J^{nmn}(s) = int_0^s W2^{nmn} / Delta_nm ds'.

    W2^{nmn} = U^n R^{nm} R^{mn} U^n-dagger with R the recursion coupling;
    shape (n_nodes, d_n, d_n). Composite-Simpson accumulation.
    """
    u = holonomies[n]
    u_dag = np.swapaxes(u, 1, 2).conj()
    w2 = u @ cs.recursion(n, m) @ cs.recursion(m, n) @ u_dag
    integrand = w2 / cs.gap(n, m)[:, None, None]
    return cumulative_quadrature(integrand, cs.grid)


def first_order_blocks(cs, holonomies) -> CorrectionBlocks:
    """Closed-form first-order blocks of the ground start (independent of
    advance_order).

    The three first-order contributions in the CorrectionBlocks layout:
    block (0, 0) holds the secular J-integral piece inside the ground
    level, block (n, n) the s = 0 matching piece and block (0, n) the
    instantaneous mixing piece of excited level n. Velocity-free like every
    block; their assembly psi^(1) vanishes at s = 0 by construction.
    """
    dims = tuple(cs.matrices[(n, n)].shape[1] for n in range(cs.n_levels))
    levels = range(cs.n_levels)
    out = CorrectionBlocks.zeros(1, cs.grid, dims, dims[0])
    u_0 = holonomies[0]
    for n in levels[1:]:
        u_n = holonomies[n]
        delta_n0 = cs.gap(n, 0)[:, None, None]
        w1_0 = u_0[0] @ cs.recursion(0, n)[0] @ u_n[0].conj().T
        out.block(0, 0)[...] += 1j * (j_integral(cs, holonomies, 0, n) @ u_0)
        out.block(n, n)[...] += -1j * (w1_0 @ u_n) / delta_n0[0]
        out.block(0, n)[...] += 1j * (u_0 @ cs.recursion(0, n)) / delta_n0
    return out


def first_order_state(cs, holonomies, phases: DynamicalPhase,
                      velocity: float) -> StateFamily:
    """Closed-form first-order family psi^(1): first_order_blocks assembled
    at one velocity."""
    return assemble_terms([first_order_blocks(cs, holonomies)], phases,
                          velocity)[0]


def couplings_via_frame_derivatives(path: SpectralPath) -> CouplingSet:
    """All pairs by direct frame differentiation <n^h | d/ds k^g>.

    Independent of any Hamiltonian derivative; useful as a cross-check of
    the gap-formula route. Accuracy is set by the derivative stencil.
    """
    dblocks = [central_derivative(b, path.grid) for b in path.blocks]
    mats = {}
    for n in range(path.n_levels):
        bn_dag = np.swapaxes(path.blocks[n], 1, 2).conj()
        for k in range(path.n_levels):
            mats[(n, k)] = bn_dag @ dblocks[k]
    return CouplingSet(grid=path.grid, energies=path.energies, matrices=mats)
