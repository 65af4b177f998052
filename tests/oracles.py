"""Test oracles: closed-form and direct constructions that the package's
recursion is checked against.

They share the package's data types and assembly but not its order
recursion (engine.advance_order): the first-order blocks are built from the
J-integral, the mixing and the s = 0 matching pieces directly, and the
couplings by differentiating every frame, with no Hamiltonian derivative.
The two cone models' exact references are hand-derived closed forms here,
independent of the models' rotating-frame eigendecomposition.
"""
import numpy as np

from dapt.couplings import CouplingSet
from dapt.engine import (CorrectionBlocks, DynamicalPhase, StateFamily,
                         assemble_terms, zero_order_blocks)
from dapt.errors import ConfigError
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


def gamma_rabi(model, s, velocity: float):
    w = 2.0 * np.pi * velocity
    b, ct = model.gap, np.cos(model.cone_angle)
    om_p = np.sqrt(w * w + b * b + 2.0 * w * b * ct)
    om_m = np.sqrt(w * w + b * b - 2.0 * w * b * ct)
    if min(om_p, om_m) < 1e-12 * max(w, b):
        raise ConfigError("resonant parameters: closed form is singular")
    t = np.asarray(s, dtype=float) / velocity
    amplitudes = []
    for om, c in ((om_p, b + w * ct), (om_m, b - w * ct)):
        # one sine and one cosine per frequency
        half = om * t / 2
        sin = np.sin(half)
        amplitudes += [np.cos(half) + 1j * (c / om) * sin,
                       1j * (w / om) * sin]
    a_p, b_p, a_m, b_m = amplitudes
    return a_p, a_m, b_p, b_m


def gamma_exact_coefficients(model, s, velocity: float) -> np.ndarray:
    """Snapshot coefficients of the GammaModel's exact state started in
    |0^0(0)>, from the Rabi solution of its two decoupled 2x2 blocks.

    Shape (..., 4), ordered like the frame columns: a view of (4, ...)
    memory, so each column is one contiguous row.
    """
    a_p, a_m, b_p, b_m = gamma_rabi(model, s, velocity)
    s = np.asarray(s, dtype=float)
    ct, st = np.cos(model.cone_angle), np.sin(model.cone_angle)
    ep = np.exp(1j * np.pi * s)
    out = np.empty((4,) + s.shape, dtype=complex)
    np.multiply(ep, (1 + ct) / 2 * a_m + (1 - ct) / 2 * a_p,
                out=out[0, ...])
    np.multiply(ep.conj(), st / 2 * (a_p - a_m), out=out[1, ...])
    np.multiply(ep, st * st / 2 * (b_p + b_m), out=out[2, ...])
    np.multiply(ep.conj(), st * ((1 + ct) / 2 * b_m - (1 - ct) / 2 * b_p),
                out=out[3, ...])
    return np.moveaxis(out, 0, -1)


def spin_exact_coefficients(model, s, velocity: float) -> np.ndarray:
    """Snapshot coefficients of the SpinHalfModel's exact state started in
    the ground frame at s = 0, shape (..., 2).

    In the frame rotating with the drive the Hamiltonian is the static
    h . sigma, h = (gap sin(theta) / 2, 0, (gap cos(theta) - w) / 2), so
    with t = s / velocity and F0 = frames(0), which is real, symmetric
    and its own inverse, the coefficients are
    exp(i pi s) F0 exp(-i t h . sigma) F0[:, 0], written out here.
    """
    w = 2.0 * np.pi * velocity
    s = np.asarray(s, dtype=float)
    t = s / velocity
    b, theta = model.gap, model.cone_angle
    hx = 0.5 * b * np.sin(theta)
    hz = 0.5 * (b * np.cos(theta) - w)
    om = np.sqrt(hx * hx + hz * hz)
    ep = np.exp(1j * np.pi * s)
    if om < 1e-300:     # h = 0: the rotating frame stands still
        return np.stack([ep, np.zeros_like(ep)], axis=-1)
    sin = np.sin(om * t) / om
    # F0 sigma_x F0[:, 0] = (-sin, cos) and F0 sigma_z F0[:, 0] =
    # (-cos, -sin) of theta
    along = hx * np.sin(theta) + hz * np.cos(theta)
    across = hx * np.cos(theta) - hz * np.sin(theta)
    return np.stack([ep * (np.cos(om * t) + 1j * along * sin),
                     -1j * across * ep * sin], axis=-1)
