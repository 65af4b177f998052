"""Test oracles: closed-form and direct constructions that the package's
recursion is checked against.

They share the package's data types and assembly but not its order
recursion (engine.advance_order): the first-order blocks are built from the
J-integral, the mixing and the s = 0 matching pieces directly, and the
couplings by differentiating every frame, with no Hamiltonian derivative.
The two cone models' hand-derived closed forms are here too: their
couplings, holonomies and exact references, and the Gamma model's
adiabatic state, first-order correction and corrected holonomy. They are
independent of the constants K and LAMBDA from which the models derive
their couplings, holonomies and references.
"""
import numpy as np

from dapt.couplings import CouplingSet
from dapt.engine import (CorrectionBlocks, DynamicalPhase, StateFamily,
                         assemble_terms, zero_order_blocks)
from dapt.errors import ConfigError
from dapt.grid import central_derivative, cumulative_quadrature
from dapt.models import PAULI_X, PAULI_Y, PAULI_Z, GammaModel
from dapt.spectral import SpectralPath

# [GAMMA_i, GAMMA_j] = 2i eps_ijk PI_k: the commutators of the Clifford
# triple close on this triple
PI = tuple(np.kron(np.eye(2), p) for p in (PAULI_X, PAULI_Y, PAULI_Z))


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


def gamma_connection(model, s) -> np.ndarray:
    """Plain coupling in d/ds units; one matrix serves every level pair."""
    s = np.asarray(s, dtype=float)
    st, ct = np.sin(model.cone_angle), np.cos(model.cone_angle)
    e = np.exp(2j * np.pi * s)
    row0 = np.stack([st * st * np.ones_like(e), e * st * ct], axis=-1)
    row1 = np.stack([e.conj() * st * ct, -st * st * np.ones_like(e)], axis=-1)
    return -1j * np.pi * np.stack([row0, row1], axis=-2)


def wz_matrix(model, s) -> np.ndarray:
    """Holonomy of either Gamma level, shape (..., 2, 2)."""
    s = np.asarray(s, dtype=float)
    ct, st = np.cos(model.cone_angle), np.sin(model.cone_angle)
    half = np.pi * s
    z1 = np.exp(1j * half) * (np.cos(half * ct) - 1j * ct * np.sin(half * ct))
    z2 = 1j * np.exp(1j * half) * st * np.sin(half * ct)
    row0 = np.stack([z1, -z2.conj()], axis=-1)
    row1 = np.stack([z2, z1.conj()], axis=-1)
    return np.stack([row0, row1], axis=-2)


def corrected_wz(model, s, velocity: float) -> np.ndarray:
    """First-order-dressed ground holonomy: scalar factor times wz_matrix."""
    s = np.asarray(s, dtype=float)
    st = np.sin(model.cone_angle)
    factor = 1.0 + 1j * (np.pi ** 2) * velocity * s * st * st / model.gap
    return factor[..., None, None] * wz_matrix(model, s)


def daa_coefficients(model, s, velocity: float) -> np.ndarray:
    """Order-0 snapshot coefficients for the |0^0(0)> start, (..., 4)."""
    s = np.asarray(s, dtype=float)
    u = wz_matrix(model, s)
    phase = np.exp(1j * model.gap * s / (2.0 * velocity))
    zero = np.zeros_like(phase)
    return np.stack([phase * u[..., 0, 0], phase * u[..., 0, 1],
                     zero, zero], axis=-1)


def first_order_coefficients(model, s, velocity: float) -> np.ndarray:
    """Closed-form psi^(1) snapshot coefficients, |0^0(0)> start.

    Normalized so that exact = daa + velocity * first_order + O(v^2).
    """
    s = np.asarray(s, dtype=float)
    b = model.gap
    ct, st = np.cos(model.cone_angle), np.sin(model.cone_angle)
    u = wz_matrix(model, s)
    z1, z2 = u[..., 0, 0], u[..., 1, 0]
    half = b * s / (2.0 * velocity)
    secular = 1j * (np.pi ** 2) * s * st * st / b
    c10 = 2j * np.pi / b * np.sin(half) * st * (z1 * st + z2 * ct)
    c11 = 2 * np.pi / b * (np.cos(half) * z2.conj()
                           + 1j * np.sin(half) * ct
                           * (z1.conj() * st + z2.conj() * ct))
    out = secular[..., None] * daa_coefficients(model, s, velocity)
    out[..., 2] += c10
    out[..., 3] += c11
    return out


def spin_connection(model, s, level: int = 0) -> np.ndarray:
    """Plain in-level coupling (1x1) of the SpinHalfModel, d/ds units."""
    s = np.asarray(s, dtype=float)
    half = model.cone_angle / 2.0
    w2 = np.sin(half) ** 2 if level == 0 else np.cos(half) ** 2
    return (-2j * np.pi * w2) * np.ones_like(s)[..., None, None]


def holonomy_phase(model, s, level: int = 0) -> np.ndarray:
    """Closed-form Abelian holonomy U^level(s) of the SpinHalfModel, shape
    (..., 1, 1)."""
    s = np.asarray(s, dtype=float)
    half = model.cone_angle / 2.0
    w2 = np.sin(half) ** 2 if level == 0 else np.cos(half) ** 2
    return np.exp(2j * np.pi * s * w2)[..., None, None]


def closed_couplings(model, s) -> dict:
    """Either cone model's plain couplings by level pair, from the forms
    above; the spin-1/2 levels couple by the constant i pi sin(theta)."""
    if isinstance(model, GammaModel):
        m = gamma_connection(model, s)
        return {(n, k): m for n in (0, 1) for k in (0, 1)}
    cross = 1j * np.pi * np.sin(model.cone_angle) \
        * np.ones_like(np.asarray(s, dtype=float))[..., None, None]
    return {(0, 0): spin_connection(model, s, 0),
            (1, 1): spin_connection(model, s, 1),
            (0, 1): cross, (1, 0): cross}


def closed_holonomies(model, s) -> list:
    """Either cone model's per-level holonomies, from the forms above."""
    if isinstance(model, GammaModel):
        return [wz_matrix(model, s)] * 2
    return [holonomy_phase(model, s, n) for n in (0, 1)]
