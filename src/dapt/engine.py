"""Order-by-order construction of the adiabatic perturbation series.

Units: hbar = 1. The expansion parameter is the sweep velocity v = 1/t_final;
states are reconstructed as psi = sum_p v^p psi^(p). Correction blocks are
stored velocity-free, so one block computation serves a whole v-sweep;
velocity enters only through the dynamical phase factors at assembly time.
Each order's off-diagonal blocks are algebraic in the previous order's; its
diagonal blocks are one cumulative quadrature against the workspace's
holonomies, so the recursion runs no transport of its own.

The series starts in the degenerate ground level (level 0): initial-condition
label h is the state that starts on ground frame column h at s = 0.

Block layout: B^(p)[(m, n)] has shape (n_nodes, d_0, d_n). The column axis
is ragged (level n's degeneracy); the rows are the d_0 ground labels.
"""
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch
from .grid import Grid, central_derivative, cumulative_quadrature
from .linalg import stack_matmul, unitary_expm
from .spectral import SpectralPath, level_slices


@dataclass(frozen=True)
class DynamicalPhase:
    """Accumulated phase integrals omega_n(s) = int_0^s E_n ds', per level."""

    grid: Grid
    omega: np.ndarray          # (n_nodes, n_levels)

    @classmethod
    def from_path(cls, path: SpectralPath) -> "DynamicalPhase":
        return cls(grid=path.grid,
                   omega=cumulative_quadrature(path.energies, path.grid))

    def factors(self, velocity: float) -> np.ndarray:
        """Phase factors exp(-i omega_n(s) / v) on the grid, shape
        (n_nodes, n_levels): one exponential per level."""
        return np.exp(-1j * self.omega / velocity)


@dataclass(frozen=True)
class StateFamily:
    """Snapshot-basis coefficients of one perturbative order (or a series).

    ``coefficients[k, h, j]`` is the amplitude of snapshot basis ket j
    (levels concatenated in order) for initial-condition label h at node k,
    dynamical phases included.
    """

    order: int
    grid: Grid
    dims: tuple
    coefficients: np.ndarray   # (n_nodes, labels, dim)

    @property
    def labels(self) -> int:
        return self.coefficients.shape[1]

    def vectors(self, path: SpectralPath) -> np.ndarray:
        """Computational-basis states, shape (n_nodes, labels, dim)."""
        if path.dims != self.dims:
            raise DimensionMismatch("path level structure differs from family")
        return np.einsum("kij,khj->khi", path.basis(), self.coefficients)


@dataclass(frozen=True)
class CorrectionBlocks:
    """Velocity-free expansion blocks B^(p) for every ordered level pair."""

    order: int
    grid: Grid
    dims: tuple
    labels: int
    blocks: dict               # (m, n) -> (n_nodes, labels, d_n)

    def block(self, m: int, n: int) -> np.ndarray:
        return self.blocks[(m, n)]

    def label_row(self, h: int) -> "CorrectionBlocks":
        """Copies of row h alone (initial-condition label h), labels = 1;
        assembling them gives that label's coefficients and nothing else."""
        return replace(self, labels=1, blocks={
            key: b[:, h:h + 1].copy() for key, b in self.blocks.items()})


def zero_order_blocks(cs, holonomies) -> CorrectionBlocks:
    """Order-0 blocks of the ground start: B_00 = U^0(s), every other block
    zero (a read-only broadcast of one zero, which holds no memory)."""
    dims = tuple(cs.matrices[(n, n)].shape[1] for n in range(cs.n_levels))
    zero = np.zeros((), dtype=complex)
    blocks = {(m, n): np.broadcast_to(zero, (cs.grid.n, dims[0], dims[n]))
              for m in range(cs.n_levels) for n in range(cs.n_levels)}
    blocks[(0, 0)] = holonomies[0].u
    return CorrectionBlocks(order=0, grid=cs.grid, dims=dims, labels=dims[0],
                            blocks=blocks)


def transport_steps(cs) -> list:
    """Midpoint exponentials expm(h A_mid) of every level's transport
    generator over the grid intervals, A_mid the average of adjacent
    samples of cs.a(n, n). transport_all chains them into the numeric
    holonomies.
    """
    h = cs.grid.h
    return [unitary_expm(0.5 * (a[:-1] + a[1:]), h)
            for a in (cs.a(n, n) for n in range(cs.n_levels))]


def advance_order(blocks: CorrectionBlocks, cs,
                  holonomies: list) -> CorrectionBlocks:
    """Raise the expansion order p -> p + 1.

    Off-diagonal blocks are algebraic:
        B'_{mn} = (-i / Delta_mn) (dB_{mn}/ds + sum_k B_{mk} R^{kn}),
    with R the recursion coupling (transposed plain coupling). Diagonal
    blocks satisfy dB'_{nn}/ds = B'_{nn} A^{nn} - G_n with
    G_n = sum_{k != n} B'_{nk} R^{kn}, whose solution is the level's
    holonomy U = holonomies[n].u times an integrated source:
        B'_{nn}(s) = (B'_{nn}(0) U(0)^dag - int_0^s G_n U^dag ds') U(s),
    from the s = 0 matching value B'_{nn}(0) = -sum_{m != n} B'_{mn}(0).
    A zero-source diagonal block is the holonomy itself, so whatever
    accuracy the holonomies carry (closed form or transported) reaches
    every order.
    """
    levels = range(cs.n_levels)
    new = {}
    for m in levels:
        for n in levels:
            if m == n:
                continue
            source = central_derivative(blocks.block(m, n), cs.grid)
            for k in levels:
                source = source + stack_matmul(blocks.block(m, k),
                                               cs.recursion(k, n))
            delta = cs.gap(m, n)[:, None, None]
            new[(m, n)] = (-1j / delta) * source

    for n in levels:
        # zero-array sum starts keep a single-level path (no sources) working
        zero = np.zeros(blocks.block(n, n).shape, dtype=complex)
        g = sum((stack_matmul(new[(n, k)], cs.recursion(k, n))
                 for k in levels if k != n), zero)
        start = -sum((new[(m, n)][0] for m in levels if m != n), zero[0])
        u = holonomies[n].u
        u_dag = np.swapaxes(u, 1, 2).conj()
        integral = cumulative_quadrature(stack_matmul(g, u_dag), cs.grid)
        new[(n, n)] = stack_matmul(start @ u_dag[0] - integral, u)
    return CorrectionBlocks(order=blocks.order + 1, grid=blocks.grid,
                            dims=blocks.dims, labels=blocks.labels, blocks=new)


def assemble_state(blocks: CorrectionBlocks, phases: DynamicalPhase,
                   velocity: float) -> StateFamily:
    """Snapshot coefficients of one order: sum_m e^{-i omega_m / v} B_{mn}."""
    n_nodes = blocks.grid.n
    dim = sum(blocks.dims)
    factors = phases.factors(velocity)
    coeff = np.zeros((n_nodes, blocks.labels, dim), dtype=complex)
    for n, sl in enumerate(level_slices(blocks.dims)):
        for m in range(len(blocks.dims)):
            coeff[:, :, sl] += factors[:, m, None, None] * blocks.block(m, n)
    return StateFamily(order=blocks.order, grid=blocks.grid, dims=blocks.dims,
                       coefficients=coeff)


def series_state(block_list, phases: DynamicalPhase, velocity: float,
                 order: int = None) -> StateFamily:
    """Partial sum sum_{p <= order} v^p psi^(p) as one StateFamily."""
    if order is None:
        order = len(block_list) - 1
    total = None
    for p in range(order + 1):
        fam = assemble_state(block_list[p], phases, velocity)
        term = (velocity ** p) * fam.coefficients
        total = term if total is None else total + term
    return StateFamily(order=order, grid=phases.grid,
                       dims=block_list[0].dims, coefficients=total)


def daa_state(cs, holonomies, phases: DynamicalPhase,
              velocity: float) -> StateFamily:
    """Degenerate adiabatic approximation (order 0) of the ground start."""
    return assemble_state(zero_order_blocks(cs, holonomies), phases, velocity)


def j_integral(cs, holonomies, n: int, m: int) -> np.ndarray:
    """Running integral J^{nmn}(s) = int_0^s W2^{nmn} / Delta_nm ds'.

    W2^{nmn} = U^n R^{nm} R^{mn} U^n-dagger with R the recursion coupling;
    shape (n_nodes, d_n, d_n). Composite-Simpson accumulation.
    """
    u = holonomies[n].u
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
    blocks = {(m, n): np.zeros((cs.grid.n, dims[0], dims[n]), dtype=complex)
              for m in levels for n in levels}
    u_0 = holonomies[0].u
    for n in levels[1:]:
        u_n = holonomies[n].u
        delta_n0 = cs.gap(n, 0)[:, None, None]
        w1_0 = u_0[0] @ cs.recursion(0, n)[0] @ u_n[0].conj().T
        blocks[(0, 0)] += 1j * (j_integral(cs, holonomies, 0, n) @ u_0)
        blocks[(n, n)] += -1j * (w1_0 @ u_n) / delta_n0[0]
        blocks[(0, n)] += 1j * (u_0 @ cs.recursion(0, n)) / delta_n0
    return CorrectionBlocks(order=1, grid=cs.grid, dims=dims, labels=dims[0],
                            blocks=blocks)


def first_order_state(cs, holonomies, phases: DynamicalPhase,
                      velocity: float) -> StateFamily:
    """Closed-form first-order family psi^(1): first_order_blocks assembled
    at one velocity."""
    return assemble_state(first_order_blocks(cs, holonomies), phases,
                          velocity)


@dataclass(frozen=True)
class ValidityReport:
    """Adiabaticity margins for a ground-level start (label 0).

    The margins are the first-order term v psi^(1) of the label-0 ground
    start (see first_order_state), in modulus and split by level:
    ``secular`` is its part inside the ground level (the J-integral
    piece, one column per ground in-level label), ``gap[n]`` its part in
    excited level n (the mixing and s = 0 matching pieces). Both are full
    profiles over s plus their sup and end-of-protocol values; every margin
    carries the explicit factor v, so margins scale linearly as the sweep
    slows at fixed protocol shape. A single level gives zero secular
    margins and no gap entries.
    """

    grid: Grid
    velocity: float
    threshold: float
    secular: np.ndarray        # (n_nodes, d_ground)
    gap: dict                  # n -> (n_nodes, d_n)
    sup_secular: float
    sup_gap: dict
    final_secular: float
    final_gap: dict
    adiabatic_ok: bool


def validity_margins(psi1: StateFamily, velocity: float,
                     threshold: float = 0.1) -> ValidityReport:
    """Margins that must stay small for the order-0 description to hold:
    v |psi^(1)| of the label-0 ground start, by level.

    ``psi1`` is the first-order family assembled at ``velocity`` (from
    advance_order's or first_order_blocks' blocks). Only label row 0 is
    read, so a family of that row alone suffices, and an all-label family
    gives the same margins element for element.
    """
    secular, *excited = (velocity * np.abs(psi1.coefficients[:, 0, sl])
                         for sl in level_slices(psi1.dims))
    gap_profiles = dict(enumerate(excited, start=1))

    sup_gap = {n: float(p.max()) for n, p in gap_profiles.items()}
    final_gap = {n: float(p[-1].max()) for n, p in gap_profiles.items()}
    sup_secular = float(secular.max())
    ok = sup_secular <= threshold and all(v <= threshold for v in sup_gap.values())
    return ValidityReport(grid=psi1.grid, velocity=velocity, threshold=threshold,
                          secular=secular, gap=gap_profiles,
                          sup_secular=sup_secular, sup_gap=sup_gap,
                          final_secular=float(secular[-1].max()),
                          final_gap=final_gap, adiabatic_ok=bool(ok))
