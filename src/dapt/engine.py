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

Block layout: one order's blocks are one array, ``CorrectionBlocks.data``
of shape (n_levels, d_0, dim, n_nodes), with the node index fastest in
memory. Row data[m, h] holds the blocks of source level m for ground label
h, their columns concatenated over the levels n; order 0, whose only
nonzero block is B_00, stores source level 0 alone. B^(p)[(m, n)] =
``block(m, n)`` is the view of level n's columns with the nodes moved first,
shape (n_nodes, d_0, d_n): the public shape, without a copy. Phase
integrals (DynamicalPhase.omega) and assembled coefficients
(StateFamily.coefficients) keep their node-first shapes over the same kind
of memory, so assembling an order at one velocity is a few multiplies and
adds of whole n_nodes-long rows, sum_m exp(-i omega_m / v) data[m].
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
    omega: np.ndarray          # (n_nodes, n_levels), node index fastest

    def __post_init__(self):
        # one level's phases are one contiguous row (no copy when they are)
        object.__setattr__(self, "omega", np.asfortranarray(self.omega))

    @classmethod
    def from_path(cls, path: SpectralPath) -> "DynamicalPhase":
        return cls(grid=path.grid,
                   omega=cumulative_quadrature(path.energies, path.grid))

    def factors(self, velocity: float) -> np.ndarray:
        """Phase factors exp(-i omega_n(s) / v) on the grid, shape
        (n_nodes, n_levels) with the node index fastest: one exponential
        per level."""
        return np.exp(-1j * self.omega / velocity)


@dataclass(frozen=True)
class StateFamily:
    """Snapshot-basis coefficients of one perturbative order (or a series).

    ``coefficients[k, h, j]`` is the amplitude of snapshot basis ket j
    (levels concatenated in order) for initial-condition label h at node k,
    dynamical phases included. Assembled families hold a view of
    (labels, dim, n_nodes) memory, the node index fastest.
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
    """Velocity-free expansion blocks B^(p) for every ordered level pair,
    stored node-contiguous (see the module's block layout). ``zero`` names
    the pairs (m, n) whose block is known to vanish identically; the
    recursion and the assembly skip them."""

    order: int
    grid: Grid
    dims: tuple
    data: np.ndarray           # (source levels, labels, dim, n_nodes)
    zero: frozenset = frozenset()

    @classmethod
    def zeros(cls, order: int, grid: Grid, dims: tuple, labels: int,
              zero=frozenset()) -> "CorrectionBlocks":
        """All-zero blocks to be filled through ``block`` views. Source
        levels past the last one with a block outside ``zero`` are not
        stored."""
        levels = range(len(dims))
        sources = 1 + max((m for m in levels for n in levels
                           if (m, n) not in zero), default=-1)
        data = np.zeros((sources, labels, sum(dims), grid.n), dtype=complex)
        return cls(order=order, grid=grid, dims=dims, data=data,
                   zero=frozenset(zero))

    @property
    def labels(self) -> int:
        return self.data.shape[1]

    def block(self, m: int, n: int) -> np.ndarray:
        """B_{mn}, shape (n_nodes, labels, d_n): a view of ``data``, or a
        read-only broadcast zero for a source level that is not stored."""
        if m >= len(self.data):
            return np.broadcast_to(np.zeros((), dtype=complex),
                                   (self.grid.n, self.labels, self.dims[n]))
        return np.moveaxis(self.data[m, :, level_slices(self.dims)[n]],
                           -1, 0)


def zero_order_blocks(cs, holonomies) -> CorrectionBlocks:
    """Order-0 blocks of the ground start: B_00 = U^0(s), every other block
    zero; only source level 0 is stored."""
    dims = tuple(cs.matrices[(n, n)].shape[1] for n in range(cs.n_levels))
    levels = range(cs.n_levels)
    out = CorrectionBlocks.zeros(0, cs.grid, dims, dims[0], {
        (m, n) for m in levels for n in levels} - {(0, 0)})
    out.block(0, 0)[...] = holonomies[0]
    return out


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
    holonomy U = holonomies[n] times an integrated source:
        B'_{nn}(s) = (B'_{nn}(0) U(0)^dag - int_0^s G_n U^dag ds') U(s),
    from the s = 0 matching value B'_{nn}(0) = -sum_{m != n} B'_{mn}(0).
    A zero-source diagonal block is the holonomy itself, so whatever
    accuracy the holonomies carry (closed form or transported) reaches
    every order. Terms of blocks known to vanish are skipped, and a block
    with no remaining term is known to vanish at the next order.
    """
    levels = range(cs.n_levels)
    live = {(m, n) for m in levels for n in levels} - blocks.zero
    new = CorrectionBlocks.zeros(blocks.order + 1, blocks.grid, blocks.dims,
                                 blocks.labels)
    new_live = set()
    for m in levels:
        for n in levels:
            terms = [k for k in levels if (m, k) in live]
            if m == n or ((m, n) not in live and not terms):
                continue
            source = 0.0
            if (m, n) in live:
                source = central_derivative(blocks.block(m, n), cs.grid)
            for k in terms:
                source = source + stack_matmul(blocks.block(m, k),
                                               cs.recursion(k, n))
            delta = cs.gap(m, n)[:, None, None]
            np.multiply(-1j / delta, source, out=new.block(m, n))
            new_live.add((m, n))

    for n in levels:
        sources = [k for k in levels if (n, k) in new_live]
        starts = [m for m in levels if (m, n) in new_live]
        if not (sources or starts):
            continue                # no source and no start: stays zero
        start = -sum((new.block(m, n)[0] for m in starts),
                     np.zeros(new.block(n, n).shape[1:], dtype=complex))
        u = holonomies[n]
        u_dag = np.swapaxes(u, 1, 2).conj()
        x = start @ u_dag[0]
        if sources:
            g = sum(stack_matmul(new.block(n, k), cs.recursion(k, n))
                    for k in sources)
            x = x - cumulative_quadrature(stack_matmul(g, u_dag), cs.grid)
        new.block(n, n)[...] = stack_matmul(x, u)
        new_live.add((n, n))
    return replace(new, zero=frozenset(
        {(m, n) for m in levels for n in levels} - new_live))


def _assemble(blocks: CorrectionBlocks, rows: np.ndarray) -> np.ndarray:
    """sum_m rows[m] * data[m]: coefficients of shape (labels, dim,
    n_nodes), one order at one velocity from its phase-factor rows
    (n_levels, n_nodes). Source levels whose blocks all vanish are
    skipped."""
    levels = range(len(blocks.dims))
    sources = [m for m in levels
               if any((m, n) not in blocks.zero for n in levels)]
    if not sources:
        return np.zeros(blocks.data.shape[1:], dtype=complex)
    coeff = rows[sources[0]] * blocks.data[sources[0]]
    if len(sources) > 1:
        term = np.empty_like(coeff)
        for m in sources[1:]:
            np.multiply(rows[m], blocks.data[m], out=term)
            coeff += term
    return coeff


def _family(order: int, blocks: CorrectionBlocks,
            coeff: np.ndarray) -> StateFamily:
    return StateFamily(order=order, grid=blocks.grid, dims=blocks.dims,
                       coefficients=np.moveaxis(coeff, -1, 0))


def assemble_terms(block_list, phases: DynamicalPhase,
                   velocity: float) -> list:
    """One StateFamily per order of ``block_list``, each
    sum_m e^{-i omega_m / v} B_{mn}, from one phase exponential."""
    rows = phases.factors(velocity).T
    return [_family(b.order, b, _assemble(b, rows)) for b in block_list]


def series_state(block_list, phases: DynamicalPhase, velocity: float,
                 order: int = None) -> StateFamily:
    """Partial sum sum_{p <= order} v^p psi^(p) as one StateFamily."""
    if order is None:
        order = len(block_list) - 1
    rows = phases.factors(velocity).T
    total = _assemble(block_list[0], rows)
    for p in range(1, order + 1):
        total += (velocity ** p) * _assemble(block_list[p], rows)
    return _family(order, block_list[0], total)


@dataclass(frozen=True)
class ValidityReport:
    """Adiabaticity margins for a ground-level start (label 0).

    The margins are the first-order term v psi^(1) of the label-0 ground
    start, in modulus and split by level:
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

    ``psi1`` is the first-order family assembled at ``velocity`` from
    advance_order's blocks; only its label row 0 is read.
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
