"""End-to-end orchestration: build once, evaluate at any sweep velocity.

Workspace.build computes everything that is independent of the sweep
velocity, once: the spectral path and its snapshot basis, the couplings,
the holonomies (the model's closed form, or the numeric transport), the
phase integrals omega_n(s) and the correction blocks of every order, whose
diagonal blocks are quadratures against those holonomies. The series starts
in the ground level; the validity margins read the label-0 row of the
first-order term, so order 1 is built even for an order-0 workspace. The
closed-form route runs no transport at all.

A velocity point then computes only the phase factors exp(-i omega_n / v),
one per level, and phase-weighted sums of stored blocks: in a sweep, every
order is assembled once, from one phase exponential, and shared by the
residuals, the margins and the corrected holonomy (orders 0 and 1 for
every ground label, higher orders for label 0 alone, the one row the
residuals read). Its one other cost is the reference, taken in snapshot
coefficients: the model's closed form gives them directly, and on the
file route the propagated state is projected once. The residuals are
measured there and no state is formed: the snapshot basis is unitary at
every node, so a distance of coefficients is the distance of the states.

The blocks, the phase integrals and the assembled families keep the node
index fastest in memory (see dapt.engine), so these sums, the residual
norms and the unitarity defect run over whole rows of n_nodes entries.
Their public shapes stay node-first; the snapshot basis keeps node-first
memory.
"""
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .couplings import couplings_from_path
from .engine import (DynamicalPhase, StateFamily, ValidityReport,
                     advance_order, assemble_terms, series_state,
                     validity_margins, zero_order_blocks)
from .errors import ConfigError, InsufficientSweep
from .grid import Grid
from .holonomy import corrected_holonomy, transport_all
from .linalg import unitary_deviation
from .propagate import propagate, residual, substep_count
from .spectral import HermitianSamples, smooth_gauge, snapshot_eigensystem


@dataclass(frozen=True)
class Workspace:
    """Velocity-independent artifacts of one protocol."""

    grid: Grid
    path: object               # SpectralPath
    couplings: object          # CouplingSet
    holonomies: list
    phases: DynamicalPhase
    blocks: list               # CorrectionBlocks, orders 0..max(order, 1)
    order: int
    model: object = None
    samples: HermitianSamples = None

    @classmethod
    def build(cls, model=None, samples=None, grid: Grid = None,
              order: int = 1, degeneracy_tol: float = 1e-8,
              gap_floor: float = None,
              model_holonomy: bool = True) -> "Workspace":
        """Assemble every velocity-independent artifact.

        ``model_holonomy=True`` takes the holonomies from the model's
        closed form when it has one, removing the transport discretization
        error from everything downstream; pass False to force the numeric
        transport (useful when the transport itself is under test).
        """
        if grid is None:
            raise ConfigError("a grid is required")
        if order < 0:
            raise ConfigError("order must be >= 0")
        if (model is None) == (samples is None):
            raise ConfigError("exactly one of model/samples must be given")
        if model is not None:
            path = model.spectral_path(grid)
            cs = model.couplings(grid)
        else:
            # raw samples are checked here, and read_hamiltonian's keep
            # their checked stack; every layer below reads that one stack
            samples = HermitianSamples(samples, grid)
            path = smooth_gauge(snapshot_eigensystem(
                samples, grid, degeneracy_tol=degeneracy_tol))
            cs = couplings_from_path(path, h=samples, gap_floor=gap_floor)
        if model_holonomy and model is not None:
            holonomies = model.holonomies(grid)
        else:
            holonomies = transport_all(cs)
        phases = DynamicalPhase.from_path(path)
        blocks = [zero_order_blocks(cs, holonomies)]
        # the margins read order 1, so an order-0 workspace builds it too
        for _ in range(max(order, 1)):
            blocks.append(advance_order(blocks[-1], cs, holonomies))
        return cls(grid=grid, path=path, couplings=cs, holonomies=holonomies,
                   phases=phases, blocks=blocks, order=order, model=model,
                   samples=samples)

    def series(self, velocity: float, order: int = None) -> StateFamily:
        """Partial sum up to ``order`` (default: everything built)."""
        if order is None:
            order = self.order
        if order > self.order:
            raise ConfigError(f"order {order} exceeds built order {self.order}")
        return series_state(self.blocks, self.phases, velocity, order=order)

    def term(self, p: int, velocity: float) -> StateFamily:
        """Single order-p family (without the v^p weight)."""
        return assemble_terms([self.blocks[p]], self.phases, velocity)[0]

    def terms(self, velocity: float) -> list:
        """The families of orders 0..order (without the v^p weights),
        assembled from one phase exponential. Orders 0 and 1 hold every
        label, as the corrected holonomy reads them; higher orders hold
        label 0 alone, the one row the residuals read."""
        return assemble_terms(
            [b if b.order < 2 else replace(b, data=b.data[:, :1])
             for b in self.blocks[:self.order + 1]], self.phases, velocity)

    def margins(self, velocity: float, threshold: float = 0.1,
                terms=()) -> ValidityReport:
        """Validity margins of the label-0 ground start. ``terms`` may hold
        this velocity's families of orders 0, 1, ... (all labels) when they
        are already assembled; otherwise order 1 is assembled."""
        psi1 = terms[1] if len(terms) > 1 else self.term(1, velocity)
        return validity_margins(psi1, velocity, threshold=threshold)

    def corrected(self, velocity: float, terms=()) -> np.ndarray:
        """First-order-corrected ground holonomy V, shape (n, labels, d)
        (see corrected_holonomy). ``terms`` may hold this velocity's
        families of orders 0, 1, ... (all labels) when they are already
        assembled."""
        if self.order < 1:
            raise ConfigError("corrected holonomy needs order >= 1")
        if len(terms) < 2:
            terms = assemble_terms(self.blocks[:2], self.phases, velocity)
        return corrected_holonomy(terms[0], terms[1], self.phases, velocity)

    def start_vector(self, label: int = 0) -> np.ndarray:
        """Ground-frame column ``label`` at s = 0."""
        return self.path.blocks[0][0][:, label].copy()

    def exact(self, velocity: float, label: int = 0, substeps: int = None):
        """Reference evolution of the label-``label`` ground start.

        On the model route it is the stored snapshot basis times the
        model's exact_coefficients, closed-form for every ground label;
        on the file route, the fourth-order Magnus propagator on the
        stored samples at its default phase cap. Returns
        (psi, norm_drift, substeps), with 0 substeps for the closed form.
        """
        if not 0 <= label < self.path.dims[0]:
            raise ConfigError(f"label {label} is not a ground label")
        if self.model is not None:
            return np.einsum("...ij,...j->...i", self.path.basis(),
                             self.model.exact_coefficients(
                                 self.grid.s, velocity, label)), 0.0, 0
        if substeps is None:
            # max |E| is read off the stored energies, not re-diagonalized
            substeps = substep_count(float(np.abs(self.path.energies).max()),
                                     self.grid.h, velocity)
        res = propagate(self.samples, self.grid, self.start_vector(label),
                        velocity, substeps=substeps)
        return res.psi, res.norm_drift, res.substeps

    def exact_coefficients(self, velocity: float, substeps: int = None):
        """The reference evolution of the label-0 start (``exact``) in
        snapshot coefficients, basis^dag psi, with the same (norm_drift,
        substeps). The model's closed form gives them directly; a
        propagated state is projected once."""
        if self.model is not None:
            return self.model.exact_coefficients(self.grid.s, velocity), 0.0, 0
        psi, drift, substeps = self.exact(velocity, substeps=substeps)
        return _project(self.path, psi), drift, substeps

    def series_residuals(self, velocity: float, terms=()) -> list:
        """Sup-norm mismatch of each partial sum of the label-0 start
        against its reference, ``exact_coefficients``.

        Both sides are snapshot coefficients: the snapshot basis is unitary
        at every node, so their distance is the distance of the states.
        The partial sums are accumulated term by term, so each order is
        assembled once and its row 0 read. ``terms`` may hold this
        velocity's leading families when they are already assembled; the
        other orders are assembled here."""
        ref = self.exact_coefficients(velocity)[0]
        rows = [t.coefficients[:, 0] for t in terms[:self.order + 1]]
        if len(rows) <= self.order:
            rows += [t.coefficients[:, 0] for t in assemble_terms(
                self.blocks[len(rows):self.order + 1], self.phases, velocity)]
        out = []
        for p, row in enumerate(rows):
            if p:
                row = velocity ** p * row
                row += psi
            psi = row
            out.append(residual(psi, ref))
        return out


def _project(path, psi: np.ndarray) -> np.ndarray:
    """Snapshot coefficients basis^dag psi of states psi, shape (n, dim).

    Taken as conj(basis^T conj(psi)), which conjugates the states rather
    than a copy of the whole (n, dim, dim) basis, with the same values.
    """
    return np.einsum("kji,kj->ki", path.basis(), psi.conj()).conj()


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    intercept: float
    half_width: float          # 2 * standard error of the slope
    n_points: int


def fit_power_law(x, y) -> PowerLawFit:
    """Least-squares slope of log10 y against log10 x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InsufficientSweep("need matching 1-d arrays")
    if len(x) < 4:
        raise InsufficientSweep(f"need at least 4 points, got {len(x)}")
    if len(np.unique(x)) != len(x):
        raise InsufficientSweep("duplicate sweep values")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise InsufficientSweep("power-law fit needs positive data")
    if x.max() / x.min() < 10.0:
        raise InsufficientSweep("sweep must span at least one decade")
    lx, ly = np.log10(x), np.log10(y)
    coeff, res_info = np.polyfit(lx, ly, 1, full=True)[:2]
    slope, intercept = float(coeff[0]), float(coeff[1])
    n = len(x)
    if n > 2 and res_info.size:
        var = float(res_info[0]) / (n - 2)
        half = 2.0 * math.sqrt(var / float(np.sum((lx - lx.mean()) ** 2)))
    else:
        half = 0.0
    return PowerLawFit(slope=slope, intercept=intercept, half_width=half,
                       n_points=n)


@dataclass(frozen=True)
class SweepRow:
    velocity: float
    residuals: tuple           # per order 0..P
    margin_secular: float
    margin_gap: float
    holonomy_defect: float     # sup_s || V^dag V - I ||


@dataclass(frozen=True)
class SweepResult:
    rows: list
    fits: list                 # PowerLawFit per order 0..P

    def column(self, p: int) -> np.ndarray:
        return np.array([r.residuals[p] for r in self.rows])

    @property
    def velocities(self) -> np.ndarray:
        return np.array([r.velocity for r in self.rows])


def _sweep_point(ws: Workspace, velocity: float, threshold: float) -> SweepRow:
    # every order's family serves the residuals, measured against the
    # reference in snapshot coefficients; orders 0 and 1 then serve the
    # margins and the corrected holonomy, after the higher orders are freed
    terms = ws.terms(velocity)
    res = ws.series_residuals(velocity, terms=terms)
    del terms[2:]
    rep = ws.margins(velocity, threshold=threshold, terms=terms)
    gap_sup = max(rep.sup_gap.values()) if rep.sup_gap else 0.0
    if ws.order >= 1:
        defect = unitary_deviation(ws.corrected(velocity, terms=terms))
    else:
        defect = float("nan")
    return SweepRow(velocity=velocity, residuals=tuple(res),
                    margin_secular=rep.sup_secular, margin_gap=gap_sup,
                    holonomy_defect=defect)


def sweep_velocities(velocities) -> list:
    """The sweep velocities as sorted floats; raises InsufficientSweep
    unless they are at least 4 distinct finite positive numbers spanning
    a decade, so that every order's slope can be fitted."""
    vs = [float(v) for v in velocities]
    if len(vs) < 4:
        raise InsufficientSweep(f"need at least 4 velocities, got {len(vs)}")
    if not all(map(math.isfinite, vs)):
        raise InsufficientSweep("velocities must be finite")
    if len(set(vs)) != len(vs):
        raise InsufficientSweep("duplicate sweep velocities")
    if min(vs) <= 0.0:
        raise InsufficientSweep("velocities must be positive")
    if max(vs) / min(vs) < 10.0:
        raise InsufficientSweep("sweep must span at least one decade")
    return sorted(vs)


def sweep(ws: Workspace, velocities, threshold: float = 0.1) -> SweepResult:
    """Evaluate every sweep velocity in a worker pool and fit the slopes."""
    vs = sweep_velocities(velocities)
    # threads beyond the cores this process may run on add no speed, only
    # another point's temporaries held at once. A point's array work
    # releases the GIL only inside each NumPy call, and on the file route
    # those calls are small: four points of the n = 2001 Gamma file take
    # 29-34 ms in a pool of two and 30-32 ms one after another. Magnus
    # steps held node-first, one zgemm call per 4x4 matrix, read 53-59
    # against 40-43 ms, which is why dapt.propagate steps small systems
    # node-fastest
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    workers = min(8, cores, len(vs))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(lambda v: _sweep_point(ws, v, threshold), vs))
    fits = []
    v_arr = np.array(vs)
    for p in range(ws.order + 1):
        r_arr = np.array([row.residuals[p] for row in rows])
        fits.append(fit_power_law(v_arr, r_arr))
    return SweepResult(rows=rows, fits=fits)
