"""Benchmark models with closed-form references.

Both models drive a magnetic-type Hamiltonian around one full cone
revolution, parametrized by scaled time s in [0, 1] so the protocol shape
is velocity-independent: the axis angle is phi = 2*pi*s and the physical
drive frequency is 2*pi*velocity. Closed-form expressions that depend on
how fast the cone is traversed therefore take the velocity explicitly.

GammaModel: four-dimensional, two levels of double degeneracy, non-Abelian
holonomies, exact solution, and closed forms for the adiabatic state, its
first-order correction, and the correction-dressed holonomy.

SpinHalfModel: two-dimensional Rabi problem, both levels simple; exercises
ragged degeneracy bookkeeping and the Abelian limit of the transport.

Both are cone models, H(s) = (gap / 2) r(s) . GENERATORS with the axis r(s)
on the cone, and both are rotating families: H(s) = W(s) H0 W(s)^dag with
W(s) = exp(sK), and frames(s) = W(s) F0 exp(s LAMBDA) for a constant
diagonal LAMBDA. A subclass gives K and LAMBDA; the base serves one
reference for either model, the exact state started in any frame column at
s = 0 (exact_coefficients, in snapshot coefficients; exact_state is
frames(s) times them). It solves the static rotating-frame problem by one
eigendecomposition, so it holds at resonance too.
"""
from dataclasses import dataclass

import numpy as np

from .couplings import CouplingSet
from .grid import Grid
from .spectral import SpectralPath, level_slices

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Clifford triple underlying the four-level model: pairwise anticommuting,
# each squaring to the identity. Commutators close on the PI triple:
# [GAMMA_i, GAMMA_j] = 2i eps_ijk PI_k.
GAMMA = tuple(np.kron(PAULI_X, p) for p in (PAULI_X, PAULI_Y, PAULI_Z))
PI = tuple(np.kron(np.eye(2), p) for p in (PAULI_X, PAULI_Y, PAULI_Z))


def _axis(cone_angle: float, phi):
    phi = np.asarray(phi, dtype=float)
    st, ct = np.sin(cone_angle), np.cos(cone_angle)
    return np.stack([st * np.cos(phi), st * np.sin(phi),
                     ct * np.ones_like(phi)], axis=-1)


@dataclass(frozen=True)
class ConeModel:
    """Two levels at -gap/2 and +gap/2 of dimensions ``dims``, the
    Hamiltonian (gap / 2) r(s) . GENERATORS with its axis r(s) on a cone.

    A subclass sets ``dims``, ``GENERATORS``, the rotation generator ``K``
    and the frame phases ``LAMBDA`` (the diagonal of LAMBDA, each +-i pi),
    and gives the closed forms ``frames``, ``couplings`` and
    ``holonomies``.
    """

    gap: float = 1.0
    cone_angle: float = np.pi / 3

    def __post_init__(self):
        if self.gap <= 0.0:
            raise ValueError("gap must be positive")
        if not 0.0 <= self.cone_angle <= np.pi:
            raise ValueError("cone_angle must lie in [0, pi]")
        # H0 and F0, read by the reference at every velocity
        object.__setattr__(self, "_h0", self.hamiltonian(0.0))
        object.__setattr__(self, "_f0", self.frames(0.0))

    def hamiltonian(self, s: float) -> np.ndarray:
        r = _axis(self.cone_angle, 2.0 * np.pi * s)
        return (self.gap / 2.0) * sum(r[i] * self.GENERATORS[i]
                                      for i in range(3))

    def energies(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        half = self.gap / 2.0
        return np.stack([-half * np.ones_like(s), half * np.ones_like(s)],
                        axis=-1)

    def spectral_path(self, grid: Grid) -> SpectralPath:
        f = self.frames(grid.s)
        return SpectralPath(grid=grid, energies=self.energies(grid.s),
                            blocks=tuple(f[:, :, sl]
                                         for sl in level_slices(self.dims)))

    def exact_coefficients(self, s, velocity: float,
                           label: int = 0) -> np.ndarray:
        """Snapshot coefficients of the exact state started in frame column
        ``label`` at s = 0, shape (..., dim): a view of (dim, ...) memory,
        so each column is one contiguous row.

        In the frame turning with W(s) the Hamiltonian is the static
        G = H0 - i v K, so with (mu, P) = eigh(G) the coefficients are
        exp(-s LAMBDA) F0^dag P exp(-i mu s / v) P^dag F0[:, label].
        GENERATORS[1] anticommutes with H0 and K, so mu pairs as -omega,
        +omega and the lower half's exponentials are conjugates of the
        upper half's.
        """
        s = np.asarray(s, dtype=float)
        mu, p = np.linalg.eigh(self._h0 - 1j * velocity * self.K)
        half = len(mu) // 2
        omega = 0.5 * (mu[half:] - mu[:half][::-1])
        upper = [np.exp((-1j / velocity) * w * s) for w in omega]
        rows = [r.conj() for r in upper[::-1]] + upper
        # mix[i, j] = (F0^dag P)[i, j] (P^dag F0)[j, label]
        mix = (self._f0.conj().T @ p) * (p.conj().T @ self._f0[:, label])
        ep = np.exp(1j * np.pi * s)
        out = np.empty((len(mu),) + s.shape, dtype=complex)
        # one output row at a time, so it stays in cache
        for i, lam in enumerate(self.LAMBDA):
            row = out[i, ...]
            np.multiply(mix[i, 0], rows[0], out=row)
            for j in range(1, len(rows)):
                row += mix[i, j] * rows[j]
            row *= ep if lam.imag < 0 else ep.conj()
        return np.moveaxis(out, 0, -1)

    def exact_state(self, s, velocity: float, label: int = 0) -> np.ndarray:
        """Exact state started in frame column ``label`` at s = 0, shape
        (..., dim): frames(s) times exact_coefficients."""
        return np.einsum("...ij,...j->...i", self.frames(s),
                         self.exact_coefficients(s, velocity, label))


@dataclass(frozen=True)
class GammaModel(ConeModel):
    """Two doubly degenerate levels split by ``gap``, axis on a cone."""

    dims = (2, 2)
    GENERATORS = GAMMA
    K = -np.pi * GAMMA[0] @ GAMMA[1]
    LAMBDA = 1j * np.pi * np.array([-1.0, 1.0, -1.0, 1.0])
    # named in this class's own body, where bench/spans.py traces them
    spectral_path = ConeModel.spectral_path
    exact_state = ConeModel.exact_state

    def frames(self, s) -> np.ndarray:
        """Snapshot frame, columns [0^0, 0^1, 1^0, 1^1], shape (..., 4, 4)."""
        s = np.asarray(s, dtype=float)
        alpha = np.exp(2j * np.pi * s) * np.sin(self.cone_angle)
        beta = np.cos(self.cone_angle) * np.ones_like(alpha)
        zero = np.zeros_like(alpha)
        one = np.ones_like(alpha)
        cols = []
        for n in (0, 1):
            sgn = (-1.0) ** n
            cols.append(np.stack([alpha.conj(), -beta, zero, -sgn * one], axis=-1))
            cols.append(np.stack([beta, alpha, -sgn * one, zero], axis=-1))
        return np.stack(cols, axis=-1) / np.sqrt(2.0)

    def connection(self, s) -> np.ndarray:
        """Plain coupling in d/ds units; one matrix serves every level pair."""
        s = np.asarray(s, dtype=float)
        st, ct = np.sin(self.cone_angle), np.cos(self.cone_angle)
        e = np.exp(2j * np.pi * s)
        row0 = np.stack([st * st * np.ones_like(e), e * st * ct], axis=-1)
        row1 = np.stack([e.conj() * st * ct, -st * st * np.ones_like(e)], axis=-1)
        return -1j * np.pi * np.stack([row0, row1], axis=-2)

    def couplings(self, grid: Grid) -> CouplingSet:
        m = self.connection(grid.s)
        mats = {(n, k): m for n in (0, 1) for k in (0, 1)}
        return CouplingSet(grid=grid, energies=self.energies(grid.s),
                           matrices=mats)

    def wz_matrix(self, s) -> np.ndarray:
        """Holonomy of either level, shape (..., 2, 2)."""
        s = np.asarray(s, dtype=float)
        ct, st = np.cos(self.cone_angle), np.sin(self.cone_angle)
        half = np.pi * s
        z1 = np.exp(1j * half) * (np.cos(half * ct) - 1j * ct * np.sin(half * ct))
        z2 = 1j * np.exp(1j * half) * st * np.sin(half * ct)
        row0 = np.stack([z1, -z2.conj()], axis=-1)
        row1 = np.stack([z2, z1.conj()], axis=-1)
        return np.stack([row0, row1], axis=-2)

    def holonomies(self, grid: Grid) -> list:
        """Per-level holonomies on the grid; both levels share one array."""
        u = self.wz_matrix(grid.s)
        return [u, u]

    def corrected_wz(self, s, velocity: float) -> np.ndarray:
        """First-order-dressed ground holonomy: scalar factor times wz_matrix."""
        s = np.asarray(s, dtype=float)
        st = np.sin(self.cone_angle)
        factor = 1.0 + 1j * (np.pi ** 2) * velocity * s * st * st / self.gap
        return factor[..., None, None] * self.wz_matrix(s)

    def daa_coefficients(self, s, velocity: float) -> np.ndarray:
        """Order-0 snapshot coefficients for the |0^0(0)> start, (..., 4)."""
        s = np.asarray(s, dtype=float)
        u = self.wz_matrix(s)
        phase = np.exp(1j * self.gap * s / (2.0 * velocity))
        zero = np.zeros_like(phase)
        return np.stack([phase * u[..., 0, 0], phase * u[..., 0, 1],
                         zero, zero], axis=-1)

    def first_order_coefficients(self, s, velocity: float) -> np.ndarray:
        """Closed-form psi^(1) snapshot coefficients, |0^0(0)> start.

        Normalized so that exact = daa + velocity * first_order + O(v^2).
        """
        s = np.asarray(s, dtype=float)
        b = self.gap
        ct, st = np.cos(self.cone_angle), np.sin(self.cone_angle)
        u = self.wz_matrix(s)
        z1, z2 = u[..., 0, 0], u[..., 1, 0]
        half = b * s / (2.0 * velocity)
        secular = 1j * (np.pi ** 2) * s * st * st / b
        c10 = 2j * np.pi / b * np.sin(half) * st * (z1 * st + z2 * ct)
        c11 = 2 * np.pi / b * (np.cos(half) * z2.conj()
                               + 1j * np.sin(half) * ct
                               * (z1.conj() * st + z2.conj() * ct))
        out = secular[..., None] * self.daa_coefficients(s, velocity)
        out[..., 2] += c10
        out[..., 3] += c11
        return out


@dataclass(frozen=True)
class SpinHalfModel(ConeModel):
    """Single spin-1/2 on the same cone protocol; both levels simple."""

    dims = (1, 1)
    GENERATORS = (PAULI_X, PAULI_Y, PAULI_Z)
    K = -1j * np.pi * PAULI_Z
    LAMBDA = -1j * np.pi * np.ones(2)

    def frames(self, s) -> np.ndarray:
        """Columns [ground, excited], shape (..., 2, 2)."""
        s = np.asarray(s, dtype=float)
        e = np.exp(-2j * np.pi * s)
        ch, sh = np.cos(self.cone_angle / 2), np.sin(self.cone_angle / 2)
        row0 = np.stack([-e * sh, e * ch], axis=-1)
        row1 = np.stack([ch * np.ones_like(e), sh * np.ones_like(e)], axis=-1)
        return np.stack([row0, row1], axis=-2)

    def connection(self, s, level: int = 0) -> np.ndarray:
        """Plain in-level coupling (1x1), d/ds units."""
        s = np.asarray(s, dtype=float)
        half = self.cone_angle / 2.0
        w2 = np.sin(half) ** 2 if level == 0 else np.cos(half) ** 2
        return (-2j * np.pi * w2) * np.ones_like(s)[..., None, None]

    def couplings(self, grid: Grid) -> CouplingSet:
        ones = np.ones((grid.n, 1, 1), dtype=complex)
        cross = 1j * np.pi * np.sin(self.cone_angle)
        mats = {(0, 0): self.connection(grid.s, 0),
                (1, 1): self.connection(grid.s, 1),
                (0, 1): cross * ones, (1, 0): cross * ones}
        return CouplingSet(grid=grid, energies=self.energies(grid.s),
                           matrices=mats)

    def holonomy_phase(self, s, level: int = 0) -> np.ndarray:
        """Closed-form Abelian holonomy U^level(s), shape (..., 1, 1)."""
        s = np.asarray(s, dtype=float)
        half = self.cone_angle / 2.0
        w2 = np.sin(half) ** 2 if level == 0 else np.cos(half) ** 2
        return np.exp(2j * np.pi * s * w2)[..., None, None]

    def holonomies(self, grid: Grid) -> list:
        return [self.holonomy_phase(grid.s, n) for n in (0, 1)]
