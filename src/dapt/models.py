"""Benchmark models with closed-form references.

Both models drive a magnetic-type Hamiltonian around one full cone
revolution, parametrized by scaled time s in [0, 1] so the protocol shape
is velocity-independent: the axis angle is phi = 2*pi*s and the physical
drive frequency is 2*pi*velocity. Closed-form expressions that depend on
how fast the cone is traversed therefore take the velocity explicitly.

GammaModel: four-dimensional, two levels of double degeneracy, non-Abelian
holonomies and an exact solution.

SpinHalfModel: two-dimensional Rabi problem, both levels simple; exercises
ragged degeneracy bookkeeping and the Abelian limit of the transport.

Both are cone models, H(s) = (gap / 2) r(s) . GENERATORS with the axis r(s)
on the cone, and both are rotating families: H(s) = W(s) H0 W(s)^dag with
W(s) = exp(sK), and frames(s) = W(s) F0 exp(s LAMBDA) for a constant
diagonal LAMBDA. A subclass gives only dims, GENERATORS, K, LAMBDA and
frames. The base derives the rest from them: the couplings
exp(-s LAMBDA) (C + LAMBDA) exp(s LAMBDA) and the holonomies
exp(s conj(C_nn)) exp(-s LAMBDA_n), with the constant C = F0^dag K F0,
and one reference for either model, the exact state started in any frame
column at s = 0 (exact_coefficients, in snapshot coefficients;
exact_state is frames(s) times them). The reference solves the static
rotating-frame problem by one eigendecomposition, so it holds at
resonance too. The hand-derived closed forms of both models live with
the tests, in tests/oracles.py, as independent checks.
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
# each squaring to the identity.
GAMMA = tuple(np.kron(PAULI_X, p) for p in (PAULI_X, PAULI_Y, PAULI_Z))


def _axis(cone_angle: float, phi):
    phi = np.asarray(phi, dtype=float)
    st, ct = np.sin(cone_angle), np.cos(cone_angle)
    return np.stack([st * np.cos(phi), st * np.sin(phi),
                     ct * np.ones_like(phi)], axis=-1)


@dataclass(frozen=True)
class ConeModel:
    """Two levels at -gap/2 and +gap/2 of dimensions ``dims``, the
    Hamiltonian (gap / 2) r(s) . GENERATORS with its axis r(s) on a cone.

    A subclass gives only ``dims``, ``GENERATORS``, the rotation generator
    ``K``, the frame phases ``LAMBDA`` (the diagonal of LAMBDA, each
    +-i pi) and the closed-form ``frames``; the couplings, holonomies and
    exact reference are derived from them.
    """

    gap: float = 1.0
    cone_angle: float = np.pi / 3

    def __post_init__(self):
        if not 0.0 < self.gap < np.inf:
            raise ValueError("gap must be positive and finite")
        if not 0.0 <= self.cone_angle <= np.pi:
            raise ValueError("cone_angle must lie in [0, pi]")
        # H0, F0 and C = F0^dag K F0, read by the reference at every
        # velocity and by the couplings and holonomies
        f0 = self.frames(0.0)
        object.__setattr__(self, "_h0", self.hamiltonian(0.0))
        object.__setattr__(self, "_f0", f0)
        object.__setattr__(self, "_c", f0.conj().T @ self.K @ f0)

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

    def couplings(self, grid: Grid) -> CouplingSet:
        """Plain couplings B^dag B' = exp(-s LAMBDA) D exp(s LAMBDA), the
        constant D = C + LAMBDA: entry (i, j) is D_ij exp(s (LAMBDA_j -
        LAMBDA_i)), and each exponent is 0 or +-2 i pi s."""
        turn = np.exp(2j * np.pi * grid.s)
        # columns 0, 1, -1 hold the phase rows of exponents 0, +-2 i pi s
        rows = np.stack([np.ones_like(turn), turn, turn.conj()], axis=-1)
        # LAMBDA in turns, each +-1/2, so a difference is 0 or +-1
        turns = self.LAMBDA.imag / (2.0 * np.pi)
        d = self._c + np.diag(self.LAMBDA)
        slices = level_slices(self.dims)
        mats = {}
        for n, a in enumerate(slices):
            for k, b in enumerate(slices):
                steps = np.rint(turns[b][None, :]
                                - turns[a][:, None]).astype(int)
                mats[(n, k)] = rows[:, steps] * d[a, b]
        return CouplingSet(grid=grid, energies=self.energies(grid.s),
                           matrices=mats)

    def holonomies(self, grid: Grid) -> list:
        """Per-level holonomies, each solving dU/ds = U conj(M_nn) from the
        identity: U_n(s) = exp(s conj(C_nn)) exp(-s LAMBDA_n), shape
        (n_nodes, d_n, d_n).

        With (w, V) = eigh(i conj(C_nn)) the first factor is
        V exp(-i w s) V^dag: d_n multiply-adds per entry.
        """
        s = grid.s
        ep = np.exp(1j * np.pi * s)
        # each LAMBDA_g is -i pi or +i pi, so exp(-s LAMBDA_g) is ep or ep*
        back = [ep if lam.imag < 0 else ep.conj() for lam in self.LAMBDA]
        out = []
        for a in level_slices(self.dims):
            w, v = np.linalg.eigh(1j * self._c[a, a].conj())
            rows = [np.exp(-1j * x * s) for x in w]
            u = np.empty((len(s), len(w), len(w)), dtype=complex)
            for h, g in np.ndindex(len(w), len(w)):
                mix = v[h] * v[g].conj()
                entry = u[:, h, g]
                np.multiply(mix[0], rows[0], out=entry)
                for j in range(1, len(w)):
                    entry += mix[j] * rows[j]
                entry *= back[a][g]
            out.append(u)
        return out

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
    couplings = ConeModel.couplings
    holonomies = ConeModel.holonomies
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
