"""Seeded benchmark inputs and their independent closed forms.

Every input is a rotating-frame family

    H(s) = W(s) H0 W(s)^dag,   W(s) = exp(s K),   K anti-Hermitian,

whose exact solution of i v psi' = H psi is

    psi(s) = W(s) exp(-i (H0 - i v K) s / v) psi(0).

(Write psi = W phi: the frame rotation turns the problem into one with the
constant Hermitian generator H0 - i v K.) The closed form is evaluated here
from two Hermitian eigendecompositions and shares no code with ``dapt``, so
it is the independent reference for every accuracy figure.

The Gamma model is such a family: its axis turns about z, generated by
K = -pi G0 G1 with the Clifford matrices G_i = X (x) sigma_i. A global
unitary V maps (H0, K) to (V H0 V^dag, V K V^dag).

The seed of a file workload draws V only. It changes every byte of the
file and every eigenvector the program computes, but not the physics, so
accuracy figures that do not depend on the eigensolver's gauge stay
comparable between seeds. (A fresh random K per seed moves the reference
error of the ragged family by a factor of two between seeds.)
"""
import math
from dataclasses import dataclass

import numpy as np

SIGMA = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))
CLIFFORD = tuple(np.kron(SIGMA[0], p) for p in SIGMA)

# Ground level (4) smaller than the label count (7, the largest level).
RAGGED_DIMS = (4, 5, 7)
RAGGED_ENERGIES = (-1.0, 0.5, 2.0)
RAGGED_K_NORM = math.pi          # spectral norm of the frame generator
RAGGED_FAMILY_SEED = 2010        # fixes K; the workload seed draws V
GAMMA_PARAMS = (1.0, math.pi / 3)   # GammaModel(gap, cone_angle), CLI defaults
GAMMA_N, RAGGED_N = 2001, 1001      # grid nodes of the two files
DEFECT_POINTS, DEFECT_TOL = 9, 1e-6  # self-check of each closed form


@dataclass(frozen=True)
class RotatingFamily:
    """H(s) = exp(sK) H0 exp(-sK) with its closed-form evolution."""

    h0: np.ndarray
    k: np.ndarray

    def frames(self, s) -> np.ndarray:
        """W(s) = exp(sK), shape (len(s), dim, dim)."""
        lam, q = np.linalg.eigh(-1j * self.k)          # K = i Q diag(lam) Q^dag
        ph = np.exp(1j * np.multiply.outer(np.asarray(s, dtype=float), lam))
        return np.einsum("ij,...j,kj->...ik", q, ph, q.conj())

    def hamiltonian(self, s) -> np.ndarray:
        w = self.frames(s)
        h = w @ self.h0 @ np.swapaxes(w, -1, -2).conj()
        return 0.5 * (h + np.swapaxes(h, -1, -2).conj())

    def rotated(self, v: np.ndarray) -> "RotatingFamily":
        """The family of V H(s) V^dag."""
        vh = v.conj().T
        return RotatingFamily(h0=v @ self.h0 @ vh, k=v @ self.k @ vh)

    def exact(self, s, velocity: float, psi0, w=None) -> np.ndarray:
        """States psi(s_k) for the start psi0 of shape (dim,) or (dim, m).

        Returns shape (len(s),) + psi0.shape. ``w`` may pass frames(s).
        """
        s = np.asarray(s, dtype=float)
        if w is None:
            w = self.frames(s)
        psi0 = np.asarray(psi0, dtype=complex)
        mu, p = np.linalg.eigh(self.h0 - 1j * velocity * self.k)
        c = p.conj().T @ psi0.reshape(len(mu), -1)
        ph = np.exp(-1j * np.multiply.outer(s, mu) / velocity)
        out = w @ (p @ (ph[..., None] * c))
        return out[..., 0] if psi0.ndim == 1 else out

    def schrodinger_defect(self, velocity: float, psi0) -> float:
        """max |i v psi' - H psi| at interior points, with psi' from
        fourth-order central differences on a step of v / 100."""
        s = np.linspace(0.1, 0.9, DEFECT_POINTS)
        step = velocity / 100.0
        f = [self.exact(s + j * step, velocity, psi0) for j in (-2, -1, 1, 2)]
        d = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * step)
        rhs = np.einsum("kij,kj->ki", self.hamiltonian(s),
                        self.exact(s, velocity, psi0))
        return float(np.abs(1j * velocity * d - rhs).max())


def random_unitary(rng, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gamma_family() -> RotatingFamily:
    """GammaModel(*GAMMA_PARAMS) as a rotating family."""
    gap, cone_angle = GAMMA_PARAMS
    st, ct = math.sin(cone_angle), math.cos(cone_angle)
    h0 = (gap / 2) * (st * CLIFFORD[0] + ct * CLIFFORD[2])
    return RotatingFamily(h0=h0, k=-math.pi * CLIFFORD[0] @ CLIFFORD[1])


def ragged_family() -> RotatingFamily:
    """Dim-16 family with levels RAGGED_DIMS at RAGGED_ENERGIES and a
    random K of spectral norm RAGGED_K_NORM."""
    rng = np.random.default_rng(RAGGED_FAMILY_SEED)
    dim = sum(RAGGED_DIMS)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    k = 0.5 * (a - a.conj().T)
    k *= RAGGED_K_NORM / np.linalg.norm(k, 2)
    h0 = np.diag(np.repeat(RAGGED_ENERGIES, RAGGED_DIMS)).astype(complex)
    return RotatingFamily(h0=h0, k=k)


def gamma_file(dapt, path, seed: int) -> RotatingFamily:
    """Sample GammaModel(1, pi/3) on GAMMA_N nodes, rotate it by a seeded
    V and write it; returns the file's family.

    The sampled model is checked against the rotating family it is
    claimed to be, so the closed form returned is the file's.
    """
    v = random_unitary(np.random.default_rng(seed), 4)
    model = dapt.GammaModel(*GAMMA_PARAMS)
    grid = dapt.Grid.uniform(GAMMA_N)
    samples = np.stack([model.hamiltonian(x) for x in grid.s])
    dev = float(np.abs(samples - gamma_family().hamiltonian(grid.s)).max())
    if dev > 1e-12:
        raise RuntimeError(f"Gamma model is not the rotating family: {dev:.2e}")
    family = gamma_family().rotated(v)
    rotated = v @ samples @ v.conj().T
    rotated = 0.5 * (rotated + np.swapaxes(rotated, 1, 2).conj())
    dapt.write_hamiltonian(path, rotated, grid,
                           comment=f"GammaModel(1, pi/3) rotated by V, seed {seed}")
    return family


def ragged_file(dapt, path, seed: int) -> RotatingFamily:
    """Write the ragged family rotated by a seeded V on RAGGED_N nodes."""
    family = ragged_family().rotated(
        random_unitary(np.random.default_rng(seed), sum(RAGGED_DIMS)))
    grid = dapt.Grid.uniform(RAGGED_N)
    dapt.write_hamiltonian(path, family.hamiltonian(grid.s), grid,
                           comment=f"rotating frame, dims {RAGGED_DIMS}, seed {seed}")
    return family


def self_check(family: RotatingFamily, velocity: float) -> float:
    """Schrodinger defect of the closed form at ``velocity`` for a random
    normalized start; raises if it exceeds DEFECT_TOL."""
    rng = np.random.default_rng(0)
    dim = family.h0.shape[0]
    psi0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi0 /= np.linalg.norm(psi0)
    defect = family.schrodinger_defect(velocity, psi0)
    if not defect <= DEFECT_TOL:
        raise RuntimeError(f"closed form misses i v psi' = H psi by {defect:.2e}")
    return defect
