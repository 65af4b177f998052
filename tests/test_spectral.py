"""Snapshot eigensystem clustering and gauge smoothing."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dapt import (DegeneracyChanged, DimensionMismatch, Grid,
                  NonHermitianInput, RankDeficientOverlap, SpectralPath,
                  hamiltonian_samples, smooth_gauge, snapshot_eigensystem)
from dapt.models import PAULI_X, PAULI_Z
from dapt.spectral import POLAR_RADIUS, _polar_factors, level_slices


def test_clusters_gamma_model_into_two_doublets(gamma):
    g = Grid.uniform(101)
    path = snapshot_eigensystem(gamma.hamiltonian, g)
    assert path.dims == (2, 2)
    assert path.dim == 4
    assert np.allclose(path.energies[:, 0], -0.5, atol=1e-12)
    assert np.allclose(path.energies[:, 1], 0.5, atol=1e-12)
    assert level_slices(path.dims) == [slice(0, 2), slice(2, 4)]


def test_frames_are_eigenvectors(gamma):
    g = Grid.uniform(61)
    path = snapshot_eigensystem(gamma.hamiltonian, g)
    samples = hamiltonian_samples(gamma.hamiltonian, g)
    basis = path.basis()
    energies = np.repeat(path.energies, 2, axis=1)
    resid = samples @ basis - basis * energies[:, None, :]
    assert np.abs(resid).max() < 1e-13


def test_basis_is_orthonormal(gamma):
    g = Grid.uniform(61)
    path = snapshot_eigensystem(gamma.hamiltonian, g)
    b = path.basis()
    overlap = np.swapaxes(b, 1, 2).conj() @ b
    assert np.abs(overlap - np.eye(4)).max() < 1e-13


def test_rejects_non_hermitian_samples():
    g = Grid.uniform(11)
    samples = np.broadcast_to(np.eye(2, dtype=complex), (11, 2, 2)).copy()
    samples[4, 0, 1] = 1e-6
    with pytest.raises(NonHermitianInput):
        snapshot_eigensystem(samples, g)


def test_rejects_degeneracy_change():
    g = Grid.uniform(11)
    samples = np.stack([np.diag([-1.0, -1.0 + 0.1 * s, 1.0, 1.5]).astype(complex)
                        for s in g.s])
    with pytest.raises(DegeneracyChanged):
        snapshot_eigensystem(samples, g)
    # a tolerance wide enough to swallow the split keeps one structure
    path = snapshot_eigensystem(samples, g, degeneracy_tol=0.3)
    assert path.dims == (2, 1, 1)


def test_rejects_bad_sample_shapes():
    g = Grid.uniform(11)
    with pytest.raises(DimensionMismatch):
        snapshot_eigensystem(np.zeros((10, 2, 2)), g)
    with pytest.raises(DimensionMismatch):
        snapshot_eigensystem(np.zeros((11, 2, 3)), g)


def test_path_shape_validation(gamma):
    g = Grid.uniform(11)
    path = snapshot_eigensystem(gamma.hamiltonian, g)
    with pytest.raises(DimensionMismatch):
        SpectralPath(grid=g, energies=path.energies[:, :1], blocks=path.blocks)


def test_smooth_gauge_makes_frames_continuous(gamma):
    g = Grid.uniform(201)
    path = smooth_gauge(snapshot_eigensystem(gamma.hamiltonian, g))
    for b in path.blocks:
        jumps = np.abs(np.diff(b, axis=0)).max()
        assert jumps < 0.1


def projector(path, level):
    """Rank-d_level projectors block @ block^dagger, shape (n, dim, dim)."""
    b = path.blocks[level]
    return b @ np.swapaxes(b, 1, 2).conj()


def test_smooth_gauge_preserves_projectors(gamma):
    g = Grid.uniform(101)
    raw = snapshot_eigensystem(gamma.hamiltonian, g)
    smooth = smooth_gauge(raw)
    for level in (0, 1):
        assert np.abs(projector(raw, level)
                      - projector(smooth, level)).max() < 1e-12


def _turning_path(turns):
    """3-node path on which the field direction of H turns by ``turns``
    half turns between adjacent nodes."""
    g = Grid.uniform(3)
    a = np.pi * turns * g.s / g.h
    return snapshot_eigensystem(np.stack(
        [np.cos(x) * PAULI_Z + np.sin(x) * PAULI_X for x in a]), g)


def test_smooth_gauge_flags_rank_deficient_overlap():
    # a half turn takes the ground vector to the one orthogonal to it, so
    # the overlap between nodes 0 and 1 vanishes; a quarter turn leaves
    # it at 1/sqrt(2)
    with pytest.raises(RankDeficientOverlap, match="between nodes 0 and 1"):
        smooth_gauge(_turning_path(1.0))
    smooth_gauge(_turning_path(0.5))


def test_callable_and_sample_routes_agree(gamma):
    g = Grid.uniform(31)
    samples = hamiltonian_samples(gamma.hamiltonian, g)
    a = snapshot_eigensystem(gamma.hamiltonian, g)
    b = snapshot_eigensystem(samples, g)
    assert np.array_equal(a.energies, b.energies)


def smooth_gauge_per_node(path):
    """Reference: node-by-node Procrustes, each overlap taken against the
    previous node's already aligned frame."""
    new_blocks = []
    for b in path.blocks:
        out = b.copy()
        for k in range(b.shape[0] - 1):
            w, _, vh = np.linalg.svd(out[k].conj().T @ out[k + 1])
            out[k + 1] = out[k + 1] @ (vh.conj().T @ w.conj().T)
        new_blocks.append(out)
    return new_blocks


@pytest.mark.parametrize("route", ["gamma", "ragged"])
def test_smooth_gauge_matches_per_node_loop(gamma, ragged, route):
    if route == "gamma":
        g = Grid.uniform(2001)
        raw = snapshot_eigensystem(gamma.hamiltonian, g)
    else:
        g = Grid.uniform(401)
        raw = snapshot_eigensystem(ragged(g), g)
        assert raw.dims == (2, 3, 1)
    smooth = smooth_gauge(raw)
    for got, want in zip(smooth.blocks, smooth_gauge_per_node(raw)):
        assert np.abs(got - want).max() < 1e-12


def random_unitaries(rng, n, d):
    x = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return np.linalg.qr(x)[0]


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_smooth_gauge_removes_per_node_rotations(ragged, seed):
    # B_k R_k and B_k align to the same frames up to the first node's R_0
    g = Grid.uniform(201)
    raw = snapshot_eigensystem(ragged(g), g)
    rng = np.random.default_rng(seed)
    rots = [random_unitaries(rng, g.n, d) for d in raw.dims]
    rotated = SpectralPath(grid=g, energies=raw.energies,
                           blocks=tuple(b @ r for b, r in zip(raw.blocks, rots)))
    want, got = smooth_gauge(raw), smooth_gauge(rotated)
    for level, r in enumerate(rots):
        assert np.abs(got.blocks[level] - want.blocks[level] @ r[0]).max() < 1e-12
        assert np.abs(projector(got, level)
                      - projector(raw, level)).max() < 1e-12


def _near_unitary(rng, m, d, size):
    """m overlaps U (I + size K), U unitary and K Hermitian of max-entry
    1: each O^dag O - I has max-entry near 2 size."""
    u = random_unitaries(rng, m, d)
    k = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
    k = k + np.swapaxes(k, 1, 2).conj()
    k /= np.abs(k).max(axis=(1, 2), keepdims=True)
    return u @ (np.eye(d) + size * k)


def _svd_polar(o):
    w, _, vh = np.linalg.svd(o)
    return w @ vh


def _count_svd(monkeypatch):
    """Record the stack size of every np.linalg.svd call."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: calls.append(len(a))
                        or svd(a, *args, **kw))
    return calls


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
def test_polar_series_matches_svd_on_near_unitary_overlaps(d, monkeypatch):
    rng = np.random.default_rng(d)
    sizes = (1e-9, 1e-6, 0.1 * POLAR_RADIUS / d, 0.4 * POLAR_RADIUS / d)
    o = np.concatenate([_near_unitary(rng, 50, d, x) for x in sizes])
    want = _svd_polar(o)
    calls = _count_svd(monkeypatch)
    got = _polar_factors(o, level=0)
    assert calls == []
    assert np.abs(got - want).max() < 1e-14


def test_polar_factors_send_only_rough_overlaps_to_svd(monkeypatch):
    rng = np.random.default_rng(4)
    d = 3
    o = _near_unitary(rng, 40, d, 1e-6)
    rough = [5, 17, 30]
    o[rough] = _near_unitary(rng, 3, d, 0.2)
    want = _svd_polar(o)
    calls = _count_svd(monkeypatch)
    got = _polar_factors(o, level=2)
    assert calls == [len(rough)]
    assert np.abs(got - want).max() < 1e-14
    # a rank-deficient rough overlap is named by its nodes
    o[17, :, 0] = 0.0
    with pytest.raises(RankDeficientOverlap,
                       match="level 2: .* between nodes 17 and 18"):
        _polar_factors(o, level=2)
