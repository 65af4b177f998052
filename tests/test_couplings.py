"""Coupling-matrix construction: both routes, index conventions, gap guard."""
import numpy as np
import pytest

from dapt import (GapCollapse, Grid, couplings_from_path, smooth_gauge,
                  snapshot_eigensystem)
from oracles import couplings_via_frame_derivatives

PAIRS = [(n, k) for n in (0, 1) for k in (0, 1)]


@pytest.fixture(scope="module")
def analytic(gamma, grid801):
    return gamma.couplings(grid801)


@pytest.fixture(scope="module")
def fd_route(gamma, grid801):
    return couplings_via_frame_derivatives(gamma.spectral_path(grid801))


def test_gap_formula_with_numeric_derivative(gamma, grid801, analytic):
    cs = couplings_from_path(gamma.spectral_path(grid801), h=gamma.hamiltonian)
    for n, k in PAIRS:
        if n != k:
            assert np.abs(cs.m(n, k) - analytic.m(n, k)).max() < 2e-4
    # the error is the central difference's alone: halving h quarters it
    errs = []
    for n_nodes in (801, 1601):
        g = Grid.uniform(n_nodes)
        cs = couplings_from_path(gamma.spectral_path(g), h=gamma.hamiltonian)
        want = gamma.couplings(g)
        errs.append(max(np.abs(cs.m(n, k) - want.m(n, k)).max()
                        for n, k in PAIRS if n != k))
    assert 3.2 < errs[0] / errs[1] < 4.8


def test_frame_derivative_route_matches_analytic(analytic, fd_route):
    for n, k in PAIRS:
        assert np.abs(fd_route.m(n, k) - analytic.m(n, k)).max() < 2e-4


def test_coupling_antisymmetry(fd_route):
    # d/ds of <n^h|k^g> = 0 forces M(n,k) = -M(k,n)^dagger-transpose
    for n, k in PAIRS:
        defect = fd_route.m(n, k) + np.swapaxes(fd_route.m(k, n), 1, 2).conj()
        assert np.abs(defect).max() < 2e-6


def test_diagonal_coupling_anti_hermitian(fd_route, analytic):
    for n in (0, 1):
        fd = fd_route.a(n, n)
        assert np.abs(fd + np.swapaxes(fd, 1, 2).conj()).max() < 2e-6
        an = analytic.a(n, n)
        assert np.abs(an + np.swapaxes(an, 1, 2).conj()).max() < 1e-14


def test_index_convention_accessors(analytic):
    assert np.array_equal(analytic.recursion(1, 0),
                          np.swapaxes(analytic.m(0, 1), 1, 2))
    assert np.array_equal(analytic.a(0, 1), np.conj(analytic.m(0, 1)))
    assert np.allclose(analytic.gap(1, 0), 1.0)
    assert np.allclose(analytic.gap(0, 1), -1.0)
    assert analytic.n_levels == 2


def test_gap_collapse_guard():
    g = Grid.uniform(51)
    drift = 1e-7 + g.s
    samples = np.stack([0.5 * d * np.diag([-1.0, -1.0, 1.0, 1.0]).astype(complex)
                        for d in drift])
    path = smooth_gauge(snapshot_eigensystem(samples, g))
    with pytest.raises(GapCollapse):
        couplings_from_path(path, h=samples)
    couplings_from_path(path, h=samples, gap_floor=1e-9)


def test_file_route_antisymmetry(gamma, grid801):
    # eigensolver frames after gauge smoothing differentiate cleanly too
    path = smooth_gauge(snapshot_eigensystem(gamma.hamiltonian, grid801))
    cs = couplings_via_frame_derivatives(path)
    for n, k in PAIRS:
        defect = cs.m(n, k) + np.swapaxes(cs.m(k, n), 1, 2).conj()
        assert np.abs(defect).max() < 1e-6


def test_gauge_invariant_coupling_magnitude(gamma, grid801, analytic):
    # the two frame conventions disagree by a per-level gauge, which the
    # Frobenius norm of each off-diagonal block cannot see
    path = smooth_gauge(snapshot_eigensystem(gamma.hamiltonian, grid801))
    cs = couplings_via_frame_derivatives(path)
    got = np.linalg.norm(cs.m(0, 1), axis=(1, 2))
    want = np.linalg.norm(analytic.m(0, 1), axis=(1, 2))
    assert np.abs(got - want).max() < 2e-4
