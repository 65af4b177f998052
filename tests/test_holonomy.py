"""Wilczek-Zee transport and the first-order-corrected holonomy."""
import numpy as np
import pytest

from dapt import (DimensionMismatch, Grid, NotGroundStart, corrected_holonomy,
                  transport_all, unitary_deviation, wz_transport)
from oracles import couplings_via_frame_derivatives, wz_matrix


def vel(w):
    return w / (2.0 * np.pi)


@pytest.fixture(scope="module")
def transports(gamma):
    out = {}
    for n in (801, 1601):
        g = Grid.uniform(n)
        out[n] = (g, transport_all(gamma.couplings(g)))
    return out


def test_transport_matches_closed_form(gamma, transports):
    g, hols = transports[1601]
    err = max(np.abs(h - wz_matrix(gamma, g.s)).max() for h in hols)
    assert err < 1e-5


def test_transport_second_order_convergence(gamma, transports):
    errs = []
    for n in (801, 1601):
        g, hols = transports[n]
        errs.append(max(np.abs(h - wz_matrix(gamma, g.s)).max()
                        for h in hols))
    assert 3.2 < errs[0] / errs[1] < 4.8


def test_transport_stays_unitary(transports):
    _, hols = transports[1601]
    for h in hols:
        assert unitary_deviation(h) < 1e-12
        assert np.abs(h[0] - np.eye(2)).max() == 0.0


def test_gauge_covariance(gamma):
    # rotating every frame by a constant G maps U to G^T U G*
    g = Grid.uniform(401)
    from dapt.spectral import SpectralPath

    path = gamma.spectral_path(g)
    base = wz_transport(couplings_via_frame_derivatives(path).a(0, 0), g)
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(2, 2))
                        + 1j * np.random.default_rng(4).normal(size=(2, 2)))
    rotated = SpectralPath(grid=g, energies=path.energies,
                           blocks=(path.blocks[0] @ q, path.blocks[1]))
    u_rot = wz_transport(couplings_via_frame_derivatives(rotated).a(0, 0), g)
    assert np.abs(u_rot - q.T @ base @ q.conj()).max() < 1e-10


def test_transport_input_validation(gamma):
    g = Grid.uniform(101)
    a = gamma.couplings(g).a(0, 0)
    with pytest.raises(DimensionMismatch):
        wz_transport(a[:-1], g)


def test_corrected_holonomy_defect_quadratic_in_velocity(ws_gamma):
    defects = [unitary_deviation(ws_gamma.corrected(vel(w)))
               for w in (0.02, 0.04, 0.08)]
    assert 3.4 < defects[1] / defects[0] < 4.6
    assert 3.4 < defects[2] / defects[1] < 4.6


def test_corrected_holonomy_scalar_correction(gamma, ws_gamma):
    # the dressing factor is purely imaginary and linear in s at leading
    # order: the mean diagonal of V U^dag, less 1, divided by v
    v = vel(0.01)
    corr = ws_gamma.corrected(v)
    u_dag = np.swapaxes(ws_gamma.holonomies[0], 1, 2).conj()
    correction = (np.einsum("kij,kji->k", corr, u_dag) / 2 - 1.0) / v
    target = 1j * np.pi ** 2 * np.sin(gamma.cone_angle) ** 2 / gamma.gap
    assert abs(correction[-1] - target) < 1e-3
    assert abs(correction[0]) < 1e-6


def test_corrected_holonomy_population_leaks_quadratically(ws_gamma):
    def final_population(v):
        # ground-level weight of psi^(0) + v psi^(1) at s = 1, per label
        total = ws_gamma.term(0, v).coefficients[-1] \
            + v * ws_gamma.term(1, v).coefficients[-1]
        return (np.linalg.norm(total[:, :2], axis=1)
                / np.linalg.norm(total, axis=1)) ** 2

    pop1 = final_population(vel(0.02)).min()
    pop2 = final_population(vel(0.04)).min()
    assert 0.0 < 1.0 - pop1 < 1e-3
    assert 3.0 < (1.0 - pop2) / (1.0 - pop1) < 5.0


def test_corrected_holonomy_requires_ground_start(ws_gamma):
    psi0 = ws_gamma.term(0, vel(0.02))
    bad = psi0.coefficients.copy()
    bad[0, :, 2] = 1.0
    from dataclasses import replace
    with pytest.raises(NotGroundStart):
        corrected_holonomy(replace(psi0, coefficients=bad),
                           ws_gamma.term(1, vel(0.02)), ws_gamma.phases,
                           vel(0.02))


def test_corrected_holonomy_shape_mismatch(ws_gamma):
    psi0 = ws_gamma.term(0, vel(0.02))
    psi1 = ws_gamma.term(1, vel(0.02))
    from dataclasses import replace
    with pytest.raises(DimensionMismatch):
        corrected_holonomy(psi0, replace(psi1, coefficients=psi1.coefficients[:, :1]),
                           ws_gamma.phases, vel(0.02))


def test_transport_all_levels(gamma):
    g = Grid.uniform(101)
    cs = gamma.couplings(g)
    hols = transport_all(cs)
    assert [h.shape for h in hols] == [(g.n, 2, 2)] * 2
    # chaining the midpoint exponentials is wz_transport, bit for bit
    assert all(np.array_equal(h, wz_transport(cs.a(n, n), g))
               for n, h in enumerate(hols))
