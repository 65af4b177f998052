"""Benchmark models: algebra, frames, closed forms, mutual consistency."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dapt import (GAMMA, GammaModel, Grid, SpinHalfModel, propagate,
                  residual)
from oracles import (PI, closed_couplings, closed_holonomies, corrected_wz,
                     couplings_via_frame_derivatives, daa_coefficients,
                     first_order_coefficients, gamma_exact_coefficients,
                     holonomy_phase, spin_exact_coefficients, wz_matrix)

ORACLES = {GammaModel: gamma_exact_coefficients,
           SpinHalfModel: spin_exact_coefficients}


def vel(w):
    return w / (2.0 * np.pi)


def test_clifford_algebra_exact():
    eye = np.eye(4)
    for i in range(3):
        for j in range(3):
            anti = GAMMA[i] @ GAMMA[j] + GAMMA[j] @ GAMMA[i]
            assert np.array_equal(anti, 2.0 * (i == j) * eye)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    for i in range(3):
        for j in range(3):
            comm = GAMMA[i] @ GAMMA[j] - GAMMA[j] @ GAMMA[i]
            want = 2j * sum(eps[i, j, k] * PI[k] for k in range(3))
            assert np.array_equal(comm, want)


@pytest.mark.parametrize("cls", [GammaModel, SpinHalfModel])
def test_constructor_validation(cls):
    with pytest.raises(ValueError):
        cls(gap=0.0)
    with pytest.raises(ValueError):
        cls(gap=-1.0)
    with pytest.raises(ValueError):
        cls(cone_angle=-0.1)
    with pytest.raises(ValueError):
        cls(cone_angle=np.pi + 0.1)


@pytest.mark.parametrize("cls", [GammaModel, SpinHalfModel])
@pytest.mark.parametrize("gap", [np.nan, np.inf])
def test_non_finite_gap_rejected(cls, gap):
    with pytest.raises(ValueError):
        cls(gap=gap)


@pytest.mark.parametrize("cls", [GammaModel, SpinHalfModel])
def test_frames_orthonormal_and_eigen(cls):
    m = cls(gap=1.3, cone_angle=1.1)
    s = np.linspace(0.0, 1.0, 17)
    f = m.frames(s)
    dim = f.shape[-1]
    overlap = np.swapaxes(f, -1, -2).conj() @ f
    assert np.abs(overlap - np.eye(dim)).max() < 1e-12
    h = np.stack([m.hamiltonian(x) for x in s])
    e = m.energies(s)
    want = np.repeat(e, dim // e.shape[-1], axis=-1)
    assert np.abs(h @ f - f * want[:, None, :]).max() < 1e-12


def test_gamma_frames_at_zero_cone_angle():
    m = GammaModel(cone_angle=0.0)
    f = m.frames(0.0)
    assert np.abs(f[:, 0] - np.array([0, -1, 0, -1]) / np.sqrt(2)).max() < 1e-15


def test_wz_matrix_basics(gamma):
    s = np.linspace(0.0, 1.0, 9)
    u = wz_matrix(gamma, s)
    assert np.abs(u[0] - np.eye(2)).max() < 1e-15
    dev = np.swapaxes(u, -1, -2).conj() @ u - np.eye(2)
    assert np.abs(dev).max() < 1e-14


def test_wz_matrix_diagonal_at_equator():
    m = GammaModel(cone_angle=np.pi / 2)
    s = np.linspace(0.0, 1.0, 11)
    u = wz_matrix(m, s)
    want = np.exp(1j * np.pi * s)
    assert np.abs(u[:, 0, 0] - want).max() < 1e-14
    assert np.abs(u[:, 1, 0]).max() < 1e-15
    assert np.abs(u[:, 0, 1]).max() < 1e-15


def test_exact_state_solves_schrodinger(gamma):
    g = Grid.uniform(2001)
    v = vel(0.05)
    res = propagate(gamma.hamiltonian, g, gamma.frames(0.0)[:, 0], v,
                    substeps=8)
    assert residual(res.psi, gamma.exact_state(g.s, v)) < 1e-8


def test_spin_exact_state_solves_schrodinger(spin):
    g = Grid.uniform(2001)
    v = vel(0.05)
    res = propagate(spin.hamiltonian, g, spin.frames(0.0)[:, 0], v,
                    substeps=8)
    assert residual(res.psi, spin.exact_state(g.s, v)) < 1e-8
    assert np.abs(res.psi[0] - spin.frames(0.0)[:, 0]).max() == 0.0


@pytest.mark.parametrize("name", ["gamma", "spin"])
def test_exact_coefficients_consistent_with_state(gamma, spin, name):
    model = {"gamma": gamma, "spin": spin}[name]
    s = np.linspace(0.0, 1.0, 13)
    v = vel(0.3)
    c = model.exact_coefficients(s, v)
    psi = np.einsum("kij,kj->ki", model.frames(s), c)
    assert np.abs(psi - model.exact_state(s, v)).max() < 1e-12
    assert np.abs(np.linalg.norm(c, axis=1) - 1.0).max() < 1e-12


@pytest.mark.parametrize("name", ["gamma", "spin"])
def test_exact_coefficients_project_the_exact_state(gamma, spin, name):
    # both models give their reference as snapshot coefficients; on the
    # Gamma model each column is one contiguous row
    model = {"gamma": gamma, "spin": spin}[name]
    s = np.linspace(0.0, 1.0, 13)
    v = vel(0.3)
    f = model.frames(s)
    want = np.einsum("kji,kj->ki", f.conj(), model.exact_state(s, v))
    c = model.exact_coefficients(s, v)
    assert c.shape == (13, f.shape[-1])
    assert np.abs(c - want).max() < 1e-12
    if name == "gamma":
        assert c.strides[0] == c.itemsize


def test_expansion_hierarchy_of_closed_forms(gamma):
    # exact minus (order0 + v order1) must shrink like v^2
    s = np.linspace(0.0, 1.0, 501)
    gaps = []
    for w in (0.02, 0.01):
        v = vel(w)
        trunc = daa_coefficients(gamma, s, v) \
            + v * first_order_coefficients(gamma, s, v)
        diff = gamma.exact_coefficients(s, v) - trunc
        gaps.append(np.linalg.norm(diff, axis=-1).max())
    assert gaps[1] < 2e-4
    assert 3.3 < gaps[0] / gaps[1] < 4.7


def test_first_order_closed_form_starts_at_zero(gamma):
    c = first_order_coefficients(gamma, np.array([0.0]), vel(0.01))
    assert np.abs(c).max() < 1e-12


def test_corrected_wz_is_scalar_dressing(gamma):
    s = np.linspace(0.0, 1.0, 7)
    v = vel(0.01)
    factor = 1.0 + 1j * np.pi ** 2 * v * s * np.sin(gamma.cone_angle) ** 2
    want = factor[:, None, None] * wz_matrix(gamma, s)
    assert np.abs(corrected_wz(gamma, s, v) - want).max() < 1e-14


@pytest.mark.parametrize("cls", [GammaModel, SpinHalfModel])
def test_rotating_reference_matches_closed_forms(cls):
    # the hand-derived Rabi forms, off resonance, against the one
    # eigendecomposition of the rotating-frame Hamiltonian
    s = Grid.uniform(16001).s
    worst = 0.0
    for cone_angle in (0.1, 1.0, 2.5):
        for gap in (0.5, 2.0):
            m = cls(gap=gap, cone_angle=cone_angle)
            for v in (0.002, 0.02, 0.05, 0.3):
                got = m.exact_coefficients(s, v)
                worst = max(worst, np.abs(got - ORACLES[cls](m, s, v)).max())
    assert worst < 1e-12


@pytest.mark.parametrize("cls", [GammaModel, SpinHalfModel])
@pytest.mark.parametrize("gap,cone_angle", [(1.0, np.pi / 3), (0.7, 0.0),
                                            (2.0, 2.5), (1.3, np.pi)])
def test_rotation_constants(cls, gap, cone_angle):
    # the reference rests on H(s) = W H0 W^dag and frames(s) = W F0
    # exp(s LAMBDA) with W = exp(sK) and each frame phase +-i pi, and on
    # GENERATORS[1] mirroring the spectrum of H0 - i v K about zero
    m = cls(gap=gap, cone_angle=cone_angle)
    assert np.all(m.LAMBDA.real == 0.0) and np.all(np.abs(m.LAMBDA) == np.pi)
    h0, f0 = m.hamiltonian(0.0), m.frames(0.0)
    for s in np.linspace(0.0, 1.0, 9):
        w = expm(s * m.K)
        assert np.abs(w @ h0 @ w.conj().T - m.hamiltonian(s)).max() < 1e-14
        want = w @ f0 * np.exp(s * m.LAMBDA)
        assert np.abs(m.frames(s) - want).max() < 1e-14
    c = m.GENERATORS[1]
    for v in (0.002, 0.05, 1.0 / (2.0 * np.pi), 3.0):
        g = h0 - 1j * v * m.K
        assert np.abs(c @ g @ c.conj().T + g).max() < 1e-14


@pytest.mark.parametrize("cls", [GammaModel, SpinHalfModel])
@pytest.mark.parametrize("cone_angle", [0.0, 0.3, np.pi / 3, 2.5, np.pi])
@pytest.mark.parametrize("gap", [0.5, 2.0])
def test_derived_couplings_and_holonomies(cls, cone_angle, gap):
    # the forms derived from K and LAMBDA against the hand-derived ones,
    # and the couplings against frame differentiation, which reads no K
    m = cls(gap=gap, cone_angle=cone_angle)
    g = Grid.uniform(801)
    cs = m.couplings(g)
    closed = closed_couplings(m, g.s)
    assert max(np.abs(cs.m(*pair) - closed[pair]).max()
               for pair in closed) < 1e-14
    hols = m.holonomies(g)
    for got, want in zip(hols, closed_holonomies(m, g.s)):
        assert np.abs(got - want).max() < 1e-14
        eye = np.eye(got.shape[-1])
        assert np.abs(np.swapaxes(got, 1, 2).conj() @ got - eye).max() < 1e-13
    errs = []
    for n in (801, 1601):
        g = Grid.uniform(n)
        cs = m.couplings(g)
        fd = couplings_via_frame_derivatives(m.spectral_path(g))
        errs.append(max(np.abs(cs.m(*pair) - fd.m(*pair)).max()
                        for pair in cs.matrices))
    # second order in the stencil; at the poles the Gamma frames stand
    # still and both sides are zero to roundoff
    assert errs[1] < 1e-4
    assert errs[1] < 1e-12 or 3.2 < errs[0] / errs[1] < 4.8


@pytest.mark.parametrize("cls", [GammaModel, SpinHalfModel])
def test_resonance_is_solved(cls):
    # at theta = 0 and w = gap the hand-derived forms are singular; the
    # rotating-frame reference is not
    m = cls(gap=1.0, cone_angle=0.0)
    g = Grid.uniform(2001)
    v = 1.0 / (2.0 * np.pi)
    c = m.exact_coefficients(g.s, v)
    assert np.abs(np.linalg.norm(c, axis=1) - 1.0).max() < 1e-13
    res = propagate(m.hamiltonian, g, m.frames(0.0)[:, 0], v, substeps=8)
    assert residual(res.psi, m.exact_state(g.s, v)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(cls=st.sampled_from([GammaModel, SpinHalfModel]),
       gap=st.floats(0.1, 5.0),
       cone_angle=st.one_of(st.sampled_from([0.0, np.pi]),
                            st.floats(0.0, np.pi)),
       ratio=st.one_of(st.just(1.0), st.floats(0.01, 5.0)))
def test_reference_is_unitary(cls, gap, cone_angle, ratio):
    # ratio 1 at cone angle 0 or pi is a resonance, w = gap
    m = cls(gap=gap, cone_angle=cone_angle)
    v = ratio * gap / (2.0 * np.pi)
    s = np.linspace(0.0, 1.0, 201)
    cols = [m.exact_coefficients(s, v, label) for label in range(m.dims[0])]
    for c in cols:
        assert np.abs(np.linalg.norm(c, axis=1) - 1.0).max() < 1e-13
    if len(cols) == 2:
        assert np.abs(np.sum(cols[0].conj() * cols[1], axis=1)).max() < 1e-13


def test_spin_holonomy_is_berry_phase(spin):
    s = np.linspace(0.0, 1.0, 5)
    u = holonomy_phase(spin, s, level=0)
    w2 = np.sin(spin.cone_angle / 2.0) ** 2
    assert np.abs(u[:, 0, 0] - np.exp(2j * np.pi * s * w2)).max() < 1e-15
    total = holonomy_phase(spin, np.array([1.0]), 0)[0, 0, 0]
    berry = np.exp(1j * np.pi * (1.0 - np.cos(spin.cone_angle)))
    assert abs(total - berry) < 1e-15


def test_spin_connection_values(spin):
    g = Grid.uniform(11)
    cs = spin.couplings(g)
    half = spin.cone_angle / 2.0
    assert np.allclose(cs.m(0, 0), -2j * np.pi * np.sin(half) ** 2)
    assert np.allclose(cs.m(1, 1), -2j * np.pi * np.cos(half) ** 2)
    assert np.allclose(cs.m(0, 1), 1j * np.pi * np.sin(spin.cone_angle))
    # trace of the full connection is the derivative of a determinant phase
    trace = cs.m(0, 0)[0, 0, 0] + cs.m(1, 1)[0, 0, 0]
    assert abs(trace + 2j * np.pi) < 1e-14


def test_model_dims(gamma, spin):
    assert gamma.dims == (2, 2)
    assert spin.dims == (1, 1)
