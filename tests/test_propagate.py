"""Reference Magnus propagator against closed forms and scipy."""
import importlib

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from dapt import (Grid, NonHermitianInput, StepTooLarge, hamiltonian_samples,
                  propagate, residual)
from dapt.propagate import MAX_PHASE, MAX_STEPS, ROW_BYTES, ROW_DIM
from dapt.spectral import HermitianSamples

# the module itself: the package binds the name propagate to the function
PROPAGATE = importlib.import_module("dapt.propagate")


def vel(w):
    return w / (2.0 * np.pi)


@pytest.fixture(scope="module")
def grid201():
    return Grid.uniform(201)


def test_matches_independent_integrator(gamma, grid201):
    v = vel(0.2)
    psi0 = gamma.frames(0.0)[:, 0]
    mine = propagate(gamma.hamiltonian, grid201, psi0, v, substeps=4)

    def rhs(s, y):
        psi = y[:4] + 1j * y[4:]
        d = -1j / v * (gamma.hamiltonian(s) @ psi)
        return np.concatenate([d.real, d.imag])

    sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate([psi0.real, psi0.imag]),
                    t_eval=grid201.s, rtol=1e-12, atol=1e-12, method="DOP853")
    ref = (sol.y[:4] + 1j * sol.y[4:]).T
    assert residual(mine.psi, ref) < 1e-7


def test_matches_model_closed_form(gamma, grid201):
    v = vel(0.2)
    res = propagate(gamma.hamiltonian, grid201, gamma.frames(0.0)[:, 0], v,
                    substeps=4)
    assert residual(res.psi, gamma.exact_state(grid201.s, v)) < 1e-7


def test_fourth_order_convergence(gamma, grid201):
    v = vel(0.2)
    psi0 = gamma.frames(0.0)[:, 0]
    exact = gamma.exact_state(grid201.s, v)
    errs = [residual(propagate(gamma.hamiltonian, grid201, psi0, v,
                               substeps=m).psi, exact) for m in (1, 2)]
    assert 11.0 < errs[0] / errs[1] < 21.0


def test_norm_preserved(gamma, grid201):
    res = propagate(gamma.hamiltonian, grid201, gamma.frames(0.0)[:, 0],
                    vel(0.2), substeps=4)
    steps = (grid201.n - 1) * res.substeps
    assert res.norm_drift < 1e-12 * steps


def test_batch_matches_single_runs(gamma, grid201):
    v = vel(0.2)
    starts = gamma.frames(0.0)[:, :2].T
    batch = propagate(gamma.hamiltonian, grid201, starts, v, substeps=2)
    assert batch.psi.shape == (201, 2, 4)
    for row in (0, 1):
        single = propagate(gamma.hamiltonian, grid201, starts[row], v,
                           substeps=2)
        assert np.abs(batch.psi[:, row, :] - single.psi).max() < 1e-13


def test_sampled_hamiltonian_route(gamma, grid201):
    v = vel(0.2)
    psi0 = gamma.frames(0.0)[:, 0]
    samples = hamiltonian_samples(gamma.hamiltonian, grid201)
    res = propagate(samples, grid201, psi0, v, substeps=4)
    # piecewise-linear interpolation of H(s) limits the sampled route
    assert residual(res.psi, gamma.exact_state(grid201.s, v)) < 5e-3


def test_sampled_route_matches_independent_integrator(ragged):
    # the samples route integrates the piecewise-linear interpolant of the
    # samples; 400 intervals fill more than three blocks, the last partly
    g = Grid.uniform(401)
    v = 0.05
    samples = ragged(g)
    starts = np.linalg.eigh(samples[0])[1][:, :3].T

    def rhs(s, y):
        k = min(int(s / g.h), g.n - 2)
        w = (s - g.s[k]) / g.h
        hs = (1.0 - w) * samples[k] + w * samples[k + 1]
        psi = (y[:18] + 1j * y[18:]).reshape(3, 6)
        d = (-1j / v) * psi @ hs.T
        return np.concatenate([d.real.ravel(), d.imag.ravel()])

    y0 = np.concatenate([starts.real.ravel(), starts.imag.ravel()])
    sol = solve_ivp(rhs, (0.0, 1.0), y0, t_eval=g.s, rtol=1e-12, atol=1e-12,
                    method="DOP853")
    ref = (sol.y[:18] + 1j * sol.y[18:]).T.reshape(g.n, 3, 6)
    batch = propagate(samples, g, starts, v, substeps=4)
    single = propagate(samples, g, starts[0], v, substeps=4)
    assert residual(batch.psi, ref) < 1e-8
    assert residual(single.psi, ref[:, 0]) < 1e-8


def test_constant_hamiltonian_is_exact_in_one_substep():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h0 = x + x.conj().T
    g = Grid.uniform(51)
    v = 0.1
    psi0 = np.linalg.qr(x)[0][:, 0]
    res = propagate(np.broadcast_to(h0, (g.n, 4, 4)), g, psi0, v, substeps=1)
    ref = np.stack([expm(-1j * h0 * s / v) @ psi0 for s in g.s])
    assert residual(res.psi, ref) < 1e-12


def test_projection_onto_snapshot_basis(gamma):
    g = Grid.uniform(2001)
    v = vel(0.05)
    res = propagate(gamma.hamiltonian, g, gamma.frames(0.0)[:, 0], v,
                    substeps=8)
    coeff = np.einsum("kij,ki->kj", gamma.spectral_path(g).basis().conj(),
                      res.psi)
    assert np.abs(coeff - gamma.exact_coefficients(g.s, v)).max() < 1e-8


def test_automatic_substep_choice(gamma, grid201):
    v = vel(0.02)
    res = propagate(gamma.hamiltonian, grid201, gamma.frames(0.0)[:, 0], v)
    # |H| h / (v substeps) must come out at or below the cap, and one
    # substep fewer would exceed it
    assert res.substeps > 1
    assert 0.5 * grid201.h / (v * res.substeps) <= MAX_PHASE
    assert 0.5 * grid201.h / (v * (res.substeps - 1)) > MAX_PHASE


def test_input_validation(gamma, grid201):
    psi0 = gamma.frames(0.0)[:, 0]
    with pytest.raises(ValueError):
        propagate(gamma.hamiltonian, grid201, psi0, -0.1)
    with pytest.raises(ValueError):
        propagate(gamma.hamiltonian, grid201, psi0[:3], vel(0.2))
    with pytest.raises(StepTooLarge):
        propagate(gamma.hamiltonian, grid201, psi0, vel(0.2),
                  substeps=MAX_STEPS // (grid201.n - 1) + 1)
    for substeps in (0, -1):
        with pytest.raises(ValueError, match="substeps must be at least 1"):
            propagate(gamma.hamiltonian, grid201, psi0, vel(0.2),
                      substeps=substeps)
    bad = hamiltonian_samples(gamma.hamiltonian, grid201)
    bad[7, 0, 1] += 1e-6
    with pytest.raises(NonHermitianInput):
        propagate(bad, grid201, psi0, vel(0.2))


def test_residual_helper():
    a = np.zeros((5, 3))
    b = np.zeros((5, 3))
    b[2, 1] = 0.25
    assert residual(a, b) == 0.25


def _rotating(dim, seed):
    """H(s) = W(s) H0 W(s)^dag, W(s) = exp(sK), for a random Hermitian H0
    of spectral norm 1 and a random anti-Hermitian K."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h0 = x + x.conj().T
    h0 /= np.abs(np.linalg.eigvalsh(h0)).max()
    y = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    lam, vec = np.linalg.eigh(0.5j * (y - y.conj().T))       # K = -i lam

    def h(s):
        w = (vec * np.exp(-1j * s * lam)) @ vec.conj().T
        return w @ h0 @ w.conj().T
    return h


def _layouts(monkeypatch, h, grid, psi0, substeps):
    """psi of one propagation with the steps built node-fastest, built
    node-first, and with the default cutoff."""
    dim = np.shape(psi0)[-1]
    out = []
    for row_dim in (dim, 0, ROW_DIM):
        monkeypatch.setattr(PROPAGATE, "ROW_DIM", row_dim)
        out.append(propagate(h, grid, psi0, 0.05, substeps=substeps).psi)
    return out


@pytest.mark.parametrize("dim", [ROW_DIM, ROW_DIM + 1])
@pytest.mark.parametrize("case", ["1 substep", "3 substeps", "n = 3",
                                  "callable", "checked samples"])
def test_node_fastest_steps_match_node_first(monkeypatch, dim, case):
    # 300 intervals fill more than one block in either layout, the last
    # partly; starts are batched and single
    n = 3 if case == "n = 3" else 301
    assert (n - 1) % (ROW_BYTES // (16 * dim * dim)) or n == 3
    grid = Grid.uniform(n)
    h = _rotating(dim, seed=dim)
    substeps = 3 if case in ("3 substeps", "callable") else 1
    if case == "checked samples":
        h = HermitianSamples(h, grid)
    elif case != "callable":
        h = hamiltonian_samples(h, grid)
    starts = np.linalg.eigh(h(0.0) if callable(h)
                            else hamiltonian_samples(h, grid)[0])[1][:, :2].T
    fast, first, default = _layouts(monkeypatch, h, grid, starts, substeps)
    assert fast.shape == (n, 2, dim)
    assert np.abs(fast - first).max() <= 1e-14
    # the default cutoff builds dimension ROW_DIM node-fastest, one more
    # node-first
    assert np.array_equal(default, fast if dim <= ROW_DIM else first)
    for row in (0, 1):
        for single in _layouts(monkeypatch, h, grid, starts[row], substeps):
            assert np.abs(single - first[:, row]).max() <= 1e-14
