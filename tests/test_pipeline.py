"""Workspace orchestration, power-law fits, velocity sweeps."""
import numpy as np
import pytest

from dapt import (ConfigError, Grid, InsufficientSweep, Workspace,
                  fit_power_law, hamiltonian_samples, sweep)


def vel(w):
    return w / (2.0 * np.pi)


def test_build_validation(gamma, grid801):
    with pytest.raises(ConfigError):
        Workspace.build(model=gamma)
    with pytest.raises(ConfigError):
        Workspace.build(grid=grid801)
    with pytest.raises(ConfigError):
        Workspace.build(model=gamma, samples=np.zeros((3, 2, 2)), grid=grid801)
    with pytest.raises(ConfigError):
        Workspace.build(model=gamma, grid=grid801, order=-1)


def test_series_order_capped(ws_gamma):
    with pytest.raises(ConfigError):
        ws_gamma.series(vel(0.05), order=3)


def test_corrected_needs_first_order(gamma):
    ws = Workspace.build(model=gamma, grid=Grid.uniform(101), order=0)
    with pytest.raises(ConfigError):
        ws.corrected(vel(0.05))


def test_model_holonomy_flag(gamma):
    g = Grid.uniform(401)
    exact = Workspace.build(model=gamma, grid=g, order=0)
    numeric = Workspace.build(model=gamma, grid=g, order=0,
                              model_holonomy=False)
    assert np.abs(exact.holonomies[0].u - gamma.wz_matrix(g.s)).max() == 0.0
    diff = np.abs(numeric.holonomies[0].u - gamma.wz_matrix(g.s)).max()
    assert 1e-8 < diff < 1e-4


def test_start_vector_is_ground_frame_column(gamma, ws_gamma):
    got = ws_gamma.start_vector(0)
    assert np.abs(got - gamma.frames(0.0)[:, 0]).max() < 1e-14
    got1 = ws_gamma.start_vector(1)
    assert np.abs(got1 - gamma.frames(0.0)[:, 1]).max() < 1e-14


def test_exact_uses_model_closed_form(gamma, ws_gamma):
    psi, drift, substeps = ws_gamma.exact(vel(0.05))
    assert drift == 0.0 and substeps == 0
    assert np.abs(psi - gamma.exact_state(ws_gamma.grid.s, vel(0.05))).max() == 0.0


def test_file_route_agrees_with_model_route(gamma, ws_gamma, grid801):
    samples = hamiltonian_samples(gamma.hamiltonian, grid801)
    ws_file = Workspace.build(samples=samples, grid=grid801, order=1)
    v = vel(0.05)
    got = ws_file.series_residuals(v)
    want = ws_gamma.series_residuals(v)[:2]
    # different ground-frame gauges, same physics: residuals line up
    for a, b in zip(got, want):
        assert abs(a - b) < 1e-3
    _, drift, substeps = ws_file.exact(v)
    assert drift < 1e-10 and substeps >= 1


def test_fit_power_law_recovers_exponent():
    x = np.logspace(-3, -1, 6)
    fit = fit_power_law(x, 3.0 * x ** 2.5)
    assert abs(fit.slope - 2.5) < 1e-12
    assert abs(fit.intercept - np.log10(3.0)) < 1e-12
    assert fit.half_width < 1e-10
    assert fit.n_points == 6


def test_fit_power_law_guards():
    x = np.logspace(-2, -1, 5)
    y = x ** 2
    with pytest.raises(InsufficientSweep):
        fit_power_law(x[:3], y[:3])
    with pytest.raises(InsufficientSweep):
        fit_power_law(np.array([1e-2, 1e-2, 5e-2, 1e-1]), y[:4])
    with pytest.raises(InsufficientSweep):
        fit_power_law(x, -y)
    with pytest.raises(InsufficientSweep):
        fit_power_law(x / 10.0 + 0.09, y)
    with pytest.raises(InsufficientSweep):
        fit_power_law(x, y[:4])


def test_sweep_guards(ws_gamma):
    with pytest.raises(InsufficientSweep):
        sweep(ws_gamma, [0.01, 0.02, 0.03])
    with pytest.raises(InsufficientSweep):
        sweep(ws_gamma, [0.01, 0.01, 0.02, 0.1])
    with pytest.raises(InsufficientSweep):
        sweep(ws_gamma, [-0.01, 0.02, 0.05, 0.1])
    with pytest.raises(InsufficientSweep):
        sweep(ws_gamma, [0.02, 0.03, 0.04, 0.05])


def test_sweep_fits_leading_orders(gamma):
    ws = Workspace.build(model=gamma, grid=Grid.uniform(401), order=1)
    vs = np.logspace(np.log10(0.05), np.log10(0.5), 4) / (2.0 * np.pi)
    result = sweep(ws, vs)
    assert len(result.rows) == 4
    assert np.array_equal(result.velocities, np.sort(vs))
    assert abs(result.fits[0].slope - 1.0) < 0.25
    assert abs(result.fits[1].slope - 2.0) < 0.4
    assert np.all(result.column(1) < result.column(0))
    row = result.rows[0]
    assert row.margin_secular > 0.0
    assert row.margin_gap > 0.0
    assert row.holonomy_defect > 0.0


def test_series_residuals_accept_external_reference(gamma, ws_gamma):
    v = vel(0.05)
    exact = gamma.exact_state(ws_gamma.grid.s, v)
    res = ws_gamma.series_residuals(v, exact=exact)
    assert len(res) == 3
    assert res[0] > res[1] > res[2]
