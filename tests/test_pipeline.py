"""Workspace orchestration, power-law fits, velocity sweeps."""
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dapt.engine
import dapt.hamio
import dapt.pipeline
import dapt.spectral
import oracles
from dapt import (ConfigError, Grid, InsufficientSweep, NonHermitianInput,
                  SpectralPath, StateFamily, Workspace, corrected_holonomy,
                  couplings_from_path, fit_power_law, hamiltonian_samples,
                  propagate, read_hamiltonian, residual, snapshot_eigensystem,
                  sweep, unitary_deviation, write_hamiltonian)
from dapt.pipeline import _sweep_point
from dapt.spectral import HermitianSamples, level_slices
from oracles import first_order_state, j_integral


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
    assert np.abs(exact.holonomies[0] - gamma.holonomies(g)[0]).max() == 0.0
    closed = oracles.wz_matrix(gamma, g.s)
    assert np.abs(exact.holonomies[0] - closed).max() < 1e-14
    diff = np.abs(numeric.holonomies[0] - closed).max()
    assert 1e-8 < diff < 1e-4


def test_start_vector_is_ground_frame_column(gamma, ws_gamma):
    got = ws_gamma.start_vector(0)
    assert np.abs(got - gamma.frames(0.0)[:, 0]).max() < 1e-14
    got1 = ws_gamma.start_vector(1)
    assert np.abs(got1 - gamma.frames(0.0)[:, 1]).max() < 1e-14


@pytest.mark.parametrize("label", [0, 1])
def test_exact_uses_model_closed_form(gamma, ws_gamma, label):
    # every ground label is served in closed form, and none propagates
    psi, drift, substeps = ws_gamma.exact(vel(0.05), label=label)
    assert drift == 0.0 and substeps == 0
    want = gamma.exact_state(ws_gamma.grid.s, vel(0.05), label)
    assert np.abs(psi - want).max() == 0.0
    res = propagate(gamma.hamiltonian, ws_gamma.grid,
                    gamma.frames(0.0)[:, label], vel(0.05), substeps=20)
    assert residual(res.psi, psi) < 1e-8


def test_exact_rejects_labels_outside_the_ground_level(gamma, ws_gamma):
    # a model could start in any frame column, a file only in the ground
    # level; both routes take ground labels alone
    g = Grid.uniform(101)
    ws_file = Workspace.build(samples=hamiltonian_samples(gamma.hamiltonian, g),
                              grid=g)
    for ws in (ws_gamma, ws_file):
        for label in (-1, 2):
            with pytest.raises(ConfigError, match="ground label"):
                ws.exact(vel(0.05), label=label)


def test_exact_reads_stored_frames(gamma, spin, ws_gamma, monkeypatch):
    # the closed form takes the workspace's snapshot basis instead of
    # rebuilding the frames at every velocity; the spin-1/2 route still runs
    ws_spin = Workspace.build(model=spin, grid=Grid.uniform(201), order=1)
    want = spin.exact_state(ws_spin.grid.s, vel(0.05))
    calls = []
    for cls in (type(gamma), type(spin)):
        frames = cls.frames
        monkeypatch.setattr(cls, "frames", lambda self, s, f=frames:
                            calls.append(1) or f(self, s))
    ws_gamma.exact(vel(0.05))
    assert np.array_equal(ws_spin.exact(vel(0.05))[0], want)
    assert calls == []


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


def test_readme_quick_start_runs():
    # README's first python block, read from README, runs as documented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    scope = {}
    exec(block, scope)
    assert scope["err"].max() < 1e-5
    assert scope["rep"].adiabatic_ok and set(scope["rep"].sup_gap) == {1}


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_sweep_rejects_non_finite_velocities(ws_gamma, bad):
    with pytest.raises(InsufficientSweep, match="finite"):
        sweep(ws_gamma, [bad, 0.01, 0.02, 0.1])
    with pytest.raises(InsufficientSweep, match="finite"):
        sweep(ws_gamma, [0.01, 0.02, 0.1, bad])


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


def test_series_residuals_match_external_reference(gamma, ws_gamma):
    v = vel(0.05)
    exact = gamma.exact_state(ws_gamma.grid.s, v)
    res = ws_gamma.series_residuals(v)
    assert len(res) == 3
    assert res[0] > res[1] > res[2]
    psi = 0.0
    for p in range(3):
        psi = psi + v ** p * ws_gamma.term(p, v).vectors(ws_gamma.path)[:, 0]
        assert abs(res[p] - residual(psi, exact)) <= 1e-14, p


# The per-point code of a sweep before the velocity-free first-order blocks
# were stored, kept as the reference: the first-order term and its margins
# rebuilt at every velocity, one phase exponential per block, and the
# terms assembled separately for the residuals and the corrected holonomy.

def _reference_assemble(blocks, phases, velocity):
    coeff = np.zeros((blocks.grid.n, blocks.labels, sum(blocks.dims)),
                     dtype=complex)
    for n, sl in enumerate(level_slices(blocks.dims)):
        for m in range(len(blocks.dims)):
            factor = np.exp(-1j * phases.omega[:, m] / velocity)
            coeff[:, :, sl] += factor[:, None, None] * blocks.block(m, n)
    return coeff


def _reference_first_order(cs, holonomies, phases, velocity):
    """psi^(1) of the ground start, each piece phase-weighted as built."""
    dims = tuple(cs.matrices[(n, n)].shape[1] for n in range(cs.n_levels))
    coeff = np.zeros((cs.grid.n, dims[0], sum(dims)), dtype=complex)
    slices = level_slices(dims)

    def factor(n):
        return np.exp(-1j * phases.omega[:, n] / velocity)[:, None, None]

    u_0 = holonomies[0]
    for n in range(1, cs.n_levels):
        u_n = holonomies[n]
        delta_n0 = cs.gap(n, 0)[:, None, None]
        term = 1j * (j_integral(cs, holonomies, 0, n) @ u_0)
        coeff[:, :, slices[0]] += factor(0) * term
        w1_0 = u_0[0] @ cs.recursion(0, n)[0] @ u_n[0].conj().T
        term = -1j * (w1_0 @ u_n) / delta_n0[0]
        coeff[:, :, slices[n]] += factor(n) * term
        term = 1j * (u_0 @ cs.recursion(0, n)) / delta_n0
        coeff[:, :, slices[n]] += factor(0) * term
    return coeff


def _reference_row(ws, velocity):
    if ws.samples is None:
        exact = ws.exact(velocity)[0]
    else:
        exact = propagate(ws.samples, ws.grid, ws.start_vector(0),
                          velocity).psi
    basis = ws.path.basis()
    res, psi = [], 0.0
    for p in range(ws.order + 1):
        coeff = _reference_assemble(ws.blocks[p], ws.phases, velocity)
        psi = psi + velocity ** p * np.einsum("kij,khj->khi", basis,
                                              coeff)[:, 0, :]
        res.append(residual(psi, exact))
    psi1 = _reference_first_order(ws.couplings, ws.holonomies, ws.phases,
                                  velocity)
    secular, *excited = (velocity * np.abs(psi1[:, 0, sl])
                         for sl in level_slices(ws.path.dims))
    families = [StateFamily(order=p, grid=ws.grid, dims=ws.path.dims,
                            coefficients=_reference_assemble(
                                ws.blocks[p], ws.phases, velocity))
                for p in (0, 1)]
    defect = unitary_deviation(corrected_holonomy(*families, ws.phases,
                                                  velocity))
    return (*res, float(secular.max()),
            max(float(e.max()) for e in excited), defect)


@pytest.fixture(scope="module")
def sweep_workspaces(gamma, spin, ragged):
    g = Grid.uniform(401)
    return {"gamma": Workspace.build(model=gamma, grid=Grid.uniform(2001),
                                     order=2),
            "spin": Workspace.build(model=spin, grid=g, order=2),
            "ragged": Workspace.build(samples=ragged(g), grid=g, order=2),
            "file": Workspace.build(samples=hamiltonian_samples(
                gamma.hamiltonian, g), grid=g, order=2)}


@pytest.mark.parametrize("route", ["gamma", "spin", "file", "ragged",
                                   "file-16001"])
def test_snapshot_basis_is_unitary(sweep_workspaces, gamma, route):
    # the identity the residuals rest on: a distance of snapshot
    # coefficients is the distance of the states they stand for. The
    # gauge-fixed frames of a file route are the raw frames times an
    # ordered product of n - 1 polar factors, so the long grid shows
    # whether that product keeps its unitarity
    if route == "file-16001":
        g = Grid.uniform(16001)
        b = Workspace.build(samples=hamiltonian_samples(gamma.hamiltonian, g),
                            grid=g, order=0).path.basis()
    else:
        b = sweep_workspaces[route].path.basis()
    overlap = np.swapaxes(b, 1, 2).conj() @ b
    assert np.abs(overlap - np.eye(b.shape[1])).max() <= 1e-14


@pytest.mark.parametrize("route", ["gamma", "spin", "file", "ragged"])
def test_series_residuals_equal_state_distance(sweep_workspaces, route):
    # residuals taken in snapshot coefficients against the reference in
    # coefficients equal the distances of the partial-sum states from the
    # reference states
    ws = sweep_workspaces[route]
    for v in (0.005, 0.01, 0.02, 0.05):
        got = ws.series_residuals(v)
        exact = ws.exact(v)[0]
        psi = 0.0
        for p in range(ws.order + 1):
            psi = psi + v ** p * ws.term(p, v).vectors(ws.path)[:, 0]
            assert abs(got[p] - residual(psi, exact)) <= 1e-14, (v, p)


def test_model_sweep_point_forms_no_states(sweep_workspaces, monkeypatch):
    # on the model route a sweep point takes its reference straight from
    # the model's coefficients: the workspace forms and projects no state
    def fail(*args, **kwargs):
        raise AssertionError("a state was formed")
    for name in ("exact", "start_vector"):
        monkeypatch.setattr(Workspace, name, fail)
    monkeypatch.setattr(StateFamily, "vectors", fail)
    monkeypatch.setattr(dapt.pipeline, "_project", fail)
    for route in ("gamma", "spin"):
        ws = sweep_workspaces[route]
        row = _sweep_point(ws, 0.01, 0.1)
        assert len(row.residuals) == ws.order + 1


@pytest.mark.parametrize("route", ["file", "ragged"])
def test_project_matches_conjugated_basis(sweep_workspaces, route):
    # the projection conjugates the states, not a copy of the basis, with
    # the same values bit for bit
    ws = sweep_workspaces[route]
    psi = ws.exact(0.01)[0]
    want = np.einsum("kji,kj->ki", ws.path.basis().conj(), psi)
    assert np.array_equal(dapt.pipeline._project(ws.path, psi), want)


@pytest.mark.parametrize("route", ["gamma", "spin", "file", "ragged"])
def test_sweep_rows_match_per_point_reference(sweep_workspaces, route):
    ws = sweep_workspaces[route]
    vs = [0.005, 0.01, 0.02, 0.05]
    rows = sweep(ws, vs).rows
    # the residuals are taken in snapshot coefficients, the reference's in
    # states: they may differ by roundoff beside their relative bound
    floor = [1e-14] * (ws.order + 1) + [0.0] * 3
    for row, v in zip(rows, vs):
        got = (*row.residuals, row.margin_secular, row.margin_gap,
               row.holonomy_defect)
        want = _reference_row(ws, v)
        assert np.all(np.abs(np.subtract(got, want))
                      <= 1e-12 * np.abs(want) + floor), (v, got, want)
    # pooled and serial evaluation give the same rows
    assert rows == [_sweep_point(ws, v, 0.1) for v in vs]
    if ws.samples is not None:
        # the workspace's substep count is the propagator's own
        for v in vs:
            auto = propagate(ws.samples, ws.grid, ws.start_vector(0), v)
            assert ws.exact(v)[2] == auto.substeps


def _node_contiguous_view(view, owner, n_nodes):
    """view has node-first shape over memory of owner, whose last axis is
    the node index and is contiguous."""
    item = view.itemsize
    return (view.shape[0] == n_nodes and view.strides[0] == item
            and owner.shape[-1] == n_nodes and owner.strides[-1] == item
            and np.shares_memory(view, owner))


@pytest.mark.parametrize("route", ["gamma", "spin", "ragged"])
def test_blocks_and_families_are_node_contiguous(sweep_workspaces, route):
    # each order's blocks are one array with the node index fastest; the
    # blocks and the assembled families are views of such memory and equal
    # the node-first reference assembly
    ws = sweep_workspaces[route]
    n_nodes, levels = ws.grid.n, range(ws.path.n_levels)
    v = 0.01
    assert _node_contiguous_view(ws.phases.omega, ws.phases.omega.T, n_nodes)
    families = ws.terms(v)
    assert len(families) == ws.order + 1
    for blocks, fam in zip(ws.blocks, families):
        for m in levels:
            for n in levels:
                b = blocks.block(m, n)
                assert b.shape == (n_nodes, ws.path.dims[0],
                                   ws.path.dims[n])
                if m < len(blocks.data):
                    assert _node_contiguous_view(b, blocks.data, n_nodes)
                else:       # an unstored source level (order 0) vanishes
                    assert (m, n) in blocks.zero and not b.any()
        c = fam.coefficients
        labels = blocks.labels if blocks.order < 2 else 1
        assert c.shape == (n_nodes, labels, ws.path.dim)
        assert _node_contiguous_view(c, c.base, n_nodes)
        want = _reference_assemble(blocks, ws.phases, v)[:, :labels]
        assert np.abs(c - want).max() <= 1e-15 * np.abs(want).max()
    corr = ws.corrected(v, terms=families)
    assert _node_contiguous_view(corr, corr.base, n_nodes)


@pytest.mark.parametrize("route", ["gamma", "ragged"])
def test_sweep_margins_read_the_assembled_first_order(sweep_workspaces,
                                                      route):
    # a sweep point reads the margins off its all-label order-1 family, whose
    # row 0 is the row-0 assembly element for element
    ws = sweep_workspaces[route]
    vs = [0.005, 0.01, 0.02, 0.05]
    for row, v in zip(sweep(ws, vs).rows, vs):
        alone = ws.margins(v)
        shared = ws.margins(v, terms=[ws.term(p, v) for p in (0, 1)])
        assert np.array_equal(
            [row.margin_secular, row.margin_gap],
            [alone.sup_secular, max(alone.sup_gap.values())])
        assert np.array_equal(shared.secular, alone.secular)
        assert shared.gap.keys() == alone.gap.keys()
        for n in alone.gap:
            assert np.array_equal(shared.gap[n], alone.gap[n])


def test_velocity_points_run_no_quadrature(sweep_workspaces, monkeypatch):
    # after build, a velocity point pays for phase factors and sums only
    calls = {"j_integral": 0, "cumulative_quadrature": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module, name in [(oracles, "j_integral"),
                         (oracles, "cumulative_quadrature"),
                         (dapt.engine, "cumulative_quadrature")]:
        monkeypatch.setattr(module, name, counted(module, name))
    for route in ("gamma", "ragged"):
        ws = sweep_workspaces[route]
        for v in (0.005, 0.01, 0.05):
            ws.margins(v)
        sweep(ws, [0.005, 0.01, 0.02, 0.05])
    assert calls == {"j_integral": 0, "cumulative_quadrature": 0}
    # the counters do see the quadratures of a per-velocity rebuild
    first_order_state(ws.couplings, ws.holonomies, ws.phases, 0.01)
    assert calls["j_integral"] > 0 and calls["cumulative_quadrature"] > 0


@pytest.fixture(scope="module")
def ragged_ws(ragged):
    g = Grid.uniform(201)
    samples = ragged(g)
    return samples, Workspace.build(samples=samples, grid=g, order=2)


def _label_rotation(ws, frame0):
    """In-level rotation Q of ws's s = 0 ground frame: frame0 @ Q. Label h
    starts on column h of that frame, so it fixes how labels recombine."""
    return frame0.conj().T @ ws.path.blocks[0][0]


# The validity margins are left out of both properties: they are taken for
# the label-0 start alone, and which ground vector is label 0 is the
# eigensolver's gauge choice, which a shift or a change of basis moves (at
# w = 0.05 a shift of 2.5 moves sup_secular from 6.55e-3 to 6.81e-3).

@given(c=st.floats(min_value=-3.0, max_value=3.0),
       w=st.floats(min_value=0.05, max_value=0.5))
@settings(max_examples=10, deadline=None)
def test_energy_shift_is_a_global_phase(ragged_ws, c, w):
    # H -> H + cI multiplies every series state by exp(-i c s / v)
    samples, ws = ragged_ws
    shifted = Workspace.build(samples=samples + c * np.eye(samples.shape[1]),
                              grid=ws.grid, order=2)
    v = vel(w)
    q = _label_rotation(shifted, ws.path.blocks[0][0])
    psi = np.einsum("khi,hj->kji", ws.series(v).vectors(ws.path), q)
    want = np.exp(-1j * c * ws.grid.s / v)[:, None, None] * psi
    got = shifted.series(v).vectors(shifted.path)
    assert np.abs(got - want).max() < 1e-10


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       w=st.floats(min_value=0.05, max_value=0.5))
@settings(max_examples=10, deadline=None)
def test_change_of_basis_maps_states(ragged_ws, seed, w):
    # H -> V H V^dagger maps every series state psi to V psi
    samples, ws = ragged_ws
    rng = np.random.default_rng(seed)
    d = samples.shape[1]
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    rotated = Workspace.build(samples=u @ samples @ u.conj().T, grid=ws.grid,
                              order=2)
    v = vel(w)
    q = _label_rotation(rotated, u @ ws.path.blocks[0][0])
    psi = np.einsum("khi,hj->kji", ws.series(v).vectors(ws.path), q)
    want = np.einsum("ij,khj->khi", u, psi)
    got = rotated.series(v).vectors(rotated.path)
    assert np.abs(got - want).max() < 1e-10


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       w=st.floats(min_value=0.05, max_value=0.5))
@settings(max_examples=10, deadline=None)
def test_in_level_rotation_per_node_leaves_states(ragged_ws, seed, w):
    # the eigensolver's frames, rotated inside each level by a different
    # unitary at every node before gauge fixing, give the same series
    # states: gauge fixing turns the rotations into one constant rotation
    # per level, which only the s = 0 ground frame's labels see
    samples, ws = ragged_ws
    rng = np.random.default_rng(seed)
    raw = snapshot_eigensystem(samples, ws.grid)
    blocks = []
    for b in raw.blocks:
        shape = (ws.grid.n, b.shape[2], b.shape[2])
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        blocks.append(b @ np.linalg.qr(x)[0])
    scrambled = SpectralPath(grid=raw.grid, energies=raw.energies,
                             blocks=tuple(blocks))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dapt.pipeline, "snapshot_eigensystem",
                   lambda *args, **kwargs: scrambled)
        rotated = Workspace.build(samples=samples, grid=ws.grid, order=2)
    assert not np.allclose(rotated.path.blocks[0][0], ws.path.blocks[0][0])
    v = vel(w)
    q = _label_rotation(rotated, ws.path.blocks[0][0])
    want = np.einsum("khi,hj->kji", ws.series(v).vectors(ws.path), q)
    got = rotated.series(v).vectors(rotated.path)
    assert np.abs(got - want).max() < 1e-10


def _file_samples(tmp_path, name, samples, grid):
    """The samples as the file route sees them: written and read back."""
    path = tmp_path / name
    write_hamiltonian(path, samples, grid)
    return read_hamiltonian(path)


@pytest.mark.parametrize("route", ["gamma", "ragged"])
def test_file_route_runs_one_eigh_and_no_svd(gamma, ragged, route,
                                             tmp_path, monkeypatch):
    # gauge fixing takes near-unitary overlaps by series, and transport
    # and the Magnus steps exponentiate by Taylor polynomial, so the
    # snapshot eigensystem is the only eigensolver left in a build and
    # its reference propagations, and no SVD runs
    g = Grid.uniform(401)
    samples = (hamiltonian_samples(gamma.hamiltonian, g) if route == "gamma"
               else ragged(g))
    grid, samples = _file_samples(tmp_path, "h.txt", samples, g)
    calls = {"eigh": [], "svd": []}
    for name in calls:
        raw = getattr(np.linalg, name)

        def counted(*args, _raw=raw, _name=name, **kwargs):
            calls[_name].append(sys._getframe(1).f_code.co_name)
            return _raw(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    ws = Workspace.build(samples=samples, grid=grid, order=2)
    for v in (0.01, 0.05):
        ws.exact(v)
    assert calls == {"eigh": ["snapshot_eigensystem"], "svd": []}


def test_workspace_checks_its_samples_once(ragged, tmp_path, monkeypatch):
    g = Grid.uniform(201)
    checks = []
    raw = dapt.spectral.hermitian_part
    monkeypatch.setattr(dapt.spectral, "hermitian_part",
                        lambda x: checks.append(1) or raw(x))
    grid, samples = _file_samples(tmp_path, "h.txt", ragged(g), g)
    assert len(checks) == 1
    ws = Workspace.build(samples=samples, grid=grid, order=2)
    ws.exact(0.05)
    propagate(ws.samples, ws.grid, ws.start_vector(0), 0.05, substeps=1)
    assert len(checks) == 1
    # the workspace holds the reader's read-only stack, not a copy
    assert ws.samples.values is samples.values
    assert not ws.samples.values.flags.writeable
    # raw samples are still checked by every public entry point
    bad = samples.values.copy()
    bad[7, 0, 1] += 1e-6
    for call in (lambda: HermitianSamples(bad, grid),
                 lambda: snapshot_eigensystem(bad, grid),
                 lambda: couplings_from_path(ws.path, bad),
                 lambda: propagate(bad, grid, ws.start_vector(0), 0.05)):
        with pytest.raises(NonHermitianInput):
            call()
