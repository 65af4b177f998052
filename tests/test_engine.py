"""Series engine: phases, blocks, order recursion, margins."""
import numpy as np
import pytest
from scipy.linalg import expm

from dapt import (DynamicalPhase, Grid, Workspace, advance_order,
                  series_state, smooth_gauge, snapshot_eigensystem,
                  transport_all, validity_margins, zero_order_blocks)
from dapt.spectral import level_slices
from oracles import (couplings_via_frame_derivatives, daa_coefficients,
                     daa_state, first_order_coefficients, first_order_state,
                     j_integral)


def vel(w):
    return w / (2.0 * np.pi)


def test_dynamical_phase_linear_for_constant_energies(gamma, grid801):
    ph = DynamicalPhase.from_path(gamma.spectral_path(grid801))
    assert np.abs(ph.omega[:, 0] + 0.5 * grid801.s).max() < 1e-14
    assert np.abs(ph.omega[:, 1] - 0.5 * grid801.s).max() < 1e-14
    v = vel(0.05)
    want = np.exp(1j * 0.5 * grid801.s / v)
    assert np.abs(ph.factors(v)[:, 0] - want).max() < 1e-12


def test_zero_order_blocks_structure(gamma, grid801):
    cs = gamma.couplings(grid801)
    hols = gamma.holonomies(grid801)
    blocks = zero_order_blocks(cs, hols)
    assert blocks.order == 0
    assert blocks.dims == (2, 2)
    assert blocks.labels == 2
    assert np.array_equal(blocks.block(0, 0), hols[0])
    assert np.abs(blocks.block(1, 1)).max() == 0.0
    assert np.abs(blocks.block(0, 1)).max() == 0.0


def test_daa_matches_closed_form_with_exact_holonomy(gamma, grid801):
    cs = gamma.couplings(grid801)
    hols = gamma.holonomies(grid801)
    ph = DynamicalPhase.from_path(gamma.spectral_path(grid801))
    v = vel(0.01)
    fam = daa_state(cs, hols, ph, v)
    assert np.abs(fam.coefficients[:, 0, :]
                  - daa_coefficients(gamma, grid801.s, v)).max() < 1e-10


def test_j_integral_closed_form(gamma, grid801):
    # for this protocol U R R U^dagger / Delta is a constant multiple of
    # the identity, so the running integral is exactly linear in s
    cs = gamma.couplings(grid801)
    hols = gamma.holonomies(grid801)
    j = j_integral(cs, hols, 0, 1)
    scale = np.pi ** 2 * np.sin(gamma.cone_angle) ** 2 / gamma.gap
    want = scale * grid801.s[:, None, None] * np.eye(2)
    assert np.abs(j - want).max() < 1e-12


def test_first_order_routes_agree(ws_gamma):
    # both routes integrate against the same transported holonomy
    v = vel(0.01)
    via_recursion = ws_gamma.term(1, v).coefficients
    direct = first_order_state(ws_gamma.couplings, ws_gamma.holonomies,
                               ws_gamma.phases, v).coefficients
    assert np.abs(via_recursion - direct).max() < 1e-12


@pytest.mark.parametrize("n", [801, 2001])
def test_recursion_reads_closed_form_holonomy(gamma, n):
    # the diagonal blocks are quadratures against the workspace's own
    # holonomies, so on the closed-form route order 1 carries no transport
    # error and agrees with the closed-form first-order blocks to roundoff
    ws = Workspace.build(model=gamma, grid=Grid.uniform(n), order=1)
    v = vel(0.01)
    direct = first_order_state(ws.couplings, ws.holonomies, ws.phases,
                               v).coefficients
    assert np.abs(ws.term(1, v).coefficients - direct).max() < 1e-10


def _midpoint_advance(blocks, cs):
    """The recurrence the quadrature replaced, as a plain node loop:
    advance_order's algebraic off-diagonal blocks, and each diagonal block
    stepped as x[k+1] = x[k] E_k - h G_mid,k E_k^(1/2), with
    E_k = expm(h A_mid,k) and G_mid,k the average of adjacent sources."""
    # advance_order supplies the off-diagonal blocks; its diagonal ones
    # are overwritten below, through the block views
    new = advance_order(blocks, cs, transport_all(cs))
    h = cs.grid.h
    levels = range(cs.n_levels)
    for n in levels:
        a = cs.a(n, n)
        mids = 0.5 * (a[:-1] + a[1:])
        full, half = expm(h * mids), expm(0.5 * h * mids)
        g = sum(new.block(n, k) @ cs.recursion(k, n)
                for k in levels if k != n)
        x = np.empty_like(new.block(n, n))
        x[0] = -sum(new.block(m, n)[0] for m in levels if m != n)
        for k in range(cs.grid.n - 1):
            x[k + 1] = x[k] @ full[k] - h * 0.5 * (g[k] + g[k + 1]) @ half[k]
        new.block(n, n)[...] = x
    return new


def _diagonal_gap(ws):
    """Relative sup difference of the diagonal blocks of orders 1 and 2
    between ws and the midpoint recurrence run from ws's order-0 blocks."""
    out = []
    ref = ws.blocks[0]
    for p in (1, 2):
        ref = _midpoint_advance(ref, ws.couplings)
        diag = [(ws.blocks[p].block(n, n), ref.block(n, n))
                for n in range(ws.path.n_levels)]
        scale = max(np.abs(b).max() for _, b in diag)
        out.append(max(np.abs(a - b).max() for a, b in diag) / scale)
    return np.array(out)


@pytest.fixture(scope="module")
def midpoint_gaps(gamma, ragged):
    out = {}
    for n in (401, 801):
        g = Grid.uniform(n)
        out[("gamma", n)] = _diagonal_gap(Workspace.build(
            model=gamma, grid=g, order=2, model_holonomy=False))
        out[("ragged", n)] = _diagonal_gap(Workspace.build(
            samples=ragged(g), grid=g, order=2))
    return out


@pytest.mark.parametrize("route", ["gamma", "ragged"])
def test_diagonal_blocks_match_midpoint_recurrence(midpoint_gaps, route):
    # both are second-order rules for the same transport-plus-source
    # equation on the same transported holonomy, so orders 1 and 2 agree
    # to O(h^2)
    coarse, fine = midpoint_gaps[(route, 401)], midpoint_gaps[(route, 801)]
    assert (fine <= 1e-5).all()
    assert (coarse / fine >= 3.0).all()


def test_first_order_matches_closed_form(gamma, ws_gamma):
    v = vel(0.01)
    got = ws_gamma.term(1, v).coefficients[:, 0, :]
    want = first_order_coefficients(gamma, ws_gamma.grid.s, v)
    assert np.abs(got - want).max() < 1e-4


def test_corrections_vanish_at_start(ws_gamma):
    for p in (1, 2):
        assert np.abs(ws_gamma.term(p, vel(0.05)).coefficients[0]).max() < 1e-10


def test_series_state_is_velocity_weighted_sum(ws_gamma):
    v = vel(0.07)
    total = series_state(ws_gamma.blocks, ws_gamma.phases, v, order=2)
    build = sum(v ** p * ws_gamma.term(p, v).coefficients for p in range(3))
    assert np.abs(total.coefficients - build).max() < 1e-14
    assert total.labels == 2
    assert total.dims == (2, 2)


def test_series_residual_shrinks_with_order(gamma, ws_gamma):
    v = vel(0.05)
    exact = gamma.exact_coefficients(ws_gamma.grid.s, v)
    errs = []
    for order in (0, 1, 2):
        fam = ws_gamma.series(v, order=order)
        diff = fam.coefficients[:, 0, :] - exact
        errs.append(np.linalg.norm(diff, axis=-1).max())
    assert errs[0] > 10.0 * errs[1]
    assert errs[1] > 3.0 * errs[2]


def test_vectors_requires_matching_path(gamma, spin, ws_gamma):
    fam = ws_gamma.series(vel(0.05))
    from dapt import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        fam.vectors(spin.spectral_path(Grid.uniform(801)))
    vecs = fam.vectors(gamma.spectral_path(ws_gamma.grid))
    norms = np.linalg.norm(fam.coefficients, axis=2)
    assert np.abs(np.linalg.norm(vecs, axis=2) - norms).max() < 1e-12


def test_margins_scale_linearly_and_gate(ws_gamma):
    v = vel(0.01)
    slow = ws_gamma.margins(v)
    twice = ws_gamma.margins(2 * v)
    assert abs(twice.sup_secular / slow.sup_secular - 2.0) < 1e-6
    for n in slow.sup_gap:
        assert abs(twice.sup_gap[n] / slow.sup_gap[n] - 2.0) < 1e-6
    assert slow.adiabatic_ok
    assert slow.final_secular <= slow.sup_secular
    fast = ws_gamma.margins(vel(10.0))
    assert not fast.adiabatic_ok


def test_margins_with_single_level():
    g = Grid.uniform(11)
    samples = np.zeros((11, 2, 2), dtype=complex)
    path = smooth_gauge(snapshot_eigensystem(samples, g))
    assert path.dims == (2,)
    cs = couplings_via_frame_derivatives(path)
    hols = transport_all(cs)
    ph = DynamicalPhase.from_path(path)
    v = vel(0.05)
    rep = validity_margins(first_order_state(cs, hols, ph, v), v)
    assert rep.adiabatic_ok
    assert rep.sup_secular == 0.0
    assert rep.sup_gap == {}


def test_spin_model_scalar_blocks(spin):
    g = Grid.uniform(201)
    cs = spin.couplings(g)
    hols = spin.holonomies(g)
    blocks = zero_order_blocks(cs, hols)
    assert blocks.dims == (1, 1)
    assert blocks.labels == 1
    ph = DynamicalPhase.from_path(spin.spectral_path(g))
    fam = daa_state(cs, hols, ph, vel(0.05))
    assert fam.coefficients.shape == (201, 1, 2)


@pytest.fixture(scope="module")
def margin_workspaces(ws_gamma, spin, ragged):
    g = Grid.uniform(401)
    return {"gamma": ws_gamma,
            "spin": Workspace.build(model=spin, grid=g, order=0),
            "ragged": Workspace.build(samples=ragged(g), grid=g, order=0)}


@pytest.mark.parametrize("route", ["gamma", "spin", "ragged"])
@pytest.mark.parametrize("w", [0.05, 0.5])
def test_margins_are_first_order_term(margin_workspaces, route, w):
    # the margins are v |psi^(1)| of the label-0 ground start, by level
    ws = margin_workspaces[route]
    v = vel(w)
    rep = ws.margins(v)
    psi1 = first_order_state(ws.couplings, ws.holonomies, ws.phases, v)
    want = [v * np.abs(psi1.coefficients[:, 0, sl])
            for sl in level_slices(ws.path.dims)]
    got = [rep.secular] + [rep.gap[n] for n in range(1, ws.path.n_levels)]
    assert sorted(rep.gap) == list(range(1, ws.path.n_levels))
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
