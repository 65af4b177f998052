"""End-to-end acceptance checks.

Nine independent criteria, each printing a single PASS/FAIL line with the
governing numbers (run pytest with -s to see the lines on success). Grid
sizes and tolerances are fixed contracts; measured headroom at freeze time
is noted inline.
"""
import numpy as np
import pytest

from dapt import (GAMMA, DynamicalPhase, GammaModel, Grid, SpinHalfModel,
                  Workspace, fit_power_law, propagate, residual, sweep,
                  transport_all, unitary_deviation)
from oracles import (PI, corrected_wz, couplings_via_frame_derivatives,
                     daa_coefficients, daa_state, first_order_coefficients,
                     first_order_state, wz_matrix)

B = 1.0
THETAS = (np.pi / 6, np.pi / 3, np.pi / 2)


def vel(w):
    return w / (2.0 * np.pi)


def check(label, ok, detail):
    print(f"\n[{label}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def transports():
    """Numeric Wilczek-Zee transport per cone angle and grid size."""
    out = {}
    for th in THETAS:
        m = GammaModel(gap=B, cone_angle=th)
        for n in (4001, 8001):
            g = Grid.uniform(n)
            out[(th, n)] = (m, g, transport_all(m.couplings(g)))
    return out


@pytest.fixture(scope="module")
def ws_numeric():
    """Everything rebuilt numerically from the analytic couplings."""
    m = GammaModel(gap=B, cone_angle=np.pi / 3)
    return Workspace.build(model=m, grid=Grid.uniform(4001), order=2,
                           model_holonomy=False)


@pytest.fixture(scope="module")
def ws_closed():
    """Closed-form holonomies so only the order recursion is under test."""
    m = GammaModel(gap=B, cone_angle=np.pi / 3)
    return Workspace.build(model=m, grid=Grid.uniform(8001), order=2)


def test_1_wilczek_zee_transport(transports):
    # measured: 4.9e-7 worst at N=4001, ratios 4.00, pi/2 at roundoff
    errs = {}
    for (th, n), (m, g, hols) in transports.items():
        errs[(th, n)] = max(np.abs(h - wz_matrix(m, g.s)).max()
                            for h in hols)
    worst = max(errs[(th, 4001)] for th in THETAS)
    ratios = [errs[(th, 4001)] / errs[(th, 8001)] for th in THETAS[:2]]
    flat = errs[(np.pi / 2, 8001)]
    ok = worst <= 1e-6 and all(3.2 <= r <= 4.8 for r in ratios) \
        and flat <= 1e-10
    check("1/9 holonomy transport", ok,
          f"max error {worst:.3e} <= 1e-06 at N=4001 over theta in "
          f"{{pi/6, pi/3, pi/2}}; halving h shrinks error by "
          f"{ratios[0]:.2f}x, {ratios[1]:.2f}x (target 4x +-20%); "
          f"equatorial case exact to {flat:.1e}")


def test_2_degenerate_adiabatic_approximation(transports):
    # measured: 4.9e-7 worst (transport-limited)
    v = vel(0.01)
    worst = 0.0
    for th in THETAS:
        m, g, hols = transports[(th, 4001)]
        cs = m.couplings(g)
        phases = DynamicalPhase.from_path(m.spectral_path(g))
        fam = daa_state(cs, hols, phases, v)
        err = np.abs(fam.coefficients[:, 0, :]
                     - daa_coefficients(m, g.s, v)).max()
        worst = max(worst, err)
    check("2/9 adiabatic approximation", worst <= 1e-6,
          f"max coefficient error {worst:.3e} <= 1e-06 at N=4001, w/b=0.01")


def test_3_first_order_correction(ws_numeric):
    # measured: 3.6e-6 both routes, 9.9e-16 cross-route
    m = ws_numeric.model
    g = ws_numeric.grid
    v = vel(0.01)
    closed = first_order_coefficients(m, g.s, v)
    via_recursion = ws_numeric.term(1, v).coefficients[:, 0, :]
    direct = first_order_state(ws_numeric.couplings, ws_numeric.holonomies,
                               ws_numeric.phases, v).coefficients[:, 0, :]
    e_rec = np.abs(via_recursion - closed).max()
    e_dir = np.abs(direct - closed).max()
    e_cross = np.abs(via_recursion - direct).max()
    ok = e_rec <= 1e-5 and e_dir <= 1e-5 and e_cross <= 1e-5
    check("3/9 first-order correction", ok,
          f"recursion route {e_rec:.3e}, integral route {e_dir:.3e} vs "
          f"closed form (<= 1e-05); routes differ by {e_cross:.3e} (<= 1e-05)")


def test_4_reference_propagator():
    # measured: error 1.3e-12, drift 3.6e-13
    m = GammaModel(gap=B, cone_angle=np.pi / 3)
    g = Grid.uniform(2001)
    v = vel(0.05)
    res = propagate(m.hamiltonian, g, m.frames(0.0)[:, 0], v, substeps=8)
    err = residual(res.psi, m.exact_state(g.s, v))
    ok = err <= 1e-8 and res.norm_drift <= 1e-10
    check("4/9 exact propagator", ok,
          f"state error {err:.3e} <= 1e-08 and norm drift "
          f"{res.norm_drift:.3e} <= 1e-10 at w/b=0.05, N=2001")


def test_5_residual_power_laws(ws_closed):
    # measured: slopes 1.004, 1.999, 3.010
    vs = [vel(w) for w in np.logspace(-3, -1, 5)]
    result = sweep(ws_closed, vs)
    slopes = [f.slope for f in result.fits]
    bands = ((0.9, 1.1), (1.8, 2.2), (2.7, 3.3))
    ok = len(vs) >= 5 and all(lo <= s <= hi
                              for s, (lo, hi) in zip(slopes, bands))
    check("5/9 convergence orders", ok,
          f"residual slopes over w/b in [1e-3, 1e-1] ({len(vs)} points): "
          f"order 0 {slopes[0]:.3f} (1.0 +-0.1), order 1 {slopes[1]:.3f} "
          f"(2.0 +-0.2), order 2 {slopes[2]:.3f} (3.0 +-0.3)")


def test_6_structural_invariants(transports, ws_numeric):
    # measured: starts exactly zero, unitarity 1.1e-12, couplings 4.6e-9
    v = vel(0.01)
    start = max(np.abs(ws_numeric.term(p, v).coefficients[0]).max()
                for p in (1, 2))
    unit = max(unitary_deviation(h)
               for (_, _, hols) in transports.values() for h in hols)
    m, g, _ = transports[(np.pi / 3, 4001)]
    fd = couplings_via_frame_derivatives(m.spectral_path(g))
    antisym = max(np.abs(fd.m(n, k)
                         + np.swapaxes(fd.m(k, n), 1, 2).conj()).max()
                  for n in (0, 1) for k in (0, 1))
    diag = max(np.abs(fd.a(n, n) + np.swapaxes(fd.a(n, n), 1, 2).conj()).max()
               for n in (0, 1))
    eye = np.eye(4)
    eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
    clifford = all(
        np.array_equal(GAMMA[i] @ GAMMA[j] + GAMMA[j] @ GAMMA[i],
                       2.0 * (i == j) * eye)
        for i in range(3) for j in range(3)) and all(
        np.array_equal(GAMMA[i] @ GAMMA[j] - GAMMA[j] @ GAMMA[i],
                       2j * PI[k])
        for (i, j), k in eps.items())
    ok = start <= 1e-10 and unit <= 1e-8 and antisym <= 1e-8 \
        and diag <= 1e-8 and clifford
    check("6/9 structural invariants", ok,
          f"corrections start at {start:.1e} (<= 1e-10); transport "
          f"unitarity {unit:.1e} (<= 1e-08); coupling antisymmetry "
          f"{antisym:.1e} and diagonal anti-Hermiticity {diag:.1e} "
          f"(<= 1e-08); Clifford algebra exact: {clifford}")


def test_7_corrected_holonomy(ws_numeric):
    # measured: relative error 4.9e-7, defect slope 2.0000
    m = ws_numeric.model
    g = ws_numeric.grid
    v = vel(0.01)
    corr = ws_numeric.corrected(v)
    target = corrected_wz(m, g.s, v)
    rel = np.abs(corr - target).max() / np.abs(target).max()
    ws = [vel(w) for w in (0.005, 0.01, 0.02, 0.05, 0.1)]
    defects = [unitary_deviation(ws_numeric.corrected(w)) for w in ws]
    fit = fit_power_law(np.array(ws), np.array(defects))
    ok = rel <= 1e-5 and 1.8 <= fit.slope <= 2.2
    check("7/9 corrected holonomy", ok,
          f"relative error {rel:.3e} <= 1e-05 at w/b=0.01; unitarity "
          f"defect scales as v^{fit.slope:.3f} (2.0 +-0.2)")


def test_8_abelian_limit():
    # measured: 8.6e-14
    m = SpinHalfModel(gap=B, cone_angle=np.pi / 3)
    g = Grid.uniform(2001)
    hols = transport_all(m.couplings(g))
    closed = m.holonomies(g)
    err = max(np.abs(hols[n] - closed[n]).max() for n in (0, 1))
    scalar = all(h.shape[1:] == (1, 1) for h in hols)
    ok = err <= 1e-8 and scalar
    check("8/9 abelian limit", ok,
          f"spin-1/2 Berry holonomy error {err:.3e} <= 1e-08 at N=2001; "
          f"simple levels collapse to 1x1 transport: {scalar}")


def test_9_validity_margins(ws_numeric):
    # measured: ratios 2.000000, ok flips between w/b = 0.01 and 10
    v = vel(0.01)
    slow = ws_numeric.margins(v)
    twice = ws_numeric.margins(2 * v)
    ratios = [twice.sup_secular / slow.sup_secular]
    ratios += [twice.sup_gap[n] / slow.sup_gap[n] for n in slow.sup_gap]
    linear = all(abs(r - 2.0) <= 0.1 for r in ratios)
    fast = ws_numeric.margins(vel(10.0))
    ok = linear and slow.adiabatic_ok and not fast.adiabatic_ok
    check("9/9 validity margins", ok,
          f"margins double with velocity to within 5% (ratios "
          f"{', '.join(f'{r:.4f}' for r in ratios)}); adiabatic_ok "
          f"True at w/b=0.01 ({slow.adiabatic_ok}), False at w/b=10 "
          f"({fast.adiabatic_ok})")
