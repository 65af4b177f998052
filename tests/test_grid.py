"""Grid validation plus the quadrature and differentiation kernels."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from dapt import (DimensionMismatch, Grid, GridTooSmall, central_derivative,
                  cumulative_quadrature)

coeff = st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)


def test_uniform_grid_basics():
    g = Grid.uniform(101)
    assert g.n == 101
    assert g.s[0] == 0.0
    assert g.s[-1] == 1.0
    assert abs(g.h - 0.01) < 1e-15


def test_grid_rejects_too_few_nodes():
    with pytest.raises(GridTooSmall):
        Grid.uniform(2)
    with pytest.raises(GridTooSmall):
        Grid(np.array([0.0, 1.0]))


def test_grid_rejects_bad_spans():
    with pytest.raises(DimensionMismatch):
        Grid(np.array([0.0, 0.4, 0.9]))
    with pytest.raises(DimensionMismatch):
        Grid(np.array([0.1, 0.55, 1.0]))
    with pytest.raises(DimensionMismatch):
        Grid(np.array([0.0, 0.7, 1.0]))


@pytest.mark.parametrize("node", [25, -1])
def test_grid_rejects_non_finite_nodes(node):
    # nan fails every comparison, so it would pass the span and spacing
    # checks at an interior or at the last node
    s = np.linspace(0.0, 1.0, 51)
    s[node] = np.nan
    with pytest.raises(DimensionMismatch, match="finite"):
        Grid(s)


def test_quadrature_full_range_matches_composite_simpson():
    # odd node count: the final value is plain composite Simpson
    g = Grid.uniform(201)
    f = np.cos(2 * np.pi * g.s) + g.s ** 3
    out = cumulative_quadrature(f, g)
    assert abs(out[-1] - simpson(f, x=g.s)) < 1e-14


def test_quadrature_fourth_order_at_even_offsets():
    errs = []
    for n in (101, 201):
        g = Grid.uniform(n)
        f = np.cos(2 * np.pi * g.s)
        exact = np.sin(2 * np.pi * g.s) / (2 * np.pi)
        errs.append(np.abs(cumulative_quadrature(f, g) - exact)[::2].max())
    assert errs[0] < 1e-6
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_quadrature_third_order_at_odd_offsets():
    errs = []
    for n in (101, 201):
        g = Grid.uniform(n)
        f = np.cos(2 * np.pi * g.s)
        exact = np.sin(2 * np.pi * g.s) / (2 * np.pi)
        errs.append(np.abs(cumulative_quadrature(f, g) - exact)[1::2].max())
    assert 6.0 < errs[0] / errs[1] < 10.0


def test_quadrature_keeps_trailing_shape():
    g = Grid.uniform(51)
    f = np.stack([g.s, g.s ** 2, np.ones_like(g.s)], axis=1).reshape(51, 3, 1)
    out = cumulative_quadrature(f, g)
    assert out.shape == f.shape
    assert np.allclose(out[-1, :, 0], [0.5, 1.0 / 3.0, 1.0], atol=1e-12)


def test_quadrature_rejects_sample_count_mismatch():
    g = Grid.uniform(11)
    with pytest.raises(DimensionMismatch):
        cumulative_quadrature(np.ones(10), g)
    with pytest.raises(DimensionMismatch):
        central_derivative(np.ones(12), g)


@given(a=coeff, b=coeff, n=st.integers(min_value=3, max_value=60))
@settings(max_examples=60, deadline=None)
def test_quadrature_exact_for_linear_integrands(a, b, n):
    g = Grid.uniform(n)
    f = a + b * g.s
    exact = a * g.s + 0.5 * b * g.s ** 2
    tol = 1e-12 * (1.0 + abs(a) + abs(b))
    assert np.abs(cumulative_quadrature(f, g) - exact).max() <= tol


@given(a=coeff, b=coeff, c=coeff, n=st.integers(min_value=5, max_value=60))
@settings(max_examples=60, deadline=None)
def test_derivative_exact_for_quadratics(a, b, c, n):
    g = Grid.uniform(n)
    f = a + b * g.s + c * g.s ** 2
    exact = b + 2.0 * c * g.s
    tol = 1e-9 * (1.0 + abs(b) + abs(c))
    assert np.abs(central_derivative(f, g) - exact).max() <= tol


def test_derivative_second_order_convergence():
    errs = []
    for n in (101, 201):
        g = Grid.uniform(n)
        err = central_derivative(np.sin(2 * np.pi * g.s), g) \
            - 2 * np.pi * np.cos(2 * np.pi * g.s)
        errs.append(np.abs(err).max())
    assert 3.2 < errs[0] / errs[1] < 4.8


def test_derivative_inverts_quadrature():
    g = Grid.uniform(401)
    f = np.exp(np.sin(2 * np.pi * g.s))
    back = central_derivative(cumulative_quadrature(f, g), g)
    assert np.abs(back - f).max() < 40.0 * g.h ** 2
