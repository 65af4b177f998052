"""Property tests for the unitary-transport linear algebra helpers."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from dapt import (NonHermitianInput, NotAntiHermitian, unitary_deviation,
                  unitary_expm)
from dapt.linalg import (SMALL_INNER, TAYLOR, hermitian_part, ordered_product,
                         row_expm, row_matmul, small_expm, stack_matmul)

entry = st.floats(min_value=-1.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False)


@st.composite
def anti_hermitian(draw, dmin=1, dmax=4):
    d = draw(st.integers(min_value=dmin, max_value=dmax))
    x = draw(hnp.arrays(float, (d, d), elements=entry))
    y = draw(hnp.arrays(float, (d, d), elements=entry))
    a = x + 1j * y
    return a - a.conj().T


@given(a=anti_hermitian(), dt=st.floats(min_value=-2.0, max_value=2.0,
                                        allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_expm_unitary_and_matches_scipy(a, dt):
    u = unitary_expm(a, dt=dt)
    assert unitary_deviation(u) < 1e-12
    assert np.abs(u - expm(dt * a)).max() < 1e-10


@given(a=anti_hermitian())
@settings(max_examples=50, deadline=None)
def test_expm_inverse_is_adjoint(a):
    u = unitary_expm(a, dt=0.8)
    w = unitary_expm(a, dt=-0.8)
    assert np.abs(u @ w - np.eye(a.shape[0])).max() < 1e-12


def test_expm_batched_matches_per_slice():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    a = x - np.swapaxes(x, 1, 2).conj()
    batch = unitary_expm(a, dt=0.3)
    for k in range(5):
        assert np.abs(batch[k] - unitary_expm(a[k], dt=0.3)).max() < 1e-13


def test_expm_projects_discretization_noise():
    # a generator with a tiny Hermitian component is treated as noisy input
    a = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    noisy = a + 1e-8 * np.eye(2)
    clean = unitary_expm(a, dt=0.5)
    assert np.abs(unitary_expm(noisy, dt=0.5) - clean).max() < 1e-12
    assert unitary_deviation(unitary_expm(noisy, dt=0.5)) < 1e-14


def test_expm_rejects_gross_hermitian_part():
    with pytest.raises(NotAntiHermitian):
        unitary_expm(np.eye(3, dtype=complex))


def test_hermitian_part():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    h = x + np.swapaxes(x, 1, 2).conj()
    assert np.array_equal(hermitian_part(h), h)
    noisy = h.copy()
    noisy[2, 0, 1] += 5e-11
    sym = hermitian_part(noisy)
    assert np.array_equal(sym, np.swapaxes(sym, 1, 2).conj())
    assert np.abs(sym - h).max() < 3e-11
    with pytest.raises(NonHermitianInput):
        hermitian_part(h + 1e-6 * 1j * np.eye(4))
    # the tolerance is 1e-10 * max|H|, floored at 1e-10
    small = 1e-3 * h
    small[2, 0, 1] += 5e-11
    hermitian_part(small)
    small[2, 0, 1] += 2e-10
    with pytest.raises(NonHermitianInput):
        hermitian_part(small)
    big = 1e4 * h
    big[2, 0, 1] += 1e-7
    hermitian_part(big)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf,
                                   complex(0.0, np.inf), complex(0.0, np.nan)])
def test_hermitian_part_rejects_non_finite_entries(entry):
    # nan > tol is False, so without its own check a nan entry would pass
    h = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
    h[1, 0, 1] = entry
    with pytest.raises(NonHermitianInput, match="non-finite"):
        hermitian_part(h)


def test_unitary_predicates():
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4))
                        + 1j * np.random.default_rng(6).normal(size=(4, 4)))
    assert unitary_deviation(q) < 1e-13
    assert unitary_deviation(1.01 * q) > 1e-3


def test_ordered_product_multiplies_on_the_right():
    rng = np.random.default_rng(11)
    f = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    start = rng.normal(size=(1, 2))
    x = ordered_product(f, start)
    assert np.abs(x[-1] - start @ f[0] @ f[1] @ f[2]).max() < 1e-13


def _ordered_product_loop(factors, start):
    """The node-by-node recurrence, kept as the reference for the blocked
    scan."""
    x = np.empty((factors.shape[0] + 1,) + start.shape,
                 dtype=np.result_type(factors, start))
    x[0] = start
    for k, f in enumerate(factors):
        x[k + 1] = x[k] @ f
    return x


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 10, 97, 2000, 16000])
def test_ordered_product_matches_loop(m):
    # perfect squares, squares +- 1, a prime and the bench size; the scan
    # reorders the products, so agreement is to roundoff, set from the
    # dtype before measuring
    rng = np.random.default_rng(m)
    d = 3
    unitary, _ = np.linalg.qr(_complex(rng, m, d, d))
    cases = [
        (unitary, _complex(rng, 2, d)),                        # r < d
        (unitary, np.eye(d, dtype=complex)),
        # real factors, complex start: the dtype follows np.result_type.
        # Orthogonal, because a product of m Gaussian matrices shrinks to
        # about 1e-167 by m = 2000 and its reassociation error then grows
        # with their conditioning, not with the scan
        (np.linalg.qr(rng.normal(size=(m, d, d)))[0], _complex(rng, 1, d)),
        # non-unitary factors
        ((1.0 + 1e-4) * unitary, rng.normal(size=(d, d))),
        # read-only broadcast inputs
        (np.broadcast_to(unitary[0], (m, d, d)),
         np.broadcast_to(_complex(rng, d), (2, d))),
    ]
    for factors, start in cases:
        inputs = [factors, start]
        before = [a.copy() for a in inputs]
        want = _ordered_product_loop(factors, start)
        got = ordered_product(factors, start)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.dtype == np.result_type(factors, start)
        assert np.array_equal(got[0], start)
        scale = np.abs(want).max(axis=(1, 2))
        assert (np.abs(got - want).max(axis=(1, 2)) <= 1e-12 * scale).all()
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)


def _operand_pairs(rng, inner):
    """(a, b) stacks with inner dimension ``inner``: rows and columns 1-4,
    complex, mixed real and complex, real, a transposed (swapaxes) view as
    CouplingSet.recursion returns it, and a broadcast single left
    matrix."""
    for rows in range(1, 5):
        for cols in range(1, 5):
            yield _complex(rng, 7, rows, inner), _complex(rng, 7, inner, cols)
            yield rng.normal(size=(7, rows, inner)), \
                _complex(rng, 7, inner, cols)
            yield _complex(rng, 7, rows, inner), \
                rng.normal(size=(7, inner, cols))
            yield rng.normal(size=(7, rows, inner)), \
                rng.normal(size=(7, inner, cols))
            yield _complex(rng, 7, rows, inner), \
                np.swapaxes(_complex(rng, 7, cols, inner), 1, 2)
            yield _complex(rng, rows, inner), _complex(rng, 7, inner, cols)


@pytest.mark.parametrize("inner", range(1, SMALL_INNER + 1))
def test_stack_matmul_small_inner_matches_matmul(inner):
    rng = np.random.default_rng(inner)
    for a, b in _operand_pairs(rng, inner):
        want = a @ b
        got = stack_matmul(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        # roundoff relative to the size of the summed terms
        scale = np.abs(a) @ np.abs(b)
        assert (np.abs(got - want) <= 1e-14 * scale).all()
        if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
            assert np.array_equal(got, want)    # real products keep @


@pytest.mark.parametrize("inner", [SMALL_INNER + 1, 5, 7, 16])
def test_stack_matmul_large_inner_is_matmul(inner):
    # ragged levels of 4, 5 and 7 keep every product bit for bit
    rng = np.random.default_rng(inner)
    for a, b in _operand_pairs(rng, inner):
        assert np.array_equal(stack_matmul(a, b), a @ b)


@pytest.mark.parametrize("a_shape,b_shape", [
    ((5, 2, 3), (5, 2, 2)),        # inner dimensions differ, small
    ((5, 2, 2), (5, 3, 2)),
    ((5, 6, 5), (5, 4, 6)),        # inner dimensions differ, large
    ((5, 2, 2), (4, 2, 2)),        # leading axes do not broadcast
])
def test_stack_matmul_mismatch_raises_like_matmul(a_shape, b_shape):
    rng = np.random.default_rng(2)
    a, b = _complex(rng, *a_shape), _complex(rng, *b_shape)
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        stack_matmul(a, b)


@pytest.mark.parametrize("d", range(1, 7))
def test_row_matmul_matches_matmul(d):
    # node-fastest stacks (rows, inner, m) and (inner, cols, m) against @
    # on the same stacks held node-first; the left operand also through a
    # swapaxes view, as the propagator passes its transposed generators
    rng = np.random.default_rng(40 + d)
    for rows, cols in ((d, d), (1, d), (d, 2)):
        a = _complex(rng, 9, rows, d)
        b = _complex(rng, 9, d, cols)
        fast = np.moveaxis(a, 0, -1)
        swapped = np.swapaxes(np.swapaxes(fast, 0, 1).copy(), 0, 1)
        for left in (fast, swapped):
            got = np.moveaxis(row_matmul(left, np.moveaxis(b, 0, -1)), -1, 0)
            scale = np.abs(a) @ np.abs(b)
            assert got.shape == (9, rows, cols)
            assert (np.abs(got - a @ b) <= 1e-14 * scale).all()


def _scaled(rng, d, norm, anti=False):
    """A random complex d x d matrix of 1-norm ``norm`` (anti-Hermitian
    when ``anti``)."""
    x = _complex(rng, d, d)
    if anti:
        x = x - x.conj().T
    return x * (norm / np.abs(x).sum(axis=0).max())


# both sides of every degree's radius, the top degree's, and the squaring
# path beyond it
EXPM_NORMS = [1e-12, *(f * theta for _, theta in TAYLOR for f in (0.99, 1.01)),
              1.0, 5.0, 50.0]


@pytest.mark.parametrize("norm", EXPM_NORMS)
def test_small_expm_matches_scipy(norm):
    # node-first (small_expm) and node-fastest (row_expm, a one-matrix
    # (d, d, 1) stack) layouts
    rng = np.random.default_rng(int(1e6 * norm) % 2**32)
    for d in (1, 2, 3, 4, 5, 6, 7, 16):
        for anti in (False, True):
            x = _scaled(rng, d, norm, anti)
            want = expm(x)
            for got in (small_expm(x), row_expm(x[:, :, None])[:, :, 0]):
                assert np.abs(got - want).max() <= 1e-13 * max(
                    1.0, np.abs(want).max()), (d, anti)


def test_small_expm_batched_matches_per_slice():
    # the stack's largest norm sets one degree (and squaring) for all of it
    rng = np.random.default_rng(17)
    for norms in ([1e-9, 1e-5, 1e-3, 0.2], [1e-9, 0.2, 3.0]):
        for d in (2, 5, 16):
            x = np.stack([_scaled(rng, d, n) for n in norms])
            batch = small_expm(x)
            for k in range(len(norms)):
                assert np.abs(batch[k] - small_expm(x[k])).max() < 1e-14


def test_row_expm_matches_small_expm():
    # one stack, both layouts: the same degree and squarings, the same
    # polynomial, the products rounded in another order. Each squaring may
    # double that roundoff
    rng = np.random.default_rng(19)
    top = TAYLOR[-1][1]
    for norms in ([1e-9, 1e-5, 1e-3, 0.2], [1e-9, 0.2, 3.0], [0.01] * 300):
        squarings = max(0, int(np.ceil(np.log2(max(norms) / top))))
        for d in range(1, 7):
            for anti in (False, True):
                x = np.stack([_scaled(rng, d, n, anti) for n in norms])
                want = small_expm(x)
                got = np.moveaxis(row_expm(np.moveaxis(x, 0, -1)), -1, 0)
                assert np.abs(got - want).max() <= 1e-15 * 2 ** squarings \
                    * max(1.0, np.abs(want).max()), (norms[-1], d, anti)


def test_small_expm_is_unitary_below_top_radius():
    rng = np.random.default_rng(23)
    top = TAYLOR[-1][1]
    for norm in (1e-10, 1e-6, 1e-3, 1e-2, 0.1, top):
        for d in (1, 2, 4, 7, 16):
            x = np.stack([_scaled(rng, d, norm, anti=True) for _ in range(5)])
            assert unitary_deviation(small_expm(x)) < 1e-14, (norm, d)


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_small_expm_rejects_non_finite_entries(entry):
    x = np.zeros((3, 2, 2), dtype=complex)
    x[1, 0, 1] = entry
    with pytest.raises(ValueError, match="non-finite"):
        small_expm(x)
    with pytest.raises(ValueError, match="non-finite"):
        row_expm(np.moveaxis(x, 0, -1))
