"""Small dense linear-algebra helpers for unitary transport."""
import math

import numpy as np

from .errors import NonHermitianInput, NotAntiHermitian


def hermitian_part(samples: np.ndarray) -> np.ndarray:
    """Check that matrices (batched on leading axes) are Hermitian and
    return their Hermitian part (H + H^dagger) / 2.

    Raises NonHermitianInput when an entry is not finite or when
    max|H - H^dagger| exceeds 1e-10 * max(1, max|H|). Exactly Hermitian
    input comes back with equal values, so accepted samples are
    symmetrised exactly once however many checks they pass through.
    """
    samples = np.asarray(samples, dtype=complex)
    scale = float(np.abs(samples).max())
    # max propagates nan, so scale is finite exactly when every entry is
    if not math.isfinite(scale):
        raise NonHermitianInput("matrix has a non-finite (nan or inf) entry")
    adjoint = np.swapaxes(samples, -1, -2).conj()
    dev = np.abs(samples - adjoint).max()
    tol = 1e-10 * max(1.0, scale)
    if dev > tol:
        raise NonHermitianInput(
            f"max |H - H^dag| = {dev:.3e} exceeds {tol:.3e}")
    return 0.5 * (samples + adjoint)


SMALL_INNER = 3               # largest inner dimension stack_matmul sums


def stack_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small matrices (batched on leading axes).

    NumPy runs a complex ``@`` as one zgemm call per matrix, at a few
    hundred ns each whatever the size. For a complex product whose inner
    dimension is at most SMALL_INNER the result is instead summed over the
    inner index, out = sum_j a[..., :, j] (outer) b[..., j, :], in a few
    whole-stack multiplies and adds that allocate the output and one
    temporary of its size. It agrees with ``@`` to roundoff. Any other
    product (a larger inner dimension, two real operands, operands of
    fewer than two axes, or mismatched inner dimensions, which raise) is
    ``a @ b`` itself, bit for bit.

    Minimum of 20 to 30 timeit runs on a 2-core host (NumPy 2.4.6,
    OpenBLAS), complex (n, d, d) stacks:

        stack            @         summed
        (16001, 2, 2)    4.5-5.8   1.0-1.9 ms
        (2001, 2, 2)     0.69-0.97 0.12-0.21 ms
        (4001, 3, 3)     1.3-2.1   0.6-1.0 ms
        (1001, 4, 4)     0.33-0.54 0.28-0.44 ms
        (1001, 7, 7)     0.73      1.5 ms
        (1001, 16, 16)   1.7       23 ms

    Inner dimension 4 is a draw and beyond it ``@`` wins, hence the cutoff
    of 3. Two real (16001, 2, 2) stacks take 0.6-1.0 ms with ``@`` and
    1.0-1.6 ms summed, so real products keep ``@``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    inner = a.shape[-1] if a.ndim >= 2 else 0
    if not (0 < inner <= SMALL_INNER and b.ndim >= 2
            and b.shape[-2] == inner
            and (np.iscomplexobj(a) or np.iscomplexobj(b))):
        return a @ b
    out = a[..., :, 0, None] * b[..., None, 0, :]
    if inner > 1:
        term = np.empty_like(out)
        for j in range(1, inner):
            np.multiply(a[..., :, j, None], b[..., None, j, :], out=term)
            out += term
    return out


def unitary_deviation(u: np.ndarray) -> float:
    """max-entry deviation of U^dagger U from the identity."""
    u = np.asarray(u)
    eye = np.eye(u.shape[-1])
    gram = stack_matmul(np.swapaxes(u, -1, -2).conj(), u)
    return float(np.abs(gram - eye).max())


def ordered_product(factors: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Ordered product along the grid, later factors on the right.

    Returns x with x[0] = start and x[k+1] = x[k] @ factors[k].
    ``factors`` has shape (n - 1, d, d) and ``start`` (r, d); the result
    has shape (n, r, d). Every node-to-node product of the package goes
    through this one function.

    A two-level blocked scan (Blelloch 1990) of the m = n - 1 factors in
    blocks of b = isqrt(m), in about 3 sqrt(m) batched NumPy steps:
    (1) every block but the last is reduced to its product T_j, all blocks
    at once, one position per step; (2) the block starts are chained,
    c_{j+1} = c_j T_j; (3) the recurrence is run again inside every block
    at once, from its start, straight into the result. The last block,
    possibly short, needs no product, and the strided slices of step (3)
    end at the last factor, so nothing is padded or copied: the only
    temporaries are the (blocks, d, d) products. The result agrees with
    the node-by-node recurrence to roundoff, not bit for bit.

    The batched steps go through stack_matmul, although each multiplies
    only about sqrt(m) matrices: for complex d = 2 the whole product takes
    1.0 ms instead of 1.7 ms at m = 2000 and 5-7 ms instead of 12-14 ms at
    m = 16000 (d = 3: 1.6-1.7 ms instead of 1.8-2.0 ms at m = 2000).
    """
    m = factors.shape[0]
    x = np.empty((m + 1,) + start.shape, dtype=np.result_type(factors, start))
    x[0] = start
    b = max(1, math.isqrt(m))
    last = max(m - 1, 0) // b * b          # first factor of the last block
    t = factors[0:last:b]
    for i in range(1, b):
        t = stack_matmul(t, factors[i:last:b])
    for j in range(len(t)):
        x[(j + 1) * b] = x[j * b] @ t[j]
    for i in range(b):
        x[i + 1::b] = stack_matmul(x[i:m:b], factors[i::b])
    return x


def unitary_expm(a: np.ndarray, dt: float = 1.0,
                 atol: float = 1e-3) -> np.ndarray:
    """exp(a * dt) for anti-Hermitian a (batched on leading axes).

    The generator is projected onto its anti-Hermitian part before
    exponentiating: finite-difference-sourced connections carry a spurious
    Hermitian component of order h^2, and discarding it keeps every factor
    unitary to roundoff. Deviations beyond atol (max-entry norm) are not
    treated as noise and raise NotAntiHermitian.

    The exponential is rebuilt from the eigendecomposition as
    (V e^{-i lam dt}) V^dagger through stack_matmul. Against the
    three-operand einsum it replaced (minimum of 30 timeit runs, 2-core
    host), complex (n, d, d) stacks: (2000, 2, 2) 0.79 -> 0.55 ms,
    (16000, 2, 2) 4.4 -> 2.9 ms, (1000, 4, 4) 0.45 -> 0.39 ms,
    (1000, 7, 7) 1.45 -> 0.69 ms, (2000, 16, 16) 28 -> 15 ms; the two
    agree to 6e-16.
    """
    a = np.asarray(a, dtype=complex)
    a_dag = np.swapaxes(a, -1, -2).conj()
    dev = np.abs(a + a_dag).max()
    if dev > atol:
        raise NotAntiHermitian(f"generator deviates from anti-Hermitian by {dev:.3e}")
    lam, v = np.linalg.eigh(0.5j * (a - a_dag))
    phase = np.exp(-1j * lam * dt)
    return stack_matmul(v * phase[..., None, :], np.swapaxes(v, -1, -2).conj())
