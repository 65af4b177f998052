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


# Taylor degrees of small_expm, each with the largest 1-norm it serves:
# the norm at which the first omitted term, theta^(m+1) / (m+1)!, reaches
# 2^-53 (1.5e-8, 2.3e-4, 1.8e-2, 0.34 for m = 1, 3, 6, 12), rounded down
TAYLOR = ((1, 1e-8), (3, 2e-4), (6, 1.5e-2), (12, 0.3))


def row_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small matrices held node-fastest.

    ``a`` has shape (p, q, m) and ``b`` (q, r, m): the matrix indices come
    first and the stack index last, so each matrix entry is a row of m
    values. The (p, r, m) result is one einsum over the inner index, a
    NumPy loop over whole rows with no BLAS call, where ``@`` on the same
    stacks held node-first makes one zgemm call per matrix. The two agree
    to roundoff.

    Minimum of 7 x 200 timeit runs, ranges over two processes, on a
    2-core host (NumPy 2.4.6, OpenBLAS), complex (d, d, m) stacks of
    dapt.propagate's block size, against ``@`` on the node-first copies;
    then the time per product with two threads multiplying at once:

        d   m       one thread              two threads
                    row_matmul   @          row_matmul   @
        2   1536    60-63        463-696    42-43        1362-1372 us
        3   682     77-83        248-396    48-55        397-592 us
        4   384     72-81        129-204    61-72        225-305 us
        5   245     94-141       102-108    64-74        174-184 us
        6   170     100-148      67-80      94-105       143-165 us
        8   96      147-189      51-64      103-107      81-101 us

    Concurrent zgemm calls slow each other down; the einsum does not.
    """
    return np.einsum("ijm,jkm->ikm", a, b)


def small_expm(x: np.ndarray) -> np.ndarray:
    """exp(x) for a stack of small matrices (batched on leading axes).

    One Taylor polynomial serves the whole stack. Its degree m is the
    lowest in TAYLOR whose radius holds the stack's largest 1-norm, so the
    truncation is below 2^-53 relative to exp; a stack beyond the top
    radius is scaled by 2^-j into it and the result squared j times
    (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31 (2009) 970). The
    polynomial is evaluated on stack_matmul from x, x^2 and x^3, in
    Paterson-Stockmeyer form for m = 3, 6 and 12: 2, 3 and 5 products; at
    m = 1 it is I + x. Raises ValueError on a non-finite entry. row_expm
    evaluates the same polynomial on node-fastest stacks.

    Minimum of 30 timeit runs on a 2-core host (NumPy 2.4.6, OpenBLAS),
    ranges over two processes, for random anti-Hermitian (n, d, d) stacks
    of the given 1-norm, against the batched eigh and rebuild
    V e^{-i lam} V^dag it replaced (in unitary_expm and in the Magnus
    steps of dapt.propagate):

        stack            1-norm   eigh        small_expm
        (2000, 2, 2)     1e-9     2.9-3.1     0.17-0.24 ms
        (1000, 4, 4)     1e-9     5.5-7.2     0.17-0.23 ms
        (1000, 7, 7)     1e-9     13.8-14.0   0.35-0.37 ms
        (128, 4, 4)      0.05     0.55-0.56   0.32 ms
        (128, 16, 16)    0.24     9.3-12.1    2.8-3.7 ms
        (2000, 16, 16)   0.24     151-156     54-60 ms

    The first three are the transport steps of the smooth gauge (degree
    1), the last three Magnus steps at the benchmark files' 1-norms
    (degree 12); the two agree to 1e-14. dapt.propagate takes its steps
    here above dimension ROW_DIM = 5 and through row_expm up to it.
    """
    x = np.asarray(x, dtype=complex)
    diag = np.arange(x.shape[-1])
    return _taylor_expm(x, -2, (..., diag, diag), stack_matmul)


def row_expm(x: np.ndarray) -> np.ndarray:
    """exp of every matrix of a node-fastest (d, d, m) stack.

    small_expm's Taylor polynomial, degree choice, scaling and squaring
    and non-finite check, with the products taken by row_matmul, so every
    step runs over whole rows of m entries. It agrees with small_expm on
    the same stack held node-first to roundoff.
    """
    x = np.asarray(x, dtype=complex)
    diag = np.arange(x.shape[0])
    return _taylor_expm(x, 0, (diag, diag), row_matmul)


def _taylor_expm(x: np.ndarray, rows: int, diagonal: tuple,
                 matmul) -> np.ndarray:
    """The TAYLOR polynomial of small_expm for a complex stack in either
    layout: ``rows`` is the axis of the matrices' row index (the 1-norm
    sums over it), ``diagonal`` indexes their diagonal entries and
    ``matmul`` multiplies two stacks of that layout."""
    norm = float(np.abs(x).sum(axis=rows).max())
    if not math.isfinite(norm):
        raise ValueError("matrix has a non-finite (nan or inf) entry")
    squarings = 0
    for degree, theta in TAYLOR:
        if norm <= theta:
            break
    else:
        squarings = math.ceil(math.log2(norm / theta))
        x = x * 2.0 ** -squarings
    if degree == 1:
        out = x.copy()
        out[diagonal] += 1.0
    else:
        # p(x) = sum_j x^(3j) (c_3j + c_3j+1 x + c_3j+2 x^2), c_k = 1/k!,
        # by Horner in x^3 with the top coefficient c_m x^3 in the last block
        c = [1.0 / math.factorial(k) for k in range(degree + 1)]
        x2 = matmul(x, x)
        x3 = matmul(x2, x)
        blocks = degree // 3
        out = c[degree] * x3
        for j in reversed(range(blocks)):
            if j < blocks - 1:
                out = matmul(x3, out)
            out += c[3 * j + 1] * x
            out += c[3 * j + 2] * x2
            out[diagonal] += c[3 * j]
    for _ in range(squarings):
        out = matmul(out, out)
    return out


def unitary_expm(a: np.ndarray, dt: float = 1.0,
                 atol: float = 1e-3) -> np.ndarray:
    """exp(a * dt) for anti-Hermitian a (batched on leading axes).

    The generator is projected onto its anti-Hermitian part before
    exponentiating: finite-difference-sourced connections carry a spurious
    Hermitian component of order h^2, and discarding it keeps every factor
    unitary to roundoff. Deviations beyond atol (max-entry norm) are not
    treated as noise and raise NotAntiHermitian.

    The exponential is small_expm's Taylor polynomial. In the smooth gauge
    of dapt.spectral a transport generator times h has a 1-norm near 1e-9,
    so each factor there costs one addition to the identity.
    """
    a = np.asarray(a, dtype=complex)
    a_dag = np.swapaxes(a, -1, -2).conj()
    dev = np.abs(a + a_dag).max()
    if dev > atol:
        raise NotAntiHermitian(f"generator deviates from anti-Hermitian by {dev:.3e}")
    return small_expm((0.5 * dt) * (a - a_dag))
