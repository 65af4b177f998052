"""Uniform rescaled-time grid plus the quadrature/differentiation kernels.

Everything downstream works on the dimensionless protocol parameter
s in [0, 1]; physical time is t = s / v for sweep velocity v.
"""
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridTooSmall


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, 1].

    Attributes
    ----------
    s : ndarray, shape (n,)
        Finite, strictly increasing nodes with s[0] = 0 and s[-1] = 1.
    """

    s: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if s.ndim != 1 or s.size < 3:
            raise GridTooSmall("grid needs at least 3 nodes")
        if not np.all(np.isfinite(s)):
            raise DimensionMismatch("grid nodes must be finite")
        if s[0] != 0.0 or abs(s[-1] - 1.0) > 1e-12:
            raise DimensionMismatch("grid must span [0, 1]")
        h = np.diff(s)
        if np.any(h <= 0) or np.any(np.abs(h - h[0]) > 1e-12):
            raise DimensionMismatch("grid must be uniform and increasing")
        object.__setattr__(self, "s", s)

    @classmethod
    def uniform(cls, n: int) -> "Grid":
        if n < 3:
            raise GridTooSmall("grid needs at least 3 nodes")
        return cls(np.linspace(0.0, 1.0, n))

    @property
    def n(self) -> int:
        return self.s.size

    @property
    def h(self) -> float:
        return float(self.s[1] - self.s[0])


def _check_samples(f: np.ndarray, grid: Grid) -> np.ndarray:
    f = np.asarray(f)
    if f.shape[0] != grid.n:
        raise DimensionMismatch(
            f"sample count {f.shape[0]} does not match grid size {grid.n}")
    return f


def cumulative_quadrature(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Antiderivative samples F(s_k) = int_0^{s_k} f ds with F(0) = 0.

    Composite Simpson on successive node pairs; a prefix ending on an odd
    interval count gets a trapezoid on its final interval (so the full-range
    value uses the trapezoid fallback exactly when the node count is even).
    O(h^4) for smooth f at even offsets, with an O(h^3) local trapezoid
    remainder at odd ones.

    Parameters
    ----------
    f : ndarray, shape (n, ...)
        Samples on the grid; leading axis is the node index.
    grid : Grid

    Returns
    -------
    ndarray, same shape as f.
    """
    f = _check_samples(f, grid)
    h = grid.h
    out = np.zeros_like(f, dtype=np.result_type(f.dtype, float))
    # Simpson pair increments land on even offsets 2, 4, ...
    pair = (h / 3.0) * (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
    out[2::2] = np.cumsum(pair, axis=0)
    # odd offsets: preceding even value plus one trapezoid interval
    out[1::2] = out[0:-1:2] + (h / 2.0) * (f[0:-1:2] + f[1::2])
    return out


def central_derivative(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order derivative samples: central interior, one-sided ends.

    Parameters
    ----------
    f : ndarray, shape (n, ...)
    grid : Grid

    Returns
    -------
    ndarray, same shape as f.
    """
    f = _check_samples(f, grid)
    h = grid.h
    df = np.empty_like(f, dtype=np.result_type(f.dtype, float))
    df[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    df[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    df[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return df
