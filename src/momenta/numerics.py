"""The path-integral kernel shared by the momentum and cylinder modules.

On the simply connected cover every path integrand in this package is a
polynomial of degree at most 1 in t on each segment: the chart is
exponential, the coadjoint action is affine in the group element, momentum
curves are piecewise linear, and the coadjoint factor (the central
component of the covector) is constant on a segment.  A 3-point
Gauss-Legendre rule per segment, exact up to degree 5, therefore
integrates them exactly up to rounding, with room to spare.
"""

from __future__ import annotations

import numpy as np

__all__ = ["adaptive_path_quadrature"]

_X3, _W3 = np.polynomial.legendre.leggauss(3)


def adaptive_path_quadrature(f_many, breakpoints) -> np.ndarray:
    """Per-segment integrals of a vector-valued integrand.

    ``f_many(ts) -> (len(ts), k)`` must be evaluable at arbitrary points;
    ``breakpoints`` (increasing) mark its segments, and the integrand must be
    a polynomial of degree <= 5 on each.  Returns an array of shape
    ``(len(breakpoints) - 1, k)`` whose row j is the integral over
    ``[breakpoints[j], breakpoints[j + 1]]``; sum the rows for the total.
    The integrand is evaluated once, at 3 interior nodes per segment.

    The name predates the fixed rule; the traced benchmark run patches the
    kernel under it.
    """
    b = np.asarray(breakpoints, dtype=float)
    lo, half = b[:-1, None], 0.5 * np.diff(b)[:, None]
    ts = (lo + half * (_X3 + 1.0)).ravel()
    vals = np.asarray(f_many(ts), dtype=float).reshape(len(lo), len(_X3), -1)
    return np.einsum("s,j,sjk->sk", half[:, 0], _W3, vals)
