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

__all__ = ["adaptive_path_quadrature", "kernel_segments"]

_X3, _W3 = np.polynomial.legendre.leggauss(3)


def adaptive_path_quadrature(f_many, breakpoints) -> np.ndarray:
    """Per-segment integrals of a vector-valued integrand.

    ``f_many(ts) -> (len(ts), k)`` must be evaluable at arbitrary points;
    ``breakpoints`` (increasing) mark its segments, and the integrand must be
    a polynomial of degree <= 5 on each.  A batch of paths passes its
    breakpoint lists one after another: where the values drop, a new list
    starts, and the drop is not a segment.  Returns an array of shape
    ``(segments, k)`` whose row j is the integral over segment j; sum the
    rows (of each path) for the total.  The integrand is evaluated once, at
    3 interior nodes per segment, listed segment by segment.

    The name predates the fixed rule; the traced benchmark run patches the
    kernel under it.
    """
    b = np.asarray(breakpoints, dtype=float)
    lo, hi = b[:-1], b[1:]
    within = hi >= lo
    if not within.all():
        lo, hi = lo[within], hi[within]
    half = 0.5 * (hi - lo)
    ts = (lo[:, None] + half[:, None] * (_X3 + 1.0)).ravel()
    vals = np.asarray(f_many(ts), dtype=float).reshape(len(lo), len(_X3), -1)
    return np.einsum("s,j,sjk->sk", half, _W3, vals)


def kernel_segments(ts) -> np.ndarray:
    """Segment of each node ``ts`` of one ``adaptive_path_quadrature`` call,
    counted over the segments it integrates (a drop between two paths'
    breakpoint lists is not one): the nodes come segment by segment, 3 each,
    so this is the row of a path batch's segment table."""
    return np.arange(len(ts)) // len(_X3)
