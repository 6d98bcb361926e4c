"""The path-integral kernel shared by the momentum and cylinder modules.

On the simply connected cover every path integrand in this package is
affine in t on each segment.  The premise is that every group model is
2-step nilpotent: each bracket lands in the centre (``groups._FAMILIES``
has no pair whose target is a bracket input).  Then on a segment the path
is affine in the exponential chart, and so is the momentum curve; the
central component of the covector is constant there, so Ad*_{g^{-1}} =
(I - ad_g)^T applied to the covector is affine as well.  The midpoint rule
integrates an affine integrand exactly, so one node per segment gives
every path integral up to rounding.  The node is the segment's midpoint,
where the path and the momentum curve are the means of their values at
the segment's two breakpoints; so ``momentum.py`` builds each integrand
row from the segment table, and ``segment_integrals`` weighs it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["segment_integrals", "adaptive_path_quadrature"]


def segment_integrals(p, rows) -> np.ndarray:
    """Per-segment integrals along the path (batch) p: the integrand's row at
    the midpoint of segment j times its width ``times[_first[j] + 1] -
    times[_first[j]]``.  ``_first`` skips the drops between a batch's paths;
    ``GroupPath.sum_segments`` adds each path's rows up."""
    return (p.times[1:] - p.times[:-1]).take(p._first)[:, None] * rows


def adaptive_path_quadrature(f_many, breakpoints) -> np.ndarray:
    """Per-segment integrals of a vector-valued integrand.

    ``f_many(ts) -> (len(ts), k)`` must be evaluable at arbitrary points;
    ``breakpoints`` (increasing) mark its segments, and the integrand must be
    affine on each.  A batch of paths passes its breakpoint lists one after
    another: where the values drop, a new list starts, and the drop is not a
    segment.  Returns one row per segment, its integral, from one integrand
    evaluation at every segment's midpoint (node i lies in segment i).

    The tests compare the table kernel with this general rule.  No program
    code calls it, but the traced benchmark run resolves it by name, so it
    and this module stay until the harness stops wrapping it.
    """
    b = np.asarray(breakpoints, dtype=float)
    lo, hi = b[:-1], b[1:]
    within = hi >= lo
    if not within.all():
        lo, hi = lo[within], hi[within]
    vals = np.asarray(f_many(0.5 * (lo + hi)), dtype=float).reshape(len(lo), -1)
    return (hi - lo)[:, None] * vals
