"""Momentum maps on the universal cover of a magnetic cotangent bundle.

The momentum value of a homotopy class is the line integral of the contraction
of the symplectic form with the infinitesimal generators along any
representing path from the base point z0 = (e, 0).  This module provides that
quadrature, the group cocycle integral Theta with its closed form,
the closed-form momentum map, an independent transport oracle, the
non-equivariance cocycle, and a finite-difference validator for the momentum
condition.  The cocycle's rate at the identity, the Chu map at z0, is theta
(see ``symplectic``), so the cocycle sigma_J is Theta, read from theta.

Every group here is 2-step nilpotent, so on each segment of a path the
kernel's integrands are affine (see ``numerics``) and the transport oracle's
is at most quadratic: one Simpson panel integrates it exactly, and the
oracle's Richardson gap, blind below the fourth degree, guards that premise.

Sign discipline: the quadrature integrands here are derived once with the
canonical-part sign fixed to +1, while the transport oracle and the
finite-difference validator evaluate the symplectic form through the
symplectic module.  Mutating that module's sign therefore breaks their
agreement instead of cancelling silently.
"""

from __future__ import annotations

import numpy as np

from . import symplectic as _sym
from .errors import InputError, NumericalError
from .groups import GroupModel, GroupPath, _interleave, concat_paths, path_product
from .numerics import adaptive_path_quadrature
from .symplectic import CocycleTheta, MagneticCotangent, PhasePoint

__all__ = [
    "PhasePath",
    "theta_integral",
    "theta_closed_form",
    "momentum_of_path",
    "momentum_segments",
    "momentum_closed_form",
    "horizontal_transport",
    "sigma_J",
    "lifted_action_on_path",
    "verify_momentum_condition",
]


class PhasePath:
    """Paths in T*G: group paths plus piecewise-linear momentum curves sampled
    at the group paths' breakpoints (``momenta`` has one row per row of
    ``base.times``).  A batch when its base is."""

    __slots__ = ("base", "momenta", "slopes")

    def __init__(self, base: GroupPath, momenta):
        momenta = np.asarray(momenta, dtype=float)
        expected = (len(base.times), base.model.dim)
        if momenta.shape != expected:
            raise InputError(f"momentum samples must have shape {expected}, got {momenta.shape}")
        self.base = base
        self.momenta = momenta
        first = base._first
        self.slopes = (momenta.take(first + 1, axis=0) - momenta.take(first, axis=0)) / base.durations[:, None]

    @classmethod
    def with_linear_momentum(cls, base: GroupPath, mu_end, mu_start=None) -> "PhasePath":
        """Momentum growing linearly from mu_start (default 0) to mu_end; on a
        batch either may give one row per path."""
        n, rows = base.model.dim, (len(base), base.model.dim)
        mu0 = np.zeros(n) if mu_start is None else np.asarray(mu_start, dtype=float)
        mu1 = np.asarray(mu_end, dtype=float)
        owner = base.point_paths()
        mu0, d = np.broadcast_to(mu0, rows).take(owner, axis=0), np.broadcast_to(mu1 - mu0, rows).take(owner, axis=0)
        return cls(base, mu0 + base.times[:, None] * d)

    @classmethod
    def to_point(cls, model: MagneticCotangent, g, mu) -> "PhasePath":
        """Standard representative from z0 to (g, mu): one exponential segment
        with linearly growing momentum; a batch when g and mu stack rows."""
        cover = model.cover  # its chart is exponential
        return cls.with_linear_momentum(GroupPath.straight(cover, cover.log(g)), mu)

    def momentum_many(self, ts, paths=None) -> np.ndarray:
        """Momenta at parameters ``ts``; ``paths`` names the path of each when
        there are several."""
        ts = np.asarray(ts, dtype=float)
        ks = self.base.segment_index(ts, paths)
        return self._at_segments(ks, ts)

    def _at_segments(self, ks, ts) -> np.ndarray:
        first = self.base._first.take(ks)
        s = (ts - self.base.times.take(first))[:, None]
        return self.momenta.take(first, axis=0) + s * self.slopes.take(ks, axis=0)

    def midpoints(self) -> np.ndarray:
        """Momentum at the middle of each segment, in table order: the curve
        is affine on a segment, so this is the mean of its two samples."""
        f = self.base._first
        return 0.5 * (self.momenta.take(f, axis=0) + self.momenta.take(f + 1, axis=0))

    def end_momenta(self) -> np.ndarray:
        """Final momentum of each path, shape (B, n) also for a single path."""
        return self.momenta.take(self.base.offsets[1:] + np.arange(len(self.base)), axis=0)

    def endpoint(self) -> PhasePoint:
        return PhasePoint(self.base.endpoint(), self.base._shaped(self.end_momenta()))

    def concat(self, other: "PhasePath") -> "PhasePath":
        """First traverse this path on [0, 1/2], then other on [1/2, 1]."""
        base = concat_paths(self.base, other.base)
        p, q = self.base, other.base
        starts_p = p.offsets[:-1] + np.arange(len(p))
        starts_q = q.offsets[:-1] + np.arange(len(q)) + 1
        momenta = _interleave(self.momenta, starts_p, p.counts() + 1, other.momenta, starts_q, q.counts())
        return PhasePath(base, momenta)


def _require_identity_based(p: GroupPath):
    if p.bases.any() and np.any(p.model.distance(p.bases, p.model.identity()) > 1e-12):
        raise InputError("path must be based at the identity")


def _coadjoint_integral(p: GroupPath, matrix) -> np.ndarray:
    """Integral of Ad*_{g(t)^{-1}} (matrix @ left velocity) dt along each
    path of p: the integrand of Theta and sigma_J.  The kernel's nodes are
    the segment midpoints in table order, so the integrand reads g there
    from the table (``GroupPath.midpoints``) and ignores the parameters."""

    def integrand(ts):
        return p.model.coadjoint_inv_apply(p.midpoints(), p.directions @ matrix.T)

    return p.sum_segments(adaptive_path_quadrature(integrand, p.times))


def theta_integral(model: GroupModel, theta: CocycleTheta, p: GroupPath) -> np.ndarray:
    """Theta(p) = integral of Ad*_{g(t)^{-1}} theta(left velocity) dt."""
    if theta.dim != model.dim or p.model.dim != model.dim:
        raise InputError("theta, model, and path dimensions must agree")
    _require_identity_based(p)
    return _coadjoint_integral(p, theta.float_matrix())


def theta_closed_form(model: GroupModel, theta: CocycleTheta, g) -> np.ndarray:
    """Theta at g (at each row of stacked elements): the integral along the
    straight path t -> t g, whose velocity is g.  Ad*_{h^{-1}} = (I - ad_h)^T
    is affine in h, so the integral of Ad*_{(t g)^{-1}} theta(g) over [0, 1]
    is Ad*_{(g/2)^{-1}} theta(g), for every 2-step model."""
    g = np.asarray(g, dtype=float)
    return model.coadjoint_inv_apply(0.5 * g, g @ theta.float_matrix().T).reshape(g.shape)


def _momentum_rows(model: MagneticCotangent, gs, mus, xid, nud) -> np.ndarray:
    """Momentum-map integrand with the canonical sign frozen at +1, row-wise
    over stacked kinematics: Ad*_{g^{-1}} (nu-dot + (C(mu) - Sigma) xi-dot)."""
    covs = nud - xid @ model.sigma_matrix.T
    for a, b, k in model.group.pairs:  # C(mu) xi-dot, one bracket pair at a time
        covs[:, a] += mus[:, k] * xid[:, b]
        covs[:, b] -= mus[:, k] * xid[:, a]
    return model.cover.coadjoint_inv_apply(gs, covs)


def _check_phase_path(model: MagneticCotangent, x: PhasePath, at_base: bool):
    if x.base.model != model.cover:
        raise InputError("phase paths must live on the universal-cover model")
    if at_base:
        _require_identity_based(x.base)
        starts = x.momenta.take(x.base.offsets[:-1] + np.arange(len(x.base)), axis=0)
        # NaN is nonzero, so it reaches the norm, whose test it fails
        if starts.any() and not np.all(np.linalg.norm(starts, axis=1) <= 1e-12):
            raise InputError("path must start at the base point (e, 0)")


def _segment_momenta(model: MagneticCotangent, x: PhasePath) -> np.ndarray:
    """``momentum_segments`` without the input check.  The kernel's nodes
    are the segment midpoints in table order; g and mu are affine on a
    segment, so the integrand reads them there from the table
    (``GroupPath.midpoints``, ``PhasePath.midpoints``) and ignores the
    parameters."""
    p = x.base

    def integrand(ts):
        return _momentum_rows(model, p.midpoints(), x.midpoints(), p.directions, x.slopes)

    return adaptive_path_quadrature(integrand, p.times)


def momentum_segments(model: MagneticCotangent, x: PhasePath) -> np.ndarray:
    """Momentum integral over each segment of x, one row per row of the
    segment table; x may start anywhere.  The integral is additive over
    concatenation and does not depend on the parametrisation, so partial
    sums give it along sub-paths."""
    _check_phase_path(model, x, at_base=False)
    return _segment_momenta(model, x)


def momentum_of_path(model: MagneticCotangent, x: PhasePath) -> np.ndarray:
    """J of the homotopy class represented by x (of each path of a batch),
    normalized so the trivial class maps to 0; exact quadrature of the
    generator contraction."""
    _check_phase_path(model, x, at_base=True)
    return x.base.sum_segments(_segment_momenta(model, x))


def momentum_closed_form(model: MagneticCotangent, g_path: GroupPath, mu) -> np.ndarray:
    """Ad*_{g^{-1}} mu + Theta(g_path) for g the endpoint of g_path; on a
    batch mu may give one row per path."""
    theta = theta_integral(g_path.model, model.theta, g_path)  # checks the base
    return g_path._shaped(g_path.model.coadjoint_inv_apply(g_path.ends(), mu)) + theta


def _simpson_sweeps(vals, w) -> tuple[np.ndarray, np.ndarray]:
    """The coarse and the fine sweep over each segment of a (segments, 5, n)
    block of rows w / 4 apart: one Simpson panel, w/6 (1, 0, 4, 0, 1), and
    two, w/12 (1, 4, 2, 4, 1)."""
    v0, v1, v2, v3, v4 = vals.transpose(1, 0, 2)
    return (w / 6.0)[:, None] * (v0 + 4.0 * v2 + v4), (w / 12.0)[:, None] * (v0 + 4.0 * (v1 + v3) + 2.0 * v2 + v4)


def horizontal_transport(model: MagneticCotangent, x: PhasePath) -> np.ndarray:
    """Transport oracle: integrate the horizontality condition
    <mu-dot, e_i> = omega(e_i-generator, x-dot) from (z0, 0) with a classical
    4th-order step, Richardson-checked at half the step, along each path.

    The right-hand side does not involve the transported variable, so an RK4
    step is a Simpson panel.  Each segment of width w is evaluated at 5
    equally spaced rows from its own start node, direction and momentum
    slope, so kinks never leak into a panel: the coarse sweep is one panel,
    the fine sweep two.  On a segment the path is affine in the chart of a
    2-step group and so is the covector; the integrand, bilinear in the two,
    is at most quadratic, and one panel integrates it exactly.

    The sweeps then differ by rounding, which grows with the size of the
    data, so on each path they must agree to 1e-10 times the largest of the
    integrand's values, the momenta and Sigma times each velocity, and never
    less than 1e-7.  Cubic terms cancel in the gap and a quartic term c d^4
    opens it by |c| w^5 / 128, so the gap guards the 2-step premise.  The
    form enters through the symplectic module's current sign, keeping this
    oracle independent of the derived quadrature integrand.
    """
    _check_phase_path(model, x, at_base=True)
    s = _sym._CANON_SIGN
    struct, sig = model.group.structure, model.sigma_matrix
    base, n = x.base, model.n
    first = base._first
    xid, nud, mu0, push = base.directions, x.slopes, x.momenta.take(first, axis=0), base.directions @ sig.T
    # the velocity is constant on a segment, so the bracket term is one
    # matrix per segment, and the covector is affine in the offset d into
    # the segment: cov0 + d cov1
    brackets = s * np.einsum("abk,sb->sak", struct, xid)
    cov0 = np.einsum("sak,sk->sa", brackets, mu0) + (s * nud - push)
    cov1 = np.einsum("sak,sk->sa", brackets, nud)
    ds = np.outer(base.durations, 0.25 * np.arange(5))[..., None]  # offsets of the 5 rows
    gs = base.model.multiply(base.nodes.take(first, axis=0)[:, None], ds * xid[:, None])
    covs = cov0[:, None] + ds * cov1[:, None]
    vals = base.model.coadjoint_inv_apply(gs.reshape(-1, n), covs.reshape(-1, n)).reshape(-1, 5, n)
    coarse, fine = (base.sum_segments(v) for v in _simpson_sweeps(vals, base.durations))
    ends = np.abs(x.momenta).max(axis=1)
    size = np.max([np.abs(vals).max(axis=(1, 2)), np.abs(push).max(axis=1), ends.take(first), ends.take(first + 1)], axis=0)
    size = np.maximum.reduceat(size, base.offsets[:-1])  # per path
    gaps = np.atleast_1d(np.abs(fine - coarse).max(axis=-1))
    failed = (~(gaps <= np.maximum(1e-7, 1e-10 * size))).nonzero()[0]  # NaN fails
    if len(failed):
        gap = gaps[failed[0]]
        raise NumericalError(f"transport Richardson check failed: step halving moved result by {gap:.3e}")
    return fine


def sigma_J(model: MagneticCotangent, g_path: GroupPath) -> np.ndarray:
    """Non-equivariance cocycle of the lifted momentum map along each path.
    Its rate at the identity, the base-point Chu map, is theta, so it is the
    group cocycle Theta: the integral of Ad*_{g(t)^{-1}} theta(left velocity).
    theta is read as ``model.sigma_matrix.T``, a view that no call copies,
    with the layout of ``theta_integral``'s copy, so both round alike."""
    if g_path.model != model.cover:
        raise InputError("cocycle paths must live on the universal-cover model")
    _require_identity_based(g_path)
    return _coadjoint_integral(g_path, model.sigma_matrix.T)


def lifted_action_on_path(g_path: GroupPath, x: PhasePath) -> PhasePath:
    """Pointwise action t -> g(t) x(t): the product base path, which hits
    g(t) x(t) at the union of both paths' breakpoints (``path_product``), and
    the body momentum curve carried over unchanged.  That curve is affine
    between x's breakpoints, all of which the product keeps, so resampling
    it on the product's breakpoints is exact.  The result has the ends of
    the pointwise action and is homotopic to it, so J reads the same on
    both."""
    product = path_product(g_path, x.base)
    return PhasePath(product, x.momentum_many(product.times, product.point_paths()))


# central-difference step of the momentum-condition validator
_FD_STEP = 1e-4


def verify_momentum_condition(model: MagneticCotangent, z: PhasePoint, xi):
    """Max relative error of the momentum condition at z: central finite
    differences of the momentum integral along the 2n chart directions against
    the symplectic pairing with the generator of xi.  z may stack points
    (rows of z.g and z.mu, one row of xi each): one error per point, and a
    float for a single point.

    Displaced evaluations share the whole path up to z, so only the short
    tail from z contributes to each difference and trunk quadrature cancels
    identically.  Tail j is the straight phase path t -> g exp(t zeta_j),
    zeta_j = log(g^{-1} g_j), with momentum growing linearly from mu to mu_j;
    the 4n tails of every point are integrated as one batch.  The right-hand
    side pairs the generator of xi with the body images of the 2n chart
    directions through ``model.omega``, one stacked call over every point.
    """
    cover, n, step = model.cover, model.n, _FD_STEP
    g, mu, xi = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (z.g, z.mu, xi))
    if not g.shape == mu.shape == xi.shape == (len(g), n):
        raise InputError(f"z.g, z.mu and xi need one row of {n} each, got {g.shape}, {mu.shape}, {xi.shape}")
    points = len(g)

    # displaced targets in the order (+g, -g) for each chart direction, then
    # (+mu, -mu) likewise, so consecutive rows form the central differences
    shifts = np.repeat(step * np.eye(n), 2, axis=0) * np.tile([1.0, -1.0], n)[:, None]
    zero = np.zeros_like(shifts)
    starts_g, starts_mu = np.repeat(g, 4 * n, axis=0), np.repeat(mu, 4 * n, axis=0)
    g_targets = starts_g + np.tile(np.vstack([shifts, zero]), (points, 1))
    mu_targets = starts_mu + np.tile(np.vstack([zero, shifts]), (points, 1))
    zetas = cover.multiply(-starts_g, g_targets)
    tails = PhasePath.with_linear_momentum(GroupPath.straight(cover, zetas, base=starts_g), mu_targets, starts_mu)
    integrals = momentum_segments(model, tails).reshape(points, 4 * n, n)
    fd = np.matmul(integrals[:, 0::2] - integrals[:, 1::2], xi[:, :, None])[..., 0] / (2.0 * step)

    # probe a of each point is (body e_a, 0) for a < n and (0, e_{a-n}) after
    body = np.swapaxes(cover.chart_to_body(g), 1, 2)  # row a: body image of e_a
    still, eye = np.zeros_like(body), np.broadcast_to(np.eye(n), body.shape)
    probes = model.tangent(np.concatenate([body, still], axis=1), np.concatenate([still, eye], axis=1))
    at = model.point(g[:, None], mu[:, None])
    rhs = model.omega(at, model.generator(xi[:, None], at), probes)
    errors = np.linalg.norm(fd - rhs, axis=1) / np.maximum(np.linalg.norm(rhs, axis=1), 1e-8)
    return float(errors[0]) if np.ndim(z.g) == 1 else errors
