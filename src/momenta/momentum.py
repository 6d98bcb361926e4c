"""Momentum maps on the universal cover of a magnetic cotangent bundle.

The momentum value of a homotopy class is the line integral of the contraction
of the symplectic form with the infinitesimal generators along any
representing path from the base point z0 = (e, 0).  This module provides that
quadrature, the group cocycle integral Theta with its Heisenberg closed form,
the closed-form momentum map, an independent transport oracle, the
non-equivariance cocycle, and a finite-difference validator for the momentum
condition.

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
from .groups import GroupModel, GroupPath, concat_paths, path_product
from .numerics import adaptive_path_quadrature
from .symplectic import CocycleTheta, MagneticCotangent, PhasePoint

__all__ = [
    "PhasePath",
    "theta_integral",
    "theta_closed_form_heisenberg",
    "momentum_of_path",
    "momentum_segments",
    "momentum_closed_form",
    "horizontal_transport",
    "sigma_J",
    "lifted_action_on_path",
    "verify_momentum_condition",
]


class PhasePath:
    """Path in T*G: a group path plus a piecewise-linear momentum curve
    sampled at the group path's breakpoints."""

    __slots__ = ("base", "momenta", "slopes")

    def __init__(self, base: GroupPath, momenta):
        momenta = np.asarray(momenta, dtype=float)
        expected = (len(base.times), base.model.dim)
        if momenta.shape != expected:
            raise InputError(f"momentum samples must have shape {expected}, got {momenta.shape}")
        self.base = base
        self.momenta = momenta
        self.slopes = np.diff(momenta, axis=0) / base.durations[:, None]

    @classmethod
    def with_linear_momentum(cls, base: GroupPath, mu_end, mu_start=None) -> "PhasePath":
        n = base.model.dim
        mu0 = np.zeros(n) if mu_start is None else np.asarray(mu_start, dtype=float)
        mu1 = np.asarray(mu_end, dtype=float)
        return cls(base, mu0 + base.times[:, None] * (mu1 - mu0))

    @classmethod
    def to_point(cls, model: MagneticCotangent, g, mu) -> "PhasePath":
        """Standard representative from z0 to (g, mu): one exponential segment
        with linearly growing momentum."""
        cover = model.cover
        base = GroupPath.straight(cover, cover.log(np.asarray(g, dtype=float)))
        return cls.with_linear_momentum(base, mu)

    def momentum_many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        ks = self.base.segment_index(ts)
        s = (ts - self.base.times[ks])[:, None]
        return self.momenta[ks] + s * self.slopes[ks]

    def momentum_at(self, t: float) -> np.ndarray:
        return self.momentum_many(np.array([t]))[0]

    def endpoint(self) -> PhasePoint:
        return PhasePoint(self.base.endpoint(), self.momenta[-1].copy())

    def concat(self, other: "PhasePath", split: float = 0.5) -> "PhasePath":
        base = concat_paths(self.base, other.base, split)
        momenta = np.vstack([self.momenta, other.momenta[1:]])
        return PhasePath(base, momenta)


def _require_identity_based(p: GroupPath):
    if not p.model.equal(p.base, p.model.identity(), 1e-12):
        raise InputError("path must be based at the identity")


def _coadjoint_integrand(model: GroupModel, matrix, gs, velocities) -> np.ndarray:
    """Row-wise Ad*_{g^{-1}} (matrix @ left velocity): the integrand of Theta
    and sigma_J."""
    return model.coadjoint_inv_apply(gs, velocities @ matrix.T)


def _coadjoint_integral(p: GroupPath, matrix) -> np.ndarray:
    """Integral of Ad*_{g(t)^{-1}} (matrix @ left velocity) dt along p."""

    def integrand(ts):
        velocities = p.directions[p.segment_index(ts)]
        return _coadjoint_integrand(p.model, matrix, p.evaluate_many(ts), velocities)

    return adaptive_path_quadrature(integrand, p.times).sum(axis=0)


def theta_integral(model: GroupModel, theta: CocycleTheta, p: GroupPath) -> np.ndarray:
    """Theta(p) = integral of Ad*_{g(t)^{-1}} theta(left velocity) dt."""
    if theta.dim != model.dim or p.model.dim != model.dim:
        raise InputError("theta, model, and path dimensions must agree")
    _require_identity_based(p)
    return _coadjoint_integral(p, theta.float_matrix())


def theta_closed_form_heisenberg(model: GroupModel, sigma, endpoint) -> np.ndarray:
    """Theta at (alpha, u): (sigma(u); -alpha sigma - sigma(u)/2 * i_u w),
    with the row-covector convention i_u w = (-u2, u1)."""
    if model.kind not in ("heisenberg", "central_extension"):
        raise InputError(f"closed form is specific to the Heisenberg family, not {model.kind}")
    s = np.array([float(x) for x in sigma])
    alpha, u = float(endpoint[0]), np.asarray(endpoint[1:], dtype=float)
    su = float(s @ u)
    iota = np.array([-u[1], u[0]])
    return np.concatenate([[su], -alpha * s - 0.5 * su * iota])


def _phase_kinematics(x: PhasePath, ts):
    """Velocity data (g, mu, xi-dot, nu-dot) at arbitrary parameters."""
    ks = x.base.segment_index(ts)
    return x.base.evaluate_many(ts), x.momentum_many(ts), x.base.directions[ks], x.slopes[ks]


def _momentum_rows(model: MagneticCotangent, gs, mus, xid, nud) -> np.ndarray:
    """Momentum-map integrand with the canonical sign frozen at +1, row-wise
    over stacked kinematics: Ad*_{g^{-1}} (nu-dot + (C(mu) - Sigma) xi-dot)."""
    covs = nud + np.einsum("abk,tk,tb->ta", model._structure, mus, xid) - xid @ model.sigma_matrix.T
    return model.cover.coadjoint_inv_apply(gs, covs)


def _derived_integrand(model: MagneticCotangent, x: PhasePath):
    """The momentum-map integrand along x, as a function of the parameter."""
    return lambda ts: _momentum_rows(model, *_phase_kinematics(x, ts))


def _check_phase_path(model: MagneticCotangent, x: PhasePath, at_base: bool):
    if x.base.model != model.cover:
        raise InputError("phase paths must live on the universal-cover model")
    if at_base:
        _require_identity_based(x.base)
        if np.linalg.norm(x.momenta[0]) > 1e-12:
            raise InputError("path must start at the base point (e, 0)")


def momentum_segments(model: MagneticCotangent, x: PhasePath) -> np.ndarray:
    """Momentum integral over each segment of x, shape (segments, n); x may
    start anywhere.  The integral is additive over concatenation and does not
    depend on the parametrisation, so partial sums give it along sub-paths."""
    _check_phase_path(model, x, at_base=False)
    return adaptive_path_quadrature(_derived_integrand(model, x), x.base.times)


def momentum_of_path(model: MagneticCotangent, x: PhasePath) -> np.ndarray:
    """J of the homotopy class represented by x, normalized so the trivial
    class maps to 0; exact quadrature of the generator contraction."""
    _check_phase_path(model, x, at_base=True)
    return momentum_segments(model, x).sum(axis=0)


def momentum_closed_form(model: MagneticCotangent, g_path: GroupPath, mu) -> np.ndarray:
    """Ad*_{g^{-1}} mu + Theta(g_path) for g the endpoint of g_path."""
    _require_identity_based(g_path)
    mu = np.asarray(mu, dtype=float)
    g = g_path.endpoint()
    return g_path.model.coadjoint_inv(g) @ mu + theta_integral(g_path.model, model.theta, g_path)


def _simpson_sweeps(vals, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Simpson integrals of 4 m + 1 equally spaced rows h / 4
    apart: the coarse sweep over m panels of width h reads the even-indexed
    rows, the fine sweep over 2 m panels of width h / 2 reads them all."""

    def simpson(v, width):
        return (width / 6.0) * (v[0:-1:2].sum(axis=0) + 4.0 * v[1::2].sum(axis=0) + v[2::2].sum(axis=0))

    return simpson(vals[::2], h), simpson(vals, 0.5 * h)


def horizontal_transport(model: MagneticCotangent, x: PhasePath) -> np.ndarray:
    """Transport oracle: integrate the horizontality condition
    <mu-dot, e_i> = omega(e_i-generator, x-dot) from (z0, 0) with a classical
    4th-order step, Richardson-checked at half the step.

    The right-hand side does not involve the transported variable, so the RK4
    update collapses exactly to a composite Simpson rule per step.  On a
    segment of length w the integrand is evaluated once, on a grid of
    4 steps + 1 points with steps = ceil(1024 w): the coarse sweep (steps
    panels, step <= 1/1024) reads the even-indexed points, the fine sweep
    (2 steps panels, step <= 1/2048) reads them all.  Each point is
    evaluated from its own segment's node, direction and momentum slope, so
    kinks never leak into a panel.

    Both sweeps are exact up to rounding on these integrands, and rounding
    grows with the size of the data, so they must agree to 1e-10 times the
    largest of the integrand's values, the momenta and Sigma times each
    velocity, and never less than 1e-7.  The form enters through the
    symplectic module's current sign, keeping this oracle independent of the
    derived quadrature integrand.
    """
    _check_phase_path(model, x, at_base=True)
    s = _sym._CANON_SIGN
    struct, sig = model._structure, model.sigma_matrix
    base = x.base
    coarse, fine = np.zeros(model.n), np.zeros(model.n)
    size = max(float(np.abs(x.momenta).max()), float(np.abs(base.directions @ sig.T).max()))
    for k, w in enumerate(base.durations):
        steps = max(1, int(np.ceil(w * 1024)))
        h = w / steps
        offsets = (0.25 * h * np.arange(4 * steps + 1))[:, None]
        xid, nud = base.directions[k], x.slopes[k]
        nodes = np.broadcast_to(base.nodes[k], (len(offsets), model.n))
        # the velocity is constant on the segment, so the bracket term is
        # one matrix applied to every momentum row
        bracket = s * np.einsum("abk,b->ak", struct, xid)
        covs = (x.momenta[k] + offsets * nud) @ bracket.T + (s * nud - sig @ xid)
        vals = base.model.coadjoint_inv_apply(base.model.multiply_many(nodes, offsets * xid), covs)
        size = max(size, float(np.abs(vals).max()))
        c, f = _simpson_sweeps(vals, h)
        coarse += c
        fine += f
    gap = float(np.max(np.abs(fine - coarse)))
    if gap > max(1e-7, 1e-10 * size):
        raise NumericalError(f"transport Richardson check failed: step halving moved result by {gap:.3e}")
    return fine


def sigma_J(model: MagneticCotangent, g_path: GroupPath) -> np.ndarray:
    """Non-equivariance cocycle: quadrature of the base-point Chu form
    contracted with Ad_{g(t)^{-1}} basis directions and the path velocity."""
    if g_path.model != model.cover:
        raise InputError("cocycle paths must live on the universal-cover model")
    _require_identity_based(g_path)
    return _coadjoint_integral(g_path, model.chu_at_base())


def lifted_action_on_path(g_path: GroupPath, x: PhasePath) -> PhasePath:
    """Pointwise action t -> g(t) x(t): product base path, body momentum curve
    carried over unchanged (resampled on the product's breakpoints)."""
    product = path_product(g_path, x.base)
    return PhasePath(product, x.momentum_many(product.times))


def _chart_to_body(model: GroupModel, g) -> np.ndarray:
    """Matrix taking chart-coordinate displacements at g to body-frame
    velocities; identity for abelian charts."""
    T = np.eye(model.dim)
    if model.kind in ("heisenberg", "central_extension"):
        T[0, 1] = 0.5 * g[2]
        T[0, 2] = -0.5 * g[1]
    return T


def _straight_tails(model: MagneticCotangent, g, mu, g_targets, mu_targets) -> np.ndarray:
    """Momentum integrals along straight tails from (g, mu), one per row of
    the targets, shape (tails, n).  Tail j is t -> g exp(t zeta_j) with
    zeta_j = log(g^{-1} g_j) and momentum mu + t (mu_j - mu); one quadrature
    call integrates them all."""
    cover, n = model.cover, model.n
    zetas = cover.multiply_many(np.broadcast_to(-g, g_targets.shape), g_targets)
    nuds = mu_targets - mu
    tails = len(zetas)

    def integrand(ts):
        offsets = (ts[:, None, None] * zetas).reshape(-1, n)
        gs = cover.multiply_many(np.broadcast_to(g, offsets.shape), offsets)
        mus = (mu + ts[:, None, None] * nuds).reshape(-1, n)
        xid, nud = np.tile(zetas, (len(ts), 1)), np.tile(nuds, (len(ts), 1))
        return _momentum_rows(model, gs, mus, xid, nud).reshape(len(ts), tails * n)

    return adaptive_path_quadrature(integrand, [0.0, 1.0])[0].reshape(tails, n)


def verify_momentum_condition(model: MagneticCotangent, z: PhasePoint, xi, step: float = 1e-4) -> float:
    """Max relative error of the momentum condition at z: central finite
    differences of the momentum integral along the 2n chart directions against
    the symplectic pairing with the generator of xi.

    Displaced evaluations share the whole path up to z, so only the short
    tail from z contributes to each difference and trunk quadrature cancels
    identically; the 4n straight tails are integrated together.
    """
    cover = model.cover
    n = model.n
    xi = np.asarray(xi, dtype=float)
    g = np.asarray(z.g, dtype=float)
    mu = np.asarray(z.mu, dtype=float)

    # displaced targets in the order (+g, -g) for each chart direction, then
    # (+mu, -mu) likewise, so consecutive rows form the central differences
    shifts = np.repeat(step * np.eye(n), 2, axis=0) * np.tile([1.0, -1.0], n)[:, None]
    zero = np.zeros_like(shifts)
    g_targets, mu_targets = g + np.vstack([shifts, zero]), mu + np.vstack([zero, shifts])
    integrals = _straight_tails(model, g, mu, g_targets, mu_targets)
    fd = (integrals[0::2] - integrals[1::2]) @ xi / (2.0 * step)

    rhs = np.empty(2 * n)
    gen = model.generator(xi, z)
    body = _chart_to_body(cover, g)
    for a in range(n):
        e = np.eye(n)[a]
        rhs[a] = model.omega(z, gen, model.tangent(body @ e, np.zeros(n)))
        rhs[n + a] = model.omega(z, gen, model.tangent(np.zeros(n), e))

    denom = max(float(np.linalg.norm(rhs)), 1e-8)
    return float(np.linalg.norm(fd - rhs)) / denom
