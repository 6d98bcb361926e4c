"""Concrete Lie group models and piecewise-exponential paths.

Four groups are supported: the torus T^d, its universal cover R^d, the
Heisenberg group H = R x R^2 with multiplication
(a,u)(b,v) = (a + b + w(u,v)/2, u + v) for the standard symplectic form w on
R^2, and the compact quotient S^1 x R^2 (same rule, first coordinate mod 1).
Group elements are flat coordinate arrays in a fixed chart; circle-valued
coordinates are normalized to [0, 1).

Paths carry a constant left-trivialized velocity on each segment, so the left
logarithm of the velocity is exact and every path integrand downstream is
piecewise-analytic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "GroupModel",
    "GroupPath",
    "path_product",
    "concat_paths",
]

_ABELIAN = ("torus", "universal_torus")
_HEISENBERG = ("heisenberg", "central_extension")
_SIMPLY_CONNECTED = ("universal_torus", "heisenberg")

# the standard symplectic form on R^2 used in the Heisenberg multiplication
OMEGA_R2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _omega2(u, v) -> float:
    return u[0] * v[1] - u[1] * v[0]


class GroupModel:
    """One of the supported groups, with chart arithmetic and algebra data."""

    __slots__ = ("kind", "dim")

    def __init__(self, kind: str, dim: int | None = None):
        if kind not in _ABELIAN + _HEISENBERG:
            raise InputError(f"unknown group kind {kind!r}")
        if kind in _HEISENBERG:
            if dim not in (None, 3):
                raise InputError(f"{kind} has dimension 3, got {dim}")
            dim = 3
        else:
            if dim is None or dim < 1:
                raise InputError(f"{kind} needs a positive dimension, got {dim}")
        self.kind = kind
        self.dim = int(dim)

    def __repr__(self):
        return f"GroupModel({self.kind!r}, {self.dim})"

    def __eq__(self, other):
        return (
            isinstance(other, GroupModel)
            and self.kind == other.kind
            and self.dim == other.dim
        )

    def __hash__(self):
        return hash((self.kind, self.dim))

    # -- chart structure ---------------------------------------------------

    @property
    def is_simply_connected(self) -> bool:
        return self.kind in _SIMPLY_CONNECTED

    def circle_mask(self) -> np.ndarray:
        """Boolean mask of the chart coordinates that live on a circle."""
        mask = np.zeros(self.dim, dtype=bool)
        if self.kind == "torus":
            mask[:] = True
        elif self.kind == "central_extension":
            mask[0] = True
        return mask

    def cover(self) -> "GroupModel":
        """The universal cover, sharing this model's chart coordinates."""
        if self.kind == "torus":
            return GroupModel("universal_torus", self.dim)
        if self.kind == "central_extension":
            return GroupModel("heisenberg")
        return self

    def identity(self) -> np.ndarray:
        return np.zeros(self.dim)

    def _check(self, g) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        if g.shape != (self.dim,):
            raise InputError(f"expected element of shape ({self.dim},), got {g.shape}")
        return g

    def normalize(self, g) -> np.ndarray:
        """Canonical chart representative; idempotent."""
        g = self._check(g).copy()
        mask = self.circle_mask()
        if mask.any():
            g[mask] = np.mod(g[mask], 1.0)
        return g

    # -- group operations --------------------------------------------------

    def multiply(self, g, h) -> np.ndarray:
        g, h = self._check(g), self._check(h)
        out = g + h
        if self.kind in _HEISENBERG:
            out[0] += 0.5 * _omega2(g[1:], h[1:])
        return self.normalize(out)

    def multiply_many(self, gs, hs) -> np.ndarray:
        """Row-wise products of stacked elements, normalized; the same
        arithmetic as ``multiply``."""
        gs, hs = np.asarray(gs, dtype=float), np.asarray(hs, dtype=float)
        out = gs + hs
        if self.kind in _HEISENBERG:
            out[:, 0] += 0.5 * (gs[:, 1] * hs[:, 2] - gs[:, 2] * hs[:, 1])
        mask = self.circle_mask()
        if mask.any():
            out[:, mask] = np.mod(out[:, mask], 1.0)
        return out

    def inverse(self, g) -> np.ndarray:
        # (a,u)^{-1} = (-a,-u) also for Heisenberg, since w(u,-u) = 0
        return self.normalize(-self._check(g))

    def exp(self, xi, t: float = 1.0) -> np.ndarray:
        """exp(t xi); the chart is exponential, so this is scaling plus
        normalization (for Heisenberg the BCH series stops at the first term
        along a single direction)."""
        return self.normalize(t * self._check(xi))

    def log(self, g) -> np.ndarray:
        if not self.is_simply_connected:
            raise InputError(f"no global logarithm on {self.kind}")
        return self._check(g).copy()

    def distance(self, g, h) -> float:
        d = self._check(g) - self._check(h)
        mask = self.circle_mask()
        if mask.any():
            d[mask] = np.mod(d[mask] + 0.5, 1.0) - 0.5
        return float(np.linalg.norm(d))

    def equal(self, g, h, tol: float = 1e-10) -> bool:
        return self.distance(g, h) <= tol

    # -- algebra structure -------------------------------------------------

    def bracket(self, xi, eta) -> np.ndarray:
        xi, eta = self._check(xi), self._check(eta)
        out = np.zeros(self.dim)
        if self.kind in _HEISENBERG:
            out[0] = _omega2(xi[1:], eta[1:])
        return out

    def structure_constants(self):
        """c[a][b][k] with [e_a, e_b] = sum_k c[a][b][k] e_k, exact rationals."""
        n = self.dim
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        if self.kind in _HEISENBERG:
            c[1][2][0] = Fraction(1)
            c[2][1][0] = Fraction(-1)
        return c

    def adjoint(self, g) -> np.ndarray:
        g = self._check(g)
        ad = np.eye(self.dim)
        if self.kind in _HEISENBERG:
            # Ad_{(a,u)}(b, z) = (b + w(u,z), z)
            ad[0, 1] = -g[2]
            ad[0, 2] = g[1]
        return ad

    def coadjoint_inv(self, g) -> np.ndarray:
        """Matrix of mu -> Ad*_{g^{-1}} mu,
        defined by <Ad*_{g^{-1}} mu, xi> = <mu, Ad_{g^{-1}} xi>."""
        return self.adjoint(self.inverse(g)).T

    def coadjoint_inv_apply(self, gs, mus) -> np.ndarray:
        """Row-wise Ad*_{g^{-1}} mu for stacked elements and covectors."""
        gs = np.atleast_2d(np.asarray(gs, dtype=float))
        mus = np.atleast_2d(np.asarray(mus, dtype=float))
        if self.kind in _ABELIAN:
            return mus.copy()
        out = mus.copy()
        psi = mus[:, 0]
        out[:, 1] += psi * gs[:, 2]
        out[:, 2] -= psi * gs[:, 1]
        return out


class GroupPath:
    """Piecewise-exponential path on [0,1]: on segment k the path is
    node_k * exp((t - t_k) direction_k), continuous by construction.

    Segment durations must sum to 1 within 1e-12.  Instances are treated as
    immutable after construction.
    """

    __slots__ = ("model", "directions", "durations", "base", "times", "nodes")

    def __init__(self, model: GroupModel, segments, base=None):
        segments = list(segments)
        for direction, _ in segments:
            if np.shape(direction) != (model.dim,):
                raise InputError(f"segment direction shape {np.shape(direction)} != ({model.dim},)")
        directions = np.array([d for d, _ in segments], dtype=float).reshape(-1, model.dim)
        durations = np.array([w for _, w in segments], dtype=float)
        self._setup(model, directions, durations, base)

    @classmethod
    def _of_arrays(cls, model: GroupModel, directions, durations, base=None) -> "GroupPath":
        """Path from stacked ``(segments, dim)`` directions and durations."""
        path = cls.__new__(cls)
        path._setup(model, directions, durations, base)
        return path

    def _setup(self, model: GroupModel, directions, durations, base):
        if len(durations) == 0:
            raise InputError("a path needs at least one segment")
        if np.any(durations <= 0):
            raise InputError(f"segment duration {durations[durations <= 0][0]} is not positive")
        if abs(durations.sum() - 1.0) > 1e-12:
            raise InputError(f"durations sum to {durations.sum()}, expected 1")
        self.model = model
        self.directions = directions
        self.durations = durations
        self.base = model.identity() if base is None else model.normalize(base)

        times = np.concatenate([[0.0], np.cumsum(durations)])
        times[-1] = 1.0
        self.times = times
        # node_{k+1} = node_k * exp(duration_k direction_k): in the exponential
        # chart the product is a running sum, plus for Heisenberg the central
        # term w(u_k, step_k)/2 with u_k the plane part of node_k
        steps = durations[:, None] * directions
        nodes = np.cumsum(np.vstack([self.base, steps]), axis=0)
        if model.kind in _HEISENBERG:
            u = nodes[:-1, 1:]
            nodes[1:, 0] += np.cumsum(0.5 * (u[:, 0] * steps[:, 2] - u[:, 1] * steps[:, 1]))
        mask = model.circle_mask()
        if mask.any():
            nodes[:, mask] = np.mod(nodes[:, mask], 1.0)
        self.nodes = nodes

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls, model: GroupModel, base=None) -> "GroupPath":
        return cls(model, [(np.zeros(model.dim), 1.0)], base)

    @classmethod
    def straight(cls, model: GroupModel, xi, base=None) -> "GroupPath":
        return cls(model, [(np.asarray(xi, dtype=float), 1.0)], base)

    @classmethod
    def from_samples(cls, model: GroupModel, ts, gs) -> "GroupPath":
        """Interpolating path: one exponential segment between consecutive
        samples, hitting every sample exactly.  Needs a global logarithm."""
        ts = np.asarray(ts, dtype=float)
        gs = np.asarray(gs, dtype=float)
        if abs(ts[0]) > 1e-12 or abs(ts[-1] - 1.0) > 1e-12 or np.any(np.diff(ts) <= 0):
            raise InputError("sample times must increase from 0 to 1")
        if gs.shape != (len(ts), model.dim):
            raise InputError(f"expected samples of shape ({len(ts)}, {model.dim}), got {gs.shape}")
        if not model.is_simply_connected:
            raise InputError(f"no global logarithm on {model.kind}")
        # g_i^{-1} g_{i+1}, whose logarithm is itself in the exponential chart
        dts = np.diff(ts)
        steps = model.multiply_many(-gs[:-1], gs[1:])
        return cls._of_arrays(model, steps / dts[:, None], dts, gs[0])

    # -- evaluation --------------------------------------------------------

    def segment_index(self, ts) -> np.ndarray:
        """Index of the segment holding each parameter, clipped into range."""
        ks = np.searchsorted(self.times, np.clip(ts, 0.0, 1.0), side="right") - 1
        return np.clip(ks, 0, len(self.durations) - 1)

    def _segment_of(self, t: float) -> int:
        if t < -1e-12 or t > 1.0 + 1e-12:
            raise InputError(f"path parameter {t} outside [0, 1]")
        return int(self.segment_index(t))

    def evaluate(self, t: float) -> np.ndarray:
        k = self._segment_of(t)
        step = self.model.exp(self.directions[k], t - self.times[k])
        return self.model.multiply(self.nodes[k], step)

    def evaluate_many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < -1e-12) or np.any(ts > 1.0 + 1e-12):
            raise InputError("path parameters outside [0, 1]")
        ks = self.segment_index(ts)
        s = (ts - self.times[ks])[:, None]
        return self.model.multiply_many(self.nodes[ks], s * self.directions[ks])

    def left_velocity(self, t: float) -> np.ndarray:
        return self.directions[self._segment_of(t)].copy()

    def endpoint(self) -> np.ndarray:
        return self.nodes[-1].copy()

    def is_loop(self, tol: float = 1e-10) -> bool:
        return self.model.equal(self.endpoint(), self.base, tol)

    # -- derived paths -----------------------------------------------------

    def left_translate(self, g) -> "GroupPath":
        """h(t) = g * self(t); left-trivialized velocity is unchanged."""
        return GroupPath._of_arrays(
            self.model, self.directions, self.durations, self.model.multiply(g, self.base)
        )

    def reversed(self) -> "GroupPath":
        return GroupPath._of_arrays(
            self.model, -self.directions[::-1], self.durations[::-1], self.endpoint()
        )

    def __repr__(self):
        return f"GroupPath({self.model!r}, {len(self.durations)} segments)"


def _refined_grid(p: GroupPath, q: GroupPath, doublings: int) -> np.ndarray:
    grid = np.union1d(p.times, q.times)
    pieces = [grid]
    target = 32 * (2**doublings)
    splits = max(1, -(-target // (len(grid) - 1)))  # per-interval subdivisions
    for f in range(1, splits):
        pieces.append(grid[:-1] + np.diff(grid) * (f / splits))
    return np.unique(np.concatenate(pieces))


def path_product(p: GroupPath, q: GroupPath) -> GroupPath:
    """Piecewise-exponential representative of t -> p(t) q(t).

    Both paths must be based at the identity of the same simply connected
    model.  The pointwise product is resampled on the union of breakpoints
    refined to at least 32 sub-intervals, each step re-expressed through the
    left logarithm; an endpoint mismatch above 1e-10 doubles the refinement,
    at most 4 times.
    """
    model = p.model
    if q.model != model:
        raise InputError("path_product needs paths in the same model")
    if not model.is_simply_connected:
        raise InputError("path_product is defined on universal-cover models")
    zero = model.identity()
    if not (model.equal(p.base, zero) and model.equal(q.base, zero)):
        raise InputError("path_product needs identity-based paths")

    target = model.multiply(p.endpoint(), q.endpoint())
    for doublings in range(5):
        ts = _refined_grid(p, q, doublings)
        prods = model.multiply_many(p.evaluate_many(ts), q.evaluate_many(ts))
        out = GroupPath.from_samples(model, ts, prods)
        if model.distance(out.endpoint(), target) <= 1e-10:
            return out
    raise NumericalError("path_product endpoint tolerance not met after 4 doublings")


def concat_paths(p: GroupPath, q: GroupPath, split: float = 0.5) -> GroupPath:
    """First traverse p on [0, split], then q on [split, 1].

    q is deck-translated so its start matches p's endpoint exactly; the inputs
    must already agree there up to that translation for the result to
    represent concatenation in the base group.
    """
    if not 0.0 < split < 1.0:
        raise InputError(f"split {split} outside (0, 1)")
    model = p.model
    if q.model != model:
        raise InputError("concat_paths needs paths in the same model")
    shift = model.multiply(p.endpoint(), model.inverse(q.base))
    q2 = q.left_translate(shift)
    # compressing a leg into a shorter parameter window scales its velocity up
    # so each segment still covers the same arc
    directions = np.vstack([p.directions / split, q2.directions / (1.0 - split)])
    durations = np.concatenate([p.durations * split, q2.durations * (1.0 - split)])
    return GroupPath._of_arrays(model, directions, durations, p.base)
