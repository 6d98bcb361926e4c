"""Cylinder-valued momentum maps and reduced-space cover data.

The holonomy subgroup H of dual-space momentum shifts has a closed closure
H-bar = V + Z-span(Lambda); the cylinder is the quotient of the dual space by
H-bar.  Points are stored by canonical representative: the V component is
removed, lattice coordinates are reduced to [0,1) in the Lambda basis, and the
complement coordinates pass through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import symplectic as _sym
from .errors import InputError, NumericalError
from .groups import GroupPath
from .lattices import (
    AbelianInvariants,
    ClosedSubgroupDecomp,
    LatticeSubgroup,
    quotient_invariants,
    subgroup_is_hamiltonian,
)
from .momentum import PhasePath, momentum_of_path, momentum_segments, sigma_J, theta_integral
from .symplectic import MagneticCotangent

__all__ = [
    "Cylinder",
    "CylinderPoint",
    "K",
    "affine_action",
    "sigma_K",
    "affine_cylinder_action",
    "gamma_mu",
    "deck_group_of_reduced_cover",
    "OrbitDescriptor",
    "orbit_descriptor",
    "heisenberg_casimir",
    "noether_check",
    "reduction_fiber_check",
]


class Cylinder:
    """Quotient of the dual space by a closed subgroup V + Z-span(Lambda)."""

    def __init__(self, decomp: ClosedSubgroupDecomp):
        self.decomp = decomp
        n = decomp.ambient_dim
        self.n = n
        V = np.array([[float(x) for x in v] for v in decomp.subspace_basis], dtype=float)
        L = np.array([[float(x) for x in v] for v in decomp.lattice_basis], dtype=float)
        self.V = V.reshape(len(decomp.subspace_basis), n)
        self.L = L.reshape(len(decomp.lattice_basis), n)
        VL = np.vstack([self.V, self.L])
        if VL.size:
            # complement: right singular vectors past the numerical rank, with
            # the rank cut at max(s) * eps * max(VL.shape)
            _, s, vh = np.linalg.svd(VL, full_matrices=True)
            rank = int(np.sum(s > s.max() * np.finfo(float).eps * max(VL.shape)))
            W = vh[rank:]
        else:
            W = np.eye(n)
        self.W = W.reshape(-1, n)
        basis = np.vstack([self.V, self.L, self.W])
        if basis.shape != (n, n):
            raise InputError("subspace, lattice, and complement do not fill the dual space")
        self._to_coords = np.linalg.inv(basis.T)
        self._nv, self._nl = self.V.shape[0], self.L.shape[0]

    def coords(self, mu) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(subspace, lattice, complement) coordinates of a dual vector, or
        of each row of stacked ones."""
        c = np.asarray(mu, dtype=float) @ self._to_coords.T
        return c[..., : self._nv], c[..., self._nv : self._nv + self._nl], c[..., self._nv + self._nl :]

    def _assemble(self, b, c) -> np.ndarray:
        out = np.zeros(b.shape[:-1] + (self.n,))
        if self._nl:
            out += b @ self.L
        if self.W.shape[0]:
            out += c @ self.W
        return out

    def project(self, mu) -> "CylinderPoint":
        """The point of a dual vector, or one point holding the rows of
        stacked ones."""
        _, b, c = self.coords(mu)
        return CylinderPoint(self, self._assemble(np.mod(b, 1.0), c))

    def distance(self, p: "CylinderPoint", q: "CylinderPoint"):
        """Distance of two points, or row by row of stacked ones."""
        a, b, c = self.coords(p.representative - q.representative)
        b = np.mod(b + 0.5, 1.0) - 0.5
        resid = self._assemble(b, c)
        if self._nv:
            resid = resid + a @ self.V  # should be ~0 for canonical reps
        dist = np.linalg.norm(resid, axis=-1)
        return float(dist) if dist.ndim == 0 else dist


@dataclass(frozen=True)
class CylinderPoint:
    """Canonical representative of a dual vector modulo the closed subgroup."""

    cylinder: Cylinder
    representative: np.ndarray

    def translate(self, mu) -> "CylinderPoint":
        return self.cylinder.project(self.representative + np.asarray(mu, dtype=float))


def K(model: MagneticCotangent, cylinder: Cylinder, x: PhasePath) -> CylinderPoint:
    """Cylinder-valued momentum of the endpoint of x (of each path of a
    batch): project o J; the deck ambiguity of the path shifts J inside H
    and cancels in the quotient."""
    return cylinder.project(momentum_of_path(model, x))


def affine_action(model: MagneticCotangent, g_path: GroupPath, mu) -> np.ndarray:
    """Dual-space affine action Ad*_{g^{-1}} mu + sigma_J(g-path); on a batch
    mu may give one row per path."""
    coad = g_path._shaped(g_path.model.coadjoint_inv_apply(g_path.ends(), mu))
    return coad + sigma_J(model, g_path)


def _check_lift(model: MagneticCotangent, g, lift_path: GroupPath):
    group = model.group
    if np.any(group.distance(group.normalize(lift_path.ends()), group.normalize(g)) > 1e-10):
        raise InputError("lift path does not end over the given group element")


def sigma_K(model: MagneticCotangent, cylinder: Cylinder, g, lift_path: GroupPath) -> CylinderPoint:
    """Projected non-equivariance cocycle; lift-independent because two lifts
    differ by a fundamental-group loop whose sigma_J value lies in H.  A
    batch of lifts takes one row of g per lift."""
    _check_lift(model, g, lift_path)
    return cylinder.project(sigma_J(model, lift_path))


def affine_cylinder_action(
    model: MagneticCotangent,
    cylinder: Cylinder,
    g,
    point: CylinderPoint,
    lift_path: GroupPath,
) -> CylinderPoint:
    """Cylinder affine action: coadjoint part descends because H-bar is
    pointwise fixed, and the cocycle part is sigma_K.  A batch of lifts
    moves one row of ``point`` (and of g) each."""
    _check_lift(model, g, lift_path)
    return cylinder.project(affine_action(model, lift_path, point.representative))


# -- scenario-level reduction data ------------------------------------------


def gamma_mu(scenario, mu) -> LatticeSubgroup:
    """Subgroup of fundamental-group loops whose momentum shift stays in the
    affine-orbit direction space: every loop, for both supported families.
    On the torus the shift of loop e_a is theta column a, which lies in the
    column span that the orbit moves along; on S^1 x R^2 the one central loop
    shifts mu within its Casimir level set."""
    return LatticeSubgroup.standard(scenario.gamma_dim)


def deck_group_of_reduced_cover(scenario, mu, gamma_n: LatticeSubgroup) -> AbelianInvariants:
    """Deck group of the induced cover of the reduced space at mu:
    quotient of gamma_mu by the sum of gamma_n and gamma-prime."""
    if not subgroup_is_hamiltonian(gamma_n, scenario.gamma0):
        raise InputError("not a Hamiltonian cover: gamma_n is not contained in gamma_0")
    g_mu = gamma_mu(scenario, mu)
    merged = gamma_n.sum(scenario.gamma_prime())
    return quotient_invariants(g_mu, merged)


@dataclass(frozen=True)
class OrbitDescriptor:
    """Analytic description of an affine-action orbit in the dual space."""

    kind: str  # "affineSubspace" | "casimirLevelSet"
    basepoint: np.ndarray
    basis: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    casimir_value: float | None = None
    validated_samples: int = 0
    # orthonormal columns spanning the rows of basis (`Scenario.orbit_frame`),
    # which the affine residual projects onto
    frame: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def summary(self) -> str:
        if self.kind == "affineSubspace":
            point = ",".join(f"{x:.6g}" for x in self.basepoint)
            return f"affineSubspace dim={self.basis.shape[0]} through ({point})"
        return f"casimirLevelSet f={self.casimir_value:.12g}"

    def residuals(self, mus) -> np.ndarray:
        """How far each row of ``mus`` is from the orbit: its distance to the
        affine subspace, or its Casimir gap on the level set."""
        mus = np.atleast_2d(np.asarray(mus, dtype=float))
        if self.kind == "affineSubspace":
            diff = mus - self.basepoint
            diff = diff - (diff @ self.frame) @ self.frame.T
            return np.linalg.norm(diff, axis=1)
        sigma = self.basepoint  # stored sigma covector for the level set
        return np.abs(heisenberg_casimir(sigma, mus[:, 0], mus[:, 1:]) - self.casimir_value)

    def contains(self, mu, tol: float = 1e-8) -> bool:
        """Whether ``mu``, one point or every stacked row, lies on the orbit."""
        return bool(np.all(self.residuals(mu) <= tol))


def orbit_descriptor(scenario, mu, rng=None, samples: int = 200) -> OrbitDescriptor:
    """Orbit of mu under the dual-space affine action, with the analytic
    description validated on ``samples`` straight lifts of random directions
    drawn from [-2, 2]^n."""
    mu = np.asarray(mu, dtype=float)
    rng = np.random.default_rng(0) if rng is None else rng
    model = scenario.model
    if scenario.kind == "torus":
        desc = OrbitDescriptor(
            "affineSubspace", mu.copy(), scenario.orbit_basis, validated_samples=samples, frame=scenario.orbit_frame
        )
        bound = 1e-8
    else:
        sigma = np.array([float(s) for s in scenario.theta.sigma])
        value = heisenberg_casimir(sigma, mu[0], mu[1:])
        desc = OrbitDescriptor(
            "casimirLevelSet", sigma, casimir_value=value, validated_samples=samples
        )
        # the Casimir is quadratic in mu, so its rounding gap grows like |mu|^2
        bound = 1e-8 * max(1.0, float(mu @ mu))

    directions = rng.uniform(-2.0, 2.0, (samples, model.n))
    moved = affine_action(model, GroupPath.straight(model.cover, directions), mu)
    if not np.all(desc.residuals(moved) <= bound):
        raise NumericalError("sampled orbit point escaped its analytic description")
    return desc


def heisenberg_casimir(sigma, psi, nu):
    """Casimir f(psi, nu) = psi^2/2 - <w, nu> with w the vector satisfying
    i_w omega = sigma, i.e. w = (sigma_2, -sigma_1); constancy along affine
    orbits pins this convention (the opposite sign fails it).  psi and the
    rows of nu may be stacked."""
    s = np.array([float(x) for x in sigma])
    nu = np.asarray(nu, dtype=float)
    w = np.array([s[1], -s[0]])
    return 0.5 * psi * psi - nu @ w


def _kinetic_field(model: MagneticCotangent) -> tuple[np.ndarray, np.ndarray]:
    """Hamiltonian vector field of h = |mu|^2 / 2 in chart coordinates: the
    A and Q of y' = A y + Q(y, y), Q(y, y)_k = sum Q[k, a, b] y_a y_b.

    omega(X, .) = dh is solved in closed form: the form's block matrix
    [[s C(mu) - Sigma, s I], [-s I, 0]] inverts to xi = s mu and
    nu = s C(mu)^T mu - Sigma^T mu, with s the canonical sign read when the
    field is built.  For y = (g, mu), A holds xi = s mu and -Sigma^T mu; Q
    holds (C(mu)^T mu)_b = sum c^k_ab mu_a mu_k and the chart velocity
    [g, xi] / 2 that a body velocity xi adds to the central coordinates,
    Q[k, a, n + b] = s c^k_ab / 2."""
    s = _sym._CANON_SIGN
    n = model.n
    c = model.cover.structure
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = s * np.eye(n)
    A[n:, n:] = -model.sigma_matrix.T
    Q = np.zeros((2 * n, 2 * n, 2 * n))
    Q[n:, n:, n:] = s * c.transpose(1, 0, 2)
    Q[:n, :n, n:] = 0.5 * s * c.transpose(2, 0, 1)
    return A, Q


# Taylor terms per step; the size, relative to the state, that sets the step; the most steps
_TERMS, _TERM_TOL, _STEP_BUDGET = 30, 1e-16, 1000


def _kinetic_flow(model: MagneticCotangent, y: np.ndarray, T: float) -> np.ndarray:
    """The kinetic flow from the state y = (g, mu) in chart coordinates (or
    from each row of stacked states, as one state) at 0, T/10, ..., T, shape
    (11,) + y.shape, in equal Taylor steps sized by the decay of the last two
    terms at y (Jorba and Zou 2005).  The field is quadratic, so its terms are
    exact: c_{k+1} = (A c_k + sum_{i+j=k} Q(c_i, c_j)) / (k + 1).  A step's
    last term is what one term fewer would miss; summed over the flow it must
    stay within 1e-8 * max(1, largest |state| at the checkpoints)."""
    A, Q = _kinetic_field(model)
    c = np.empty((_TERMS + 1,) + y.shape)

    def expand(y):
        c[0] = y
        for k in range(_TERMS):
            pairs = np.einsum("i...a,i...b->...ab", c[: k + 1], c[k::-1]).reshape(y.shape[:-1] + (-1,))
            c[k + 1] = (c[k] @ A.T + pairs @ Q.reshape(len(A), -1).T) / (k + 1)

    # far from unit scale the terms overflow to inf and NaN, which the rate check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        expand(y)
    last = np.abs(c[-2:]).reshape(2, -1).max(axis=1) / (_TERM_TOL * max(1.0, np.abs(y).max()))
    rate = np.max(last ** (1.0 / np.array([_TERMS - 1, _TERMS])))
    if not T * rate <= _STEP_BUDGET:  # also fails on a NaN rate, from coefficients that overflowed
        raise NumericalError(f"kinetic flow needs more than {_STEP_BUDGET} Taylor steps")
    per = max(1, int(np.ceil(T * rate / 10)))
    powers = (T / (10 * per)) ** np.arange(_TERMS + 1)
    ys, gap = [y], 0.0
    for _ in range(10):
        for _ in range(per):
            expand(y)
            y = (powers @ c.reshape(len(c), -1)).reshape(y.shape)
            gap = gap + powers[-1] * np.abs(c[-1]).max(axis=-1)
        ys.append(y)
    if not np.all(gap <= 1e-8 * np.maximum(1.0, np.abs(ys).max(axis=(0, -1)))):
        raise NumericalError("kinetic flow failed its accuracy check")
    return np.array(ys)


def noether_check(model: MagneticCotangent, cylinder: Cylinder, x: PhasePath, T: float):
    """Max drift of K along the kinetic-Hamiltonian flow started at the
    endpoint of x, read at the 10 checkpoints T/10, 2T/10, ..., T; one drift
    per path of a batch, whose flows are integrated as one stacked state.

    K at time t is project(J(x) + the momentum integral along the flow up to
    t).  J is single-valued on the simply connected cover, so that integral
    depends only on the flow's states at 0 and t, not on the path between
    them: the path through the 11 checkpoint states of the Taylor flow
    gives the same drift as any finer sampling of it, and the running sums
    of its 10 segment integrals give every checkpoint.
    """
    if T < 0:
        raise InputError("flow time must be nonnegative")
    J0 = np.atleast_2d(momentum_of_path(model, x))
    paths, n = len(J0), model.n
    y0 = np.concatenate([x.base.ends(), x.end_momenta()], axis=1)
    states = _kinetic_flow(model, y0, T).transpose(1, 0, 2).reshape(-1, 2 * n)  # path after path
    times = np.tile(np.linspace(0.0, 1.0, 11), paths)
    flow_base = GroupPath.from_samples(model.cover, times, states[:, :n], np.full(paths, 11))
    segments = momentum_segments(model, PhasePath(flow_base, states[:, n:]))
    moved = cylinder.project(J0[:, None, :] + np.cumsum(segments.reshape(paths, 10, n), axis=1))
    drift = cylinder.distance(moved, cylinder.project(J0[:, None, :])).max(axis=1)
    return x.base._shaped(drift)


def reduction_fiber_check(scenario, mu, samples: int = 5, rng=None) -> tuple[float, str]:
    """Sample-level verification that deck loops move momentum-mu paths
    exactly through the coset mu + H and fix the projected phase point.

    Returns the largest distance of a deck-shifted momentum from its exact
    coset point mu + h, and an empty detail; an exact failure returns
    infinity and names it.  The samples are drawn first and evaluated as one
    batch; the exact holonomy tests stay per sample."""
    rng = np.random.default_rng(0) if rng is None else rng
    mu = np.asarray(mu, dtype=float)
    model = scenario.model
    cover, n = model.cover, model.n
    dirs, durs, ks = [], [], []
    for _ in range(samples):
        w = rng.uniform(0.3, 1.0, 2)
        durs.append(w / w.sum())
        dirs.extend(rng.uniform(-1.5, 1.5, n) for _ in w)
        ks.append(scenario.random_loop_coefficients(rng))
    base = GroupPath.from_table(cover, np.array(dirs), np.concatenate(durs), counts=np.full(samples, 2))
    theta_val = theta_integral(cover, model.theta, base)
    # mu_end = Ad_g^T (mu - Theta): coadjoint_inv_apply(h, .) is Ad_{h^{-1}}^T, and g^{-1} = -g
    x = PhasePath.with_linear_momentum(base, cover.coadjoint_inv_apply(-base.ends(), mu - theta_val))
    scale = max(1.0, float(np.linalg.norm(mu)))
    if not np.all(np.linalg.norm(momentum_of_path(model, x) - mu, axis=1) <= 1e-8 * scale):
        raise NumericalError("failed to construct a path with the requested momentum")

    gamma = PhasePath.with_linear_momentum(scenario.loop_path(np.array(ks)), np.zeros(n))
    combined = gamma.concat(x)
    shifted = momentum_of_path(model, combined)
    group = model.group
    ends = [group.normalize(p.ends()) for p in (combined.base, base)]
    same_base = group.distance(*ends) <= 1e-10
    same_fiber = np.linalg.norm(combined.end_momenta() - x.end_momenta(), axis=1) <= 1e-9
    worst_shift = 0.0
    for k, moved, fixed in zip(ks, shifted, same_base & same_fiber):
        h_exact = scenario.holonomy_of(k)
        h_float = np.array([float(v) for v in h_exact])
        worst_shift = float(np.maximum(worst_shift, np.linalg.norm(moved - mu - h_float)))
        if not scenario.decomp.contains_exact(list(h_exact)):
            return np.inf, "holonomy escaped H"
        if not fixed:
            return np.inf, "deck loop moved the projected point"
    return worst_shift, ""
