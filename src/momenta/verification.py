"""Seeded verification checks over a scenario.

Every check draws its own generator from (seed, crc32(check name)), so
neither the set of checks run nor their order can change the sampled data.
A numerical failure inside a check is reported as a failed CheckReport,
never as a crash.

Checks draw, then evaluate.  A check takes all of its samples' random
numbers in one generator call, in the order a per-sample loop would take
them: ``Scenario.draw_paths`` for paths (only the Scenario knows where a
path's numbers sit in the stream), ``_uniform`` for points.  So the streams
and where they end do not depend on how the samples are evaluated.  Draws
that interleave bounded integers go sample by sample
(``Scenario.draw_phase_and_loops``, ``reduction_fiber``).  A check then
evaluates its samples as one batch, with one call per kernel (a batch of
paths is one GroupPath or PhasePath), and reports the largest error over
the batch.  A NumericalError on any sample fails the whole check
with maxError infinity, as it did when the first failing sample stopped a
loop.  Errors over settings are combined with ``np.maximum``, which keeps a
NaN, and a NaN max error also fails the check with maxError infinity.

No check loops over its samples.  The group and form checks (``group_*``,
``adjoint_homomorphism``, ``omega_*``) and ``cylinder_homomorphism`` call
the same ``multiply``, ``omega`` and ``project`` that serve one element, on
all samples stacked in rows.  Loops stay only over settings: ``muList``
entries and the two group models (compact chart and universal cover).  The
exact holonomy tests of ``reduction_fiber`` run per sample, in exact
arithmetic.

Stated tolerances assume the default config tolerance 1e-8; a looser or
tighter config tolerance rescales every check proportionally.
"""

from __future__ import annotations

import logging
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import cylinder as cyl
from .errors import InputError, NumericalError
from .groups import GroupPath, path_product
from .lattices import LatticeSubgroup
from .momentum import (
    PhasePath,
    horizontal_transport,
    lifted_action_on_path,
    momentum_closed_form,
    momentum_of_path,
    sigma_J,
    theta_closed_form,
    verify_momentum_condition,
)

__all__ = ["CheckReport", "CheckSpec", "registry", "run_checks", "check_rng"]

log = logging.getLogger("momenta.verification")

_BASE_TOL = 1e-8  # config tolerance that leaves stated check tolerances as-is


@dataclass(frozen=True)
class CheckReport:
    check_name: str
    max_error: float
    tolerance: float
    passed: bool
    sample_count: int
    notes: str = ""
    # wall time of the runner; kept out of to_dict so that the numeric
    # section of a report stays deterministic (analyze puts it in the header)
    duration_seconds: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        return {
            "checkName": self.check_name,
            "maxError": self.max_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "sampleCount": self.sample_count,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class CheckSpec:
    name: str
    tolerance: float
    runner: Callable
    applies: Callable = staticmethod(lambda sc: True)


def check_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


# -- samplers ----------------------------------------------------------------


def _worst(gaps) -> float:
    """Largest row norm of stacked gaps."""
    return float(np.linalg.norm(gaps, axis=-1).max())


def _uniform(rng, samples, n, *ranges) -> np.ndarray:
    """``samples`` draws of one n-vector from each (low, high) of ``ranges``
    in turn, as one block: the numbers a per-sample loop of ``uniform``
    calls takes, in its generator order.  One (samples, n) block per range."""
    lows, highs = np.array(ranges, dtype=float).T[:, :, None]
    return rng.uniform(lows, highs, (samples, len(ranges), n)).transpose(1, 0, 2)


# ranges of a random phase point (g, mu) and of a random tangent (xi, nu)
_POINT = ((-0.5, 0.5), (-1.5, 1.5))
_TANGENT = ((-1.0, 1.0), (-1.0, 1.0))


def _phase_points(sc, g, mu):
    return sc.model.point(sc.group.normalize(g), mu)


# -- check runners: (scenario, rng, samples) -> (max_error, used, notes) -----


def _chk_group_associativity(sc, rng, samples):
    worst = 0.0
    for model in (sc.group, sc.cover):
        a, b, c = _uniform(rng, samples, sc.n, *[(-3.0, 3.0)] * 3)
        lhs = model.multiply(model.multiply(a, b), c)
        rhs = model.multiply(a, model.multiply(b, c))
        worst = float(np.maximum(worst, model.distance(lhs, rhs).max()))
    return worst, 2 * samples, "compact chart and universal cover"


def _chk_group_exp_log(sc, rng, samples):
    xi = rng.uniform(-3.0, 3.0, (samples, sc.n))
    return _worst(sc.cover.log(sc.cover.exp(xi)) - xi), samples, ""


def _chk_adjoint_homomorphism(sc, rng, samples):
    worst = 0.0
    for model in (sc.group, sc.cover):
        g, h = (model.normalize(x) for x in _uniform(rng, samples, sc.n, *[(-2.0, 2.0)] * 2))
        gap = model.adjoint(model.multiply(g, h)) - model.adjoint(g) @ model.adjoint(h)
        worst = float(np.maximum(worst, np.abs(gap).max()))
    return worst, 2 * samples, ""


def _chk_path_product_endpoint(sc, rng, samples):
    used = min(samples, 25)
    p, q = sc.draw_paths(rng, used, "cover", "cover")
    want = sc.cover.multiply(p.ends(), q.ends())
    return _worst(path_product(p, q).ends() - want), used, ""


def _chk_omega_antisymmetry(sc, rng, samples):
    g, mu, xi1, nu1, xi2, nu2 = _uniform(rng, samples, sc.n, *_POINT, *_TANGENT, *_TANGENT)
    z, v1, v2 = _phase_points(sc, g, mu), sc.model.tangent(xi1, nu1), sc.model.tangent(xi2, nu2)
    return float(np.abs(sc.model.omega(z, v1, v2) + sc.model.omega(z, v2, v1)).max()), samples, ""


def _chk_omega_nondegenerate(sc, rng, samples):
    z = _phase_points(sc, *_uniform(rng, samples, sc.n, *_POINT))
    min_det = float(np.abs(np.linalg.det(sc.model.omega_matrix(z))).min())
    return max(0.0, 1e-8 - min_det), samples, f"min |det Omega| = {min_det:.3e}"


def _chk_omega_left_invariance(sc, rng, samples):
    g, mu, h, xi1, nu1, xi2, nu2 = _uniform(rng, samples, sc.n, *_POINT, (-2.0, 2.0), *_TANGENT, *_TANGENT)
    z, h = _phase_points(sc, g, mu), sc.group.normalize(h)
    moved = sc.model.point(sc.group.multiply(h, z.g), z.mu)
    v1, v2 = sc.model.tangent(xi1, nu1), sc.model.tangent(xi2, nu2)
    gap = sc.model.omega(z, v1, v2) - sc.model.omega(moved, v1, v2)
    return float(np.abs(gap).max()), samples, "body-frame form is base-point independent"


def _chk_momentum_closed_form(sc, rng, samples):
    (x,) = sc.draw_paths(rng, samples, "phase")
    got = momentum_of_path(sc.model, x)
    want = momentum_closed_form(sc.model, x.base, x.end_momenta())
    return _worst(got - want), samples, "quadrature vs endpoint closed form"


def _chk_momentum_transport(sc, rng, samples):
    (x,) = sc.draw_paths(rng, samples, "phase")
    gap = momentum_of_path(sc.model, x) - horizontal_transport(sc.model, x)
    return _worst(gap), samples, "quadrature vs flat-connection transport"


def _phase_and_loop(sc, rng, used):
    """Phase paths x and, drawn after each, deck loops gamma from the base
    point."""
    x, ks = sc.draw_phase_and_loops(rng, used)
    return x, PhasePath.with_linear_momentum(sc.loop_path(ks), np.zeros(sc.n))


def _chk_momentum_additivity(sc, rng, samples):
    used = min(samples, 50)
    x, gamma = _phase_and_loop(sc, rng, used)
    lhs = momentum_of_path(sc.model, gamma.concat(x))
    rhs = momentum_of_path(sc.model, gamma) + momentum_of_path(sc.model, x)
    return _worst(lhs - rhs), used, "deck-loop additivity"


def _chk_momentum_equivariance(sc, rng, samples):
    used = min(samples, 50)
    g_path, x = sc.draw_paths(rng, used, "cover", "phase")
    lhs = momentum_of_path(sc.model, lifted_action_on_path(g_path, x))
    coad = sc.cover.coadjoint_inv_apply(g_path.ends(), momentum_of_path(sc.model, x))
    rhs = coad + sigma_J(sc.model, g_path)
    return _worst(lhs - rhs), used, ""


def _chk_momentum_condition(sc, rng, samples):
    used = min(samples, 50)
    g, mu, xi = _uniform(rng, used, sc.n, *_POINT, (-1.0, 1.0))
    errors = verify_momentum_condition(sc.model, _phase_points(sc, g, mu), xi)
    return float(errors.max()), used, "finite-difference momentum condition"


def _chk_cocycle_matches_theta(sc, rng, samples):
    used = min(samples, 50)
    (p,) = sc.draw_paths(rng, used, "cover")
    gap = sigma_J(sc.model, p) - theta_closed_form(sc.cover, sc.theta, p.ends())
    return _worst(gap), used, "cotangent-lift cocycle equals the magnetic term"


def _cocycle_sides(sc, rng, used):
    """For pairs (p, q) of cover paths: the product path pq and the right
    side sigma_J(p) + Ad*_{p^{-1}} sigma_J(q) of the cocycle identity."""
    p, q = sc.draw_paths(rng, used, "cover", "cover")
    rhs = sigma_J(sc.model, p) + sc.cover.coadjoint_inv_apply(p.ends(), sigma_J(sc.model, q))
    return path_product(p, q), rhs


def _chk_cocycle_identity(sc, rng, samples):
    used = min(samples, 50)
    pq, rhs = _cocycle_sides(sc, rng, used)
    return _worst(sigma_J(sc.model, pq) - rhs), used, ""


def _chk_cocycle_flat_vanishes(sc, rng, samples):
    used = min(samples, 25)
    (p,) = sc.draw_paths(rng, used, "cover")
    return _worst(sigma_J(sc.model, p)), used, "Sigma = 0 forces an equivariant momentum map"


def _chk_cylinder_homomorphism(sc, rng, samples):
    c = sc.cylinder
    a, b = _uniform(rng, samples, sc.n, *[(-5.0, 5.0)] * 2)
    return float(c.distance(c.project(a + b), c.project(a).translate(b)).max()), samples, ""


def _chk_cylinder_K_path_independence(sc, rng, samples):
    used = min(samples, 50)
    x, gamma = _phase_and_loop(sc, rng, used)
    a = cyl.K(sc.model, sc.cylinder, x)
    b = cyl.K(sc.model, sc.cylinder, gamma.concat(x))
    return float(sc.cylinder.distance(a, b).max()), used, "deck-shifted representatives agree in the cylinder"


def _chk_cylinder_equivariance(sc, rng, samples):
    g_path, x = sc.draw_paths(rng, samples, "cover", "phase")
    lhs = cyl.K(sc.model, sc.cylinder, lifted_action_on_path(g_path, x))
    rhs = sc.cylinder.project(cyl.affine_action(sc.model, g_path, cyl.K(sc.model, sc.cylinder, x).representative))
    return float(sc.cylinder.distance(lhs, rhs).max()), samples, ""


def _chk_cylinder_cocycle(sc, rng, samples):
    used = min(samples, 50)
    pq, rhs = _cocycle_sides(sc, rng, used)
    lhs = sc.cylinder.project(sigma_J(sc.model, pq))
    return float(sc.cylinder.distance(lhs, sc.cylinder.project(rhs)).max()), used, ""


def _chk_cylinder_infinitesimal(sc, rng, samples):
    used = min(samples, 50)
    h = 1e-4
    mu, xi = _uniform(rng, used, sc.n, (-1.5, 1.5), (-1.0, 1.0))
    plus = cyl.affine_action(sc.model, GroupPath.straight(sc.cover, h * xi), mu)
    minus = cyl.affine_action(sc.model, GroupPath.straight(sc.cover, -h * xi), mu)
    fd = (plus - minus) / (2.0 * h)
    # the generator (C(mu) + theta) xi, from the bracket form and theta
    # (sigma_matrix is theta^T), not from the coadjoint kernel
    rate = np.einsum("bij,bj->bi", sc.model.bracket_form(mu), xi) + xi @ sc.model.sigma_matrix
    return _worst(fd - rate), used, "affine-action generator vs base Chu contraction"


def _chk_casimir_invariance(sc, rng, samples):
    worst = 0.0
    for mu in sc.mu_list:
        f0 = cyl.casimir(sc.model, mu)
        (paths,) = sc.draw_paths(rng, samples, "cover")
        moved = cyl.affine_action(sc.model, paths, mu)
        worst = float(np.maximum(worst, np.abs(cyl.casimir(sc.model, moved) - f0).max()))
    return worst, samples * len(sc.mu_list), ""


def _chk_noether_drift(sc, rng, samples):
    g0 = rng.uniform(-0.4, 0.4, (len(sc.mu_list), sc.n))
    x = PhasePath.to_point(sc.model, g0, np.array(sc.mu_list))
    return float(cyl.noether_check(sc.model, sc.cylinder, x, 1.0).max()), len(sc.mu_list), "kinetic flow over T=1"


def _chk_reduction_fiber(sc, rng, samples):
    used = min(samples, 5)
    worst = 0.0
    for mu in sc.mu_list:
        shift, detail = cyl.reduction_fiber_check(sc, mu, samples=used, rng=rng)
        if detail:
            return shift, used * len(sc.mu_list), detail
        worst = float(np.maximum(worst, shift))
    return worst, used * len(sc.mu_list), ""


def _chk_deck_triviality(sc, rng, samples):
    labels = []
    worst = 0.0
    for mu in sc.mu_list:
        for gamma_n in (LatticeSubgroup.zero(sc.gamma_dim), sc.gamma0):
            deck = cyl.deck_group_of_reduced_cover(sc, mu, gamma_n)
            labels.append(deck.describe())
            if not deck.is_trivial:
                worst = 1.0
    return worst, 2 * len(sc.mu_list), f"deck groups: {sorted(set(labels))}"


def _chk_orbit_descriptor(sc, rng, samples):
    worst = 0.0
    for mu in sc.mu_list:
        desc = cyl.orbit_descriptor(sc, mu, rng=rng, samples=samples)
        (paths,) = sc.draw_paths(rng, samples, "cover")
        moved = cyl.affine_action(sc.model, paths, mu)
        worst = float(np.maximum(worst, desc.residuals(moved).max()))
    return worst, 2 * samples * len(sc.mu_list), ""


def _is_flat(sc) -> bool:
    return not np.any(sc.model.sigma_matrix)


def registry() -> list[CheckSpec]:
    return [
        CheckSpec("group_associativity", 1e-12, _chk_group_associativity),
        CheckSpec("group_exp_log", 1e-10, _chk_group_exp_log),
        CheckSpec("adjoint_homomorphism", 1e-10, _chk_adjoint_homomorphism),
        CheckSpec("path_product_endpoint", 1e-10, _chk_path_product_endpoint),
        CheckSpec("omega_antisymmetry", 1e-12, _chk_omega_antisymmetry),
        CheckSpec("omega_nondegenerate", 0.0, _chk_omega_nondegenerate),
        CheckSpec("omega_left_invariance", 1e-10, _chk_omega_left_invariance),
        CheckSpec("momentum_closed_form", 1e-9, _chk_momentum_closed_form),
        CheckSpec("momentum_transport", 1e-7, _chk_momentum_transport),
        CheckSpec("momentum_additivity", 1e-9, _chk_momentum_additivity),
        CheckSpec("momentum_equivariance", 1e-9, _chk_momentum_equivariance),
        CheckSpec("momentum_condition", 1e-5, _chk_momentum_condition),
        CheckSpec("cocycle_matches_theta", 1e-9, _chk_cocycle_matches_theta),
        CheckSpec("cocycle_identity", 1e-9, _chk_cocycle_identity),
        CheckSpec("cocycle_flat_vanishes", 1e-11, _chk_cocycle_flat_vanishes, _is_flat),
        CheckSpec("cylinder_homomorphism", 1e-10, _chk_cylinder_homomorphism),
        CheckSpec("cylinder_K_path_independence", 1e-8, _chk_cylinder_K_path_independence),
        CheckSpec("cylinder_equivariance", 1e-8, _chk_cylinder_equivariance),
        CheckSpec("cylinder_cocycle", 1e-8, _chk_cylinder_cocycle),
        CheckSpec("cylinder_infinitesimal", 1e-5, _chk_cylinder_infinitesimal),
        CheckSpec("casimir_invariance", 1e-8, _chk_casimir_invariance, lambda sc: bool(sc.group.pairs)),
        CheckSpec("noether_drift", 1e-6, _chk_noether_drift),
        CheckSpec(
            "reduction_fiber", 1e-8, _chk_reduction_fiber, lambda sc: sc.decomp.closed
        ),
        CheckSpec(
            "deck_triviality", 0.0, _chk_deck_triviality, lambda sc: sc.decomp.closed
        ),
        CheckSpec("orbit_descriptor", 1e-8, _chk_orbit_descriptor),
    ]


def run_check(sc, spec: CheckSpec, seed: int, tol_scale: float, samples: int) -> CheckReport:
    rng = check_rng(seed, spec.name)
    tol = spec.tolerance * tol_scale
    log.debug("running check %s (tol %.3e)", spec.name, tol)
    start = time.perf_counter()
    try:
        err, used, notes = spec.runner(sc, rng, samples)
    except NumericalError as exc:
        err, used, notes = float("inf"), 0, f"numerical failure: {exc}"
    elapsed = time.perf_counter() - start
    err = float(err)
    if np.isnan(err):  # a check that dies numerically reports infinity
        err, notes = float("inf"), "numerical failure: max error is NaN" + (f" ({notes})" if notes else "")
    return CheckReport(spec.name, err, tol, err <= tol, used, notes, elapsed)


def run_checks(sc, seed=None, samples=None, names=None) -> list[CheckReport]:
    cfg = sc.config.verify
    seed = cfg.seed if seed is None else seed
    samples = cfg.sample_count if samples is None else samples
    if samples < 1:
        raise InputError(f"checks need at least one sample, got {samples}")
    tol_scale = cfg.tolerance / _BASE_TOL
    specs = [
        s for s in registry() if s.applies(sc) and (names is None or s.name in names)
    ]
    reports = [run_check(sc, s, seed, tol_scale, samples) for s in specs]
    for r in reports:
        log.info("check %-32s %s (max %.3e <= %.3e)", r.check_name,
                 "pass" if r.passed else "FAIL", r.max_error, r.tolerance)
    return reports
