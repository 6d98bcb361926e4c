"""Seeded verification checks over a scenario.

Every check draws its own generator from (seed, crc32(check name)), so
neither the set of checks run nor their order can change the sampled data.
A numerical failure inside a check is reported as a failed CheckReport,
never as a crash.

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
from .errors import NumericalError
from .groups import GroupPath, path_product
from .lattices import LatticeSubgroup
from .momentum import (
    PhasePath,
    horizontal_transport,
    lifted_action_on_path,
    momentum_closed_form,
    momentum_of_path,
    sigma_J,
    theta_integral,
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

    @classmethod
    def from_dict(cls, d: dict) -> "CheckReport":
        return cls(
            check_name=d["checkName"],
            max_error=d["maxError"],
            tolerance=d["tolerance"],
            passed=d["passed"],
            sample_count=d["sampleCount"],
            notes=d.get("notes", ""),
        )


@dataclass(frozen=True)
class CheckSpec:
    name: str
    tolerance: float
    runner: Callable
    applies: Callable = staticmethod(lambda sc: True)


def check_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


# -- samplers ----------------------------------------------------------------


def _random_point(sc, rng):
    g = sc.group.normalize(rng.uniform(-0.5, 0.5, sc.n))
    return sc.model.point(g, rng.uniform(-1.5, 1.5, sc.n))


def _random_tangent(sc, rng):
    return sc.model.tangent(rng.uniform(-1.0, 1.0, sc.n), rng.uniform(-1.0, 1.0, sc.n))


# -- check runners: (scenario, rng, samples) -> (max_error, used, notes) -----


def _chk_group_associativity(sc, rng, samples):
    worst = 0.0
    for model in (sc.group, sc.cover):
        for _ in range(samples):
            a, b, c = (rng.uniform(-3.0, 3.0, sc.n) for _ in range(3))
            lhs = model.multiply(model.multiply(a, b), c)
            rhs = model.multiply(a, model.multiply(b, c))
            worst = max(worst, model.distance(lhs, rhs))
    return worst, 2 * samples, "compact chart and universal cover"


def _chk_group_exp_log(sc, rng, samples):
    worst = 0.0
    for _ in range(samples):
        xi = rng.uniform(-3.0, 3.0, sc.n)
        worst = max(worst, float(np.linalg.norm(sc.cover.log(sc.cover.exp(xi)) - xi)))
    return worst, samples, ""


def _chk_adjoint_homomorphism(sc, rng, samples):
    worst = 0.0
    for model in (sc.group, sc.cover):
        for _ in range(samples):
            g = model.normalize(rng.uniform(-2.0, 2.0, sc.n))
            h = model.normalize(rng.uniform(-2.0, 2.0, sc.n))
            gap = model.adjoint(model.multiply(g, h)) - model.adjoint(g) @ model.adjoint(h)
            worst = max(worst, float(np.abs(gap).max()))
    return worst, 2 * samples, ""


def _chk_path_product_endpoint(sc, rng, samples):
    used = min(samples, 25)
    worst = 0.0
    for _ in range(used):
        p = sc.random_cover_path(rng)
        q = sc.random_cover_path(rng)
        want = sc.cover.multiply(p.endpoint(), q.endpoint())
        worst = max(worst, float(np.linalg.norm(path_product(p, q).endpoint() - want)))
    return worst, used, ""


def _chk_omega_antisymmetry(sc, rng, samples):
    worst = 0.0
    for _ in range(samples):
        z = _random_point(sc, rng)
        v1, v2 = _random_tangent(sc, rng), _random_tangent(sc, rng)
        worst = max(worst, abs(sc.model.omega(z, v1, v2) + sc.model.omega(z, v2, v1)))
    return worst, samples, ""


def _chk_omega_nondegenerate(sc, rng, samples):
    min_det = np.inf
    for _ in range(samples):
        z = _random_point(sc, rng)
        min_det = min(min_det, abs(float(np.linalg.det(sc.model.omega_matrix(z)))))
    return max(0.0, 1e-8 - min_det), samples, f"min |det Omega| = {min_det:.3e}"


def _chk_omega_left_invariance(sc, rng, samples):
    worst = 0.0
    for _ in range(samples):
        z = _random_point(sc, rng)
        h = sc.group.normalize(rng.uniform(-2.0, 2.0, sc.n))
        moved = sc.model.point(sc.group.multiply(h, z.g), z.mu)
        v1, v2 = _random_tangent(sc, rng), _random_tangent(sc, rng)
        worst = max(worst, abs(sc.model.omega(z, v1, v2) - sc.model.omega(moved, v1, v2)))
    return worst, samples, "body-frame form is base-point independent"


def _chk_momentum_closed_form(sc, rng, samples):
    worst = 0.0
    for _ in range(samples):
        x = sc.random_phase_path(rng)
        got = momentum_of_path(sc.model, x)
        want = momentum_closed_form(sc.model, x.base, x.momenta[-1])
        worst = max(worst, float(np.linalg.norm(got - want)))
    return worst, samples, "quadrature vs endpoint closed form"


def _chk_momentum_transport(sc, rng, samples):
    worst = 0.0
    for _ in range(samples):
        x = sc.random_phase_path(rng)
        gap = momentum_of_path(sc.model, x) - horizontal_transport(sc.model, x)
        worst = max(worst, float(np.linalg.norm(gap)))
    return worst, samples, "quadrature vs flat-connection transport"


def _chk_momentum_additivity(sc, rng, samples):
    used = min(samples, 50)
    worst = 0.0
    for _ in range(used):
        x = sc.random_phase_path(rng)
        gamma = PhasePath.with_linear_momentum(
            sc.loop_path(sc.random_loop_coefficients(rng)), np.zeros(sc.n)
        )
        lhs = momentum_of_path(sc.model, gamma.concat(x))
        rhs = momentum_of_path(sc.model, gamma) + momentum_of_path(sc.model, x)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst, used, "deck-loop additivity"


def _chk_momentum_equivariance(sc, rng, samples):
    used = min(samples, 50)
    worst = 0.0
    for _ in range(used):
        g_path = sc.random_cover_path(rng)
        x = sc.random_phase_path(rng)
        lhs = momentum_of_path(sc.model, lifted_action_on_path(g_path, x))
        coad = sc.cover.coadjoint_inv(g_path.endpoint())
        rhs = coad @ momentum_of_path(sc.model, x) + sigma_J(sc.model, g_path)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst, used, ""


def _chk_momentum_condition(sc, rng, samples):
    used = min(samples, 50)
    worst = 0.0
    for _ in range(used):
        z = _random_point(sc, rng)
        xi = rng.uniform(-1.0, 1.0, sc.n)
        worst = max(worst, verify_momentum_condition(sc.model, z, xi))
    return worst, used, "finite-difference momentum condition"


def _chk_cocycle_matches_theta(sc, rng, samples):
    used = min(samples, 50)
    worst = 0.0
    for _ in range(used):
        p = sc.random_cover_path(rng)
        gap = sigma_J(sc.model, p) - theta_integral(sc.cover, sc.theta, p)
        worst = max(worst, float(np.linalg.norm(gap)))
    return worst, used, "cotangent-lift cocycle equals the magnetic term"


def _chk_cocycle_identity(sc, rng, samples):
    used = min(samples, 50)
    worst = 0.0
    for _ in range(used):
        p = sc.random_cover_path(rng)
        q = sc.random_cover_path(rng)
        lhs = sigma_J(sc.model, path_product(p, q))
        rhs = sigma_J(sc.model, p) + sc.cover.coadjoint_inv(p.endpoint()) @ sigma_J(sc.model, q)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst, used, ""


def _chk_cocycle_flat_vanishes(sc, rng, samples):
    used = min(samples, 25)
    worst = 0.0
    for _ in range(used):
        worst = max(worst, float(np.linalg.norm(sigma_J(sc.model, sc.random_cover_path(rng)))))
    return worst, used, "Sigma = 0 forces an equivariant momentum map"


def _chk_cylinder_homomorphism(sc, rng, samples):
    c = sc.cylinder
    worst = 0.0
    for _ in range(samples):
        a = rng.uniform(-5.0, 5.0, sc.n)
        b = rng.uniform(-5.0, 5.0, sc.n)
        worst = max(worst, c.distance(c.project(a + b), c.project(a).translate(b)))
    return worst, samples, ""


def _chk_cylinder_K_path_independence(sc, rng, samples):
    used = min(samples, 50)
    worst = 0.0
    for _ in range(used):
        x = sc.random_phase_path(rng)
        gamma = PhasePath.with_linear_momentum(
            sc.loop_path(sc.random_loop_coefficients(rng)), np.zeros(sc.n)
        )
        a = cyl.K(sc.model, sc.cylinder, x)
        b = cyl.K(sc.model, sc.cylinder, gamma.concat(x))
        worst = max(worst, sc.cylinder.distance(a, b))
    return worst, used, "deck-shifted representatives agree in the cylinder"


def _chk_cylinder_equivariance(sc, rng, samples):
    worst = 0.0
    for _ in range(samples):
        g_path = sc.random_cover_path(rng)
        x = sc.random_phase_path(rng)
        lhs = cyl.K(sc.model, sc.cylinder, lifted_action_on_path(g_path, x))
        rhs = cyl.affine_cylinder_action(
            sc.model,
            sc.cylinder,
            g_path.endpoint(),
            cyl.K(sc.model, sc.cylinder, x),
            lift_path=g_path,
        )
        worst = max(worst, sc.cylinder.distance(lhs, rhs))
    return worst, samples, ""


def _chk_cylinder_cocycle(sc, rng, samples):
    used = min(samples, 50)
    worst = 0.0
    for _ in range(used):
        p = sc.random_cover_path(rng)
        q = sc.random_cover_path(rng)
        pq = path_product(p, q)
        lhs = cyl.sigma_K(sc.model, sc.cylinder, pq.endpoint(), pq)
        coad = sc.cover.coadjoint_inv(p.endpoint())
        rhs = sc.cylinder.project(sigma_J(sc.model, p) + coad @ sigma_J(sc.model, q))
        worst = max(worst, sc.cylinder.distance(lhs, rhs))
    return worst, used, ""


def _chk_cylinder_infinitesimal(sc, rng, samples):
    used = min(samples, 50)
    h, hm = 1e-4, 1e-6
    psi0 = sc.model.chu_at_base()
    worst = 0.0
    for _ in range(used):
        mu = sc.random_mu(rng)
        xi = rng.uniform(-1.0, 1.0, sc.n)
        plus = cyl.affine_action(sc.model, GroupPath.straight(sc.cover, h * xi), mu)
        minus = cyl.affine_action(sc.model, GroupPath.straight(sc.cover, -h * xi), mu)
        fd = (plus - minus) / (2.0 * h)
        coad_rate = (
            sc.cover.coadjoint_inv(sc.cover.exp(xi, hm))
            - sc.cover.coadjoint_inv(sc.cover.exp(xi, -hm))
        ) / (2.0 * hm)
        worst = max(worst, float(np.linalg.norm(fd - (coad_rate @ mu + psi0 @ xi))))
    return worst, used, "affine-action generator vs base Chu contraction"


def _chk_casimir_invariance(sc, rng, samples):
    sigma = np.array([float(s) for s in sc.theta.sigma])
    worst = 0.0
    for mu in sc.mu_list:
        f0 = cyl.heisenberg_casimir(sigma, mu[0], mu[1:])
        for _ in range(samples):
            moved = cyl.affine_action(sc.model, sc.random_cover_path(rng), mu)
            worst = max(worst, abs(cyl.heisenberg_casimir(sigma, moved[0], moved[1:]) - f0))
    return worst, samples * len(sc.mu_list), ""


def _chk_noether_drift(sc, rng, samples):
    worst = 0.0
    for mu in sc.mu_list:
        g0 = rng.uniform(-0.4, 0.4, sc.n)
        x = PhasePath.to_point(sc.model, g0, mu)
        worst = max(worst, cyl.noether_check(sc.model, sc.cylinder, x, 1.0))
    return worst, len(sc.mu_list), "kinetic flow over T=1"


def _chk_reduction_fiber(sc, rng, samples):
    used = min(samples, 5)
    worst = 0.0
    for mu in sc.mu_list:
        out = cyl.reduction_fiber_check(sc, mu, samples=used, rng=rng)
        if not out["passed"]:
            return np.inf, used * len(sc.mu_list), out.get("detail", "fiber check failed")
        worst = max(worst, out["max_shift_error"])
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
        moved = [cyl.affine_action(sc.model, sc.random_cover_path(rng), mu) for _ in range(samples)]
        worst = max(worst, float(desc.residuals(moved).max()))
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
        CheckSpec(
            "casimir_invariance",
            1e-8,
            _chk_casimir_invariance,
            lambda sc: sc.kind == "central_extension",
        ),
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
    return CheckReport(spec.name, err, tol, err <= tol, used, notes, elapsed)


def run_checks(sc, seed=None, samples=None, names=None) -> list[CheckReport]:
    cfg = sc.config.verify
    seed = cfg.seed if seed is None else seed
    samples = cfg.sample_count if samples is None else samples
    tol_scale = cfg.tolerance / _BASE_TOL
    specs = [
        s for s in registry() if s.applies(sc) and (names is None or s.name in names)
    ]
    reports = [run_check(sc, s, seed, tol_scale, samples) for s in specs]
    for r in reports:
        log.info("check %-32s %s (max %.3e <= %.3e)", r.check_name,
                 "pass" if r.passed else "FAIL", r.max_error, r.tolerance)
    return reports
