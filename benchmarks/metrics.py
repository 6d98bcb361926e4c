"""What each per-layer metric should move, and the statistics behind the
end-to-end metrics.

Names, units and directions of the metrics are in ``BENCHMARK.json``.
``MOVES`` names, for each per-layer metric there, the end-to-end metric it is
expected to move and on which workload; ``BENCHMARK.json`` has no field for
that, so it lives here.
"""

from __future__ import annotations

import statistics

CHECK_NAMES = [
    "group_associativity",
    "group_exp_log",
    "adjoint_homomorphism",
    "path_product_endpoint",
    "omega_antisymmetry",
    "omega_nondegenerate",
    "omega_left_invariance",
    "momentum_closed_form",
    "momentum_transport",
    "momentum_additivity",
    "momentum_equivariance",
    "momentum_condition",
    "cocycle_matches_theta",
    "cocycle_identity",
    "cocycle_flat_vanishes",
    "cylinder_homomorphism",
    "cylinder_K_path_independence",
    "cylinder_equivariance",
    "cylinder_cocycle",
    "cylinder_infinitesimal",
    "casimir_invariance",
    "noether_drift",
    "reduction_fiber",
    "deck_triviality",
    "orbit_descriptor",
]

_EXACT = "wall_s on classify; no change on canonical or paths"
_KERNEL = "wall_s and op_tail_s on paths, wall_s on canonical; small on classify"
_CHECKS = "wall_s on canonical"


def _moves() -> dict:
    table = {
        "cli.import.s": "setup_s on every workload; wall_s, op_p50_s, peak_rss_mb on canonical",
        "scenario.parse_config.s": _EXACT,
        "scenario.build_scenario.s": _EXACT,
        "symplectic.MagneticCotangent.s": _EXACT,
        "lattices.is_closed.s": _EXACT,
        "lattices.kernel_lattice.s": _EXACT,
        "lattices.hermite_normal_form.s": _EXACT,
        "lattices.hermite_normal_form.calls": _EXACT,
        "lattices.smith_normal_form.s": _EXACT,
        "lattices.smith_normal_form.calls": _EXACT,
        "lattices.quotient_invariants.s": _EXACT,
        "exact.solve_linear.s": _EXACT,
        "exact.solve_linear.calls": _EXACT,
        "exact.rank.calls": _EXACT,
        "exact.nullspace.calls": _EXACT,
        "cylinder.gamma_mu.s": _EXACT,
        "cylinder.deck_group_of_reduced_cover.s": _EXACT,
        "numerics.adaptive_path_quadrature.s": _KERNEL,
        "numerics.adaptive_path_quadrature.calls": _KERNEL,
        "numerics.quadrature.evals": _KERNEL,
        "numerics.quadrature.useful_ratio": _KERNEL,
    }
    for fn in (
        "momentum_of_path",
        "sigma_J",
        "theta_integral",
        "horizontal_transport",
        "verify_momentum_condition",
    ):
        table[f"momentum.{fn}.s"] = _KERNEL
        table[f"momentum.{fn}.calls"] = _KERNEL
    table.update(
        {
            "momentum.momentum_closed_form.s": "wall_s on paths",
            "groups.path_product.s": _KERNEL,
            "groups.path_product.calls": _KERNEL,
            "groups.path_product.retries": _KERNEL,
            "groups.GroupPath.from_samples.s": _KERNEL,
            "groups.GroupPath.from_samples.segments": _KERNEL,
            "groups.GroupPath.evaluate_many.points": _KERNEL,
            "cylinder.K.s": "wall_s on paths and canonical",
            "cylinder.noether_check.s": "wall_s on canonical only",
            "cylinder.orbit_descriptor.s": "wall_s on classify at small d; canonical slightly",
            "cylinder.affine_action.s": "wall_s on classify at small d and on paths",
            "cylinder.affine_action.calls": "wall_s on classify at small d; canonical slightly",
            "verification.run_checks.s": _CHECKS,
        }
    )
    for name in CHECK_NAMES:
        table[f"verification.check.{name}.s"] = _CHECKS
    table.update(
        {
            "report.build_analysis.s": "wall_s on classify and canonical",
            "report.to_json.s": "wall_s on classify and canonical",
            "trace.wall_s": "traced wall_s of one pass",
            "trace.overhead_s": "traced minus untraced wall_s of one pass",
            "trace.self_sum_s": "sum of all self times of one traced pass; at most trace.wall_s",
        }
    )
    return table


# per-layer metric name: the end-to-end metric it should move, and where
MOVES = _moves()


# -- statistics ----------------------------------------------------------------

def tail(by_label: dict, samples: int) -> tuple[float, str]:
    """The highest percentile of the operations' median times that still has
    ten operations above it (the 11th slowest), with its level and the
    counts; the slowest operation when there are ten or fewer.  Taking each
    operation once keeps the level independent of how many repeats of which
    operations fit in the run."""
    times = sorted(by_label.values())
    n = len(times)
    counts = f"of {n} operations, {samples} samples"
    if n <= 10:
        return times[-1], f"slowest {counts}"
    return times[n - 11], f"p{100.0 * (n - 10) / n:.1f} {counts}"


def label_medians(labels, values) -> dict:
    """Median value per label, in the order the labels first appear."""
    groups: dict = {}
    for label, value in zip(labels, values):
        groups.setdefault(label, []).append(value)
    return {label: median(vs) for label, vs in groups.items()}


def median(values) -> float:
    return float(statistics.median(values))
