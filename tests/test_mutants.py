"""Mutant matrix: each row plants one defect in ``src`` by a monkeypatch and
names the checks that catch it on a canonical config.  Every row runs the
whole registry: the checks that catch the mutant are exactly the row's, and
every other check passes.

A check catches a mutant when it fails with a max error far above its
tolerance (> 1e-2), so that rounding cannot account for the catch.  No check
of any row fails below that, so no row names one.  An equivalent mutant,
which cannot move an output beyond rounding, is listed with its reason, and
every check passes under it.
"""

from __future__ import annotations

import numpy as np
import pytest

from momenta import cylinder, momentum, symplectic
from momenta.groups import GroupPath
from momenta.scenario import build_scenario, parse_config
from momenta.verification import run_checks

CONFIGS = {
    "torus2": '{"group":"torus","dim":2,"theta":[["0","1"],["-1","0"]],"muList":[[0.3,-0.2],[0.0,0.0]]}',
    "heis": '{"group":"heisenberg","sigma":["1","0"],"muList":[[0.5,0.1,-0.4],[0.0,0.0,0.0]]}',
}


def drop_quadratic_field(m):
    field = cylinder._kinetic_field

    def linear(model):
        A, Q = field(model)
        return A, np.zeros_like(Q)

    m.setattr(cylinder, "_kinetic_field", linear)


def read_segment_starts(m):
    # the path kernels read each segment at its start node, not its midpoint
    m.setattr(GroupPath, "midpoints", lambda self: self.nodes.take(self._first, axis=0))


def flip_canonical_sign(m):
    m.setattr(symplectic, "_CANON_SIGN", -1.0)


def negate_coadjoint_integral(m):
    # sigma_J and Theta integrate theta through this kernel
    integral = momentum._coadjoint_integral
    m.setattr(momentum, "_coadjoint_integral", lambda p, matrix: -integral(p, matrix))


def widths_as_end_times(m):
    # the table kernel weighs each segment's row by its end time, not its width
    m.setattr(momentum, "segment_integrals", lambda p, rows: p.times.take(p._first + 1)[:, None] * rows)


def widths_from_durations(m):
    m.setattr(momentum, "segment_integrals", lambda p, rows: p.durations[:, None] * rows)


def flip_bracket_form(m):
    # only the generator of cylinder_infinitesimal reads C(mu) outside the
    # form's determinant, which does not depend on it
    form = symplectic.MagneticCotangent.bracket_form
    m.setattr(symplectic.MagneticCotangent, "bracket_form", lambda self, mu: -form(self, mu))


# the quadrature integrand freezes the sign; the transport oracle, the
# momentum-condition validator and the kinetic field read it
SIGN_CATCHERS = {"momentum_transport", "momentum_condition", "noether_drift"}

# the momentum-condition tails are one-segment paths, whose end time is their
# width, and each segment of a Noether flow path integrates to a direction
# that the cylinder projection removes, whatever its weight
END_TIME_CATCHERS = {
    "momentum_closed_form",
    "momentum_transport",
    "momentum_additivity",
    "momentum_equivariance",
    "cocycle_matches_theta",
    "cocycle_identity",
    "cylinder_K_path_independence",
    "cylinder_equivariance",
    "cylinder_cocycle",
    "reduction_fiber",
}

# (mutant, config, the checks that catch it)
MATRIX = [
    ("kinetic field without its quadratic term", drop_quadratic_field, "heis", {"noether_drift"}),
    ("canonical sign flipped", flip_canonical_sign, "torus2", SIGN_CATCHERS),
    ("canonical sign flipped", flip_canonical_sign, "heis", SIGN_CATCHERS),
    (
        "path kernel at segment starts",
        read_segment_starts,
        "heis",
        {
            "momentum_closed_form",
            "momentum_transport",
            "momentum_equivariance",
            "cocycle_matches_theta",
            "cocycle_identity",
            "cylinder_equivariance",
            "cylinder_cocycle",
            "casimir_invariance",
            "reduction_fiber",
            "orbit_descriptor",
        },
    ),
    # a negated cocycle still satisfies the cocycle identity, and on a torus
    # it still does so in the cylinder
    (
        "sigma_J's theta integral negated",
        negate_coadjoint_integral,
        "torus2",
        {
            "momentum_closed_form",
            "momentum_equivariance",
            "cocycle_matches_theta",
            "cylinder_equivariance",
            "cylinder_infinitesimal",
            "reduction_fiber",
        },
    ),
    ("bracket_form sign flipped", flip_bracket_form, "heis", {"cylinder_infinitesimal"}),
    ("widths read as segment end times", widths_as_end_times, "torus2", END_TIME_CATCHERS),
    (
        "widths read as segment end times",
        widths_as_end_times,
        "heis",
        END_TIME_CATCHERS | {"casimir_invariance", "orbit_descriptor"},
    ),
]

# mutants that cannot move any output beyond rounding: (mutant, why)
EQUIVALENT = [
    (
        widths_from_durations,
        "a segment's duration and its breakpoint difference differ only by the rounding of the running sum",
    ),
]


@pytest.mark.parametrize(
    "mutate, config, catchers", [row[1:] for row in MATRIX], ids=[f"{row[0]} on {row[2]}" for row in MATRIX]
)
def test_mutant_is_caught(monkeypatch, mutate, config, catchers):
    sc = build_scenario(parse_config(CONFIGS[config]))
    with monkeypatch.context() as m:
        mutate(m)
        reports = run_checks(sc)
    caught = {r.check_name for r in reports if not r.passed and r.max_error > 1e-2}
    assert caught == catchers
    for r in reports:
        assert r.passed or r.check_name in catchers, f"{r.check_name}: {r.max_error} ({r.notes})"


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("mutate, why", EQUIVALENT, ids=[row[0].__name__ for row in EQUIVALENT])
def test_equivalent_mutant_passes_every_check(monkeypatch, mutate, why, config):
    sc = build_scenario(parse_config(CONFIGS[config]))
    with monkeypatch.context() as m:
        mutate(m)
        reports = run_checks(sc)
    for r in reports:
        assert r.passed, f"{r.check_name}: {r.max_error} ({r.notes}), although {why}"
