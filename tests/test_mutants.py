"""Mutant matrix: each row plants one defect in ``src`` by a monkeypatch and
names the checks that must catch it on a canonical config.

A check catches a mutant when it fails with a max error far above its
tolerance (> 1e-2), so that rounding cannot account for the catch.
"""

from __future__ import annotations

import numpy as np
import pytest

from momenta import cylinder, symplectic
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


# (mutant, config, checks that must catch it)
MATRIX = [
    ("kinetic field without its quadratic term", drop_quadratic_field, "heis", {"noether_drift"}),
    ("canonical sign flipped", flip_canonical_sign, "torus2", {"noether_drift"}),
    ("canonical sign flipped", flip_canonical_sign, "heis", {"noether_drift"}),
    ("path kernel at segment starts", read_segment_starts, "heis", {"cocycle_matches_theta"}),
]


@pytest.mark.parametrize(
    "mutate, config, catchers", [row[1:] for row in MATRIX], ids=[f"{row[0]} on {row[2]}" for row in MATRIX]
)
def test_mutant_is_caught(monkeypatch, mutate, config, catchers):
    sc = build_scenario(parse_config(CONFIGS[config]))
    with monkeypatch.context() as m:
        mutate(m)
        reports = run_checks(sc, names=catchers)
    assert {r.check_name for r in reports} == catchers
    for r in reports:
        assert not r.passed and r.max_error > 1e-2, f"{r.check_name}: {r.max_error} ({r.notes})"
