from __future__ import annotations

import numpy as np
import pytest

from momenta.groups import GroupPath
from momenta.momentum import PhasePath, _momentum_rows, _phase_kinematics, momentum_segments
from momenta.numerics import adaptive_path_quadrature
from momenta.scenario import build_scenario, parse_config

RNG = np.random.default_rng(70331)

CONFIGS = {
    "torus2": '{"group":"torus","dim":2,"theta":[["0","1"],["-1","0"]]}',
    "torus3": '{"group":"torus","dim":3,"theta":[["0","1","0"],["-1","0","0"],["0","0","0"]]}',
    "heis": '{"group":"heisenberg","sigma":["1","0"]}',
}

_X8, _W8 = np.polynomial.legendre.leggauss(8)


def derived_integrand(model, x):
    """The momentum-map integrand along a single path x, as a function of
    the parameter."""
    return lambda ts: _momentum_rows(model, *_phase_kinematics(x, x.base.segment_index(ts), ts))


def refined_segments(f_many, times):
    """Reference rule: 8 Gauss points on each half of every segment."""
    edges = np.empty(2 * len(times) - 1)
    edges[0::2] = times
    edges[1::2] = 0.5 * (times[:-1] + times[1:])
    lo, half = edges[:-1], 0.5 * np.diff(edges)
    ts = (lo[:, None] + half[:, None] * (_X8 + 1.0)).ravel()
    vals = f_many(ts).reshape(len(lo), len(_X8), -1)
    halves = np.einsum("s,j,sjk->sk", half, _W8, vals)
    return halves[0::2] + halves[1::2]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fixed_rule_matches_refined_rule(name):
    # the momentum integrand has the highest degree (2) of the path
    # integrands; paths start at the identity and elsewhere, as flow tails do
    sc = build_scenario(parse_config(CONFIGS[name]))
    n = sc.n
    for i in range(70):
        segments = int(RNG.integers(1, 513))
        durs = RNG.uniform(0.5, 1.5, segments)
        durs /= durs.sum()
        dirs = RNG.uniform(-1.5, 1.5, (segments, n))
        base = RNG.uniform(-2.0, 2.0, n) if i % 2 else None
        p = GroupPath(sc.cover, list(zip(dirs, durs)), base)
        x = PhasePath(p, RNG.uniform(-1.5, 1.5, (segments + 1, n)))
        got = momentum_segments(sc.model, x)
        want = refined_segments(derived_integrand(sc.model, x), p.times)
        assert got.shape == want.shape == (segments, n)
        size = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-13 * size
        assert np.abs(got.sum(axis=0) - want.sum(axis=0)).max() <= 1e-13 * np.abs(want).sum(axis=0).max()


def test_per_segment_integrals_of_a_quintic():
    breakpoints = np.array([0.0, 0.2, 0.25, 1.0])
    got = adaptive_path_quadrature(lambda ts: np.stack([ts**5, 1.0 + 0.0 * ts], axis=1), breakpoints)
    lo, hi = breakpoints[:-1], breakpoints[1:]
    assert np.allclose(got[:, 0], (hi**6 - lo**6) / 6.0, rtol=1e-14, atol=0.0)
    assert np.allclose(got[:, 1], hi - lo, rtol=1e-14, atol=0.0)
