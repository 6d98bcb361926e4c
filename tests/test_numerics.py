from __future__ import annotations

import numpy as np
import pytest

from momenta import groups, momentum
from momenta.groups import GroupModel, GroupPath
from momenta.momentum import PhasePath, _coadjoint_integral, _momentum_rows, momentum_segments, sigma_J, theta_integral
from momenta.numerics import adaptive_path_quadrature
from momenta.scenario import build_scenario, parse_config

RNG = np.random.default_rng(70331)

CONFIGS = {
    "torus2": '{"group":"torus","dim":2,"theta":[["0","1"],["-1","0"]]}',
    "flat2": '{"group":"torus","dim":2,"theta":[["0","0"],["0","0"]]}',
    "torus3": '{"group":"torus","dim":3,"theta":[["0","1","0"],["-1","0","0"],["0","0","0"]]}',
    "dense3": '{"group":"torus","dim":3,"field":2,"theta":[["0","1","1*al"],["-1","0","1"],["-1*al","-1","0"]]}',
    "heis": '{"group":"heisenberg","sigma":["1","0"]}',
}

_X8, _W8 = np.polynomial.legendre.leggauss(8)
COVER_KINDS = sorted({GroupModel(kind, 3).cover().kind for kind in groups._FAMILIES})


def derived_integrand(model, x):
    """The momentum-map integrand along a single path x, as a function of
    the parameter."""

    def f_many(ts):
        ks = x.base.segment_index(ts)
        return _momentum_rows(model, x.base.at_segments(ks, ts), x._at_segments(ks, ts), x.base.directions[ks], x.slopes[ks])

    return f_many


def coadjoint_integrand(p, matrix):
    """The integrand of Theta and sigma_J along a single path p:
    Ad*_{g(t)^{-1}} (matrix @ left velocity)."""
    return lambda ts: p.model.coadjoint_inv_apply(p.evaluate_many(ts), p.directions[p.segment_index(ts)] @ matrix.T)


def coadjoint_segments(monkeypatch, p, matrix):
    """Per-segment rows of ``_coadjoint_integral``, read from its one kernel
    call."""
    rows = []

    def spy(f_many, breakpoints):
        rows.append(adaptive_path_quadrature(f_many, breakpoints))
        return rows[-1]

    with monkeypatch.context() as m:
        m.setattr(momentum, "adaptive_path_quadrature", spy)
        _coadjoint_integral(p, matrix)
    (got,) = rows
    return got


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


def assert_segments_match(got, want, segments, n):
    assert got.shape == want.shape == (segments, n)
    size = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-13 * size
    assert np.abs(got.sum(axis=0) - want.sum(axis=0)).max() <= 1e-13 * np.abs(want).sum(axis=0).max()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fixed_rule_matches_refined_rule(name, monkeypatch):
    # every path integrand is affine on a segment: the momentum integrand and
    # the coadjoint one of Theta and sigma_J, which both integrate theta;
    # paths start at the identity and elsewhere, as flow tails do
    sc = build_scenario(parse_config(CONFIGS[name]))
    n = sc.n
    theta = sc.model.sigma_matrix.T
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
        assert_segments_match(got, want, segments, n)
        got = coadjoint_segments(monkeypatch, p, theta)
        want = refined_segments(coadjoint_integrand(p, theta), p.times)
        assert_segments_match(got, want, segments, n)


def test_midpoint_rule_is_exact_on_affine_integrands_and_of_degree_one():
    # a drop in the breakpoints starts a second path and is not a segment
    breakpoints = np.array([0.0, 0.2, 0.25, 1.0, 0.0, 0.6, 1.0])
    lo = np.array([0.0, 0.2, 0.25, 0.0, 0.6])
    hi = np.array([0.2, 0.25, 1.0, 0.6, 1.0])
    h = hi - lo
    affine = adaptive_path_quadrature(lambda ts: np.stack([3.0 - 2.0 * ts, 1.0 + 0.0 * ts], axis=1), breakpoints)
    assert np.allclose(affine[:, 0], 3.0 * h - (hi**2 - lo**2), rtol=1e-14, atol=0.0)
    assert np.allclose(affine[:, 1], h, rtol=1e-14, atol=0.0)
    # exact minus midpoint rule is h^3 f''/24 on a quadratic: the rule has
    # degree 1, no more and no less
    a, b, c = 1.5, -0.7, 0.3
    quadratic = adaptive_path_quadrature(lambda ts: (a * ts**2 + b * ts + c)[:, None], breakpoints)[:, 0]
    exact = a * (hi**3 - lo**3) / 3.0 + b * (hi**2 - lo**2) / 2.0 + c * h
    assert np.allclose(exact - quadratic, h**3 * (2.0 * a) / 24.0, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("kind", COVER_KINDS)
def test_table_midpoints_are_path_midpoints(kind):
    # the integrands read g and mu at the kernel's nodes from the table: the
    # means of each segment's two stored rows, which are the points at its
    # midpoint because both curves are affine there.  A ragged batch skips
    # the drops between its paths
    cover = GroupModel(kind, 3)
    rng = np.random.default_rng(70332)
    counts = np.array([1, 5, 2, 33, 1])
    durs = np.concatenate([w / w.sum() for w in (rng.uniform(0.5, 1.5, m) for m in counts)])
    p = GroupPath.from_table(cover, rng.uniform(-1.5, 1.5, (len(durs), 3)), durs, rng.uniform(-2.0, 2.0, (5, 3)), counts)
    x = PhasePath(p, rng.uniform(-1.5, 1.5, (len(p.times), 3)))
    seen = []
    adaptive_path_quadrature(lambda ts: seen.append(ts) or np.ones((len(ts), 1)), p.times)
    (mid,) = seen
    ks = np.arange(len(durs))
    # the reference's offsets into a segment round at the size of t, which
    # the momentum slopes (up to about 100 here) amplify
    scales = np.abs(p.nodes).max(), np.abs(x.slopes).max()
    for got, want, scale in zip((p.midpoints(), x.midpoints()), (p.at_segments(ks, mid), x._at_segments(ks, mid)), scales):
        assert got.shape == want.shape == (len(durs), 3)
        assert np.abs(got - want).max() <= 1e-15 * scale


def test_integrands_never_read_circle_coordinates():
    # on the compact Heisenberg quotient the central coordinate is a circle:
    # the nodes wrap, so their means are no midpoints there, but no circle is
    # the input of a bracket pair, and Theta and sigma_J's integral read pair
    # inputs only: they equal the cover path's values bit for bit
    for kind in groups._FAMILIES:
        model = GroupModel(kind, 3)
        assert not set(model.circles) & {i for a, b, _ in model.pairs for i in (a, b)}
    sc = build_scenario(parse_config(CONFIGS["heis"]))
    rng = np.random.default_rng(70333)
    durs = rng.uniform(0.5, 1.5, 40)
    durs /= durs.sum()
    dirs = rng.uniform(-1.5, 1.5, (40, 3))
    dirs[:, 0] += 7.0  # the central coordinate winds about seven times
    down, up = GroupPath.from_table(sc.group, dirs, durs), GroupPath.from_table(sc.cover, dirs, durs)
    assert sc.group.kind == "central_extension" and sc.group.circles == (0,)
    assert np.array_equal(down.nodes[:, 1:], up.nodes[:, 1:])
    assert np.abs(down.midpoints()[:, 0] - up.midpoints()[:, 0]).max() > 0.4
    assert np.array_equal(theta_integral(sc.group, sc.theta, down), theta_integral(sc.cover, sc.theta, up))
    assert np.array_equal(_coadjoint_integral(down, sc.model.sigma_matrix.T), sigma_J(sc.model, up))
