"""Batches of paths: every batched kernel agrees with the same call made path
by path, and the check suite keeps its generator streams while drawing all
samples before it evaluates them."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momenta import cylinder, groups
from momenta.cli import main as cli_main
from momenta.cylinder import K, affine_action, casimir, noether_check, reduction_fiber_check
from momenta.errors import InputError, NumericalError
from momenta.groups import GroupPath, path_product
from momenta.momentum import (
    PhasePath,
    horizontal_transport,
    momentum_closed_form,
    momentum_of_path,
    sigma_J,
    theta_integral,
    verify_momentum_condition,
)
from momenta.numerics import adaptive_path_quadrature
from momenta.scenario import build_scenario, parse_config
from momenta.symplectic import PhasePoint
from momenta.verification import _phase_and_loop, check_rng, registry, run_checks

CONFIGS = {
    "torus2": '{"group":"torus","dim":2,"theta":[["0","1"],["-1","0"]],"muList":[[0.3,-0.2],[0.0,0.0]]}',
    "torus3": '{"group":"torus","dim":3,"theta":[["0","1","0"],["-1","0","0"],["0","0","0"]]}',
    "heis": '{"group":"heisenberg","sigma":["1","0"],"muList":[[0.5,0.1,-0.4],[0.0,0.0,0.0]]}',
}
SEGMENTS = (1, 2, 7, 33)


def scenario(name):
    return build_scenario(parse_config(CONFIGS[name]))


def assert_rows_close(batch, singles):
    """Batch rows against per-path results, to 1e-14 relative."""
    singles = np.array(singles)
    assert batch.shape == singles.shape
    scale = np.abs(singles).max()
    assert np.abs(batch - singles).max() <= 1e-14 * scale


def draw_segments(sc, rng, m, scale=1.5):
    """(directions, durations) of a random m-segment cover path."""
    durs = rng.uniform(0.5, 1.5, m)
    return rng.uniform(-scale, scale, (m, sc.n)), durs / durs.sum()


def cover_batch(sc, tables):
    """One batch of the cover paths of (directions, durations) tables."""
    dirs, durs = zip(*tables)
    return GroupPath.from_table(sc.cover, np.concatenate(dirs), np.concatenate(durs), counts=[len(w) for w in durs])


def mixed_phase_paths(sc, rng, counts=SEGMENTS * 2):
    tables, momenta = [], []
    for m in counts:
        tables.append(draw_segments(sc, rng, m))
        momenta.append(rng.uniform(-1.0, 1.0, (m + 1, sc.n)))
        momenta[-1][0] = 0.0
    singles = [PhasePath(GroupPath(sc.cover, zip(*t)), mo) for t, mo in zip(tables, momenta)]
    return PhasePath(cover_batch(sc, tables), np.concatenate(momenta)), singles


def sharing_breakpoints(sc, rng, draw, k, ulps):
    """A cover path whose first k breakpoints after 0 are those of the drawn
    path ``draw``, the k-th moved by ``ulps`` (-1, 0 or 1) ulp; three more
    segments fill the rest."""
    durs = draw[1][:k].copy()
    if ulps:
        times = np.cumsum(durs)
        durs[-1] = np.nextafter(times[-1], ulps * np.inf) - (times[-2] if k > 1 else 0.0)
    rest = rng.uniform(0.5, 1.5, 3)
    durs = np.concatenate([durs, rest / rest.sum() * (1.0 - durs.sum())])
    return rng.uniform(-1.5, 1.5, (len(durs), sc.n)), durs


@pytest.mark.parametrize("name", sorted(CONFIGS))
class TestBatchMatchesPathByPath:
    def test_path_layout(self, name):
        sc = scenario(name)
        x, singles = mixed_phase_paths(sc, np.random.default_rng(1))
        p = x.base
        assert p.batched and len(p) == len(singles)
        assert list(p.counts()) == list(SEGMENTS * 2)
        for b, single in enumerate(singles):
            lo, hi = p.offsets[b], p.offsets[b + 1]
            assert np.array_equal(p.directions[lo:hi], single.base.directions)
            assert np.array_equal(p.times[lo + b : hi + b + 1], single.base.times)
            assert np.array_equal(p.nodes[lo + b : hi + b + 1], single.base.nodes)
            assert np.array_equal(x.momenta[lo + b : hi + b + 1], single.momenta)
            assert np.array_equal(p.ends()[b], single.base.endpoint())
        ts = np.random.default_rng(2).uniform(0.0, 1.0, 40)
        owners = np.arange(40) % len(singles)
        got = p.evaluate_many(ts, owners)
        for t, b, row in zip(ts, owners, got):
            assert np.array_equal(row, singles[b].base.evaluate_many([t])[0])

    def test_one_segment_batches(self, name):
        # a batch of one-segment paths adds each step to its base instead of
        # running a cumsum, and its kernel rows are its per-path sums: the
        # same numbers as the general layout, which one two-segment path forces
        sc = scenario(name)
        rng = np.random.default_rng(13)
        X, bases = rng.uniform(-1.5, 1.5, (2, 9, sc.n))
        table = np.vstack([X, rng.uniform(-1.5, 1.5, (2, sc.n))]), np.r_[np.ones(9), 0.5, 0.5]
        counts = np.r_[np.ones(9, dtype=np.intp), 2]
        lifts = GroupPath.straight(sc.cover, X, base=bases)
        general = GroupPath.from_table(sc.cover, *table, np.vstack([bases, bases[:1]]), counts)
        assert np.array_equal(lifts.times, general.times[:18])
        assert np.array_equal(lifts.nodes, general.nodes[:18])
        assert np.array_equal(lifts.point_paths(), general.point_paths()[:18])
        got = sigma_J(sc.model, GroupPath.straight(sc.cover, X))
        assert np.array_equal(got, sigma_J(sc.model, GroupPath.from_table(sc.cover, *table, counts=counts))[:9])

    def test_kernel_nodes_map_to_their_segments(self, name):
        # one kernel call over a batch skips the drops between paths
        p = mixed_phase_paths(scenario(name), np.random.default_rng(7))[0].base
        seen = []
        adaptive_path_quadrature(lambda ts: seen.append(ts) or np.ones((len(ts), 1)), p.times)
        (ts,) = seen
        paths = np.repeat(np.arange(len(p)), p.counts())  # one node per segment
        assert np.array_equal(p.segment_index(ts, paths), np.arange(len(ts)))

    def test_momentum_kernels(self, name):
        sc = scenario(name)
        x, singles = mixed_phase_paths(sc, np.random.default_rng(3))
        mu = x.end_momenta()
        assert_rows_close(momentum_of_path(sc.model, x), [momentum_of_path(sc.model, s) for s in singles])
        assert_rows_close(sigma_J(sc.model, x.base), [sigma_J(sc.model, s.base) for s in singles])
        assert_rows_close(
            theta_integral(sc.cover, sc.theta, x.base), [theta_integral(sc.cover, sc.theta, s.base) for s in singles]
        )
        assert_rows_close(
            momentum_closed_form(sc.model, x.base, mu),
            [momentum_closed_form(sc.model, s.base, m) for s, m in zip(singles, mu)],
        )
        assert_rows_close(
            affine_action(sc.model, x.base, sc.mu_list[0]), [affine_action(sc.model, s.base, sc.mu_list[0]) for s in singles]
        )
        got = K(sc.model, sc.cylinder, x).representative
        assert_rows_close(got, [K(sc.model, sc.cylinder, s).representative for s in singles])

    def test_transport_matches_singles(self, name):
        sc = scenario(name)
        x, singles = mixed_phase_paths(sc, np.random.default_rng(4))
        assert_rows_close(horizontal_transport(sc.model, x), [horizontal_transport(sc.model, s) for s in singles])

    def test_path_product(self, name):
        sc = scenario(name)
        rng = np.random.default_rng(5)
        p = [draw_segments(sc, rng, m) for m in SEGMENTS]
        q = [draw_segments(sc, rng, m) for m in reversed(SEGMENTS)]
        # a pair with coincident breakpoints samples each once, and one with
        # breakpoints 0.5 and the next double keeps both ends of that interval
        # one ulp wide
        p.append((rng.uniform(-1.5, 1.5, (2, sc.n)), np.array([0.25, 0.75])))
        q.append((rng.uniform(-1.5, 1.5, (3, sc.n)), np.array([0.25, 0.5, 0.25])))
        mid = np.nextafter(0.5, 1.0)
        p.append((rng.uniform(-1.5, 1.5, (2, sc.n)), np.array([0.5, 0.5])))
        q.append((rng.uniform(-1.5, 1.5, (2, sc.n)), np.array([mid, 1.0 - mid])))
        pp, qq = cover_batch(sc, p), cover_batch(sc, q)
        got = path_product(pp, qq)
        for b, (pb, qb) in enumerate(zip(p, q)):
            want = path_product(GroupPath(sc.cover, zip(*pb)), GroupPath(sc.cover, zip(*qb)))
            lo, hi = got.offsets[b], got.offsets[b + 1]
            assert np.array_equal(got.times[lo + b : hi + b + 1], want.times)
            assert np.array_equal(got.nodes[lo + b : hi + b + 1], want.nodes)
            assert np.array_equal(got.directions[lo:hi], want.directions)
            assert np.array_equal(got.durations[lo:hi], want.durations)
        # one segment per gap between the distinct breakpoints of the pair
        owners = pp.point_paths(), qq.point_paths()
        distinct = [len(np.union1d(pp.times[owners[0] == b], qq.times[owners[1] == b])) for b in range(len(p))]
        assert np.array_equal(got.counts(), np.array(distinct) - 1)
        assert list(got.counts()[-2:]) == [3, 3]

    def test_merge_rows_match_segment_index(self, name):
        # the one merge in path_product gives each grid time its segment of p
        # and of q; evaluate_many finds them with segment_index
        sc = scenario(name)
        rng = np.random.default_rng(8)
        p = [draw_segments(sc, rng, m) for m in SEGMENTS * 2]
        q = [draw_segments(sc, rng, m) for m in SEGMENTS[::-1] * 2]
        cases = ((1, 1, 0), (2, 4, 0), (3, 20, 0), (5, 1, 1), (6, 3, -1), (7, 20, 1))
        for b, k, ulps in cases:
            q[b] = sharing_breakpoints(sc, rng, p[b], k, ulps)
        p, q = cover_batch(sc, p), cover_batch(sc, q)
        for b, k, ulps in cases:
            pt, qt = p.times[p.offsets[b] + b + k], q.times[q.offsets[b] + b + k]
            assert qt == (np.nextafter(pt, ulps * np.inf) if ulps else pt)
        ts, kp, kq, counts = groups._union_grids(p, q)
        pairs = np.repeat(np.arange(len(p)), counts)
        assert np.array_equal(p.at_segments(kp, ts), p.evaluate_many(ts, pairs))
        assert np.array_equal(q.at_segments(kq, ts), q.evaluate_many(ts, pairs))

    def test_noether_flows_stack(self, name):
        sc = scenario(name)
        rng = np.random.default_rng(6)
        g0, mus = rng.uniform(-0.4, 0.4, (2, sc.n)), rng.uniform(-1.0, 1.0, (2, sc.n))
        got = noether_check(sc.model, sc.cylinder, PhasePath.to_point(sc.model, g0, mus), 1.0)
        want = [noether_check(sc.model, sc.cylinder, PhasePath.to_point(sc.model, g, m), 1.0) for g, m in zip(g0, mus)]
        assert got.shape == (2,)
        assert np.abs(got - want).max() <= 1e-14


    def test_momentum_condition_points(self, name):
        # stacked points against one call per point; a single point is a float
        sc = scenario(name)
        rng = np.random.default_rng(9)
        g, mu, xi = (rng.uniform(-1.0, 1.0, (12, sc.n)) for _ in range(3))
        got = verify_momentum_condition(sc.model, PhasePoint(g, mu), xi)
        singles = [verify_momentum_condition(sc.model, PhasePoint(*row[:2]), row[2]) for row in zip(g, mu, xi)]
        assert all(type(e) is float for e in singles)
        assert got.shape == (12,) and np.array_equal(got, singles)
        # rows that do not line up: one xi for all points, one momentum, short rows
        for bad_g, bad_mu, bad_xi in ((g, mu, xi[0]), (g, mu[:1], xi), (g[:, 1:], mu[:, 1:], xi[:, 1:])):
            with pytest.raises(InputError, match="one row of"):
                verify_momentum_condition(sc.model, PhasePoint(bad_g, bad_mu), bad_xi)

    def test_reduction_fiber_matches_sample_loop(self, name):
        # reference: one sample at a time, each path built and integrated alone
        sc = scenario(name)
        model, cover = sc.model, sc.cover
        mu = np.random.default_rng(11).uniform(-1.0, 1.0, sc.n)
        rng, ref = np.random.default_rng(12), np.random.default_rng(12)
        worst = 0.0
        for _ in range(8):
            durs = ref.uniform(0.3, 1.0, 2)
            durs /= durs.sum()
            base = GroupPath(cover, [(ref.uniform(-1.5, 1.5, sc.n), w) for w in durs])
            mu_end = cover.adjoint(base.endpoint()).T @ (mu - theta_integral(cover, sc.theta, base))
            x = PhasePath.with_linear_momentum(base, mu_end)
            k = sc.random_loop_coefficients(ref)
            gamma = PhasePath.with_linear_momentum(sc.loop_path(k), np.zeros(sc.n))
            shifted = momentum_of_path(model, gamma.concat(x))
            h = np.array([float(v) for v in sc.holonomy_of(k)])
            worst = max(worst, float(np.linalg.norm(shifted - mu - h)))
        assert reduction_fiber_check(sc, mu, samples=8, rng=rng) == (worst, "")
        assert rng.random() == ref.random()  # the draws keep their order and number


def test_from_samples_keeps_its_samples():
    # the samples are the nodes and their times the breakpoints, bit for bit,
    # with each path's ends set to exactly 0 and 1; a ragged batch drops the
    # step between paths and matches its paths built alone
    sc = scenario("heis")
    rng = np.random.default_rng(14)
    sizes = np.array([2, 9, 3, 65])
    ts = [np.r_[1e-13 * (b % 2), np.sort(rng.uniform(0.0, 1.0, m - 2)), 1.0 - 1e-13 * (b % 2)] for b, m in enumerate(sizes)]
    gs = [rng.uniform(-2.0, 2.0, (m, sc.n)) for m in sizes]
    batch = GroupPath.from_samples(sc.cover, np.concatenate(ts), np.concatenate(gs), sizes)
    assert batch.batched and list(batch.counts()) == list(sizes - 1)
    for b, (t, g) in enumerate(zip(ts, gs)):
        single = GroupPath.from_samples(sc.cover, t, g)
        assert t[0] == 1e-13 * (b % 2)  # the caller's times are left alone
        lo, hi = batch.offsets[b], batch.offsets[b + 1]
        for p, start, rows in ((single, 0, slice(None)), (batch, lo + b, slice(lo, hi))):
            points = slice(start, start + len(t))
            assert np.array_equal(p.nodes[points], g)
            assert np.array_equal(p.times[points], np.r_[0.0, t[1:-1], 1.0])
            assert np.array_equal(p.durations[rows], np.diff(np.r_[0.0, t[1:-1], 1.0]))
            assert np.array_equal(p.directions[rows], single.directions)
            assert np.array_equal(p._first[rows], start + np.arange(len(t) - 1))
        # each segment runs from its sample to the next
        ks = np.arange(len(t) - 1)
        assert np.abs(single.at_segments(ks, single.times[1:]) - g[1:]).max() <= 1e-14 * np.abs(g).max()
        assert np.array_equal(batch.bases[b], g[0])


# one pair of a product batch: segments of p and of q, and how many leading
# breakpoints of p q shares (0: none), the last of them moved by -1, 0 or 1 ulp
PAIRS = st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(0, 39), st.sampled_from((-1, 0, 1)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CONFIGS)), st.lists(PAIRS, min_size=1, max_size=5), st.booleans(), st.integers(0, 2**32 - 1))
def test_product_table_equals_from_samples(name, pairs, batched, seed):
    # path_product builds its table from the union grid as it stands; checked
    # and built again by from_samples from the same samples, it is the same
    # table bit for bit, and its breakpoints run strictly from 0 to 1
    sc, rng = scenario(name), np.random.default_rng(seed)
    pairs = pairs if batched else pairs[:1]
    p, q = [], []
    for mp, mq, k, ulps in pairs:
        p.append(draw_segments(sc, rng, mp))
        q.append(sharing_breakpoints(sc, rng, p[-1], k, ulps) if 0 < k < mp else draw_segments(sc, rng, mq))
    if batched:
        p, q = cover_batch(sc, p), cover_batch(sc, q)
    else:
        p, q = GroupPath(sc.cover, zip(*p[0])), GroupPath(sc.cover, zip(*q[0]))
    got = path_product(p, q)
    ts, kp, kq, counts = groups._union_grids(p, q)
    prods = sc.cover.multiply(p.at_segments(kp, ts), q.at_segments(kq, ts))
    want = GroupPath.from_samples(sc.cover, ts, prods, counts if batched else None)
    assert got.model == want.model and got.batched == want.batched == batched
    for field in ("times", "nodes", "directions", "durations", "offsets", "_first", "bases"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    starts = got.offsets[:-1] + np.arange(len(got))
    assert (got.times[starts] == 0.0).all() and (got.times[starts + got.counts()] == 1.0).all()
    assert (got.times.take(got._first + 1) > got.times.take(got._first)).all()


def test_path_product_raises_on_a_miss(monkeypatch):
    # the representative hits every sample, so its endpoint gap is rounding
    # only and refining cannot shrink it: a miss raises after one product
    # build, which samples each factor once on the union grid
    sc = scenario("heis")
    monkeypatch.setattr(groups, "_ENDPOINT_ABS", 0.0)
    monkeypatch.setattr(groups, "_ENDPOINT_REL", 0.0)
    rng = np.random.default_rng(10)
    p = cover_batch(sc, [draw_segments(sc, rng, 7) for _ in range(4)])
    q = cover_batch(sc, [draw_segments(sc, rng, 5) for _ in range(4)])
    grid = len(groups._union_grids(p, q)[0])
    sampled = []
    at_segments = GroupPath.at_segments
    monkeypatch.setattr(GroupPath, "at_segments", lambda path, ks, ts: sampled.append(len(ts)) or at_segments(path, ks, ts))
    with pytest.raises(NumericalError, match="endpoint tolerance"):
        path_product(p, q)
    assert sampled == [grid, grid]


@pytest.mark.parametrize("scale", [1e5, 1e6])
def test_path_product_far_from_unit_scale(scale):
    # the endpoint bound follows the size of the endpoint: an absolute 1e-10
    # failed 11 and 16 of these 20 products
    sc = scenario("heis")
    rng = np.random.default_rng(7)
    for _ in range(20):
        p, q = (GroupPath(sc.cover, zip(*draw_segments(sc, rng, 2, scale))) for _ in range(2))
        want = sc.cover.multiply(p.endpoint(), q.endpoint())
        gap = np.abs(path_product(p, q).endpoint() - want).max()
        assert gap <= max(1e-10, 1e-13 * np.abs(want).max())


def reference_path(sc, rng, kind):
    """One sample drawn by uniform calls, the reference for the sampler's
    stream layout: durations, directions, then a phase path's momenta with
    the first set to 0."""
    path = GroupPath(sc.cover, zip(*draw_segments(sc, rng, 2)))
    if kind == "cover":
        return path
    momenta = rng.uniform(-1.0, 1.0, (3, sc.n))
    momenta[0] = 0.0
    return PhasePath(path, momenta)


def assert_batch_is_singles(batch, singles):
    """The batch's paths equal the single paths bit for bit: nodes,
    durations and, for phase paths, momenta."""
    base = batch.base if isinstance(batch, PhasePath) else batch
    assert base.batched and len(base) == len(singles)
    for b, single in enumerate(singles):
        lo, hi = base.offsets[b], base.offsets[b + 1]
        one = single.base if isinstance(single, PhasePath) else single
        assert np.array_equal(base.durations[lo:hi], one.durations)
        assert np.array_equal(base.nodes[lo + b : hi + b + 1], one.nodes)
        if isinstance(single, PhasePath):
            assert np.array_equal(batch.momenta[lo + b : hi + b + 1], single.momenta)


@pytest.mark.parametrize("name", ["torus3", "heis"])
@pytest.mark.parametrize("count", [1, 7, 100])
@pytest.mark.parametrize("kinds", [("phase",), ("cover", "cover"), ("cover", "phase")])
def test_draw_paths_matches_the_sample_loop(name, count, kinds):
    sc = scenario(name)
    rng, ref = np.random.default_rng(21), np.random.default_rng(21)
    batches = sc.draw_paths(rng, count, *kinds)
    singles = [[reference_path(sc, ref, kind) for kind in kinds] for _ in range(count)]
    assert len(batches) == len(kinds)
    for batch, column in zip(batches, zip(*singles)):
        assert_batch_is_singles(batch, column)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("name", ["torus3", "heis"])
@pytest.mark.parametrize("count", [1, 7, 100])
def test_phase_and_loop_matches_the_sample_loop(name, count):
    # bounded integers between the uniform draws: the loop coefficients come
    # from the same stream positions and the generator ends where the loop does
    sc = scenario(name)
    rng, ref = np.random.default_rng(22), np.random.default_rng(22)
    x, gamma = _phase_and_loop(sc, rng, count)
    singles, ks = [], []
    for _ in range(count):
        singles.append(reference_path(sc, ref, "phase"))
        ks.append(sc.random_loop_coefficients(ref))
    assert_batch_is_singles(x, singles)
    assert np.array_equal(gamma.base.ends(), sc.loop_path(np.array(ks)).ends())
    assert not np.any(gamma.momenta)
    assert rng.random() == ref.random()


# next rng.random() after each runner at seed 42, then passed, sampleCount
# and notes of its report: recorded with the per-sample loops the batches
# replaced, so the draws keep their order and number
STREAMS = {
    "torus2": {
        "group_associativity": (0.8269701357095542, True, 200, "compact chart and universal cover"),
        "group_exp_log": (0.9162391778924855, True, 100, ""),
        "adjoint_homomorphism": (0.24289765456151835, True, 200, ""),
        "path_product_endpoint": (0.5985682274179702, True, 25, ""),
        "omega_antisymmetry": (0.4469433343889503, True, 100, ""),
        "omega_nondegenerate": (0.7329326410232313, True, 100, "min |det Omega| = 1.000e+00"),
        "omega_left_invariance": (0.42434524032384546, True, 100, "body-frame form is base-point independent"),
        "momentum_closed_form": (0.11030550570074982, True, 100, "quadrature vs endpoint closed form"),
        "momentum_transport": (0.9472077420065512, True, 100, "quadrature vs flat-connection transport"),
        "momentum_additivity": (0.41410304416083765, True, 50, "deck-loop additivity"),
        "momentum_equivariance": (0.26411717645112465, True, 50, ""),
        "momentum_condition": (0.6038836167493379, True, 50, "finite-difference momentum condition"),
        "cocycle_matches_theta": (0.9374320174312715, True, 50, "cotangent-lift cocycle equals the magnetic term"),
        "cocycle_identity": (0.3987593995653822, True, 50, ""),
        "cylinder_homomorphism": (0.1288361873306575, True, 100, ""),
        "cylinder_K_path_independence": (
            0.7181118543494819, True, 50, "deck-shifted representatives agree in the cylinder"
        ),
        "cylinder_equivariance": (0.5076465502840177, True, 100, ""),
        "cylinder_cocycle": (0.4660442302321459, True, 50, ""),
        "cylinder_infinitesimal": (0.8715257114397106, True, 50, "affine-action generator vs base Chu contraction"),
        "noether_drift": (0.15861448728246208, True, 2, "kinetic flow over T=1"),
        "reduction_fiber": (0.2982692144091249, True, 10, ""),
        "deck_triviality": (0.5227807648357844, True, 4, "deck groups: ['trivial']"),
        "orbit_descriptor": (0.1381217074305624, True, 400, ""),
    },
    "heis": {
        "group_associativity": (0.9898180275725963, True, 200, "compact chart and universal cover"),
        "group_exp_log": (0.3961283256573732, True, 100, ""),
        "adjoint_homomorphism": (0.8292047321172731, True, 200, ""),
        "path_product_endpoint": (0.21387441287279108, True, 25, ""),
        "omega_antisymmetry": (0.8094878588933478, True, 100, ""),
        "omega_nondegenerate": (0.7811024286546818, True, 100, "min |det Omega| = 1.000e+00"),
        "omega_left_invariance": (0.2039122894194738, True, 100, "body-frame form is base-point independent"),
        "momentum_closed_form": (0.20154052252336419, True, 100, "quadrature vs endpoint closed form"),
        "momentum_transport": (0.44039707825634566, True, 100, "quadrature vs flat-connection transport"),
        "momentum_additivity": (0.3748306920009119, True, 50, "deck-loop additivity"),
        "momentum_equivariance": (0.894453350185711, True, 50, ""),
        "momentum_condition": (0.5378595209429061, True, 50, "finite-difference momentum condition"),
        "cocycle_matches_theta": (0.6598592412652985, True, 50, "cotangent-lift cocycle equals the magnetic term"),
        "cocycle_identity": (0.5896444842053923, True, 50, ""),
        "cylinder_homomorphism": (0.11301063423939195, True, 100, ""),
        "cylinder_K_path_independence": (
            0.7129236442710336, True, 50, "deck-shifted representatives agree in the cylinder"
        ),
        "cylinder_equivariance": (0.011444360395854614, True, 100, ""),
        "cylinder_cocycle": (0.9794103834316592, True, 50, ""),
        "cylinder_infinitesimal": (0.441881119640573, True, 50, "affine-action generator vs base Chu contraction"),
        "casimir_invariance": (0.22306958935039267, True, 200, ""),
        "noether_drift": (0.9950472595282325, True, 2, "kinetic flow over T=1"),
        "reduction_fiber": (0.1474580982695196, True, 10, ""),
        "deck_triviality": (0.5227807648357844, True, 4, "deck groups: ['trivial']"),
        "orbit_descriptor": (0.2285700776106282, True, 400, ""),
    },
}
STREAM_TEXTS = {
    "torus2": CONFIGS["torus2"][:-1] + ',"verify":{"sampleCount":100,"seed":42}}',
    "heis": CONFIGS["heis"][:-1] + ',"verify":{"sampleCount":100,"seed":42}}',
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_generator_streams_are_pinned(name):
    sc = build_scenario(parse_config(STREAM_TEXTS[name]))
    specs = [s for s in registry() if s.applies(sc)]
    assert [s.name for s in specs] == list(STREAMS[name])
    for spec in specs:
        rng = check_rng(42, spec.name)
        spec.runner(sc, rng, 100)
        assert rng.random() == STREAMS[name][spec.name][0], spec.name
    for report in run_checks(sc):
        assert (report.passed, report.sample_count, report.notes) == STREAMS[name][report.check_name][1:]


def test_orbit_rows_match_the_per_row_loop(tmp_path):
    # the CLI draws one block of directions and moves mu along all of them at
    # once; the rows must be the ones a loop of single straight lifts gives
    cfg = tmp_path / "heis.json"
    cfg.write_text(STREAM_TEXTS["heis"])
    out = tmp_path / "orbit.csv"
    assert cli_main(["orbit", "--config", str(cfg), "--mu", "0", "--samples", "50", "--out", str(out)]) == 0
    sc = build_scenario(parse_config(STREAM_TEXTS["heis"]))
    rng = check_rng(42, "orbit-rows[0]")
    lines = out.read_text().splitlines()[2:]
    assert len(lines) == 50
    for i, line in enumerate(lines):
        u = rng.uniform(-2.0, 2.0, sc.n)
        moved = affine_action(sc.model, GroupPath.straight(sc.cover, u), sc.mu_list[0])
        row = [str(i)] + [f"{x:.12g}" for x in u] + [f"{x:.12g}" for x in moved]
        row.append(f"{casimir(sc.model, moved):.12g}")
        assert line == ",".join(row)


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_orbit_rejects_fewer_than_one_sample(tmp_path, capsys, samples):
    cfg = tmp_path / "heis.json"
    cfg.write_text(STREAM_TEXTS["heis"])
    assert cli_main(["orbit", "--config", str(cfg), "--mu", "0", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--samples" in captured.err


def test_checks_need_a_sample():
    # an empty batch has no largest error; the config already rejects
    # sampleCount < 1, and the library call says so too
    sc = build_scenario(parse_config(STREAM_TEXTS["torus2"]))
    with pytest.raises(InputError, match="at least one sample"):
        run_checks(sc, samples=0, names={"momentum_closed_form"})


def test_reduction_fiber_gate_follows_the_tolerance(monkeypatch):
    # deck-shifted paths (three segments or more) gain 5e-8 per component: a
    # shift of 7.1e-8 must be judged by the gate 1e-6 that the config
    # tolerance 1e-6 gives, like every other check, not by a fixed 1e-8
    sc = build_scenario(parse_config(CONFIGS["torus2"][:-1] + ',"verify":{"tolerance":1e-6}}'))
    exact = cylinder.momentum_of_path

    def bumped(model, x):
        return exact(model, x) + np.where(x.base.counts() >= 3, 5e-8, 0.0)[:, None]

    monkeypatch.setattr(cylinder, "momentum_of_path", bumped)
    (report,) = run_checks(sc, names={"reduction_fiber"})
    assert report.tolerance == 1e-6 and report.passed and report.notes == ""
    assert 7e-8 <= report.max_error <= 7.2e-8
