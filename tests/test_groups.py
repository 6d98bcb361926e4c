from __future__ import annotations

import itertools

import numpy as np
import pytest

from momenta import groups
from momenta.errors import InputError
from momenta.groups import GroupModel, GroupPath, concat_paths, path_product

RNG = np.random.default_rng(20260823)

ALL_MODELS = [
    GroupModel("torus", 2),
    GroupModel("torus", 3),
    GroupModel("universal_torus", 2),
    GroupModel("heisenberg"),
    GroupModel("central_extension"),
]


def pair_constants(model):
    """c[a][b][k] with [e_a, e_b] = sum_k c[a][b][k] e_k, read off the
    model's bracket pairs as integers."""
    n = model.dim
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a, b, k in model.pairs:
        c[a][b][k], c[b][a][k] = 1, -1
    return c


def random_elements(model, count):
    return RNG.uniform(-2.0, 2.0, size=(count, model.dim))


def left_velocity(p, t):
    """Left-trivialized velocity of a single path at parameter t."""
    return p.directions[p.segment_index(np.array([t]))[0]]


class TestGroupOps:
    def test_heisenberg_multiplication_example(self):
        H = GroupModel("heisenberg")
        g = H.multiply([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        assert np.allclose(g, [0.5, 1.0, 1.0], atol=1e-15)

    def test_torus_mod_one_addition(self):
        T = GroupModel("torus", 2)
        assert np.allclose(T.multiply([0.7, 0.8], [0.5, 0.5]), [0.2, 0.3], atol=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
    def test_identity_neutral(self, model):
        e = model.identity()
        for g in random_elements(model, 20):
            assert model.distance(model.multiply(e, g), model.normalize(g)) <= 1e-12
            assert model.distance(model.multiply(g, e), model.normalize(g)) <= 1e-12

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
    def test_associativity_1000(self, model):
        gs = random_elements(model, 1000)
        hs = random_elements(model, 1000)
        ks = random_elements(model, 1000)
        for g, h, k in zip(gs, hs, ks):
            left = model.multiply(model.multiply(g, h), k)
            right = model.multiply(g, model.multiply(h, k))
            assert model.distance(left, right) <= 1e-12

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
    def test_inverse(self, model):
        for g in random_elements(model, 20):
            assert model.distance(model.multiply(g, model.inverse(g)), model.identity()) <= 1e-12

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
    def test_stacked_rows_match_each_row(self, model):
        # one body serves a single element and stacked rows: every row of a
        # stacked result is the single-element result bit for bit, also when
        # a single element broadcasts against the rows
        gs, hs = random_elements(model, 50), random_elements(model, 50)
        g0 = gs[0]
        unary = [model.normalize, model.inverse, model.exp, model.adjoint, model.coadjoint_inv, model.chart_to_body]
        if model.is_simply_connected:
            unary.append(model.log)
        for op in unary:
            rows = op(gs)
            assert len(rows) == len(gs), op.__name__
            for g, row in zip(gs, rows):
                assert np.array_equal(row, op(g)), op.__name__
        for op in (model.multiply, model.distance, model.bracket):
            rows, left, right = op(gs, hs), op(g0, hs), op(gs, g0)
            assert len(rows) == len(left) == len(right) == len(gs), op.__name__
            for g, h, row, lrow, rrow in zip(gs, hs, rows, left, right):
                assert np.array_equal(row, op(g, h)), op.__name__
                assert np.array_equal(lrow, op(g0, h)) and np.array_equal(rrow, op(g, g0)), op.__name__
        assert isinstance(model.distance(g0, hs[0]), float)
        with pytest.raises(InputError):
            model.multiply(gs[:, :-1], hs)

    def test_normalization_idempotent(self):
        for model in ALL_MODELS:
            for g in random_elements(model, 10):
                once = model.normalize(g)
                assert np.array_equal(model.normalize(once), once)

    def test_torus_distance_wraps(self):
        T = GroupModel("torus", 2)
        assert abs(T.distance([0.95, 0.0], [0.05, 0.0]) - 0.1) < 1e-12


class TestExp:
    def test_exp_zero_is_identity(self):
        for model in ALL_MODELS:
            assert model.distance(model.exp(np.zeros(model.dim), 0.7), model.identity()) <= 1e-10

    def test_heisenberg_central_direction(self):
        H = GroupModel("heisenberg")
        assert np.allclose(H.exp([1.0, 0.0, 0.0], 1.0), [1.0, 0.0, 0.0])

    def test_heisenberg_half_step_squares(self):
        H = GroupModel("heisenberg")
        xi = np.array([0.0, 1.0, 1.0])
        half = H.exp(xi, 0.5)
        assert H.distance(H.multiply(half, half), H.exp(xi, 1.0)) <= 1e-12

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
    def test_one_parameter_property(self, model):
        for _ in range(20):
            xi = RNG.uniform(-2.0, 2.0, model.dim)
            s, t = RNG.uniform(-1.5, 1.5, 2)
            lhs = model.multiply(model.exp(xi, s), model.exp(xi, t))
            assert model.distance(lhs, model.exp(xi, s + t)) <= 1e-12


class TestAdjoint:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
    def test_homomorphism_100_pairs(self, model):
        gs = random_elements(model, 100)
        hs = random_elements(model, 100)
        for g, h in zip(gs, hs):
            lhs = model.adjoint(model.multiply(g, h))
            rhs = model.adjoint(g) @ model.adjoint(h)
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_identity_is_identity_matrix(self):
        for model in ALL_MODELS:
            assert np.array_equal(model.adjoint(model.identity()), np.eye(model.dim))

    def test_torus_adjoint_trivial(self):
        T = GroupModel("torus", 3)
        for g in random_elements(T, 10):
            assert np.array_equal(T.adjoint(g), np.eye(3))

    def test_heisenberg_adjoint_formula(self):
        H = GroupModel("heisenberg")
        g = np.array([0.3, 1.5, -0.7])
        expected = np.array([[1.0, 0.7, 1.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(H.adjoint(g), expected, atol=1e-15)

    @pytest.mark.parametrize("kind", ["universal_torus", "heisenberg"])
    def test_finite_difference_conjugation(self, kind):
        # derivative of t -> g exp(t zeta) g^{-1} at 0 equals Ad_g zeta
        model = GroupModel(kind, 2 if kind == "universal_torus" else None)
        h = 1e-5
        for _ in range(25):
            g = RNG.uniform(-2.0, 2.0, model.dim)
            zeta = RNG.uniform(-2.0, 2.0, model.dim)

            def conj(t):
                return model.multiply(model.multiply(g, model.exp(zeta, t)), model.inverse(g))

            fd = (conj(h) - conj(-h)) / (2.0 * h)
            exact = model.adjoint(g) @ zeta
            denom = max(np.linalg.norm(exact), 1.0)
            assert np.linalg.norm(fd - exact) / denom <= 1e-6

    def test_coadjoint_pairing(self):
        H = GroupModel("heisenberg")
        for _ in range(20):
            g = RNG.uniform(-2.0, 2.0, 3)
            mu = RNG.uniform(-2.0, 2.0, 3)
            xi = RNG.uniform(-2.0, 2.0, 3)
            lhs = (H.coadjoint_inv(g) @ mu) @ xi
            rhs = mu @ (H.adjoint(H.inverse(g)) @ xi)
            assert abs(lhs - rhs) <= 1e-12

    def test_coadjoint_apply_matches_matrix(self):
        H = GroupModel("heisenberg")
        gs = RNG.uniform(-2.0, 2.0, (40, 3))
        mus = RNG.uniform(-2.0, 2.0, (40, 3))
        stacked = H.coadjoint_inv_apply(gs, mus)
        for g, mu, row in zip(gs, mus, stacked):
            assert np.allclose(row, H.coadjoint_inv(g) @ mu, atol=1e-13)


class TestTwoStepClosedForms:
    """Every operation against the 2-step nilpotent formulas, computed from
    the structure constants alone."""

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
    def test_operations_match_formulas(self, model):
        n = model.dim
        c = model.structure
        gs, hs = random_elements(model, 200), random_elements(model, 200)
        bracket = np.einsum("abk,ra,rb->rk", c, gs, hs)
        ad = np.einsum("abk,ra->rkb", c, gs)  # ad_g[k, b] = <[g, e_b], e^k>
        eye = np.eye(n)
        assert np.array_equal(model.bracket(gs, hs), bracket)
        # the circle coordinates agree modulo 1
        assert model.distance(model.multiply(gs, hs), gs + hs + 0.5 * bracket).max() <= 1e-12
        assert np.array_equal(model.adjoint(gs), eye + ad)
        assert np.array_equal(model.chart_to_body(gs), eye - 0.5 * ad)
        assert np.array_equal(model.coadjoint_inv(gs), np.swapaxes(eye - ad, 1, 2))
        mus = random_elements(model, 200)
        assert np.array_equal(model.coadjoint_inv_apply(gs, mus), np.einsum("rkb,rk->rb", eye - ad, mus))

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
    def test_structure_tensor_and_centre(self, model):
        n = model.dim
        c = pair_constants(model)
        assert not model.structure.flags.writeable
        assert np.array_equal(model.structure, np.array(c, dtype=float))
        # every bracket is central, which is what stops BCH after one term
        for a, b, k in itertools.product(range(n), repeat=3):
            if c[a][b][k]:
                assert not any(c[k][m][l] for m, l in itertools.product(range(n), repeat=2))
        xs, ys, zs = (random_elements(model, 50) for _ in range(3))
        assert not model.bracket(model.bracket(xs, ys), zs).any()

    @pytest.mark.parametrize("kind", sorted(groups._FAMILIES))
    def test_every_family_is_two_step(self, kind):
        # no bracket target is a bracket input, so every bracket is central:
        # the premise under which every path integrand is affine on a segment
        # and the one-node path kernel is exact
        pairs = groups._FAMILIES[kind][1]
        inputs = {i for a, b, _ in pairs for i in (a, b)}
        assert not inputs & {k for _, _, k in pairs}

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
    def test_cover_keeps_brackets_and_drops_circles(self, model):
        cover = model.cover()
        assert cover.pairs == model.pairs and cover.circles == () and cover.is_simply_connected
        assert model.is_simply_connected == (not model.circles) == (cover is model)
        assert np.array_equal(cover.structure, model.structure)
        assert hash(cover) == hash(GroupModel(cover.kind, cover.dim))


class TestAlgebra:
    def test_structure_constants_exact_properties(self):
        for model in [GroupModel("heisenberg"), GroupModel("universal_torus", 3)]:
            c = pair_constants(model)
            n = model.dim
            for a, b, k in itertools.product(range(n), repeat=3):
                assert c[a][b][k] == -c[b][a][k] == -model.structure[b, a, k]
            # Jacobi: sum_m (c[a][b][m] c[m][k][l] + cyclic) = 0, exactly
            for a, b, k, l in itertools.product(range(n), repeat=4):
                total = sum(
                    c[x][y][m] * c[m][z][l]
                    for (x, y, z) in ((a, b, k), (b, k, a), (k, a, b))
                    for m in range(n)
                )
                assert total == 0

    def test_bracket_matches_structure_constants(self):
        H = GroupModel("heisenberg")
        assert np.allclose(H.bracket([0, 1, 0], [0, 0, 1]), [1, 0, 0])
        assert np.allclose(H.bracket([0, 0, 1], [0, 1, 0]), [-1, 0, 0])
        assert np.allclose(H.bracket([1, 0, 0], [0, 1, 0]), [0, 0, 0])

    def test_cover_models(self):
        assert GroupModel("torus", 3).cover() == GroupModel("universal_torus", 3)
        assert GroupModel("central_extension").cover() == GroupModel("heisenberg")
        assert GroupModel("heisenberg").cover() == GroupModel("heisenberg")


class TestGroupPath:
    def test_duration_sum_validated(self):
        R2 = GroupModel("universal_torus", 2)
        with pytest.raises(InputError):
            GroupPath(R2, [([1.0, 0.0], 0.4), ([0.0, 1.0], 0.4)])

    def test_nan_durations_and_times_rejected(self):
        R2, d = GroupModel("universal_torus", 2), [1.0, 0.0]
        for durations in ([np.nan], [0.5, np.nan], [np.nan, 1.0]):
            with pytest.raises(InputError):
                GroupPath(R2, [(d, w) for w in durations])
        for ts in ([np.nan, 0.5, 1.0], [0.0, np.nan, 1.0], [0.0, 0.5, np.nan]):
            with pytest.raises(InputError):
                GroupPath.from_samples(R2, ts, np.zeros((3, 2)))

    def test_parameter_range_validated(self):
        R2 = GroupModel("universal_torus", 2)
        p = GroupPath.straight(R2, [1.0, 0.0])
        with pytest.raises(InputError):
            p.evaluate_many([1.5])
        with pytest.raises(InputError):
            p.evaluate_many(np.array([-0.2]))

    def test_evaluate_at_zero_is_base(self):
        H = GroupModel("heisenberg")
        base = np.array([0.2, -1.0, 0.5])
        p = GroupPath.straight(H, [0.0, 1.0, 0.0], base)
        assert H.distance(p.evaluate_many([0.0])[0], base) <= 1e-15

    def test_single_segment_velocity_constant(self):
        H = GroupModel("heisenberg")
        xi = np.array([0.3, 1.0, -2.0])
        p = GroupPath.straight(H, xi)
        for t in [0.0, 0.25, 0.7, 1.0]:
            assert np.array_equal(left_velocity(p, t), xi)

    def test_heisenberg_segment_endpoint(self):
        H = GroupModel("heisenberg")
        p = GroupPath.straight(H, [0.0, 1.0, 0.0])
        assert H.distance(p.evaluate_many([1.0])[0], np.array([0.0, 1.0, 0.0])) <= 1e-15

    def test_evaluate_many_matches_scalar(self):
        H = GroupModel("heisenberg")
        p = GroupPath(
            H,
            [([0.0, 1.0, 0.5], 0.3), ([1.0, -1.0, 0.0], 0.3), ([0.0, 0.2, 1.0], 0.4)],
            base=[0.1, 0.4, -0.3],
        )
        ts = np.linspace(0.0, 1.0, 37)
        many = p.evaluate_many(ts)
        for t, row in zip(ts, many):
            assert H.distance(row, p.evaluate_many([t])[0]) <= 1e-13

    def test_velocity_picks_segment_start_at_breakpoint(self):
        R1 = GroupModel("universal_torus", 1)
        p = GroupPath(R1, [([1.0], 0.5), ([-2.0], 0.5)])
        assert left_velocity(p, 0.5) == pytest.approx(-2.0)

    def test_loop_detection_respects_chart(self):
        # one winding of the torus: a loop downstairs, not in the cover
        for model, closes in ((GroupModel("torus", 1), True), (GroupModel("universal_torus", 1), False)):
            p = GroupPath.straight(model, [1.0])
            assert (model.distance(p.endpoint(), p.base) <= 1e-10) == closes

    def test_from_samples_reproduces_path(self):
        H = GroupModel("heisenberg")
        p = GroupPath(H, [([0.0, 1.0, 0.0], 0.5), ([0.0, 0.0, 1.0], 0.5)])
        ts = np.linspace(0.0, 1.0, 65)
        q = GroupPath.from_samples(H, ts, p.evaluate_many(ts))
        ts = np.linspace(0.0, 1.0, 11)
        assert H.distance(p.evaluate_many(ts), q.evaluate_many(ts)).max() <= 1e-10

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + str(m.dim))
    def test_nodes_match_sequential_products(self, model):
        # reference: the node recursion node_{k+1} = node_k * exp(w_k d_k)
        for segments in (1, 7, 300):
            durs = RNG.uniform(0.5, 1.5, segments)
            durs /= durs.sum()
            dirs = RNG.uniform(-2.0, 2.0, (segments, model.dim))
            p = GroupPath(model, list(zip(dirs, durs)), base=random_elements(model, 1)[0])
            node = p.base
            for k in range(segments):
                node = model.multiply(node, model.exp(dirs[k], durs[k]))
                assert model.distance(p.nodes[k + 1], node) <= 1e-12 * max(1.0, np.abs(node).max())

    def test_from_samples_validates_samples(self):
        ts = np.linspace(0.0, 1.0, 5)
        with pytest.raises(InputError):
            GroupPath.from_samples(GroupModel("heisenberg"), ts, np.zeros((4, 3)))
        with pytest.raises(InputError):
            GroupPath.from_samples(GroupModel("torus", 2), ts, np.zeros((5, 2)))

    def test_base_left_translates_path(self):
        H = GroupModel("heisenberg")
        segments = [([0.0, 1.0, 0.0], 0.5), ([1.0, 0.0, 1.0], 0.5)]
        p = GroupPath(H, segments)
        g = np.array([0.5, -1.0, 2.0])
        q = GroupPath(H, segments, base=g)
        for t in [0.1, 0.6, 0.9]:
            assert np.array_equal(left_velocity(q, t), left_velocity(p, t))
            assert H.distance(q.evaluate_many([t])[0], H.multiply(g, p.evaluate_many([t])[0])) <= 1e-12


class TestPathProduct:
    def test_product_with_trivial_path(self):
        H = GroupModel("heisenberg")
        p = GroupPath(H, [([0.0, 1.0, 0.0], 0.5), ([0.0, 0.0, 1.0], 0.5)])
        prod = path_product(p, GroupPath.straight(H, np.zeros(3)))
        assert H.distance(prod.endpoint(), p.endpoint()) <= 1e-10
        ts = np.linspace(0.0, 1.0, 9)
        assert H.distance(prod.evaluate_many(ts), p.evaluate_many(ts)).max() <= 1e-9

    def test_torus_cover_segments_commute(self):
        R2 = GroupModel("universal_torus", 2)
        xi, eta = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        p = GroupPath(R2, [(xi, 0.5), (eta, 0.5)])
        q = GroupPath(R2, [(eta, 0.5), (xi, 0.5)])
        assert R2.distance(p.endpoint(), q.endpoint()) <= 1e-12
        prod = path_product(p, q)
        assert R2.distance(prod.endpoint(), xi + eta) <= 1e-10

    def test_central_loop_squared(self):
        H = GroupModel("heisenberg")
        loop = GroupPath.straight(H, [1.0, 0.0, 0.0])
        prod = path_product(loop, loop)
        assert H.distance(prod.endpoint(), [2.0, 0.0, 0.0]) <= 1e-10

    def test_nodes_are_pointwise_products_at_union_times(self):
        # the product samples p(t) q(t) at the union of both paths'
        # breakpoints and adds no other time; on the torus cover the
        # exponential steps between them are the pointwise product itself
        H, R2 = GroupModel("heisenberg"), GroupModel("universal_torus", 2)
        for model in (H, R2):
            for _ in range(5):
                p, q = (
                    GroupPath(model, zip(RNG.uniform(-2.0, 2.0, (m, model.dim)), RNG.dirichlet(np.ones(m))))
                    for m in RNG.integers(1, 6, 2)
                )
                prod = path_product(p, q)
                union = np.union1d(p.times, q.times)
                assert np.array_equal(prod.times, union)
                want = model.multiply(p.evaluate_many(union), q.evaluate_many(union))
                assert np.array_equal(prod.nodes, want)
                if model is R2:
                    ts = RNG.uniform(0.0, 1.0, 50)
                    gap = prod.evaluate_many(ts) - (p.evaluate_many(ts) + q.evaluate_many(ts))
                    assert np.abs(gap).max() <= 1e-14

    def test_requires_identity_base(self):
        H = GroupModel("heisenberg")
        p = GroupPath.straight(H, [0.0, 1.0, 0.0], base=[0.0, 1.0, 1.0])
        with pytest.raises(InputError):
            path_product(p, GroupPath.straight(H, np.zeros(3)))

    def test_requires_cover_model(self):
        T = GroupModel("torus", 2)
        p = GroupPath.straight(T, [1.0, 0.0])
        with pytest.raises(InputError):
            path_product(p, p)


class TestConcat:
    def test_concat_traverses_both(self):
        R2 = GroupModel("universal_torus", 2)
        p = GroupPath.straight(R2, [1.0, 0.0])
        q = GroupPath.straight(R2, [0.0, 2.0])
        c = concat_paths(p, q, 0.5)
        assert np.allclose(c.evaluate_many([0.5])[0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(c.endpoint(), [1.0, 2.0], atol=1e-12)

    def test_concat_deck_translates_second_path(self):
        # loop ending at the deck element (1,0) followed by an identity-based
        # path: the second leg starts at (1,0) in the cover chart
        R2 = GroupModel("universal_torus", 2)
        gamma = GroupPath.straight(R2, [1.0, 0.0])
        x = GroupPath.straight(R2, [0.5, 0.5])
        c = concat_paths(gamma, x, 0.5)
        assert np.allclose(c.evaluate_many([0.75])[0], [1.25, 0.25], atol=1e-12)
        assert np.allclose(c.endpoint(), [1.5, 0.5], atol=1e-12)

    def test_concat_split_validated(self):
        R1 = GroupModel("universal_torus", 1)
        p = GroupPath.straight(R1, [1.0])
        with pytest.raises(InputError):
            concat_paths(p, p, 1.0)
