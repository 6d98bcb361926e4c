from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_reference import FIELDS, Elt, elements, exact, lift
from momenta.errors import InputError
from momenta.exact import QuadraticField
from momenta.groups import GroupModel
from momenta.symplectic import CocycleTheta, MagneticCotangent, PhaseTangent

RNG = np.random.default_rng(77002)
F2 = QuadraticField(2)


def torus_model(theta_rows=None, d=2):
    theta = CocycleTheta(F2, [["0"] * d] * d if theta_rows is None else theta_rows)
    return MagneticCotangent(GroupModel("torus", d), theta)


def heisenberg_model(sigma=("1", "0")):
    theta = CocycleTheta.from_sigma(F2, sigma)
    return MagneticCotangent(GroupModel("central_extension"), theta)


THETA_2D = [["0", "1"], ["-1", "0"]]


def random_tangent(model):
    return PhaseTangent(RNG.uniform(-2, 2, model.n), RNG.uniform(-2, 2, model.n))


def random_point(model):
    return model.point(RNG.uniform(-2, 2, model.n), RNG.uniform(-2, 2, model.n))


class H3PlusR:
    """Stub 4-dim algebra h3 + R: [e1, e2] = e0, and e3 central and outside
    every bracket.  Unlike the supported models it has skew forms that are
    not cocycles: the identity on (e1, e2, e3) reads theta(e0, e3) = 0."""

    dim = 4
    pairs = ((1, 2, 0),)


def dense_is_cocycle(theta, model) -> bool:
    """Oracle: the cocycle identity summed in Fraction arithmetic over every
    basis triple and every structure constant, zero or not."""
    n = theta.dim
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a, b, k in model.pairs:
        c[a][b][k], c[b][a][k] = 1, -1
    matrix = lift(theta.matrix)
    for a, b, d in itertools.product(range(n), repeat=3):
        total = 0
        for x, y, z in ((a, b, d), (b, d, a), (d, a, b)):
            for k in range(n):
                total = total + matrix[z][k] * c[x][y][k]
        if total:
            return False
    return True


def random_skew_theta(rng, n, zero_03=False):
    def entry():
        a = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        b = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        return F2.scalar(a, b)

    rows = [[F2.zero] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if not (zero_03 and (i, j) == (0, 3)):
            rows[i][j] = entry()
            rows[j][i] = -rows[i][j]
    return CocycleTheta(F2, rows)


class TestCocycleTheta:
    def test_skewness_enforced(self):
        with pytest.raises(InputError):
            CocycleTheta(F2, [["0", "1"], ["1", "0"]])

    def test_sigma_assembly(self):
        theta = CocycleTheta.from_sigma(F2, ("1", "2"))
        assert np.array_equal(
            theta.float_matrix(),
            np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]]),
        )

    def test_cocycle_identity_heisenberg(self):
        # the only nontrivial bracket is central, so the identity reduces to
        # skew terms cancelling; it holds for every skew matrix here, and the
        # exact check must confirm that rather than reject anything
        H = GroupModel("heisenberg")
        assert CocycleTheta.from_sigma(F2, ("1", "0")).is_cocycle_for(H)
        assert CocycleTheta.from_sigma(F2, ("1/2", "1*al")).is_cocycle_for(H)
        generic = CocycleTheta(
            F2, [["0", "1", "1*al"], ["-1", "0", "1/3"], ["-1*al", "-1/3", "0"]]
        )
        assert generic.is_cocycle_for(H)

    def test_abelian_cocycle_vacuous(self):
        T = GroupModel("torus", 2)
        assert CocycleTheta(F2, THETA_2D).is_cocycle_for(T)

    @pytest.mark.parametrize(
        "model",
        [GroupModel("torus", 2), GroupModel("universal_torus", 5), GroupModel("heisenberg"),
         GroupModel("central_extension"), H3PlusR()],
        ids=["torus2", "torus5", "heis", "central", "h3+R"],
    )
    def test_sparse_identity_matches_dense_oracle(self, model):
        rng = np.random.default_rng(4242)
        verdicts = []
        for trial in range(30):
            theta = random_skew_theta(rng, model.dim, zero_03=trial % 2 == 0)
            verdict = theta.is_cocycle_for(model)
            assert verdict == dense_is_cocycle(theta, model)
            verdicts.append(verdict)
        # h3 + R rejects exactly the forms with theta(e0, e3) != 0; every
        # supported model accepts every skew form
        expected = [t % 2 == 0 for t in range(30)] if isinstance(model, H3PlusR) else [True] * 30
        assert verdicts == expected

    def test_h3_plus_r_rejects_e0_wedge_e3(self):
        rows = [["0"] * 4 for _ in range(4)]
        rows[0][3], rows[3][0] = "1", "-1"
        theta = CocycleTheta(F2, rows)
        assert not theta.is_cocycle_for(H3PlusR())
        assert not dense_is_cocycle(theta, H3PlusR())

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(FIELDS), st.data())
    def test_integer_identity_matches_fraction_oracle(self, fields_entry, data):
        _, r, rational = fields_entry
        field = QuadraticField(r)
        model = data.draw(st.sampled_from([GroupModel("torus", 3), GroupModel("heisenberg"), H3PlusR()]))
        n = model.dim
        upper = data.draw(st.lists(elements(r, rational), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        rows = [[Elt(0, 0, r)] * n for _ in range(n)]
        for (i, j), x in zip(itertools.combinations(range(n), 2), upper):
            rows[i][j], rows[j][i] = x, -x
        theta = CocycleTheta(field, exact(rows, field))
        assert theta.is_cocycle_for(model) == dense_is_cocycle(theta, model)
        # h3 + R: a cocycle exactly when theta(e0, e3) = 0
        assert theta.is_cocycle_for(model) == (not isinstance(model, H3PlusR) or not rows[0][3])

    def test_model_rejects_dimension_mismatch(self):
        theta = CocycleTheta(F2, THETA_2D)
        with pytest.raises(InputError):
            MagneticCotangent(GroupModel("heisenberg"), theta)


class TestOmega:
    @pytest.mark.parametrize(
        "make", [lambda: torus_model(THETA_2D), heisenberg_model], ids=["torus", "heis"]
    )
    def test_antisymmetric_and_bilinear(self, make):
        model = make()
        for _ in range(50):
            z = random_point(model)
            v1, v2, v3 = (random_tangent(model) for _ in range(3))
            a, b = RNG.uniform(-2, 2, 2)
            assert abs(model.omega(z, v1, v2) + model.omega(z, v2, v1)) <= 1e-12
            combo = PhaseTangent(a * v1.xi + b * v2.xi, a * v1.nu + b * v2.nu)
            lhs = model.omega(z, combo, v3)
            rhs = a * model.omega(z, v1, v3) + b * model.omega(z, v2, v3)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_same_vector_vanishes(self):
        model = heisenberg_model()
        for _ in range(10):
            z, v = random_point(model), random_tangent(model)
            assert abs(model.omega(z, v, v)) <= 1e-12

    def test_fiber_directions_isotropic(self):
        model = torus_model(THETA_2D)
        for _ in range(10):
            z = random_point(model)
            v1 = PhaseTangent(np.zeros(2), RNG.uniform(-2, 2, 2))
            v2 = PhaseTangent(np.zeros(2), RNG.uniform(-2, 2, 2))
            assert model.omega(z, v1, v2) == 0.0

    def test_torus_base_directions_give_minus_sigma(self):
        model = torus_model(THETA_2D)
        for _ in range(10):
            z = random_point(model)
            xi1, xi2 = RNG.uniform(-2, 2, (2, 2))
            got = model.omega(z, PhaseTangent(xi1, np.zeros(2)), PhaseTangent(xi2, np.zeros(2)))
            assert abs(got - (-xi1 @ model.sigma_matrix @ xi2)) <= 1e-12

    def test_torus_cross_check_fd_exterior_derivative(self):
        # canonical one-form lambda(g, mu)(xi, nu) = <mu, xi>; on the abelian
        # chart, Omega_theta = -d(lambda) - B_theta for constant chart fields
        model = torus_model(THETA_2D)
        h = 1e-5
        for _ in range(10):
            g, mu = RNG.uniform(-1, 1, (2, 2))
            v1, v2 = random_tangent(model), random_tangent(model)

            def lam(gp, mup, v):
                return mup @ v.xi

            d1 = (lam(g + h * v1.xi, mu + h * v1.nu, v2) - lam(g - h * v1.xi, mu - h * v1.nu, v2)) / (2 * h)
            d2 = (lam(g + h * v2.xi, mu + h * v2.nu, v1) - lam(g - h * v2.xi, mu - h * v2.nu, v1)) / (2 * h)
            dlam = d1 - d2
            expected = -dlam - v1.xi @ model.sigma_matrix @ v2.xi
            got = model.omega(model.point(g, mu), v1, v2)
            assert abs(got - expected) <= 1e-6

    def test_matrix_matches_scalar_form(self):
        model = heisenberg_model(("1/2", "1*al"))
        for _ in range(20):
            z = random_point(model)
            v1, v2 = random_tangent(model), random_tangent(model)
            M = model.omega_matrix(z)
            lhs = np.concatenate([v1.xi, v1.nu]) @ M @ np.concatenate([v2.xi, v2.nu])
            assert abs(lhs - model.omega(z, v1, v2)) <= 1e-12

    @pytest.mark.parametrize(
        "make", [lambda: torus_model(THETA_2D), heisenberg_model], ids=["torus", "heis"]
    )
    def test_nondegenerate_at_100_points(self, make):
        model = make()
        for _ in range(100):
            z = random_point(model)
            assert abs(np.linalg.det(model.omega_matrix(z))) >= 1e-8

    def test_heisenberg_closedness_fd(self):
        # exterior-derivative sum over left-invariant vector fields; their
        # flows are t -> (g exp(t xi), mu + t nu) and brackets are ([xi,eta],0)
        model = heisenberg_model()
        G = model.group
        h = 1e-4

        def flow(z, v, t):
            return model.point(G.multiply(z.g, G.exp(v.xi, t)), z.mu + t * v.nu)

        def deriv(z, v, f):
            return (f(flow(z, v, h)) - f(flow(z, v, -h))) / (2 * h)

        def lie(v1, v2):
            return PhaseTangent(G.bracket(v1.xi, v2.xi), np.zeros(3))

        for _ in range(20):
            z = random_point(model)
            X, Y, Z = (random_tangent(model) for _ in range(3))
            total = (
                deriv(z, X, lambda p: model.omega(p, Y, Z))
                - deriv(z, Y, lambda p: model.omega(p, X, Z))
                + deriv(z, Z, lambda p: model.omega(p, X, Y))
                - model.omega(z, lie(X, Y), Z)
                + model.omega(z, lie(X, Z), Y)
                - model.omega(z, lie(Y, Z), X)
            )
            assert abs(total) <= 1e-5

    def test_left_invariance(self):
        model = heisenberg_model(("1", "1/2"))
        G = model.group
        for _ in range(20):
            z = random_point(model)
            g0 = RNG.uniform(-2, 2, 3)
            v1, v2 = random_tangent(model), random_tangent(model)
            moved = model.point(G.multiply(g0, z.g), z.mu)
            assert abs(model.omega(moved, v1, v2) - model.omega(z, v1, v2)) <= 1e-10


class TestStackedPoints:
    @pytest.mark.parametrize(
        "make", [lambda: torus_model(THETA_2D), heisenberg_model], ids=["torus", "heis"]
    )
    def test_stacked_calls_match_per_point_calls(self, make):
        # points and tangents stacked in rows give each row what a call on
        # that row alone gives, bit for bit; a single tangent broadcasts
        model = make()
        g, mu, xi1, nu1, xi2, nu2, xi = RNG.uniform(-2, 2, (7, 30, model.n))
        z, v1, v2 = model.point(g, mu), model.tangent(xi1, nu1), model.tangent(xi2, nu2)
        forms, matrices, gens = model.omega(z, v1, v2), model.omega_matrix(z), model.generator(xi, z)
        first = model.tangent(xi1[0], nu1[0])
        against_first = model.omega(z, first, v2)
        for i in range(30):
            zi, w1, w2 = model.point(g[i], mu[i]), model.tangent(xi1[i], nu1[i]), model.tangent(xi2[i], nu2[i])
            single = model.omega(zi, w1, w2)
            assert isinstance(single, float) and forms[i] == single
            assert against_first[i] == model.omega(zi, first, w2)
            assert np.array_equal(matrices[i], model.omega_matrix(zi))
            gen = model.generator(xi[i], zi)
            assert np.array_equal(gens.xi[i], gen.xi) and np.array_equal(gens.nu[i], gen.nu)

    def test_components_must_match(self):
        model = heisenberg_model()
        with pytest.raises(InputError):
            model.point(np.zeros((4, 3)), np.zeros(3))
        with pytest.raises(InputError):
            model.tangent(np.zeros(2), np.zeros(2))


class TestGenerator:
    def test_at_identity(self):
        model = heisenberg_model()
        xi = RNG.uniform(-2, 2, 3)
        v = model.generator(xi, model.base_point())
        assert np.allclose(v.xi, xi, atol=1e-14)
        assert np.array_equal(v.nu, np.zeros(3))

    def test_torus_constant(self):
        model = torus_model(THETA_2D)
        xi = RNG.uniform(-2, 2, 2)
        for _ in range(5):
            v = model.generator(xi, random_point(model))
            assert np.allclose(v.xi, xi, atol=1e-14)

    def test_heisenberg_formula(self):
        # at g = (0, u): Ad_{g^-1}(beta, xi0) = (beta - w(u, xi0), xi0)
        model = heisenberg_model()
        u = np.array([1.5, -0.5])
        z = model.point([0.0, u[0], u[1]], [0.3, 0.1, -0.2])
        beta, xi0 = 0.7, np.array([2.0, 1.0])
        v = model.generator([beta, xi0[0], xi0[1]], z)
        w_u_xi0 = u[0] * xi0[1] - u[1] * xi0[0]
        assert np.allclose(v.xi, [beta - w_u_xi0, xi0[0], xi0[1]], atol=1e-13)

    def test_heisenberg_fd_cross_check(self):
        model = heisenberg_model()
        G = model.cover  # the log-based pullback needs the cover chart
        h = 1e-5
        for _ in range(10):
            g = RNG.uniform(-2, 2, 3)
            xi = RNG.uniform(-2, 2, 3)

            def body_velocity(t):
                # chart curve of the action, pulled back to the identity
                return G.log(G.multiply(G.inverse(g), G.multiply(G.exp(xi, t), g)))

            fd = (body_velocity(h) - body_velocity(-h)) / (2 * h)
            v = model.generator(xi, model.point(g, np.zeros(3)))
            assert np.linalg.norm(fd - v.xi) <= 1e-6 * max(1.0, np.linalg.norm(v.xi))


class TestChuMap:
    def test_base_point_is_minus_sigma(self):
        model = heisenberg_model(("1", "1/2"))
        assert np.allclose(model.chu_at_base(), -model.sigma_matrix, atol=1e-14)

    def test_torus_constant_minus_sigma(self):
        model = torus_model(THETA_2D)
        for _ in range(10):
            z = random_point(model)
            assert np.allclose(model.chu_map(z), -model.sigma_matrix, atol=1e-13)

    def test_zero_theta_zero_mu(self):
        model = heisenberg_model(("0", "0"))
        z = model.point(RNG.uniform(-1, 1, 3), np.zeros(3))
        assert np.allclose(model.chu_map(z), np.zeros((3, 3)), atol=1e-14)

    def test_matches_componentwise_omega(self):
        model = heisenberg_model(("1/3", "2"))
        for _ in range(10):
            z = random_point(model)
            psi = model.chu_map(z)
            assert np.allclose(psi, -psi.T, atol=1e-12)
            for i in range(3):
                for j in range(3):
                    e_i, e_j = np.eye(3)[i], np.eye(3)[j]
                    direct = model.omega(z, model.generator(e_i, z), model.generator(e_j, z))
                    assert abs(psi[i, j] - direct) <= 1e-12
