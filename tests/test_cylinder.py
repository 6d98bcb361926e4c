from __future__ import annotations

import warnings

import numpy as np
import pytest

from momenta import cylinder
from momenta.cylinder import (
    K,
    _kinetic_field,
    _kinetic_flow,
    affine_action,
    casimir,
    deck_group_of_reduced_cover,
    gamma_mu,
    noether_check,
    orbit_descriptor,
    reduction_fiber_check,
)
from momenta.errors import InputError, NumericalError
from momenta.groups import GroupPath, concat_paths, path_product
from momenta.lattices import LatticeSubgroup
from momenta.momentum import (
    PhasePath,
    lifted_action_on_path,
    momentum_of_path,
    sigma_J,
)
from momenta.scenario import build_scenario, parse_config
from momenta.symplectic import PhasePoint

RNG = np.random.default_rng(918273)


def scenario(text):
    return build_scenario(parse_config(text))


SC_TORUS = scenario(
    '{"group":"torus","dim":2,"theta":[["0","1"],["-1","0"]],"muList":[[0.3,-0.2]]}'
)
SC_FLAT = scenario('{"group":"torus","dim":2,"theta":[["0","0"],["0","0"]]}')
SC_HEIS = scenario(
    '{"group":"centralExtension","sigma":["1","0"],"muList":[[0.5,0.1,-0.4]]}'
)
SC_TORUS3 = scenario(
    '{"group":"torus","dim":3,"theta":[["0","1","0"],["-1","0","0"],["0","0","0"]]}'
)
SC_DENSE = scenario(
    '{"group":"torus","dim":3,"field":2,'
    '"theta":[["0","1","1*al"],["-1","0","1"],["-1*al","-1","0"]]}'
)


def deck_loop_phase(sc, k):
    return PhasePath.with_linear_momentum(sc.loop_path(k), np.zeros(sc.n))


class TestCylinderPoints:
    def test_projection_homomorphism(self):
        for sc in (SC_TORUS, SC_HEIS):
            c = sc.cylinder
            for _ in range(1000):
                a = RNG.uniform(-5.0, 5.0, sc.n)
                b = RNG.uniform(-5.0, 5.0, sc.n)
                lhs = c.project(a + b)
                rhs = c.project(a).translate(b)
                assert c.distance(lhs, rhs) <= 1e-10

    def test_canonicalization_idempotent(self):
        for sc in (SC_TORUS, SC_HEIS, SC_DENSE):
            c = sc.cylinder
            for _ in range(100):
                p = c.project(RNG.uniform(-4.0, 4.0, sc.n))
                again = c.project(p.representative)
                assert np.allclose(again.representative, p.representative, atol=1e-12)

    def test_frozen_heisenberg_example(self):
        # closure is Z*(0,1,0) for sigma=(1,0): psi and nu_2 pass through,
        # nu_1 reduces mod 1: (2.0, 1.7, 0.3) -> (2.0, 0.7, 0.3)
        p = SC_HEIS.cylinder.project([2.0, 1.7, 0.3])
        assert np.allclose(p.representative, [2.0, 0.7, 0.3], atol=1e-12)

    def test_wraparound_distance(self):
        c = SC_TORUS.cylinder
        d = c.distance(c.project([0.999, 0.0]), c.project([0.001, 0.0]))
        assert abs(d - 0.002) <= 1e-12

    def test_dense_subspace_removed(self):
        c = SC_DENSE.cylinder
        assert c.V.shape[0] >= 1
        for _ in range(20):
            mu = RNG.uniform(-2.0, 2.0, 3)
            v = RNG.uniform(-3.0, 3.0, c.V.shape[0]) @ c.V
            assert c.distance(c.project(mu), c.project(mu + v)) <= 1e-9

    @pytest.mark.parametrize("sc", [SC_DENSE, SC_TORUS3, SC_HEIS], ids=["dense3", "torus3", "heis"])
    def test_representative_coordinates(self, sc):
        # the representative has no V component and Lambda coordinates in
        # [0, 1], and it differs from mu by V plus integer multiples of Lambda
        c = sc.cylinder
        nv = c.V.shape[0]
        mus = np.random.default_rng(5).uniform(-4.0, 4.0, (100, sc.n))
        reps = c.project(mus).representative

        def coords(x):
            return np.linalg.lstsq(np.vstack([c.V, c.L]).T, x.T, rcond=None)[0].T

        rep, shift = coords(reps), coords(reps - mus)[:, nv:]
        assert np.abs(rep[:, :nv]).max(initial=0.0) <= 1e-12
        assert np.all(rep[:, nv:] >= -1e-12) and np.all(rep[:, nv:] <= 1.0 + 1e-12)
        assert np.abs(shift - np.round(shift)).max() <= 1e-9

    def test_equality_tolerance(self):
        c = SC_TORUS.cylinder
        p = c.project([0.25, 0.5])
        assert c.distance(p, c.project([0.25 + 5e-10, 0.5])) <= 1e-9
        assert not c.distance(p, c.project([0.25 + 1e-6, 0.5])) <= 1e-9


class TestK:
    def test_path_independence_under_deck_shifts(self):
        for sc in (SC_TORUS, SC_HEIS):
            for _ in range(25):
                x = sc.random_phase_path(RNG)
                k = sc.random_loop_coefficients(RNG)
                shifted = deck_loop_phase(sc, k).concat(x)
                a = K(sc.model, sc.cylinder, x)
                b = K(sc.model, sc.cylinder, shifted)
                assert sc.cylinder.distance(a, b) <= 1e-8

    def test_equivariance(self):
        for sc in (SC_TORUS, SC_HEIS):
            for _ in range(25):
                g_path = sc.random_cover_path(RNG)
                x = sc.random_phase_path(RNG)
                moved = lifted_action_on_path(g_path, x)
                lhs = K(sc.model, sc.cylinder, moved)
                rhs = sc.cylinder.project(affine_action(sc.model, g_path, K(sc.model, sc.cylinder, x).representative))
                assert sc.cylinder.distance(lhs, rhs) <= 1e-8

    def test_dense_holonomy_still_projects_away(self):
        sc = SC_DENSE
        x = sc.random_phase_path(RNG)
        shifted = deck_loop_phase(sc, [1, 0, 0]).concat(x)
        a = K(sc.model, sc.cylinder, x)
        b = K(sc.model, sc.cylinder, shifted)
        assert sc.cylinder.distance(a, b) <= 1e-8


class TestSigmaK:
    def test_lift_independence(self):
        for sc in (SC_TORUS, SC_HEIS):
            for _ in range(10):
                lift = sc.random_cover_path(RNG)
                loop = sc.loop_path(sc.random_loop_coefficients(RNG))
                other = concat_paths(loop, lift)
                a = sc.cylinder.project(sigma_J(sc.model, lift))
                b = sc.cylinder.project(sigma_J(sc.model, other))
                assert sc.cylinder.distance(a, b) <= 1e-8

    def test_cylinder_cocycle(self):
        # sigma_J(p*q) = sigma_J(p) + Ad*_{p(1)^{-1}} sigma_J(q) descends to the
        # cylinder because the coadjoint action fixes the closure pointwise
        for sc in (SC_TORUS, SC_HEIS):
            for _ in range(20):
                p = sc.random_cover_path(RNG)
                q = sc.random_cover_path(RNG)
                pq = path_product(p, q)
                lhs = sc.cylinder.project(sigma_J(sc.model, pq))
                coad = sc.cover.coadjoint_inv(p.endpoint())
                rhs = sc.cylinder.project(
                    sigma_J(sc.model, p) + coad @ sigma_J(sc.model, q)
                )
                assert sc.cylinder.distance(lhs, rhs) <= 1e-8

    def test_flat_scenario_vanishes(self):
        sc = SC_FLAT
        for _ in range(5):
            lift = sc.random_cover_path(RNG)
            point = sc.cylinder.project(sigma_J(sc.model, lift))
            assert sc.cylinder.distance(point, sc.cylinder.project(np.zeros(sc.n))) <= 1e-12


class TestAffineActions:
    def test_torus_affine_action_formula(self):
        sc = SC_TORUS
        theta = sc.theta.float_matrix()
        for _ in range(10):
            mu = RNG.uniform(-1.5, 1.5, sc.n)
            path = sc.random_cover_path(RNG)
            # abelian coadjoint is trivial and sigma_J = Theta = theta * endpoint
            want = mu + theta @ path.endpoint()
            assert np.linalg.norm(affine_action(sc.model, path, mu) - want) <= 1e-9

    def test_infinitesimal_generator(self):
        # d/dt|_0 of the affine action along exp(t xi) at mu: coadjoint rate
        # plus the cocycle's rate theta @ xi
        h = 1e-4
        for sc in (SC_TORUS, SC_HEIS):
            theta = sc.theta.float_matrix()
            for _ in range(10):
                mu = RNG.uniform(-1.5, 1.5, sc.n)
                xi = RNG.uniform(-1.0, 1.0, sc.n)
                plus = affine_action(sc.model, GroupPath.straight(sc.cover, h * xi), mu)
                minus = affine_action(sc.model, GroupPath.straight(sc.cover, -h * xi), mu)
                fd = (plus - minus) / (2.0 * h)
                if sc.kind == "torus":
                    coad_rate = np.zeros(sc.n)
                else:
                    coad_rate = np.array([0.0, xi[2] * mu[0], -xi[1] * mu[0]])
                assert np.linalg.norm(fd - (coad_rate + theta @ xi)) <= 1e-5

    def test_infinitesimal_generator_at_base_mu(self):
        # at mu = 0 the coadjoint part drops out and the rate is exactly the
        # cocycle's, theta @ xi, also in the cylinder
        h = 1e-4
        for sc in (SC_TORUS, SC_HEIS):
            theta = sc.theta.float_matrix()
            for _ in range(5):
                xi = RNG.uniform(-1.0, 1.0, sc.n)
                mu = np.zeros(sc.n)
                plus = affine_action(sc.model, GroupPath.straight(sc.cover, h * xi), mu)
                minus = affine_action(sc.model, GroupPath.straight(sc.cover, -h * xi), mu)
                fd = (plus - minus) / (2.0 * h)
                assert np.linalg.norm(fd - theta @ xi) <= 1e-5
                lhs = sc.cylinder.project(fd)
                rhs = sc.cylinder.project(theta @ xi)
                assert sc.cylinder.distance(lhs, rhs) <= 1e-5


class TestGammaMuDeck:
    def test_gamma_mu_torus_is_everything(self):
        for sc in (SC_TORUS, SC_FLAT, SC_DENSE):
            lat = gamma_mu(sc, sc.mu_list[0] if sc.mu_list else np.zeros(sc.n))
            assert lat == LatticeSubgroup.standard(sc.gamma_dim)

    def test_gamma_mu_central_extension(self):
        assert gamma_mu(SC_HEIS, SC_HEIS.mu_list[0]) == LatticeSubgroup.standard(1)

    def test_deck_group_trivial_for_cotangent_scenarios(self):
        for sc in (SC_TORUS, SC_FLAT, SC_HEIS):
            for gamma_n in (LatticeSubgroup.zero(sc.gamma_dim), sc.gamma0):
                deck = deck_group_of_reduced_cover(sc, sc.mu_list[0], gamma_n)
                assert deck.is_trivial
                assert deck.describe() == "trivial"

    def test_non_hamiltonian_gamma_n_rejected(self):
        # gamma_0 = 0 for invertible theta, so any nonzero gamma_n is illegal
        with pytest.raises(InputError, match="not a Hamiltonian cover"):
            deck_group_of_reduced_cover(
                SC_TORUS, SC_TORUS.mu_list[0], LatticeSubgroup.standard(2)
            )


class TestOrbits:
    def test_torus_invertible_spans_everything(self):
        desc = orbit_descriptor(SC_TORUS, [0.3, -0.2], rng=np.random.default_rng(11))
        assert desc.kind == "affineSubspace"
        assert desc.basis.shape[0] == 2
        for _ in range(10):
            assert desc.contains(RNG.uniform(-5.0, 5.0, 2))

    def test_torus_flat_orbit_is_a_point(self):
        desc = orbit_descriptor(SC_FLAT, [0.4, 0.9], rng=np.random.default_rng(12))
        assert desc.basis.shape[0] == 0
        assert desc.contains([0.4, 0.9])
        assert not desc.contains([0.5, 0.9])

    def test_torus_rank_two_plane(self):
        desc = orbit_descriptor(SC_TORUS3, [0.1, 0.2, 0.3], rng=np.random.default_rng(13))
        assert desc.basis.shape[0] == 2
        assert desc.contains([0.7, -0.4, 0.3])
        assert not desc.contains([0.1, 0.2, 0.4])

    def test_heisenberg_level_set(self):
        mu = np.array([0.5, 0.1, -0.4])
        desc = orbit_descriptor(SC_HEIS, mu, rng=np.random.default_rng(14))
        assert desc.kind == "casimirLevelSet"
        # f = psi^2/2 - <(0,-1), nu> = 0.125 + (-0.4) = -0.275
        assert abs(desc.casimir_value - (-0.275)) <= 1e-12
        assert desc.contains(mu)
        assert not desc.contains(mu + np.array([0.0, 0.0, 0.1]))

    def test_stacked_points_all_on_the_orbit(self):
        # a stack is on the orbit only when every row is, whichever row is off
        plane = orbit_descriptor(SC_TORUS3, [0.1, 0.2, 0.3], rng=np.random.default_rng(13))
        on, off = [0.7, -0.4, 0.3], [0.1, 0.2, 0.4]
        assert plane.contains([on, on, [0.1, 0.2, 0.3]])
        assert not plane.contains([on, off]) and not plane.contains([off, on])
        mu = np.array([0.5, 0.1, -0.4])
        level = orbit_descriptor(SC_HEIS, mu, rng=np.random.default_rng(14))
        moved = affine_action(SC_HEIS.model, SC_HEIS.draw_paths(RNG, 5, "cover")[0], mu)
        assert level.contains(moved)
        assert not level.contains(np.vstack([moved, mu + np.array([0.0, 0.0, 0.1])]))

    def test_residual_is_the_distance_to_the_plane(self):
        # the orbit frame is orthonormal and spans the orbit basis rows
        desc = orbit_descriptor(SC_TORUS3, [0.1, 0.2, 0.3], rng=np.random.default_rng(13))
        frame = SC_TORUS3.orbit_frame
        assert desc.frame is frame and frame.shape == (3, 2)
        np.testing.assert_allclose(frame.T @ frame, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(desc.basis - (desc.basis @ frame) @ frame.T, 0.0, atol=1e-15)
        np.testing.assert_allclose(desc.residuals([[0.1, 0.2, 0.3], [2.0, -1.0, 0.55]]), [0.0, 0.25], atol=1e-15)
        assert SC_FLAT.orbit_frame.shape == (2, 0)

    def test_casimir_gap_bound_scales_with_mu(self):
        # at mu x 1e6 the sampled Casimir gap is about 1.5e-5: inside
        # 1e-8 * |mu|^2 but not the absolute residual the checks read
        mu = np.array([5e5, 1e5, -4e5])
        desc = orbit_descriptor(SC_HEIS, mu, rng=np.random.default_rng(14))
        assert desc.casimir_value == casimir(SC_HEIS.model, mu)
        moved = affine_action(SC_HEIS.model, SC_HEIS.random_cover_path(RNG), mu)
        assert desc.residuals(moved)[0] <= 1e-8 * (mu @ mu)

    def test_casimir_invariance(self):
        sc = SC_HEIS
        mu = np.array([0.5, 0.1, -0.4])
        f0 = casimir(sc.model, mu)
        for _ in range(100):
            moved = affine_action(sc.model, sc.random_cover_path(RNG), mu)
            assert abs(casimir(sc.model, moved) - f0) <= 1e-8

    def test_casimir_sign_is_pinned(self):
        # the opposite contraction sign w -> -w is NOT conserved, so this
        # invariance test genuinely pins the convention: psi^2/2 + <w, nu>
        # is psi^2 minus the Casimir
        sc = SC_HEIS
        mu = np.array([0.5, 0.1, -0.4])

        def wrong(m):
            return m[0] * m[0] - casimir(sc.model, m)

        worst = 0.0
        for _ in range(50):
            moved = affine_action(sc.model, sc.random_cover_path(RNG), mu)
            worst = max(worst, abs(wrong(moved) - wrong(mu)))
        assert worst > 0.1

    def test_torus_basis_is_reduced_once_per_scenario(self, monkeypatch):
        from momenta import exact, scenario as scenario_module

        calls = []

        def counting_echelon(rows, *args):
            calls.append(len(rows))
            return exact.echelon(rows, *args)

        monkeypatch.setattr(scenario_module, "echelon", counting_echelon)
        sc = scenario('{"group":"torus","dim":3,"theta":[["0","1","0"],["-1","0","0"],["0","0","0"]]}')
        first = orbit_descriptor(sc, [0.1, 0.2, 0.3], rng=np.random.default_rng(1))
        second = orbit_descriptor(sc, [-0.5, 0.0, 0.7], rng=np.random.default_rng(2))
        assert calls == [3]
        # rref rows of the theta columns (0,-1,0) and (1,0,0): e_1 and e_2
        assert np.array_equal(first.basis, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert second.basis is first.basis and not first.basis.flags.writeable

    @pytest.mark.parametrize("sc", [SC_TORUS, SC_TORUS3, SC_HEIS], ids=["torus2", "torus3", "heis"])
    def test_batched_rows_match_straight_affine_action(self, sc):
        # the orbit validation moves mu along a batch of straight lifts; each
        # row must be the single lift's value, bit for bit
        directions = RNG.uniform(-2.0, 2.0, (40, sc.n))
        mu = RNG.uniform(-1.5, 1.5, sc.n)
        rows = affine_action(sc.model, GroupPath.straight(sc.cover, directions), mu)
        assert rows.shape == directions.shape
        for x, row in zip(directions, rows):
            assert np.array_equal(row, affine_action(sc.model, GroupPath.straight(sc.cover, x), mu))

    def test_validation_draws_one_direction_per_sample(self):
        # the batched draw is the same stream as one draw per sample, so a
        # caller's generator ends where it did with per-sample validation
        batched, single = np.random.default_rng(31), np.random.default_rng(31)
        orbit_descriptor(SC_HEIS, SC_HEIS.mu_list[0], rng=batched, samples=200)
        for _ in range(200):
            single.uniform(-2.0, 2.0, SC_HEIS.n)
        assert batched.uniform() == single.uniform()

    @pytest.mark.parametrize(
        "sc, mu", [(SC_FLAT, [0.4, 0.9]), (SC_HEIS, SC_HEIS.mu_list[0])], ids=["flat", "heis"]
    )
    def test_escaped_sample_raises(self, sc, mu, monkeypatch):
        exact = cylinder.affine_action

        def nudged(model, g_path, mu):
            out = exact(model, g_path, mu)
            out[7, -1] += 1e-3
            return out

        monkeypatch.setattr(cylinder, "affine_action", nudged)
        with pytest.raises(NumericalError, match="escaped its analytic description"):
            orbit_descriptor(sc, mu, rng=np.random.default_rng(5))


class TestNoether:
    def test_zero_time(self):
        x = PhasePath.to_point(SC_TORUS.model, [0.3, 0.1], [0.4, -0.2])
        assert noether_check(SC_TORUS.model, SC_TORUS.cylinder, x, 0.0) == 0.0

    def test_short_flow_time_is_checked(self, monkeypatch):
        # a field pushing the first momentum coordinate (at the rate of that
        # coordinate) moves K at once; a flow shorter than the checkpoint
        # spacing must still read it
        n = SC_HEIS.n

        def pushing(model):
            A, Q = _kinetic_field(model)
            A[n, n] += 1.0
            return A, Q

        monkeypatch.setattr(cylinder, "_kinetic_field", pushing)
        x = PhasePath.to_point(SC_HEIS.model, [0.2, 0.1, -0.3], [0.4, 0.2, 0.1])
        assert noether_check(SC_HEIS.model, SC_HEIS.cylinder, x, 0.05) > 0.01

    def test_negative_time_rejected(self):
        x = PhasePath.to_point(SC_TORUS.model, [0.3, 0.1], [0.4, -0.2])
        with pytest.raises(InputError):
            noether_check(SC_TORUS.model, SC_TORUS.cylinder, x, -1.0)

    def test_torus_drift(self):
        x = PhasePath.to_point(SC_TORUS.model, [0.3, 0.1], [0.4, -0.2])
        assert noether_check(SC_TORUS.model, SC_TORUS.cylinder, x, 1.0) <= 1e-6

    def test_heisenberg_drift(self):
        x = PhasePath.to_point(SC_HEIS.model, [0.2, 0.1, -0.3], [0.4, 0.2, 0.1])
        assert noether_check(SC_HEIS.model, SC_HEIS.cylinder, x, 1.0) <= 1e-6

    def test_overflowing_terms_fail_without_a_warning(self):
        # at |mu| = 1e12 the first Taylor terms overflow to inf and NaN; the
        # rate check rejects them, and numpy must not warn on the way
        sc = scenario('{"group":"heisenberg","sigma":["1","0"],"muList":[[1e12,0,0]]}')
        x = PhasePath.to_point(sc.model, [0.2, 0.1, -0.3], [1e12, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                noether_check(sc.model, sc.cylinder, x, 1.0)

    def test_kinetic_field_solves_the_form(self):
        # reference: solve omega(X, .) = d(|mu|^2 / 2) with the assembled
        # matrix; the field the flow runs gives chart velocities, which the
        # chart-to-body map takes back to the body frame
        for sc in (SC_TORUS, SC_FLAT, SC_HEIS, SC_TORUS3, SC_DENSE):
            n = sc.n
            A, Q = _kinetic_field(sc.model)
            for _ in range(20):
                z = PhasePoint(RNG.uniform(-1.0, 1.0, n), RNG.uniform(-2.0, 2.0, n))
                want = np.linalg.solve(sc.model.omega_matrix(z).T, np.concatenate([np.zeros(n), z.mu]))
                y = np.concatenate([z.g, z.mu])
                dy = A @ y + np.einsum("kab,a,b->k", Q, y, y)
                got = np.concatenate([sc.cover.chart_to_body(z.g) @ dy[:n], dy[n:]])
                assert np.allclose(got, want, rtol=0.0, atol=1e-13)

    def test_torus_flow_is_a_rotation(self):
        # Sigma = J: mu rotates at unit speed and g integrates it,
        # g(t) = g0 + [[sin t, cos t - 1], [1 - cos t, sin t]] mu0, read at
        # the 11 checkpoints
        g0, mu0 = np.array([0.3, 0.1]), np.array([0.4, -0.2])
        ys = _kinetic_flow(SC_TORUS.model, np.concatenate([g0, mu0]), 1.0)
        assert ys.shape == (11, 4)
        t = np.linspace(0.0, 1.0, 11)[:, None]
        c, s = np.cos(t), np.sin(t)
        mu = np.hstack([c * mu0[0] - s * mu0[1], s * mu0[0] + c * mu0[1]])
        g = g0 + np.hstack([s * mu0[0] + (c - 1.0) * mu0[1], (1.0 - c) * mu0[0] + s * mu0[1]])
        assert np.abs(ys - np.hstack([g, mu])).max() <= 1e-12


class TestReductionFiber:
    def test_torus(self):
        shift, detail = reduction_fiber_check(SC_TORUS, [0.3, -0.2], samples=5, rng=np.random.default_rng(21))
        assert detail == ""
        assert shift <= 1e-8

    def test_heisenberg(self):
        shift, detail = reduction_fiber_check(SC_HEIS, [0.5, 0.1, -0.4], samples=5, rng=np.random.default_rng(22))
        assert detail == ""
        assert shift <= 1e-8

    def test_construction_bound_scales_with_mu(self):
        # far from unit scale the check measures the shift instead of
        # failing to construct its test paths
        mu = [1e8, -3e7]
        sc = scenario('{"group":"torus","dim":2,"theta":[["0","1"],["-1","0"]],"muList":[[1e8,-3e7]]}')
        shift, detail = reduction_fiber_check(sc, mu, samples=5, rng=np.random.default_rng(0))
        assert detail == ""
        assert np.isfinite(shift) and shift <= 1e-14 * np.linalg.norm(mu)
