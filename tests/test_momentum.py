from __future__ import annotations

import numpy as np
import pytest

from momenta import symplectic
from momenta.errors import InputError
from momenta.exact import QuadraticField
from momenta.groups import GroupModel, GroupPath, path_product
from momenta.momentum import (
    PhasePath,
    _simpson_sweeps,
    horizontal_transport,
    lifted_action_on_path,
    momentum_closed_form,
    momentum_of_path,
    momentum_segments,
    sigma_J,
    theta_closed_form,
    theta_integral,
    verify_momentum_condition,
)
from momenta.scenario import build_scenario, parse_config
from momenta.symplectic import CocycleTheta, MagneticCotangent

RNG = np.random.default_rng(550123)
F2 = QuadraticField(2)

THETA_2D = [["0", "1"], ["-1", "0"]]
THETA_3D = [["0", "1", "0"], ["-1", "0", "1/2"], ["0", "-1/2", "0"]]


def torus_model(rows=THETA_2D, d=2):
    theta = CocycleTheta(F2, [["0"] * d] * d if rows is None else rows)
    return MagneticCotangent(GroupModel("torus", d), theta)


def heisenberg_model(sigma=("1", "0")):
    return MagneticCotangent(GroupModel("central_extension"), CocycleTheta.from_sigma(F2, sigma))


def random_cover_path(model, nseg=3, scale=1.5):
    cover = model.cover
    durs = RNG.uniform(0.2, 1.0, nseg)
    durs /= durs.sum()
    segs = [(RNG.uniform(-scale, scale, cover.dim), w) for w in durs]
    return GroupPath(cover, segs)


def random_phase_path(model, nseg=3):
    base = random_cover_path(model, nseg)
    momenta = RNG.uniform(-1.5, 1.5, (nseg + 1, model.n))
    momenta[0] = 0.0
    return PhasePath(base, momenta)


class TestThetaIntegral:
    def test_torus_single_segment_is_theta_xi(self):
        model = torus_model()
        cover = model.cover
        xi = np.array([0.7, -1.2])
        got = theta_integral(cover, model.theta, GroupPath.straight(cover, xi))
        assert np.allclose(got, model.theta.float_matrix() @ xi, atol=1e-12)

    def test_trivial_path_zero(self):
        model = heisenberg_model()
        got = theta_integral(model.cover, model.theta, GroupPath.straight(model.cover, np.zeros(model.n)))
        assert np.allclose(got, 0.0, atol=1e-14)

    def test_heisenberg_central_path(self):
        # central segment to (1,(0,0)): closed form gives (0; -sigma) = (0,-1,0)
        model = heisenberg_model(("1", "0"))
        path = GroupPath.straight(model.cover, [1.0, 0.0, 0.0])
        assert np.allclose(theta_integral(model.cover, model.theta, path), [0.0, -1.0, 0.0], atol=1e-12)

    def test_heisenberg_horizontal_segment(self):
        # endpoint (0,(1,0)), sigma=(1,0): sigma(u)=1, iota_u w = (-u2,u1)=(0,1),
        # so Theta = (1; 0 - (1/2)(0,1)) = (1, 0, -1/2)
        model = heisenberg_model(("1", "0"))
        path = GroupPath.straight(model.cover, [0.0, 1.0, 0.0])
        assert np.allclose(theta_integral(model.cover, model.theta, path), [1.0, 0.0, -0.5], atol=1e-12)

    def test_identity_base_required(self):
        model = heisenberg_model()
        path = GroupPath.straight(model.cover, [0.0, 1.0, 0.0], base=[1.0, 0.0, 0.0])
        with pytest.raises(InputError):
            theta_integral(model.cover, model.theta, path)


def heisenberg_theta(sigma, g):
    """Theta at g = (alpha, u) on the Heisenberg family:
    (sigma(u); -alpha sigma - sigma(u)/2 * i_u w), with the row-covector
    convention i_u w = (-u2, u1)."""
    s = np.asarray(sigma, dtype=float)
    alpha, u = g[0], np.asarray(g[1:])
    su = s @ u
    return np.concatenate([[su], -alpha * s - 0.5 * su * np.array([-u[1], u[0]])])


class TestThetaClosedForm:
    def test_frozen_examples(self):
        H, theta = GroupModel("heisenberg"), CocycleTheta.from_sigma(F2, ("1", "0"))
        got = theta_closed_form(H, theta, [0.0, 1.0, 0.0])
        assert np.allclose(got, [1.0, 0.0, -0.5], atol=1e-15)
        got = theta_closed_form(H, theta, [1.0, 0.0, 0.0])
        assert np.allclose(got, [0.0, -1.0, 0.0], atol=1e-15)
        assert np.allclose(theta_closed_form(H, theta, [0.0, 0.0, 0.0]), 0.0)

    def test_heisenberg_formula(self):
        H, sigma = GroupModel("heisenberg"), (0.5, -1.25)
        theta = CocycleTheta.from_sigma(F2, ("1/2", "-5/4"))
        gs = RNG.uniform(-2.0, 2.0, (20, 3))
        got = theta_closed_form(H, theta, gs)
        assert got.shape == gs.shape
        for g, row in zip(gs, got):
            assert np.array_equal(row, heisenberg_theta(sigma, g))
            assert np.array_equal(theta_closed_form(H, theta, g), row)

    def test_agrees_with_quadrature_on_random_paths(self):
        for model in (heisenberg_model(("1/2", "-5/4")), torus_model(THETA_3D, 3)):
            for _ in range(10):
                path = random_cover_path(model, nseg=4)
                via_integral = theta_integral(model.cover, model.theta, path)
                via_form = theta_closed_form(model.cover, model.theta, path.endpoint())
                assert np.allclose(via_integral, via_form, atol=1e-10)


class TestMomentumOfPath:
    def test_trivial_path_zero(self):
        model = torus_model()
        x = PhasePath.with_linear_momentum(GroupPath.straight(model.cover, np.zeros(model.n)), np.zeros(2))
        assert np.allclose(momentum_of_path(model, x), 0.0, atol=1e-14)

    def test_fiber_only_path_gives_mu(self):
        # base pinned at e: only the <nu-dot, xi> term survives, J = mu
        model = torus_model()
        mu = np.array([0.8, -0.3])
        x = PhasePath.with_linear_momentum(GroupPath.straight(model.cover, np.zeros(model.n)), mu)
        assert np.allclose(momentum_of_path(model, x), mu, atol=1e-12)
        model_h = heisenberg_model()
        mu3 = np.array([0.4, 1.0, -2.0])
        xh = PhasePath.with_linear_momentum(GroupPath.straight(model_h.cover, np.zeros(3)), mu3)
        assert np.allclose(momentum_of_path(model_h, xh), mu3, atol=1e-12)

    def test_base_point_enforced(self):
        model = torus_model()
        off_base = GroupPath.straight(model.cover, [1.0, 0.0], base=[0.5, 0.0])
        with pytest.raises(InputError):
            momentum_of_path(model, PhasePath.with_linear_momentum(off_base, np.zeros(2)))
        bad_mu = PhasePath.with_linear_momentum(
            GroupPath.straight(model.cover, np.zeros(model.n)), np.ones(2), mu_start=np.ones(2)
        )
        with pytest.raises(InputError):
            momentum_of_path(model, bad_mu)

    def test_start_momentum_boundary(self):
        # the base-point check skips its norm on exact zeros; a start of norm
        # 2e-12 is off the base point and one of 5e-13 on it, alone or in a
        # batch.  A NaN start is not the base point either
        model = torus_model()
        one, two = GroupPath.straight(model.cover, [1.0, 0.5]), GroupPath.straight(model.cover, [[1.0, 0.5]] * 2)
        mu = np.array([0.3, 0.1])
        for start, rejected in (([1.2e-12, 1.6e-12], True), ([3e-13, 4e-13], False), ([np.nan, 0.0], True)):
            start = np.array(start)
            single = PhasePath.with_linear_momentum(one, mu, mu_start=start)
            batch = PhasePath.with_linear_momentum(two, mu, mu_start=[np.zeros(2), start])
            for x in (single, batch):
                if rejected:
                    with pytest.raises(InputError, match="base point"):
                        momentum_of_path(model, x)
                else:
                    assert np.isfinite(momentum_of_path(model, x)).all()

    def test_homotopy_invariance_same_endpoint(self):
        # the cover phase space is simply connected: J depends only on the
        # endpoint, so wildly different segmentations must agree
        for model in [torus_model(), heisenberg_model(("1", "1/2"))]:
            target_g = RNG.uniform(-1.0, 1.0, model.n)
            target_mu = RNG.uniform(-1.0, 1.0, model.n)
            cover = model.cover
            direct = PhasePath.with_linear_momentum(
                GroupPath.straight(cover, cover.log(target_g)), target_mu
            )
            detour_base = GroupPath.from_samples(
                cover,
                [0.0, 0.3, 0.55, 0.8, 1.0],
                np.vstack(
                    [
                        cover.identity(),
                        RNG.uniform(-2.0, 2.0, (3, model.n)),
                        target_g,
                    ]
                ),
            )
            mid = RNG.uniform(-2.0, 2.0, (3, model.n))
            detour = PhasePath(detour_base, np.vstack([np.zeros(model.n), mid, target_mu]))
            J1 = momentum_of_path(model, direct)
            J2 = momentum_of_path(model, detour)
            assert np.linalg.norm(J1 - J2) <= 1e-9

    def test_closed_form_agreement(self):
        for model in [torus_model(), heisenberg_model(), heisenberg_model(("1/2", "1*al"))]:
            for _ in range(8):
                base = random_cover_path(model, nseg=3)
                mu = RNG.uniform(-1.5, 1.5, model.n)
                x = PhasePath.with_linear_momentum(base, mu)
                lhs = momentum_of_path(model, x)
                rhs = momentum_closed_form(model, base, mu)
                assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_torus_closed_form_is_mu_plus_theta_u(self):
        model = torus_model()
        th = model.theta.float_matrix()
        for _ in range(5):
            u = RNG.uniform(-2.0, 2.0, 2)
            mu = RNG.uniform(-2.0, 2.0, 2)
            base = GroupPath.straight(model.cover, u)
            assert np.allclose(momentum_closed_form(model, base, mu), mu + th @ u, atol=1e-12)

    def test_heisenberg_closed_form_formula(self):
        # J((alpha,u),(psi;nu)) = (psi + sigma(u); nu - alpha sigma
        #                          - (psi + sigma(u)/2) iota_u w)
        sigma = np.array([1.0, 0.0])
        model = heisenberg_model(("1", "0"))
        for _ in range(8):
            g = RNG.uniform(-2.0, 2.0, 3)
            mu = RNG.uniform(-2.0, 2.0, 3)
            alpha, u = g[0], g[1:]
            psi, nu = mu[0], mu[1:]
            su = sigma @ u
            iota = np.array([-u[1], u[0]])
            expected = np.concatenate(
                [[psi + su], nu - alpha * sigma - (psi + 0.5 * su) * iota]
            )
            base = GroupPath.straight(model.cover, model.cover.log(g))
            assert np.allclose(momentum_closed_form(model, base, mu), expected, atol=1e-10)


class TestTransportOracle:
    def test_trivial_path_zero(self):
        model = heisenberg_model()
        x = PhasePath.with_linear_momentum(GroupPath.straight(model.cover, np.zeros(model.n)), np.zeros(3))
        assert np.allclose(horizontal_transport(model, x), 0.0, atol=1e-12)

    def test_torus_single_segment_reduces_to_theta(self):
        model = torus_model()
        xi = np.array([1.3, -0.4])
        x = PhasePath.with_linear_momentum(GroupPath.straight(model.cover, xi), np.zeros(2))
        got = horizontal_transport(model, x)
        assert np.allclose(got, model.theta.float_matrix() @ xi, atol=1e-9)

    def test_dual_oracle_agreement(self):
        for model in [torus_model(), torus_model(None), heisenberg_model(), heisenberg_model(("1/2", "1*al"))]:
            for _ in range(3):
                x = random_phase_path(model, nseg=3)
                a = momentum_of_path(model, x)
                b = horizontal_transport(model, x)
                assert np.linalg.norm(a - b) <= 1e-7


def two_sweep_transport(model, x):
    """Reference transport: two independent Simpson sweeps, one with
    ceil(1024 w) and one with ceil(2048 w) steps per segment, each evaluating
    the integrand on its own grid; returns the fine sweep."""
    struct, sig, s = model.group.structure, model.sigma_matrix, symplectic._CANON_SIGN

    def sweep(scale):
        total = np.zeros(model.n)
        for k, (t0, w) in enumerate(zip(x.base.times[:-1], x.base.durations)):
            steps = max(1, int(np.ceil(w * 1024 * scale)))
            h = w / steps
            ts = t0 + 0.5 * h * np.arange(2 * steps + 1)
            gs = x.base.evaluate_many(np.clip(ts, 0.0, 1.0))
            xid, nud = x.base.directions[k], x.slopes[k]
            covs = s * (np.einsum("abk,tk,b->ta", struct, x.momentum_many(ts), xid) + nud) - sig @ xid
            vals = x.base.model.coadjoint_inv_apply(gs, covs)
            total += (h / 6.0) * (vals[0:-1:2].sum(axis=0) + 4.0 * vals[1::2].sum(axis=0) + vals[2::2].sum(axis=0))
        return total

    coarse, fine = sweep(1), sweep(2)
    assert np.max(np.abs(fine - coarse)) <= 1e-7
    return fine


SCALED_CONFIGS = {
    "torus2": '{"group":"torus","dim":2,"theta":[["0","1"],["-1","0"]]}',
    "flat2": '{"group":"torus","dim":2,"theta":[["0","0"],["0","0"]]}',
    "torus3": '{"group":"torus","dim":3,"theta":[["0","1","0"],["-1","0","0"],["0","0","0"]]}',
    "dense3": '{"group":"torus","dim":3,"field":2,"theta":[["0","1","1*al"],["-1","0","1"],["-1*al","-1","0"]]}',
    "heis": '{"group":"heisenberg","sigma":["1","0"]}',
}


class TestSharedGridTransport:
    @pytest.mark.parametrize("make", [torus_model, lambda: torus_model(THETA_3D, 3), heisenberg_model],
                             ids=["torus2", "torus3", "heis"])
    def test_matches_two_sweep_reference(self, make):
        model = make()
        for nseg in range(1, 17):
            x = random_phase_path(model, nseg)
            got, want = horizontal_transport(model, x), two_sweep_transport(model, x)
            assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))

    def test_gap_sees_the_fourth_degree(self):
        # one Simpson panel and two are exact on cubics, so their gap is
        # rounding; on t^4 over width w they err by w^5/120 and w^5/1920,
        # and the gap is w^5/128
        w = np.array([0.05, 0.3, 1.0, 2.5])
        t = np.outer(w, 0.25 * np.arange(5))
        coarse, fine = _simpson_sweeps((1.0 - 2.0 * t + 0.5 * t**2 + 3.0 * t**3)[..., None], w)
        exact = w - w**2 + w**3 / 6.0 + 0.75 * w**4
        assert np.allclose(coarse[:, 0], exact, rtol=1e-15, atol=0.0)
        assert np.allclose(fine[:, 0], exact, rtol=1e-15, atol=0.0)
        coarse, fine = _simpson_sweeps((t**4)[..., None], w)
        assert np.allclose(coarse[:, 0] - w**5 / 5.0, w**5 / 120.0, rtol=1e-12, atol=0.0)
        assert np.allclose(fine[:, 0] - w**5 / 5.0, w**5 / 1920.0, rtol=1e-12, atol=0.0)
        assert np.allclose(coarse[:, 0] - fine[:, 0], w**5 / 128.0, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", sorted(SCALED_CONFIGS))
    def test_richardson_threshold_scales_with_the_momenta(self, name):
        # momenta of size 1e7 leave a rounding gap near 5e-7 between the
        # sweeps; an absolute 1e-7 threshold reported it as a failed check
        sc = build_scenario(parse_config(SCALED_CONFIGS[name]))
        rng = np.random.default_rng(4242)
        for _ in range(10):
            x = sc.random_phase_path(rng)
            x = PhasePath(x.base, 1e7 * x.momenta)
            got, want = horizontal_transport(sc.model, x), momentum_of_path(sc.model, x)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestAdditivityAndEquivariance:
    def test_additivity_torus_lattice_loops(self):
        model = torus_model()
        for k in [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([2.0, -1.0])]:
            gamma = PhasePath.with_linear_momentum(
                GroupPath.straight(model.cover, k), np.zeros(2)
            )
            x = random_phase_path(model)
            combined = gamma.concat(x)
            lhs = momentum_of_path(model, combined)
            rhs = momentum_of_path(model, gamma) + momentum_of_path(model, x)
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_additivity_heisenberg_central_loops(self):
        model = heisenberg_model()
        gamma = PhasePath.with_linear_momentum(
            GroupPath.straight(model.cover, [1.0, 0.0, 0.0]), np.zeros(3)
        )
        for _ in range(5):
            x = random_phase_path(model)
            combined = gamma.concat(x)
            lhs = momentum_of_path(model, combined)
            rhs = momentum_of_path(model, gamma) + momentum_of_path(model, x)
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_lifted_action_trivial(self):
        model = heisenberg_model()
        x = random_phase_path(model)
        moved = lifted_action_on_path(GroupPath.straight(model.cover, np.zeros(model.n)), x)
        assert np.linalg.norm(
            momentum_of_path(model, moved) - momentum_of_path(model, x)
        ) <= 1e-9

    def test_equivariance(self):
        for model in [torus_model(), heisenberg_model(("1", "1/2"))]:
            for _ in range(5):
                g_path = random_cover_path(model)
                x = random_phase_path(model)
                moved = lifted_action_on_path(g_path, x)
                lhs = momentum_of_path(model, moved)
                coad = model.cover.coadjoint_inv(g_path.endpoint())
                rhs = coad @ momentum_of_path(model, x) + sigma_J(model, g_path)
                assert np.linalg.norm(lhs - rhs) <= 1e-9


class TestSigmaJ:
    def test_trivial_zero(self):
        model = heisenberg_model()
        assert np.allclose(sigma_J(model, GroupPath.straight(model.cover, np.zeros(model.n))), 0.0, atol=1e-14)

    def test_equals_theta_in_cotangent_scenarios(self):
        for model in [torus_model(), heisenberg_model(), heisenberg_model(("1/2", "1*al"))]:
            for _ in range(5):
                p = random_cover_path(model)
                assert np.linalg.norm(
                    sigma_J(model, p) - theta_integral(model.cover, model.theta, p)
                ) <= 1e-9

    def test_zero_sigma_equivariant(self):
        model = heisenberg_model(("0", "0"))
        for _ in range(5):
            assert np.allclose(sigma_J(model, random_cover_path(model)), 0.0, atol=1e-12)

    def test_cocycle_identity_50_pairs(self):
        model = heisenberg_model(("1", "-1/2"))
        for _ in range(50):
            p = random_cover_path(model, nseg=2)
            q = random_cover_path(model, nseg=2)
            pq = path_product(p, q)
            lhs = sigma_J(model, pq)
            rhs = sigma_J(model, p) + model.cover.coadjoint_inv(p.endpoint()) @ sigma_J(model, q)
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_compact_chart_path_rejected(self):
        model = heisenberg_model()
        p = GroupPath.straight(model.group, [1.0, 0.0, 0.0])
        with pytest.raises(InputError):
            sigma_J(model, p)


class TestMomentumCondition:
    @pytest.mark.parametrize(
        "make",
        [lambda: torus_model(None), torus_model, heisenberg_model],
        ids=["torus-flat", "torus-magnetic", "heis"],
    )
    def test_relative_error_small(self, make):
        model = make()
        for _ in range(3):
            z = model.point(RNG.uniform(-1.0, 1.0, model.n), RNG.uniform(-1.0, 1.0, model.n))
            xi = RNG.uniform(-1.0, 1.0, model.n)
            assert verify_momentum_condition(model, z, xi) <= 1e-5

    @pytest.mark.parametrize(
        "make",
        [torus_model, lambda: torus_model(THETA_3D, 3), heisenberg_model],
        ids=["torus2", "torus3", "heis"],
    )
    def test_batched_tails_match_segments(self, make):
        # the finite differences integrate straight tails from several
        # starts (g, mu) as one batch with a base and a start momentum per
        # tail; every tail must get the integral it gets alone
        model = make()
        cover, n = model.cover, model.n
        for scale in (1e-4, 1.0):
            g, mu = RNG.uniform(-1.0, 1.0, (7, n)), RNG.uniform(-1.0, 1.0, (7, n))
            g_targets = g + scale * RNG.uniform(-1.0, 1.0, (7, n))
            mu_targets = mu + scale * RNG.uniform(-1.0, 1.0, (7, n))
            zetas = cover.multiply(-g, g_targets)
            tails = PhasePath.with_linear_momentum(GroupPath.straight(cover, zetas, base=g), mu_targets, mu)
            got = momentum_segments(model, tails)
            assert got.shape == (7, n)
            for row, *single in zip(got, zetas, g, mu_targets, mu):
                zeta, g0, mt, mu0 = single
                tail = PhasePath.with_linear_momentum(GroupPath.straight(cover, zeta, base=g0), mt, mu_start=mu0)
                assert np.array_equal(row, momentum_segments(model, tail)[0])
