from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from momenta.errors import ConfigError
from momenta.lattices import LatticeSubgroup
from momenta.scenario import build_scenario, parse_config

TORUS_TEXT = """
{
  "group": "torus", "dim": 2, "field": 2,
  "theta": [["0","1"],["-1","0"]],
  "muList": [[0.3, -0.2], [0.0, 0.0]],
  "gammaN": [],
  "verify": {"tolerance": 1e-8, "sampleCount": 50, "seed": 9}
}
"""


def parse(text: str):
    return parse_config(text)


class TestParseConfig:
    def test_valid_torus(self):
        cfg = parse(TORUS_TEXT)
        assert cfg.group == "torus" and cfg.dim == 2
        assert cfg.theta.matrix[0][1] == cfg.field.one
        assert len(cfg.mu_list) == 2
        assert cfg.gamma_n == ()
        assert cfg.verify.sample_count == 50 and cfg.verify.seed == 9

    def test_defaults(self):
        cfg = parse('{"group":"torus","dim":2,"theta":[["0","0"],["0","0"]]}')
        assert cfg.verify.tolerance == 1e-8
        assert cfg.verify.sample_count == 100
        assert cfg.verify.seed == 42
        assert len(cfg.mu_list) == 1 and not np.any(cfg.mu_list[0])
        assert cfg.gamma_n is None

    def test_two_term_exact_scalar(self):
        cfg = parse(
            '{"group":"torus","dim":2,'
            '"theta":[["0","1/2+1/3*al"],["-1/2-1/3*al","0"]]}'
        )
        entry = cfg.theta.matrix[0][1]
        assert entry.a == Fraction(1, 2) and entry.b == Fraction(1, 3)

    def test_skew_rejection_message(self):
        with pytest.raises(ConfigError, match="theta not antisymmetric"):
            parse('{"group":"torus","dim":2,"theta":[["0","1"],["1","0"]]}')

    def test_malformed_scalar_names_entry(self):
        with pytest.raises(ConfigError) as err:
            parse('{"group":"torus","dim":2,"theta":[["0","1??"],["-1","0"]]}')
        assert err.value.field == "theta[0][1]"

    @pytest.mark.parametrize("r", ["4", '"9/4"', "0", "-2"])
    def test_bad_field_descriptor(self, r):
        with pytest.raises(ConfigError) as err:
            parse(f'{{"group":"torus","dim":1,"field":{r},"theta":[["0"]]}}')
        assert err.value.field == "field"

    def test_invalid_json_reports_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse('{"group": "torus",\n  broken\n}')

    def test_non_object_root(self):
        with pytest.raises(ConfigError):
            parse("[1, 2, 3]")

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            parse('{"group":"torus","dim":1,"theta":[["0"]],"thetas":[]}')
        assert err.value.field == "thetas"

    def test_unknown_verify_key(self):
        with pytest.raises(ConfigError) as err:
            parse('{"group":"torus","dim":1,"theta":[["0"]],"verify":{"tol":1}}')
        assert err.value.field == "verify.tol"

    def test_bad_group(self):
        with pytest.raises(ConfigError) as err:
            parse('{"group":"SU2"}')
        assert err.value.field == "group"

    def test_torus_needs_dim_and_square_theta(self):
        with pytest.raises(ConfigError):
            parse('{"group":"torus","theta":[["0"]]}')
        with pytest.raises(ConfigError):
            parse('{"group":"torus","dim":2,"theta":[["0","1"]]}')

    def test_family_field_mixups(self):
        with pytest.raises(ConfigError) as err:
            parse('{"group":"torus","dim":1,"theta":[["0"]],"sigma":["1","0"]}')
        assert err.value.field == "sigma"
        with pytest.raises(ConfigError) as err:
            parse('{"group":"heisenberg","sigma":["1","0"],"theta":[["0"]]}')
        assert err.value.field == "theta"
        with pytest.raises(ConfigError) as err:
            parse('{"group":"heisenberg","sigma":["1","0"],"dim":2}')
        assert err.value.field == "dim"
        with pytest.raises(ConfigError):
            parse('{"group":"heisenberg","sigma":["1"]}')

    def test_bad_mu_list(self):
        with pytest.raises(ConfigError) as err:
            parse('{"group":"torus","dim":2,"theta":[["0","0"],["0","0"]],"muList":[[1.0]]}')
        assert err.value.field == "muList[0]"
        with pytest.raises(ConfigError):
            parse('{"group":"torus","dim":1,"theta":[["0"]],"muList":[]}')
        for entry in ["1e400", "-Infinity", "NaN", "1" + "0" * 400]:
            with pytest.raises(ConfigError) as err:
                parse('{"group":"torus","dim":1,"theta":[["0"]],"muList":[[%s]]}' % entry)
            assert err.value.field == "muList[0]"

    def test_bad_gamma_n(self):
        with pytest.raises(ConfigError) as err:
            parse('{"group":"torus","dim":2,"theta":[["0","0"],["0","0"]],"gammaN":[[1.5,0]]}')
        assert err.value.field == "gammaN[0]"

    @pytest.mark.parametrize(
        "text",
        [
            '{"group":"torus","dim":3,"theta":[["0","0","0"],["0","0","0"],["0","0","0"]]',
            '{"group":"heisenberg","sigma":["1","0"]',
            '{"group":"centralExtension","sigma":["0","2"]',
        ],
    )
    def test_gamma_n_length_is_the_circle_count(self, text):
        # gammaN vectors have one entry per circle coordinate of the model
        circles = len(build_scenario(parse(text + "}")).group.circles)
        ok = parse(text + ',"gammaN":[[%s]]}' % ",".join(["0"] * circles))
        assert ok.gamma_n == ((0,) * circles,)
        with pytest.raises(ConfigError) as err:
            parse(text + ',"gammaN":[[%s]]}' % ",".join(["0"] * (circles + 1)))
        assert err.value.field == "gammaN[0]" and f"expected {circles} integers" in str(err.value)

    @pytest.mark.parametrize("entry", ["1/0", "1+1/0*al", "0/0*al"])
    def test_zero_denominator_names_entry(self, entry):
        # Fraction raised ZeroDivisionError here, which escaped as a traceback
        with pytest.raises(ConfigError) as err:
            parse('{"group":"torus","dim":2,"theta":[["0","%s"],["-1","0"]]}' % entry)
        assert err.value.field == "theta[0][1]"

    def test_bad_verify_values(self):
        base = '{"group":"torus","dim":1,"theta":[["0"]],"verify":%s}'
        for block in ['{"tolerance":0}', '{"tolerance":Infinity}', '{"tolerance":NaN}', '{"tolerance":1e400}',
                      '{"sampleCount":0}', '{"seed":-1}', '[1]']:
            with pytest.raises(ConfigError):
                parse(base % block)


class TestBuildScenario:
    def test_torus_invertible(self):
        sc = build_scenario(parse(TORUS_TEXT))
        assert sc.kind == "torus" and sc.n == 2
        assert sc.gamma0 == LatticeSubgroup.zero(2)
        assert sc.decomp.closed
        assert len(sc.decomp.lattice_basis) == 2
        assert sc.cover_descriptor.text == "R^2"

    def test_torus_flat(self):
        sc = build_scenario(parse('{"group":"torus","dim":2,"theta":[["0","0"],["0","0"]]}'))
        assert sc.gamma0 == LatticeSubgroup.standard(2)
        assert sc.cover_descriptor.text == "T^2"
        assert sc.decomp.closed and not sc.decomp.lattice_basis

    def test_torus_partial_kernel(self):
        sc = build_scenario(
            parse('{"group":"torus","dim":3,"theta":[["0","1","0"],["-1","0","0"],["0","0","0"]]}')
        )
        assert sc.gamma0.rank == 1
        assert sc.cover_descriptor.text == "T^1 x R^2"

    def test_heisenberg_family(self):
        sc = build_scenario(parse('{"group":"centralExtension","sigma":["1","0"]}'))
        assert sc.kind == "central_extension" and sc.n == 3
        assert [x.format() for x in sc.holonomy_generators[0]] == ["0", "-1", "0"]
        assert sc.gamma0 == LatticeSubgroup.zero(1)
        assert sc.cover_descriptor.text == "R^3"

    def test_heisenberg_zero_sigma(self):
        sc = build_scenario(parse('{"group":"heisenberg","sigma":["0","0"]}'))
        assert sc.gamma0 == LatticeSubgroup.standard(1)
        assert sc.cover_descriptor.text == "S^1 x R^2"

    def test_group_aliases_agree(self):
        a = build_scenario(parse('{"group":"heisenberg","sigma":["1","1/2"]}'))
        b = build_scenario(parse('{"group":"centralExtension","sigma":["1","1/2"]}'))
        assert a.kind == b.kind
        assert a.decomp.lattice_basis == b.decomp.lattice_basis

    def test_holonomy_of_matches_theta_columns(self):
        sc = build_scenario(parse(TORUS_TEXT))
        assert sc.holonomy_of([1, 0]) == sc.theta.columns()[0]
        combo = sc.holonomy_of([2, -3])
        want = [
            2 * a + (-3) * b
            for a, b in zip(sc.theta.columns()[0], sc.theta.columns()[1])
        ]
        assert list(combo) == want
        # one generator per circle coordinate: the central circle of S^1 x R^2
        heis = build_scenario(parse('{"group":"heisenberg","sigma":["1/2","1*al"],"field":2}'))
        assert heis.gamma_dim == 1 and heis.holonomy_generators == (heis.theta.columns()[0],)
        s1, s2 = heis.theta.sigma
        assert heis.holonomy_of([-2]) == (heis.field.zero, 2 * s1, 2 * s2)

    def test_loop_path_endpoints(self):
        sc = build_scenario(parse(TORUS_TEXT))
        assert np.allclose(sc.loop_path([2, -1]).endpoint(), [2.0, -1.0])
        heis = build_scenario(parse('{"group":"heisenberg","sigma":["1","0"]}'))
        assert np.allclose(heis.loop_path([3]).endpoint(), [3.0, 0.0, 0.0])

    def test_random_helpers_shapes(self):
        sc = build_scenario(parse(TORUS_TEXT))
        rng = np.random.default_rng(0)
        p = sc.random_cover_path(rng)
        assert p.model == sc.cover and not p.batched and p.endpoint().shape == (2,)
        x = sc.random_phase_path(rng)
        assert not x.base.batched and x.momenta.shape == (3, 2) and not np.any(x.momenta[0])
        k = sc.random_loop_coefficients(rng)
        assert k.shape == (2,) and k.dtype.kind == "i"
        # one batch per kind asked for, each path with two segments from the
        # identity (a phase path: from the base point)
        p, x, q = sc.draw_paths(rng, 5, "cover", "phase", "cover")
        for path in (p, x.base, q):
            assert path.batched and path.model == sc.cover and list(path.counts()) == [2] * 5
            assert not np.any(path.bases)
        assert x.momenta.shape == (15, 2) and not np.any(x.momenta[::3])
        x, ks = sc.draw_phase_and_loops(rng, 4)
        assert len(x.base) == 4 and ks.shape == (4, 2) and ks.dtype.kind == "i" and ks.any(axis=1).all()

    def test_summary_echoes_config(self):
        cfg = parse(TORUS_TEXT)
        s = cfg.summary()
        assert s["group"] == "torus" and s["dim"] == 2
        assert s["theta"][0][1] == "1"
        assert s["verify"]["sampleCount"] == 50
        json.dumps(s)  # must be JSON-ready as-is
