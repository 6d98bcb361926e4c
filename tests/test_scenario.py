from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_reference import FIELDS, Elt, elements, exact, gauss_jordan, lift
from momenta.errors import ConfigError
from momenta.exact import QuadraticField
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

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"group":"torus","dim":2,"theta":[[false,true],[-1,false]]}', "theta[0][0]"),
            ('{"group":"torus","dim":2,"theta":[["0",true],["-1","0"]]}', "theta[0][1]"),
            ('{"group":"heisenberg","sigma":[true,0]}', "sigma[0]"),
            ('{"group":"heisenberg","sigma":["1",false]}', "sigma[1]"),
            ('{"group":"torus","dim":1,"field":true,"theta":[["0"]]}', "field"),
        ],
    )
    def test_boolean_is_not_an_exact_scalar(self, text, field):
        # JSON true and false are not the numbers 1 and 0
        with pytest.raises(ConfigError) as err:
            parse(text)
        assert err.value.field == field

    @pytest.mark.parametrize("r", ["4", '"9/4"', "0", "-2", "2.0"])
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
            for a, b in zip(lift(sc.theta.columns()[0]), lift(sc.theta.columns()[1]))
        ]
        assert list(combo) == want
        # one generator per circle coordinate: the central circle of S^1 x R^2
        heis = build_scenario(parse('{"group":"heisenberg","sigma":["1/2","1*al"],"field":2}'))
        assert heis.gamma_dim == 1 and heis.holonomy_generators == (heis.theta.columns()[0],)
        s1, s2 = lift(heis.theta.sigma)
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


@st.composite
def scenario_inputs(draw):
    """(config text, theta as Elts): a torus of dimension 1 to 4 or a
    Heisenberg sigma, over Q, Q(sqrt2) or Q(sqrt3)."""
    _, r, rational = draw(st.sampled_from(FIELDS))
    field, entry, zero = QuadraticField(r), elements(r, rational), Elt(0, 0, r)
    if draw(st.booleans()):
        s1, s2 = draw(entry), draw(entry)
        theta = [[zero, s1, s2], [-s1, zero, zero], [-s2, zero, zero]]
        cfg = {"group": "heisenberg", "field": r, "sigma": [x.exact(field).format() for x in (s1, s2)]}
    else:
        d = draw(st.integers(1, 4))
        theta = [[zero] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                theta[i][j] = draw(entry)
                theta[j][i] = -theta[i][j]
        cfg = {"group": "torus", "dim": d, "field": r, "theta": [[x.exact(field).format() for x in row] for row in theta]}
    return json.dumps(cfg), theta


def reference_contains(decomp, v) -> bool:
    """Membership in V + Z-span(L) by Gauss-Jordan in Fraction arithmetic on
    the printed bases.  V's and L's vectors are independent together, so the
    coordinates are unique; those on L must be rational integers."""
    basis = lift(decomp.subspace_basis + decomp.lattice_basis)
    red, pivots = gauss_jordan([[b[i] for b in basis] + [x] for i, x in enumerate(lift(v))])
    if len(basis) in pivots:
        return False  # v is not even in the span
    coords = [row[-1] for row in red]
    return all(not c.b and c.a.denominator == 1 for c in coords[len(decomp.subspace_basis) : len(basis)])


class TestIntegerRowsAgainstFractions:
    @settings(max_examples=60, deadline=None)
    @given(scenario_inputs(), st.data())
    def test_holonomy_and_membership(self, drawn, data):
        text, theta = drawn
        sc = build_scenario(parse(text))
        k = data.draw(st.lists(st.integers(-4, 4), min_size=sc.gamma_dim, max_size=sc.gamma_dim))
        h = sc.holonomy_of(k)
        # the loop around circle a shifts momentum by theta column a
        want = [sum((c * theta[i][a] for c, a in zip(k, sc.group.circles)), Elt(0, 0, sc.field.r)) for i in range(sc.n)]
        assert list(h) == want
        assert sc.decomp.contains_exact(h) and reference_contains(sc.decomp, h)
        for lam in lift(sc.decomp.lattice_basis):
            # half a lattice vector off: just outside the closure
            outside = exact([x + y / 2 for x, y in zip(want, lam)], sc.field)
            assert not sc.decomp.contains_exact(outside) and not reference_contains(sc.decomp, outside)
        w = data.draw(st.lists(elements(sc.field.r), min_size=sc.n, max_size=sc.n))
        v = exact([x + y for x, y in zip(want, w)], sc.field)
        assert sc.decomp.contains_exact(v) == reference_contains(sc.decomp, v)
        # gamma0 is the set of deck loops with zero holonomy
        for col in sc.gamma0.columns:
            assert not any(sc.holonomy_of(col))
