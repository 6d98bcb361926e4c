"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is marked with `criterion(n, title)`; the terminal summary prints one
pass/fail line per criterion.  Tolerances here are the advertised ones, not
development slack.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from momenta.cylinder import deck_group_of_reduced_cover
from momenta.groups import concat_paths
from momenta.lattices import LatticeSubgroup, quotient_invariants
from momenta.momentum import sigma_J
from momenta.report import build_analysis
from momenta.scenario import build_scenario, parse_config
from momenta.verification import run_checks

TORUS2_TEXT = """
{
  "group": "torus", "dim": 2,
  "theta": [["0","1"],["-1","0"]],
  "muList": [[0.3, -0.2], [0.0, 0.0]],
  "verify": {"sampleCount": 100, "seed": 42}
}
"""
FLAT2_TEXT = """
{
  "group": "torus", "dim": 2,
  "theta": [["0","0"],["0","0"]],
  "muList": [[0.7, -0.2]],
  "verify": {"sampleCount": 100, "seed": 42}
}
"""
TORUS3_TEXT = """
{
  "group": "torus", "dim": 3,
  "theta": [["0","1","0"],["-1","0","0"],["0","0","0"]],
  "muList": [[0.4, -0.1, 0.25]],
  "verify": {"sampleCount": 100, "seed": 42}
}
"""
DENSE3_TEXT = """
{
  "group": "torus", "dim": 3, "field": 2,
  "theta": [["0","1","1*al"],["-1","0","1"],["-1*al","-1","0"]],
  "muList": [[0.2, 0.0, -0.1]],
  "verify": {"sampleCount": 50, "seed": 42}
}
"""
HEIS_TEXT = """
{
  "group": "heisenberg", "sigma": ["1", "0"],
  "muList": [[0.5, 0.1, -0.4], [0.0, 0.0, 0.0]],
  "verify": {"sampleCount": 100, "seed": 42}
}
"""


@lru_cache(maxsize=None)
def scenario(text: str):
    return build_scenario(parse_config(text))


def run_named(sc, names, samples):
    reports = run_checks(sc, names=set(names), samples=samples)
    assert {r.check_name for r in reports} == set(names)
    return {r.check_name: r for r in reports}


def is_exact_zero_vector(sc, vec) -> bool:
    return all(x == sc.field.zero for x in vec)


@pytest.mark.criterion(1, "invertible 2-torus magnetic term: trivial kernel, unit holonomy lattice, plane cover")
def test_torus2_classification():
    sc = scenario(TORUS2_TEXT)
    assert sc.gamma0 == LatticeSubgroup.zero(2)

    d = sc.decomp
    assert d.closed and d.subspace_basis == ()
    # holonomy lattice == Z^2: generators are integer vectors and both unit
    # vectors are exact members
    for vec in d.lattice_basis:
        for x in vec:
            assert x.b == 0 and x.a.denominator == 1
    assert len(d.lattice_basis) == 2
    assert d.contains_exact([1, 0]) and d.contains_exact([0, 1])

    assert sc.cover_descriptor.text == "R^2"


@pytest.mark.criterion(2, "3-torus rank-2 rational magnetic term: T^1 x R^2 cover agrees with exhaustive kernel enumeration")
def test_torus3_partial_kernel():
    sc = scenario(TORUS3_TEXT)
    assert sc.gamma0.rank == 1
    assert sc.cover_descriptor.text == "T^1 x R^2"

    # independent oracle: every integer vector in [-5,5]^3 whose holonomy
    # vanishes exactly must lie in gamma0, and the enumerated kernel is
    # exactly the multiples of (0,0,1) present in the box (11 of them)
    kernel = [
        k
        for k in itertools.product(range(-5, 6), repeat=3)
        if is_exact_zero_vector(sc, sc.holonomy_of(k))
    ]
    assert len(kernel) == 11
    for k in kernel:
        assert sc.gamma0.coordinates_of(k) is not None
    assert (0, 0, 1) in kernel


@pytest.mark.criterion(3, "dense holonomy over Q(sqrt 2): flagged non-closed, bounded-coefficient search finds norm < 0.02")
def test_dense_holonomy_not_closed():
    sc = scenario(DENSE3_TEXT)
    assert not sc.decomp.closed

    # Brute-force oracle over m1*c1 + m2*c2 + m3*c3, |mi| <= 50, where the ci
    # are the magnetic-term columns.  Components: x = m2 + m3*sqrt2,
    # y = m3 - m1, z = -(m1*sqrt2 + m2).  An exact zero needs m2 + m3*sqrt2 = 0,
    # which by irrationality forces m2 = m3 = 0, then y = 0 gives m1 = 0 -- so
    # excluding the origin excludes exactly the zero combinations and the float
    # minimum equals the exact oracle up to ~1e-13 rounding.
    s = math.sqrt(2.0)
    m1 = np.arange(-50, 51).reshape(-1, 1, 1)
    m2 = np.arange(-50, 51).reshape(1, -1, 1)
    m3 = np.arange(-50, 51).reshape(1, 1, -1)
    x = m2 + m3 * s
    y = m3 - m1 + 0.0 * x
    z = -(m1 * s + m2) + 0.0 * m3
    norms = np.sqrt(x * x + y * y + z * z)
    norms[50, 50, 50] = np.inf  # puncture the origin
    best = float(norms.min())
    assert 0.0 < best < 0.02

    # the minimizer is the sqrt2 convergent 41/29: m = (29, -41, 29) gives
    # sqrt2 * |41 - 29*sqrt2| ~= 0.01724
    assert best == pytest.approx(s * abs(41 - 29 * s), rel=1e-9)
    witness = np.array([float(v) for v in sc.holonomy_of([29, -41, 29])])
    assert 0.0 < np.linalg.norm(witness) < 0.02


@pytest.mark.criterion(4, "compact-center group: momentum closed form vs quadrature and transport at 100 points, center holonomy lattice, Casimir conservation")
def test_central_extension_momentum_and_casimir():
    sc = scenario(HEIS_TEXT)
    reps = run_named(
        sc,
        ["momentum_closed_form", "momentum_transport", "casimir_invariance"],
        samples=100,
    )
    r = reps["momentum_closed_form"]
    assert r.passed and r.tolerance == 1e-9 and r.sample_count >= 100
    r = reps["momentum_transport"]
    assert r.passed and r.tolerance == 1e-7 and r.sample_count >= 100
    r = reps["casimir_invariance"]
    assert r.passed and r.tolerance == 1e-8 and r.sample_count >= 100

    assert sc.decomp.closed
    assert [[x.format() for x in v] for v in sc.decomp.lattice_basis] == [["0", "1", "0"]]
    assert sc.gamma0 == LatticeSubgroup.zero(1)


@pytest.mark.criterion(5, "momentum condition against finite differences at 50 points per scenario family")
@pytest.mark.parametrize("text", [FLAT2_TEXT, TORUS2_TEXT, HEIS_TEXT], ids=["flat", "invertible", "central"])
def test_momentum_condition(text):
    sc = scenario(text)
    r = run_named(sc, ["momentum_condition"], samples=50)["momentum_condition"]
    assert r.passed and r.tolerance == 1e-5 and r.sample_count >= 50


@pytest.mark.criterion(6, "non-equivariance cocycle: equals the magnetic-term integral, satisfies the cocycle identity, vanishes when flat")
@pytest.mark.parametrize("text", [FLAT2_TEXT, TORUS2_TEXT, HEIS_TEXT], ids=["flat", "invertible", "central"])
def test_cocycle_suite(text):
    sc = scenario(text)
    names = ["cocycle_matches_theta", "cocycle_identity", "momentum_additivity"]
    reps = run_named(sc, names, samples=50)
    for name in names:
        r = reps[name]
        assert r.passed and r.tolerance == 1e-9 and r.sample_count >= 50
    if text is FLAT2_TEXT:
        r = run_named(sc, ["cocycle_flat_vanishes"], samples=50)["cocycle_flat_vanishes"]
        assert r.passed and r.tolerance <= 1e-9


@pytest.mark.criterion(7, "cylinder-valued momentum: path independence, equivariance, lift-independent cocycle, infinitesimal generator")
@pytest.mark.parametrize("text", [TORUS2_TEXT, HEIS_TEXT], ids=["torus", "central"])
def test_cylinder_suite(text):
    sc = scenario(text)
    names = [
        "cylinder_K_path_independence",
        "cylinder_equivariance",
        "cylinder_cocycle",
        "cylinder_infinitesimal",
    ]
    reps = run_named(sc, names, samples=50)
    for name in names[:3]:
        assert reps[name].passed and reps[name].tolerance == 1e-8
    assert reps["cylinder_infinitesimal"].passed
    assert reps["cylinder_infinitesimal"].tolerance == 1e-5

    # lift independence, asserted directly: prefixing any fundamental-group
    # loop onto a lift must not move the projected cocycle value
    rng = np.random.default_rng(42)
    for _ in range(50):
        lift = sc.random_cover_path(rng)
        loop = sc.loop_path(sc.random_loop_coefficients(rng))
        a = sc.cylinder.project(sigma_J(sc.model, lift))
        b = sc.cylinder.project(sigma_J(sc.model, concat_paths(loop, lift)))
        assert sc.cylinder.distance(a, b) <= 1e-8


@pytest.mark.criterion(8, "reduced-space covers: trivial deck group and symplectomorphism wording; synthetic lattice quotient is Z/2")
def test_reduced_cover_deck_groups():
    for text in (FLAT2_TEXT, TORUS2_TEXT, TORUS3_TEXT, HEIS_TEXT):
        sc = scenario(text)
        for gamma_n in (LatticeSubgroup.zero(sc.gamma_dim), sc.gamma0):
            for mu in sc.mu_list:
                deck = deck_group_of_reduced_cover(sc, mu, gamma_n)
                assert deck.is_trivial, (text, tuple(mu), gamma_n.columns)
        report = build_analysis(sc, checks=[], timestamp="T0")
        for entry in report.exact["perMu"]:
            assert entry["reducedCoverRelation"] == "symplectomorphism"
            assert entry["deckDescription"] == "trivial"

    # gammaN supplied explicitly as all of gamma0 reaches the same wording
    text = FLAT2_TEXT.replace('"muList"', '"gammaN": [[1,0],[0,1]], "muList"')
    report = build_analysis(scenario(text), checks=[], timestamp="T0")
    assert report.exact["perMu"][0]["reducedCoverRelation"] == "symplectomorphism"

    # synthetic quotient with torsion: Z^2 over 2Z x Z
    inv = quotient_invariants(
        LatticeSubgroup.standard(2), LatticeSubgroup(2, [(2, 0), (0, 1)])
    )
    assert inv.free_rank == 0 and inv.torsion == (2,)
    assert inv.describe() == "Z/2"


@pytest.mark.criterion(9, "unit-time kinetic flow moves the cylinder momentum by at most 1e-6")
@pytest.mark.parametrize("text", [TORUS2_TEXT, HEIS_TEXT], ids=["torus", "central"])
def test_noether_drift(text):
    sc = scenario(text)
    r = run_named(sc, ["noether_drift"], samples=4)["noether_drift"]
    assert r.passed and r.tolerance == 1e-6


@pytest.mark.criterion(10, "flipping the canonical symplectic sign makes the momentum-condition check fail")
def test_sign_flip_detected(monkeypatch):
    sc = scenario(TORUS2_TEXT)
    with monkeypatch.context() as m:
        m.setattr("momenta.symplectic._CANON_SIGN", -1.0)
        flipped = run_checks(sc, names={"momentum_condition"}, samples=25)[0]
        assert not flipped.passed
        assert flipped.max_error > 1e-2
    restored = run_checks(sc, names={"momentum_condition"}, samples=25)[0]
    assert restored.passed
