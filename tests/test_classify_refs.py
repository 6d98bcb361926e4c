"""The benchmark's byte-identity gates, in Tier-1: the exact sections of
every recorded classify generator seed's inputs against the references in
``benchmarks/refs/classify_exact.json``, and those of the five canonical
configs against ``benchmarks/refs/canonical_exact.json``.  Where the
recorded outcome is an error, the same error must still be raised.
``benchmarks/workloads.py`` is loaded read-only for its inputs and digests.
The Heisenberg inputs also pin the Casimir, whose value the exact sections
print, bit for bit."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from momenta.cylinder import affine_action, casimir
from momenta.groups import GroupPath
from momenta.report import build_analysis
from momenta.scenario import build_scenario, parse_config

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
# Generator seed 5 holds every recorded crash kind: torus d=7 and d=9 over
# Q(sqrt2) and Q(sqrt3).
SEED = 5


def load_workloads():
    spec = importlib.util.spec_from_file_location("momenta_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WL = load_workloads()
REFS = WL.load_ref("classify_exact.json")
CONFIGS = WL.classify_configs(SEED)
# every input of every recorded seed; SEED's inputs are named by their bare
# labels, the others carry their seed
CASES = [
    (label if seed == SEED else f"{label} seed={seed}", text)
    for seed in range(WL.CLASSIFY_REF_SEEDS)
    for label, text in WL.classify_configs(seed)
]


def exact_digest(text: str) -> str:
    sc = build_scenario(parse_config(text))
    return WL.digest(WL.exact_text(build_analysis(sc, checks=[]).data))


def test_seed_covers_every_crash_kind():
    crashed = {label for label, text in CONFIGS if REFS[WL.digest(text)].startswith("error: ")}
    assert crashed == {f"torus d={d} {f} #0" for d in (7, 9) for f in ("Q(sqrt2)", "Q(sqrt3)")}


@pytest.mark.parametrize("label, text", CASES, ids=[label for label, _ in CASES])
def test_exact_section_matches_reference(label, text):
    ref = REFS[WL.digest(text)]
    if ref.startswith("error: "):
        with pytest.raises(Exception) as info:
            exact_digest(text)
        assert f"error: {type(info.value).__name__}: {info.value}" == ref
    else:
        assert exact_digest(text) == ref


# the exact section does not depend on the verify seed
CANONICAL = sorted(WL.canonical_configs(42).items())


@pytest.mark.parametrize("name, text", CANONICAL, ids=[name for name, _ in CANONICAL])
def test_canonical_exact_section_matches_reference(name, text):
    sc = build_scenario(parse_config(text))
    assert WL.exact_text(build_analysis(sc, checks=[]).data) == WL.load_ref("canonical_exact.json")[name]


# the 36 Heisenberg inputs of the recorded seeds (seed 11 holds sigma = 0)
# and the canonical one
HEIS = [(label, text) for label, text in CASES if label.startswith("heisenberg")] + [("canonical heis", dict(CANONICAL)["heis"])]


@pytest.mark.parametrize("label, text", HEIS, ids=[label for label, _ in HEIS])
def test_casimir_is_the_sigma_form_bit_for_bit(label, text):
    # psi^2/2 - <(sigma_2, -sigma_1), nu>, at mu and at moved points
    sc = build_scenario(parse_config(text))
    s1, s2 = (float(s) for s in sc.theta.sigma)
    w = np.array([s2, -s1])
    rng = np.random.default_rng(0)
    for mu in sc.mu_list:
        moved = affine_action(sc.model, GroupPath.straight(sc.cover, rng.uniform(-2.0, 2.0, (50, 3))), mu)
        for points, nu in ((mu, mu[1:]), (moved, moved[:, 1:])):
            psi = points[..., 0]
            assert casimir(sc.model, points).tobytes() == (0.5 * psi * psi - nu @ w).tobytes()
