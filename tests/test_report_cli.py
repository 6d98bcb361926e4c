from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momenta.cli as cli
import momenta.scenario as scenario_module
from momenta.errors import ConfigError, MomentaError, NumericalError
from momenta.report import AnalysisReport, build_analysis
from momenta.scenario import build_scenario, parse_config
from momenta.verification import CheckReport, CheckSpec, registry, run_check, run_checks
from test_acceptance import DENSE3_TEXT, FLAT2_TEXT, TORUS2_TEXT, TORUS3_TEXT
from test_acceptance import HEIS_TEXT as ACCEPT_HEIS_TEXT

TORUS_TEXT = """
{
  "group": "torus", "dim": 2,
  "theta": [["0","1"],["-1","0"]],
  "muList": [[0.3, -0.2]],
  "verify": {"sampleCount": 25, "seed": 7}
}
"""
FLAT_TEXT = """
{
  "group": "torus", "dim": 2,
  "theta": [["0","0"],["0","0"]],
  "muList": [[0.7, -0.2]],
  "verify": {"sampleCount": 10, "seed": 3}
}
"""
HEIS_TEXT = """
{
  "group": "heisenberg", "sigma": ["1", "0"],
  "muList": [[0.5, 0.1, -0.4]],
  "verify": {"sampleCount": 25, "seed": 7}
}
"""
# exact scalars whose floats are not finite: 10^400, and 1.5e308 * sqrt(2)
HUGE = "1" + "0" * 400
HUGE_AL = "15" + "0" * 307 + "*al"
DENSE_TEXT = """
{
  "group": "torus", "dim": 3, "field": 2,
  "theta": [["0","1","1*al"],["-1","0","1"],["-1*al","-1","0"]],
  "muList": [[0.2, 0.0, -0.1]],
  "verify": {"sampleCount": 10, "seed": 5}
}
"""


@pytest.fixture(scope="module")
def torus_sc():
    return build_scenario(parse_config(TORUS_TEXT))


@pytest.fixture(scope="module")
def heis_sc():
    return build_scenario(parse_config(HEIS_TEXT))


@pytest.fixture(scope="module")
def torus_checks(torus_sc):
    return run_checks(torus_sc)


@pytest.fixture(scope="module")
def heis_checks(heis_sc):
    return run_checks(heis_sc)


def write_config(tmp_path, text, name="config.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCheckReport:
    def test_round_trip_with_infinity(self):
        r = CheckReport("boom", float("inf"), 1e-8, False, 0, "numerical failure: x")
        report = AnalysisReport({"numeric": {"checks": [r.to_dict()], "allPassed": False}})
        text = report.to_json()
        assert '"maxError": Infinity' in text
        back = AnalysisReport.from_json(text)
        assert back == report and math.isinf(back.data["numeric"]["checks"][0]["maxError"])

    def test_passed_consistent_with_tolerance(self, torus_checks):
        for r in torus_checks:
            assert r.passed == (r.max_error <= r.tolerance)

    def test_numerical_error_becomes_failed_check(self, torus_sc):
        def runner(sc, rng, samples):
            raise NumericalError("synthetic blowup")

        spec = CheckSpec("synthetic", 1e-8, runner)
        rep = run_check(torus_sc, spec, seed=0, tol_scale=1.0, samples=5)
        assert not rep.passed
        assert math.isinf(rep.max_error)
        assert rep.notes.startswith("numerical failure")
        assert rep.duration_seconds >= 0.0

    def test_nan_error_becomes_failed_check(self, torus_sc):
        # NaN fails every gate but would print as maxError NaN; a check that
        # dies numerically reports infinity and says so
        def runner(sc, rng, samples):
            return float("nan"), samples, "synthetic"

        rep = run_check(torus_sc, CheckSpec("synthetic", 1e-8, runner), seed=0, tol_scale=1.0, samples=5)
        assert not rep.passed and math.isinf(rep.max_error) and rep.sample_count == 5
        assert rep.notes == "numerical failure: max error is NaN (synthetic)"

    def test_duration_is_timed_but_not_reported(self, torus_sc):
        def runner(sc, rng, samples):
            time.sleep(0.01)
            return 0.0, samples, ""

        rep = run_check(torus_sc, CheckSpec("sleepy", 1e-8, runner), seed=0, tol_scale=1.0, samples=5)
        assert rep.duration_seconds >= 0.01
        assert "durationSeconds" not in rep.to_dict() and "duration_seconds" not in rep.to_dict()
        # equality ignores the time
        assert dataclasses.replace(rep, duration_seconds=0.0) == rep


class TestRunChecks:
    def test_registry_names(self):
        names = {s.name for s in registry()}
        assert {
            "momentum_condition",
            "momentum_closed_form",
            "cocycle_matches_theta",
            "cylinder_K_path_independence",
            "noether_drift",
            "deck_triviality",
        } <= names

    def test_deterministic_and_schedule_independent(self, torus_sc, torus_checks):
        again = run_checks(torus_sc)
        as_dicts = [r.to_dict() for r in torus_checks]
        assert [r.to_dict() for r in again] == as_dicts

    def test_all_pass_with_margin(self, torus_checks, heis_checks):
        for r in torus_checks + heis_checks:
            assert r.passed, f"{r.check_name}: {r.max_error} > {r.tolerance}"

    def test_names_filter_and_seed_override(self, torus_sc):
        only = run_checks(torus_sc, seed=1, names={"momentum_condition"})
        assert [r.check_name for r in only] == ["momentum_condition"]
        repeat = run_checks(torus_sc, seed=1, names={"momentum_condition"})
        assert only == repeat

    def test_applicability_gating(self, torus_sc, heis_sc, torus_checks, heis_checks):
        torus_names = {r.check_name for r in torus_checks}
        heis_names = {r.check_name for r in heis_checks}
        assert "casimir_invariance" not in torus_names
        assert "casimir_invariance" in heis_names
        assert "cocycle_flat_vanishes" not in torus_names  # theta is not flat here
        flat = build_scenario(parse_config(FLAT_TEXT))
        flat_names = {r.check_name for r in run_checks(flat, names={"cocycle_flat_vanishes"})}
        assert flat_names == {"cocycle_flat_vanishes"}

    def test_far_from_unit_scale_passes(self):
        # |mu| ~ 1e6 on the invertible 2-torus: stopping criteria must scale
        # with the data, while every check keeps its stated tolerance
        sc = build_scenario(parse_config(TORUS_TEXT.replace("[[0.3, -0.2]]", "[[1e6, -3e5]]")))
        reports = run_checks(sc)
        assert {"noether_drift", "reduction_fiber"} <= {r.check_name for r in reports}
        for r in reports:
            assert r.passed, f"{r.check_name}: {r.max_error} > {r.tolerance} ({r.notes})"

    def test_overflowing_kinetic_flow_is_a_numerical_failure(self):
        # theta = 1e5 J: the flow would need far more Taylor steps than its
        # budget, and fails before it takes one; an RK4 flow that overflowed
        # to NaN here once slipped through its accuracy check
        text = TORUS_TEXT.replace('[["0","1"],["-1","0"]]', '[["0","100000"],["-100000","0"]]')
        sc = build_scenario(parse_config(text.replace('"sampleCount": 25', '"sampleCount": 20')))
        with np.errstate(all="ignore"):
            (rep,) = run_checks(sc, names={"noether_drift"})
        assert math.isinf(rep.max_error) and not rep.passed
        assert rep.notes.startswith("numerical failure")

    @pytest.mark.parametrize(
        "text, old, new",
        [
            (TORUS_TEXT, '[["0","1"],["-1","0"]]', '[["0","100"],["-100","0"]]'),
            (TORUS_TEXT, '[["0","1"],["-1","0"]]', '[["0","1000"],["-1000","0"]]'),
            (HEIS_TEXT, '["1", "0"]', '["50", "-30"]'),
            (HEIS_TEXT, '["1", "0"]', '["100", "0"]'),
            (HEIS_TEXT, '["1", "0"]', '["1000", "0"]'),
            (HEIS_TEXT, "[0.5, 0.1, -0.4]", "[50, 10, -40]"),
            (HEIS_TEXT, "[0.5, 0.1, -0.4]", "[500, 100, -400]"),
        ],
        ids=["theta100", "theta1000", "sigma50,-30", "sigma100", "sigma1000", "mu1e2", "mu1e3"],
    )
    def test_high_frequency_kinetic_flow_passes(self, text, old, new):
        # fast flows and far-scale momenta: the data sets the number of
        # Taylor steps, and the drift stays inside the unchanged gate (a
        # fixed RK4 step of 1e-3 failed its accuracy check on each)
        sc = build_scenario(parse_config(text.replace(old, new)))
        (rep,) = run_checks(sc, names={"noether_drift"}, samples=20)
        assert rep.passed and rep.tolerance == 1e-6, f"{rep.max_error} ({rep.notes})"

    def test_nan_over_settings_is_not_swallowed(self):
        # mu = 1e300 overflows the Casimir to inf - inf = NaN; combining the
        # per-mu errors with Python's max dropped it and the check passed
        # (a config rejects such a mu, so it is put in after parsing)
        config = dataclasses.replace(parse_config(HEIS_TEXT), mu_list=(np.array([1e300, 0.0, 0.0]),))
        with np.errstate(all="ignore"):
            (rep,) = run_checks(build_scenario(config), names={"casimir_invariance"}, samples=5)
        assert math.isinf(rep.max_error) and not rep.passed
        assert rep.notes.startswith("numerical failure")

    def test_config_tolerance_rescales_checks(self, tmp_path):
        text = TORUS_TEXT.replace(
            '"verify": {"sampleCount": 25, "seed": 7}',
            '"verify": {"sampleCount": 5, "seed": 7, "tolerance": 1e-6}',
        )
        sc = build_scenario(parse_config(text))
        (rep,) = run_checks(sc, names={"momentum_condition"})
        assert rep.tolerance == pytest.approx(1e-3)  # stated 1e-5 scaled by 1e-6/1e-8


def dumps(data) -> str:
    """The bytes AnalysisReport.to_json must write."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, 0.1]
SPECIAL_INTS = [0, -1, 2**64, 2**64 + 1, -(2**70), 10**40]
SPECIAL_TEXT = ["", "\x00\x1f\x7f", "é ü 漢字", "\u2028\U0001f600", '"\\/\b\f\n\r\t', "\ud800"]
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(SPECIAL_INTS),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(),
    st.sampled_from(SPECIAL_TEXT),
)
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.sampled_from(SPECIAL_TEXT)), kids, max_size=5),
    ),
    max_leaves=40,
)


def canonical_text(text: str, seed: int) -> str:
    cfg = json.loads(text)
    cfg["verify"]["seed"] = seed
    return json.dumps(cfg)


class TestToJson:
    """to_json writes the report itself; its bytes are json.dumps's."""

    @settings(max_examples=150, deadline=None)
    @given(json_trees)
    def test_matches_json_dumps(self, data):
        assert AnalysisReport(data).to_json() == dumps(data)

    def test_special_values(self):
        data = {
            "floats": SPECIAL_FLOATS,
            "ints": SPECIAL_INTS + [True, False, None],
            "text": SPECIAL_TEXT,
            SPECIAL_TEXT[2]: {"": [], "b": {}, "a": [[], [{}], [[1.5, "x"]]]},
            # subclasses are written as their base, as json.dumps writes them
            "subclasses": [np.float64(0.1), np.float64("nan"), np.float64(-0.0), type("S", (str,), {})("é")],
        }
        assert AnalysisReport(data).to_json() == dumps(data)
        assert AnalysisReport([]).to_json() == "[]\n" and AnalysisReport({}).to_json() == "{}\n"

    def test_unserializable_values_raise(self):
        with pytest.raises(TypeError):
            AnalysisReport({"x": object()}).to_json()
        with pytest.raises(TypeError):
            AnalysisReport({1: "non-string key"}).to_json()

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_canonical_reports(self, seed):
        texts = [TORUS2_TEXT, FLAT2_TEXT, TORUS3_TEXT, DENSE3_TEXT, ACCEPT_HEIS_TEXT]
        for text in texts:
            sc = build_scenario(parse_config(canonical_text(text, seed)))
            rep = build_analysis(sc)
            assert rep.to_json() == dumps(rep.data)


class TestReport:
    def test_round_trip_identity(self, torus_sc, torus_checks):
        rep = build_analysis(torus_sc, checks=torus_checks, timestamp="T0")
        text = rep.to_json()
        assert AnalysisReport.from_json(text).to_json() == text

    def test_deterministic_modulo_header(self, torus_sc, torus_checks):
        a = build_analysis(torus_sc, checks=torus_checks, timestamp="T0")
        b = build_analysis(torus_sc, checks=torus_checks, timestamp="T1")
        assert a.data != b.data
        assert a.without_header() == b.without_header()

    def test_check_seconds_in_header(self, torus_sc, torus_checks):
        rep = build_analysis(torus_sc, checks=torus_checks, timestamp="T0")
        seconds = rep.data["header"]["checkSeconds"]
        assert seconds == {r.check_name: r.duration_seconds for r in torus_checks}
        assert all(t > 0.0 for t in seconds.values())
        assert build_analysis(torus_sc, checks=[], timestamp="T0").data["header"]["checkSeconds"] == {}

    def test_torus_exact_section(self, torus_sc, torus_checks):
        rep = build_analysis(torus_sc, checks=torus_checks, timestamp="T0")
        exact = rep.exact
        assert exact["coverClassification"] == "R^2"
        assert exact["holonomyClosed"] is True
        assert exact["gamma0Basis"] == []
        assert exact["holonomyGenerators"] == [["0", "-1"], ["1", "0"]]
        (entry,) = exact["perMu"]
        assert entry["symplectomorphism"] is True
        assert entry["reducedCoverRelation"] == "symplectomorphism"
        assert entry["deckDescription"] == "trivial"
        assert entry["gammaMu"]["rank"] == 2
        assert entry["orbit"]["kind"] == "affineSubspace" and entry["orbit"]["dim"] == 2
        assert rep.data["numeric"]["allPassed"]

    def test_heis_exact_section(self, heis_sc, heis_checks):
        rep = build_analysis(heis_sc, checks=heis_checks, timestamp="T0")
        exact = rep.exact
        assert exact["coverClassification"] == "R^3"
        assert exact["closure"]["latticeBasis"] == [["0", "1", "0"]]
        (entry,) = exact["perMu"]
        assert entry["orbit"]["kind"] == "casimirLevelSet"
        assert entry["orbit"]["casimirValue"] == pytest.approx(-0.275, abs=1e-12)
        assert entry["reducedCoverRelation"] == "symplectomorphism"

    def test_dense_flags_and_suppression(self):
        sc = build_scenario(parse_config(DENSE_TEXT))
        rep = build_analysis(sc, checks=[], timestamp="T0")
        exact = rep.exact
        assert exact["holonomyClosed"] is False
        assert exact["closure"]["subspaceBasis"]  # positive-dimensional part
        (entry,) = exact["perMu"]
        assert "reductionSuppressed" in entry
        assert "gammaMu" not in entry and "symplectomorphism" not in entry
        assert entry["orbit"]["dim"] == 2  # orbit geometry is still reported

    def test_gamma_n_outside_gamma0_is_config_error(self):
        text = TORUS_TEXT.replace('"muList"', '"gammaN": [[1, 0]], "muList"')
        with pytest.raises(ConfigError, match="Hamiltonian cover") as err:
            build_scenario(parse_config(text))
        assert err.value.field == "gammaN"


FAMILY_TEXTS = {
    "torus2": TORUS_TEXT,
    "dense3": DENSE_TEXT,
    "heis": HEIS_TEXT,
    "heis flat": HEIS_TEXT.replace('["1", "0"]', '["0", "0"]'),
}


@pytest.mark.parametrize("name", sorted(FAMILY_TEXTS))
def test_family_label_decides_nothing(tmp_path, monkeypatch, name):
    # every decision reads the model's bracket pairs and circles: a scenario
    # and group labelled with a name no family has give the same report,
    # check results (durations aside) and orbit CSV
    config = write_config(tmp_path, FAMILY_TEXTS[name])
    out = tmp_path / "orbit.csv"

    def outputs():
        sc = cli._load_scenario(str(config))
        checks = run_checks(sc)
        assert cli.main(["orbit", "--config", str(config), "--mu", "0", "--samples", "20", "--out", str(out)]) == 0
        return sc.kind, build_analysis(sc, checks=checks).without_header(), checks, out.read_text()

    kind, *expected = outputs()
    real_model, real_build = scenario_module.GroupModel, cli.build_scenario

    def bogus_model(kind, dim):
        group = real_model(kind, dim)
        group.kind = "bogus"
        return group

    def bogus_build(config):
        sc = real_build(config)
        sc.kind = sc.cover.kind = "bogus"
        return sc

    monkeypatch.setattr(scenario_module, "GroupModel", bogus_model)
    monkeypatch.setattr(cli, "build_scenario", bogus_build)
    bogus, *relabelled = outputs()
    assert kind != bogus == "bogus"
    assert relabelled == expected


def read_orbit_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# descriptor: ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


class TestCLI:
    def test_verify_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TORUS_TEXT)
        assert cli.main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS momentum_condition" in out
        lines = out.strip().splitlines()
        n = len(lines) - 1
        assert lines[-1] == f"{n}/{n} checks passed"
        for line in lines[:-1]:
            assert re.search(r" time=\d+\.\d{3}s$", line), line

    def test_verify_rejects_a_negative_seed(self, tmp_path, capsys):
        # a usage error like --samples below 1, not a failed check
        cfg = write_config(tmp_path, TORUS_TEXT)
        assert cli.main(["verify", "--config", cfg, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--seed" in captured.err

    def test_orbit_escape_fails_the_check_in_verify(self, tmp_path, capsys):
        # at sigma = 1e5 the Casimir residual misses its bound: inside verify
        # that is a failed check (exit 1), not an internal error
        text = HEIS_TEXT.replace('["1", "0"]', '["100000", "0"]').replace('"sampleCount": 25', '"sampleCount": 20')
        cfg = write_config(tmp_path, text)
        with np.errstate(all="ignore"):
            assert cli.main(["verify", "--config", cfg]) == 1
            out = capsys.readouterr().out
            assert "FAIL orbit_descriptor" in out
            (rep,) = run_checks(build_scenario(parse_config(text)), names={"orbit_descriptor"})
        assert math.isinf(rep.max_error) and rep.notes.startswith("numerical failure")
        assert "escaped its analytic description" in rep.notes

    def test_verify_sign_flip_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("momenta.symplectic._CANON_SIGN", -1.0)
        cfg = write_config(
            tmp_path, TORUS_TEXT.replace('"sampleCount": 25', '"sampleCount": 10')
        )
        assert cli.main(["verify", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "FAIL momentum_condition" in out

    def test_analyze_deterministic_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FLAT_TEXT)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(["analyze", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["analyze", "--config", cfg, "--out", str(out2)]) == 0
        def strip(p):
            # the header block (timestamp and check times) is the only part
            # allowed to differ; everything else must match byte for byte
            lines = p.read_text().splitlines()
            start = lines.index('  "header": {')
            return lines[:start] + lines[lines.index("  },", start) + 1 :]

        assert strip(out1) == strip(out2)
        data = json.loads(out1.read_text())
        assert set(data["header"]) == {"generatedAt", "tool", "schemaVersion", "checkSeconds"}
        assert data["exact"]["coverClassification"] == "T^2"
        assert data["numeric"]["allPassed"] is True
        assert data["scenario"]["group"] == "torus"

    def test_analyze_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FLAT_TEXT)
        assert cli.main(["analyze", "--config", cfg]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["header"]["schemaVersion"] == 1

    def test_orbit_flat_rows_fixed(self, tmp_path):
        cfg = write_config(tmp_path, FLAT_TEXT)
        out = tmp_path / "orbit.csv"
        rc = cli.main(["orbit", "--config", cfg, "--mu", "0", "--samples", "6", "--out", str(out)])
        assert rc == 0
        desc, header, rows = read_orbit_csv(out)
        assert "affineSubspace dim=0" in desc
        assert header == ["sample", "g0", "g1", "mu0", "mu1"]
        assert len(rows) == 6
        for row in rows:
            assert float(row[3]) == pytest.approx(0.7, abs=1e-12)
            assert float(row[4]) == pytest.approx(-0.2, abs=1e-12)

    def test_orbit_invertible_rows_span(self, tmp_path):
        cfg = write_config(tmp_path, TORUS_TEXT)
        out = tmp_path / "orbit.csv"
        assert cli.main(["orbit", "--config", cfg, "--mu", "0", "--samples", "12", "--out", str(out)]) == 0
        _, header, rows = read_orbit_csv(out)
        moved = np.array([[float(r[3]), float(r[4])] for r in rows])
        deltas = moved - np.array([0.3, -0.2])
        assert np.linalg.matrix_rank(deltas, tol=1e-9) == 2

    def test_orbit_heisenberg_casimir_column(self, tmp_path):
        cfg = write_config(tmp_path, HEIS_TEXT)
        out = tmp_path / "orbit.csv"
        assert cli.main(["orbit", "--config", cfg, "--mu", "0", "--samples", "8", "--out", str(out)]) == 0
        desc, header, rows = read_orbit_csv(out)
        assert "casimirLevelSet" in desc
        assert header[-1] == "casimir"
        for row in rows:
            assert float(row[-1]) == pytest.approx(-0.275, abs=1e-9)

    def test_orbit_mu_out_of_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TORUS_TEXT)
        assert cli.main(["orbit", "--config", cfg, "--mu", "5", "--samples", "2"]) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [NumericalError, MomentaError])
    def test_internal_error_exit_3(self, tmp_path, capsys, monkeypatch, error):
        def boom(*args, **kwargs):
            raise error("sampled orbit point escaped")

        monkeypatch.setattr(cli, "orbit_descriptor", boom)
        cfg = write_config(tmp_path, TORUS_TEXT)
        assert cli.main(["orbit", "--config", cfg, "--mu", "0"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "sampled orbit point escaped" in err

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, '{"group":"torus","dim":2,"theta":[["0","1"],["1","0"]]}'
        )
        assert cli.main(["analyze", "--config", cfg]) == 2
        assert "theta not antisymmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    @pytest.mark.parametrize(
        "old,new,field",
        [
            ('"seed": 7', '"seed": 7, "tolerance": Infinity', "verify.tolerance"),
            ('"seed": 7', '"seed": 7, "tolerance": NaN', "verify.tolerance"),
            ("[0.3, -0.2]", "[NaN, -0.2]", "muList[0]"),
            ("[0.3, -0.2]", "[0.3, -Infinity]", "muList[0]"),
        ],
    )
    def test_non_finite_config_exit_2(self, tmp_path, capsys, command, old, new, field):
        # Python's JSON reader accepts Infinity and NaN; the config does not
        cfg = write_config(tmp_path, TORUS_TEXT.replace(old, new))
        assert cli.main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"config error: {field}" in captured.err

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    @pytest.mark.parametrize(
        "text,field",
        [
            (TORUS_TEXT.replace('"1"],["-1"', f'"{HUGE}"],["-{HUGE}"'), "theta[0][1]"),
            (HEIS_TEXT.replace('["1", "0"]', f'["1", "{HUGE}"]'), "sigma[1]"),
            (TORUS_TEXT.replace('"dim": 2', f'"dim": 2, "field": {HUGE}1'), "field"),
            # exact and below 1e309, but times sqrt(2) its float is inf
            (TORUS_TEXT.replace('"1"],["-1"', f'"{HUGE_AL}"],["-{HUGE_AL}"'), "theta[0][1]"),
        ],
        ids=["theta", "sigma", "field", "theta-al"],
    )
    def test_beyond_float_range_exit_2(self, tmp_path, capsys, command, text, field):
        # at the parent the first three crashed with an OverflowError (exit 1)
        # and the last exited 3 with a cylinder message
        cfg = write_config(tmp_path, text)
        assert cli.main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"config error: {field}: " in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "verify", "orbit"])
    @pytest.mark.parametrize(
        "text",
        [
            TORUS_TEXT.replace('"muList"', '"gammaN": [[1, 0]], "muList"'),
            # gamma0 is trivial and the closure is not closed, so no deck group is built
            DENSE_TEXT.replace('"muList"', '"gammaN": [[1, 0, 0]], "muList"'),
        ],
        ids=["torus2", "dense3"],
    )
    def test_gamma_n_outside_gamma0_exit_2(self, tmp_path, capsys, command, text):
        cfg = write_config(tmp_path, text)
        args = ["--mu", "0"] if command == "orbit" else []
        assert cli.main([command, "--config", cfg] + args) == 2
        captured = capsys.readouterr()
        line = "config error: gammaN: not a Hamiltonian cover: gamma_n is not contained in gamma_0"
        assert captured.out == "" and line in captured.err

    @pytest.mark.parametrize("command", ["verify", "orbit"])
    @pytest.mark.parametrize("mu", ["[1e150, 0, 0]", "[1e300, 0, 0]", "[0, -1.5e100, 0]"])
    def test_mu_above_bound_exit_2(self, tmp_path, capsys, command, mu):
        # at the parent 1e150 gave maxError nan and 1e300 exited 3
        cfg = write_config(tmp_path, HEIS_TEXT.replace("[0.5, 0.1, -0.4]", mu))
        args = ["--mu", "0"] if command == "orbit" else []
        assert cli.main([command, "--config", cfg] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "config error: muList[0]: entries must be at most 1e+100" in captured.err

    def test_orbit_far_from_unit_mu(self, tmp_path, capsys):
        # heis mu x 1e6: the Casimir gap is about 1.5e-5, far inside
        # 1e-8 * |mu|^2; the validation bound was an absolute 1e-8
        cfg = write_config(tmp_path, HEIS_TEXT.replace("[0.5, 0.1, -0.4]", "[5e5, 1e5, -4e5]"))
        assert cli.main(["orbit", "--config", cfg, "--mu", "0", "--samples", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("# descriptor: casimirLevelSet")

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert cli.main(["verify", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "orbit"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, command):
        # a usage error, not exit 1, which means a failed check
        cfg = write_config(tmp_path, TORUS_TEXT.replace('"sampleCount": 25', '"sampleCount": 2'))
        out = str(tmp_path / "missing" / "x.out")
        args = ["--mu", "0", "--samples", "2"] if command == "orbit" else []
        assert cli.main([command, "--config", cfg, "--out", out] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert f"cannot write {out}: " in captured.err


class TestLogging:
    @pytest.mark.parametrize("level,expect_logs", [("off", False), ("info", True)])
    def test_momenta_log_env(self, tmp_path, level, expect_logs):
        cfg = write_config(
            tmp_path, TORUS_TEXT.replace('"sampleCount": 25', '"sampleCount": 5')
        )
        # The child runs in tmp_path, so an inherited relative PYTHONPATH would
        # not find the package: put the absolute source root of the imported
        # package first.  Any warning in the child is an error, as in this
        # process.
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, MOMENTA_LOG=level, PYTHONPATH=pythonpath, PYTHONWARNINGS="error")
        proc = subprocess.run(
            [sys.executable, "-m", "momenta.cli", "verify", "--config", cfg],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0
        has_logs = "momenta.verification" in proc.stderr
        assert has_logs == expect_logs

    def test_unknown_level_warns_and_stays_off(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MOMENTA_LOG", "verbose")
        cfg = write_config(tmp_path, TORUS_TEXT)
        assert cli.main(["orbit", "--config", cfg, "--mu", "0", "--samples", "2"]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'verbose'" in err and "off|info|debug" in err
