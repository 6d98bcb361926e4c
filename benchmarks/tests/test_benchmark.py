"""Tests of the benchmark itself: seeded generators, correctness gates,
tracing arithmetic and the printed metrics.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


# -- generators --------------------------------------------------------------


def test_classify_generator_is_deterministic():
    a, b = workloads.classify_configs(7), workloads.classify_configs(7)
    assert a == b
    assert a != workloads.classify_configs(8)
    labels = [label for label, _ in a]
    assert len(labels) == len(set(labels)) == (7 * 3 + 3) * workloads.PER_CELL
    for _, text in a:
        assert len(json.loads(text)["muList"]) == 2


def test_canonical_configs_take_the_seed():
    for seed in (0, 5):
        configs = workloads.canonical_configs(seed)
        assert sorted(configs) == sorted(workloads.CANONICAL_TEXTS)
        for name, text in configs.items():
            cfg, original = json.loads(text), json.loads(workloads.CANONICAL_TEXTS[name])
            assert cfg["verify"]["seed"] == seed
            cfg["verify"]["seed"] = original["verify"]["seed"]
            assert cfg == original
    assert workloads.canonical_configs(3) == workloads.canonical_configs(3)


def test_every_classify_run_has_the_parents_references():
    w = workloads.Classify(None)
    for seed in (0, 11, 12, 305, 10**6 + 7):
        inputs = w.build(seed)
        assert inputs == w.build(seed)
        assert all(workloads.digest(text) in w.refs for _, text in inputs)
    assert w.build(12) == w.build(0) != w.build(1)


def test_paths_generator_is_deterministic():
    w = workloads.Paths(None)
    a, b, c = w.build(3), w.build(3), w.build(4)
    assert [x.segments for x in a] == list(workloads.SEGMENTS) * len(workloads.PATH_MODELS)
    for p, q in zip(a, b):
        assert np.array_equal(p.x.momenta, q.x.momenta)
        assert np.array_equal(p.x.base.directions, q.x.base.directions)
        assert np.array_equal(p.q.durations, q.q.durations)
        assert np.array_equal(p.mu, q.mu)
    assert not np.array_equal(a[0].x.momenta, c[0].x.momenta)


# -- correctness gates -------------------------------------------------------


def _canonical_report(name: str, max_error: float = 1e-12) -> str:
    exact = json.loads(workloads.load_ref("canonical_exact.json")[name])
    check = {"checkName": "group_exp_log", "maxError": max_error, "tolerance": 1e-10,
             "passed": max_error <= 1e-10, "sampleCount": 100, "notes": ""}
    data = {"exact": exact, "numeric": {"allPassed": True, "checks": [check]}}
    return json.dumps(data)


def test_canonical_gate_accepts_the_reference_and_catches_corruption():
    gate = workloads.Canonical(None)
    assert gate.check("torus3", 0, _canonical_report("torus3")) is None

    flipped = json.loads(_canonical_report("torus3"))
    flipped["exact"]["gamma0Basis"][0][2] += 1
    assert "exact section" in gate.check("torus3", 0, json.dumps(flipped))

    assert "maxError" in gate.check("torus3", 0, _canonical_report("torus3", max_error=1e-9))
    assert gate.check("torus3", 1, _canonical_report("torus3")) == "exit code 1"


def test_classify_gate_catches_a_flipped_exact_entry():
    gate = workloads.Classify(None)
    inputs = workloads.classify_configs(0)
    label, text = next((lb, t) for lb, t in inputs if lb == "torus d=5 Q #0")
    assert workloads.digest(text) in gate.refs
    (_, run), = gate.make_ops([(label, text)])
    sc, report_text = run()
    assert gate.check(text, sc, report_text) is None

    data = json.loads(report_text)
    gen = data["exact"]["holonomyGenerators"][0]
    gen[0] = "7" if gen[0] != "7" else "8"
    flipped = json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert gate.check(text, sc, flipped) == "exact section differs from the reference"


def test_a_canonical_child_that_exits_without_a_report_is_incorrect(tmp_path):
    w = workloads.Canonical(tmp_path)
    inputs = w.build(0)[:1]
    cmd = [sys.executable, "-c", "import sys; sys.exit(1)"]
    w.make_ops = lambda inputs, traced=False: [(inputs[0][0], w._op(cmd, tmp_path / "none.json", None))]
    tally = run.Tally()
    run.run_ops(w, inputs, 0.0, tally)
    result = run.result_of(tally, {}, {})
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert tally.failures["torus2"]["kind"] == "crash"


class _Toy:
    """Three operations, the second of which always raises."""

    in_process = True

    def make_ops(self, inputs, traced=False):
        def boom():
            raise ValueError("boom")

        return [("a", lambda: 1), ("b", boom), ("c", lambda: 3)]

    def gate(self, inputs, outputs):
        return [None] * len(outputs)

    def known_crash(self, inputs, i, message):
        return True

    def input_text(self, inputs, i):
        return None


def test_attempted_and_failed_do_not_depend_on_the_number_of_passes():
    once, many = run.Tally(), run.Tally()
    assert run.run_ops(_Toy(), None, 0.0, once) == 1
    assert run.run_ops(_Toy(), None, 0.05, many) > 1
    for tally in (once, many):
        assert (tally.attempted, tally.failed, tally.incorrect) == (3, 1, 0)
    assert many.failures["b"]["count"] > 1
    # odd passes run in reverse, so a cut pass starts with the last operation
    assert many.op_labels[:6] == ["a", "b", "c", "c", "b", "a"]


def test_classify_crash_is_known_only_where_the_parent_raised_the_same():
    w = workloads.Classify(None)
    inputs = w.build(0)
    crashed = next(i for i, (_, t) in enumerate(inputs) if w.refs[workloads.digest(t)].startswith("error:"))
    solved = next(i for i, (_, t) in enumerate(inputs) if not w.refs[workloads.digest(t)].startswith("error:"))
    message = w.refs[workloads.digest(inputs[crashed][1])].removeprefix("error: ")

    tally = run.Tally()
    run.run_ops(w, [inputs[crashed]], 0.0, tally)
    assert (tally.attempted, tally.failed, tally.incorrect) == (1, 1, 0)
    assert tally.failures[inputs[crashed][0]] | {"config": None} == {
        "kind": "known crash", "error": message, "count": 1, "config": None}

    assert not w.known_crash(inputs, crashed, "InputError: some other failure")
    assert not w.known_crash(inputs, solved, message)


def test_paths_gate_catches_a_wrong_momentum():
    w = workloads.Paths(None)
    inputs = w.build(0)[:1]
    outputs = [fn() for _, fn in w.make_ops(inputs)]
    assert w.gate(inputs, outputs) == [None] * len(outputs)
    outputs[0] = outputs[0] + 1e-6
    errors = dict(zip(w.CALLS, w.gate(inputs, outputs)))
    assert "closed form" in errors.pop("momentum_of_path")
    assert "project(J)" in errors.pop("K")  # K no longer agrees with the corrupted J
    assert set(errors.values()) == {None}
    full = w.gate(inputs, outputs)
    cut = outputs[:2] + [None] * (len(outputs) - 2)  # a pass cut after two calls
    assert w.gate(inputs, cut) == full[:2] + [None] * (len(outputs) - 2)


# -- tracing -----------------------------------------------------------------


def test_self_time_subtracts_children_and_shares_concurrent_time():
    parent = ["a", 0.0, 10.0, 1, None, 0]
    child = ["b", 2.0, 5.0, 1, parent, 0]
    worker1 = ["c", 6.0, 9.0, 2, parent, 0]
    worker2 = ["c", 7.0, 9.0, 3, parent, 0]
    out = tracing.self_times([parent, child, worker1, worker2])
    assert out["a"] == pytest.approx(2.0 + 1.0 + 1.0)
    assert out["b"] == pytest.approx(3.0)
    assert out["c"] == pytest.approx(1.0 + 2.0)
    assert sum(out.values()) == pytest.approx(10.0)


def test_traced_threads_never_sum_above_wall_time():
    tracer = tracing.Tracer()

    def work():
        return tracer.call("leaf", time.sleep, (0.02,), {})

    def fan_out():
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    start = time.perf_counter()
    tracer.call("root", fan_out, (), {})
    wall = time.perf_counter() - start
    summary = tracing.summarize(tracer)
    assert summary["leaf.calls"] == 4
    assert summary["trace.self_sum_s"] <= wall


# -- the printed result ------------------------------------------------------


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    result = _result(run_bench("--workload", "paths", "--seed", "1", "--seconds", "1", "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == units
    assert all(isinstance(entry["value"], float) for entry in result["metrics"].values())
    if trace:
        assert set(metrics.MOVES) == set(units)
        m = result["metrics"]
        assert 0 < m["trace.self_sum_s"]["value"] <= m["trace.wall_s"]["value"]
        cells = len(workloads.SEGMENTS) * len(workloads.PATH_MODELS)
        # one direct call per cell, and one inside each cylinder.K call
        assert m["momentum.momentum_of_path.calls"]["value"] == 2 * cells
        assert m["groups.path_product.calls"]["value"] == cells
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "paths", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "benchmarks" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
