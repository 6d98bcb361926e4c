"""Benchmark of the momenta program.

    python3 benchmarks/run.py --workload {canonical,classify,paths} \
        --seed N --seconds S --trace {0,1}

Run from any directory; the program is taken from ``src/`` next to this
directory, and the metric names and units from ``BENCHMARK.json`` there.  A
run builds its inputs from the seed and runs the workload's operations one at
a time, pass after pass, until ``--seconds`` have elapsed and at least one
pass is complete (the last pass may stop part-way).  It checks every
operation's output and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
carries the details (environment, failing inputs, percentile used); the same
details, each failing input in full, and every pass and operation time go to
``benchmarks/out/<workload>-seed<N>-trace<T>.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run that measures untraced operations for half the time and whole traced
passes for the other half, and reports the per-layer metrics per traced
pass, with the tracing overhead.

``attempted`` counts the distinct operations run (a pass's worth, whatever
the number of repeats); ``failed`` counts those that ended without an output
(an exception or an exit without a report) or whose output failed its check
in any repeat.  ``correct`` is false when any output failed its check, and
when an operation ended without an output where the parent commit produced
one.  The only failures that leave ``correct`` true are the classify inputs
whose recorded reference is the same exception.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import metrics
import tracing
import workloads

IMPORT_REPS = 5
BUILD_REPS = 3
SPEC_PATH = workloads.ROOT / "BENCHMARK.json"


def environment(seed: int) -> dict:
    from importlib import metadata

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def measure_setup(workload, seed: int):
    """Median time of a fresh interpreter importing momenta.cli, plus the
    median time to build the workload's inputs.  One untimed import first
    writes the bytecode cache, which users pay once per install."""
    cmd = [sys.executable, "-c", "import momenta.cli"]
    env = workloads.program_env()
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
    imports = []
    for _ in range(IMPORT_REPS):
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
        imports.append(perf_counter() - start)
    builds, inputs = [], None
    for _ in range(BUILD_REPS):
        start = perf_counter()
        inputs = workload.build(seed)
        builds.append(perf_counter() - start)
    return metrics.median(imports), metrics.median(builds), inputs


class Tally:
    """Operation times, pass times and failures of one run.

    ``attempted`` and ``failed`` count distinct operations: an operation
    repeated in several passes is attempted once, and failed once if any of
    its repeats failed.  So both depend only on the inputs (the seed), not on
    how many repeats fit in the run."""

    def __init__(self):
        self.op_times: list[float] = []
        self.op_labels: list[str] = []
        self.walls: list[float] = []
        self.ops_per_pass = 0
        self.attempted_labels: set[str] = set()
        self.failed_labels: set[str] = set()
        self.incorrect = 0
        self.failures: dict[str, dict] = {}

    @property
    def attempted(self) -> int:
        return len(self.attempted_labels)

    @property
    def failed(self) -> int:
        return len(self.failed_labels)

    def fail(self, label: str, error: str, kind: str, config: str | None) -> None:
        """``kind`` is "check" (wrong output), "crash" (no output where the
        parent produced one) or "known crash" (the parent's own exception)."""
        self.failed_labels.add(label)
        if kind != "known crash":
            self.incorrect += 1
        entry = self.failures.setdefault(label, {"kind": kind, "error": error, "count": 0})
        entry["count"] += 1
        if config is not None:
            entry["config"] = config

    def merge(self, other: "Tally") -> None:
        self.op_times += other.op_times
        self.op_labels += other.op_labels
        self.walls += other.walls
        self.ops_per_pass = max(self.ops_per_pass, other.ops_per_pass)
        self.attempted_labels |= other.attempted_labels
        self.failed_labels |= other.failed_labels
        self.incorrect += other.incorrect
        for label, entry in other.failures.items():
            mine = self.failures.setdefault(label, dict(entry, count=0))
            mine["count"] += entry["count"]


def run_ops(
    workload, inputs, seconds: float, tally: Tally, whole_passes: bool = False, traced: bool = False, tracer=None
) -> int:
    """Run passes over the operations until ``seconds`` have elapsed and at
    least one pass is complete; return the number of complete passes.  Odd
    passes run the operations in reverse order, so the pass that the
    deadline cuts short repeats the operations the previous pass ran last
    and no operation is always the one left out.  The last pass stops at the
    deadline unless ``whole_passes``.  Outputs are checked after each pass,
    outside the timed region.  ``tracer`` traces in-process operations;
    ``traced`` alone makes the workload trace its child processes."""
    ops = workload.make_ops(inputs, traced=traced)
    n = tally.ops_per_pass = len(ops)
    deadline = perf_counter() + seconds
    passes = 0
    while True:
        outputs, crashes = [None] * n, {}
        order = range(n) if passes % 2 == 0 else range(n - 1, -1, -1)
        ran = []
        ctx = tracing.installed(tracer) if tracer is not None else contextlib.nullcontext()
        with ctx:
            start = perf_counter()
            for i in order:
                if passes and not whole_passes and perf_counter() >= deadline:
                    break
                label, fn = ops[i]
                if tracer is not None:
                    tracer.op = (passes, i)
                t0 = perf_counter()
                try:
                    outputs[i] = fn()
                except Exception as exc:  # a failing operation is counted, never fatal
                    crashes[i] = f"{type(exc).__name__}: {exc}"
                tally.op_times.append(perf_counter() - t0)
                tally.op_labels.append(label)
                ran.append(i)
            if len(ran) == n:
                tally.walls.append(perf_counter() - start)
                passes += 1
        errors = workload.gate(inputs, outputs)
        for i in ran:
            label = ops[i][0]
            tally.attempted_labels.add(label)
            if i in crashes:
                kind = "known crash" if workload.known_crash(inputs, i, crashes[i]) else "crash"
                tally.fail(label, crashes[i], kind, workload.input_text(inputs, i))
            elif errors[i]:
                tally.fail(label, errors[i], "check", workload.input_text(inputs, i))
        if perf_counter() >= deadline:
            return passes


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, inputs, seconds: float, setup_s: float) -> tuple[dict, Tally, str]:
    """Each operation's time is its median over the repeats in the run.
    ``wall_s`` is the time of one pass as the sum of these, so that a pass
    cut at the deadline still counts; ``op_p50_s`` and ``op_tail_s`` are
    taken over them, each operation once."""
    tally = Tally()
    run_ops(workload, inputs, seconds, tally)
    by_label = metrics.label_medians(tally.op_labels, tally.op_times)
    tail, tail_desc = metrics.tail(by_label, len(tally.op_times))
    values = {
        "wall_s": sum(by_label.values()),
        "op_p50_s": metrics.median(by_label.values()),
        "op_tail_s": tail,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    return values, tally, tail_desc


def per_layer(workload, inputs, seconds: float, import_s: float, names) -> tuple[dict, Tally]:
    """Untraced operations for half the time, then whole traced passes for
    the other half.  Values are means per traced pass, so the self times of
    one pass sum to at most ``trace.wall_s``."""
    plain, traced = Tally(), Tally()
    run_ops(workload, inputs, seconds / 2, plain)
    if workload.in_process:
        tracer = tracing.Tracer()
        n = run_ops(workload, inputs, seconds / 2, traced, whole_passes=True, traced=True, tracer=tracer)
        totals = tracing.summarize(tracer)
    else:
        workload.trace_totals.clear()
        n = run_ops(workload, inputs, seconds / 2, traced, whole_passes=True, traced=True)
        totals = workload.trace_totals
    values = {name: totals.get(name, 0.0) / n for name in names}
    if workload.in_process:
        values["cli.import.s"] = import_s  # paid once, at set-up
    evals = totals.get("numerics.quadrature.evals", 0.0)
    values["numerics.quadrature.useful_ratio"] = (
        totals.get("numerics.quadrature.accepted", 0.0) / evals if evals else 0.0
    )
    values["trace.wall_s"] = sum(traced.walls) / n
    plain_wall = sum(metrics.label_medians(plain.op_labels, plain.op_times).values())
    values["trace.overhead_s"] = values["trace.wall_s"] - plain_wall
    plain.merge(traced)
    return values, plain


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOAD_TYPES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def result_of(tally: Tally, values: dict, units: dict) -> dict:
    return {
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": unit} for n, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (workloads.SRC / "momenta" / "cli.py").is_file():
        print(f"momenta sources not found under {workloads.SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(workloads.SRC))
    out_dir = Path(__file__).resolve().parent / "out"
    work_dir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(args.seed)
        workload = workloads.WORKLOAD_TYPES[args.workload](work_dir)
        if workload.in_process:
            import momenta.cli  # noqa: F401  (the same import the set-up measures)
        import_s, build_s, inputs = measure_setup(workload, args.seed)
        if args.trace:
            values, tally = per_layer(workload, inputs, args.seconds, import_s, units)
            tail_desc = None
        else:
            values, tally, tail_desc = end_to_end(workload, inputs, args.seconds, import_s + build_s)
        env["loadavg_end"] = list(os.getloadavg())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = result_of(tally, values, units)
    detail = {
        "workload": args.workload,
        "complete_passes": len(tally.walls),
        "ops_per_pass": tally.ops_per_pass,
        "op_tail": tail_desc,
        "compared_with_parent": workload.compared,
        "setup": {"import_s": import_s, "build_s": build_s},
        "failed_share": tally.failed / tally.attempted,
        "failures": {
            label: {k: v for k, v in entry.items() if k != "config"}
            | ({"config_digest": workloads.digest(entry["config"])} if "config" in entry else {})
            for label, entry in tally.failures.items()
        },
        "environment": env,
    }
    results_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail["results"] = str(results_path.relative_to(workloads.ROOT))
    results_path.write_text(
        json.dumps(
            {
                "result": result,
                "detail": detail,
                "failures": tally.failures,
                "pass_seconds": tally.walls,
                "op_seconds": list(zip(tally.op_labels, tally.op_times)),
            },
            indent=1,
        )
        + "\n"
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
