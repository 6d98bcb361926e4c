"""The three workloads: seeded inputs, one callable per operation, and the
correctness gate applied to every operation's output.

Every workload is a closed loop: one process, one operation at a time.  A
workload's *pass* is its fixed list of operations; the runner repeats passes
on the same inputs.  The program sees only config JSON (through
``parse_config``) and paths built from the seed with its public constructors.

``make_ops`` returns zero-argument callables that look the program's
functions up on their modules at call time, so the traced run sees the calls
through the wrappers it installs.  ``gate`` checks the outputs of one pass,
one per operation; an operation that did not run (the deadline cut its pass)
or raised has ``None``.
``known_crash`` tells whether an exception is the one the parent commit
raised on the same input.  ``compared`` counts the outputs (and crashes)
compared with a reference recorded at the parent commit.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

# Copied verbatim from tests/test_acceptance.py; verify.seed is replaced by
# the benchmark seed.
CANONICAL_TEXTS = {
    "torus2": """
{
  "group": "torus", "dim": 2,
  "theta": [["0","1"],["-1","0"]],
  "muList": [[0.3, -0.2], [0.0, 0.0]],
  "verify": {"sampleCount": 100, "seed": 42}
}
""",
    "flat2": """
{
  "group": "torus", "dim": 2,
  "theta": [["0","0"],["0","0"]],
  "muList": [[0.7, -0.2]],
  "verify": {"sampleCount": 100, "seed": 42}
}
""",
    "torus3": """
{
  "group": "torus", "dim": 3,
  "theta": [["0","1","0"],["-1","0","0"],["0","0","0"]],
  "muList": [[0.4, -0.1, 0.25]],
  "verify": {"sampleCount": 100, "seed": 42}
}
""",
    "dense3": """
{
  "group": "torus", "dim": 3, "field": 2,
  "theta": [["0","1","1*al"],["-1","0","1"],["-1*al","-1","0"]],
  "muList": [[0.2, 0.0, -0.1]],
  "verify": {"sampleCount": 50, "seed": 42}
}
""",
    "heis": """
{
  "group": "heisenberg", "sigma": ["1", "0"],
  "muList": [[0.5, 0.1, -0.4], [0.0, 0.0, 0.0]],
  "verify": {"sampleCount": 100, "seed": 42}
}
""",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def exact_text(report_data: dict) -> str:
    """Canonical bytes of a report's exact section."""
    return json.dumps(report_data["exact"], indent=2, sort_keys=True) + "\n"


def load_ref(name: str) -> dict:
    path = REFS / name
    return json.loads(path.read_text()) if path.is_file() else {}


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MOMENTA_LOG", None)
    return env


class Crash(Exception):
    """An operation ended without an output to check (exception or exit code)."""


# -- canonical ---------------------------------------------------------------


def canonical_configs(seed: int) -> dict[str, str]:
    out = {}
    for name, text in CANONICAL_TEXTS.items():
        cfg = json.loads(text)
        cfg["verify"]["seed"] = seed
        out[name] = json.dumps(cfg, indent=2) + "\n"
    return out


def _one_cpu() -> None:
    """Run the child on one CPU.  On two CPUs the check suite's eight pool
    threads and OpenBLAS's threads contend with whatever else runs on the
    machine: on a shared two-CPU VM, alternating runs of the same seeds took
    a median 34.8 s per pass with an IQR of 0.36 of it, against 21.8 s and
    0.06 on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Canonical:
    """``momenta analyze --config ...`` in a fresh interpreter per operation,
    on one CPU (see ``_one_cpu``)."""

    name = "canonical"
    in_process = False
    op_timeout = 150.0

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.refs = load_ref("canonical_exact.json")
        self.trace_totals: dict[str, float] = {}
        self.compared = 0

    def build(self, seed: int) -> list[tuple[str, Path]]:
        inputs = []
        for name, text in canonical_configs(seed).items():
            path = self.work_dir / f"{name}.json"
            path.write_text(text)
            inputs.append((name, path))
        return inputs

    def make_ops(self, inputs, traced: bool = False):
        ops = []
        for name, config in inputs:
            out = self.work_dir / f"{name}.report.json"
            args = ["analyze", "--config", str(config), "--out", str(out)]
            if traced:
                summary = self.work_dir / f"{name}.trace.json"
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(summary)] + args
            else:
                summary = None
                cmd = [sys.executable, "-m", "momenta.cli"] + args
            ops.append((name, self._op(cmd, out, summary)))
        return ops

    def _op(self, cmd, out: Path, summary: Path | None):
        def run():
            for stale in (out, summary):
                if stale is not None and stale.exists():
                    stale.unlink()
            proc = subprocess.run(
                cmd,
                env=program_env(),
                cwd=self.work_dir,
                capture_output=True,
                text=True,
                timeout=self.op_timeout,
                preexec_fn=_one_cpu,
            )
            if summary is not None and summary.exists():
                for key, value in json.loads(summary.read_text()).items():
                    self.trace_totals[key] = self.trace_totals.get(key, 0.0) + value
            if proc.returncode != 0 and not out.exists():
                tail = proc.stderr.strip().splitlines()[-1:] or [""]
                raise Crash(f"exit {proc.returncode}: {tail[0]}")
            return proc.returncode, out.read_text()

        return run

    def input_text(self, inputs, i: int) -> str:
        return inputs[i][1].read_text()

    def known_crash(self, inputs, i: int, message: str) -> bool:
        return False  # the parent completes every canonical scenario

    def gate(self, inputs, outputs) -> list[str | None]:
        errors = []
        for (name, _), result in zip(inputs, outputs):
            errors.append(None if result is None else self.check(name, *result))
        return errors

    def check(self, name: str, returncode: int, text: str) -> str | None:
        if returncode != 0:
            return f"exit code {returncode}"
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"report is not JSON: {exc}"
        numeric = data.get("numeric", {})
        if numeric.get("allPassed") is not True:
            return "allPassed is not true"
        checks = numeric.get("checks") or []
        if not checks:
            return "no checks in the report"
        for c in checks:
            if not c["maxError"] <= c["tolerance"]:
                return f"{c['checkName']}: maxError {c['maxError']} > tolerance {c['tolerance']}"
        ref = self.refs.get(name)
        if ref is None:
            return f"no reference exact section for {name}"
        self.compared += 1
        if exact_text(data) != ref:
            return "exact section differs from the reference"
        return None


# -- classify ----------------------------------------------------------------

FIELDS = (("Q", 2, False), ("Q(sqrt2)", 2, True), ("Q(sqrt3)", 3, True))
DIMS = range(4, 11)
ENTRY_RANGE = 9  # integer parts of theta and sigma entries lie in [-9, 9]
# Scenarios per (dimension, field) cell.  With one, a pass takes about half
# the run, so each operation is timed more than once and its median taken;
# at two a run held a single pass, and the figures spread more across seeds.
PER_CELL = 1
# The parent's exact sections are recorded for the inputs of generator seeds
# 0..CLASSIFY_REF_SEEDS-1 (``record_refs.py``); a run takes the inputs of
# generator seed ``seed % CLASSIFY_REF_SEEDS``, so every input has one.
CLASSIFY_REF_SEEDS = 12


def _scalar(a: int, b: int) -> str:
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*al"
    return f"{a}{'+' if b > 0 else ''}{b}*al"


def classify_configs(seed: int) -> list[tuple[str, str]]:
    """(label, config JSON): ``PER_CELL`` random antisymmetric thetas per
    dimension and field and ``PER_CELL`` Heisenberg sigmas per field, two mu
    values each.  Every run of d = 4..10 is followed by the next field, so
    operations of each size are spread over the whole pass and a slow spell
    of the machine does not land on one size only."""
    import numpy as np

    def entry(rng, irrational):
        a = int(rng.integers(-ENTRY_RANGE, ENTRY_RANGE + 1))
        b = int(rng.integers(-ENTRY_RANGE, ENTRY_RANGE + 1)) if irrational else 0
        return a, b

    def mus(rng, n):
        return [[round(float(x), 6) for x in rng.uniform(-1.0, 1.0, n)] for _ in range(2)]

    out = []
    for k in range(PER_CELL):
        for fi, (fname, r, irrational) in enumerate(FIELDS):
            for d in DIMS:
                rng = np.random.default_rng([seed, d, fi, k])
                theta = [["0"] * d for _ in range(d)]
                for i in range(d):
                    for j in range(i + 1, d):
                        a, b = entry(rng, irrational)
                        theta[i][j], theta[j][i] = _scalar(a, b), _scalar(-a, -b)
                cfg = {"group": "torus", "dim": d, "field": r, "theta": theta, "muList": mus(rng, d)}
                out.append((f"torus d={d} {fname} #{k}", json.dumps(cfg)))
            rng = np.random.default_rng([seed, 3, 10 + fi, k])
            sigma = [_scalar(*entry(rng, irrational)) for _ in range(2)]
            cfg = {"group": "heisenberg", "field": r, "sigma": sigma, "muList": mus(rng, 3)}
            out.append((f"heisenberg {fname} #{k}", json.dumps(cfg)))
    return out


def expected_cover_text(sc) -> str:
    r = sc.gamma0.rank
    if sc.kind != "torus":
        return "S^1 x R^2" if r else "R^3"
    d = sc.gamma_dim
    if r == 0:
        return f"R^{d}"
    if r == d:
        return f"T^{d}"
    return f"T^{r} x R^{d - r}"


class Classify:
    """parse_config -> build_scenario -> build_analysis(checks=[]) -> to_json."""

    name = "classify"
    in_process = True

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.refs = load_ref("classify_exact.json")
        self.compared = 0

    def build(self, seed: int):
        return classify_configs(seed % CLASSIFY_REF_SEEDS)

    def make_ops(self, inputs, traced: bool = False):
        from momenta import report, scenario

        def op(text):
            def run():
                sc = scenario.build_scenario(scenario.parse_config(text))
                return sc, report.build_analysis(sc, checks=[]).to_json()

            return run

        return [(label, op(text)) for label, text in inputs]

    def input_text(self, inputs, i: int) -> str:
        return inputs[i][1]

    def known_crash(self, inputs, i: int, message: str) -> bool:
        ref = self.refs.get(digest(inputs[i][1]))
        if ref is not None and ref.startswith("error:"):
            self.compared += 1
        return ref == f"error: {message}"

    def gate(self, inputs, outputs) -> list[str | None]:
        errors = []
        for (_, text), result in zip(inputs, outputs):
            errors.append(None if result is None else self.check(text, *result))
        return errors

    def check(self, config_text: str, sc, report_text: str) -> str | None:
        from momenta.report import AnalysisReport

        for col in sc.gamma0.columns:
            if any(sc.holonomy_of(col)):
                return f"gamma0 column {list(col)} has nonzero holonomy"
        for gen in sc.holonomy_generators:
            if not sc.decomp.contains_exact(list(gen)):
                return "a holonomy generator is not in the closure decomposition"
        report = AnalysisReport.from_json(report_text)
        if report.to_json() != report_text:
            return "report does not round-trip through AnalysisReport.from_json"
        want = expected_cover_text(sc)
        if sc.cover_descriptor.text != want or report.exact["coverClassification"] != want:
            return f"cover text {report.exact['coverClassification']!r} does not match gamma0 rank (want {want!r})"
        if report.exact["gamma0Basis"] != [list(c) for c in sc.gamma0.columns]:
            return "report gamma0Basis differs from the scenario"
        ref = self.refs.get(digest(config_text))
        if ref is None:
            return "no reference recorded for this input"
        if not ref.startswith("error:"):  # where the parent failed there is nothing to compare
            self.compared += 1
            if digest(exact_text(report.data)) != ref:
                return "exact section differs from the reference"
        return None


# -- paths -------------------------------------------------------------------

PATH_MODELS = ("torus2", "torus3", "heis")
SEGMENTS = (2, 16, 128, 512)
TRANSPORT_SEGMENTS = (2, 16)  # horizontal transport is checked on this subsample


class PathCase:
    """One (model, segment count) cell: a scenario and seeded paths."""

    def __init__(self, name: str, sc, segments: int, rng):
        from momenta.groups import GroupPath
        from momenta.momentum import PhasePath

        self.label = f"{name} segments={segments}"
        self.sc = sc
        self.segments = segments
        n = sc.n

        def path():
            durs = rng.uniform(0.5, 1.5, segments)
            durs /= durs.sum()
            dirs = rng.uniform(-1.5, 1.5, (segments, n))
            return GroupPath(sc.cover, list(zip(dirs, durs)))

        base = path()
        momenta = rng.uniform(-1.0, 1.0, (segments + 1, n))
        momenta[0] = 0.0
        self.x = PhasePath(base, momenta)
        self.q = path()
        self.mu = rng.uniform(-1.5, 1.5, n)


class Paths:
    """One library call per operation on seeded phase paths."""

    name = "paths"
    in_process = True
    CALLS = ("momentum_of_path", "momentum_closed_form", "sigma_J", "K", "affine_action", "path_product")

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self._refs: dict = {}
        self.compared = 0  # the gate compares with independent values computed in the run

    def build(self, seed: int) -> list[PathCase]:
        import numpy as np
        from momenta import scenario

        cases = []
        for mi, name in enumerate(PATH_MODELS):
            sc = scenario.build_scenario(scenario.parse_config(CANONICAL_TEXTS[name]))
            for segments in SEGMENTS:
                rng = np.random.default_rng([seed, mi, segments])
                cases.append(PathCase(name, sc, segments, rng))
        self._refs = {}
        return cases

    def make_ops(self, inputs, traced: bool = False):
        from momenta import cylinder, groups, momentum

        ops = []
        for c in inputs:
            model, x, q, mu, cyl = c.sc.model, c.x, c.q, c.mu, c.sc.cylinder
            calls = {
                "momentum_of_path": lambda model=model, x=x: momentum.momentum_of_path(model, x),
                "momentum_closed_form": lambda model=model, x=x: momentum.momentum_closed_form(
                    model, x.base, x.momenta[-1]
                ),
                "sigma_J": lambda model=model, x=x: momentum.sigma_J(model, x.base),
                "K": lambda model=model, cyl=cyl, x=x: cylinder.K(model, cyl, x),
                "affine_action": lambda model=model, x=x, mu=mu: cylinder.affine_action(model, x.base, mu),
                "path_product": lambda x=x, q=q: groups.path_product(x.base, q),
            }
            ops.extend((f"{call} {c.label}", calls[call]) for call in self.CALLS)
        return ops

    def input_text(self, inputs, i: int) -> None:
        return None  # the label names the model, segment count and call

    def known_crash(self, inputs, i: int, message: str) -> bool:
        return False  # the parent completes every call

    def _reference(self, i: int, c: PathCase) -> dict:
        """Independent values for case i, computed once per run."""
        ref = self._refs.get(i)
        if ref is None:
            import numpy as np
            from momenta import cylinder, momentum

            sc, x = c.sc, c.x
            ref = {
                "theta": momentum.theta_integral(sc.cover, sc.theta, x.base),
                "orbit": cylinder.orbit_descriptor(sc, c.mu, rng=np.random.default_rng(0), samples=1),
                "product_end": sc.cover.multiply(x.base.endpoint(), c.q.endpoint()),
            }
            if c.segments in TRANSPORT_SEGMENTS:
                ref["transport"] = momentum.horizontal_transport(sc.model, x)
            self._refs[i] = ref
        return ref

    def gate(self, inputs, outputs) -> list[str | None]:
        import numpy as np

        k = len(self.CALLS)
        errors: list[str | None] = []
        for i, c in enumerate(inputs):
            got = dict(zip(self.CALLS, outputs[i * k : (i + 1) * k]))
            ref = self._reference(i, c)
            errs = {call: [] for call in self.CALLS}
            J, closed = got["momentum_of_path"], got["momentum_closed_form"]
            if J is not None and closed is not None:
                gap = float(np.linalg.norm(J - closed))
                if not gap <= 1e-9:
                    errs["momentum_of_path"].append(f"quadrature vs closed form {gap:.3e} > 1e-9")
            if J is not None and "transport" in ref:
                gap = float(np.linalg.norm(J - ref["transport"]))
                if not gap <= 1e-7:
                    errs["momentum_of_path"].append(f"quadrature vs horizontal transport {gap:.3e} > 1e-7")
            if got["sigma_J"] is not None:
                gap = float(np.linalg.norm(got["sigma_J"] - ref["theta"]))
                if not gap <= 1e-9:
                    errs["sigma_J"].append(f"sigma_J vs theta integral {gap:.3e} > 1e-9")
            if got["K"] is not None and J is not None:
                gap = c.sc.cylinder.distance(got["K"], c.sc.cylinder.project(J))
                if not gap <= 1e-12:
                    errs["K"].append(f"K differs from project(J) by {gap:.3e}")
            if got["affine_action"] is not None and not ref["orbit"].contains(got["affine_action"], 1e-8):
                errs["affine_action"].append("affine action left the orbit of mu")
            if got["path_product"] is not None:
                gap = float(np.linalg.norm(got["path_product"].endpoint() - ref["product_end"]))
                if not gap <= 1e-10:
                    errs["path_product"].append(f"path_product endpoint off by {gap:.3e} > 1e-10")
            errors.extend("; ".join(errs[call]) or None for call in self.CALLS)
        return errors


WORKLOAD_TYPES = {w.name: w for w in (Canonical, Classify, Paths)}
