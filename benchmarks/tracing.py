"""Spans and counters around the calls into each momenta layer.

The traced run wraps public functions of the program and patches every name
through which the program looks them up (module globals that hold the same
object, or the class attribute for methods).  Each wrapped call records a span
``[name, start, end, thread, parent, op]``; spans stay in memory until the run
ends.  Counters record work that is too frequent to span (points evaluated,
segments built).

Self time is a span's duration minus the part of it that its child spans
cover.  The check suite runs on worker threads, so a span that starts with an
empty stack on a worker thread takes the span open on the main thread as its
parent (that span caused it), and wall time during which several threads have
a self interval open is shared equally among them.  The sum of all self times
is therefore the length of the union of the spans, never more than the wall
time of the traced region.

Only the standard library is imported here, so that the traced CLI child can
import this module before it times ``import momenta.cli``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name, kind); kind selects the wrapper.
TARGETS = [
    ("momenta.scenario", "parse_config", "scenario.parse_config", "span"),
    ("momenta.scenario", "build_scenario", "scenario.build_scenario", "span"),
    ("momenta.symplectic", "MagneticCotangent.__init__", "symplectic.MagneticCotangent", "span"),
    ("momenta.lattices", "is_closed", "lattices.is_closed", "span"),
    ("momenta.lattices", "kernel_lattice", "lattices.kernel_lattice", "span"),
    ("momenta.lattices", "hermite_normal_form", "lattices.hermite_normal_form", "span"),
    ("momenta.lattices", "smith_normal_form", "lattices.smith_normal_form", "span"),
    ("momenta.lattices", "quotient_invariants", "lattices.quotient_invariants", "span"),
    ("momenta.exact", "solve_linear", "exact.solve_linear", "span"),
    ("momenta.exact", "rank", "exact.rank", "count"),
    ("momenta.exact", "nullspace", "exact.nullspace", "count"),
    ("momenta.numerics", "adaptive_path_quadrature", "numerics.adaptive_path_quadrature", "quadrature"),
    ("momenta.groups", "path_product", "groups.path_product", "span"),
    ("momenta.groups", "GroupPath.from_samples", "groups.GroupPath.from_samples", "from_samples"),
    ("momenta.groups", "GroupPath.evaluate_many", "groups.GroupPath.evaluate_many", "points"),
    ("momenta.momentum", "momentum_of_path", "momentum.momentum_of_path", "span"),
    ("momenta.momentum", "momentum_closed_form", "momentum.momentum_closed_form", "span"),
    ("momenta.momentum", "sigma_J", "momentum.sigma_J", "span"),
    ("momenta.momentum", "theta_integral", "momentum.theta_integral", "span"),
    ("momenta.momentum", "horizontal_transport", "momentum.horizontal_transport", "span"),
    ("momenta.momentum", "verify_momentum_condition", "momentum.verify_momentum_condition", "span"),
    ("momenta.cylinder", "K", "cylinder.K", "span"),
    ("momenta.cylinder", "affine_action", "cylinder.affine_action", "span"),
    ("momenta.cylinder", "gamma_mu", "cylinder.gamma_mu", "span"),
    ("momenta.cylinder", "deck_group_of_reduced_cover", "cylinder.deck_group_of_reduced_cover", "span"),
    ("momenta.cylinder", "orbit_descriptor", "cylinder.orbit_descriptor", "span"),
    ("momenta.cylinder", "noether_check", "cylinder.noether_check", "span"),
    ("momenta.verification", "run_checks", "verification.run_checks", "span"),
    ("momenta.verification", "registry", "verification.check", "registry"),
    ("momenta.report", "build_analysis", "report.build_analysis", "span"),
    ("momenta.report", "AnalysisReport.to_json", "report.to_json", "span"),
]


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def count(self, name: str, n: float) -> None:
        with self._lock:
            self.counts[name] += n

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished root span measured outside any wrapper."""
        self.spans.append([name, start, end, threading.get_ident(), None, self.op])

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is self._main_stack:
            parent = None
        else:
            tail = self._main_stack[-1:]  # one atomic read; the main thread may pop
            parent = tail[0] if tail else None
        span = [name, 0.0, 0.0, threading.get_ident(), parent, self.op]
        stack.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()
            self.spans.append(span)


def _span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name + ".calls", 1)
        return fn(*args, **kwargs)

    return wrapper


def _points_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(self, ts, *args, **kwargs):
        tracer.count(name + ".points", len(ts) if hasattr(ts, "__len__") else 1)
        return fn(self, ts, *args, **kwargs)

    return wrapper


def _from_samples_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(cls, model, ts, gs, *args, **kwargs):
        tracer.count(name + ".segments", len(ts) - 1)
        return tracer.call(name, fn, (cls, model, ts, gs) + args, kwargs)

    return wrapper


def _quadrature_wrapper(tracer: Tracer, name: str, fn):
    """Counts integrand points, and the points of the level that was accepted
    (the last evaluation of a call that returned)."""

    @functools.wraps(fn)
    def wrapper(f_many, breakpoints, *args, **kwargs):
        sizes = []

        def counted(ts):
            sizes.append(len(ts))
            return f_many(ts)

        try:
            out = tracer.call(name, fn, (counted, breakpoints) + args, kwargs)
        finally:
            tracer.count("numerics.quadrature.evals", sum(sizes))
        tracer.count("numerics.quadrature.accepted", sizes[-1] if sizes else 0)
        return out

    return wrapper


def _registry_wrapper(tracer: Tracer, name: str, fn):
    """Gives every check runner of the registry its own span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        specs = fn(*args, **kwargs)
        return [
            dataclasses.replace(
                s, runner=_span_wrapper(tracer, f"{name}.{s.name}", s.runner)
            )
            for s in specs
        ]

    return wrapper


_WRAPPERS = {
    "span": _span_wrapper,
    "count": _count_wrapper,
    "points": _points_wrapper,
    "from_samples": _from_samples_wrapper,
    "quadrature": _quadrature_wrapper,
    "registry": _registry_wrapper,
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every target for the duration of the block, then restore."""
    undo = []
    try:
        for module_name, path, name, kind in TARGETS:
            module = sys.modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            make = _WRAPPERS[kind]
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(make(tracer, name, raw.__func__))
                else:
                    new = make(tracer, name, raw)
                undo.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(module, attr)
            new = make(tracer, name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("momenta"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, value))
                        setattr(mod, key, new)
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def self_times(spans) -> dict[str, float]:
    """Self time per span name; concurrent self intervals share wall time."""
    covered = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            covered[id(span[4])].append((span[1], span[2]))
    pieces = []
    for span in spans:
        name, start, end = span[0], span[1], span[2]
        t = start
        for c0, c1 in sorted(covered.get(id(span), ())):
            if c0 > t:
                pieces.append((t, min(c0, end), name))
            t = max(t, c1)
            if t >= end:
                break
        if t < end:
            pieces.append((t, end, name))

    events = []
    for i, (a, b, _) in enumerate(pieces):
        if b > a:
            events.append((a, 1, i))
            events.append((b, -1, i))
    events.sort()
    out: dict[str, float] = defaultdict(float)
    active: set[int] = set()
    last = 0.0
    for t, kind, i in events:
        if active:
            share = (t - last) / len(active)
            for j in active:
                out[pieces[j][2]] += share
        last = t
        if kind > 0:
            active.add(i)
        else:
            active.discard(i)
    return dict(out)


def summarize(tracer: Tracer) -> dict:
    """Per-name totals: ``<name>.s`` (self time), ``<name>.calls`` and the
    counters, plus ``groups.path_product.retries`` and ``trace.self_sum_s``."""
    out: dict[str, float] = defaultdict(float)
    selfs = self_times(tracer.spans)
    for name, value in selfs.items():
        out[name + ".s"] += value
    samples_under = defaultdict(int)
    for span in tracer.spans:
        out[span[0] + ".calls"] += 1
        parent = span[4]
        if span[0] == "groups.GroupPath.from_samples" and parent is not None:
            if parent[0] == "groups.path_product":
                samples_under[id(parent)] += 1
    out["groups.path_product.retries"] += sum(max(0, n - 1) for n in samples_under.values())
    for name, value in tracer.counts.items():
        out[name] += value
    out["trace.self_sum_s"] = sum(selfs.values())
    return dict(out)
