"""The traced benchmark run wraps program functions by name; a rename in the
package must fail here, not silently drop a metric from the traced run."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("momenta_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", load_targets(), ids=lambda t: t[2])
def test_target_resolves(target):
    module_name, path, _, _ = target
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        # methods are patched on the class that defines them
        assert attr in vars(getattr(module, owner_name))
    else:
        assert callable(getattr(module, attr))


def test_quadrature_kernel_keeps_a_one_argument_integrand():
    # the traced run counts evaluations by wrapping f_many(ts)
    from momenta.numerics import adaptive_path_quadrature

    assert list(inspect.signature(adaptive_path_quadrature).parameters) == ["f_many", "breakpoints"]
    calls = []

    def f_many(ts):
        calls.append(len(ts))
        return np.ones((len(ts), 1))

    assert adaptive_path_quadrature(f_many, [0.0, 0.5, 1.0]).sum() == pytest.approx(1.0)
    assert calls == [2]
