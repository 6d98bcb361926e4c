"""Every demo script runs to the end in a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import momenta

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "demo", ["cylinder_noether", "dense_holonomy", "heisenberg_momentum", "reduced_cover", "torus_holonomy"]
)
def test_demo_exits_zero(demo, tmp_path):
    # the child runs in tmp_path, so put the absolute source root of the
    # imported package first on its path; any warning in it is an error, as
    # in this process
    src = os.path.dirname(os.path.dirname(os.path.abspath(momenta.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath, PYTHONWARNINGS="error"),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
