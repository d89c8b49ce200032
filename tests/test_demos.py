"""Smoke test: every demo script runs to exit 0 against the package in src/.

The demos call the public API the way a reader would, so a removed or
renamed name breaks them; this keeps such a change from passing unnoticed.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("name", [
    "01_resistance_basics.py",
    "02_approximation_bounds.py",
    "03_limit_regimes.py",
    "04_clustering_example_graphs.py",
    "06_ssl_two_pole.py",
])
def test_demo_runs(name):
    _run_demo(name)


@pytest.mark.acceptance
def test_iris_pipeline_demo_runs():
    _run_demo("05_iris_pipeline.py")
