"""Each demo script runs to completion from the repository root, as the README
shows it, in a process of its own."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> None:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.dataset
@pytest.mark.parametrize(
    "name",
    ["balance_theory_basics.py", "spectral_embedding_tour.py", "train_two_track_model.py"],
)
def test_demo_runs(name):
    run_demo(name)


@pytest.mark.acceptance
@pytest.mark.dataset
def test_link_sign_benchmark_demo_runs():
    run_demo("link_sign_benchmark.py")
