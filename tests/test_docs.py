"""The examples in the module docstrings and the narrative demos run as
written."""

import doctest
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize(
    "module, examples", [("freesmc", 13), ("sexpr", 5), ("perms", 12)]
)
def test_module_doctests_pass(module, examples):
    result = doctest.testmod(importlib.import_module(f"shufflecat.{module}"))
    assert result.failed == 0
    assert result.attempted >= examples


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
