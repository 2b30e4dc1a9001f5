"""The examples in the module docstrings and the narrative demos run as
written, and the documented grammar names the heads of the syntax table."""

import doctest
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from shufflecat import sexpr

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize(
    "module, examples", [("freesmc", 13), ("sexpr", 5), ("perms", 12), ("fincat", 5)]
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


def _grammar_heads(text):
    """kind -> heads of the alternatives of the grammar in text, where a
    production starts with 'cat :=', 'fun :=' or 'cell :=' and continues
    on lines that start with '|'."""
    heads, kind = {}, None
    for line in text.splitlines():
        start = re.match(r"\s*(cat|fun|cell)\s*:=", line)
        if start:
            kind = start.group(1)
        elif not line.strip().startswith("|"):
            kind = None
        if kind:
            heads.setdefault(kind, set()).update(re.findall(r"(?:^|:=|\|)\s*\(([^\s()]+)", line))
    return heads


@pytest.mark.parametrize("where", ["README.md", "sexpr docstring"])
def test_documented_grammar_lists_the_syntax_table(where):
    text = (ROOT / where).read_text() if where == "README.md" else sexpr.__doc__
    table = {}
    for head, (kind, _, _) in sexpr._SYNTAX.items():
        table.setdefault(kind, set()).add(head)
    assert _grammar_heads(text) == table
