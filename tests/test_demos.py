"""Every demo script runs to completion against the source tree, and the
README quick start gives the results its comments state."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # a demo cleans up its temporary files
    assert list(tmp_path.iterdir()) == []


def _quick_start() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


# a result comment opens with the literal the expression on its line gives
STATED = re.compile(r"#\s*(True|False|'[^']*')")


def test_readme_quick_start_gives_the_results_its_comments_state():
    source = _quick_start()
    lines = source.splitlines()
    scope: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        code = compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec")
        if not isinstance(stmt, ast.Expr):
            exec(code, scope)
            continue
        stated = STATED.search(lines[stmt.end_lineno - 1])
        assert stated, lines[stmt.end_lineno - 1]
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
        assert got == ast.literal_eval(stated.group(1)), lines[stmt.end_lineno - 1]
        checked.append(got)
    assert checked == [True, "holds", "holds", "holds", "unknown", "holds"]
