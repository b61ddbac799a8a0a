"""The package as its users import it: one module per name, no hub."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import ontoweave

PACKAGE = pathlib.Path(ontoweave.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
README = PACKAGE.parents[1] / "README.md"


def fresh_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    # a circular import would show here, in a fresh interpreter
    fresh_python(f"import ontoweave.{module}")


def test_syntax_loads_no_other_module():
    out = fresh_python(
        "import sys, ontoweave.syntax\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'ontoweave')))"
    )
    assert out.split() == ["ontoweave", "ontoweave.errors", "ontoweave.syntax"]


def test_readme_quick_tour_runs_as_written():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    shown = {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            shown[stmt.value.func.id] = repr(eval(code, scope))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
    assert shown == {"derives": "Derived(depth=3)", "fibred_derives": "Derived(depth=2)"}
    # the comments in the block say so too
    assert all(f"# {answer}" in block for answer in shown.values())
