"""Every module of the package uses each name it imports, so a deletion
cannot leave a stale import behind.  ``__init__.py`` imports to re-export
and is not checked.  Importing the command line loads no class
generator."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "homoperad"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "from .terms import TermError, grading\n\nprint(grading)\n"
    assert unused_imports(source) == ["line 1: TermError"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_command_line_imports_no_class_generator():
    """``dataclasses`` pulls in ``inspect`` and a dozen modules more at
    every start-up; the records are named tuples and need neither.  Only
    what the import adds counts, so a site hook that loads either first
    does not trip the test."""
    probe = (
        "import sys; before = set(sys.modules); import homoperad.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    added = set(proc.stdout.split())
    assert "homoperad.cli" in added
    assert not {"dataclasses", "inspect"} & added
