"""A constructor trusts its caller: outside input is checked once, where it
is read (``parse_tokens``, ``parse_lincomb``, ``parse_scalar``,
``make_rule``, ``_parse_table``), so no ``__init__`` or ``__post_init__``
in the package raises, apart from the two that guard what no reader
checks for them: ``Signature`` (a symbol name from an `op` line or
``--names``) and ``RatFunc`` (a zero denominator)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "homoperad"
MODULES = sorted(PACKAGE.glob("*.py"))
CHECKING = {"Signature.__post_init__", "RatFunc.__init__"}


def raising_constructors(source: str) -> list[str]:
    """``Class.method`` of each ``__init__`` or ``__post_init__`` that
    contains a ``raise``."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if (
                isinstance(fn, ast.FunctionDef)
                and fn.name in ("__init__", "__post_init__")
                and any(isinstance(node, ast.Raise) for node in ast.walk(fn))
            ):
                out.append(f"{cls.name}.{fn.name}")
    return out


def test_the_check_finds_a_raising_constructor():
    source = (
        "class A:\n"
        "    def __init__(self, n):\n"
        "        if n < 1:\n"
        "            raise ValueError(n)\n"
        "class B:\n"
        "    def __post_init__(self):\n"
        "        pass\n"
        "    def other(self):\n"
        "        raise ValueError\n"
    )
    assert raising_constructors(source) == ["A.__init__"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_other_constructor_raises(path):
    assert set(raising_constructors(path.read_text())) <= CHECKING
