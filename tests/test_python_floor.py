"""The sources keep to the Python floor that pyproject.toml declares."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PYPROJECT = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
FLOOR = tuple(int(n) for n in re.search(r'requires-python = ">=(\d+)\.(\d+)"', PYPROJECT).groups())
SOURCES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


def test_the_floor_check_rejects_newer_grammar():
    assert FLOOR == (3, 10)
    with pytest.raises(SyntaxError):  # `except*` is Python 3.11 grammar
        ast.parse("try:\n    pass\nexcept* OSError:\n    pass\n", feature_version=FLOOR)


def test_every_source_parses_at_the_floor():
    """Grammar only: ast.parse with feature_version refuses syntax newer than
    the floor, but it does not check that the standard-library names a file
    uses (tomllib, typing.Self, ...) exist there."""
    assert SOURCES
    refused = []
    for path in SOURCES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)
        except SyntaxError as err:
            refused.append(f"{path.relative_to(ROOT)}:{err.lineno}: {err.msg}")
    assert not refused, "\n".join(refused)
