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


def test_every_generated_function_parses_at_the_floor():
    """The kernel compiles each predicate, expression and domain from
    Python source it emits; for every built-in model that source keeps to
    the floor too."""
    from trustb.kernel import emit_source
    from trustb.models import VARIANTS, build_model

    refused, emitted = [], 0
    for variant in VARIANTS:
        model, _tm = build_model(0, variant)
        for tm in model.machines.values():
            nodes = [(inv.pred, "pred") for _lbl, inv, _origin in tm.invariant_scope]
            nodes += [(lab.pred, "pred") for lab in tm.context.axioms]
            nodes += [(info.domain_expr, "domain") for info in tm.variables.values()]
            for info in tm.events.values():
                nodes += [(g.pred, "pred") for g in info.ast.guards]
                nodes += [(act.expr, "expr") for act in info.ast.actions]
                nodes += [(d, "domain") for d in info.param_domains.values()]
            for node, kind in nodes:
                emitted += 1
                try:
                    ast.parse(emit_source(node, kind), feature_version=FLOOR)
                except SyntaxError as err:
                    refused.append(f"{variant} {tm.name}: {err.msg} in {node!r}")
    assert emitted > 100
    assert not refused, "\n".join(refused)
