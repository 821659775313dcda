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


def shipped_nodes():
    """(where, label, node, kind) for every node of a built-in model that
    the kernel compiles, with kind as emit_source takes it."""
    from trustb.models import VARIANTS, build_model

    for variant in VARIANTS:
        model, _tm = build_model(0, variant)
        for tm in model.machines.values():
            where = f"{variant} {tm.name}"
            for lbl, inv, _origin in tm.invariant_scope:
                yield where, lbl, inv.pred, "pred"
            for lab in tm.context.axioms:
                yield where, lab.label, lab.pred, "pred"
            for name, info in tm.variables.items():
                yield where, name, info.domain_expr, "domain"
            for event, info in tm.events.items():
                for g in info.ast.guards:
                    yield f"{where} {event}", g.label, g.pred, "pred"
                for act in info.ast.actions:
                    yield f"{where} {event}", act.label, act.expr, "expr"
                for param, d in info.param_domains.items():
                    yield f"{where} {event}", param, d, "domain"


def test_every_generated_function_parses_at_the_floor():
    """The kernel compiles each predicate, expression and domain from
    Python source it emits; for every built-in model that source keeps to
    the floor too, and so does the source of the widest quantifiers, which
    go on in a function of their own past the kernel's loop cap."""
    from trustb.dsl import parse_predicate
    from trustb.kernel import emit_source

    import test_kernel

    refused = []
    nodes = list(shipped_nodes())
    nodes += [("wide", text, parse_predicate(text), "pred") for text in test_kernel.WIDE]
    for where, lbl, node, kind in nodes:
        try:
            ast.parse(emit_source(node, kind), feature_version=FLOOR)
        except SyntaxError as err:
            refused.append(f"{where} {lbl}: {err.msg} in {node!r}")
    assert len(nodes) > 100
    assert not refused, "\n".join(refused)
