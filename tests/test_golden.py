"""Golden `check --format records` output for every variant x level.

Each cell runs at bounds 1,2,2 with --refinement --vacuity three ways:
plain, with --goal-invariant on the last label of the machine's
invariant scope, and the same over reachable states only.  The base and
rel chains also run a fourth way, with the guard that keeps their trust
event honest dropped (--mutate drop:grd7 at level 1, drop:grd8 at level
2), so that the event really changes the state.  The
records (verdicts, exact case counts, first counterexamples, the goal
and vacuity lines) and the exit status must match the files under
tests/golden/ byte for byte.

Re-record after an intended output change with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import io
import pathlib
import sys

import pytest

from trustb.cli import run_command
from trustb.errors import ScenarioError
from trustb.models import VARIANTS, build_model, machine_name

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
BOUNDS = "1,2,2"
MODES = ("plain", "goal", "reachable_goal")
MUTATIONS = {("base", 1): "drop:grd7", ("base", 2): "drop:grd8",
             ("rel", 1): "drop:grd7", ("rel", 2): "drop:grd8"}


def _cells():
    for variant in VARIANTS:
        for level in (0, 1, 2):
            try:
                machine_name(level, variant)
            except ScenarioError:
                continue
            for mode in MODES:
                yield variant, level, mode
            if (variant, level) in MUTATIONS:
                yield variant, level, "mutate"


def _argv(variant: str, level: int, mode: str) -> list[str]:
    argv = [
        "check", "--variant", variant, "--level", str(level), "--bounds", BOUNDS,
        "--refinement", "--vacuity", "--format", "records",
    ]
    if mode == "mutate":
        argv += ["--mutate", MUTATIONS[variant, level]]
    elif mode != "plain":
        _model, tm = build_model(level, variant)
        argv += ["--goal-invariant", tm.invariant_scope[-1][0]]
    if mode == "reachable_goal":
        argv += ["--state-source", "reachable_only"]
    return argv


def _run(variant: str, level: int, mode: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = run_command(_argv(variant, level, mode), stdout=out, stderr=err)
    assert err.getvalue() == ""
    return out.getvalue() + f"exit {code}\n"


def _path(variant: str, level: int, mode: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{variant}_l{level}_{mode}.records"


@pytest.mark.parametrize("variant,level,mode", list(_cells()))
def test_check_records_match_golden(variant, level, mode):
    expected = _path(variant, level, mode).read_text(encoding="utf-8")
    assert _run(variant, level, mode) == expected


def _record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for variant, level, mode in _cells():
        _path(variant, level, mode).write_text(_run(variant, level, mode), encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
