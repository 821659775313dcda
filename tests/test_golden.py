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

The base chain's levels also run at bounds 1,3,1, plain and with the goal,
so that the symmetry group permutes three trustees.  And the bench's
check-l2 operation must print bench/golden/check_l2.records, which only
bench/record_golden.py writes.

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
CHECK_L2 = pathlib.Path(__file__).parents[1] / "bench" / "golden" / "check_l2.records"
BOUNDS = "1,2,2"
THREE_TRUSTEES = "1,3,1"
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
                yield variant, level, mode, BOUNDS
            if (variant, level) in MUTATIONS:
                yield variant, level, "mutate", BOUNDS
    for level in (0, 1, 2):
        for mode in ("plain", "goal"):
            yield "base", level, mode, THREE_TRUSTEES


def _argv(variant: str, level: int, mode: str, bounds: str) -> list[str]:
    argv = [
        "check", "--variant", variant, "--level", str(level), "--bounds", bounds,
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


def _run(variant: str, level: int, mode: str, bounds: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = run_command(_argv(variant, level, mode, bounds), stdout=out, stderr=err)
    assert err.getvalue() == ""
    return out.getvalue() + f"exit {code}\n"


def _name(variant: str, level: int, mode: str, bounds: str) -> str:
    """The cell's name: variant, level and mode, and the bounds unless 1,2,2."""
    name = f"{variant}_l{level}_{mode}"
    return name if bounds == BOUNDS else f"{name}_{bounds.replace(',', '')}"


def _path(*cell) -> pathlib.Path:
    return GOLDEN_DIR / f"{_name(*cell)}.records"


@pytest.mark.parametrize(
    "variant,level,mode,bounds",
    [
        pytest.param(v, lv, m, b, id=f"{v}-{lv}-{m}" + ("" if b == BOUNDS else f"-{b}"))
        for v, lv, m, b in _cells()
    ],
)
def test_check_records_match_golden(variant, level, mode, bounds):
    expected = _path(variant, level, mode, bounds).read_text(encoding="utf-8")
    assert _run(variant, level, mode, bounds) == expected


def test_check_l2_workload_matches_its_golden():
    # The bench's check-l2 operation: level 2 at 2,2,2, where the symmetry
    # group has order 8.  Its golden lives with the bench and is only read.
    argv = ["check", "--level", "2", "--bounds", "2,2,2", "--refinement", "--vacuity",
            "--goal-invariant", "inv4", "--format", "records"]
    out, err = io.StringIO(), io.StringIO()
    assert run_command(argv, stdout=out, stderr=err) == 0
    assert err.getvalue() == ""
    assert out.getvalue() == CHECK_L2.read_text(encoding="utf-8")


def _record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for cell in _cells():
        _path(*cell).write_text(_run(*cell), encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
