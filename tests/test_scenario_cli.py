import io

import pytest

from trustb.cli import run_command
from trustb.errors import BoundExceeded, ScenarioError
from trustb.models import BoundSpec, builtin_source, import_state, machine_setup
from trustb.runtime import state_universe
from trustb.scenario import parse_scenario, run_scenario, run_scenario_text


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


GRANT = """\
level 2
trustors i
trustees adv1
tasks deliver5kg

allocate {adv1} deliver5kg
learn i adv1
commit i {adv1} deliver5kg TRUE
trust i {adv1} deliver5kg
"""


# --- scenario parsing ------------------------------------------------------


def test_parse_scenario_shape():
    scn = parse_scenario(GRANT)
    assert scn.level == 2
    assert scn.trustors == ("i",)
    assert scn.trustees == ("adv1",)
    assert scn.tasks == ("deliver5kg",)
    assert [c.kind for c in scn.commands] == ["allocate", "learn", "commit", "trust"]
    assert scn.commands[0].args == (("adv1",), "deliver5kg")


def test_parse_scenario_error_lines():
    with pytest.raises(ScenarioError, match="line 5: unknown command 'badverb'"):
        parse_scenario("level 2\ntrustors i\ntrustees a\ntasks t\nbadverb x y\n")
    with pytest.raises(ScenarioError, match="line 5: 'allocate' takes 2"):
        parse_scenario("level 2\ntrustors i\ntrustees a\ntasks t\nallocate {a}\n")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("trustors i\ntrustees a\ntasks t\n", "level"),
        ("level 2\nlevel 2\ntrustors i\ntrustees a\ntasks t\n", "duplicate"),
        ("level 2\ntrustors i\ntrustees a\ntasks t\nallocate {a} t\nlevel 2\n", "precede"),
        ("level x\ntrustors i\ntrustees a\ntasks t\n", "level"),
        ("level 2\ntrustors i\ntrustees a\ntasks t\nallocate {} t\n", "empty"),
        ("level 2\ntrustors i\ntrustees a\ntasks t\nallocate a t\n", "group"),
        ("level 2\ntrustors i\ntrustees a\ntasks t\ncommit i {a} t yes\n", "TRUE"),
    ],
)
def test_parse_scenario_rejects(text, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(text)


def test_comments_and_blank_lines_ignored():
    scn = parse_scenario("# intro\nlevel 0\n\ntrustors i # inline\ntrustees a\ntasks t\n")
    assert scn.level == 0 and scn.trustors == ("i",)


# --- scenario runs ------------------------------------------------------


def test_run_scenario_grant():
    result = run_scenario_text(GRANT)
    assert result.ok
    assert "trust(i, {adv1}, deliver5kg) granted" in result.lines
    assert "  grd8 ok" in result.lines
    assert result.state.trusts("i", ["adv1"], "deliver5kg")


def test_run_scenario_denied_trust():
    result = run_scenario_text(
        "level 2\ntrustors i\ntrustees a\ntasks t\ntrust i {a} t\n"
    )
    assert not result.ok
    head = next(ln for ln in result.lines if ln.startswith("trust("))
    assert "denied" in head and "failing:" in head
    assert not result.state.trusts("i", ["a"], "t")


def test_run_scenario_invariant_warnings():
    result = run_scenario_text(
        "level 2\ntrustors i\ntrustees a\ntasks t\ncommit i {a} t TRUE\n"
    )
    assert "warning: invariant inv1 does not hold" in result.lines


def test_assert_invariant_command():
    ok = run_scenario_text(
        "level 0\ntrustors i\ntrustees a\ntasks t\nassert-invariant inv1\n"
    )
    assert ok.ok
    failed = run_scenario_text(
        "level 2\ntrustors i\ntrustees a\ntasks t\n"
        "commit i {a} t TRUE\nassert-invariant inv1\n"
    )
    assert not failed.ok
    with pytest.raises(ScenarioError, match="inv99"):
        run_scenario_text(
            "level 0\ntrustors i\ntrustees a\ntasks t\nassert-invariant inv99\n"
        )


def test_query_does_not_change_state_or_outcome():
    result = run_scenario_text(
        "level 0\ntrustors i\ntrustees a\ntasks t\nquery i {a} t\n"
    )
    assert result.ok  # informational even when denied
    assert result.state.embed() == result.state.embed()
    assert not result.state.trusts("i", ["a"], "t")


def test_result_text_joins_lines():
    result = run_scenario(parse_scenario(GRANT))
    assert result.text == "\n".join(result.lines) + "\n"


# --- check command ------------------------------------------------------


def test_check_exit_codes_match_verdicts():
    code, out, _ = run(["check", "--level", "2", "--bounds", "2,2,1"])
    assert code == 1  # INITIALISATION/inv4 fails honestly
    assert "INITIALISATION/inv4/INV" in out
    code, out, _ = run(
        ["check", "--level", "2", "--bounds", "2,2,1", "--goal-invariant", "inv4"]
    )
    assert code == 0
    assert "goal invariant inv4" in out


def test_check_records_format_is_machine_stable():
    code1, out1, _ = run(["check", "--level", "0", "--bounds", "1,1,1", "--format", "records"])
    code2, out2, _ = run(["check", "--level", "0", "--bounds", "1,1,1", "--format", "records"])
    assert (code1, out1) == (code2, out2)
    assert code1 == 1
    lines = out1.splitlines()
    assert lines[0] == "run machine=M0_abs bounds=1,1,1 source=all_invariant_states"
    assert "po name=trust/inv2/INV machine=M0_abs event=trust kind=INV verdict=failed cases=5" in lines
    assert "ce po=trust/inv2/INV part=binding var=i value=u1" in lines
    assert lines[-1] == "summary pos=8 discharged=7 failed=1 vacuous=0"
    assert not any("elapsed" in ln for ln in lines)


def test_check_table_counterexample_block():
    code, out, _ = run(["check", "--level", "0", "--bounds", "1,1,1"])
    assert code == 1
    assert "summary: 8 obligations, 7 discharged, 1 failed, 0 vacuous" in out
    assert "with  i = u1" in out
    assert "post  trustor_trustee_task" in out


def test_check_vacuity_listing():
    code, out, _ = run(["check", "--level", "0", "--bounds", "1,1,1", "--vacuity"])
    assert "guard grd5 of trust: vacuous over 16 cases" in out
    assert "guard grd4 of trust: falsifiable over 16 cases" in out


def test_check_mutation_is_caught():
    code, out, _ = run(
        ["check", "--level", "2", "--bounds", "1,2,1", "--mutate", "drop:grd8",
         "--format", "records"]
    )
    assert code == 1
    assert "po name=trust/inv4/INV machine=M2_int event=trust kind=INV verdict=failed" in out


def test_check_refinement_flag():
    code, out, _ = run(
        ["check", "--level", "1", "--bounds", "2,2,1", "--refinement", "--format", "records"]
    )
    # full obligation set; exit 1 comes from the honest INITIALISATION/inv4
    # failure, while every guard-strengthening and simulation case holds
    assert code == 1
    po_lines = [ln for ln in out.splitlines() if ln.startswith("po ")]
    grd = [ln for ln in po_lines if "kind=GRD" in ln]
    sim = [ln for ln in po_lines if "kind=SIM" in ln]
    assert len(grd) == 6 and len(sim) == 1
    assert all("verdict=discharged" in ln for ln in grd + sim)


def test_readme_state_sources_parse():
    import pathlib
    import re

    from trustb.cli import build_parser

    readme = pathlib.Path(__file__).parent.parent / "README.md"
    named = re.findall(r"--state-source (\w+)", readme.read_text(encoding="utf-8"))
    assert named
    for value in named:
        args = build_parser().parse_args(["check", "--state-source", value])
        assert args.state_source == value


def test_check_bounds_env_default(monkeypatch):
    monkeypatch.setenv("TRUSTB_BOUNDS", "1,1,1")
    code, out, _ = run(["check", "--level", "0", "--format", "records"])
    assert "bounds=1,1,1" in out


# --- usage and failure exits ------------------------------------------------------


def test_usage_errors_exit_2():
    for argv in (
        ["check", "--level", "7"],
        ["query", "--level", "0", "i", "t"],  # needs trustor, trustee(s), task
        ["frobnicate"],
        ["check", "--format", "yaml"],
    ):
        code, _, err = run(argv)
        assert code == 2, argv
        assert err


def test_model_errors_exit_3(tmp_path):
    code, _, err = run(["check", str(tmp_path / "absent.ebt")])
    assert code == 3 and "absent.ebt" in err
    code, _, err = run(["check", "--level", "0", "--bounds", "1,1"])
    assert code == 3 and "bounds" in err
    code, _, err = run(["check", "--level", "0", "--bounds", "1,1,1",
                        "--goal-invariant", "inv77"])
    assert code == 3
    bad = tmp_path / "broken.ebt"
    bad.write_text("MACHINE ???\n")
    code, _, err = run(["check", str(bad)])
    assert code == 3 and "broken.ebt" in err


def test_oversized_domain_names_its_variable_and_bound():
    # agent_task : pow(trustees) +-> TASKS with 3 trustees and 2 tasks has
    # 3**8 members, more than 2**12; listing them is refused before any state.
    code, out, err = run(["check", "--level", "0", "--bounds", "2,3,2"])
    assert code == 3 and out == ""
    assert "'agent_task'" in err and "6561 members" in err and "2**12" in err
    tm, _inst, env = machine_setup(0, BoundSpec(2, 3, 2))
    with pytest.raises(BoundExceeded) as exc:
        next(state_universe(tm, env))
    assert exc.value.variable == "agent_task"


TOY_MODEL = (
    "CONTEXT toyctx\n"
    "SETS COLORS\n"
    "CONSTANTS bright\n"
    "AXIOMS\n"
    "  @axm1: bright <: COLORS\n"
    "END\n"
    "\n"
    "MACHINE toy SEES toyctx\n"
    "VARIABLES picked\n"
    "INVARIANTS\n"
    "  @inv1: picked : pow(bright)\n"
    "EVENT INITIALISATION\n"
    "THEN\n"
    "  @act1: picked := {}\n"
    "END\n"
    "EVENT pick ANY c WHERE\n"
    "  @grd1: c : bright\n"
    "THEN\n"
    "  @act1: picked := picked \\/ {c}\n"
    "END\n"
    "END\n"
)


def test_file_mode_rejects_builtin_only_flags(tmp_path):
    model = tmp_path / "toy.ebt"
    model.write_text(TOY_MODEL)
    code, _, err = run(["check", "--level", "0", str(model)])
    assert code == 2 and "--level" in err
    code, _, err = run(["check", "--mutate", "drop:grd1", str(model)])
    assert code == 2 and "--mutate" in err
    code, out, err = run(["check", "--vacuity", str(model)])
    assert code == 2 and "--vacuity" in err and out == ""
    code, out, err = run(["check", "--goal-invariant", "inv1", str(model)])
    assert code == 2 and "--goal-invariant" in err and out == ""


def test_file_mode_rejects_unknown_carrier(tmp_path):
    model = tmp_path / "toy.ebt"
    model.write_text(TOY_MODEL)
    code, out, err = run(["check", "--carrier", "SHAPES=1", str(model)])
    assert code == 2 and out == ""
    assert "SHAPES" in err and "COLORS" in err


def test_file_mode_checks_all_instantiations(tmp_path):
    model = tmp_path / "toy.ebt"
    model.write_text(TOY_MODEL)
    code, out, _ = run(["check", "--carrier", "COLORS=2", "--format", "records", str(model)])
    assert code == 0
    assert "machine=toy" in out
    assert "verdict=discharged" in out


# --- simulate and query commands ------------------------------------------------------


def test_simulate_builtin_demo_matches_direct_run(tmp_path):
    scn = tmp_path / "adv.scn"
    scn.write_text(builtin_source("adv"))
    code, out, _ = run(["simulate", str(scn)])
    assert code == 0
    direct = run_scenario_text(builtin_source("adv"))
    assert out == direct.text


def test_simulate_denied_trust_exits_1(tmp_path):
    scn = tmp_path / "fail.scn"
    scn.write_text("level 2\ntrustors i\ntrustees a\ntasks t\ntrust i {a} t\n")
    code, out, _ = run(["simulate", str(scn)])
    assert code == 1
    assert "denied" in out


def test_simulate_export_then_query_agrees(tmp_path):
    scn = tmp_path / "pre.scn"
    scn.write_text(
        "level 2\ntrustors i\ntrustees a\ntasks t\n"
        "allocate {a} t\nlearn i a\ncommit i {a} t TRUE\nquery i {a} t\n"
    )
    state_file = tmp_path / "state.txt"
    code, out, _ = run(["simulate", "--export-state", str(state_file), str(scn)])
    assert code == 0
    assert f"state written to {state_file}" in out
    in_script = next(ln for ln in out.splitlines() if ln.startswith("trust(i,"))

    qcode, qout, _ = run(["query", "--state", str(state_file), "--level", "2", "i", "a", "t"])
    assert qcode == 0  # a query that answers is a success, granted or not
    # the decision the script saw is the decision the saved state gives
    assert qout.splitlines()[0] == in_script == "trust(i, {a}, t) granted"

    ts = import_state(state_file.read_text())
    assert ts.trust_query("i", ["a"], "t").granted


def test_query_denied_still_exits_0(tmp_path):
    scn = tmp_path / "empty.scn"
    scn.write_text("level 1\ntrustors i\ntrustees a b\ntasks t\n")
    state_file = tmp_path / "state.txt"
    run(["simulate", "--export-state", str(state_file), str(scn)])
    code, out, _ = run(["query", "--state", str(state_file), "--level", "1", "i", "a", "b", "t"])
    assert code == 0
    assert "denied" in out
    assert "grd4" in out  # no allocation for the pair group


def test_query_level_mismatch_is_usage_error(tmp_path):
    scn = tmp_path / "empty.scn"
    scn.write_text("level 1\ntrustors i\ntrustees a\ntasks t\n")
    state_file = tmp_path / "state.txt"
    run(["simulate", "--export-state", str(state_file), str(scn)])
    code, _, err = run(["query", "--state", str(state_file), "--level", "2", "i", "a", "t"])
    assert code == 2
    assert "level" in err


# --- dump-po ------------------------------------------------------


def test_dump_po_counts_by_level():
    for level, expect in ((0, 8), (1, 15), (2, 16)):
        code, out, _ = run(["dump-po", "--level", str(level)])
        assert code == 0
        assert f"total {expect} obligations" in out


def test_dump_po_shows_hypothesis_without_goal():
    code, out, _ = run(["dump-po", "--level", "0"])
    blocks = out.split("\npo ")
    inv2 = next(b for b in blocks if b.startswith("trust/inv2/INV"))
    # the goal invariant never appears among its own hypotheses
    invs = next(
        ln for ln in inv2.splitlines() if ln.strip().startswith("hypothesis invariants:")
    )
    assert invs.split(":", 1)[1].split() == ["inv1", "inv3", "inv4"]
    assert "hypothesis guards: grd1 grd2 grd3 grd4 grd5 grd6" in inv2
    assert "goal after trust: inv2:" in inv2


def test_dump_po_records_format():
    code, out, _ = run(["dump-po", "--level", "2", "--format", "records"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    assert all(ln.startswith("po name=") for ln in lines)


# --- odds and ends ------------------------------------------------------


def test_version_and_help(capsys):
    # argparse prints these straight to the process streams
    code = run_command(["--version"])
    assert code == 0 and "trustb" in capsys.readouterr().out
    code = run_command(["--help"])
    captured = capsys.readouterr().out
    assert code == 0 and "check" in captured and "simulate" in captured
    code, _, err = run([])
    assert code == 2
