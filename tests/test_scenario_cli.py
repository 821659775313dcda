import io

import pytest

from trustb.cli import run_command
from trustb.errors import BoundExceeded, ScenarioError
from trustb.models import BoundSpec, TrustState, builtin_source, import_state, machine_setup
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
        ("level \u00b2\ntrustors i\ntrustees a\ntasks t\n", "level"),
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


HEADER = "level {}\ntrustors i\ntrustees a b\ntasks t u\n"


@pytest.mark.parametrize(
    "level,commands,message",
    [
        (2, "learn i a\nallocate {zz} t\n",
         "line 6: atom 'zz' is not declared by the scenario instantiation"),
        (0, "allocate {a} t\n\nallocate {a} u\n", "line 7: group {a} is already allocated task t"),
        (0, "learn i a\n", "line 5: knowledge only exists from level 1 upwards"),
        (1, "# level 1 has no commitments\ncommit i {a} t TRUE\n",
         "line 6: commitments only exist at level 2"),
        (0, "assert-invariant inv99\n", "line 5: no invariant labelled 'inv99'"),
    ],
)
def test_command_errors_name_their_line(tmp_path, level, commands, message):
    script = HEADER.format(level) + commands
    with pytest.raises(ScenarioError) as err:
        run_scenario_text(script)
    assert str(err.value).startswith(message)
    scn = tmp_path / "bad.scn"
    scn.write_text(script)
    code, out, stderr = run(["simulate", str(scn)])
    assert (code, out) == (3, "")
    assert stderr.startswith(f"error: {message}")


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


MUTATION_GOAL_VACUITY_TABLE = """\
machine M0_abs  bounds 1,1,1  source all_invariant_states  mutation drop:grd5
obligation                verdict         cases
INITIALISATION/inv1/INV   discharged          1
INITIALISATION/inv2/INV   discharged          1
INITIALISATION/inv4/INV   discharged          1
  note: goal references no machine variables
trust/inv1/INV            discharged          5
trust/inv2/INV            failed              5
  counterexample:
    pre   agent_task = {({} |-> t1), ({v1} |-> t1)}
    pre   trustor_trustee_task = {(u1 |-> ({} |-> t1))}
    with  i = u1, j = {v1}, t = t1
    post  agent_task = {({} |-> t1), ({v1} |-> t1)}
    post  trustor_trustee_task = {(u1 |-> ({} |-> t1)), (u1 |-> ({v1} |-> t1))}
trust/inv4/INV            discharged          5
  note: goal references no machine variables
summary: 6 obligations, 5 discharged, 1 failed, 0 vacuous
goal invariant inv3: holds in 8 of 8 typed states and 1 of 1 reachable states
guard grd1 of trust: vacuous over 16 cases
guard grd2 of trust: vacuous over 16 cases
guard grd3 of trust: vacuous over 16 cases
guard grd4 of trust: falsifiable over 16 cases
guard grd6 of trust: falsifiable over 16 cases
"""


def test_check_table_with_mutation_goal_and_vacuity():
    argv = ["check", "--level", "0", "--bounds", "1,1,1", "--mutate", "drop:grd5",
            "--vacuity", "--goal-invariant", "inv3"]
    assert run(argv) == (1, MUTATION_GOAL_VACUITY_TABLE, "")


BAD_ACT_REFINEMENT_TABLE = """\
machine M2_bad_act  bounds 2,2,1  source all_invariant_states
obligation                       verdict         cases
INITIALISATION/inv1/INV          discharged          1
INITIALISATION/inv2/INV          discharged          1
INITIALISATION/inv3/INV          discharged          1
INITIALISATION/inv4/INV          failed              1
  counterexample:
    post  agent_task = {}
    post  trustor_trustee_task = {}
    post  knowledge = {}
    post  commitments = {}
trust/inv1/INV                   failed            272
  counterexample:
    pre   agent_task = {({v2} |-> t1)}
    pre   trustor_trustee_task = {(u1 |-> ({v2} |-> t1)), (u2 |-> ({v2} |-> t1))}
    pre   knowledge = {(u1 |-> v2), (u2 |-> v2)}
    pre   commitments = {((u1 |-> ({v2} |-> t1)) |-> TRUE), ((u2 |-> ({v2} |-> t1)) |-> TRUE)}
    with  i = u1, j = {v2}, t = t1
    post  agent_task = {({v2} |-> t1)}
    post  trustor_trustee_task = {(u1 |-> ({v2} |-> t1))}
    post  knowledge = {(u1 |-> v2), (u2 |-> v2)}
    post  commitments = {((u1 |-> ({v2} |-> t1)) |-> TRUE), ((u2 |-> ({v2} |-> t1)) |-> TRUE)}
trust/inv2/INV                   discharged        272
trust/inv3/INV                   discharged        272
trust/inv4/INV                   failed           1920
  counterexample:
    pre   agent_task = {({v2} |-> t1)}
    pre   trustor_trustee_task = {(u2 |-> ({v2} |-> t1))}
    pre   knowledge = {(u2 |-> v2)}
    pre   commitments = {((u2 |-> ({v2} |-> t1)) |-> TRUE)}
    with  i = u2, j = {v2}, t = t1
    post  agent_task = {({v2} |-> t1)}
    post  trustor_trustee_task = {(u2 |-> ({v2} |-> t1))}
    post  knowledge = {(u2 |-> v2)}
    post  commitments = {((u2 |-> ({v2} |-> t1)) |-> TRUE)}
trust/grd1/GRD                   discharged        272
trust/grd2/GRD                   discharged        272
trust/grd3/GRD                   discharged        272
trust/grd4/GRD                   discharged        272
trust/grd5/GRD                   discharged        272
trust/grd6/GRD                   discharged        272
trust/grd7/GRD                   discharged        272
trust/trustor_trustee_task/SIM   failed            272
  counterexample:
    pre   agent_task = {({v2} |-> t1)}
    pre   trustor_trustee_task = {(u1 |-> ({v2} |-> t1)), (u2 |-> ({v2} |-> t1))}
    pre   knowledge = {(u1 |-> v2), (u2 |-> v2)}
    pre   commitments = {((u1 |-> ({v2} |-> t1)) |-> TRUE), ((u2 |-> ({v2} |-> t1)) |-> TRUE)}
    with  i = u1, j = {v2}, t = t1
    post  agent_task = {({v2} |-> t1)}
    post  trustor_trustee_task = {(u1 |-> ({v2} |-> t1))}
    post  knowledge = {(u1 |-> v2), (u2 |-> v2)}
    post  commitments = {((u1 |-> ({v2} |-> t1)) |-> TRUE), ((u2 |-> ({v2} |-> t1)) |-> TRUE)}
    expected trustor_trustee_task = {(u1 |-> ({v2} |-> t1)), (u2 |-> ({v2} |-> t1))}
    actual   trustor_trustee_task = {(u1 |-> ({v2} |-> t1))}
summary: 16 obligations, 12 discharged, 4 failed, 0 vacuous
"""


def test_check_table_simulation_counterexample():
    argv = ["check", "--variant", "bad_act", "--level", "2", "--bounds", "2,2,1",
            "--refinement"]
    assert run(argv) == (1, BAD_ACT_REFINEMENT_TABLE, "")


BAD_ACT_REFINEMENT_RECORDS = """\
run machine=M2_bad_act bounds=2,2,1 source=all_invariant_states
po name=INITIALISATION/inv1/INV machine=M2_bad_act event=INITIALISATION kind=INV verdict=discharged cases=1
po name=INITIALISATION/inv2/INV machine=M2_bad_act event=INITIALISATION kind=INV verdict=discharged cases=1
po name=INITIALISATION/inv3/INV machine=M2_bad_act event=INITIALISATION kind=INV verdict=discharged cases=1
po name=INITIALISATION/inv4/INV machine=M2_bad_act event=INITIALISATION kind=INV verdict=failed cases=1
ce po=INITIALISATION/inv4/INV part=post var=agent_task value={}
ce po=INITIALISATION/inv4/INV part=post var=trustor_trustee_task value={}
ce po=INITIALISATION/inv4/INV part=post var=knowledge value={}
ce po=INITIALISATION/inv4/INV part=post var=commitments value={}
po name=trust/inv1/INV machine=M2_bad_act event=trust kind=INV verdict=failed cases=272
ce po=trust/inv1/INV part=pre var=agent_task value={({v2} |-> t1)}
ce po=trust/inv1/INV part=pre var=trustor_trustee_task value={(u1 |-> ({v2} |-> t1)), (u2 |-> ({v2} |-> t1))}
ce po=trust/inv1/INV part=pre var=knowledge value={(u1 |-> v2), (u2 |-> v2)}
ce po=trust/inv1/INV part=pre var=commitments value={((u1 |-> ({v2} |-> t1)) |-> TRUE), ((u2 |-> ({v2} |-> t1)) |-> TRUE)}
ce po=trust/inv1/INV part=binding var=i value=u1
ce po=trust/inv1/INV part=binding var=j value={v2}
ce po=trust/inv1/INV part=binding var=t value=t1
ce po=trust/inv1/INV part=post var=agent_task value={({v2} |-> t1)}
ce po=trust/inv1/INV part=post var=trustor_trustee_task value={(u1 |-> ({v2} |-> t1))}
ce po=trust/inv1/INV part=post var=knowledge value={(u1 |-> v2), (u2 |-> v2)}
ce po=trust/inv1/INV part=post var=commitments value={((u1 |-> ({v2} |-> t1)) |-> TRUE), ((u2 |-> ({v2} |-> t1)) |-> TRUE)}
po name=trust/inv2/INV machine=M2_bad_act event=trust kind=INV verdict=discharged cases=272
po name=trust/inv3/INV machine=M2_bad_act event=trust kind=INV verdict=discharged cases=272
po name=trust/inv4/INV machine=M2_bad_act event=trust kind=INV verdict=failed cases=1920
ce po=trust/inv4/INV part=pre var=agent_task value={({v2} |-> t1)}
ce po=trust/inv4/INV part=pre var=trustor_trustee_task value={(u2 |-> ({v2} |-> t1))}
ce po=trust/inv4/INV part=pre var=knowledge value={(u2 |-> v2)}
ce po=trust/inv4/INV part=pre var=commitments value={((u2 |-> ({v2} |-> t1)) |-> TRUE)}
ce po=trust/inv4/INV part=binding var=i value=u2
ce po=trust/inv4/INV part=binding var=j value={v2}
ce po=trust/inv4/INV part=binding var=t value=t1
ce po=trust/inv4/INV part=post var=agent_task value={({v2} |-> t1)}
ce po=trust/inv4/INV part=post var=trustor_trustee_task value={(u2 |-> ({v2} |-> t1))}
ce po=trust/inv4/INV part=post var=knowledge value={(u2 |-> v2)}
ce po=trust/inv4/INV part=post var=commitments value={((u2 |-> ({v2} |-> t1)) |-> TRUE)}
po name=trust/grd1/GRD machine=M2_bad_act event=trust kind=GRD verdict=discharged cases=272
po name=trust/grd2/GRD machine=M2_bad_act event=trust kind=GRD verdict=discharged cases=272
po name=trust/grd3/GRD machine=M2_bad_act event=trust kind=GRD verdict=discharged cases=272
po name=trust/grd4/GRD machine=M2_bad_act event=trust kind=GRD verdict=discharged cases=272
po name=trust/grd5/GRD machine=M2_bad_act event=trust kind=GRD verdict=discharged cases=272
po name=trust/grd6/GRD machine=M2_bad_act event=trust kind=GRD verdict=discharged cases=272
po name=trust/grd7/GRD machine=M2_bad_act event=trust kind=GRD verdict=discharged cases=272
po name=trust/trustor_trustee_task/SIM machine=M2_bad_act event=trust kind=SIM verdict=failed cases=272
ce po=trust/trustor_trustee_task/SIM part=pre var=agent_task value={({v2} |-> t1)}
ce po=trust/trustor_trustee_task/SIM part=pre var=trustor_trustee_task value={(u1 |-> ({v2} |-> t1)), (u2 |-> ({v2} |-> t1))}
ce po=trust/trustor_trustee_task/SIM part=pre var=knowledge value={(u1 |-> v2), (u2 |-> v2)}
ce po=trust/trustor_trustee_task/SIM part=pre var=commitments value={((u1 |-> ({v2} |-> t1)) |-> TRUE), ((u2 |-> ({v2} |-> t1)) |-> TRUE)}
ce po=trust/trustor_trustee_task/SIM part=binding var=i value=u1
ce po=trust/trustor_trustee_task/SIM part=binding var=j value={v2}
ce po=trust/trustor_trustee_task/SIM part=binding var=t value=t1
ce po=trust/trustor_trustee_task/SIM part=post var=agent_task value={({v2} |-> t1)}
ce po=trust/trustor_trustee_task/SIM part=post var=trustor_trustee_task value={(u1 |-> ({v2} |-> t1))}
ce po=trust/trustor_trustee_task/SIM part=post var=knowledge value={(u1 |-> v2), (u2 |-> v2)}
ce po=trust/trustor_trustee_task/SIM part=post var=commitments value={((u1 |-> ({v2} |-> t1)) |-> TRUE), ((u2 |-> ({v2} |-> t1)) |-> TRUE)}
ce po=trust/trustor_trustee_task/SIM part=expected value={(u1 |-> ({v2} |-> t1)), (u2 |-> ({v2} |-> t1))}
ce po=trust/trustor_trustee_task/SIM part=actual value={(u1 |-> ({v2} |-> t1))}
summary pos=16 discharged=12 failed=4 vacuous=0
"""


def test_check_records_simulation_counterexample():
    argv = ["check", "--variant", "bad_act", "--level", "2", "--bounds", "2,2,1",
            "--refinement", "--format", "records"]
    assert run(argv) == (1, BAD_ACT_REFINEMENT_RECORDS, "")


def test_readme_check_example_is_the_output():
    import pathlib

    readme = pathlib.Path(__file__).parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("$ trustb check --level 0 --bounds 2,2,1\n")[1]
    expected = block.split("```")[0]
    assert run(["check", "--level", "0", "--bounds", "2,2,1"]) == (1, expected, "")


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


def test_check_bounds_ignore_the_environment(monkeypatch):
    # --bounds is the one way to set the bounds; an inherited variable of
    # the old name changes nothing.
    monkeypatch.setenv("TRUSTB_BOUNDS", "1,1,1")
    code, out, _ = run(["check", "--level", "0", "--format", "records"])
    assert out.startswith("run machine=M0_abs bounds=2,2,2 ")


def test_repeated_commands_leave_no_reference_cycles():
    # A long-lived caller runs command after command; garbage that only the
    # cycle collector frees, such as a fresh argparse parser per call, would
    # pile up between its runs.
    import gc

    argv = ["check", "--level", "0", "--bounds", "1,1,1"]
    first = run(argv)
    gc.collect()
    gc.disable()
    try:
        assert run(argv) == first
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- usage and failure exits ------------------------------------------------------


def test_usage_errors_exit_2():
    for argv in (
        ["check", "--level", "7"],
        ["query", "--level", "0", "i", "t"],  # needs trustor, trustee(s), task
        ["frobnicate"],
        ["check", "--format", "yaml"],
        ["check", "--level", "0", "--bounds", "1,1,1", "--powerset-bound", "-1"],
        ["check", "--level", "0", "--bounds", "1,1,1", "--powerset-bound", "abc"],
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
    assert (code, err) == (3, "error: no invariant labelled 'inv77' in M0_abs\n")
    bad = tmp_path / "broken.ebt"
    bad.write_text("MACHINE ???\n")
    code, _, err = run(["check", str(bad)])
    assert code == 3 and "broken.ebt" in err
    contexts = tmp_path / "contexts.ebt"
    contexts.write_text(TOY_MODEL[: TOY_MODEL.index("MACHINE")])
    assert run(["check", str(contexts)]) == (3, "", f"error: {contexts}: no machine to check\n")
    # No value of bright is both a subset of COLORS and empty and not.
    clash = tmp_path / "clash.ebt"
    clash.write_text(TOY_MODEL.replace("  @axm1: bright <: COLORS\n",
                                       "  @axm1: bright <: COLORS\n  @axm2: bright = {}\n"
                                       "  @axm3: bright /= {}\n"))
    expected = f"error: {clash}: no axiom-consistent instantiation at these carrier sizes\n"
    assert run(["check", "--carrier", "COLORS=2", str(clash)]) == (3, "", expected)


def test_empty_goal_invariant_is_a_usage_error():
    code, out, err = run(["check", "--level", "0", "--bounds", "1,1,1", "--goal-invariant", ""])
    assert (code, out) == (2, "")
    assert err == "trustb check: error: --goal-invariant needs a label\n"


def test_empty_flag_values_are_refused(tmp_path):
    # An empty value is given, so it is parsed, and refused as any other
    # malformed value is; it is never the default.
    bounds = "error: bounds must be three comma-separated sizes, got ''\n"
    mutation = "error: unknown mutation ''; expected drop:<guard-label>\n"
    model = tmp_path / "toy.ebt"
    model.write_text(TOY_MODEL)
    machine = f"error: {model}: no machine named ''\n"
    for argv, err in (
        (["check", "--level", "0", "--bounds="], bounds),
        (["check", "--level", "0", "--bounds", "1,1,1", "--mutate="], mutation),
        (["dump-po", "--level", "0", "--mutate="], mutation),
        (["check", str(model), "--machine="], machine),
        (["dump-po", str(model), "--machine="], machine),
    ):
        assert run(argv) == (3, "", err), argv


def test_bad_bounds_is_reported_before_bad_mutation():
    expected = "error: bounds must be three comma-separated sizes, got 'x'\n"
    assert run(["check", "--bounds", "x", "--mutate", "bad"]) == (3, "", expected)


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
    for argv in (
        ["check", "--bounds", "3,3,3", str(model)],
        ["check", "--overlap", str(model)],
        ["check", "--variant", "rel", str(model)],
        ["dump-po", "--level", "1", str(model)],
        ["dump-po", "--mutate", "drop:grd1", str(model)],
        ["dump-po", "--variant", "base", str(model)],
    ):
        code, out, err = run(argv)
        flag = argv[1]
        assert (code, out) == (2, ""), argv
        assert f"{flag} applies only to the built-in model, not to a model file" in err


def test_builtin_mode_rejects_file_only_flags():
    for argv in (
        ["check", "--level", "0", "--bounds", "1,1,1", "--carrier", "S=2"],
        ["check", "--level", "0", "--bounds", "1,1,1", "--machine", "X"],
        ["dump-po", "--level", "0", "--machine", "X"],
    ):
        code, out, err = run(argv)
        flag = argv[-2]
        assert (code, out) == (2, ""), argv
        assert f"{flag} applies only to a model file, not to the built-in model" in err


def test_file_mode_rejects_unknown_carrier(tmp_path):
    model = tmp_path / "toy.ebt"
    model.write_text(TOY_MODEL)
    code, out, err = run(["check", "--carrier", "SHAPES=1", str(model)])
    assert code == 2 and out == ""
    assert "SHAPES" in err and "COLORS" in err


def test_malformed_carrier_is_a_check_usage_error(tmp_path):
    model = tmp_path / "toy.ebt"
    model.write_text(TOY_MODEL)
    for spec in ("COLORS", "COLORS=0", "COLORS=x", "COLORS=\u00b2"):
        code, out, err = run(["check", "--carrier", spec, str(model)])
        assert (code, out) == (2, ""), spec
        assert err == f"trustb check: error: bad --carrier '{spec}', expected SET=N\n"


def test_repeated_carrier_is_a_check_usage_error(tmp_path):
    model = tmp_path / "toy.ebt"
    model.write_text(TOY_MODEL)
    code, out, err = run(["check", "--carrier", "COLORS=1", "--carrier", "COLORS=3", str(model)])
    assert (code, out) == (2, "")
    assert err == "trustb check: error: --carrier COLORS: given more than once\n"


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
    code, out, err = run(["simulate", str(scn)])
    assert (code, err) == (1, "")  # a refused trust is no command error
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


def test_query_with_fewer_than_three_atoms_is_a_usage_error(tmp_path):
    scn = tmp_path / "empty.scn"
    scn.write_text("level 1\ntrustors i\ntrustees a\ntasks t\n")
    state_file = tmp_path / "state.txt"
    run(["simulate", "--export-state", str(state_file), str(scn)])
    expected = "trustb query: error: need a trustor, at least one trustee, and a task\n"
    assert run(["query", "--state", str(state_file), "i", "t"]) == (2, "", expected)


def test_undefined_level_is_a_model_error(tmp_path):
    header = "level 3\ntrustors i\ntrustees a\ntasks t\n"
    scn = tmp_path / "l3.scn"
    scn.write_text(header)
    state_file = tmp_path / "l3.state"
    state_file.write_text(header + "agent_task\ntrustor_trustee_task\nend\n")
    message = "error: variant 'base' defines levels [0, 1, 2], not 3\n"
    for argv in (["simulate", str(scn)], ["query", "--state", str(state_file), "i", "a", "t"]):
        assert run(argv) == (3, "", message), argv
    with pytest.raises(ScenarioError, match="not 3"):
        TrustState(3, ["i"], ["a"], ["t"])


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


@pytest.mark.parametrize("level", [0, 1, 2])
def test_dump_po_hypothesis_lines_by_kind(level):
    # Guard strengthening and simulation assume every invariant in scope;
    # establishment assumes the axioms only.
    code, out, _ = run(["dump-po", "--level", str(level)])
    assert code == 0
    blocks = {b.split("\n", 1)[0]: b for b in ("\n" + out).split("\npo ")[1:]}
    init = blocks["INITIALISATION/inv1/INV"]
    assert "hypothesis axioms: axm1 axm2 axm3" in init
    assert "hypothesis invariants" not in init and "hypothesis guards" not in init
    refining = [name for name in blocks if name.endswith(("/GRD", "/SIM"))]
    assert bool(refining) == (level > 0)
    if level:
        assert {name.rsplit("/", 1)[1] for name in refining} == {"GRD", "SIM"}
    for name in refining:
        assert "  hypothesis invariants: inv1 inv2 inv3 inv4\n" in blocks[name], name
        assert "  hypothesis guards: grd1 " in blocks[name], name


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


def test_version_and_help_write_to_the_given_stream(capsys):
    for argv, text in ((["--version"], "trustb "), (["check", "--help"], "--state-source")):
        out = io.StringIO()
        assert run_command(argv, stdout=out) == 0
        assert text in out.getvalue()
        assert capsys.readouterr() == ("", "")


def test_the_module_entry_point_runs_the_cli():
    """`python3 -m trustb`, as README documents it: __main__ runs cli.main,
    which exits with run_command's status and output."""
    import os
    import pathlib
    import subprocess
    import sys

    import trustb

    src = str(pathlib.Path(trustb.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "trustb", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = module("--version")
    assert (done.returncode, done.stdout, done.stderr) == (0, "trustb 0.1.0\n", "")
    # Level 0 fails trust/inv2 at these bounds, so both exit 1.
    argv = ["check", "--level", "0", "--bounds", "1,1,1", "--format", "records"]
    done = module(*argv)
    out, err = io.StringIO(), io.StringIO()
    assert run_command(argv, stdout=out, stderr=err) == 1
    assert (done.returncode, done.stdout, done.stderr) == (1, out.getvalue(), err.getvalue())
    assert "verdict=failed" in done.stdout
