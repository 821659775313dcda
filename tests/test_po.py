import pytest

from trustb.errors import NotSuperposition, TrustbError
from trustb.kernel import eval_pred_frame
from trustb.models import BoundSpec, Mutation, machine_setup
from trustb.po import (
    ALL_STATES,
    DISCHARGED,
    FAILED,
    GoalInvariantReport,
    REACHABLE,
    STATE_SOURCES,
    VACUOUS,
    check_refinement,
    detect_vacuous_guards,
    discharge_all,
    generate_pos,
    goal_invariant_report,
)
from trustb.runtime import (
    fire_event,
    invariant_report,
    param_bindings,
    reachable_states,
    state_orbits,
    state_universe,
)


def setup(level, bounds=BoundSpec(2, 2, 2), variant="base", mutate=None, overlap=False):
    return machine_setup(level, bounds, variant, mutate, overlap)


# --- obligation generation ------------------------------------------------------


def test_po_counts_per_level():
    tm0, _, _ = setup(0)
    tm1, _, _ = setup(1)
    tm2, _, _ = setup(2)
    assert len(generate_pos(tm0, include_refinement=True)) == 8
    assert len(generate_pos(tm1, include_refinement=True)) == 8 + 6 + 1
    assert len(generate_pos(tm2, include_refinement=True)) == 8 + 7 + 1
    for tm in (tm0, tm1, tm2):
        inv_only = generate_pos(tm)
        assert len(inv_only) == 8
        assert all(po.kind == "INV" for po in inv_only)


def test_po_names_follow_event_label_kind():
    tm, _, _ = setup(2)
    names = [po.name for po in generate_pos(tm, include_refinement=True)]
    assert "INITIALISATION/inv1/INV" in names
    assert "trust/inv4/INV" in names
    assert "trust/grd7/GRD" in names
    assert "trust/trustor_trustee_task/SIM" in names
    assert len(names) == len(set(names))


def test_refinement_pos_only_for_refining_machines():
    tm0, _, _ = setup(0)
    assert {po.kind for po in generate_pos(tm0, include_refinement=True)} == {"INV"}
    tm1, _, _ = setup(1)
    kinds = {po.kind for po in generate_pos(tm1, include_refinement=True)}
    assert kinds == {"INV", "GRD", "SIM"}


def test_goal_has_no_obligations():
    tm, _, _ = setup(2)
    pos = generate_pos(tm, goal="inv4")
    assert all(po.label != "inv4" for po in pos)
    assert len(pos) == 6


def test_unknown_goal_is_refused_before_any_walk():
    tm, _, env = setup(2, BoundSpec(1, 1, 1))
    with pytest.raises(TrustbError) as err:
        discharge_all(tm, env, goal="nope")
    assert str(err.value) == "no invariant labelled 'nope' in M2_int"


def test_abstract_inv4_flagged_vacuous_in_variables():
    tm, _, _ = setup(0)
    po = next(p for p in generate_pos(tm) if p.name == "trust/inv4/INV")
    assert "no machine variables" in po.note


# --- discharge behaviour ------------------------------------------------------


def _pair_model():
    """test_reference's Pair at |S| = 2, whose states have up to two false
    invariants, with its environment."""
    from test_reference import PAIR
    from trustb.dsl import parse_file
    from trustb.runtime import enumerate_instantiations
    from trustb.typecheck import elaborate

    tm = elaborate(parse_file(PAIR)).machine("Pair")
    [inst] = enumerate_instantiations(tm.context, {"S": 2})
    return tm, inst.env()


@pytest.mark.parametrize("model", ["level2", "pair"])
def test_batch_matches_singleton_discharge(model):
    # The batch looks each event's targets up by the state's invariant
    # truths; Pair's states give it more than one false set.
    if model == "pair":
        tm, env = _pair_model()
    else:
        tm, inst, env = setup(2, BoundSpec(1, 2, 1))
    pos = generate_pos(tm, include_refinement=True)
    batch = discharge_all(tm, env, pos).reports
    for rep in batch:
        single = discharge_all(tm, env, [rep.po]).reports[0]
        assert single.verdict == rep.verdict, rep.po.name
        assert single.cases == rep.cases, rep.po.name
        if rep.counterexample is None:
            assert single.counterexample is None
        else:
            assert single.counterexample.state == rep.counterexample.state
            assert single.counterexample.binding == rep.counterexample.binding
            assert single.counterexample.post == rep.counterexample.post


def test_discharge_deterministic_across_runs():
    tm, inst, env = setup(1, BoundSpec(2, 2, 1))
    first = discharge_all(tm, env, generate_pos(tm)).reports
    second = discharge_all(tm, env, generate_pos(tm)).reports
    for a, b in zip(first, second):
        assert a.po.name == b.po.name
        assert a.verdict == b.verdict
        assert a.cases == b.cases
        if a.counterexample:
            assert a.counterexample.state == b.counterexample.state
            assert a.counterexample.binding == b.counterexample.binding


def test_init_obligations_are_single_case():
    tm, inst, env = setup(2, BoundSpec(1, 1, 1))
    for rep in discharge_all(tm, env, generate_pos(tm)).reports:
        if rep.po.event == "INITIALISATION":
            assert rep.cases == 1


def test_init_inv4_fails_whenever_trust_is_demanded_from_scratch():
    for bounds in (BoundSpec(1, 1, 1), BoundSpec(2, 2, 1), BoundSpec(1, 2, 1)):
        for level in (1, 2):
            tm, inst, env = setup(level, bounds)
            rep = next(
                r
                for r in discharge_all(tm, env, generate_pos(tm)).reports
                if r.po.name == "INITIALISATION/inv4/INV"
            )
            assert rep.verdict == FAILED, (level, str(bounds))
            assert rep.counterexample.post is not None
    # with no trustors the demand is vacuously met
    tm, inst, env = setup(2, BoundSpec(0, 1, 1))
    rep = next(
        r
        for r in discharge_all(tm, env, generate_pos(tm)).reports
        if r.po.name == "INITIALISATION/inv4/INV"
    )
    assert rep.verdict == DISCHARGED


def test_generate_pos_states_each_hypothesis():
    tm, _inst, _env = setup(1, BoundSpec(1, 1, 1))
    every = ("inv1", "inv2", "inv3", "inv4")
    hyps = {po.name: po.hypothesis for po in generate_pos(tm, True)}
    assert hyps["INITIALISATION/inv1/INV"] == ()
    assert hyps["trust/inv2/INV"] == ("inv1", "inv3", "inv4")
    assert hyps["trust/grd1/GRD"] == hyps["trust/trustor_trustee_task/SIM"] == every
    hyps = {po.name: po.hypothesis for po in generate_pos(tm, True, "inv3")}
    assert "trust/inv3/INV" not in hyps
    assert hyps["trust/inv2/INV"] == ("inv1", "inv4")
    assert hyps["trust/grd1/GRD"] == ("inv1", "inv2", "inv4")


def test_goal_holds_in_hypotheses_of_obligations_generated_without_it():
    # inv4 is false in some pre-states at 2,2,1; naming it the goal of the
    # walk takes it out of every hypothesis, even one that lists it.
    tm, _inst, env = setup(2, BoundSpec(2, 2, 1))
    without = discharge_all(tm, env, generate_pos(tm, True), goal="inv4")
    with_goal = discharge_all(tm, env, generate_pos(tm, True, "inv4"), goal="inv4")

    def outcomes(reports):
        return {r.po.name: (r.verdict, r.cases, r.counterexample) for r in reports}

    kept = [r for r in without.reports if r.po.label != "inv4"]
    assert outcomes(kept) == outcomes(with_goal.reports)
    assert without.goal == with_goal.goal


def test_goal_hypothesis_excludes_goal_only():
    # at (2,2,2) the refined inv4 cannot hold, so every obligation that
    # assumes it is vacuous; the inv4 obligation itself is not
    tm, inst, env = setup(2)
    reports = discharge_all(tm, env, generate_pos(tm)).reports
    verdicts = {r.po.name: r.verdict for r in reports}
    assert verdicts["trust/inv1/INV"] == VACUOUS
    assert verdicts["trust/inv2/INV"] == VACUOUS
    assert verdicts["trust/inv3/INV"] == VACUOUS
    assert verdicts["trust/inv4/INV"] == FAILED


def test_level2_commitment_stasis():
    # grd8 plus total commitments force the fired triple to be already
    # recorded, so the concrete trust event cannot add anything new and
    # the functionality invariant survives at level 2
    tm, inst, env = setup(2, BoundSpec(2, 2, 1))
    reports = discharge_all(tm, env, generate_pos(tm)).reports
    verdicts = {r.po.name: (r.verdict, r.cases) for r in reports}
    assert verdicts["trust/inv1/INV"] == (DISCHARGED, 272)
    assert verdicts["trust/inv2/INV"] == (DISCHARGED, 272)
    # and the corresponding post states all equal their pre states
    pos = [p for p in generate_pos(tm) if p.name == "trust/inv2/INV"]
    rep = discharge_all(tm, env, pos).reports[0]
    assert rep.counterexample is None


def test_trust_inv2_fails_at_level_one_with_second_triple():
    tm, inst, env = setup(1, BoundSpec(2, 2, 1))
    reports = discharge_all(tm, env, generate_pos(tm)).reports
    rep = next(r for r in reports if r.po.name == "trust/inv2/INV")
    assert rep.verdict == FAILED
    ce = rep.counterexample
    post_record = ce.post.values["trustor_trustee_task"]
    lefts = [p.left for p in post_record.elements]
    assert len(lefts) != len(set(lefts))  # some trustor holds two triples


def test_counterexample_replays_exactly():
    for mutate in ("drop:grd7", "drop:grd8"):
        tm, inst, env = setup(2, BoundSpec(1, 2, 1), mutate=Mutation.parse(mutate))
        rep = next(
            r
            for r in discharge_all(tm, env, generate_pos(tm)).reports
            if r.po.name == "trust/inv4/INV"
        )
        assert rep.verdict == FAILED
        ce = rep.counterexample
        post = fire_event(tm, "trust", ce.state, ce.binding_dict(), env)
        assert post == ce.post
        assert ("inv4", False) in invariant_report(tm, post, env)


def test_reachable_source_reduces_to_init():
    tm, inst, env = setup(2, BoundSpec(1, 1, 1))
    reports = discharge_all(tm, env, generate_pos(tm), REACHABLE).reports
    by_name = {r.po.name: r for r in reports}
    assert by_name["INITIALISATION/inv4/INV"].verdict == FAILED
    # the lone reachable state enables no trust transition
    assert by_name["trust/inv1/INV"].verdict == VACUOUS
    assert by_name["trust/inv1/INV"].cases == 0


@pytest.mark.parametrize("which", ["all", "initialisation", "none"])
def test_unknown_state_source_is_refused(which):
    # Refused before any work, even where no obligation needs the walk.
    tm, _inst, env = setup(0, BoundSpec(1, 1, 1))
    pos = {
        "all": None,
        "initialisation": [p for p in generate_pos(tm) if p.event == "INITIALISATION"],
        "none": [],
    }[which]
    with pytest.raises(ValueError, match="unknown state source 'bogus'"):
        discharge_all(tm, env, pos, state_source="bogus")


def test_full_scan_counts_every_hypothesis_case():
    # case counts are exact even when a counterexample shows up early
    tm, inst, env = setup(0, BoundSpec(2, 2, 1))
    reports = discharge_all(tm, env, generate_pos(tm)).reports
    by_name = {r.po.name: r for r in reports}
    assert by_name["trust/inv2/INV"].verdict == FAILED
    assert by_name["trust/inv2/INV"].cases == by_name["trust/inv1/INV"].cases


# --- refinement checking ------------------------------------------------------


def test_check_refinement_discharges_base_chain():
    for level in (1, 2):
        tm, inst, env = setup(level, BoundSpec(2, 2, 1))
        reports = check_refinement(tm, env)
        assert all(r.verdict == DISCHARGED for r in reports)
        assert all(r.cases > 0 for r in reports)
        grd = [r for r in reports if r.po.kind == "GRD"]
        sim = [r for r in reports if r.po.kind == "SIM"]
        assert len(grd) == (6 if level == 1 else 7)
        assert len(sim) == 1


def test_dropped_guard_fails_its_guard_strengthening():
    # Without grd7 the concrete event no longer implies the abstract grd7;
    # the GRD goals it still has among its own guards hold.  (With inv4 in
    # the hypothesis, knowledge already covers every enabled case.)
    tm, inst, env = setup(2, BoundSpec(1, 2, 1), mutate=Mutation.parse("drop:grd7"))
    pos = [p for p in generate_pos(tm, True, "inv4") if p.kind == "GRD"]
    grd = {r.po.label: r for r in discharge_all(tm, env, pos, goal="inv4").reports}
    assert grd["grd7"].verdict == FAILED
    assert all(r.verdict == DISCHARGED for label, r in grd.items() if label != "grd7")
    ce = grd["grd7"].counterexample
    frame = {**env.bindings, **ce.state.values, **ce.binding_dict()}
    assert not eval_pred_frame(grd["grd7"].po.goal, frame, env.powerset_bound)


def test_check_refinement_rejects_unrefined_machine():
    tm, inst, env = setup(0)
    with pytest.raises(NotSuperposition):
        check_refinement(tm, env)


def test_altered_action_fails_simulation():
    tm, inst, env = setup(2, BoundSpec(2, 2, 1), "bad_act")
    reports = check_refinement(tm, env)
    sim = next(r for r in reports if r.po.kind == "SIM")
    assert sim.verdict == FAILED
    ce = sim.counterexample
    assert ce.expected != ce.actual
    grd = [r for r in reports if r.po.kind == "GRD"]
    assert all(r.verdict == DISCHARGED for r in grd)


# --- vacuity and goal reports ------------------------------------------------------


def test_vacuous_guards_under_partition():
    tm, inst, env = setup(0, BoundSpec(2, 2, 1))
    by_guard = {v.guard: v for v in detect_vacuous_guards(tm, env)}
    assert by_guard["grd5"].vacuous
    assert by_guard["grd5"].witness is None
    assert not by_guard["grd4"].vacuous
    assert by_guard["grd4"].witness is not None
    assert by_guard["grd4"].cases > 0


def test_grd4_witness_really_falsifies():
    tm, inst, env = setup(0, BoundSpec(1, 1, 1))
    wit = next(v for v in detect_vacuous_guards(tm, env) if v.guard == "grd4").witness
    frame = dict(env.bindings)
    frame.update(wit.state.values)
    frame.update(dict(wit.binding))
    guard = next(g for g in tm.event("trust").ast.guards if g.label == "grd4")
    assert not eval_pred_frame(guard.pred, frame, env.powerset_bound)


def test_grd5_falsifiable_with_overlapping_agent():
    tm, inst, env = setup(0, BoundSpec(2, 2, 1), "nopart", overlap=True)
    by_guard = {v.guard: v for v in detect_vacuous_guards(tm, env)}
    assert not by_guard["grd5"].vacuous


def test_goal_invariant_report_counts():
    tm, inst, env = setup(2, BoundSpec(1, 2, 1), "rel")
    rep = goal_invariant_report(tm, env, "inv4")
    assert rep.label == "inv4"
    assert rep.states == 1024
    assert rep.holds == 276
    assert rep.reachable == 1
    assert rep.holds_reachable == 0


# grd3 of `look` reads no variable but applies f, which is defined only
# where grd2 (which reads d) holds; `pick`'s parameter domain reads d, the
# last variable.
HOISTING = """CONTEXT c
SETS S
CONSTANTS f
AXIOMS
  @axm1: f : S +-> S
END
MACHINE Hoist
SEES c
VARIABLES seen d
INVARIANTS
  @inv1: seen : pow(S)
  @inv2: d : pow(dom(f))
EVENT INITIALISATION
THEN
  @act1: seen := {}
  @act2: d := {}
END
EVENT look
ANY a
WHERE
  @grd1: a : S
  @grd2: a : d
  @grd3: f(a) : S
THEN
  @act1: seen := seen \\/ {f(a)}
END
EVENT pick
ANY b
WHERE
  @grd1: b : d
  @grd2: f(b) /: seen
THEN
  @act1: seen := seen \\/ {f(b)}
END
END
"""

HOISTING_RECORDS = """\
po name=INITIALISATION/inv1/INV machine=Hoist event=INITIALISATION kind=INV verdict=discharged cases=9
po name=INITIALISATION/inv2/INV machine=Hoist event=INITIALISATION kind=INV verdict=discharged cases=9
po name=look/inv1/INV machine=Hoist event=look kind=INV verdict=discharged cases=80
po name=look/inv2/INV machine=Hoist event=look kind=INV verdict=discharged cases=80
po name=pick/inv1/INV machine=Hoist event=pick kind=INV verdict=discharged cases=40
po name=pick/inv2/INV machine=Hoist event=pick kind=INV verdict=discharged cases=40
summary pos=6 discharged=6 failed=0 vacuous=0
"""


def test_guards_stay_well_defined_under_prefix_caching(tmp_path):
    import io

    from trustb.cli import run_command

    model = tmp_path / "hoist.ebt"
    model.write_text(HOISTING)
    out = io.StringIO()
    assert run_command(["check", str(model), "--format", "records"], stdout=out) == 0
    head, rest = out.getvalue().split("\n", 1)
    assert head == f"run machine=Hoist file={model} instantiations=9"
    assert rest == HOISTING_RECORDS


# inv3 reads d only where a is not empty, so while a is empty its truth
# stands whatever d holds.
BRANCHING = """CONTEXT c
SETS S
END
MACHINE Branch
SEES c
VARIABLES a d
INVARIANTS
  @inv1: a : pow(S)
  @inv2: d : pow(S)
  @inv3: a /= {} => d <: a
EVENT INITIALISATION
THEN
  @act1: a := {}
  @act2: d := {}
END
EVENT grow
ANY x
WHERE
  @grd1: x : S
THEN
  @act1: a := a \\/ {x}
END
EVENT shrink
ANY x
WHERE
  @grd1: x : a
THEN
  @act1: a := a \\ {x}
END
EVENT add
ANY y
WHERE
  @grd1: y : S
THEN
  @act1: d := d \\/ {y}
END
END
"""

BRANCHING_RECORDS = "".join(
    line + "\n"
    for line in (
        "po name=INITIALISATION/inv1/INV machine=Branch event=INITIALISATION kind=INV verdict=discharged cases=1",
        "po name=INITIALISATION/inv2/INV machine=Branch event=INITIALISATION kind=INV verdict=discharged cases=1",
        "po name=INITIALISATION/inv3/INV machine=Branch event=INITIALISATION kind=INV verdict=discharged cases=1",
        "po name=grow/inv1/INV machine=Branch event=grow kind=INV verdict=discharged cases=102",
        "po name=grow/inv2/INV machine=Branch event=grow kind=INV verdict=discharged cases=102",
        "po name=grow/inv3/INV machine=Branch event=grow kind=INV verdict=failed cases=192",
        "ce po=grow/inv3/INV part=pre var=a value={}",
        "ce po=grow/inv3/INV part=pre var=d value={s1}",
        "ce po=grow/inv3/INV part=binding var=x value=s2",
        "ce po=grow/inv3/INV part=post var=a value={s2}",
        "ce po=grow/inv3/INV part=post var=d value={s1}",
        "po name=shrink/inv1/INV machine=Branch event=shrink kind=INV verdict=discharged cases=54",
        "po name=shrink/inv2/INV machine=Branch event=shrink kind=INV verdict=discharged cases=54",
        "po name=shrink/inv3/INV machine=Branch event=shrink kind=INV verdict=failed cases=96",
        "ce po=shrink/inv3/INV part=pre var=a value={s1, s2}",
        "ce po=shrink/inv3/INV part=pre var=d value={s1}",
        "ce po=shrink/inv3/INV part=binding var=x value=s1",
        "ce po=shrink/inv3/INV part=post var=a value={s2}",
        "ce po=shrink/inv3/INV part=post var=d value={s1}",
        "po name=add/inv1/INV machine=Branch event=add kind=INV verdict=discharged cases=102",
        "po name=add/inv2/INV machine=Branch event=add kind=INV verdict=discharged cases=102",
        "po name=add/inv3/INV machine=Branch event=add kind=INV verdict=failed cases=192",
        "ce po=add/inv3/INV part=pre var=a value={s1}",
        "ce po=add/inv3/INV part=pre var=d value={}",
        "ce po=add/inv3/INV part=binding var=y value=s2",
        "ce po=add/inv3/INV part=post var=a value={s1}",
        "ce po=add/inv3/INV part=post var=d value={s2}",
        "summary pos=12 discharged=9 failed=3 vacuous=0",
    )
)


def _counted(pairs, counts):
    """(label, code) pairs whose codes count their runs in counts[label]."""

    def wrap(label, code):
        def run(frame, bound):
            counts[label] = counts.get(label, 0) + 1
            return code(frame, bound)

        return label, run

    return tuple(wrap(label, code) for label, code in pairs)


def test_invariant_reading_a_later_variable_on_one_branch(tmp_path):
    import io

    from trustb.cli import run_command

    model = tmp_path / "branch.ebt"
    model.write_text(BRANCHING)
    out = io.StringIO()
    argv = ["check", str(model), "--carrier", "S=3", "--format", "records"]
    assert run_command(argv, stdout=out) == 1
    head, rest = out.getvalue().split("\n", 1)
    assert head == f"run machine=Branch file={model} instantiations=1"
    assert rest == BRANCHING_RECORDS


def test_reachable_states_keep_only_what_reads_no_state_variable(monkeypatch):
    # A reachable state is not compared with the one before it: a binding
    # list whose parameter domain reads a state variable is made again in
    # each of them, and one whose domain reads none is made once.
    from trustb import po as po_module
    from trustb.dsl import parse_file
    from trustb.runtime import enumerate_instantiations
    from trustb.typecheck import elaborate

    tm = elaborate(parse_file(BRANCHING, "branch.ebt")).machine("Branch")
    [inst] = enumerate_instantiations(tm.context, {"S": 2})
    env = inst.env()
    made = []
    real = po_module.bind_params

    def counting(info, frame, bound):
        made.append(info.name)
        return real(info, frame, bound)

    monkeypatch.setattr(po_module, "bind_params", counting)
    discharge_all(tm, env, generate_pos(tm), REACHABLE)
    reachable = len(reachable_states(tm, env))
    assert reachable > 1
    # grow's and add's parameters range over S; shrink's over a.
    assert made.count("grow") == made.count("add") == 1
    assert made.count("shrink") == reachable


# grd2 of mark reads d only for an x in a, so while a is empty the bindings
# it keeps stand whatever d holds.
GUARDED = """CONTEXT c
SETS S
END
MACHINE Guarded
SEES c
VARIABLES a d
INVARIANTS
  @inv1: a : pow(S)
  @inv2: d : pow(S)
EVENT INITIALISATION
THEN
  @act1: a := {}
  @act2: d := {}
END
EVENT mark
ANY x
WHERE
  @grd1: x : S
  @grd2: x : a => x : d
THEN
  @act1: a := a \\/ {x}
END
EVENT clear
ANY y
WHERE
  @grd1: y : d
THEN
  @act1: d := d \\ {y}
END
END
"""

GUARDED_RECORDS = """\
po name=INITIALISATION/inv1/INV machine=Guarded event=INITIALISATION kind=INV verdict=discharged cases=1
po name=INITIALISATION/inv2/INV machine=Guarded event=INITIALISATION kind=INV verdict=discharged cases=1
po name=mark/inv1/INV machine=Guarded event=mark kind=INV verdict=discharged cases=24
po name=mark/inv2/INV machine=Guarded event=mark kind=INV verdict=discharged cases=24
po name=clear/inv1/INV machine=Guarded event=clear kind=INV verdict=discharged cases=16
po name=clear/inv2/INV machine=Guarded event=clear kind=INV verdict=discharged cases=16
summary pos=6 discharged=6 failed=0 vacuous=0
"""


def test_guard_reading_a_later_variable_on_one_branch(tmp_path, monkeypatch):
    import io

    from trustb.cli import run_command
    from trustb.dsl import parse_file
    from trustb.runtime import enumerate_instantiations
    from trustb.typecheck import elaborate

    model = tmp_path / "guarded.ebt"
    model.write_text(GUARDED)
    out = io.StringIO()
    assert run_command(["check", str(model), "--format", "records"], stdout=out) == 0
    head, rest = out.getvalue().split("\n", 1)
    assert head == f"run machine=Guarded file={model} instantiations=1"
    assert rest == GUARDED_RECORDS

    tm = elaborate(parse_file(GUARDED, "guarded.ebt")).machine("Guarded")
    [inst] = enumerate_instantiations(tm.context, {"S": 2})
    env = inst.env()
    info = tm.event("mark")
    counts: dict[str, int] = {}
    monkeypatch.setattr(info, "guard_code", _counted(info.guard_code, counts))
    discharge_all(tm, env)
    states = list(state_universe(tm, env))
    assert len(states) == 16 and tm.var_order == ("a", "d")
    # Swapping s1 and s2 maps the model to itself, so the walk visits the
    # least state of each orbit: with pow(S) listed as {}, {s1}, {s2}, S,
    # a = {s2} is never visited, and for a = {} or a = S neither is d = {s2}.
    # That leaves 3 + 4 + 3 states, standing for all 16.
    visited = [(s.values["a"], s.values["d"], size) for s, size in state_orbits(tm, env)]
    assert len(visited) == 10 and sum(size for *_s, size in visited) == 16
    assert [len(a) for a, _d, _size in visited] == [0] * 3 + [1] * 4 + [2] * 3
    # grd2 names d, the last variable, so a static prefix would run it for
    # both x in all 10 visited states; as read, it runs for both x once
    # while a is empty and again in each of the 7 visited states where a
    # is not.
    assert counts == {"grd1": 2, "grd2": 2 + 7 * 2}
    assert counts["grd2"] < len(visited) * 2


# inv4's last conjunct applies g, which is partial; the conjuncts before it
# read a, g and then d, the last variable.  In canonical order the first
# state where it is ill defined is a = {s1}, g = {s2 |-> s1}, d = {s1}.
PARTIAL = """CONTEXT c
SETS S
END
MACHINE Partial
SEES c
VARIABLES a g d
INVARIANTS
  @inv1: a : pow(S)
  @inv2: g : S +-> S
  @inv3: d : pow(S)
  @inv4: !x . x : S & x : a & g /= {} & x : d => g(x) : S
EVENT INITIALISATION
THEN
  @act1: a := {}
  @act2: g := {}
  @act3: d := {}
END
EVENT grow
ANY x
WHERE
  @grd1: x : S
THEN
  @act1: d := d \\/ {x}
END
END
"""


def test_quantified_invariant_raises_in_the_first_ill_defined_state(tmp_path):
    import io

    from trustb.cli import run_command

    model = tmp_path / "partial.ebt"
    model.write_text(PARTIAL)
    out, err = io.StringIO(), io.StringIO()
    assert run_command(["check", str(model), "--format", "records"], stdout=out, stderr=err) == 3
    assert out.getvalue() == ""
    assert err.getvalue() == "error: application outside domain: {(s2 |-> s1)} applied to s1\n"


@pytest.mark.parametrize("mentions_a", [True, False])
def test_partial_model_raises_alike_with_given_and_memoised_invariants(tmp_path, mentions_a):
    # inv1 to inv3 are typing clauses, given on every typed state; inv4
    # still runs.  Without `x : a` it mentions g and d but not a, so the
    # walk memoises it, and never stores the run that raises: the check
    # stops with the same error either way, whatever else it reports on.
    import io

    from trustb.cli import run_command
    from trustb.dsl import parse_file
    from trustb.runtime import enumerate_instantiations
    from trustb.typecheck import elaborate

    text = PARTIAL if mentions_a else PARTIAL.replace("x : a & ", "")
    message = "application outside domain: {(s2 |-> s1)} applied to s1"
    model = tmp_path / "partial.ebt"
    model.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    assert run_command(["check", str(model), "--format", "records"], stdout=out, stderr=err) == 3
    assert (out.getvalue(), err.getvalue()) == ("", f"error: {message}\n")

    tm = elaborate(parse_file(text, "partial.ebt")).machine("Partial")
    [inst] = enumerate_instantiations(tm.context, {"S": 2})
    assert tm.typing_invariants == {"inv1", "inv2", "inv3"}
    for options in ({}, {"vacuity": True}, {"goal": "inv1"}, {"goal": "inv4"}):
        with pytest.raises(TrustbError) as raised:
            discharge_all(tm, inst.env(), **options)
        assert str(raised.value) == message


def test_check_walks_the_state_universe_once(monkeypatch):
    import io

    from trustb import po
    from trustb.cli import run_command

    calls = []
    real = po.state_orbits

    def counting(tm, env):
        calls.append(tm.name)
        return real(tm, env)

    monkeypatch.setattr(po, "state_orbits", counting)
    argv = ["check", "--level", "2", "--bounds", "1,2,2", "--refinement", "--vacuity",
            "--goal-invariant", "inv4"]
    assert run_command(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    assert calls == ["M2_int"]


def _shipped_cells():
    from trustb.errors import ScenarioError
    from trustb.models import VARIANTS, machine_name

    for variant in VARIANTS:
        for level in (0, 1, 2):
            try:
                machine_name(level, variant)
            except ScenarioError:
                continue
            yield variant, level


@pytest.mark.parametrize("group", ["symmetric", "trivial"])
@pytest.mark.parametrize("variant,level", list(_shipped_cells()))
def test_orbit_walk_hands_over_the_first_changed_position(variant, level, group, monkeypatch):
    # The walk's changed position must be the one an identity scan finds,
    # state by state, under the symmetry group and without it: the first
    # variable whose value is not the very object the state before held,
    # -1 for the first state and len(var_order) if every object is the same.
    from trustb import runtime

    tm, inst, env = setup(level, BoundSpec(1, 2, 2), variant)
    if group == "trivial":
        monkeypatch.setattr(runtime, "symmetry_group", lambda tm, env: ({},))

    def identity_scan(prev, values):
        if prev is None:
            return -1
        for k, name in enumerate(tm.var_order):
            if values[name] is not prev[name]:
                return k
        return len(tm.var_order)

    walk = state_orbits(tm, env)
    positions = []
    prev = None
    for state, _size in walk:
        positions.append(walk.changed)
        assert walk.changed == identity_scan(prev, state.values)
        prev = state.values
    assert positions[0] == -1
    assert set(positions[1:]) == set(range(len(tm.var_order)))


def test_one_walk_matches_separate_walks():
    tm, inst, env = setup(0, BoundSpec(2, 2, 1))
    pos = generate_pos(tm, include_refinement=True, goal="inv4")
    both = discharge_all(tm, env, pos, vacuity=True, goal="inv4")
    alone = discharge_all(tm, env, pos, goal="inv4")
    assert [(r.po.name, r.verdict, r.cases) for r in both.reports] == [
        (r.po.name, r.verdict, r.cases) for r in alone.reports
    ]
    assert alone.vacuity == [] and alone.goal == both.goal
    assert both.vacuity == detect_vacuous_guards(tm, env)
    assert both.goal == goal_invariant_report(tm, env, "inv4")


def test_each_predicate_runs_once_per_prefix(monkeypatch):
    # grd4 reads only agent_task, the first variable, so it should not run
    # again while the walk varies the later ones; inv3 and grd8 mention
    # later variables but not the ones before them, so they should run once
    # per distinct value of what they mention; inv1 is commitments' typing
    # clause and should not run on a typed state at all.
    tm, inst, env = setup(2, BoundSpec(1, 2, 2))
    reachable = reachable_states(tm, env)
    counts: dict[str, int] = {}
    info = tm.event("trust")
    met = []
    grd8 = dict(info.guard_code)["grd8"]

    def keyed(frame, bound):
        met.append((frame["i"], frame["j"], frame["t"], frame["commitments"]))
        return grd8(frame, bound)

    guards = tuple((lbl, keyed if lbl == "grd8" else code) for lbl, code in info.guard_code)
    monkeypatch.setattr(tm, "invariant_code", _counted(tm.invariant_code, counts))
    monkeypatch.setattr(info, "guard_code", _counted(guards, counts))
    pos = generate_pos(tm, include_refinement=True, goal="inv4")
    discharge_all(tm, env, pos, vacuity=True, goal="inv4")

    # The walk visits one state per orbit of the 4 permutations of
    # trustees and tasks: 565 of the 2,052 typed states.
    states = [state for state, _size in state_orbits(tm, env)]
    assert (len(states), len(list(state_universe(tm, env)))) == (565, 2052)
    prefixes = {(s.values["agent_task"], s.values["trustor_trustee_task"]) for s in states}
    agent_tasks = {s.values["agent_task"] for s in states}
    bindings = list(param_bindings(info, states[0], env))
    assert tm.var_order == ("agent_task", "trustor_trustee_task", "knowledge", "commitments")
    # inv1 is given on every typed state: it makes no pre-state run.
    assert tm.typing_invariants == {"inv1", "inv2"}
    assert "inv1" not in counts and "inv2" not in counts
    # inv3 mentions only trustor_trustee_task: it runs once per distinct
    # value of it, fewer times than there are visited prefixes.
    tasks_of_trustors = {s.values["trustor_trustee_task"] for s in states}
    assert counts["inv3"] == len(tasks_of_trustors) < len(prefixes) == 91
    # grd4 reads only agent_task: it runs on each of the 8 bindings, all of
    # which pass the typing guards before it, once per visited agent_task;
    # the goal report's search for the reachable states runs it on each
    # binding of each reachable state once more.
    walk, search = len(agent_tasks) * len(bindings), len(reachable) * len(bindings)
    assert (walk, search) == (28 * 8, 1 * 8)
    assert counts["grd4"] == walk + search
    # grd1-grd3, grd5 and grd6 read no state variable: the walk decides
    # each at most once per binding for the whole walk, as bindings that
    # agree on the parameters a guard mentions share its runs.  The search
    # runs grd1-grd3 again on each binding of the reachable state, and stops
    # at grd4 there.
    for label in ("grd1", "grd2", "grd3"):
        assert counts[label] <= len(bindings) + search
    assert counts["grd5"] <= len(bindings) and counts["grd6"] <= len(bindings)
    # grd8 runs once per distinct (i, j, t, commitments) it meets.
    assert 0 < counts["grd8"] == len(met) == len(set(met))
    # inv4 can read every variable, but a run that finds its first (i, t)
    # without a group for t stops before reading commitments.
    assert 0 < counts["inv4"] < len(states)


# grow leaves inv1's typing domain as soon as it adds k.
OUTSIDE = """CONTEXT c
SETS S
CONSTANTS k
AXIOMS
  @axm1: k : S
END
MACHINE Outside
SEES c
VARIABLES d
INVARIANTS
  @inv1: d : pow(S \\ {k})
EVENT INITIALISATION
THEN
  @act1: d := {}
END
EVENT grow
ANY x
WHERE
  @grd1: x : S
THEN
  @act1: d := d \\/ {x}
END
END
"""


def test_reachable_states_run_the_typing_invariants(monkeypatch):
    from trustb.dsl import parse_file
    from trustb.runtime import enumerate_instantiations
    from trustb.typecheck import elaborate

    tm = elaborate(parse_file(OUTSIDE, "outside.ebt")).machine("Outside")
    inst = enumerate_instantiations(tm.context, {"S": 2})[0]
    env = inst.env()
    assert tm.typing_invariants == {"inv1"}
    counts: dict[str, int] = {}
    monkeypatch.setattr(tm, "invariant_code", _counted(tm.invariant_code, counts))
    # With k = s1, d is typed in 2 states, and reaches 4: inv1 is given on
    # the typed ones and run on each reachable one, false in the 2 that
    # hold k.  Either walk can be the main one.
    for source in STATE_SOURCES:
        counts.clear()
        goal = discharge_all(tm, env, [], source, goal="inv1").goal
        assert (goal.holds, goal.states, goal.holds_reachable, goal.reachable) == (2, 2, 2, 4)
        assert counts == {"inv1": 4}


def test_typing_goal_holds_on_every_typed_state(monkeypatch):
    tm, inst, env = setup(2, BoundSpec(1, 2, 2))
    assert goal_invariant_report(tm, env, "inv1") == GoalInvariantReport("inv1", 2052, 2052, 1, 1)
    # On the typed states inv1 is given; on the reachable one it runs, so
    # a code that says false shows there alone.
    counts: dict[str, int] = {}
    false = tuple((lbl, lambda f, b: False) for lbl, _code in tm.invariant_code)
    monkeypatch.setattr(tm, "invariant_code", _counted(false, counts))
    assert goal_invariant_report(tm, env, "inv1") == GoalInvariantReport("inv1", 2052, 2052, 0, 1)
    assert counts == {"inv1": 1}


TWICE = """CONTEXT c
SETS S
END
MACHINE Twice
SEES c
VARIABLES a d
INVARIANTS
  @inv1: a : pow(S)
  @inv2: d : pow(S)
  @inv3: a : pow(S)
EVENT INITIALISATION
THEN
  @act1: a := {}
  @act2: d := {}
END
END
"""


def test_only_the_first_typing_clause_is_given(monkeypatch):
    from trustb.dsl import parse_file
    from trustb.runtime import enumerate_instantiations
    from trustb.typecheck import elaborate

    tm = elaborate(parse_file(TWICE, "twice.ebt")).machine("Twice")
    [inst] = enumerate_instantiations(tm.context, {"S": 2})
    env = inst.env()
    assert tm.typing_invariants == {"inv1", "inv2"}
    counts: dict[str, int] = {}
    monkeypatch.setattr(tm, "invariant_code", _counted(tm.invariant_code, counts))
    assert discharge_all(tm, env, [], goal="inv3").goal == GoalInvariantReport("inv3", 16, 16, 1, 1)
    # inv3 reads a, the first variable: it runs once per visited a, and on
    # the reachable state.
    visited = {state.values["a"] for state, _size in state_orbits(tm, env)}
    assert counts == {"inv3": len(visited) + 1}


def _post_state_goals(mutate, evaluated):
    """How often discharge_all evaluated a GRD goal and an INV goal of
    `trust` at level 2, 1,2,2, by kind, with inv4 as the goal invariant (it
    is false in every state, so with it no GRD obligation has a case);
    `evaluated` counts each predicate's evaluations by id."""
    tm, inst, env = setup(2, BoundSpec(1, 2, 2), mutate=mutate)
    pos = [p for p in generate_pos(tm, include_refinement=True, goal="inv4") if p.event == "trust"]
    evaluated.clear()
    reports = discharge_all(tm, env, pos, goal="inv4").reports
    assert all(r.cases > 0 for r in reports)
    counts = {"GRD": 0, "INV": 0}
    for p in pos:
        if p.goal is not None:
            counts[p.kind] += evaluated.get(id(p.goal), 0)
    return counts


def test_unchanged_post_states_reuse_pre_state_truths(monkeypatch):
    from trustb import po as po_module

    evaluated: dict[int, int] = {}
    real = po_module._compile_goal

    def counting(p):
        code = real(p)

        def run(frame, bound):
            evaluated[id(p.goal)] = evaluated.get(id(p.goal), 0) + 1
            return code(frame, bound)

        return run

    monkeypatch.setattr(po_module, "_compile_goal", counting)
    # At level 2 the enabled trust event changes nothing, and its GRD goals
    # are its own guards: no goal is evaluated again on a post-state.
    assert _post_state_goals(None, evaluated) == {"GRD": 0, "INV": 0}
    # Without grd8 the event does add triples, so INV goals are evaluated.
    counts = _post_state_goals(Mutation.parse("drop:grd8"), evaluated)
    assert counts["GRD"] == 0 and counts["INV"] > 0


def test_the_check_walk_builds_no_state_and_runs_each_action_once_per_key(monkeypatch):
    # The check-l2 run: level 2 at 2,2,2 with refinement, vacuity and inv4
    # as the goal.  The walk reads each visited state in the orbit walk's
    # own frame, and trust's action, which reads and assigns only
    # trustor_trustee_task, runs at most once per binding and value of it.
    from trustb.runtime import State

    tm, inst, env = setup(2)
    visited = sum(1 for _ in state_orbits(tm, env))
    info = tm.event("trust")
    built = []
    real_init, real_owning = State.__init__, State.__dict__["_owning"].__func__

    def init(self, values):
        built.append("init")
        real_init(self, values)

    def owning(cls, values):
        built.append("owning")
        return real_owning(cls, values)

    met = []
    [(variable, act)] = info.action_code

    def keyed(frame, bound):
        met.append((frame["i"], frame["j"], frame["t"], frame["trustor_trustee_task"]))
        return act(frame, bound)

    monkeypatch.setattr(State, "__init__", init)
    monkeypatch.setattr(State, "_owning", classmethod(owning))
    monkeypatch.setattr(info, "action_code", ((variable, keyed),))
    pos = generate_pos(tm, include_refinement=True, goal="inv4")
    result = discharge_all(tm, env, pos, vacuity=True, goal="inv4")
    assert all(rep.verdict == DISCHARGED for rep in result.reports)
    # Of the 7,631 visited states none becomes a State: only the initial
    # state is built, for the establishment obligations and to start the
    # reachable walk of the goal count.
    assert visited == 7631
    assert len(built) <= 2
    assert 0 < len(met) == len(set(met)) <= 46


@pytest.mark.parametrize("variant", ["base", "rel"])
def test_counterexamples_do_not_alias_the_walks_frame(variant):
    # The walk binds every state and each case's parameters in one shared
    # frame; each counterexample and vacuity witness must be a State of its
    # own, over exactly the variables, equal to the reference's.
    from test_reference import reference

    tm, inst, env = setup(2, BoundSpec(1, 2, 1), variant, Mutation.parse("drop:grd8"))
    pos = generate_pos(tm, include_refinement=True)
    result = discharge_all(tm, env, pos, vacuity=True)
    ces = [r.counterexample for r in result.reports if r.counterexample is not None]
    witnesses = [v.witness for v in result.vacuity if v.witness is not None]
    states = [s for ce in ces + witnesses for s in (ce.state, ce.post) if s is not None]
    assert any(ce.state is not None for ce in ces) and witnesses
    snapshot = [dict(s.values) for s in states]
    for s in states:
        assert s.values.keys() == set(tm.var_order)
    expected = reference(tm, env, pos, vacuity=True)
    assert [r.counterexample for r in result.reports] == [
        r.counterexample for r in expected.reports
    ]
    assert [v.witness for v in result.vacuity] == [v.witness for v in expected.vacuity]
    # Another walk over the same machine leaves them as they were.
    discharge_all(tm, env, pos, vacuity=True)
    assert [dict(s.values) for s in states] == snapshot


def test_check_walk_leaves_no_reference_cycles():
    # Garbage that only the cycle collector frees lingers between runs and
    # inflates peak memory; the walk, its enumerators and the quantifiers
    # must leave none.
    import gc

    tm, inst, env = setup(2, BoundSpec(1, 2, 1))
    pos = generate_pos(tm, include_refinement=True)
    discharge_all(tm, env, pos, vacuity=True, goal="inv4")  # compile first
    gc.collect()
    gc.disable()
    try:
        states = list(state_universe(tm, env))
        for state in states[:50]:
            invariant_report(tm, state, env)
        discharge_all(tm, env, pos, vacuity=True, goal="inv4")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_goal_that_po_compiles_first_is_named_after_its_obligation():
    # Without its own grd4, trust's abstract guard grd4 is not given, so the
    # walk evaluates it; a fresh elaboration, so that po compiles it first.
    from trustb.kernel import compile_pred
    from trustb.models import _drop_guard, builtin_units
    from trustb.syntax import MachineAST
    from trustb.typecheck import elaborate

    units = [
        _drop_guard(u, "grd4") if isinstance(u, MachineAST) and u.name == "M2_int" else u
        for u in builtin_units("base")
    ]
    tm = elaborate(units).machine("M2_int")
    _tm, _inst, env = setup(2, BoundSpec(1, 2, 1))
    pos = generate_pos(tm, include_refinement=True)
    discharge_all(tm, env, pos)
    goal = next(p.goal for p in pos if p.name == "trust/grd4/GRD")
    assert compile_pred(goal).__code__.co_filename == "<trustb M2_int/trust/grd4/GRD>"
