import pytest

from trustb.errors import NotSuperposition
from trustb.kernel import eval_pred_frame
from trustb.models import BoundSpec, Mutation, machine_setup
from trustb.po import (
    ALL_STATES,
    DISCHARGED,
    FAILED,
    REACHABLE,
    VACUOUS,
    check_refinement,
    detect_vacuous_guards,
    discharge_all,
    generate_pos,
    goal_invariant_report,
)
from trustb.runtime import fire_event, invariant_report, param_bindings, state_universe


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


def test_exclude_labels_removes_goal_everywhere():
    tm, _, _ = setup(2)
    pos = generate_pos(tm, exclude_labels=frozenset({"inv4"}))
    assert all(po.label != "inv4" for po in pos)
    assert len(pos) == 6


def test_abstract_inv4_flagged_vacuous_in_variables():
    tm, _, _ = setup(0)
    po = next(p for p in generate_pos(tm) if p.name == "trust/inv4/INV")
    assert "no machine variables" in po.note


# --- discharge behaviour ------------------------------------------------------


def test_batch_matches_singleton_discharge():
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


def test_check_walks_the_state_universe_once(monkeypatch):
    import io

    from trustb import po
    from trustb.cli import run_command

    calls = []
    real = po.state_universe

    def counting(tm, env):
        calls.append(tm.name)
        return real(tm, env)

    monkeypatch.setattr(po, "state_universe", counting)
    argv = ["check", "--level", "2", "--bounds", "1,2,2", "--refinement", "--vacuity",
            "--goal-invariant", "inv4"]
    assert run_command(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    assert calls == ["M2_int"]


def test_one_walk_matches_separate_walks():
    tm, inst, env = setup(0, BoundSpec(2, 2, 1))
    pos = generate_pos(tm, include_refinement=True, exclude_labels=frozenset({"inv4"}))
    both = discharge_all(tm, env, pos, exclude_labels=frozenset({"inv4"}),
                         vacuity=True, goal="inv4")
    alone = discharge_all(tm, env, pos, exclude_labels=frozenset({"inv4"}))
    assert [(r.po.name, r.verdict, r.cases) for r in both.reports] == [
        (r.po.name, r.verdict, r.cases) for r in alone.reports
    ]
    assert alone.vacuity == [] and alone.goal is None
    assert both.vacuity == detect_vacuous_guards(tm, env)
    assert both.goal == goal_invariant_report(tm, env, "inv4")


def test_each_predicate_runs_once_per_prefix(monkeypatch):
    # inv3 reads only the first two variables and grd4 only the first, so
    # neither should run again while the walk varies the later ones.
    tm, inst, env = setup(2, BoundSpec(1, 2, 2))
    counts: dict[str, int] = {}

    def counted(pairs):
        def wrap(label, code):
            def run(frame, bound):
                counts[label] = counts.get(label, 0) + 1
                return code(frame, bound)

            return label, run

        return tuple(wrap(label, code) for label, code in pairs)

    info = tm.event("trust")
    monkeypatch.setattr(tm, "invariant_code", counted(tm.invariant_code))
    monkeypatch.setattr(info, "guard_code", counted(info.guard_code))
    excluded = frozenset({"inv4"})
    pos = generate_pos(tm, include_refinement=True, exclude_labels=excluded)
    discharge_all(tm, env, pos, exclude_labels=excluded, vacuity=True)

    states = list(state_universe(tm, env))
    prefixes = {(s.values["agent_task"], s.values["trustor_trustee_task"]) for s in states}
    agent_tasks = {s.values["agent_task"] for s in states}
    bindings = list(param_bindings(info, states[0], env))
    assert tm.var_order[:2] == ("agent_task", "trustor_trustee_task")
    assert counts["inv1"] == len(states)  # reads commitments, the last variable
    assert 0 < counts["inv3"] <= len(prefixes) < len(states)
    assert 0 < counts["grd4"] <= len(agent_tasks) * len(bindings)
