import io
import itertools

import pytest

from trustb import kernel
from trustb.cli import run_command
from trustb.errors import (
    FunctionalityViolation,
    NotARelation,
    ParseError,
    ScenarioError,
    TrustDenied,
    UnboundIdentifier,
    UndeclaredAtom,
    UnresolvedReference,
)
from trustb.models import (
    DEFAULT_BOUNDS,
    VARIANTS,
    BoundSpec,
    Mutation,
    TrustLevel,
    TrustState,
    build_model,
    builtin_source,
    export_state,
    import_state,
    machine_name,
    machine_setup,
)
from trustb.runtime import event_enabled, state_universe
from trustb.values import FALSE, TRUE, Atom, PairV, canon, mkset


# --- bounds ------------------------------------------------------


def test_bound_spec_parse():
    assert BoundSpec.parse("2,2,2") == BoundSpec(2, 2, 2)
    assert BoundSpec.parse(" 1 , 2 , 3 ") == BoundSpec(1, 2, 3)
    assert BoundSpec.parse("0,1,1") == BoundSpec(0, 1, 1)


@pytest.mark.parametrize("bad", ["2,2", "2,2,2,2", "a,b,c", "2,,2", "-1,2,2", ""])
def test_bound_spec_rejects_malformed(bad):
    with pytest.raises(ScenarioError):
        BoundSpec.parse(bad)


def test_bound_spec_names():
    b = BoundSpec(2, 3, 1)
    assert b.trustor_names() == ("u1", "u2")
    assert b.trustee_names() == ("v1", "v2", "v3")
    assert b.task_names() == ("t1",)
    assert str(b) == "2,3,1"
    assert DEFAULT_BOUNDS == BoundSpec(2, 2, 2)


def test_overlap_reuses_first_trustor_as_trustee():
    b = BoundSpec(2, 2, 1)
    assert b.trustee_names(overlap=True) == ("u1", "v2")
    inst = b.instantiation(overlap=True)
    assert inst.label == "overlap"
    agents = inst.values["AGENTS"]
    # u1 appears once even though it sits in both roles
    assert len(agents.elements) == 3


def test_overlap_without_trustors_is_an_error():
    with pytest.raises(ScenarioError):
        BoundSpec(0, 2, 1).trustee_names(overlap=True)


# --- model loading ------------------------------------------------------


def test_machine_names_by_level():
    assert machine_name(0) == "M0_abs"
    assert machine_name(1) == "M1_knwl"
    assert machine_name(2) == "M2_int"
    assert machine_name(2, "rel") == "M2_rel"


def test_unknown_variant_and_level():
    with pytest.raises(UnresolvedReference):
        machine_name(0, "nonsense")
    with pytest.raises(ScenarioError):
        machine_name(2, "nopart")  # that family stops at level 0


def test_builtin_source_errors_on_unknown():
    assert "MACHINE" in builtin_source("m0_abs")
    assert "level 2" in builtin_source("adv")
    with pytest.raises(UnresolvedReference):
        builtin_source("missing_file")
    assert set(VARIANTS) == {"base", "rel", "nopart", "bad_act"}


def test_mutation_parse():
    m = Mutation.parse("drop:grd7")
    assert m.label == "grd7"
    for bad in ("add:grd7", "drop:", "grd7", ""):
        with pytest.raises(ScenarioError):
            Mutation.parse(bad)


def test_mutation_unknown_guard_fails_loudly():
    with pytest.raises(UnresolvedReference):
        build_model(2, mutate="drop:grd99")


def test_mutation_removes_exactly_one_guard():
    _, tm = build_model(2, mutate="drop:grd8")
    labels = [g.label for g in tm.event("trust").ast.guards]
    assert "grd8" not in labels
    assert len(labels) == 7
    _, intact = build_model(2)
    assert len(intact.event("trust").ast.guards) == 8


def test_machine_setup_validates_axioms():
    tm, inst, env = machine_setup(1, BoundSpec(1, 1, 1))
    assert tm.name == "M1_knwl"
    assert inst.values["AGENTS"].elements == mkset([Atom("u1"), Atom("v1")]).elements
    assert env.bindings["trustors"] == mkset([Atom("u1")])


# --- the working state ------------------------------------------------------


def fresh(level=2):
    return TrustState(level, ["alice"], ["bob", "carol"], ["deliver"])


def test_allocate_is_functional_per_group():
    ts = TrustState(0, ["a"], ["b"], ["t1", "t2"])
    ts.allocate_task(["b"], "t1")
    ts.allocate_task(["b"], "t1")  # same pair again is fine
    with pytest.raises(FunctionalityViolation):
        ts.allocate_task(["b"], "t2")


def test_allocate_conflict_names_the_group_canonically():
    ts = TrustState(0, ["a"], ["bob", "carol"], ["t1", "t2"])
    ts.allocate_task(["carol", "bob"], "t1")
    with pytest.raises(FunctionalityViolation) as err:
        ts.allocate_task(["carol", "bob"], "t2")
    assert str(err.value) == "group {bob, carol} is already allocated task t1"


def test_undeclared_atoms_rejected():
    ts = fresh()
    with pytest.raises(UndeclaredAtom):
        ts.allocate_task(["mallory"], "deliver")
    with pytest.raises(UndeclaredAtom):
        ts.learn("alice", "mallory")
    with pytest.raises(UndeclaredAtom):
        ts.trust_query("bob", ["bob"], "deliver")  # bob is not a trustor
    with pytest.raises(UndeclaredAtom):
        ts.commit("alice", ["bob"], "missing_task", True)


def test_knowledge_gated_by_level():
    ts = TrustState(0, ["a"], ["b"], ["t"])
    with pytest.raises(ScenarioError):
        ts.learn("a", "b")
    ts1 = TrustState(1, ["a"], ["b"], ["t"])
    ts1.learn("a", "b")
    with pytest.raises(ScenarioError):
        ts1.commit("a", ["b"], "t", True)


def test_commitments_default_false():
    ts = fresh()
    assert ts.committed("alice", ["bob"], "deliver") is False
    ts.commit("alice", ["bob"], "deliver", True)
    assert ts.committed("alice", ["bob"], "deliver") is True
    ts.commit("alice", ["bob"], "deliver", False)
    assert ts.committed("alice", ["bob"], "deliver") is False


def test_embed_adopt_round_trip():
    ts = fresh()
    ts.allocate_task(["bob", "carol"], "deliver")
    ts.learn("alice", "bob")
    ts.commit("alice", ["bob"], "deliver", True)
    snap = ts.embed()
    other = fresh()
    other.adopt(snap)
    assert other.embed() == snap
    assert other.committed("alice", ["bob"], "deliver")
    assert other.embed().values["agent_task"] == ts.embed().values["agent_task"]


def test_variables_follow_level():
    assert TrustState(0, ["a"], ["b"], ["t"]).variables() == (
        "agent_task",
        "trustor_trustee_task",
    )
    assert fresh().variables() == (
        "agent_task",
        "trustor_trustee_task",
        "knowledge",
        "commitments",
    )


def grant_path(ts):
    """Walk one trustor through every level-2 prerequisite."""
    ts.allocate_task(["bob"], "deliver")
    ts.learn("alice", "bob")
    ts.commit("alice", ["bob"], "deliver", True)


def test_query_explains_each_guard():
    ts = fresh()
    ts.allocate_task(["bob"], "deliver")
    d = ts.trust_query("alice", ["bob"], "deliver")
    assert not d.granted
    assert d.failing == ["grd7", "grd8"]
    ts.learn("alice", "bob")
    d = ts.trust_query("alice", ["bob"], "deliver")
    assert d.failing == ["grd8"]
    ts.commit("alice", ["bob"], "deliver", True)
    d = ts.trust_query("alice", ["bob"], "deliver")
    assert d.granted and d.failing == []
    assert [lbl for lbl, _ in d.guards] == [f"grd{k}" for k in range(1, 9)]


def test_establish_trust_denied_carries_decision():
    ts = fresh()
    with pytest.raises(TrustDenied) as exc:
        ts.establish_trust("alice", ["bob"], "deliver")
    assert "grd4" in exc.value.decision.failing
    assert not ts.trusts("alice", ["bob"], "deliver")


def test_establish_trust_records_triple():
    ts = fresh()
    grant_path(ts)
    d = ts.establish_trust("alice", ["bob"], "deliver")
    assert d.granted
    assert ts.trusts("alice", ["bob"], "deliver")
    assert not ts.trusts("alice", ["carol"], "deliver")
    # union semantics: repeating the step leaves the record unchanged
    before = ts.embed()
    ts.establish_trust("alice", ["bob"], "deliver")
    assert ts.embed() == before


def test_group_identity_ignores_listing_order():
    ts = fresh()
    ts.allocate_task(["carol", "bob"], "deliver")
    ts.learn("alice", "bob")
    ts.learn("alice", "carol")
    ts.commit("alice", ["bob", "carol"], "deliver", True)
    d = ts.trust_query("alice", ["carol", "bob"], "deliver")
    assert d.granted
    assert canon(ts._trustee_group(["carol", "bob"])) == "{bob, carol}"


@pytest.mark.parametrize("method", ["trust_query", "establish_trust"])
@pytest.mark.parametrize(
    "group", [lambda: iter(["bob"]), lambda: (n for n in ("bob",))], ids=["iterator", "generator"]
)
def test_a_trustee_group_may_be_given_as_an_iterator(method, group):
    ts = fresh()
    grant_path(ts)
    d = getattr(ts, method)("alice", group(), "deliver")
    assert d.granted and d.failing == [] and d.trustees == ("bob",)


def test_invariant_warnings_surface_transients():
    ts = fresh()
    ts.commit("alice", ["bob"], "deliver", True)
    # a lone commitment breaks functionality's totality reading at level 2
    assert "inv1" in ts.invariant_warnings()


def test_decision_holding_failing_partition():
    ts = fresh()
    d = ts.trust_query("alice", ["bob"], "deliver")
    assert sorted(d.holding + d.failing) == sorted(lbl for lbl, _ in d.guards)
    assert d.level == TrustLevel.COMMITMENT


# --- state files ------------------------------------------------------


def test_export_import_round_trip():
    ts = fresh()
    grant_path(ts)
    ts.establish_trust("alice", ["bob"], "deliver")
    text = export_state(ts)
    back = import_state(text)
    assert back.embed() == ts.embed()
    assert back.level == ts.level
    assert back.trustees == ts.trustees
    assert export_state(back) == text


def test_import_tolerates_comments_and_blanks():
    ts = TrustState(0, ["a"], ["b"], ["t"])
    ts.allocate_task(["b"], "t")
    lines = export_state(ts).splitlines()
    noisy = "\n".join(["# written by hand", "", lines[0], "  # indented note"] + lines[1:])
    back = import_state(noisy)
    assert back.embed() == ts.embed()


def test_import_drops_comments_from_every_line():
    text = (
        "level 0  # strategic\n"
        "trustors i # the trustor\n"
        "trustees b\n"
        "tasks t\n"
        "agent_task # allocations\n"
        "  ({b} |-> t) # allocated\n"
        "trustor_trustee_task\n"
        "end # of state\n"
    )
    ts = import_state(text)
    assert ts.trustors == ("i",)
    assert canon(ts.embed().values["agent_task"]) == "{({b} |-> t)}"


def test_import_reports_a_malformed_value_at_its_place(tmp_path):
    text = "level 0\ntrustors i\ntrustees b\ntasks t\nagent_task\n  ({b} |-> t) )\nend\n"
    with pytest.raises(ParseError) as err:
        import_state(text)
    assert str(err.value) == "6:15: expected 'eof', found ')'"
    state = tmp_path / "bad.state"
    state.write_text(text)
    out, errs = io.StringIO(), io.StringIO()
    assert run_command(["query", "--state", str(state), "i", "b", "t"], stdout=out, stderr=errs) == 3
    assert errs.getvalue() == f"{state}:6:15: expected 'eof', found ')'\n"


def test_import_rejects_damage():
    ts = fresh()
    good = export_state(ts)
    for level in ("x", "\u00b2"):  # "²" is a digit to str.isdigit, not to int()
        with pytest.raises(ScenarioError, match="level line must carry a single number"):
            import_state(good.replace("level 2", f"level {level}"))
    with pytest.raises(ScenarioError):
        import_state(good.replace("knowledge", "gossip"))
    with pytest.raises(ScenarioError):
        import_state(good.replace("agent_task\n", "agent_task\n  bob\n"))
    with pytest.raises(ScenarioError):
        import_state("\n".join(good.splitlines()[:3]))
    missing_section = "\n".join(
        ln for ln in good.splitlines() if ln != "commitments"
    )
    with pytest.raises(ScenarioError):
        import_state(missing_section)
    allocated = good.replace("agent_task\n", "agent_task\n  {bob} |-> deliver\n", 1)
    repeated = allocated.replace("\nend", "\nagent_task\nend")
    with pytest.raises(ScenarioError, match="'agent_task' appears twice"):
        import_state(repeated)
    with pytest.raises(ScenarioError, match="expected 'level' line, found 'trustors alice'"):
        import_state(good.split("\n", 1)[1])
    stray = good.replace("tasks deliver\n", "tasks deliver\n  {bob} |-> deliver\n")
    with pytest.raises(ScenarioError) as err:
        import_state(stray)
    assert str(err.value) == "value line outside a section: '{bob} |-> deliver'"


def test_import_evaluates_value_expressions():
    text = (
        "level 2\n"
        "trustors a\n"
        "trustees b c\n"
        "tasks t\n"
        "agent_task\n"
        "  {b, c} |-> t\n"
        "trustor_trustee_task\n"
        "knowledge\n"
        "  a |-> b\n"
        "commitments\n"
        "  (a |-> ({b, c} |-> t)) |-> TRUE\n"
        "end\n"
    )
    ts = import_state(text)
    assert ts.committed("a", ["b", "c"], "t")
    assert ts.embed().values["agent_task"] == mkset([PairV(mkset([Atom("b"), Atom("c")]), Atom("t"))])


def test_import_rejects_two_tasks_for_one_group():
    text = (
        "level 0\n"
        "trustors a\n"
        "trustees b\n"
        "tasks t1 t2\n"
        "agent_task\n"
        "  {b} |-> t1\n"
        "  {b} |-> t2\n"
        "trustor_trustee_task\n"
        "end\n"
    )
    with pytest.raises(FunctionalityViolation, match=r"agent_task.*\{b\}"):
        import_state(text)


def test_import_rejects_two_flags_for_one_commitment():
    text = (
        "level 2\n"
        "trustors a\n"
        "trustees b\n"
        "tasks t\n"
        "agent_task\n"
        "trustor_trustee_task\n"
        "knowledge\n"
        "commitments\n"
        "  (a |-> ({b} |-> t)) |-> TRUE\n"
        "  (a |-> ({b} |-> t)) |-> FALSE\n"
        "end\n"
    )
    with pytest.raises(FunctionalityViolation, match=r"commitments.*\(a \|-> \(\{b\} \|-> t\)\)"):
        import_state(text)


def test_embed_and_query_follow_every_write():
    ts = fresh()
    start = ts.embed()
    assert ts.trust_query("alice", ["bob"], "deliver").failing == ["grd4", "grd7", "grd8"]
    bob = mkset([Atom("bob")])
    triple = PairV(Atom("alice"), PairV(bob, Atom("deliver")))

    ts.allocate_task(["bob"], "deliver")
    assert ts.embed().values["agent_task"] == mkset([PairV(bob, Atom("deliver"))])
    assert ts.trust_query("alice", ["bob"], "deliver").failing == ["grd7", "grd8"]

    ts.learn("alice", "bob")
    assert ts.embed().values["knowledge"] == mkset([PairV(Atom("alice"), Atom("bob"))])
    assert ts.trust_query("alice", ["bob"], "deliver").failing == ["grd8"]

    ts.commit("alice", ["bob"], "deliver", True)
    assert ts.embed().values["commitments"] == mkset([PairV(triple, TRUE)])
    assert ts.trust_query("alice", ["bob"], "deliver").granted

    ts.establish_trust("alice", ["bob"], "deliver")
    assert ts.embed().values["trustor_trustee_task"] == mkset([triple])

    ts.commit("alice", ["bob"], "deliver", False)
    assert ts.embed().values["commitments"] == mkset([PairV(triple, FALSE)])
    assert ts.trust_query("alice", ["bob"], "deliver").failing == ["grd8"]

    copy = import_state(export_state(ts))
    assert copy.embed() == ts.embed()
    assert copy.trust_query("alice", ["bob"], "deliver").failing == ["grd8"]

    ts.adopt(start)
    assert ts.embed() == start
    assert ts.trust_query("alice", ["bob"], "deliver").failing == ["grd4", "grd7", "grd8"]


# --- one build per model, and invariants decided again only where a write changed them


def test_build_model_is_shared_per_variant():
    model, tm = build_model(1)
    assert build_model(1)[1] is tm
    assert machine_setup(1, BoundSpec(1, 1, 1))[0] is tm
    assert TrustState(1, ["a"], ["b"], ["t"])._tm is tm
    # One parse and one elaboration serve every level of a variant.
    assert build_model(0)[0] is model and build_model(2)[0] is model
    assert build_model(2, "rel")[0] is not model


def test_second_trust_state_parses_nothing(monkeypatch):
    import trustb.models as models

    parse = models.parse_file
    parsed = []

    def counting_parse(text, filename="<input>"):
        parsed.append(filename)
        return parse(text, filename)

    monkeypatch.setattr(models, "parse_file", counting_parse)
    models._elaborated.cache_clear()
    TrustState(2, ["a"], ["b"], ["t"])
    assert len(parsed) == 6  # the base chain's files
    TrustState(1, ["x", "y"], ["z"], ["t"])
    import_state(export_state(TrustState(0, ["a"], ["b"], ["t"])))
    assert len(parsed) == 6


def test_mutated_build_leaves_the_shared_model_intact():
    def trust_guards(tm):
        return [g.label for g in tm.event("trust").ast.guards]

    _, before = build_model(2)
    _, mutated = build_model(2, mutate="drop:grd7")
    _, after = build_model(2)
    assert after is before and "grd7" in trust_guards(after)
    assert "grd7" not in trust_guards(mutated)
    # The key holds the machine the mutation targets.
    assert build_model(2, mutate=Mutation("grd7"))[1] is mutated
    _, level1 = build_model(1, mutate="drop:grd7")
    assert "grd7" not in trust_guards(level1)
    assert "grd7" in trust_guards(build_model(1)[1])


def test_mutated_and_plain_golden_records_agree_in_either_order():
    import io
    import pathlib

    from trustb.cli import run_command

    golden = pathlib.Path(__file__).parent / "golden"
    cells = [(variant, 1, "drop:grd7") for variant in ("base", "rel")]
    cells += [(variant, 2, "drop:grd8") for variant in ("base", "rel")]

    def run(variant, level, mutate):
        argv = ["check", "--variant", variant, "--level", str(level), "--bounds", "1,2,2",
                "--refinement", "--vacuity", "--format", "records"]
        argv += ["--mutate", mutate] if mutate else []
        out = io.StringIO()
        code = run_command(argv, stdout=out)
        mode = "mutate" if mutate else "plain"
        expected = (golden / f"{variant}_l{level}_{mode}.records").read_text(encoding="utf-8")
        assert out.getvalue() + f"exit {code}\n" == expected

    runs = [cell for variant, level, mutate in cells
            for cell in ((variant, level, None), (variant, level, mutate))]
    for order in (runs, runs[::-1]):
        for cell in order:
            run(*cell)


def test_scenario_output_repeats_within_a_process_and_in_a_fresh_one():
    import os
    import pathlib
    import subprocess
    import sys

    import trustb
    from trustb.scenario import run_scenario_text

    script = builtin_source("adv")
    first, second = run_scenario_text(script), run_scenario_text(script)
    assert (first.ok, first.text) == (second.ok, second.text)
    src = str(pathlib.Path(trustb.__file__).parent.parent)
    probe = ("from trustb.models import builtin_source\n"
             "from trustb.scenario import run_scenario_text\n"
             "r = run_scenario_text(builtin_source('adv'))\n"
             "print(r.ok)\n"
             "print(r.text, end='')\n")
    fresh_out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                               check=True, capture_output=True, text=True).stdout
    assert fresh_out == f"{first.ok}\n{first.text}"


@pytest.mark.parametrize("level", [0, 1, 2])
def test_invariants_match_a_full_report_after_every_step(level):
    import random

    from trustb.errors import TrustDenied
    from trustb.runtime import State, fire_event, invariant_report, state_universe

    bounds = BoundSpec(2, 2, 1)
    tm, _inst, env = machine_setup(level, bounds)
    trustors, trustees, tasks = bounds.trustor_names(), bounds.trustee_names(), bounds.task_names()
    ts = TrustState(level, trustors, trustees, tasks)
    typed = list(state_universe(tm, env))
    groups = [["v1"], ["v2"], ["v1", "v2"]]
    verbs = ["allocate", "trust", "adopt", "adopt-partial"]
    verbs += ["learn"] * (level >= 1) + ["commit"] * (level >= 2)
    rng = random.Random(1400 + level)
    for _step in range(300):
        verb = rng.choice(verbs)
        i, j, t = rng.choice(trustors), rng.choice(groups), rng.choice(tasks)
        # A snapshot, which no write may change, and a write that raises
        # must leave the state as it was.
        before = ts.embed()
        held = dict(before.values)
        try:
            if verb == "allocate":
                ts.allocate_task(j, t)
            elif verb == "learn":
                ts.learn(i, rng.choice(trustees))
            elif verb == "commit":
                ts.commit(i, j, t, rng.random() < 0.7)
            elif verb == "trust":
                ts.establish_trust(i, j, t)
                binding = {"i": Atom(i), "j": mkset(Atom(n) for n in j), "t": Atom(t)}
                assert ts.embed() == fire_event(tm, "trust", before, binding, env)
            elif verb == "adopt":
                ts.adopt(rng.choice(typed))
            else:
                dropped = rng.choice(tm.var_order)
                partial = {v: x for v, x in rng.choice(typed).values.items() if v != dropped}
                with pytest.raises(KeyError):
                    ts.adopt(State(partial))
                assert ts.embed() == before
        except (FunctionalityViolation, TrustDenied):
            assert ts.embed() == before
        assert before.values == held
        assert ts.invariants() == invariant_report(tm, ts.embed(), env)


def test_the_trust_api_builds_no_state_per_write(monkeypatch):
    from trustb.runtime import State
    from trustb.scenario import run_scenario_text

    built = []
    real_init, real_owning = State.__init__, State.__dict__["_owning"].__func__

    def init(self, values):
        built.append("init")
        real_init(self, values)

    def owning(cls, values):
        built.append("owning")
        return real_owning(cls, values)

    monkeypatch.setattr(State, "__init__", init)
    monkeypatch.setattr(State, "_owning", classmethod(owning))
    result = run_scenario_text(builtin_source("adv"))
    assert result.ok
    # Only the initial state and the final embed() become a State.
    assert len(built) <= 2


def test_learn_decides_again_only_the_invariants_that_mention_knowledge(monkeypatch):
    _, tm = build_model(2)
    ran = []

    def counted(lbl, code):
        def run(frame, bound):
            ran.append(lbl)
            return code(frame, bound)
        return lbl, run

    monkeypatch.setattr(tm, "invariant_code", tuple(counted(*entry) for entry in tm.invariant_code))
    ts = fresh()
    ts.allocate_task(["bob"], "deliver")
    first = ts.invariants()
    assert ran == [lbl for lbl, _ok in first]
    ran.clear()
    ts.learn("alice", "bob")
    ts.invariant_warnings()
    mention = [lbl for lbl, reads in tm.invariant_reads.items() if "knowledge" in reads]
    assert ran == mention == ["inv4"]
    ran.clear()
    ts.invariants()
    assert ran == []


# --- deciding once per binding ------------------------------------------


_L2_QUERIES = [
    (i, group, t)
    for i in ("u1", "u2")
    for group in ((), ("v1",), ("v2",), ("v1", "v2"))
    for t in ("t1", "t2")
]


def _counted_guards(monkeypatch, info, raising=None):
    """Wrap an event's guard functions so each run is counted per label;
    `raising` maps a label to the error its guard raises instead."""
    runs = dict.fromkeys([label for label, _code in info.guard_code], 0)
    raising = raising or {}

    def counted(label, code):
        def run(frame, bound):
            runs[label] += 1
            if label in raising:
                raise raising[label]
            return code(frame, bound)

        return label, run

    monkeypatch.setattr(info, "guard_code", tuple(counted(*g) for g in info.guard_code))
    return runs


def test_a_guard_that_reads_no_state_runs_once_per_binding(monkeypatch):
    tm, _inst, env = machine_setup(2, DEFAULT_BOUNDS)
    states = list(itertools.islice(
        (st for st in state_universe(tm, env) if st.values["agent_task"]), 2
    ))
    expected = [
        event_enabled(tm, "trust", state, {"i": Atom(i), "j": mkset(map(Atom, j)), "t": Atom(t)}, env)
        for state in states
        for i, j, t in _L2_QUERIES
    ]
    runs = _counted_guards(monkeypatch, tm.event("trust"))
    ts = TrustState(2, ("u1", "u2"), ("v1", "v2"), ("t1", "t2"))
    granted = []
    for state in states:
        ts.adopt(state)
        granted += [ts.trust_query(*query).granted for query in _L2_QUERIES]
    assert granted == expected
    assert runs == {
        **dict.fromkeys(["grd1", "grd2", "grd3", "grd5", "grd6"], 16),
        **dict.fromkeys(["grd4", "grd7", "grd8"], 32),
    }


def test_a_guard_error_surfaces_in_guard_order(monkeypatch):
    # grd5 reads no state and would be decided when its binding is built;
    # grd4 comes first and reads the state, so its error is the one raised.
    info = build_model(2)[1].event("trust")
    _counted_guards(monkeypatch, info, {"grd4": UnboundIdentifier("x"), "grd5": NotARelation("y")})
    with pytest.raises(UnboundIdentifier):
        fresh().trust_query("alice", ["bob"], "deliver")
    monkeypatch.undo()
    _counted_guards(monkeypatch, info, {"grd5": NotARelation("y")})
    ts = fresh()
    for _ in range(2):
        with pytest.raises(NotARelation):
            ts.trust_query("alice", ["bob"], "deliver")


def test_import_compiles_once_per_section(monkeypatch):
    ts = TrustState(2, ("u1", "u2"), ("v1", "v2"), ("t1", "t2"))
    for group, task in ((["v1"], "t1"), (["v2"], "t2"), (["v1", "v2"], "t1")):
        ts.allocate_task(group, task)
    for i in ("u1", "u2"):
        for j in ("v1", "v2"):
            ts.learn(i, j)
        ts.commit(i, ["v1"], "t1", True)
        ts.commit(i, ["v2"], "t2", i == "u1")
        ts.commit(i, ["v1", "v2"], "t1", False)
        ts.establish_trust(i, ["v1"], "t1")
    text = export_state(ts)
    assert len([ln for ln in text.splitlines() if ln.startswith("  ")]) == 15
    import_state(text)  # builds what the model compiles once
    built = []
    compiled = kernel._compiled
    monkeypatch.setattr(kernel, "_compiled", lambda *args: built.append(args) or compiled(*args))
    assert export_state(import_state(text)) == text
    assert len(built) <= len(ts.variables()) == 4
