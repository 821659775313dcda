import itertools

import pytest

from trustb.dsl import parse_file
from trustb.errors import AxiomViolation, GuardFailed, ScenarioError
from trustb.kernel import Env, check_function_kind, eval_pred_frame, powerset_elements
from trustb.models import BoundSpec, machine_setup, make_instantiation
from trustb.runtime import (
    Instantiation,
    State,
    Transition,
    _assignments,
    enumerate_instantiations,
    enumerate_transitions,
    event_enabled,
    fire_event,
    guard_report,
    initial_state,
    invariant_report,
    param_bindings,
    permute,
    reachable_states,
    state_orbits,
    state_universe,
    symmetry_group,
)
from trustb.typecheck import elaborate
from trustb.values import EMPTY_SET, TRUE, Atom, PairV, SetV, canon, mkatoms, mkset


def setup(level=0, bounds=BoundSpec(2, 2, 2), variant="base"):
    return machine_setup(level, bounds, variant)


# --- states ------------------------------------------------------


def test_state_equality_and_update():
    s1 = State({"x": Atom("a"), "y": EMPTY_SET})
    s2 = State({"y": EMPTY_SET, "x": Atom("a")})
    assert s1 == s2
    assert hash(s1) == hash(s2)
    s3 = s1.updated({"x": Atom("b")})
    assert s3 != s1
    assert s1.values["x"] == Atom("a")


def test_initial_state_all_empty():
    tm, inst, env = setup(2)
    init = initial_state(tm, env)
    assert set(init.values) == set(tm.var_order)
    assert all(v == EMPTY_SET for v in init.values.values())


# --- guards ------------------------------------------------------


def u(name):
    return Atom(name)


def grp(*names):
    return mkatoms(names)


def test_guard_report_evaluates_every_guard():
    tm, inst, env = setup(0)
    init = initial_state(tm, env)
    binding = {"i": u("u1"), "j": grp("v1"), "t": u("t1")}
    rep = guard_report(tm, "trust", init, binding, env)
    assert [lbl for lbl, _ok in rep.guards] == [f"grd{i}" for i in range(1, 7)]
    assert rep.failing == ["grd4"]  # nothing allocated yet; all others hold
    assert not rep.enabled


def test_guard_report_empty_group_fails_grd6_too():
    tm, inst, env = setup(0)
    init = initial_state(tm, env)
    rep = guard_report(tm, "trust", init, {"i": u("u1"), "j": EMPTY_SET, "t": u("t1")}, env)
    assert "grd6" in rep.failing
    assert "grd4" in rep.failing


def test_fire_event_checks_guards():
    tm, inst, env = setup(0)
    init = initial_state(tm, env)
    with pytest.raises(GuardFailed):
        fire_event(tm, "trust", init, {"i": u("u1"), "j": grp("v1"), "t": u("t1")}, env)


def test_fire_event_union_semantics():
    tm, inst, env = setup(0)
    at = mkset([PairV(grp("v1"), u("t1"))])
    pre = State({"agent_task": at, "trustor_trustee_task": EMPTY_SET})
    binding = {"i": u("u1"), "j": grp("v1"), "t": u("t1")}
    post = fire_event(tm, "trust", pre, binding, env)
    triple = PairV(u("u1"), PairV(grp("v1"), u("t1")))
    assert post.values["trustor_trustee_task"] == mkset([triple])
    assert post.values["agent_task"] == at
    # firing the same triple again is stuttering
    post2 = fire_event(tm, "trust", post, binding, env)
    assert post2 == post


def test_fire_event_reads_pre_state_simultaneously():
    # the updated variable's old value feeds the right-hand side exactly once
    tm, inst, env = setup(0)
    at = mkset([PairV(grp("v1"), u("t1")), PairV(grp("v2"), u("t2"))])
    t1 = PairV(u("u1"), PairV(grp("v1"), u("t1")))
    pre = State({"agent_task": at, "trustor_trustee_task": mkset([t1])})
    binding = {"i": u("u2"), "j": grp("v2"), "t": u("t2")}
    post = fire_event(tm, "trust", pre, binding, env)
    t2 = PairV(u("u2"), PairV(grp("v2"), u("t2")))
    assert post.values["trustor_trustee_task"] == mkset([t1, t2])


# --- parameter bindings ------------------------------------------------------


def test_param_bindings_cover_typed_space_in_order():
    tm, inst, env = setup(0)
    init = initial_state(tm, env)
    info = tm.event("trust")
    bindings = list(param_bindings(info, init, env))
    # i from trustors (2), j from pow(trustees) (4), t from tasks (2)
    assert len(bindings) == 2 * 4 * 2
    # deterministic order with the last parameter varying fastest
    ts = [b["t"] for b in bindings]
    assert ts[0] != ts[1]
    assert bindings == list(param_bindings(info, init, env))


def test_enumerate_transitions_from_seeded_state():
    tm, inst, env = setup(0)
    at = mkset([PairV(grp("v1"), u("t1"))])
    pre = State({"agent_task": at, "trustor_trustee_task": EMPTY_SET})
    trans = enumerate_transitions(tm, pre, env)
    # only j={v1}, t=t1 passes grd4; both trustors may fire
    assert len(trans) == 2
    assert {tr.binding_dict()["i"] for tr in trans} == {u("u1"), u("u2")}
    for tr in trans:
        assert tr.event == "trust"
        assert tr.post.values["trustor_trustee_task"] != EMPTY_SET


# --- the typed state universe ------------------------------------------------------


def universe_size(level, bounds, variant="base"):
    tm, inst, env = machine_setup(level, bounds, variant)
    return sum(1 for _ in state_universe(tm, env))


def test_universe_size_level0_oracle():
    # agent_task: pow(trustees) +-> TASKS has sum_k C(4,k) 2^k options;
    # trustor_trustee_task then has (k+1)^2 options given k allocated pairs
    expected = sum(
        len(list(itertools.combinations(range(4), k))) * (2**k) * (k + 1) ** 2
        for k in range(5)
    )
    assert expected == 1161
    assert universe_size(0, BoundSpec(2, 2, 2)) == 1161


def test_universe_size_level1_and_2():
    # knowledge multiplies by 2^(2*2); commitments by 2^|record|
    assert universe_size(1, BoundSpec(2, 2, 2)) == 1161 * 16
    assert universe_size(2, BoundSpec(2, 2, 2)) == 56_592
    assert universe_size(2, BoundSpec(2, 2, 1)) == 7_424
    assert universe_size(1, BoundSpec(2, 2, 1)) == 2_560
    assert universe_size(2, BoundSpec(1, 2, 1), "rel") == 1_024


def test_universe_states_satisfy_declared_typing():
    tm, inst, env = setup(0, BoundSpec(1, 2, 1))
    frame = dict(env.bindings)
    seen = set()
    for state in state_universe(tm, env):
        frame.update(state.values)
        assert eval_pred_frame(tm.invariant("inv1").pred, frame, env.powerset_bound)
        assert eval_pred_frame(tm.invariant("inv2").pred, frame, env.powerset_bound)
        key = state.key(tm.var_order)
        assert key not in seen
        seen.add(key)


def test_universe_dependent_domains():
    # every trust record value points at a currently allocated pair
    tm, inst, env = setup(0, BoundSpec(1, 1, 1))
    for state in state_universe(tm, env):
        at = state.values["agent_task"]
        ttt = state.values["trustor_trustee_task"]
        for pair in ttt.elements:
            assert pair.right in at.elements


def test_universe_deterministic_order():
    tm, inst, env = setup(0, BoundSpec(1, 2, 1))
    first = [s.key(tm.var_order) for s in state_universe(tm, env)]
    second = [s.key(tm.var_order) for s in state_universe(tm, env)]
    assert first == second


# --- reachability ------------------------------------------------------


def test_reachable_is_initial_state_only():
    # no event changes agent_task, knowledge or commitments, and trust
    # cannot fire while nothing is allocated
    for level in (0, 1, 2):
        tm, inst, env = setup(level, BoundSpec(2, 2, 1))
        reach = reachable_states(tm, env)
        assert reach == [initial_state(tm, env)]


# toy2 adds `last` and grd2 to toy's pick.  With bright = COLORS at
# COLORS=2 it reaches five states, and pick has two bindings in each.
PICKS = """CONTEXT toyctx
SETS COLORS
CONSTANTS bright
AXIOMS
  @axm1: bright <: COLORS
END
MACHINE toy
SEES toyctx
VARIABLES picked
INVARIANTS
  @inv1: picked : pow(bright)
EVENT INITIALISATION
THEN
  @act1: picked := {}
END
EVENT pick
ANY c
WHERE
  @grd1: c : bright
THEN
  @act1: picked := picked \\/ {c}
END
END
MACHINE toy2
REFINES toy
SEES toyctx
VARIABLES picked last
INVARIANTS
  @inv2: last : pow(bright)
  @inv3: last <: picked
  @inv4: picked /= bright
EVENT INITIALISATION
THEN
  @act1: picked := {}
  @act2: last := {}
END
EVENT pick
ANY c
WHERE
  @grd1: c : bright
  @grd2: c /: last
THEN
  @act1: picked := picked \\/ {c}
  @act2: last := {c}
END
END
"""


def test_enumerate_transitions_composes_the_public_steps():
    tm = elaborate(parse_file(PICKS)).machine("toy2")
    [env] = [
        inst.env()
        for inst in enumerate_instantiations(tm.context, {"COLORS": 2})
        if inst.values["bright"] == inst.values["COLORS"]
    ]
    states = list(state_universe(tm, env))
    assert len(states) == 16
    for state in states:
        # The reference: the public functions, one binding at a time.
        expected = [
            Transition(
                name, tuple(sorted(binding.items())), fire_event(tm, name, state, binding, env)
            )
            for name, info in tm.events.items()
            if not info.ast.is_init
            for binding in param_bindings(info, state, env)
            if event_enabled(tm, name, state, binding, env)
        ]
        assert enumerate_transitions(tm, state, env) == expected
    init = initial_state(tm, env)
    assert len(enumerate_transitions(tm, init, env)) == 2
    reach = reachable_states(tm, env)
    assert [(canon(s.values["picked"]), canon(s.values["last"])) for s in reach] == [
        ("{}", "{}"),
        ("{colors1}", "{colors1}"),
        ("{colors2}", "{colors2}"),
        ("{colors1, colors2}", "{colors2}"),
        ("{colors1, colors2}", "{colors1}"),
    ]


PICKS_REACHABLE_RECORDS = """\
po name=INITIALISATION/inv1/INV machine=toy2 event=INITIALISATION kind=INV verdict=discharged cases=4
po name=INITIALISATION/inv2/INV machine=toy2 event=INITIALISATION kind=INV verdict=discharged cases=4
po name=INITIALISATION/inv3/INV machine=toy2 event=INITIALISATION kind=INV verdict=discharged cases=4
po name=INITIALISATION/inv4/INV machine=toy2 event=INITIALISATION kind=INV verdict=failed cases=4
ce po=INITIALISATION/inv4/INV part=post var=picked value={}
ce po=INITIALISATION/inv4/INV part=post var=last value={}
note po=INITIALISATION/inv4/INV text=under bright = {}
po name=pick/inv1/INV machine=toy2 event=pick kind=INV verdict=discharged cases=6
po name=pick/inv2/INV machine=toy2 event=pick kind=INV verdict=discharged cases=6
po name=pick/inv3/INV machine=toy2 event=pick kind=INV verdict=discharged cases=6
po name=pick/inv4/INV machine=toy2 event=pick kind=INV verdict=failed cases=8
ce po=pick/inv4/INV part=pre var=picked value={}
ce po=pick/inv4/INV part=pre var=last value={}
ce po=pick/inv4/INV part=binding var=c value=colors1
ce po=pick/inv4/INV part=post var=picked value={colors1}
ce po=pick/inv4/INV part=post var=last value={colors1}
note po=pick/inv4/INV text=under bright = {colors1}
po name=pick/grd1/GRD machine=toy2 event=pick kind=GRD verdict=discharged cases=6
po name=pick/picked/SIM machine=toy2 event=pick kind=SIM verdict=discharged cases=6
summary pos=10 discharged=8 failed=2 vacuous=0
"""


def test_check_file_over_reachable_states(tmp_path):
    import io

    from trustb.cli import run_command

    model = tmp_path / "picks.ebt"
    model.write_text(PICKS)
    out = io.StringIO()
    argv = ["check", str(model), "--carrier", "COLORS=2", "--state-source", "reachable_only",
            "--refinement", "--format", "records"]
    assert run_command(argv, stdout=out) == 1
    head, rest = out.getvalue().split("\n", 1)
    assert head == f"run machine=toy2 file={model} instantiations=4"
    assert rest == PICKS_REACHABLE_RECORDS


PICKS_REACHABLE_TABLE = """\
obligation                verdict         cases
INITIALISATION/inv1/INV   discharged          4
INITIALISATION/inv2/INV   discharged          4
INITIALISATION/inv3/INV   discharged          4
INITIALISATION/inv4/INV   failed              4
  counterexample:
    post  picked = {}
    post  last = {}
  note: under bright = {}
pick/inv1/INV             discharged          6
pick/inv2/INV             discharged          6
pick/inv3/INV             discharged          6
pick/inv4/INV             failed              8
  counterexample:
    pre   picked = {}
    pre   last = {}
    with  c = colors1
    post  picked = {colors1}
    post  last = {colors1}
  note: under bright = {colors1}
pick/grd1/GRD             discharged          6
pick/picked/SIM           discharged          6
summary: 10 obligations, 8 discharged, 2 failed, 0 vacuous
"""


def test_check_file_over_reachable_states_table(tmp_path):
    import io

    from trustb.cli import run_command

    model = tmp_path / "picks.ebt"
    model.write_text(PICKS)
    out = io.StringIO()
    argv = ["check", str(model), "--carrier", "COLORS=2", "--state-source", "reachable_only",
            "--refinement"]
    assert run_command(argv, stdout=out) == 1
    head, rest = out.getvalue().split("\n", 1)
    assert head == f"machine toy2  file {model}  instantiations 4"
    assert rest == PICKS_REACHABLE_TABLE


def test_oversized_constant_domain_names_its_constant(tmp_path):
    import io

    from trustb.cli import run_command

    model = tmp_path / "picks.ebt"
    model.write_text(PICKS)
    out, err = io.StringIO(), io.StringIO()
    argv = ["check", str(model), "--carrier", "COLORS=3", "--powerset-bound", "2"]
    assert run_command(argv, stdout=out, stderr=err) == 3
    assert out.getvalue() == ""
    assert err.getvalue() == (
        "error: domain of constant 'bright': powerset has 8 members, more than the 2**2 bound\n"
    )


PARAM_DOMAIN = """CONTEXT c
SETS S T
END
MACHINE m
SEES c
VARIABLES a
INVARIANTS
  @inv1: a : pow(S)
EVENT INITIALISATION THEN
  @act1: a := {}
END
EVENT e
ANY x
WHERE
  @grd1: x : pow(T)
THEN
  @act1: a := a
END
END
"""


def test_oversized_parameter_domain_names_its_parameter(tmp_path):
    import io

    from trustb.cli import run_command

    model = tmp_path / "param.ebt"
    model.write_text(PARAM_DOMAIN)
    out, err = io.StringIO(), io.StringIO()
    argv = ["check", str(model), "--carrier", "S=1", "--carrier", "T=3", "--powerset-bound", "2"]
    assert run_command(argv, stdout=out, stderr=err) == 3
    assert out.getvalue() == ""
    assert err.getvalue() == (
        "error: domain of parameter 'x': powerset has 8 members, more than the 2**2 bound\n"
    )


# --- instantiation ------------------------------------------------------


def test_instantiation_validate_accepts_disjoint():
    tm, inst, env = setup(0)
    inst.validate(tm.context)


def test_overlap_violates_partition():
    tm, inst, env = setup(0)
    bad = make_instantiation(("u1",), ("u1", "v1"), ("t1",))
    with pytest.raises(AxiomViolation):
        bad.validate(tm.context)


def test_overlap_fine_without_partition():
    tm, inst, env = machine_setup(0, BoundSpec(1, 2, 1), "nopart", overlap=True)
    assert Atom("u1") in env.bindings["trustees"].elements


def test_invariant_report_on_initial_state():
    tm, inst, env = setup(2, BoundSpec(1, 1, 1))
    report = invariant_report(tm, initial_state(tm, env), env)
    as_dict = dict(report)
    assert as_dict["inv1"] and as_dict["inv2"] and as_dict["inv3"]
    assert not as_dict["inv4"]  # the refined form demands trust from the start


def test_event_enabled_matches_guard_report():
    tm, inst, env = setup(1, BoundSpec(1, 1, 1))
    for state in state_universe(tm, env):
        info = tm.event("trust")
        for binding in param_bindings(info, state, env):
            rep = guard_report(tm, "trust", state, binding, env)
            assert rep.enabled == event_enabled(tm, "trust", state, binding, env)


PARTIAL = """CONTEXT c
SETS S
CONSTANTS f
AXIOMS
  @axm1: f : S +-> S
END
MACHINE Partial
SEES c
VARIABLES seen
INVARIANTS
  @inv1: seen : pow(S)
EVENT INITIALISATION
THEN
  @act1: seen := {}
END
EVENT look
ANY a
WHERE
  @grd1: a : dom(f)
  @grd2: f(a) : seen
THEN
  @act1: seen := seen \\/ {a}
END
END
"""


def test_event_enabled_stops_at_first_false_guard():
    # grd2 applies f, which is only defined where grd1 holds
    tm = elaborate(parse_file(PARTIAL)).machine("Partial")
    inst = Instantiation({"S": mkatoms("ab"), "f": mkset([PairV(u("a"), u("a"))])})
    inst.validate(tm.context)
    env = inst.env()
    state = initial_state(tm, env)
    outside = {"a": u("b")}
    assert event_enabled(tm, "look", state, outside, env) is False
    with pytest.raises(GuardFailed) as exc:
        fire_event(tm, "look", state, outside, env)
    assert exc.value.label == "grd1"
    inside = {"a": u("a")}
    assert event_enabled(tm, "look", state, inside, env) is False  # f(a) = a is not seen yet
    seen = fire_event(tm, "look", state, inside, env, check_guards=False)
    assert event_enabled(tm, "look", seen, inside, env) is True


ORDERED = """
CONTEXT ordctx
SETS S
CONSTANTS a b
AXIOMS
  @axm1: a : pow(S)
  @axm2: b <: S
END
"""


def test_instantiation_order_follows_each_typing_axiom():
    # `a : pow(S)` lists pow(S)'s members sorted, {s1, s2} before {s2};
    # `b <: S` lists subsets in bitmask order, {s2} before {s1, s2}.
    tc = elaborate(parse_file(ORDERED)).context("ordctx")
    member_order = ["{}", "{s1}", "{s1, s2}", "{s2}"]
    subset_order = ["{}", "{s1}", "{s2}", "{s1, s2}"]
    labels = [inst.label for inst in enumerate_instantiations(tc, {"S": 2})]
    assert labels == [f"a = {x}; b = {y}" for x in member_order for y in subset_order]


# --- symmetry ------------------------------------------------------


@pytest.mark.parametrize("bounds,size", [("2,2,2", 8), ("3,2,2", 24), ("1,2,2", 4)])
def test_symmetry_group_permutes_within_trustors_trustees_and_tasks(bounds, size):
    tm, _inst, env = setup(2, BoundSpec.parse(bounds))
    group = symmetry_group(tm, env)
    assert len(group) == size and group[0] == {}
    for perm in group:
        for name in ("trustors", "trustees", "TASKS"):
            assert permute(env.bindings[name], perm) == env.bindings[name]


PINNED = """CONTEXT c
SETS S
CONSTANTS p
AXIOMS
  @axm1: p : S
END
MACHINE Pin
SEES c
VARIABLES a
INVARIANTS
  @inv1: a : pow(S)
EVENT INITIALISATION
THEN
  @act1: a := {}
END
EVENT add
ANY x
WHERE
  @grd1: x : S
THEN
  @act1: a := a \\/ {x}
END
END
"""


def test_symmetry_group_fixes_a_pinned_atom():
    tm = elaborate(parse_file(PINNED)).machine("Pin")
    for inst in enumerate_instantiations(tm.context, {"S": 2}):
        assert symmetry_group(tm, inst.env()) == ({},)
    # With three atoms the two that p does not pin may still swap.
    inst = enumerate_instantiations(tm.context, {"S": 3})[0]
    assert inst.values["p"] == Atom("s1")
    assert symmetry_group(tm, inst.env()) == ({}, {Atom("s2"): Atom("s3"), Atom("s3"): Atom("s2")})


def test_symmetry_group_is_trivial_when_a_quantifier_body_applies_a_function():
    from test_po import HOISTING, PARTIAL

    # inv4 applies g inside its quantifier, so it could raise on one member
    # of S before it settles on another, and which comes first depends on
    # the atoms' names.
    tm = elaborate(parse_file(PARTIAL)).machine("Partial")
    [inst] = enumerate_instantiations(tm.context, {"S": 2})
    assert symmetry_group(tm, inst.env()) == ({},)
    # Hoist's guards apply f outside any quantifier: with f = {} both atoms
    # may swap.
    tm = elaborate(parse_file(HOISTING)).machine("Hoist")
    [inst] = [i for i in enumerate_instantiations(tm.context, {"S": 2}) if not i.values["f"]]
    assert len(symmetry_group(tm, inst.env())) == 2


QUANTIFIED = """CONTEXT c
SETS S
END
MACHINE Quantified
SEES c
VARIABLES a
INVARIANTS
  @inv1: a : pow(S)
  @inv2: {claim}
EVENT INITIALISATION
THEN
  @act1: a := {{}}
END
END
"""


@pytest.mark.parametrize("claim,size", [
    # The inner domain pow(a) reads a variable, so it is enumerated in the
    # body; over the constant S it is not a hazard, and neither is pow(a) as
    # the outermost domain, which is listed before any body runs.
    ("!x . x : S => (#y . y : pow(a) & x /: y)", 1),
    ("!x . x : S => (#y . y : pow(S) & x /: y)", 2),
    ("!y . y : pow(a) => y <: S", 2),
    # A partition in a body reads only its parts, here S and {x}.
    ("!x . x : S => partition(S, {x}, S)", 2),
])
def test_symmetry_group_needs_inner_domains_over_constants(claim, size):
    tm = elaborate(parse_file(QUANTIFIED.format(claim=claim))).machine("Quantified")
    [inst] = enumerate_instantiations(tm.context, {"S": 2})
    assert len(symmetry_group(tm, inst.env())) == size


def _permute_state(state, perm):
    return State({v: permute(x, perm) for v, x in state.values.items()})


def _permute_transition(tr, perm):
    binding = tuple((name, permute(v, perm)) for name, v in tr.binding)
    return Transition(tr.event, binding, _permute_state(tr.post, perm))


@pytest.mark.parametrize("level", [0, 1, 2])
def test_checking_is_equivariant_under_the_group(level):
    tm, _inst, env = setup(level)
    group = symmetry_group(tm, env)
    assert len(group) == 8
    states = list(state_universe(tm, env))
    typed = set(states)
    # A prime stride spreads the sample over every variable's values.
    sample = [states[k * 7919 % len(states)] for k in range(48)]
    enabled = 0
    for state in sample:
        report = invariant_report(tm, state, env)
        moves = set(enumerate_transitions(tm, state, env))
        enabled += bool(moves)
        for perm in group:
            image = _permute_state(state, perm)
            assert image in typed
            assert invariant_report(tm, image, env) == report
            assert set(enumerate_transitions(tm, image, env)) == {
                _permute_transition(tr, perm) for tr in moves
            }
    assert enabled >= 10


def test_state_orbits_partition_the_state_universe():
    tm, _inst, env = setup(2, BoundSpec(1, 2, 2))
    group = symmetry_group(tm, env)
    typed = list(state_universe(tm, env))
    orbits = list(state_orbits(tm, env))
    assert (len(orbits), sum(size for _s, size in orbits)) == (565, len(typed))
    position = {state: k for k, state in enumerate(typed)}
    for state, size in orbits:
        orbit = {_permute_state(state, perm) for perm in group}
        assert len(orbit) == size
        assert min(position[s] for s in orbit) == position[state]


# --- the orbit walk, called directly ------------------------------------


def _walk(names, lists, images=None, eq=()):
    """What _assignments yields when the k-th name's candidates are
    lists[k](frame): per complete assignment the values bound, the group
    elements fixing it and the first position bound anew; and the frame
    left behind."""
    frame, out = {"other": 0}, []
    candidates = lambda k: lists[k](frame)  # noqa: E731
    for fixing, changed in _assignments(names, candidates, frame, images=images, eq=eq):
        out.append((tuple(frame[n] for n in names), fixing, changed))
    return out, frame


def test_orbit_walk_with_no_names_yields_once():
    out, frame = _walk((), [], eq=(1, 2))
    assert out == [((), (1, 2), -1)]
    assert frame == {"other": 0}


def test_orbit_walk_skips_an_empty_list_at_a_middle_position():
    lists = [
        lambda frame: (1, 2, 3),
        lambda frame: () if frame["a"] == 2 else (7,),
        lambda frame: (4, 5),
    ]
    out, frame = _walk(("a", "b", "c"), lists)
    assert out == [
        ((1, 7, 4), (), -1),
        ((1, 7, 5), (), 2),
        ((3, 7, 4), (), 0),
        ((3, 7, 5), (), 2),
    ]
    assert frame == {"other": 0}


def test_orbit_walk_drops_a_group_element_that_fixes_nothing():
    a_list, b_list = ("x", "y", "z"), ("p", "q")
    # Element 1 swaps x and y and fixes the rest; element 2 swaps p and q.
    # The index maps are keyed by position: a's list, then b's.
    maps = {
        (0, 1): [1, 0, 2], (0, 2): [0, 1, 2],
        (1, 1): [0, 1], (1, 2): [1, 0],
    }
    lists = [lambda frame: a_list, lambda frame: b_list]
    out, frame = _walk(("a", "b"), lists, lambda k, g: maps[k, g], (1, 2))
    assert out == [(("x", "p"), (), -1), (("z", "p"), (1,), 0)]
    assert frame == {"other": 0}
    # An element that fixes no candidate anywhere leaves every assignment
    # but the ones it maps to an earlier one.
    swap = lambda k, g: [1, 0]  # noqa: E731
    lists = [lambda frame: ("x", "y"), lambda frame: ("p", "q")]
    out, frame = _walk(("a", "b"), lists, swap, (1,))
    assert out == [(("x", "p"), (), -1), (("x", "q"), (), 1)]
    assert frame == {"other": 0}
