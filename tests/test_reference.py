"""po.discharge_all against a naive reference discharger, field by field.

The reference states the discharge semantics of the po module docstring the
slow way, on the public API only: every invariant, guard and goal is
decided afresh on a fresh frame in every state of state_universe (or of
reachable_states), with no decided depths, no reuse of pre-state truths, no
given goals and no symmetry.  Verdicts, case counts, counterexamples,
vacuity reports and the goal report must all agree, and where one raises,
the other must raise the same error.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from trustb.dsl import parse_file
from trustb.errors import ApplicationOutsideDomain, ScenarioError, TrustbError
from trustb.kernel import eval_expr_frame, eval_pred_frame
from trustb.models import VARIANTS, BoundSpec, Mutation, build_model, machine_setup
from trustb.po import (
    ALL_STATES,
    DISCHARGED,
    FAILED,
    REACHABLE,
    VACUOUS,
    CheckResult,
    Counterexample,
    DischargeReport,
    GoalInvariantReport,
    VacuityReport,
    check_refinement,
    discharge_all,
    generate_pos,
)
from trustb.runtime import (
    enumerate_instantiations,
    event_frame,
    fire_event,
    initial_state,
    invariant_report,
    param_bindings,
    reachable_states,
    state_universe,
)
from trustb.syntax import INIT_EVENT
from trustb.typecheck import elaborate

import test_po
import test_runtime


def reference(tm, env, pos, state_source=ALL_STATES, exclude=frozenset(), vacuity=False,
              goal=None) -> CheckResult:
    bound = env.powerset_bound

    def holds(pred, state, binding=None):
        return eval_pred_frame(pred, event_frame(env, state, binding), bound)

    scope = [(lbl, inv.pred) for lbl, inv, _origin in tm.invariant_scope]
    cases = {po.name: 0 for po in pos}
    found: dict[str, Counterexample] = {}
    vac = {
        (name, g.label): VacuityReport(name, g.label, True, 0)
        for name, info in tm.events.items()
        if vacuity and not info.ast.is_init
        for g in info.ast.guards
    }
    init = initial_state(tm, env)
    for po in pos:
        if po.event == INIT_EVENT and not holds(po.goal, init):
            found[po.name] = Counterexample(None, (), init)
    walk = [po for po in pos if po.event != INIT_EVENT]
    states = state_universe(tm, env) if state_source == ALL_STATES else reachable_states(tm, env)
    for state in states:
        false = {lbl for lbl, pred in scope if not holds(pred, state)}
        for name, info in tm.events.items():
            mine = [po for po in walk if po.event == name]
            if info.ast.is_init or not (mine or vacuity):
                continue
            for binding in param_bindings(info, state, env):
                b = tuple(sorted(binding.items()))
                if vacuity and not false:
                    oks = [holds(g.pred, state, binding) for g in info.ast.guards]
                    for g, ok in zip(info.ast.guards, oks):
                        rep = vac[name, g.label]
                        rep.cases += 1
                        if not ok and rep.witness is None:
                            rep.vacuous, rep.witness = False, Counterexample(state, b, None)
                    enabled = all(oks)
                else:
                    enabled = all(holds(g.pred, state, binding) for g in info.ast.guards)
                if not enabled:
                    continue
                post = fire_event(tm, name, state, binding, env, check_guards=False)
                for po in mine:
                    if false - exclude - ({po.label} if po.kind == "INV" else set()):
                        continue
                    cases[po.name] += 1
                    if po.name in found:
                        continue
                    if po.kind == "INV" and not holds(po.goal, post):
                        found[po.name] = Counterexample(state, b, post)
                    elif po.kind == "GRD" and not holds(po.goal, state, binding):
                        found[po.name] = Counterexample(state, b, None)
                    elif po.kind == "SIM":
                        expected = eval_expr_frame(po.sim_expr, event_frame(env, state, binding))
                        if expected != post.values[po.label]:
                            found[po.name] = Counterexample(
                                state, b, post, expected, post.values[po.label]
                            )
    reports = []
    for po in pos:
        n = 1 if po.event == INIT_EVENT else cases[po.name]
        verdict = FAILED if po.name in found else VACUOUS if n == 0 else DISCHARGED
        reports.append(DischargeReport(po, verdict, n, found.get(po.name), po.note))
    report = None
    if goal is not None:
        pred = tm.invariant(goal).pred
        typed, reach = list(state_universe(tm, env)), reachable_states(tm, env)
        report = GoalInvariantReport(
            goal, sum(holds(pred, s) for s in typed), len(typed),
            sum(holds(pred, s) for s in reach), len(reach),
        )
    return CheckResult(reports, list(vac.values()), report)


def _outcome(run):
    try:
        return run()
    except TrustbError as err:
        return type(err), str(err)


def _agree(tm, env, state_source=ALL_STATES, goal=None):
    exclude = frozenset({goal}) if goal else frozenset()
    pos = generate_pos(tm, include_refinement=tm.refines is not None, goal=goal)
    expected = _outcome(lambda: reference(tm, env, pos, state_source, exclude, True, goal))
    assert _outcome(lambda: discharge_all(tm, env, pos, state_source, True, goal)) == expected
    return expected


MUTATIONS = {("base", 1): "drop:grd7", ("base", 2): "drop:grd8", ("rel", 2): "drop:grd8"}


def _cells():
    for variant in VARIANTS:
        for level in (0, 1, 2):
            try:
                build_model(level, variant)
            except ScenarioError:
                continue
            for bounds in ("1,2,1", "1,1,2"):
                modes = ["plain", "goal", "reachable_goal"]
                if (variant, level) in MUTATIONS:
                    modes.append("mutate")
                if variant == "nopart":
                    modes.append("overlap")
                for mode in modes:
                    yield variant, level, bounds, mode


@pytest.mark.parametrize("variant,level,bounds,mode", list(_cells()))
def test_discharge_all_matches_the_reference(variant, level, bounds, mode):
    mutate = Mutation.parse(MUTATIONS[variant, level]) if mode == "mutate" else None
    tm, _inst, env = machine_setup(level, BoundSpec.parse(bounds), variant, mutate,
                                   overlap=mode == "overlap")
    goal = tm.invariant_scope[-1][0] if mode.endswith("goal") else None
    source = REACHABLE if mode == "reachable_goal" else ALL_STATES
    result = _agree(tm, env, source, goal)
    assert isinstance(result, CheckResult)


# Pair's concrete grd2 implies the abstract one only through inv3, so its
# guard-strengthening goal is evaluated in each case; where a and b are
# incomparable both inv3 and inv4 are false.
PAIR = """CONTEXT c
SETS S
END
MACHINE Base
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
  @grd2: x /: a
THEN
  @act1: a := a \\/ {x}
END
END
MACHINE Pair
REFINES Base
SEES c
VARIABLES a b
INVARIANTS
  @inv2: b : pow(S)
  @inv3: a <: b
  @inv4: b <: a
EVENT INITIALISATION
THEN
  @act1: a := {}
  @act2: b := {}
END
EVENT add
ANY x
WHERE
  @grd1: x : S
  @grd2: x /: b
THEN
  @act1: a := a \\/ {x}
  @act2: b := b \\/ {x}
END
END
"""

FILE_MODELS = {
    "hoist": (test_po.HOISTING, "Hoist", {"S": 2}),
    "branch": (test_po.BRANCHING, "Branch", {"S": 3}),
    "guarded": (test_po.GUARDED, "Guarded", {"S": 2}),
    "partial": (test_po.PARTIAL, "Partial", {"S": 2}),
    "picks": (test_runtime.PICKS, "toy2", {"COLORS": 2}),
    "look": (test_runtime.PARTIAL, "Partial", {"S": 2}),
    "pair": (PAIR, "Pair", {"S": 2}),
}


@pytest.mark.parametrize("name", sorted(FILE_MODELS))
def test_file_models_match_the_reference(name):
    text, machine, sizes = FILE_MODELS[name]
    tm = elaborate(parse_file(text)).machine(machine)
    for inst in enumerate_instantiations(tm.context, sizes):
        for source in (ALL_STATES, REACHABLE):
            _agree(tm, inst.env(), source, tm.invariant_scope[-1][0])
            _agree(tm, inst.env(), source)


def test_pair_has_a_state_with_two_false_invariants_and_an_evaluated_guard_goal():
    tm = elaborate(parse_file(PAIR)).machine("Pair")
    [inst] = enumerate_instantiations(tm.context, {"S": 2})
    env = inst.env()
    false_counts = [
        sum(not ok for _lbl, ok in invariant_report(tm, state, env))
        for state in state_universe(tm, env)
    ]
    assert max(false_counts) == 2
    info = tm.event("add")
    [po] = [p for p in generate_pos(tm, include_refinement=True) if p.name == "add/grd2/GRD"]
    assert all(po.goal != g.pred for g in info.ast.guards)
    [rep] = discharge_all(tm, env, [po]).reports
    assert (rep.verdict, rep.cases) == (DISCHARGED, 4)


# --- random file models -------------------------------------------------------

VAR_TYPES = {"pow": "pow(S)", "rel": "S <-> {}", "pfun": "S +-> {}", "tfun": "S --> {}"}


@st.composite
def file_models(draw):
    """A small well-typed model file, the name of the machine to check and
    its carrier sizes: carriers S and maybe T, maybe a constant k that pins
    an atom of S, one or two variables, and one event `ev` with parameters
    x : S and maybe y : T; half of them refine a machine that has only the
    first variable.  Guards and invariants come from a small pool."""
    sizes = {"S": draw(st.integers(1, 2))}
    if draw(st.booleans()):
        sizes["T"] = draw(st.integers(1, 2))
    carrier_t = "T" if "T" in sizes else "S"
    pinned = ["k"] if draw(st.booleans()) else []
    kinds = draw(st.lists(st.sampled_from(sorted(VAR_TYPES)), min_size=1, max_size=2))
    names = [f"v{n}" for n in range(len(kinds))]
    params = ["x", "y"] if draw(st.booleans()) else ["x"]
    refines = draw(st.booleans())

    def atom(n: int, s: list[str], t: list[str]) -> str:
        """A predicate on variable n reading elements s of S and t of T."""
        v, a, b = names[n], draw(st.sampled_from(s)), draw(st.sampled_from(t))
        peers = [w for w in names[: n + 1] if w != v]
        if kinds[n] == "pow":
            forms = [f"{a} : {v}", f"{{{a}}} <: {v}", f"{v} <: {{{a}}}"]
            forms += [f"{v} <: {w}" for w in peers if kinds[names.index(w)] == "pow"]
        else:
            forms = [f"{a} : dom({v})", f"{b} : {v}[{{{a}}}]", f"{{{a} |-> {b}}} <: {v}",
                     f"{v}({a}) = {b}", f"({a} : dom({v}) => {v}({a}) = {b})"]
            forms += [f"{v} <: {w}" for w in peers if kinds[names.index(w)] != "pow"]
            forms += [f"dom({v}) <: {w}" for w in peers if kinds[names.index(w)] == "pow"]
        return draw(st.sampled_from(forms))

    def pred(last: int, s: list[str], t: list[str]) -> str:
        """A predicate on variables 0..last: an atom, an implication whose
        right side reads a variable at or after its left side's, or a
        quantifier over z : S and w : T around either."""
        form = draw(st.sampled_from(["atom", "implies", "forall", "exists"]))
        if form in ("forall", "exists") or not (s and t):
            s, t = s + ["z"], t + ["w"]
        first = draw(st.integers(0, last))
        body = atom(first, s, t)
        if form == "implies" or draw(st.booleans()):
            body = f"({body} => {atom(draw(st.integers(first, last)), s, t)})"
        if "z" not in s:
            return body
        if form == "exists":
            return f"(#z, w . z : S & w : {carrier_t} & {body})"
        return f"(!z, w . z : S & w : {carrier_t} => {body})"

    def action(n: int, s: list[str], t: list[str]) -> str:
        """A right-hand side for variable n reading elements s of S and t of T."""
        if kinds[n] != "pow" and not t:
            return "{}"
        v, a = names[n], draw(st.sampled_from(s))
        item = a if kinds[n] == "pow" else f"{a} |-> {draw(st.sampled_from(t))}"
        return draw(st.sampled_from([f"{v} \\/ {{{item}}}", f"{v} \\ {{{item}}}",
                                     f"{{{item}}}", "{}"]))

    def machine(name: str, count: int, abstract: str | None, inv_from: int) -> str:
        s, t = pinned, pinned if carrier_t == "S" else []
        invs = [f"{v} : {VAR_TYPES[kind].format(carrier_t)}" for v, kind in zip(names, kinds)]
        invs = invs[:count]
        if abstract is not None:
            invs = invs[1:]
        invs += [pred(count - 1, s, t) for _ in range(draw(st.integers(1, 2)))]
        s = ["x"] + pinned
        t = ["y"] if "y" in params else s if carrier_t == "S" else []
        guards = ["x : S"] + ([f"y : {carrier_t}"] if "y" in params else [])
        guards += [pred(count - 1, s, t) for _ in range(draw(st.integers(0, 2)))]
        # An event assigns the first variable and maybe the others.
        acts = [f"{v} := {action(n, s, t)}" for n, v in enumerate(names[:count])
                if n == 0 or draw(st.booleans())]
        lines = [f"MACHINE {name}"] + ([f"REFINES {abstract}"] if abstract else [])
        lines += ["SEES ctx", "VARIABLES " + " ".join(names[:count]), "INVARIANTS"]
        lines += [f"  @inv{inv_from + n}: {inv}" for n, inv in enumerate(invs)]
        lines += ["EVENT INITIALISATION", "THEN"]
        lines += [f"  @act{n + 1}: {v} := {{}}" for n, v in enumerate(names[:count])]
        lines += ["END", "EVENT ev", "ANY " + " ".join(params), "WHERE"]
        lines += [f"  @grd{n + 1}: {g}" for n, g in enumerate(guards)]
        lines += ["THEN"] + [f"  @act{n + 1}: {act}" for n, act in enumerate(acts)]
        return "\n".join(lines + ["END", "END", ""])

    context = ["CONTEXT ctx", "SETS " + " ".join(sizes)]
    if pinned:
        context += ["CONSTANTS k", "AXIOMS", "  @axm1: k : S"]
    text = "\n".join(context + ["END", ""])
    if refines:
        text += machine("A", 1, None, 1) + machine("M", len(names), "A", 10)
    else:
        text += machine("M", len(names), None, 1)
    return text, "M", sizes


# ev's action reads no variable but assigns v0, so whether it changes v0
# depends on v0's value: a post memo keyed by what the actions read alone
# would carry the first state's moved set (nothing moved, as v0 = {} there)
# to states where v0 is not {}, and take inv3 as true after ev there.
ASSIGNS_UNREAD = (
    """CONTEXT ctx
SETS S T
END
MACHINE M
SEES ctx
VARIABLES v0 v1
INVARIANTS
  @inv1: v0 : S +-> T
  @inv2: v1 : S +-> T
  @inv3: (!z, w . z : S & w : T => (z : dom(v0) => z : dom(v1)))
EVENT INITIALISATION
THEN
  @act1: v0 := {}
  @act2: v1 := {}
END
EVENT ev
ANY x
WHERE
  @grd1: x : S
THEN
  @act1: v0 := {}
END
END
""",
    "M",
    {"S": 1, "T": 1},
)


# In the first typed state inv3 and inv4 are both false, so no obligation
# of ev has its hypothesis there; ev's guards still run in it, and grd2
# raises on w = {}, as the reference's does.
GUARDS_EVERYWHERE = (
    """CONTEXT ctx
SETS S
END
MACHINE M
SEES ctx
VARIABLES v w
INVARIANTS
  @inv1: v : S +-> S
  @inv2: w : S +-> S
  @inv3: w /= {}
  @inv4: v /= {}
EVENT INITIALISATION
THEN
  @act1: v := {}
  @act2: w := {}
END
EVENT ev
ANY x
WHERE
  @grd1: x : S
  @grd2: w(x) = x
THEN
  @act1: v := v
END
END
""",
    "M",
    {"S": 2},
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(file_models())
@example(ASSIGNS_UNREAD)
@example(GUARDS_EVERYWHERE)
def test_random_file_models_match_the_reference(model):
    text, machine, sizes = model
    tm = elaborate(parse_file(text)).machine(machine)
    goal = tm.invariant_scope[-1][0]
    for inst in enumerate_instantiations(tm.context, sizes):
        _agree(tm, inst.env(), ALL_STATES)
        _agree(tm, inst.env(), ALL_STATES, goal)
        _agree(tm, inst.env(), REACHABLE, goal)


# --- where the walk and the reference still part ------------------------------
#
# In each model the reference raises on an ill-defined application, and the
# walk raises another error or none.  Each is a gate for the day
# undefinedness becomes a verdict of its own.

# grd2 raises on x = s2 when v = {}, and the action on x = c = s1, the first
# binding.  The walk runs each guard over every binding before it judges a
# case, so grd2 raises first; the reference fires x = s1 before it reads
# grd2 on x = s2.
GUARD_BEFORE_ACTION = """CONTEXT ctx
SETS S
CONSTANTS c
AXIOMS
  @axm1: c : S
END
MACHINE M
SEES ctx
VARIABLES v
INVARIANTS
  @inv1: v : S +-> S
EVENT INITIALISATION
THEN
  @act1: v := {}
END
EVENT ev
ANY x
WHERE
  @grd1: x : S
  @grd2: x /= c => v(x) = x
THEN
  @act1: v := {x |-> v(x)}
END
END
"""

# B's ev is A's, so its guard-strengthening and simulation goals are given
# and no case runs the action, which raises on w = {}; the reference fires
# every enabled case.
GIVEN_REFINEMENT = """CONTEXT ctx
SETS S
END
MACHINE A
SEES ctx
VARIABLES v w
INVARIANTS
  @inv1: v : S +-> S
  @inv2: w : S +-> S
EVENT INITIALISATION
THEN
  @act1: v := {}
  @act2: w := {}
END
EVENT ev
ANY x
WHERE
  @grd1: x : S
THEN
  @act1: v := {x |-> w(x)}
END
END
MACHINE B
REFINES A
SEES ctx
VARIABLES v w
EVENT INITIALISATION
THEN
  @act1: v := {}
  @act2: w := {}
END
EVENT ev
ANY x
WHERE
  @grd1: x : S
THEN
  @act1: v := {x |-> w(x)}
END
END
"""


@pytest.mark.xfail(strict=True, reason="the walk runs a guard on every binding before any case")
def test_a_guard_that_raises_on_a_later_binding_than_the_action():
    tm = elaborate(parse_file(GUARD_BEFORE_ACTION)).machine("M")
    env = enumerate_instantiations(tm.context, {"S": 2})[0].env()
    pos = generate_pos(tm)
    expected = _outcome(lambda: reference(tm, env, pos))
    assert expected == (ApplicationOutsideDomain, "application outside domain: {} applied to s1")
    assert _outcome(lambda: discharge_all(tm, env, pos)) == expected


@pytest.mark.xfail(strict=True, reason="a case whose every goal is given runs no action")
def test_a_refinement_whose_every_goal_is_given_runs_its_actions():
    tm = elaborate(parse_file(GIVEN_REFINEMENT)).machine("B")
    env = enumerate_instantiations(tm.context, {"S": 2})[0].env()
    pos = [po for po in generate_pos(tm, include_refinement=True) if po.kind != "INV"]
    expected = _outcome(lambda: reference(tm, env, pos).reports)
    assert expected == (ApplicationOutsideDomain, "application outside domain: {} applied to s1")
    assert _outcome(lambda: check_refinement(tm, env)) == expected
