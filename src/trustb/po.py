"""Proof obligations and their discharge by bounded enumeration.

Obligation kinds and naming:

* `event/label/INV`   the event preserves the invariant with that label;
  `INITIALISATION/label/INV` states establishment instead.
* `event/grdN/GRD`    the concrete event's guards imply the abstract
  guard grdN of the event it refines.
* `event/var/SIM`     the concrete event changes an abstract variable
  exactly as the abstract event it refines does.

Hypotheses.  For a preservation obligation the hypothesis is: the
instantiation's axioms, every invariant in the machine's resolved scope
EXCEPT the goal invariant itself, and the event's guards.  Assuming the
goal in its own pre-state is deliberately avoided: an invariant that is
monotone in the updated variables can never fail under that assumption,
and scopes whose invariants are jointly unsatisfiable at the chosen
bounds would make every obligation pass vacuously.  The establishment
form used here keeps each obligation falsifiable on exactly the states
where the remaining invariants hold.  Guard-strengthening and simulation
obligations keep the full invariant scope in their hypothesis.

Discharge enumerates all (state, binding) pairs at the chosen bounds in
canonical order: a verdict is `discharged` when the goal held in every
hypothesis-satisfying case, `failed` with the first counterexample
otherwise, and `vacuous` when no case satisfied the hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import NotSuperposition, UnresolvedReference
from .kernel import Env, eval_expr_frame, eval_pred_frame
from .runtime import (
    State,
    initial_state,
    param_bindings,
    reachable_states,
    state_universe,
)
from .syntax import (
    INIT_EVENT,
    Expr,
    Pred,
    free_idents_expr,
    free_idents_pred,
)
from .typecheck import EventInfo, TypedMachine

ALL_STATES = "all_invariant_states"
REACHABLE = "reachable_only"
STATE_SOURCES = (ALL_STATES, REACHABLE)

DISCHARGED = "discharged"
FAILED = "failed"
VACUOUS = "vacuous"


@dataclass(frozen=True)
class ProofObligation:
    name: str
    machine: str
    event: str
    kind: str  # "INV", "GRD" or "SIM"
    label: str  # invariant label, abstract guard label, or variable
    goal: Pred | None = None
    sim_expr: Expr | None = None  # abstract right-hand side for SIM
    note: str = ""


@dataclass
class Counterexample:
    """The first hypothesis-satisfying case on which a goal came out false."""

    state: State | None  # pre-state; None for an establishment obligation
    binding: tuple[tuple[str, "object"], ...]
    post: State | None
    expected: object | None = None  # SIM only: value the abstract action requires
    actual: object | None = None  # SIM only: value the concrete event produced

    def binding_dict(self) -> dict:
        return dict(self.binding)


@dataclass
class DischargeReport:
    po: ProofObligation
    verdict: str
    cases: int
    counterexample: Counterexample | None = None
    note: str = ""


def _goal_note(goal: Pred, tm: TypedMachine) -> str:
    if not (free_idents_pred(goal) & set(tm.variables)):
        return "goal references no machine variables"
    return ""


def generate_pos(
    tm: TypedMachine,
    include_refinement: bool = False,
    exclude_labels: frozenset[str] = frozenset(),
) -> list[ProofObligation]:
    """All obligations for a machine, in a fixed order: per event in
    machine order, invariants in scope order, then guard strengthening,
    then simulation."""
    scope = [(lbl, inv) for lbl, inv, _o in tm.invariant_scope if lbl not in exclude_labels]
    pos: list[ProofObligation] = []
    for name, info in tm.events.items():
        for lbl, inv in scope:
            pos.append(
                ProofObligation(
                    name=f"{name}/{lbl}/INV",
                    machine=tm.name,
                    event=name,
                    kind="INV",
                    label=lbl,
                    goal=inv.pred,
                    note=_goal_note(inv.pred, tm),
                )
            )
        if include_refinement and info.abstract is not None and not info.ast.is_init:
            for g in info.abstract.guards:
                pos.append(
                    ProofObligation(
                        name=f"{name}/{g.label}/GRD",
                        machine=tm.name,
                        event=name,
                        kind="GRD",
                        label=g.label,
                        goal=g.pred,
                    )
                )
            for act in info.abstract.actions:
                pos.append(
                    ProofObligation(
                        name=f"{name}/{act.variable}/SIM",
                        machine=tm.name,
                        event=name,
                        kind="SIM",
                        label=act.variable,
                        sim_expr=act.expr,
                    )
                )
    return pos


def refinement_pos(tm: TypedMachine) -> list[ProofObligation]:
    return [po for po in generate_pos(tm, include_refinement=True) if po.kind != "INV"]


# --- the discharge engine ------------------------------------------------------


@dataclass
class VacuityReport:
    """Whether a guard ever evaluated false on invariant-satisfying cases.

    A guard that never does is vacuous at these bounds: removing it
    admits no new behaviour, so it contributes nothing to the model's
    meaning here.  A vacuous guard with zero cases means no state even
    satisfied the invariants, which the caller should treat as its own
    warning.
    """

    event: str
    guard: str
    vacuous: bool
    cases: int
    witness: Counterexample | None = None


@dataclass
class GoalInvariantReport:
    """Where a designated goal invariant holds at the chosen bounds.

    The label is removed from the proof scope entirely; this report
    says on how many typed states (and whether on any reachable state)
    the predicate is actually true, which is information rather than an
    obligation.
    """

    label: str
    holds: int
    states: int
    holds_reachable: int
    reachable: int


@dataclass
class CheckResult:
    """What one walk over the pre-states found: the obligation reports in
    obligation order, the vacuity reports (empty unless asked for) and the
    goal-invariant report (None unless asked for)."""

    reports: list[DischargeReport]
    vacuity: list[VacuityReport]
    goal: GoalInvariantReport | None = None


class _Working:
    __slots__ = ("po", "cases", "failed", "counterexample")

    def __init__(self, po: ProofObligation):
        self.po = po
        self.cases = 0
        self.failed = False
        self.counterexample: Counterexample | None = None


def _state_iter(tm: TypedMachine, env: Env, state_source: str) -> Iterator[State]:
    if state_source == ALL_STATES:
        return state_universe(tm, env)
    if state_source == REACHABLE:
        return iter(reachable_states(tm, env))
    raise ValueError(f"unknown state source {state_source!r}; use one of {STATE_SOURCES}")


def _judge(
    targets: list[_Working],
    tm: TypedMachine,
    info: EventInfo,
    state: State,
    binding: dict,
    frame: dict,
    bound: int,
) -> None:
    """Count one enabled case against each target obligation and keep the
    first counterexample of each."""
    post_frame = None
    for w in targets:
        w.cases += 1
        if w.failed:
            continue
        po = w.po
        if po.kind == "GRD":
            if eval_pred_frame(po.goal, frame, bound):
                continue
            post_state = None
        else:
            if post_frame is None:
                post_frame = dict(frame)
                post_frame.update(
                    {a.variable: eval_expr_frame(a.expr, frame, bound) for a in info.ast.actions}
                )
            if po.kind == "INV":
                if eval_pred_frame(po.goal, post_frame, bound):
                    continue
            else:  # SIM
                expected = eval_expr_frame(po.sim_expr, frame, bound)
                actual = post_frame[po.label]
                if expected == actual:
                    continue
            post_state = State({v: post_frame[v] for v in tm.var_order})
        w.failed = True
        ce = Counterexample(State(dict(state.values)), tuple(sorted(binding.items())), post_state)
        if po.kind == "SIM":
            ce.expected = expected
            ce.actual = actual
        w.counterexample = ce


def _holds_on(code, states: Iterable[State], env: Env) -> tuple[int, int]:
    """On how many of the states a compiled invariant holds, and of how many."""
    bound = env.powerset_bound
    frame = dict(env.bindings)
    holds = total = 0
    for state in states:
        frame.update(state.values)
        total += 1
        if code(frame, bound):
            holds += 1
    return holds, total


def discharge_all(
    tm: TypedMachine,
    env: Env,
    pos: Iterable[ProofObligation] | None = None,
    state_source: str = ALL_STATES,
    exclude_labels: frozenset[str] = frozenset(),
    vacuity: bool = False,
    goal: str | None = None,
) -> CheckResult:
    """Discharge a batch of obligations in one walk over the pre-states; on
    the same walk, report vacuous guards if `vacuity` is set and count the
    states where the invariant labelled `goal` holds if one is given.

    Per state each invariant is evaluated at most once.  A preservation
    obligation's hypothesis then reduces to `the only false invariant
    outside exclude_labels, if any, is the obligation's own` plus the
    event's guards; vacuity looks only at states where every invariant holds, and
    there each guard is evaluated once per binding for both consumers.
    Counterexamples are the first in enumeration order, and case counts
    are exact.  The goal count covers every typed state and every
    reachable state, whichever the state source.
    """
    if pos is None:
        pos = generate_pos(tm, include_refinement=True, exclude_labels=exclude_labels)
    pos = list(pos)
    codes = dict(tm.invariant_code)
    if goal is not None and goal not in codes:
        raise UnresolvedReference("invariant", goal)
    bound = env.powerset_bound

    reports: list[DischargeReport] = []
    working: dict[str, _Working] = {}
    event_pos: dict[str, list[_Working]] = {}
    init = None
    for po in pos:
        if po.event == INIT_EVENT:
            # Establishment: a single case from the initial state, axioms assumed.
            if init is None:
                init = initial_state(tm, env)
                frame0 = dict(env.bindings)
                frame0.update(init.values)
            ok = eval_pred_frame(po.goal, frame0, bound)
            ce = None if ok else Counterexample(None, (), init)
            reports.append(DischargeReport(po, DISCHARGED if ok else FAILED, 1, ce, po.note))
        else:
            w = working[po.name] = _Working(po)
            event_pos.setdefault(po.event, []).append(w)

    vac_reps = {
        name: [VacuityReport(name, label, True, 0) for label, _code in info.guard_code]
        for name, info in tm.events.items()
        if vacuity and not info.ast.is_init
    }
    events = [
        (name, info, event_pos.get(name, []), vac_reps.get(name))
        for name, info in tm.events.items()
        if name in event_pos or name in vac_reps
    ]
    holds = states = 0
    if events or goal is not None:
        # The invariants some consumer needs, each evaluated once per state.
        checked = [
            (lbl, code)
            for lbl, code in tm.invariant_code
            if vacuity or lbl == goal or (working and lbl not in exclude_labels)
        ]
        drop_excluded = any(lbl in exclude_labels for lbl, _code in checked)
        vars_ = set(tm.variables)
        static = {
            name: None
            if any(free_idents_expr(d) & vars_ for d in info.param_domains.values())
            else list(param_bindings(info, State({}), env))
            for name, info, _ws, _vreps in events
        }
        frame = dict(env.bindings)
        for state in _state_iter(tm, env, state_source):
            frame.update(state.values)
            false_invs = [lbl for lbl, code in checked if not code(frame, bound)]
            states += 1
            if goal not in false_invs:
                holds += 1
            valid = vacuity and not false_invs
            if drop_excluded:
                false_invs = [lbl for lbl in false_invs if lbl not in exclude_labels]
            if len(false_invs) > 1:
                continue
            sole_false = false_invs[0] if false_invs else None
            for name, info, ws, vreps in events:
                # With one false invariant, the only obligation whose
                # hypothesis can hold is the one that excludes it: the
                # preservation obligation for that very label.
                if sole_false is None:
                    targets = ws
                else:
                    targets = [
                        w for w in ws if w.po.kind == "INV" and w.po.label == sole_false
                    ]
                if not targets and not valid:
                    continue
                bindings = static[name]
                if bindings is None:
                    bindings = param_bindings(info, state, env)
                guards = info.guard_code
                for binding in bindings:
                    frame.update(binding)
                    if valid:
                        truths = [code(frame, bound) for _label, code in guards]
                        for rep, ok in zip(vreps, truths):
                            rep.cases += 1
                            if not ok and rep.witness is None:
                                rep.vacuous = False
                                rep.witness = Counterexample(
                                    State(dict(state.values)),
                                    tuple(sorted(binding.items())),
                                    None,
                                )
                        enabled = all(truths)
                    else:
                        enabled = True
                        for _label, code in guards:
                            if not code(frame, bound):
                                enabled = False
                                break
                    if enabled and targets:
                        _judge(targets, tm, info, state, binding, frame, bound)
                    for p in binding:
                        frame.pop(p, None)

    for w in working.values():
        if w.failed:
            verdict = FAILED
        elif w.cases == 0:
            verdict = VACUOUS
        else:
            verdict = DISCHARGED
        reports.append(DischargeReport(w.po, verdict, w.cases, w.counterexample, w.po.note))
    by_name = {po.name: k for k, po in enumerate(pos)}
    reports.sort(key=lambda r: by_name[r.po.name])

    goal_rep = None
    if goal is not None:
        code = codes[goal]
        if state_source == REACHABLE:
            goal_rep = GoalInvariantReport(
                goal, *_holds_on(code, state_universe(tm, env), env), holds, states
            )
        else:
            goal_rep = GoalInvariantReport(
                goal, holds, states, *_holds_on(code, reachable_states(tm, env), env)
            )
    vacuity_reps = [rep for reps in vac_reps.values() for rep in reps]
    return CheckResult(reports, vacuity_reps, goal_rep)


def discharge(
    tm: TypedMachine,
    po: ProofObligation,
    env: Env,
    state_source: str = ALL_STATES,
) -> DischargeReport:
    return discharge_all(tm, env, [po], state_source).reports[0]


def check_machine(
    tm: TypedMachine,
    env: Env,
    state_source: str = ALL_STATES,
    exclude_labels: frozenset[str] = frozenset(),
) -> list[DischargeReport]:
    """Establishment and preservation obligations only."""
    pos = [
        po
        for po in generate_pos(tm, exclude_labels=exclude_labels)
        if po.kind == "INV"
    ]
    return discharge_all(tm, env, pos, state_source, exclude_labels).reports


def check_refinement(
    tm: TypedMachine,
    env: Env,
    state_source: str = ALL_STATES,
) -> list[DischargeReport]:
    """Guard-strengthening and simulation obligations against tm's abstraction.

    Raises NotSuperposition when the machines do not even line up
    structurally (missing abstraction, lost parameters).
    """
    if tm.refines is None:
        raise NotSuperposition(f"machine '{tm.name}' refines nothing")
    for info in tm.events.values():
        if info.abstract is None or info.ast.is_init:
            continue
        lost = [p for p in info.abstract.params if p not in info.ast.params]
        if lost:
            raise NotSuperposition(
                f"event '{info.name}' drops abstract parameters: {', '.join(lost)}"
            )
    pos = refinement_pos(tm)
    return discharge_all(tm, env, pos, state_source).reports


def detect_vacuous_guards(
    tm: TypedMachine,
    env: Env,
    state_source: str = ALL_STATES,
) -> list[VacuityReport]:
    return discharge_all(tm, env, [], state_source, vacuity=True).vacuity


def goal_invariant_report(
    tm: TypedMachine, env: Env, label: str
) -> GoalInvariantReport:
    return discharge_all(tm, env, [], goal=label).goal
