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

Prefix caching.  The walk does not decide a predicate again while its
inputs stay the same.  A variable counts as unchanged only when the state
holds the very object the previous state held: an identical object is the
same value, and anything else is evaluated again.  state_universe varies
the last variable fastest and hands out memoised candidate values, so
consecutive states share the objects of their common prefix; the reachable
states share the objects of every variable an event left alone.

* Invariants keep a decided depth.  An invariant runs on a frame that holds
  only the constants; each state variable enters it on its first read, and
  the run records one past the deepest position (in declaration order) it
  read.  Its truth stands while the walk's first changed position is at or
  beyond that depth.  A run that stops before reading a late variable, as
  a quantifier does when it finds its answer early, is thus not repeated
  when only that variable changes.  Evaluation order and short-circuiting
  are those of a plain evaluation, so a predicate that raises does so in
  the state where it would if it ran in every state.
* Each event's binding list and each group of its guards depends on a
  prefix of the state variables, read statically, and is kept until a
  state changes a variable inside that prefix.
* A case reuses what is already decided.  An INV goal none of whose
  variables the event's actions gave a different value is as true after
  the event as before it, which the walk already knows.  A GRD goal that is
  one of the concrete event's own guards holds, since every case passed
  those guards.  A SIM whose abstract expression is the one the concrete
  action assigns to that variable holds.  Each case is still counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import NotSuperposition, UnboundIdentifier, UnresolvedReference
from .kernel import FETCH, Env, eval_expr_frame, eval_pred_frame
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
    __slots__ = ("po", "cases", "failed", "counterexample", "given", "pre", "reads")

    def __init__(self, po: ProofObligation, given: bool, pre: int | None):
        self.po = po
        self.cases = 0
        self.failed = False
        self.counterexample: Counterexample | None = None
        self.given = given  # the goal holds in every case (see _given)
        # For INV: where the walk's truths keep the goal's pre-state truth,
        # if they do, and the variables the goal reads.
        self.pre = pre
        self.reads = free_idents_pred(po.goal) if po.kind == "INV" else frozenset()


def _given(po: ProofObligation, info: EventInfo) -> bool:
    """Whether a GRD goal is one of the concrete event's own guards, all of
    which hold in every case, or a SIM's abstract expression is the one the
    concrete action assigns to that variable."""
    if po.kind == "GRD":
        return any(po.goal == g.pred for g in info.ast.guards)
    if po.kind == "SIM":
        return any(a.variable == po.label and a.expr == po.sim_expr for a in info.ast.actions)
    return False


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
    truths: list[bool],
) -> None:
    """Count one enabled case against each target obligation and keep the
    first counterexample of each.  `truths` holds the pre-state truths of
    the walk's invariants: an INV goal none of whose variables the actions
    gave a different value is as true after the event as before it."""
    post_frame = moved = None
    for w in targets:
        w.cases += 1
        if w.failed or w.given:
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
                if moved is None:
                    moved = {
                        a.variable
                        for a in info.ast.actions
                        if post_frame[a.variable] != frame[a.variable]
                    }
                if w.pre is not None and moved.isdisjoint(w.reads):
                    if truths[w.pre]:
                        continue
                elif eval_pred_frame(po.goal, post_frame, bound):
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


class _Truths:
    """Invariants' truths in the walk's current state, each decided again
    only when the walk changes a variable it read on its last run (see the
    module docstring).  A run's frame holds the constants; a state variable
    enters it through the kernel's FETCH hook on first read and leaves it
    when the run ends.  Until then the run would read, and so decide, the
    same again: every variable before its decided depth is the very object
    it read."""

    __slots__ = ("codes", "truths", "depths", "frame", "bound", "position", "current", "fetched")

    def __init__(self, codes: list, order: tuple[str, ...], env: Env):
        self.codes = codes
        self.truths = [True] * len(codes)
        self.depths = [0] * len(codes)  # the first state (changed -1) decides all
        self.bound = env.powerset_bound
        self.position = {v: k + 1 for k, v in enumerate(order)}
        # The hook refers to these two lists, not to self, so that the frame
        # and self form no reference cycle.
        current: list[dict] = [{}]  # the values of the state runs read
        fetched: list[str] = []

        def fetch(frame: dict, name: str):
            try:
                value = frame[name] = current[0][name]
            except KeyError:
                raise UnboundIdentifier(name) from None
            fetched.append(name)
            return value

        self.current, self.fetched = current, fetched
        self.frame = dict(env.bindings)
        self.frame[FETCH] = fetch

    def at(self, state: State, changed: int) -> list[bool]:
        """The truths in `state`, whose first changed position is `changed`."""
        depths = self.depths
        self.current[0] = state.values
        for k, depth in enumerate(depths):
            if depth > changed:
                frame, fetched, position = self.frame, self.fetched, self.position
                self.truths[k] = self.codes[k](frame, self.bound)
                depth = 0
                for name in fetched:
                    del frame[name]
                    if position[name] > depth:
                        depth = position[name]
                fetched.clear()
                depths[k] = depth
        return self.truths


def _holds_on(code, states: Iterable[State], order: tuple[str, ...], env: Env) -> tuple[int, int]:
    """On how many of the states a compiled invariant holds, and of how many."""
    truths = _Truths([code], order, env)
    holds = total = 0
    for state, changed in _with_changes(states, order):
        total += 1
        if truths.at(state, changed)[0]:
            holds += 1
    return holds, total


def _prefix_len(idents: set[str], order: tuple[str, ...]) -> int:
    """How many leading state variables a predicate depends on: one past the
    position in `order` of the last variable among `idents`, 0 if none."""
    return max((k + 1 for k, v in enumerate(order) if v in idents), default=0)


def _with_changes(states: Iterable[State], order: tuple[str, ...]) -> Iterator[tuple[State, int]]:
    """Each state with the position of the first variable whose value is not
    the very object the previous state held: -1 for the first state,
    len(order) if every object is the same."""
    prev = None
    for state in states:
        cur = [state.values[v] for v in order]
        if prev is None:
            changed = -1
        else:
            changed = next((k for k, (a, b) in enumerate(zip(cur, prev)) if a is not b), len(order))
        prev = cur
        yield state, changed


class _Bindings:
    """One event's parameter bindings and, after each guard group, those
    that pass every guard so far, in binding order.

    lists[0] holds the bindings; lists[k] holds those of lists[k - 1] on
    which every guard of groups[k - 1] holds, each guard tried in guard
    order and only while the ones before it held.  A guard joins the group
    of the guard before it when they depend on the same variable prefix,
    counting the parameter domains and every earlier guard as well as its
    own reads.  A list is recomputed, lazily and from the one before it,
    only after the walk has changed a variable inside its prefix.
    """

    __slots__ = ("info", "env", "groups", "lists", "fresh", "stale_from")

    def __init__(self, info: EventInfo, order: tuple[str, ...], env: Env):
        self.info = info
        self.env = env
        reads = _prefix_len(set().union(*map(free_idents_expr, info.param_domains.values())), order)
        prefixes = [reads]
        self.groups: list[list] = []
        for guard, (_label, code) in zip(info.ast.guards, info.guard_code):
            reads = max(reads, _prefix_len(free_idents_pred(guard.pred), order))
            if self.groups and reads == prefixes[-1]:
                self.groups[-1].append(code)
            else:
                prefixes.append(reads)
                self.groups.append([code])
        self.lists: list[list[dict]] = [[] for _ in prefixes]
        self.fresh = 0  # lists[:fresh] hold for the current state
        # stale_from[changed + 1]: the first list a change at `changed` voids
        self.stale_from = [
            next((k for k, n in enumerate(prefixes) if n > changed), len(prefixes))
            for changed in range(-1, len(order) + 1)
        ]

    def moved(self, changed: int) -> None:
        """The walk moved to a state whose first changed variable is `changed`."""
        self.fresh = min(self.fresh, self.stale_from[changed + 1])

    def bindings(self, state: State, frame: dict, bound: int) -> list[dict]:
        """Every binding in `state`, whose values `frame` holds."""
        return self._upto(0, state, frame, bound)

    def enabled(self, state: State, frame: dict, bound: int) -> list[dict]:
        """The bindings in `state` on which every guard holds."""
        return self._upto(len(self.lists) - 1, state, frame, bound)

    def _upto(self, k: int, state: State, frame: dict, bound: int) -> list[dict]:
        lists = self.lists
        for i in range(self.fresh, k + 1):
            if i == 0:
                lists[0] = list(param_bindings(self.info, state, self.env))
                continue
            codes = self.groups[i - 1]
            kept = []
            for binding in lists[i - 1]:
                frame.update(binding)
                for code in codes:
                    if not code(frame, bound):
                        break
                else:
                    kept.append(binding)
            lists[i] = kept
        self.fresh = max(self.fresh, k + 1)
        return lists[k]


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

    Each invariant is decided again only when the walk changes a variable
    it read on its last run, and each case reuses the pre-state truths and
    the guards it already has (see the module docstring).  A preservation
    obligation's hypothesis then reduces to `the only false invariant
    outside exclude_labels, if any, is the obligation's own` plus the
    event's guards.  The bindings that pass the guards come from each
    event's _Bindings, which evaluates a guard once per binding and per run
    of states that agree on what it, the guards before it and the
    parameter domains read; guards still run in guard order, each only
    where the ones before it held.  Vacuity looks only at states where
    every invariant holds, and there each guard is evaluated on every
    binding for both consumers.  Counterexamples are the first in
    enumeration order, and case counts are exact.  A guard or an invariant
    that raises does so in the same state as it would if every predicate
    ran in every state.  The goal count covers every typed state and every
    reachable state, whichever the state source, and reads its truths
    through the same decided depths.
    """
    if pos is None:
        pos = generate_pos(tm, include_refinement=True, exclude_labels=exclude_labels)
    pos = list(pos)
    codes = dict(tm.invariant_code)
    if goal is not None and goal not in codes:
        raise UnresolvedReference("invariant", goal)
    bound = env.powerset_bound

    reports: list[DischargeReport] = []
    # The invariants some consumer needs, in scope order.
    walked = any(po.event != INIT_EVENT for po in pos)
    checked = [
        (lbl, code)
        for lbl, code in tm.invariant_code
        if vacuity or lbl == goal or (walked and lbl not in exclude_labels)
    ]
    labels = [lbl for lbl, _code in checked]
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
            info = tm.events.get(po.event)
            pre = labels.index(po.label) if po.kind == "INV" and po.label in labels else None
            w = working[po.name] = _Working(po, info is not None and _given(po, info), pre)
            event_pos.setdefault(po.event, []).append(w)

    vac_reps = {
        name: [VacuityReport(name, label, True, 0) for label, _code in info.guard_code]
        for name, info in tm.events.items()
        if vacuity and not info.ast.is_init
    }
    order = tm.var_order
    events = [
        (name, info, event_pos.get(name, []), vac_reps.get(name), _Bindings(info, order, env))
        for name, info in tm.events.items()
        if name in event_pos or name in vac_reps
    ]
    holds = states = 0
    if events or goal is not None:
        decided = _Truths([code for _lbl, code in checked], order, env)
        drop_excluded = any(lbl in exclude_labels for lbl in labels)
        frame = dict(env.bindings)
        for state, changed in _with_changes(_state_iter(tm, env, state_source), order):
            frame.update(state.values)
            truths = decided.at(state, changed)
            for *_ev, cache in events:
                cache.moved(changed)
            false_invs = [lbl for lbl, ok in zip(labels, truths) if not ok]
            states += 1
            if goal not in false_invs:
                holds += 1
            valid = vacuity and not false_invs
            if drop_excluded:
                false_invs = [lbl for lbl in false_invs if lbl not in exclude_labels]
            if len(false_invs) > 1:
                continue
            sole_false = false_invs[0] if false_invs else None
            for name, info, ws, vreps, cache in events:
                # With one false invariant, the only obligation whose
                # hypothesis can hold is the one that excludes it: the
                # preservation obligation for that very label.
                if sole_false is None:
                    targets = ws
                else:
                    targets = [
                        w for w in ws if w.po.kind == "INV" and w.po.label == sole_false
                    ]
                if valid:
                    # Vacuity needs every guard's truth on every binding.
                    guards = info.guard_code
                    for binding in cache.bindings(state, frame, bound):
                        frame.update(binding)
                        oks = [code(frame, bound) for _label, code in guards]
                        for rep, ok in zip(vreps, oks):
                            rep.cases += 1
                            if not ok and rep.witness is None:
                                rep.vacuous = False
                                rep.witness = Counterexample(
                                    State(dict(state.values)),
                                    tuple(sorted(binding.items())),
                                    None,
                                )
                        if targets and all(oks):
                            _judge(targets, tm, info, state, binding, frame, bound, truths)
                elif targets:
                    for binding in cache.enabled(state, frame, bound):
                        frame.update(binding)
                        _judge(targets, tm, info, state, binding, frame, bound, truths)
                for p in info.ast.params:
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
                goal, *_holds_on(code, state_universe(tm, env), order, env), holds, states
            )
        else:
            goal_rep = GoalInvariantReport(
                goal, holds, states, *_holds_on(code, reachable_states(tm, env), order, env)
            )
    vacuity_reps = [rep for reps in vac_reps.values() for rep in reps]
    return CheckResult(reports, vacuity_reps, goal_rep)


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
    pos = [po for po in generate_pos(tm, include_refinement=True) if po.kind != "INV"]
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
