"""Proof obligations and their discharge by bounded enumeration.

Obligation kinds and naming:

* `event/label/INV`   the event preserves the invariant with that label;
  `INITIALISATION/label/INV` states establishment instead.
* `event/grdN/GRD`    the concrete event's guards imply the abstract
  guard grdN of the event it refines.
* `event/var/SIM`     the concrete event changes an abstract variable
  exactly as the abstract event it refines does.

Hypotheses.  An obligation assumes the instantiation's axioms, the
invariants its ProofObligation.hypothesis lists, and the event's guards (an
INITIALISATION event has none).  generate_pos alone sets that field, and it
is the one statement of which invariants an obligation assumes: none for
establishment, the machine's resolved scope without the obligation's own
invariant for preservation, and the whole scope for guard strengthening and
simulation; never the goal invariant.  Assuming a preservation goal in its
own pre-state is deliberately avoided: an invariant that is monotone in the
updated variables can never fail under that assumption, and scopes whose
invariants are jointly unsatisfiable at the chosen bounds would make every
obligation pass vacuously.  This form keeps each obligation falsifiable on
exactly the states where the remaining invariants hold.

The goal invariant.  A check may name one invariant as its goal
(generate_pos's and discharge_all's `goal`, the CLI's --goal-invariant).
That invariant then has no obligation and is in no hypothesis, and the
walk reports instead on how many typed and reachable states it holds
(GoalInvariantReport).

Discharge enumerates all (state, binding) pairs at the chosen bounds in
canonical order: a verdict is `discharged` when the goal held in every
hypothesis-satisfying case, `failed` with the first counterexample
otherwise, and `vacuous` when no case satisfied the hypothesis.

Symmetry.  Over all typed states the walk visits one state per orbit of
runtime.symmetry_group, the least in canonical order (runtime.state_orbits),
and counts every case, vacuity case and goal-count state it finds there as
many times as the orbit has states.  This is exact.  A group element maps
each case to a case of its image state whose hypothesis and goal have the
same truth, and an evaluation that raises in a state raises in its image.
So the first failing case, the first vacuity witness and the first raising
state of the full walk all lie in the least state of their orbit, which the
reduced walk visits after the same representatives and whose bindings it
walks in full: verdicts, exact counts and first counterexamples are those of
the full walk.  The group is the trivial one, and the walk the full one,
when a constant pins every atom apart, when the candidate permutations
number more than 2**powerset_bound, or when a quantifier body in the
machine's invariants, guards or abstract guards could raise on typed values
(it applies a function, or enumerates a powerset or relation space that
reads a variable or overflows the bound), since a quantifier stops at the
first member that settles it and its members come in an order the atoms'
names fix.  The reachable states are walked in full.

Deciding once.  The walk does not run a predicate whose answer it already
knows, by four rules.

* Typing invariants are given.  Elaboration marks each invariant that is a
  variable's very typing clause `v : E` (TypedMachine.typing_invariants),
  and the state enumeration lists exactly the values of E: compile_domain's
  members of a powerset, relation space or set are those the membership
  code accepts.  So over all typed states such an invariant is true and
  never runs.  A reachable state or a post-state need not be typed, and
  there it runs like any other.
* Decided depth.  A variable counts as unchanged only when the state holds
  the very object the previous state held: an identical object is the same
  value, and anything else is evaluated again.  state_orbits varies the
  last variable fastest and hands out memoised candidate values, so
  consecutive states share the objects of their common prefix; the
  reachable states share the objects of every variable an event left
  alone.  Invariants, binding lists and guards keep a decided depth.  Each
  runs on a frame that holds only the constants and the parameters it
  binds; each state variable enters it on its first read, and the run
  records one past the deepest position (in declaration order) it read.
  Its result stands while the walk's first changed position is at or
  beyond that depth.  An event's binding list is decided by its parameter
  domains, and the bindings kept after each guard by the list before them
  and that guard's runs on it, so guards run in guard order, each only
  where the ones before it held.  A run that stops before reading a late
  variable, as a quantifier or an implication does when it knows its
  answer early, is thus not repeated when only that variable changes.
* Memos.  An invariant or guard whose mentioned state variables are not a
  prefix of the variable order keeps, for one discharge_all call, a memo
  keyed by the values of those variables (and of the parameters it
  mentions, for a guard).  It stores each run's truth with the depth the
  run decided, so a hit leaves the decided depths as exact as a run would.
  The walk revisits a prefix predicate only on a new prefix, which decided
  depth already covers, and one that mentions every variable never meets a
  key twice, so neither keeps a memo.  Every invariant and guard the walk
  decides goes through one step, _Reader.decide, which runs it or, with a
  memo, looks its key up first.
* A case reuses what is already decided.  An INV goal none of whose
  variables the event's actions gave a different value is as true after
  the event as before it, which the walk already knows.  A GRD goal that is
  one of the concrete event's own guards holds, since every case passed
  those guards.  A SIM whose abstract expression is the one the concrete
  action assigns to that variable holds.  Each case is still counted.

Evaluation order and short-circuiting are those of a plain evaluation, and
a run that raises is never stored, so a predicate that raises does so in
the state where it would if it ran in every state.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import NotSuperposition, TrustbError
from .kernel import Env, eval_expr_frame, eval_pred_frame
from .runtime import State, bind_params, event_frame, guard_truths, initial_state, post_values
from .runtime import reachable_states, state_orbits
from .syntax import INIT_EVENT, Expr, Pred, free_idents_pred
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
    hypothesis: tuple[str, ...] = ()  # labels of the invariants assumed, in scope order


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


def generate_pos(
    tm: TypedMachine,
    include_refinement: bool = False,
    goal: str | None = None,
) -> list[ProofObligation]:
    """All obligations for a machine, in a fixed order: per event in
    machine order, invariants in scope order, then guard strengthening,
    then simulation.  The goal invariant, if one is named, has none and
    is in no hypothesis (see the module docstring)."""
    scope = [(lbl, inv.pred) for lbl, inv, _o in tm.invariant_scope if lbl != goal]
    labels = tuple(lbl for lbl, _pred in scope)
    pos: list[ProofObligation] = []
    for name, info in tm.events.items():
        goals = [("INV", lbl, pred, None) for lbl, pred in scope]
        if include_refinement and info.abstract is not None and not info.ast.is_init:
            goals += [("GRD", g.label, g.pred, None) for g in info.abstract.guards]
            goals += [("SIM", act.variable, None, act.expr) for act in info.abstract.actions]
        for kind, label, pred, expr in goals:
            unread = kind == "INV" and not tm.invariant_reads[label]
            note = "goal references no machine variables" if unread else ""
            hypothesis = () if info.ast.is_init else labels
            if kind == "INV":
                hypothesis = tuple(lbl for lbl in hypothesis if lbl != label)
            pos.append(
                ProofObligation(
                    f"{name}/{label}/{kind}", tm.name, name, kind, label, pred, expr, note,
                    hypothesis,
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


def _given(po: ProofObligation, info: EventInfo) -> bool:
    """Whether a GRD goal is one of the concrete event's own guards, all of
    which hold in every case, or a SIM's abstract expression is the one the
    concrete action assigns to that variable."""
    if po.kind == "GRD":
        return any(po.goal == g.pred for g in info.ast.guards)
    if po.kind == "SIM":
        return any(a.variable == po.label and a.expr == po.sim_expr for a in info.ast.actions)
    return False


def _state_iter(tm: TypedMachine, env: Env, state_source: str) -> Iterator[tuple[State, int]]:
    """The pre-states with the number of states each stands for."""
    if state_source == ALL_STATES:
        return state_orbits(tm, env)
    if state_source == REACHABLE:
        return ((state, 1) for state in reachable_states(tm, env))
    raise ValueError(f"unknown state source {state_source!r}; use one of {STATE_SOURCES}")


# An obligation's report with what the walk knows of its goal beforehand:
# whether it holds in every case (see _given), and for INV where the walk's
# truths keep the goal's pre-state truth, if they do, and the variables the
# goal reads.
_Target = tuple[DischargeReport, bool, int | None, tuple[str, ...]]


def _judge(
    targets: list[_Target],
    info: EventInfo,
    state: State,
    weight: int,
    binding: dict,
    frame: dict,
    bound: int,
    truths: list[bool],
) -> None:
    """Count one enabled case, standing for `weight` cases, against each
    target obligation and keep the first counterexample of each.  `truths`
    holds the pre-state truths of the walk's invariants: an INV goal none
    of whose variables the actions gave a different value is as true after
    the event as before it."""
    post = moved = None
    for rep, given, pre, reads in targets:
        rep.cases += weight
        if given or rep.counterexample is not None:
            continue
        po = rep.po
        if po.kind == "GRD":
            if eval_pred_frame(po.goal, frame, bound):
                continue
            post_state = None
        else:
            if post is None:
                post = post_values(info, frame, bound)
                post_frame = {**frame, **post}
            if po.kind == "INV":
                if moved is None:
                    moved = {v for v, value in post.items() if value != frame[v]}
                if pre is not None and moved.isdisjoint(reads):
                    if truths[pre]:
                        continue
                elif eval_pred_frame(po.goal, post_frame, bound):
                    continue
            else:  # SIM
                expected = eval_expr_frame(po.sim_expr, frame, bound)
                actual = post_frame[po.label]
                if expected == actual:
                    continue
            post_state = state.updated(post)
        ce = Counterexample(State(state.values), tuple(sorted(binding.items())), post_state)
        if po.kind == "SIM":
            ce.expected = expected
            ce.actual = actual
        rep.counterexample = ce


class _Reader(dict):
    """A frame that holds the constants and reads the walk's current state
    on demand: a state variable enters it on first read and stays until
    depth() is asked, so a run on this frame shows how much of the state
    it read."""

    __slots__ = ("bound", "order", "position", "values", "fetched")

    def __init__(self, order: tuple[str, ...], env: Env):
        super().__init__(env.bindings)
        self.bound = env.powerset_bound
        self.order = order
        self.position = {v: k + 1 for k, v in enumerate(order)}
        self.values: dict | None = None  # the values of the state being read
        self.fetched: list[str] = []

    def __missing__(self, name: str):
        value = self[name] = self.values[name]
        self.fetched.append(name)
        return value

    def move(self, values: dict) -> int:
        """Read the state with these values from now on, and return the
        position of its first variable whose value is not the very object
        the previous state held: -1 for the first state, len(order) if
        every object is the same."""
        prev, self.values = self.values, values
        if prev is None:
            return -1
        for k, name in enumerate(self.order):
            if values[name] is not prev[name]:
                return k
        return len(self.order)

    def depth(self) -> int:
        """One past the deepest position read since the last call; the
        variables read leave the frame."""
        position = self.position
        depth = 0
        for name in self.fetched:
            del self[name]
            if position[name] > depth:
                depth = position[name]
        self.fetched.clear()
        return depth

    def decide(self, code, memo: dict | None, key, binding: dict | tuple = ()) -> int:
        """The truth of `code` on this frame with `binding` added, and the
        depth it decided, packed as depth << 1 | truth, which allocates
        nothing.  Without a memo this is a run; with one it is the value
        stored under `key`, or a run whose value is stored there.  A run
        that raises stores nothing."""
        if memo is not None:
            packed = memo.get(key)
            if packed is not None:
                return packed
        self.update(binding)
        truth = code(self, self.bound)
        packed = self.depth() << 1 | truth
        if memo is not None:
            memo[key] = packed
        return packed


def _memo_key(names: tuple[str, ...], order: tuple[str, ...]):
    """The function that reads the memo key of a predicate mentioning the
    state variables `names` (in variable order) off a state's values; None
    if they are a prefix of `order`, as decided depth already runs such a
    predicate once per distinct prefix."""
    return None if names == order[: len(names)] else itemgetter(*names)


def _unkeyed(_values) -> None:
    """The key of a predicate without a memo."""
    return None


class _Truths:
    """Invariants' truths in the walk's current state, each decided by the
    rules of the module docstring: given where the walk lists only typed
    states (`typed`), and otherwise through the reader's decide."""

    __slots__ = ("codes", "reader", "truths", "depths", "keys", "memos")

    def __init__(self, tm: TypedMachine, checked: list, reader: _Reader, typed: bool):
        self.codes = [code for _lbl, code in checked]
        self.reader = reader
        self.truths = [True] * len(checked)
        given = tm.typing_invariants if typed else ()
        # The first state (changed -1) decides every invariant not given.
        self.depths = [-1 if lbl in given else 0 for lbl, _code in checked]
        keys = [_memo_key(tm.invariant_reads[lbl], tm.var_order) for lbl, _code in checked]
        self.keys = [key or _unkeyed for key in keys]
        self.memos = [None if key is None else {} for key in keys]

    def at(self, changed: int) -> list[bool]:
        """The truths in the reader's current state, whose first changed
        position is `changed`."""
        reader, depths, truths = self.reader, self.depths, self.truths
        for k, depth in enumerate(depths):
            if depth > changed:
                key = self.keys[k](reader.values)
                packed = reader.decide(self.codes[k], self.memos[k], key)
                truths[k], depths[k] = (packed & 1) == 1, packed >> 1
        return truths


def _holds_on(tm: TypedMachine, goal: str, code, source: str, env: Env) -> tuple[int, int]:
    """On how many of the weighted states of `source` the compiled invariant
    labelled `goal` holds, and of how many."""
    reader = _Reader(tm.var_order, env)
    truths = _Truths(tm, [(goal, code)], reader, source == ALL_STATES)
    holds = total = 0
    for state, weight in _state_iter(tm, env, source):
        total += weight
        if truths.at(reader.move(state.values))[0]:
            holds += weight
    return holds, total


class _Bindings:
    """One event's parameter bindings and, after each guard, those that
    pass it and every guard before it, in binding order, read on the
    reader in its current state and decided by the rules of the module
    docstring.

    lists[0] holds the bindings; lists[k] holds those of lists[k - 1] on
    which guard k - 1 holds.  depths[k] is the decided depth of lists[k]:
    the deepest of its own runs' reads and depths[k - 1], so the depths
    never decrease.  A list stands while the walk's first changed position
    is at or beyond its depth; otherwise it is made again, lazily and from
    the one before it.  A guard's memo is keyed by its parameters' values
    first: they take few values, so each entry is one slot keyed by a
    state key made once per list.  A guard without a memo has {None: None},
    which gives every binding no memo.
    """

    __slots__ = ("info", "reader", "codes", "keys", "memos", "lists", "depths", "fresh")

    def __init__(self, tm: TypedMachine, info: EventInfo, reader: _Reader):
        self.info = info
        self.reader = reader
        self.codes = [code for _label, code in info.guard_code]
        self.keys, self.memos = [], []
        for g in info.ast.guards:
            state_key = _memo_key(tm.reads(g.pred), tm.var_order)
            if state_key is None:
                self.keys.append((_unkeyed, _unkeyed))
                self.memos.append({None: None})
                continue
            free = free_idents_pred(g.pred)
            mentioned = [p for p in info.ast.params if p in free]
            self.keys.append((state_key, itemgetter(*mentioned) if mentioned else _unkeyed))
            self.memos.append(defaultdict(dict))
        self.lists: list[list[dict]] = [[] for _ in range(len(self.codes) + 1)]
        self.depths = [0] * len(self.lists)
        self.fresh = 0  # lists[:fresh] hold for the current state

    def moved(self, changed: int) -> None:
        """The walk moved to a state whose first changed variable is `changed`."""
        while self.fresh and self.depths[self.fresh - 1] > changed:
            self.fresh -= 1

    def bindings(self) -> list[dict]:
        """Every binding in the current state."""
        return self._upto(0)

    def enabled(self) -> list[dict]:
        """The bindings in the current state on which every guard holds."""
        return self._upto(len(self.codes))

    def _upto(self, k: int) -> list[dict]:
        lists, depths, frame = self.lists, self.depths, self.reader
        for i in range(self.fresh, k + 1):
            if i == 0:
                lists[0] = list(bind_params(self.info, frame, frame.bound))
                depths[0] = frame.depth()
                continue
            code, memo = self.codes[i - 1], self.memos[i - 1]
            state_key, param_key = self.keys[i - 1]
            skey = state_key(frame.values)
            depth, kept = depths[i - 1], []
            for binding in lists[i - 1]:
                packed = frame.decide(code, memo[param_key(binding)], skey, binding)
                if packed & 1:
                    kept.append(binding)
                if packed >> 1 > depth:
                    depth = packed >> 1
            lists[i], depths[i] = kept, depth
        if self.fresh <= k:
            for p in self.info.ast.params:
                frame.pop(p, None)
            self.fresh = k + 1
        return lists[k]


def discharge_all(
    tm: TypedMachine,
    env: Env,
    pos: Iterable[ProofObligation] | None = None,
    state_source: str = ALL_STATES,
    vacuity: bool = False,
    goal: str | None = None,
) -> CheckResult:
    """Discharge a batch of obligations in one walk over the pre-states; on
    the same walk, report vacuous guards if `vacuity` is set and count the
    states where the invariant labelled `goal` holds if one is given.  A
    case counts for an obligation when every invariant in its hypothesis
    holds in the pre-state and every guard holds on the binding; the goal
    counts as holding there even in obligations generated without it.

    Over all typed states the walk visits one state per symmetry orbit and
    weights what it counts there by the orbit's size, and it runs no
    predicate whose answer it already knows; the module docstring gives
    both.  Vacuity looks only at states where every invariant holds, and
    there each guard is evaluated on every binding for both consumers.
    Counterexamples are the first in enumeration order, and case counts
    are exact.  The goal count covers every typed state and every reachable
    state, whichever the state source.
    """
    codes = dict(tm.invariant_code)
    if goal is not None and goal not in codes:
        raise TrustbError(f"no invariant labelled '{goal}' in {tm.name}")
    if pos is None:
        pos = generate_pos(tm, include_refinement=True, goal=goal)
    pos = list(pos)
    bound = env.powerset_bound

    # The invariants some consumer needs, in scope order.
    walked = any(po.event != INIT_EVENT for po in pos)
    checked = [
        (lbl, code) for lbl, code in tm.invariant_code if vacuity or walked or lbl == goal
    ]
    labels = [lbl for lbl, _code in checked]
    # In obligation order; the walk adds cases and counterexamples in place.
    reports = [DischargeReport(po, VACUOUS, 0, None, po.note) for po in pos]
    event_pos: dict[str, list[_Target]] = {}
    init = None
    for rep in reports:
        po = rep.po
        if po.event == INIT_EVENT:
            # Establishment: a single case from the initial state, axioms assumed.
            if init is None:
                init = initial_state(tm, env)
                frame0 = event_frame(env, init)
            rep.cases = 1
            if not eval_pred_frame(po.goal, frame0, bound):
                rep.counterexample = Counterexample(None, (), init)
        else:
            info = tm.events.get(po.event)
            pre = labels.index(po.label) if po.kind == "INV" and po.label in labels else None
            reads = tm.invariant_reads[po.label] if pre is not None else ()
            given = info is not None and _given(po, info)
            event_pos.setdefault(po.event, []).append((rep, given, pre, reads))

    vac_reps = {
        name: [VacuityReport(name, label, True, 0) for label, _code in info.guard_code]
        for name, info in tm.events.items()
        if vacuity and not info.ast.is_init
    }
    reader = _Reader(tm.var_order, env)
    events = [
        (name, info, event_pos.get(name, []), vac_reps.get(name), _Bindings(tm, info, reader))
        for name, info in tm.events.items()
        if name in event_pos or name in vac_reps
    ]
    holds = states = 0
    if events or goal is not None:
        decided = _Truths(tm, checked, reader, state_source == ALL_STATES)
        for state, weight in _state_iter(tm, env, state_source):
            changed = reader.move(state.values)
            truths = decided.at(changed)
            for *_ev, cache in events:
                cache.moved(changed)
            false_invs = {lbl for lbl, ok in zip(labels, truths) if not ok}
            states += weight
            valid = vacuity and not false_invs
            if goal in false_invs:
                false_invs.remove(goal)
            else:
                holds += weight
            for name, info, mine, vreps, cache in events:
                targets = mine
                if false_invs:
                    targets = [t for t in mine if false_invs.isdisjoint(t[0].po.hypothesis)]
                if valid:
                    # Vacuity needs every guard's truth on every binding.
                    for binding in cache.bindings():
                        frame = event_frame(env, state, binding)
                        oks = [ok for _label, ok in guard_truths(info, frame, bound)]
                        for rep, ok in zip(vreps, oks):
                            rep.cases += weight
                            if not ok and rep.witness is None:
                                rep.vacuous = False
                                rep.witness = Counterexample(
                                    State(state.values),
                                    tuple(sorted(binding.items())),
                                    None,
                                )
                        if targets and all(oks):
                            _judge(targets, info, state, weight, binding, frame, bound, truths)
                elif targets:
                    for binding in cache.enabled():
                        frame = event_frame(env, state, binding)
                        _judge(targets, info, state, weight, binding, frame, bound, truths)

    for rep in reports:
        failed = rep.counterexample is not None
        rep.verdict = FAILED if failed else DISCHARGED if rep.cases else VACUOUS

    goal_rep = None
    if goal is not None:
        other = ALL_STATES if state_source == REACHABLE else REACHABLE
        counts = _holds_on(tm, goal, codes[goal], other, env)
        if state_source == REACHABLE:
            goal_rep = GoalInvariantReport(goal, *counts, holds, states)
        else:
            goal_rep = GoalInvariantReport(goal, holds, states, *counts)
    vacuity_reps = [rep for reps in vac_reps.values() for rep in reps]
    return CheckResult(reports, vacuity_reps, goal_rep)


def check_refinement(
    tm: TypedMachine,
    env: Env,
    state_source: str = ALL_STATES,
) -> list[DischargeReport]:
    """The guard-strengthening and simulation reports against tm's abstraction;
    NotSuperposition if tm refines nothing.  Elaboration has already refused
    a machine that drops an abstract variable or drops or retypes a parameter."""
    if tm.refines is None:
        raise NotSuperposition(f"machine '{tm.name}' refines nothing")
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
