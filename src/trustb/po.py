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

Deciding once.  The walk does not run a predicate or an action whose
answer it already knows, by six rules.

* Typing invariants are given.  Elaboration marks each invariant that is a
  variable's very typing clause `v : E` (TypedMachine.typing_invariants),
  and the state enumeration lists exactly the values of E: compile_domain's
  members of a powerset, relation space or set are those the membership
  code accepts.  So over all typed states such an invariant is true and
  never runs.  A reachable state or a post-state need not be typed, and
  there it runs like any other.
* Quantifier typing is given, by the same rule.  Each quantified variable
  runs over compile_domain's members of its typing conjunct's domain D, so
  the kernel leaves the conjunct `x : D` out of the quantifier's body.  It
  is kept where a later variable of the same quantifier rebinds x or a
  name D mentions, since it then reads other values than the loop did.
  Leaving it out reads nothing less: the loop read D's identifiers first.
* Decided depth.  A variable counts as unchanged only when the state holds
  the very object the previous state held: an identical object is the same
  value, and anything else is evaluated again.  state_orbits varies the
  last variable fastest and hands out memoised candidate values, so
  consecutive states share the objects of their common prefix.  The orbit
  walk knows the first position it bound anew since the state before, and
  hands it over (state_orbits's `changed`): it is the position an identity
  scan would find.  The reachable states are not compared: each hands over
  position 0, so what read a state variable is decided afresh there, memos
  aside.  Invariants, binding lists and guards keep a decided depth.  Each
  runs on a frame that holds only the constants and the parameters it
  binds, and reads each state variable from the walk's frame without
  storing it; the run records one past the deepest position (in
  declaration order) it read.
  Its result stands while the walk's first changed position is at or
  beyond that depth.  An event's binding list is decided by its parameter
  domains, and the bindings kept after each guard by the list before them
  and that guard's runs on it, so guards run in guard order, each only
  where the ones before it held.  A run that stops before reading a late
  variable, as a quantifier or an implication does when it knows its
  answer early, is thus not repeated when only that variable changes.
* Memos.  An invariant or guard whose mentioned state variables are not a
  nonempty prefix of the variable order keeps, for one discharge_all call,
  a memo keyed by the values of those variables.  It stores each run's
  truth with the depth the run decided, so a hit leaves the decided depths
  as exact as a run would.  The walk revisits a prefix predicate only on a
  new prefix, which decided depth already covers, and one that mentions
  every variable never meets a key twice, so neither keeps a memo.  A
  guard's memo is split by the values of the parameters it mentions, and a
  binding takes its guards' parts, its slots, once, when it enters the
  binding list: a guard stage then looks each binding's slot up under one
  state key.  A guard that mentions no state variable has one key, so it
  runs at most once per binding in the whole walk, however often the list
  before it is made again.  A lookup that misses, and only that, runs the
  predicate through _Reader.decide, which stores the run in the memo.
* Post states are memoised like guards.  A case's post values, and which
  variables they change, depend only on the constants, the parameters the
  actions mention and the variables the actions read and assign: a
  binding's last slot maps the values of those variables to both.  The
  assigned ones belong in the key, as `v := {}` reads nothing, yet changes
  v in some states and not in others.  Actions that read or assign every
  variable never meet a key twice, and keep no memo.  The memo is filled
  only where a case needs its post values, so an action runs on no case
  whose every target is given or has failed.
* A case reuses what is already decided.  An INV goal none of whose
  variables the event's actions gave a different value is as true after
  the event as before it, which the walk already knows.  A GRD goal that is
  one of the concrete event's own guards holds, since every case passed
  those guards.  A SIM whose abstract expression is the one the concrete
  action assigns to that variable holds.  Each case is still counted.

The walk's bookkeeping follows what changed as well.  Which of an event's
obligations a state's cases count for depends only on the invariants'
truths there, and few truth vectors occur: each event's target list is
made once per truth vector, and looked up only where some invariant was
decided anew.  Each list tallies its cases, the state's weight times its
enabled bindings, and hands the tally to its reports after the walk; a
case is judged only against the list's open targets, neither given nor
failed yet.  No State is built per visited state: each state is bound in
one frame with the constants, over all typed states the orbit walk's own
(runtime.state_orbits), which the invariants and guards read and which is
also the case frame, each binding put into it in place: an event's
bindings all name the same parameters, and no event reads another's.
Only a counterexample or a vacuity witness gets a State of its own.

A run that raises is never stored, and every walked event's guards run in
every state, so a predicate first raises in the state where a plain
evaluation does.  Within that state the order differs: outside the states
vacuity looks at, each guard runs on every binding before a case is
judged, and an action runs only where the post memo rule says.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import NotSuperposition, TrustbError
from .kernel import Env, ExprCode, PredCode, compile_expr, compile_pred
from .runtime import State, bind_params, event_frame, guard_truths, initial_state, post_values
from .runtime import reachable_states, state_orbits
from .syntax import INIT_EVENT, Expr, Pred, free_idents_expr, free_idents_pred
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


def _compile_goal(po: ProofObligation) -> PredCode | ExprCode:
    """The code of the goal, or of a SIM's abstract expression, compiled
    under the obligation's name, as M2_int/trust/grd4/GRD, unless something
    compiled that node before."""
    name = f"{po.machine}/{po.name}"
    if po.kind == "SIM":
        return compile_expr(po.sim_expr, name)
    return compile_pred(po.goal, name)


# An obligation's report with what the walk knows of its goal beforehand:
# for INV where the walk's truths keep the goal's pre-state truth, if they
# do, and the variables the goal reads; then the goal's code, None where the
# goal holds in every case (see _given).
_Target = tuple[DischargeReport, int | None, tuple[str, ...], PredCode | ExprCode | None]


class _Targets(list):
    """One event's targets in the states of one truth vector, with the cases
    counted for each of them so far, and those still open: not given and
    without a counterexample, the only ones a case is judged against."""

    __slots__ = ("cases", "open")

    def __init__(self, targets: Iterable[_Target]):
        super().__init__(targets)
        self.cases = 0
        self.reopen()

    def reopen(self) -> None:
        """Drop from the open targets those that found a counterexample."""
        self.open = [t for t in self if t[3] is not None and t[0].counterexample is None]


def _judge(targets: _Targets, cache: "_Bindings", entry: tuple, truths: list[bool],
           plans: dict) -> None:
    """Judge one enabled case, the entry's binding in the case frame, against
    each open target obligation and keep the first counterexample of each,
    which closes that target in every target list of the plans.  `truths`
    holds the pre-state truths of the walk's invariants: an INV goal none
    of whose variables the actions gave a different value is as true after
    the event as before it."""
    reader = cache.reader
    frame, bound = reader.values, reader.bound
    done = post_frame = None
    kept = False
    for rep, pre, reads, code in targets.open:
        po = rep.po
        if po.kind == "GRD":
            if code(frame, bound):
                continue
            post = None
        else:
            if done is None:
                done = cache.post(entry)
            post, moved = done
            if po.kind == "INV":
                if pre is not None and moved.isdisjoint(reads):
                    if truths[pre]:
                        continue
                else:
                    if post_frame is None:
                        post_frame = {**frame, **post}
                    if code(post_frame, bound):
                        continue
            else:  # SIM
                expected = code(frame, bound)
                actual = post[po.label] if po.label in post else frame[po.label]
                if expected == actual:
                    continue
        state = reader.state()
        post_state = None if post is None else state.updated(post)
        ce = Counterexample(state, tuple(sorted(entry[0].items())), post_state)
        if po.kind == "SIM":
            ce.expected = expected
            ce.actual = actual
        rep.counterexample = ce
        kept = True
    if kept:
        for _valid, lists in plans.values():
            for other in lists:
                other.reopen()


class _Reader(dict):
    """A frame that holds the constants and reads the walk's current state
    through: a state variable missing from it is read from `values` and
    never stored, and each read raises `deepest` to the variable's
    position, so a run on this frame shows how much of the state it read.
    The parameters of the last binding decided stay in it: no parameter
    shadows a name, and each run binds its own parameters.  `values` is
    the frame the current state is bound in, with the constants and the
    case's parameters: over all typed states the orbit walk's own."""

    __slots__ = ("bound", "order", "position", "values", "deepest")

    def __init__(self, order: tuple[str, ...], env: Env):
        super().__init__(env.bindings)
        self.bound = env.powerset_bound
        self.order = order
        self.position = {v: k + 1 for k, v in enumerate(order)}
        self.values: dict | None = None  # the frame of the state being read
        self.deepest = 0  # one past the deepest position read since depth()

    def __missing__(self, name: str):
        value = self.values[name]
        depth = self.position[name]
        if depth > self.deepest:
            self.deepest = depth
        return value

    def state(self) -> State:
        """The current state as a State of its own, which the walk never
        changes."""
        values = self.values
        return State._owning({v: values[v] for v in self.order})

    def depth(self) -> int:
        """One past the deepest position read since the last call."""
        depth, self.deepest = self.deepest, 0
        return depth

    def decide(self, code, memo: dict | None, key, binding: dict | tuple = ()) -> int:
        """Run `code` on this frame with `binding` added, and return its
        truth and the depth it decided, packed as depth << 1 | truth, which
        allocates nothing; with a memo, store that under `key` too.  The
        caller looks the key up first.  A run that raises stores nothing."""
        self.update(binding)
        truth = code(self, self.bound)
        packed = self.depth() << 1 | truth
        if memo is not None:
            memo[key] = packed
        return packed


def _walk(tm: TypedMachine, env: Env, source: str, reader: _Reader) -> Iterator[tuple[int, int]]:
    """Walk the pre-states of `source`, each in reader.values while it is
    the current one, and yield the number of states each stands for and
    the position of its first changed variable.  Over all typed states
    reader.values is the orbit walk's own frame, and the position the
    orbit walk's `changed`.  Each reachable state gets a frame of its own
    and the position 0, -1 for the first: only what read no state variable
    stands there, and memos."""
    if source == ALL_STATES:
        walk = state_orbits(tm, env)
        reader.values = walk.frame
        for weight in walk.walk():
            yield weight, walk.changed
    else:
        changed = -1
        for state in reachable_states(tm, env):
            reader.values = {**env.bindings, **state.values}
            yield 1, changed
            changed = 0


def _memo_key(names: tuple[str, ...], order: tuple[str, ...]):
    """The function that reads the memo key of a predicate mentioning the
    state variables `names` (in variable order) off a state's values; None
    if they are a nonempty prefix of `order`, as decided depth already runs
    such a predicate once per distinct prefix.  A predicate that mentions
    none has one key for the whole walk."""
    if not names:
        return _unkeyed
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
        self.keys = [_memo_key(tm.invariant_reads[lbl], tm.var_order) for lbl, _code in checked]
        self.memos = [None if key is None else {} for key in self.keys]

    def at(self, changed: int) -> bool:
        """Bring `truths` to the reader's current state, whose first changed
        position is `changed`; whether any truth was decided anew."""
        reader, depths, truths = self.reader, self.depths, self.truths
        ran = False
        for k, depth in enumerate(depths):
            if depth > changed:
                ran = True
                memo = self.memos[k]
                key = packed = None
                if memo is not None:
                    packed = memo.get(key := self.keys[k](reader.values))
                if packed is None:
                    packed = reader.decide(self.codes[k], memo, key)
                truths[k], depths[k] = (packed & 1) == 1, packed >> 1
        return ran


def _holds_on(tm: TypedMachine, goal: str, code, source: str, env: Env) -> tuple[int, int]:
    """On how many of the weighted states of `source` the compiled invariant
    labelled `goal` holds, and of how many."""
    reader = _Reader(tm.var_order, env)
    decided = _Truths(tm, [(goal, code)], reader, source == ALL_STATES)
    holds = total = 0
    for weight, changed in _walk(tm, env, source, reader):
        total += weight
        decided.at(changed)
        if decided.truths[0]:
            holds += weight
    return holds, total


class _Bindings:
    """One event's parameter bindings and, after each guard, those that
    pass it and every guard before it, in binding order, read on the
    reader in its current state and decided by the rules of the module
    docstring.

    lists[0] holds one entry per binding: the binding, then its memo slot
    for each guard in guard order.  lists[k] holds the entries of
    lists[k - 1] on which guard k - 1 holds.  depths[k] is the decided
    depth of lists[k]: the deepest of its own runs' reads and depths[k - 1],
    so the depths never decrease.  A list stands while the walk's first
    changed position is at or beyond its depth; otherwise it is made again,
    lazily and from the one before it.  A guard's slot is its memo for the
    values of the parameters it mentions, keyed by the state key, so
    bindings that agree on those share it; a guard without a memo has the
    slot None and runs on every binding of each list made.
    An entry's last slot is its binding's post memo (see post), keyed by
    post_key, the values of the variables the actions read and assign.
    """

    __slots__ = (
        "info", "reader", "codes", "keys", "slots", "post_key", "lists", "depths", "fresh"
    )

    def __init__(self, tm: TypedMachine, info: EventInfo, reader: _Reader):
        self.info = info
        self.reader = reader
        self.codes = [code for _label, code in info.guard_code]
        # Per guard, then for the actions: the state key, and the parameter
        # key with the slots by its values; both None without a memo.
        self.keys, self.slots = [], []
        for g, reads in zip(info.ast.guards, tm.guard_reads[info.name]):
            state_key = _memo_key(reads, tm.var_order)
            self.keys.append(state_key)
            self.slots.append(self._slots(state_key, free_idents_pred(g.pred)))
        actions = info.ast.actions
        free = {a.variable for a in actions}.union(*[free_idents_expr(a.expr) for a in actions])
        touched = tuple(v for v in tm.var_order if v in free)
        self.post_key = (
            None if touched == tm.var_order else itemgetter(*touched) if touched else _unkeyed
        )
        self.slots.append(self._slots(self.post_key, free))
        self.lists: list[list[tuple]] = [[] for _ in range(len(self.codes) + 1)]
        self.depths = [0] * len(self.lists)
        self.fresh = 0  # lists[:fresh] hold for the current state

    def bindings(self, changed: int) -> list[tuple]:
        """Every binding's entry in the current state."""
        return self._upto(0, changed)

    def enabled(self, changed: int) -> list[tuple]:
        """The entries in the current state of the bindings on which every
        guard holds."""
        return self._upto(len(self.codes), changed)

    def _slots(self, state_key, free: set[str]) -> tuple | None:
        """The parameter key of a memo with this state key, whose node
        mentions the names `free`, and its slots by the key's values."""
        if state_key is None:
            return None
        mentioned = [p for p in self.info.ast.params if p in free]
        return (itemgetter(*mentioned) if mentioned else _unkeyed), {}

    def post(self, entry: tuple) -> tuple[dict, set[str]]:
        """The post values of the entry's binding, bound in the case frame,
        and the variables they change."""
        frame = self.reader.values
        slot = entry[-1]
        if slot is not None:
            done = slot.get(key := self.post_key(frame))
            if done is not None:
                return done
        post = post_values(self.info, frame, self.reader.bound)
        done = post, {v for v, value in post.items() if value != frame[v]}
        if slot is not None:
            slot[key] = done
        return done

    def _entry(self, binding: dict) -> tuple:
        """The binding followed by its slot for each guard and its post slot."""
        slots = [None if s is None else s[1].setdefault(s[0](binding), {}) for s in self.slots]
        return (binding, *slots)

    def _upto(self, k: int, changed: int) -> list[tuple]:
        lists, depths, frame = self.lists, self.depths, self.reader
        while self.fresh and depths[self.fresh - 1] > changed:
            self.fresh -= 1
        for i in range(self.fresh, k + 1):
            if i == 0:
                lists[0] = [self._entry(b) for b in bind_params(self.info, frame, frame.bound)]
                depths[0] = frame.depth()
                continue
            code, state_key = self.codes[i - 1], self.keys[i - 1]
            skey = None if state_key is None else state_key(frame.values)
            depth, kept = depths[i - 1], []
            for entry in lists[i - 1]:
                slot = entry[i]
                packed = None if slot is None else slot.get(skey)
                if packed is None:
                    packed = frame.decide(code, slot, skey, entry[0])
                if packed & 1:
                    kept.append(entry)
                if packed >> 1 > depth:
                    depth = packed >> 1
            lists[i], depths[i] = kept, depth
        if self.fresh <= k:
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
    if state_source not in STATE_SOURCES:
        raise ValueError(f"unknown state source {state_source!r}; use one of {STATE_SOURCES}")
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
            if not _compile_goal(po)(frame0, bound):
                rep.counterexample = Counterexample(None, (), init)
        else:
            info = tm.events.get(po.event)
            pre = labels.index(po.label) if po.kind == "INV" and po.label in labels else None
            reads = tm.invariant_reads[po.label] if pre is not None else ()
            code = None if info is not None and _given(po, info) else _compile_goal(po)
            event_pos.setdefault(po.event, []).append((rep, pre, reads, code))

    vac_reps = {
        name: [VacuityReport(name, label, True, 0) for label, _code in info.guard_code]
        for name, info in tm.events.items()
        if vacuity and not info.ast.is_init
    }
    reader = _Reader(tm.var_order, env)
    events = [
        (info, event_pos.get(name, []), vac_reps.get(name), _Bindings(tm, info, reader))
        for name, info in tm.events.items()
        if name in event_pos or name in vac_reps
    ]
    holds = states = 0
    # Per truth vector: whether vacuity looks at the state, and each event's
    # targets, those whose hypothesis holds.
    plans: dict[tuple[bool, ...], tuple[bool, list[_Targets]]] = {}
    if events or goal is not None:
        decided = _Truths(tm, checked, reader, state_source == ALL_STATES)
        truths = decided.truths
        at_goal = labels.index(goal) if goal is not None else None
        plan = None
        for weight, changed in _walk(tm, env, state_source, reader):
            if decided.at(changed) or plan is None:
                plan = plans.get(key := tuple(truths))
                if plan is None:
                    false = {lbl for lbl, ok in zip(labels, key) if not ok and lbl != goal}
                    plan = plans[key] = (
                        vacuity and all(key),
                        [_Targets(t for t in mine if false.isdisjoint(t[0].po.hypothesis))
                         for _info, mine, *_rest in events],
                    )
            states += weight
            if at_goal is not None and truths[at_goal]:
                holds += weight
            valid, targeted = plan
            # The case frame, with each binding put into it in place.
            frame = reader.values
            for (info, _mine, vreps, cache), targets in zip(events, targeted):
                if valid:
                    for entry in cache.bindings(changed):
                        binding = entry[0]
                        frame.update(binding)
                        # Vacuity needs every guard's truth on every binding.
                        oks = [ok for _label, ok in guard_truths(info, frame, bound)]
                        for rep, ok in zip(vreps, oks):
                            rep.cases += weight
                            if not ok and rep.witness is None:
                                rep.vacuous = False
                                rep.witness = Counterexample(
                                    reader.state(), tuple(sorted(binding.items())), None
                                )
                        if targets and all(oks):
                            targets.cases += weight
                            if targets.open:
                                _judge(targets, cache, entry, truths, plans)
                else:
                    enabled = cache.enabled(changed)
                    targets.cases += weight * len(enabled)
                    for entry in enabled:
                        if not targets.open:
                            break
                        frame.update(entry[0])
                        _judge(targets, cache, entry, truths, plans)

    for _valid, lists in plans.values():
        for targets in lists:
            for rep, *_rest in targets:
                rep.cases += targets.cases
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
