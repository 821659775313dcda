"""Concrete execution of typed machines over a finite instantiation.

An Instantiation fixes the carrier sets and constants to explicit finite
values.  On top of that this module evaluates guards and invariants,
fires events, enumerates parameter bindings and whole state spaces, and
replays recorded traces.

Enumeration order is canonical everywhere: variable and parameter
candidates come from the kernel's one domain enumerator, compile_domain,
in its order (pow(S) by bitmask over S's sorted members, a relation space
in enumerate_fn_space's order, any other set sorted); parameter tuples
follow the cartesian product of per-parameter candidate lists with the
last parameter varying fastest, and events keep their machine order.  Two runs
over the same model therefore visit states and transitions identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from .errors import AxiomViolation, BoundExceeded, GuardFailed
from .kernel import (
    DEFAULT_POWERSET_BOUND,
    Env,
    compile_domain,
    eval_expr_frame,
    eval_pred_frame,
    powerset_elements,
)
from .syntax import Subset, free_idents_expr
from .typecheck import EventInfo, TypedContext, TypedMachine
from .values import Atom, Value, canon, mkset


# --- instantiation ------------------------------------------------------


@dataclass(frozen=True)
class Instantiation:
    """Concrete finite values for every carrier set and constant."""

    values: Mapping[str, Value]
    label: str = ""

    def validate(self, context: TypedContext, bound: int = DEFAULT_POWERSET_BOUND) -> None:
        """Check every axiom of the (merged) context; raise on the first failure."""
        frame = Env(self.values).bindings
        for name in (*context.carriers, *context.constants):
            if name not in self.values:
                raise AxiomViolation(f"missing value for '{name}'", context.name)
        for axiom in context.axioms:
            if not eval_pred_frame(axiom.pred, frame, bound):
                raise AxiomViolation(axiom.label, context.name)

    def env(self, powerset_bound: int = DEFAULT_POWERSET_BOUND) -> Env:
        return Env(self.values, powerset_bound)


# --- states ------------------------------------------------------


class State:
    """An assignment of values to machine variables."""

    __slots__ = ("values", "_hash")

    def __init__(self, values: Mapping[str, Value]):
        self.values = dict(values)
        self._hash = None

    def key(self, order: tuple[str, ...]) -> tuple[Value, ...]:
        return tuple(self.values[v] for v in order)

    def updated(self, changes: Mapping[str, Value]) -> "State":
        merged = dict(self.values)
        merged.update(changes)
        return State(merged)

    def __eq__(self, other):
        return isinstance(other, State) and self.values == other.values

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.values.items()))
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{v}={canon(x)}" for v, x in sorted(self.values.items()))
        return f"State({inner})"


def state_lines(state: State, order: tuple[str, ...]) -> list[str]:
    return [f"{v} = {canon(state.values[v])}" for v in order]


# --- guard and invariant evaluation ------------------------------------------------------


@dataclass(frozen=True)
class GuardReport:
    """Per-guard truth for one event under one binding.

    Every guard is evaluated, even after one fails, so callers can
    explain exactly which conditions held and which did not.
    """

    event: str
    binding: tuple[tuple[str, Value], ...]
    guards: tuple[tuple[str, bool], ...]

    @property
    def enabled(self) -> bool:
        return all(ok for _lbl, ok in self.guards)

    @property
    def failing(self) -> list[str]:
        return [lbl for lbl, ok in self.guards if not ok]

    @property
    def holding(self) -> list[str]:
        return [lbl for lbl, ok in self.guards if ok]


def event_frame(
    env: Env, state: State, binding: Mapping[str, Value] | None = None
) -> dict[str, Value]:
    if binding:
        return {**env.bindings, **state.values, **binding}
    return {**env.bindings, **state.values}


def guard_truths(info: EventInfo, frame: dict, bound: int) -> tuple[tuple[str, bool], ...]:
    """Every guard's truth in an event frame, in guard order."""
    return tuple([(label, code(frame, bound)) for label, code in info.guard_code])


def guard_report(
    tm: TypedMachine,
    event_name: str,
    state: State,
    binding: Mapping[str, Value],
    env: Env,
) -> GuardReport:
    frame = event_frame(env, state, binding)
    truths = guard_truths(tm.event(event_name), frame, env.powerset_bound)
    return GuardReport(event_name, tuple(sorted(binding.items())), truths)


def event_enabled(
    tm: TypedMachine,
    event_name: str,
    state: State,
    binding: Mapping[str, Value],
    env: Env,
) -> bool:
    """Whether every guard holds, read as Event-B reads a guard list: a
    guard is only well defined under the guards before it, so evaluation
    stops at the first false guard (as fire_event does), and a later guard
    that would be ill defined there is never evaluated."""
    frame = event_frame(env, state, binding)
    bound = env.powerset_bound
    for _label, code in tm.event(event_name).guard_code:
        if not code(frame, bound):
            return False
    return True


def fire_event(
    tm: TypedMachine,
    event_name: str,
    state: State,
    binding: Mapping[str, Value],
    env: Env,
    check_guards: bool = True,
) -> State:
    """Apply an event's actions simultaneously: every right-hand side is
    evaluated in the pre-state before any variable changes."""
    info = tm.event(event_name)
    frame = event_frame(env, state, binding)
    bound = env.powerset_bound
    if check_guards:
        for label, code in info.guard_code:
            if not code(frame, bound):
                raise GuardFailed(event_name, label)
    changes = {
        act.variable: eval_expr_frame(act.expr, frame, bound) for act in info.ast.actions
    }
    return state.updated(changes)


def initial_state(tm: TypedMachine, env: Env) -> State:
    """The state established by INITIALISATION's simultaneous assignments."""
    init = tm.event("INITIALISATION")
    frame = dict(env.bindings)
    bound = env.powerset_bound
    values = {
        act.variable: eval_expr_frame(act.expr, frame, bound) for act in init.ast.actions
    }
    return State(values)


def invariant_report(tm: TypedMachine, state: State, env: Env) -> list[tuple[str, bool]]:
    """Truth of every invariant in this machine's resolved label scope."""
    frame = event_frame(env, state)
    bound = env.powerset_bound
    return [(lbl, code(frame, bound)) for lbl, code in tm.invariant_code]


# --- enumeration ------------------------------------------------------


def _assignments(
    names: tuple[str, ...], candidates: Callable[[int], Iterable[Value]], frame: dict
) -> Iterator[None]:
    """Bind names[0], names[1], ... in `frame` to each value `candidates(k)`
    lists for the k-th name, the last name varying fastest, and yield once
    per complete assignment; the caller reads the values from `frame`.

    `candidates(k)` is asked with the first k names already bound, so a
    later name's candidates may depend on earlier ones.
    """

    def walk(k: int) -> Iterator[None]:
        if k == len(names):
            yield
            return
        name = names[k]
        for v in candidates(k):
            frame[name] = v
            yield from walk(k + 1)
        frame.pop(name, None)

    return walk(0)


def param_bindings(
    info: EventInfo, state: State, env: Env
) -> Iterator[dict[str, Value]]:
    """All parameter bindings for an event, last parameter varying fastest.

    A later parameter's typing guard may mention earlier parameters, so
    candidates are recomputed down the product tree.
    """
    params = info.ast.params
    domains = [compile_domain(info.param_domains[name]) for name in params]
    bound = env.powerset_bound
    frame = event_frame(env, state)
    for _ in _assignments(params, lambda k: domains[k](frame, bound), frame):
        yield {name: frame[name] for name in params}


@dataclass(frozen=True)
class Transition:
    event: str
    binding: tuple[tuple[str, Value], ...]
    post: State

    def binding_dict(self) -> dict[str, Value]:
        return dict(self.binding)


def enumerate_transitions(tm: TypedMachine, state: State, env: Env) -> list[Transition]:
    """Every enabled (event, binding) pair from a state, in canonical order."""
    out: list[Transition] = []
    for name, info in tm.events.items():
        if info.ast.is_init:
            continue
        for binding in param_bindings(info, state, env):
            if event_enabled(tm, name, state, binding, env):
                post = fire_event(tm, name, state, binding, env, check_guards=False)
                out.append(Transition(name, tuple(sorted(binding.items())), post))
    return out


def state_universe(tm: TypedMachine, env: Env) -> Iterator[State]:
    """Every state allowed by the variables' typing invariants.

    Variables enumerate in declaration order; a variable whose domain
    expression mentions earlier variables gets its candidate list
    recomputed (and memoised) per combination of those values.  A domain
    too large to enumerate raises BoundExceeded naming its variable.
    """
    order = tm.var_order
    infos = [tm.variables[v] for v in order]
    domains = [compile_domain(info.domain_expr) for info in infos]
    var_set = set(order)
    deps: list[tuple[str, ...]] = []
    for info in infos:
        free = free_idents_expr(info.domain_expr)
        deps.append(tuple(v for v in order if v in free and v in var_set))
    bound = env.powerset_bound
    frame = dict(env.bindings)
    memo: list[dict[tuple[Value, ...], tuple[Value, ...]]] = [{} for _ in order]

    def candidates(k: int) -> tuple[Value, ...]:
        key = tuple(frame[d] for d in deps[k])
        cached = memo[k].get(key)
        if cached is None:
            try:
                cached = domains[k](frame, bound)
            except BoundExceeded as err:
                raise BoundExceeded(err.what, err.size, err.bound, order[k]) from None
            memo[k][key] = cached
        return cached

    for _ in _assignments(order, candidates, frame):
        yield State({v: frame[v] for v in order})


def _constant_candidates(name: str, tc: TypedContext, frame: dict, bound: int):
    # `c : S` lists S's members in sorted order, so `c : pow(S)` does not
    # follow compile_domain's bitmask order; instantiation labels keep it.
    clause = tc.typing_axioms[name]
    if type(clause) is Subset:
        return powerset_elements(eval_expr_frame(clause.right, frame, bound), bound)
    return eval_expr_frame(clause.container, frame, bound).sorted_elements()


def enumerate_instantiations(
    tc: TypedContext,
    sizes: Mapping[str, int],
    powerset_bound: int = DEFAULT_POWERSET_BOUND,
) -> list[Instantiation]:
    """Every axiom-consistent instantiation at the given carrier sizes.

    Carrier SET of size n (default 2) gets atoms set1..setn (lower-cased
    name).  Constant candidates come from the constant's typing axiom; the
    full axiom list then filters complete assignments.
    """
    values: dict[str, Value] = {}
    for carrier in tc.carriers:
        n = sizes.get(carrier, 2)
        values[carrier] = mkset(Atom(f"{carrier.lower()}{k}") for k in range(1, n + 1))
    constants = tc.constants
    frame = Env(values).bindings
    out: list[Instantiation] = []
    for _ in _assignments(
        constants, lambda k: _constant_candidates(constants[k], tc, frame, powerset_bound), frame
    ):
        if all(eval_pred_frame(lab.pred, frame, powerset_bound) for lab in tc.axioms):
            assigned = {c: frame[c] for c in constants}
            label = "; ".join(f"{c} = {canon(v)}" for c, v in assigned.items())
            out.append(Instantiation(values | assigned, label))
    return out


def reachable_states(tm: TypedMachine, env: Env) -> list[State]:
    """Breadth-first reachable set from the initial state, in discovery order."""
    init = initial_state(tm, env)
    order = tm.var_order
    seen = {init.key(order)}
    queue = deque([init])
    out = [init]
    while queue:
        current = queue.popleft()
        for tr in enumerate_transitions(tm, current, env):
            k = tr.post.key(order)
            if k not in seen:
                seen.add(k)
                out.append(tr.post)
                queue.append(tr.post)
    return out


# --- traces ------------------------------------------------------


@dataclass
class TraceStep:
    event: str
    binding: tuple[tuple[str, Value], ...]
    post: State


@dataclass
class Trace:
    machine: str
    initial: State
    steps: list[TraceStep] = field(default_factory=list)

    @property
    def final(self) -> State:
        return self.steps[-1].post if self.steps else self.initial


def replay(
    tm: TypedMachine,
    env: Env,
    steps: list[tuple[str, Mapping[str, Value]]],
    start: State | None = None,
) -> Trace:
    """Re-execute recorded (event, binding) steps, by default from the
    initial state.

    Guards are re-checked at every step, so a replay fails loudly if the
    recorded trace does not actually run under this model.
    """
    state = initial_state(tm, env) if start is None else start
    trace = Trace(tm.name, state)
    for event_name, binding in steps:
        state = fire_event(tm, event_name, state, binding, env, check_guards=True)
        trace.steps.append(TraceStep(event_name, tuple(sorted(binding.items())), state))
    return trace
