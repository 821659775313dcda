"""Concrete execution of typed machines over a finite instantiation.

An Instantiation fixes the carrier sets and constants to explicit finite
values.  On top of that this module evaluates guards and invariants,
fires events, enumerates parameter bindings and whole state spaces, and
replays recorded traces.

Enumeration order is canonical everywhere: variable candidates follow the
order defined by the kernel's space enumerators, parameter tuples follow
the cartesian product of per-parameter candidate lists with the last
parameter varying fastest, and events keep their machine order.  Two runs
over the same model therefore visit states and transitions identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .errors import AxiomViolation, GuardFailed, ScenarioError
from .kernel import (
    DEFAULT_POWERSET_BOUND,
    Env,
    enumerate_fn_space,
    eval_expr_frame,
    eval_pred_frame,
    powerset_elements,
)
from .syntax import Expr, FnSpace, Pow, free_idents_expr
from .typecheck import EventInfo, TypedContext, TypedMachine
from .values import SetV, Value, canon


# --- instantiation ------------------------------------------------------


@dataclass(frozen=True)
class Instantiation:
    """Concrete finite values for every carrier set and constant."""

    values: Mapping[str, Value]
    label: str = ""

    def validate(self, context: TypedContext, bound: int = DEFAULT_POWERSET_BOUND) -> None:
        """Check every axiom of the (merged) context; raise on the first failure."""
        frame = _base_frame(self.values)
        for name in (*context.carriers, *context.constants):
            if name not in self.values:
                raise AxiomViolation(f"missing value for '{name}'", context.name)
        for axiom in context.axioms:
            if not eval_pred_frame(axiom.pred, frame, bound):
                raise AxiomViolation(axiom.label, context.name)

    def env(self, powerset_bound: int = DEFAULT_POWERSET_BOUND) -> Env:
        return Env(self.values, powerset_bound)


def _base_frame(values: Mapping[str, Value]) -> dict[str, Value]:
    frame = dict(Env().bindings)
    frame.update(values)
    return frame


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


def failing_invariants(tm: TypedMachine, state: State, env: Env) -> list[str]:
    return [lbl for lbl, ok in invariant_report(tm, state, env) if not ok]


# --- enumeration ------------------------------------------------------


def domain_candidates(dexpr: Expr, frame: dict, bound: int) -> tuple[Value, ...]:
    """All values of a domain expression, in canonical order."""
    t = type(dexpr)
    if t is Pow:
        base = eval_expr_frame(dexpr.base, frame, bound)
        return powerset_elements(base, bound)
    if t is FnSpace:
        dom_set = eval_expr_frame(dexpr.dom, frame, bound)
        ran_set = eval_expr_frame(dexpr.ran, frame, bound)
        return enumerate_fn_space(dexpr.kind, dom_set, ran_set, bound)
    v = eval_expr_frame(dexpr, frame, bound)
    if type(v) is not SetV:
        raise ScenarioError(f"domain expression is not a set: {canon(v)}")
    return tuple(v.sorted_elements())


def param_bindings(
    info: EventInfo, state: State, env: Env
) -> Iterator[dict[str, Value]]:
    """All parameter bindings for an event, last parameter varying fastest.

    A later parameter's typing guard may mention earlier parameters, so
    candidates are recomputed down the product tree.
    """
    params = info.ast.params
    if not params:
        yield {}
        return
    bound = env.powerset_bound
    frame = event_frame(env, state)

    def walk(k: int, binding: dict[str, Value]) -> Iterator[dict[str, Value]]:
        if k == len(params):
            yield dict(binding)
            return
        name = params[k]
        for v in domain_candidates(info.param_domains[name], frame, bound):
            frame[name] = v
            binding[name] = v
            yield from walk(k + 1, binding)
        frame.pop(name, None)
        binding.pop(name, None)

    yield from walk(0, {})


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
    recomputed (and memoised) per combination of those values.
    """
    order = tm.var_order
    infos = [tm.variables[v] for v in order]
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
            cached = domain_candidates(infos[k].domain_expr, frame, bound)
            memo[k][key] = cached
        return cached

    def walk(k: int) -> Iterator[State]:
        if k == len(order):
            yield State({v: frame[v] for v in order})
            return
        name = order[k]
        for v in candidates(k):
            frame[name] = v
            yield from walk(k + 1)
        frame.pop(name, None)

    yield from walk(0)


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


def binding_text(binding: tuple[tuple[str, Value], ...]) -> str:
    return " ".join(f"{name}={canon(v)}" for name, v in binding)


def trace_records(trace: Trace, order: tuple[str, ...]) -> list[str]:
    """A stable line-oriented rendering of a trace, for logs and replays."""
    lines = [f"machine {trace.machine}", "init"]
    lines.extend("  " + s for s in state_lines(trace.initial, order))
    for n, step in enumerate(trace.steps, start=1):
        head = f"step {n}: {step.event}"
        if step.binding:
            head += " " + binding_text(step.binding)
        lines.append(head)
        lines.extend("  " + s for s in state_lines(step.post, order))
    return lines


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
