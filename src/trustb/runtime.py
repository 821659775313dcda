"""Concrete execution of typed machines over a finite instantiation.

An Instantiation fixes the carrier sets and constants to explicit finite
values.  On top of that this module evaluates guards and invariants,
fires events, and enumerates parameter bindings and whole state spaces.

refusing_guard is the one guard walk and post_values the one action step:
every event application, here and in po, goes through them.

Enumeration order is canonical everywhere: variable and parameter
candidates come from the kernel's one domain enumerator, compile_domain,
in its order (pow(S) by bitmask over S's sorted members, a relation space
in enumerate_fn_space's order, any other set sorted); parameter tuples
follow the cartesian product of per-parameter candidate lists with the
last parameter varying fastest, and events keep their machine order.  Two runs
over the same model therefore visit states and transitions identically.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .errors import (
    AxiomViolation,
    BoundExceeded,
    GuardFailed,
    TrustbError,
)
from .kernel import (
    DEFAULT_POWERSET_BOUND,
    Env,
    compile_domain,
    eval_expr_frame,
    eval_pred_frame,
    powerset_elements,
    quantifier_domains,
)
from .syntax import (
    And,
    Exists,
    Expr,
    FnSpace,
    Forall,
    FunApp,
    Implies,
    Member,
    NotMember,
    Partition,
    Pow,
    Pred,
    Subset,
    subexprs,
)
from .typecheck import EventInfo, TypedContext, TypedMachine
from .values import Atom, PairV, SetV, Value, canon, mkset, value_sorted


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

    @classmethod
    def _owning(cls, values: dict[str, Value]) -> "State":
        """The state whose values are this very dict, which no one else
        may change: a new dict made for it needs no second copy."""
        state = cls.__new__(cls)
        state.values = values
        state._hash = None
        return state

    def key(self, order: tuple[str, ...]) -> tuple[Value, ...]:
        return tuple(self.values[v] for v in order)

    def updated(self, changes: Mapping[str, Value]) -> "State":
        return State._owning({**self.values, **changes})

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


def refusing_guard(info: EventInfo, frame: dict, bound: int) -> str | None:
    """The label of the first false guard in an event frame, or None.  The walk
    stops there: as Event-B reads a guard list, a guard is only well defined
    under the guards before it."""
    for label, code in info.guard_code:
        if not code(frame, bound):
            return label
    return None


def post_values(info: EventInfo, frame: dict, bound: int) -> dict[str, Value]:
    """The values an event's actions assign, every right-hand side
    evaluated in the pre-state frame before any variable changes."""
    return {variable: code(frame, bound) for variable, code in info.action_code}


def event_enabled(
    tm: TypedMachine,
    event_name: str,
    state: State,
    binding: Mapping[str, Value],
    env: Env,
) -> bool:
    """Whether every guard holds (see refusing_guard)."""
    frame = event_frame(env, state, binding)
    return refusing_guard(tm.event(event_name), frame, env.powerset_bound) is None


def fire_event(
    tm: TypedMachine,
    event_name: str,
    state: State,
    binding: Mapping[str, Value],
    env: Env,
    check_guards: bool = True,
) -> State:
    """Apply an event's actions (see post_values), after checking its guards
    (see refusing_guard) unless check_guards is off."""
    info = tm.event(event_name)
    frame = event_frame(env, state, binding)
    bound = env.powerset_bound
    if check_guards and (label := refusing_guard(info, frame, bound)) is not None:
        raise GuardFailed(event_name, label)
    return state.updated(post_values(info, frame, bound))


def initial_state(tm: TypedMachine, env: Env) -> State:
    """The state established by INITIALISATION's simultaneous assignments."""
    return State(post_values(tm.event("INITIALISATION"), dict(env.bindings), env.powerset_bound))


def invariant_report(tm: TypedMachine, state: State, env: Env) -> list[tuple[str, bool]]:
    """Truth of every invariant in this machine's resolved label scope."""
    frame = event_frame(env, state)
    bound = env.powerset_bound
    return [(lbl, code(frame, bound)) for lbl, code in tm.invariant_code]


# --- enumeration ------------------------------------------------------


def _assignments(
    names: tuple[str, ...],
    candidates: Callable[[int], Sequence[Value]],
    frame: dict,
    images: Callable[[Sequence[Value], int], list[int]] | None = None,
    eq: tuple[int, ...] = (),
    low: list[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Bind names[0], names[1], ... in `frame` to each value `candidates(k)`
    lists for the k-th name, the last name varying fastest, and yield once
    per complete assignment; the caller reads the values from `frame`.

    `candidates(k)` is asked with the first k names already bound, so a
    later name's candidates may depend on earlier ones.  A name leaves the
    frame when its list runs out.  One loop walks an explicit stack with an
    entry per position (its list, the index to try next, its index maps and
    the group elements fixing the names before it), so the generator
    resumes once per assignment, not once per name.

    With a group of permutations, `eq` holds the group elements g that map
    the assignment so far to itself, and `images(values, g)` lists, for
    each value of a candidate list, the index of its image under g in the
    same list; while g fixes the earlier names, their list is the same.  A
    value that some g in `eq` maps to an earlier index is skipped with all
    its completions, since g maps each of them to one that comes earlier:
    only the least assignment of each orbit is bound (a lex-leader test,
    Crawford et al., KR 1996).  What is yielded is `eq` at the complete
    assignment, the group elements other than the identity that fix it.
    With `eq` empty every candidate is bound and `images` is never asked.

    With `low`, a one-item list, binding the k-th name lowers low[0] to k:
    a caller that raises it to len(names) at each assignment reads there,
    at the next, the first position bound anew in between.
    """
    last = len(names) - 1
    if last < 0:
        yield eq
        return
    if low is None:
        low = [0]
    stack: list[tuple] = [()] * last
    k = i = 0
    values = candidates(0)
    maps = [images(values, g) for g in eq]
    while True:
        fixing = eq
        count = len(values)
        while i < count and eq:
            fixing = []
            for g, where in zip(eq, maps):
                j = where[i]
                if j < i:  # g maps values[i] to an earlier candidate
                    fixing = None
                    break
                if j == i:
                    fixing.append(g)
            if fixing is not None:
                fixing = tuple(fixing)
                break
            i += 1
        if i == count:
            frame.pop(names[k], None)
            if k == 0:
                return
            k -= 1
            values, i, maps, eq = stack[k]
            continue
        frame[names[k]] = values[i]
        if low[0] > k:
            low[0] = k
        i += 1
        if k == last:
            yield fixing
            continue
        stack[k] = (values, i, maps, eq)
        k += 1
        i, eq = 0, fixing
        values = candidates(k)
        maps = [images(values, g) for g in eq]


def param_bindings(
    info: EventInfo, state: State, env: Env
) -> Iterator[dict[str, Value]]:
    """All parameter bindings for an event in a state (see bind_params)."""
    return bind_params(info, event_frame(env, state), env.powerset_bound)


def bind_params(info: EventInfo, frame: dict, bound: int) -> Iterator[dict[str, Value]]:
    """All parameter bindings for an event, its domains read on `frame`,
    last parameter varying fastest.

    Each binding is in `frame` while the caller reads it, so guards and
    actions may run on `frame` as it stands; the parameters leave it when
    the enumeration runs out.  A later parameter's typing guard may mention
    earlier parameters, so candidates are recomputed down the product tree.
    """
    params = info.ast.params
    domains = [compile_domain(info.param_domains[name]) for name in params]

    def candidates(k: int) -> tuple[Value, ...]:
        try:
            return domains[k](frame, bound)
        except BoundExceeded as err:
            raise BoundExceeded(err.what, err.size, err.bound, params[k], "parameter") from None

    for _ in _assignments(params, candidates, frame):
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
    frame = event_frame(env, state)
    bound = env.powerset_bound
    for name, info in tm.events.items():
        if info.ast.is_init:
            continue
        for binding in bind_params(info, frame, bound):
            if refusing_guard(info, frame, bound) is None:
                post = state.updated(post_values(info, frame, bound))
                out.append(Transition(name, tuple(sorted(binding.items())), post))
    return out


class _VarDomains:
    """The state variables' candidate lists, read on the walk's frame, and
    the walk over them (walk()): it binds in `frame` the states least in
    their orbits under the group, one after another, and yields each
    orbit's size (see _assignments).  Iterating yields each of those states
    as a State, with the orbit's size.

    The frame holds the constants and, at each step, that state's
    variables: a caller that reads it during the walk needs no State, and
    may bind other names there, which the walk neither reads nor removes.

    A variable whose domain expression mentions earlier variables gets its
    list recomputed, and memoised, per combination of those values.  The
    memo keeps every list for the whole walk, so a list's id names it, and
    images() keeps the index maps of each list per group element, and each
    member's image under each element it has met.

    `changed` is the position, in variable order, of the first variable
    the last state handed out binds anew (-1 for the first state).  The
    variables before it hold the very objects they held in the state
    before, and it does not: its list is the same one, and it moved on in
    that list.
    """

    __slots__ = (
        "order", "domains", "deps", "memo", "frame", "bound", "perms", "maps", "members", "changed"
    )

    def __init__(self, tm: TypedMachine, env: Env, perms: tuple[dict, ...]):
        order = self.order = tm.var_order
        infos = [tm.variables[v] for v in order]
        self.domains = [compile_domain(info.domain_expr) for info in infos]
        self.deps = [tm.reads(info.domain_expr) for info in infos]
        self.memo: list[dict[tuple[Value, ...], tuple[Value, ...]]] = [{} for _ in order]
        self.frame = dict(env.bindings)
        self.bound = env.powerset_bound
        self.perms = perms
        self.maps: dict[int, list] = {}
        self.members: list[dict[Value, Value]] = [{} for _ in perms]
        self.changed = -1

    def candidates(self, k: int) -> tuple[Value, ...]:
        """The k-th variable's list, with the variables before it bound."""
        frame = self.frame
        key = tuple(frame[d] for d in self.deps[k])
        cached = self.memo[k].get(key)
        if cached is None:
            try:
                cached = self.domains[k](frame, self.bound)
            except BoundExceeded as err:
                raise BoundExceeded(err.what, err.size, err.bound, self.order[k]) from None
            self.memo[k][key] = cached
        return cached

    def images(self, values: tuple[Value, ...], g: int) -> list[int]:
        """For each i, the index in `values` of the g-th permutation's image
        of values[i]."""
        entry = self.maps.get(id(values))
        if entry is None:
            entry = self.maps[id(values)] = [None] * len(self.perms)
        where = entry[g]
        if where is None:
            index = {v: i for i, v in enumerate(values)}
            perm, seen = self.perms[g], self.members[g]
            # A set's image is the set of its members' images, and the
            # members recur across a list's sets: each is permuted once.
            members = frozenset().union(*[v for v in values if type(v) is SetV])
            for member in members.difference(seen):
                seen[member] = permute(member, perm)
            image = seen.__getitem__
            where = entry[g] = [
                index[frozenset(map(image, v)) if type(v) is SetV else permute(v, perm)]
                for v in values
            ]
        return where

    def walk(self) -> Iterator[int]:
        """Bind each state in `frame` and yield its orbit's size."""
        order, frame, size = self.order, self.frame, len(self.perms)
        others = tuple(range(1, size))
        low = [-1]
        for fixing in _assignments(order, self.candidates, frame, self.images, others, low):
            self.changed, low[0] = low[0], len(order)
            yield size // (len(fixing) + 1)

    def __iter__(self) -> Iterator[tuple[State, int]]:
        order, frame, owning = self.order, self.frame, State._owning
        for size in self.walk():
            yield owning({v: frame[v] for v in order}), size


def state_universe(tm: TypedMachine, env: Env) -> Iterator[State]:
    """Every state allowed by the variables' typing invariants: the walk of
    state_orbits under the identity group, where each orbit is one state.

    Variables enumerate in declaration order, each over the candidate list
    its domain expression gives; a variable whose domain mentions earlier
    variables gets its list recomputed (and memoised) per combination of
    those values.  A domain too large to enumerate raises BoundExceeded
    naming its variable.
    """
    for state, _size in _VarDomains(tm, env, ({},)):
        yield state


def state_orbits(tm: TypedMachine, env: Env) -> _VarDomains:
    """One state per orbit of symmetry_group(tm, env) on state_universe,
    with the orbit's size, in state_universe's order.

    The state of each orbit is its least member in that order, and the
    walk never binds a prefix that some group element maps to an earlier
    one (see _assignments).  The orbit's size is the group's order over
    that of the state's stabilizer.  Under the trivial group this is
    state_universe, each state with size 1.  While iterating, the walk's
    `changed` names the first position the current state binds anew, and
    its `frame` holds the state's values; its walk() yields the sizes alone
    and leaves each state in that frame (see _VarDomains).
    """
    return _VarDomains(tm, env, symmetry_group(tm, env))


# --- symmetry ------------------------------------------------------


def permute(v: Value, perm: Mapping[Value, Value]) -> Value:
    """v with every atom a replaced by perm.get(a, a)."""
    t = type(v)
    if t is SetV:
        return SetV([permute(e, perm) for e in v])
    if t is PairV:
        return PairV(permute(v[1], perm), permute(v[2], perm))
    return perm.get(v, v)


def symmetry_group(tm: TypedMachine, env: Env) -> tuple[dict[Value, Value], ...]:
    """The permutations of the carriers' atoms that map checking tm to
    itself, the identity first, each as a map of the atoms it moves.  tm is
    an elaborated machine that no one has edited since, so every quantifier
    in it is well formed.

    These are the permutations within each carrier that fix every
    constant's value.  Atoms that no constant separates, being equal to or
    members of the same constants, form a class; only permutations within
    classes are candidates, and each is kept if it fixes every constant.

    The group is the identity alone if the candidates number more than
    2**powerset_bound, the cap every enumeration has, or if a quantifier
    body in tm's invariants, guards or abstract guards is not total (see
    _total_pred).  A quantifier decides its body for one member of its
    domain after another, in canonical order, and stops at the first that
    settles it, so a body that can raise on some members might raise in a
    state and not in its image.  Everything else evaluates alike in a state
    and in its image: the same truth, and the same error if it raises.
    """
    bound = env.powerset_bound
    constants = list(env.bindings.values())
    atoms = {a for name in tm.context.carriers for a in env.bindings[name]}
    classes: dict[tuple[bool, ...], list[Value]] = {}
    for atom in value_sorted(atoms):
        profile = tuple(atom == c or (type(c) is SetV and atom in c) for c in constants)
        classes.setdefault(profile, []).append(atom)
    members = list(classes.values())
    size = math.prod(math.factorial(len(c)) for c in members)
    if size > 1 << bound or not _quantifier_bodies_total(tm, env):
        return ({},)
    group = []
    for images in itertools.product(*(itertools.permutations(c) for c in members)):
        perm = {a: b for c, img in zip(members, images) for a, b in zip(c, img) if a != b}
        if all(permute(v, perm) == v for v in constants):
            group.append(perm)
    return tuple(group)


def _quantifier_bodies_total(tm: TypedMachine, env: Env) -> bool:
    """Whether every quantifier body in tm's invariants, guards and the
    abstract guards its events refine is total (see _total_pred)."""
    preds = [inv.pred for _lbl, inv, _origin in tm.invariant_scope]
    for info in tm.events.values():
        preds += [g.pred for g in info.ast.guards]
        if info.abstract is not None:
            preds += [g.pred for g in info.abstract.guards]
    return all(_total_pred(p, dict(env.bindings), env.powerset_bound) for p in preds)


def _total_pred(p: Pred, constants: dict, bound: int, inside: bool = False) -> bool:
    """Whether every quantifier body in p is total: it cannot raise on typed
    values.  A total body has no function application, and each powerset
    or relation space it enumerates, as a value or as an inner quantifier's
    domain, reads only `constants` and fits under the bound.  Elaboration
    has refused every malformed quantifier.  `inside` says p is in a body."""
    t = type(p)
    if t is And or t is Implies:
        return _total_pred(p.left, constants, bound, inside) and _total_pred(
            p.right, constants, bound, inside
        )
    if t is Forall or t is Exists:
        domains = quantifier_domains(p.vars, p.body, t is Forall)
        constants = {n: v for n, v in constants.items() if n not in p.vars}
        # `!x, y . P` runs as `!x . !y . P`: only x's domain is outside a body.
        return all(
            _total_expr(d, constants, bound) for k, d in enumerate(domains) if inside or k
        ) and _total_pred(p.body, constants, bound, True)
    if not inside:
        return True
    if t is Member or t is NotMember:
        c = p.container
        # x : pow(S) is a subset test and x : S +-> T a kind check: neither
        # enumerates its container.
        exprs = (p.item, *subexprs(c)) if type(c) is Pow or type(c) is FnSpace else (p.item, c)
    elif t is Partition:
        exprs = (p.whole, *p.parts)
    else:
        exprs = (p.left, p.right)
    return all(_total_expr(e, constants, bound) for e in exprs)


def _total_expr(e: Expr, constants: dict, bound: int) -> bool:
    t = type(e)
    if t is FunApp:
        return False
    if t is Pow or t is FnSpace:
        try:  # an unbound identifier here is a variable's
            compile_domain(e)(constants, bound)
        except TrustbError:
            return False
    return all(_total_expr(sub, constants, bound) for sub in subexprs(e))


def _constant_candidates(name: str, tc: TypedContext, frame: dict, bound: int):
    # `c : S` lists S's members in sorted order, so `c : pow(S)` does not
    # follow compile_domain's bitmask order; instantiation labels keep it.
    clause = tc.typing_axioms[name]
    try:
        if type(clause) is Subset:
            return powerset_elements(eval_expr_frame(clause.right, frame, bound), bound)
        return eval_expr_frame(clause.container, frame, bound).sorted_elements()
    except BoundExceeded as err:
        raise BoundExceeded(err.what, err.size, err.bound, name, "constant") from None


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
