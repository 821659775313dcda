"""The three-level trust development and a direct API over it.

Level 0 records who trusts which trustee group for which task.  Level 1
adds a knowledge relation and only lets a trustor trust trustees it
knows.  Level 2 adds commitments and additionally demands a positive
commitment for the exact triple.  Each level is a superposition
refinement of the one below, shipped as source files under data/ and
loaded here by name.

TrustState holds the state of the chosen level in one frame, which the
verbs (allocate_task, learn, commit, establish_trust) and adopt write in
place and a per-guard explained trust_query reads; embed() returns a
snapshot.  Commitments are read sparsely: a triple with no entry in the
commitments variable counts as FALSE, so querying an uncommitted triple
fails guard grd8 just as the model says, while the commitment-typing
invariant is evaluated as written and reported honestly when the
commitments run ahead of the trust record.

build_model parses and elaborates each built-in model once per process,
and every caller shares it, so callers treat the returned TypedModel and
TypedMachine as read-only.  A TrustState decides an invariant again only
when a write changed a variable the invariant mentions, and decides a
trust guard that reads no state variable once per query binding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from enum import IntEnum
from importlib import resources

from .dsl import parse_expression, parse_file
from .errors import (
    FunctionalityViolation,
    ParseError,
    ScenarioError,
    TrustbError,
    TrustDenied,
    UndeclaredAtom,
    UnresolvedReference,
)
from .kernel import DEFAULT_POWERSET_BOUND, Env, eval_expr_frame
from .runtime import Instantiation, State, initial_state, post_values
from .syntax import ContextAST, Expr, MachineAST, SetEnum
from .typecheck import TypedMachine, TypedModel, elaborate
from .values import EMPTY_SET, FALSE, TRUE, Atom, PairV, SetV, Value, canon, mkset

TRUST_EVENT = "trust"

_VARIANT_FILES = {
    "base": ("cntx0", "cntx1", "cntx2", "m0_abs", "m1_knwl", "m2_int"),
    "rel": ("cntx0", "cntx1", "cntx2", "m0_rel", "m1_rel", "m2_rel"),
    "nopart": ("cntx0_nopart", "m0_nopart"),
    "bad_act": ("cntx0", "cntx1", "cntx2", "m0_abs", "m1_knwl", "m2_bad_act"),
}

_VARIANT_LEVELS = {
    "base": {0: "M0_abs", 1: "M1_knwl", 2: "M2_int"},
    "rel": {0: "M0_rel", 1: "M1_rel", 2: "M2_rel"},
    "nopart": {0: "M0_nopart"},
    "bad_act": {0: "M0_abs", 1: "M1_knwl", 2: "M2_bad_act"},
}

VARIANTS = tuple(_VARIANT_FILES)


class TrustLevel(IntEnum):
    STRATEGIC = 0
    EPISTEMIC = 1
    COMMITMENT = 2


def builtin_source(name: str) -> str:
    """Text of a shipped model or scenario file, by basename."""
    root = resources.files("trustb") / "data"
    for suffix in (".ebt", ".scn"):
        candidate = root / f"{name}{suffix}"
        if candidate.is_file():
            return candidate.read_text(encoding="utf-8")
    raise UnresolvedReference("builtin source", name)


def builtin_units(variant: str = "base") -> list[ContextAST | MachineAST]:
    if variant not in _VARIANT_FILES:
        raise UnresolvedReference("variant", variant)
    units: list[ContextAST | MachineAST] = []
    for fname in _VARIANT_FILES[variant]:
        units.extend(parse_file(builtin_source(fname), filename=f"{fname}.ebt"))
    return units


# --- mutations ------------------------------------------------------


@dataclass(frozen=True)
class Mutation:
    """A named defect applied to a machine before checking.

    Only guard removal exists: `drop:grd7` removes that guard from every
    event of the target machine that carries it.
    """

    label: str

    @staticmethod
    def parse(text: str) -> "Mutation":
        op, _sep, label = text.partition(":")
        if op != "drop" or not label:
            raise ScenarioError(f"unknown mutation '{text}'; expected drop:<guard-label>")
        return Mutation(label)


def _drop_guard(machine: MachineAST, label: str) -> MachineAST:
    hit = False
    events = []
    for ev in machine.events:
        kept = tuple(g for g in ev.guards if g.label != label)
        if len(kept) != len(ev.guards):
            hit = True
            ev = replace(ev, guards=kept)
        events.append(ev)
    if not hit:
        raise UnresolvedReference("guard", label)
    return replace(machine, events=tuple(events))


# --- model loading ------------------------------------------------------


def machine_name(level: int, variant: str = "base") -> str:
    levels = _VARIANT_LEVELS.get(variant)
    if levels is None:
        raise UnresolvedReference("variant", variant)
    name = levels.get(int(level))
    if name is None:
        raise ScenarioError(
            f"variant '{variant}' defines levels {sorted(levels)}, not {level}"
        )
    return name


def build_model(
    level: int,
    variant: str = "base",
    mutate: Mutation | str | None = None,
) -> tuple[TypedModel, TypedMachine]:
    """Elaborate a variant's chain; returns the model and the level's machine.

    A mutation is applied to the target machine's own events before
    elaboration, so a dropped typing guard fails loudly at this point.
    Each model is built once per process and shared: the levels of one
    variant share its model, and a mutated model is keyed by the machine
    the mutation targets.  Callers treat what they get as read-only.
    """
    target = machine_name(level, variant)
    if isinstance(mutate, str):
        mutate = Mutation.parse(mutate)
    model = _elaborated(variant, mutate, None if mutate is None else target)
    return model, model.machine(target)


@functools.cache
def _elaborated(variant: str, mutate: Mutation | None, target: str | None) -> TypedModel:
    """A variant's chain elaborated, with `mutate` applied to machine
    `target`.  A build that raises is not cached, so it raises again."""
    units = builtin_units(variant)
    if mutate is not None:
        units = [
            _drop_guard(u, mutate.label)
            if isinstance(u, MachineAST) and u.name == target
            else u
            for u in units
        ]
    return elaborate(units)


# --- bounds and instantiations ------------------------------------------------------


@dataclass(frozen=True)
class BoundSpec:
    """Carrier sizes (trustors, trustees, tasks) for bounded checking."""

    trustors: int
    trustees: int
    tasks: int

    @staticmethod
    def parse(text: str) -> "BoundSpec":
        parts = text.split(",")
        if len(parts) != 3:
            raise ScenarioError(f"bounds must be three comma-separated sizes, got '{text}'")
        try:
            a, b, c = (int(p.strip()) for p in parts)
        except ValueError:
            raise ScenarioError(f"bounds must be integers, got '{text}'") from None
        if min(a, b, c) < 0:
            raise ScenarioError(f"bounds must be non-negative, got '{text}'")
        return BoundSpec(a, b, c)

    def trustor_names(self) -> tuple[str, ...]:
        return tuple(f"u{k}" for k in range(1, self.trustors + 1))

    def trustee_names(self, overlap: bool = False) -> tuple[str, ...]:
        names = [f"v{k}" for k in range(1, self.trustees + 1)]
        if overlap and self.trustees >= 1:
            if self.trustors < 1:
                raise ScenarioError("an overlapping instantiation needs a trustor")
            names[0] = "u1"
        return tuple(names)

    def task_names(self) -> tuple[str, ...]:
        return tuple(f"t{k}" for k in range(1, self.tasks + 1))

    def instantiation(self, overlap: bool = False) -> Instantiation:
        return make_instantiation(
            self.trustor_names(),
            self.trustee_names(overlap),
            self.task_names(),
            label="overlap" if overlap else "disjoint",
        )

    def __str__(self):
        return f"{self.trustors},{self.trustees},{self.tasks}"


DEFAULT_BOUNDS = BoundSpec(2, 2, 2)


def make_instantiation(
    trustors: tuple[str, ...],
    trustees: tuple[str, ...],
    tasks: tuple[str, ...],
    label: str = "",
) -> Instantiation:
    trustor_set = mkset(Atom(n) for n in trustors)
    trustee_set = mkset(Atom(n) for n in trustees)
    return Instantiation(
        {
            "AGENTS": SetV(trustor_set | trustee_set),
            "TASKS": mkset(Atom(n) for n in tasks),
            "trustors": trustor_set,
            "trustees": trustee_set,
        },
        label=label,
    )


def machine_setup(
    level: int,
    bounds: BoundSpec = DEFAULT_BOUNDS,
    variant: str = "base",
    mutate: Mutation | str | None = None,
    overlap: bool = False,
    powerset_bound: int = DEFAULT_POWERSET_BOUND,
) -> tuple[TypedMachine, Instantiation, Env]:
    """One-call setup: elaborate, instantiate, validate axioms."""
    _model, tm = build_model(level, variant, mutate)
    inst = bounds.instantiation(overlap)
    inst.validate(tm.context, powerset_bound)
    return tm, inst, inst.env(powerset_bound)


# --- the trust API ------------------------------------------------------


@dataclass
class TrustDecision:
    """Outcome of one trust query, explained guard by guard."""

    trustor: str
    trustees: tuple[str, ...]
    task: str
    level: TrustLevel
    granted: bool
    guards: tuple[tuple[str, bool], ...]

    @property
    def failing(self) -> list[str]:
        return [lbl for lbl, ok in self.guards if not ok]

    @property
    def holding(self) -> list[str]:
        return [lbl for lbl, ok in self.guards if ok]


class TrustState:
    """Mutable working state for one instantiated trust level.

    Holds one frame: the constants, the level's variables and the last
    query's parameters.  The verbs allocate_task, learn, commit and
    establish_trust, and adopt (import_state adopts), write the variables
    in place, each computing its new values before it writes any, so a
    write that raises leaves the state as it was; queries and invariants
    run on the frame.  embed() returns a snapshot State of the variables.
    Parameters never shadow a name, so the frame may keep the last query's.
    """

    def __init__(
        self,
        level: int | TrustLevel,
        trustors: tuple[str, ...] | list[str],
        trustees: tuple[str, ...] | list[str],
        tasks: tuple[str, ...] | list[str],
    ):
        # The model first: it refuses a level the variant does not define.
        _model, self._tm = build_model(int(level))
        self.level = TrustLevel(int(level))
        self.trustors = tuple(trustors)
        self.trustees = tuple(trustees)
        self.tasks = tuple(tasks)
        self.instantiation = make_instantiation(self.trustors, self.trustees, self.tasks)
        self._env = self.instantiation.env()
        self.instantiation.validate(self._tm.context)

        self._frame = {**self._env.bindings, **initial_state(self._tm, self._env).values}
        self._trust = self._tm.event(TRUST_EVENT)
        # Per checked query binding: the binding and what _decide_once gives.
        self._bindings: dict[tuple, tuple[dict[str, Value], list, tuple]] = {}
        # Per invariant label: the values of the variables it mentions at
        # its last run, and the truth it gave there.
        self._decided: dict[str, tuple[tuple[Value, ...], bool]] = {}

    # -- atom handling

    def _trustor(self, name: str) -> Atom:
        if name not in self.trustors:
            raise UndeclaredAtom(name)
        return Atom(name)

    def _trustee_group(self, names) -> SetV:
        group = []
        for n in names:
            if n not in self.trustees:
                raise UndeclaredAtom(n)
            group.append(Atom(n))
        return mkset(group)

    def _task(self, name: str) -> Atom:
        if name not in self.tasks:
            raise UndeclaredAtom(name)
        return Atom(name)

    def _triple(self, trustor: str, trustees, task: str) -> PairV:
        return PairV(
            self._trustor(trustor),
            PairV(self._trustee_group(trustees), self._task(task)),
        )

    # -- state updates

    def allocate_task(self, trustees, task: str) -> None:
        """Record that a trustee group can perform a task (at most one)."""
        group = self._trustee_group(trustees)
        t = self._task(task)
        allocated = self._frame["agent_task"]
        for pair in allocated:
            if pair.left == group and pair.right != t:
                raise FunctionalityViolation(
                    f"group {canon(group)} is already allocated task {pair.right.name}"
                )
        self._frame["agent_task"] = SetV(allocated | {PairV(group, t)})

    def learn(self, trustor: str, trustee: str) -> None:
        if self.level < TrustLevel.EPISTEMIC:
            raise ScenarioError("knowledge only exists from level 1 upwards")
        i = self._trustor(trustor)
        if trustee not in self.trustees:
            raise UndeclaredAtom(trustee)
        self._frame["knowledge"] = SetV(self._frame["knowledge"] | {PairV(i, Atom(trustee))})

    def commit(self, trustor: str, trustees, task: str, flag: bool) -> None:
        if self.level < TrustLevel.COMMITMENT:
            raise ScenarioError("commitments only exist at level 2")
        triple = self._triple(trustor, trustees, task)
        kept = [p for p in self._frame["commitments"] if p.left != triple]
        self._frame["commitments"] = SetV([*kept, PairV(triple, TRUE if flag else FALSE)])

    def committed(self, trustor: str, trustees, task: str) -> bool:
        """Stored commitment flag; absent entries default to FALSE."""
        triple = self._triple(trustor, trustees, task)
        return PairV(triple, TRUE) in self._frame["commitments"]

    # -- machine view

    def variables(self) -> tuple[str, ...]:
        return self._tm.var_order

    def embed(self) -> State:
        """A snapshot of the held state, which later writes leave as it is."""
        return State._owning({v: self._frame[v] for v in self.variables()})

    def adopt(self, state: State) -> None:
        """Write a machine state's values into the frame."""
        self._frame.update({v: state.values[v] for v in self.variables()})

    def invariants(self) -> list[tuple[str, bool]]:
        """Truth of every invariant of the level in the held state.  An
        invariant runs again only when a variable it mentions no longer
        equals its value at the last run: it depends on nothing else but
        the constants, which never change here."""
        frame = self._frame
        reads = self._tm.invariant_reads
        report = []
        for lbl, code in self._tm.invariant_code:
            seen = tuple([frame[v] for v in reads[lbl]])
            last = self._decided.get(lbl)
            if last is None or last[0] != seen:
                last = self._decided[lbl] = (seen, code(frame, self._env.powerset_bound))
            report.append((lbl, last[1]))
        return report

    def invariant_warnings(self) -> list[str]:
        return [lbl for lbl, ok in self.invariants() if not ok]

    # -- queries and the trust step

    def _guard_truths(
        self, binding: dict[str, Value], decided: list, pending: tuple
    ) -> tuple[tuple[str, bool], ...]:
        """Every trust guard's label and truth in the held state, in guard
        order: `decided`, with each guard of `pending` (see _decide_once)
        run on the frame in its place."""
        frame = self._frame
        # The binding names the same parameters on every query, so it may
        # overwrite the previous query's values in place.
        frame.update(binding)
        bound = self._env.powerset_bound
        truths = decided.copy()
        for k, label, code in pending:
            truths[k] = (label, code(frame, bound))
        return tuple(truths)

    def _binding(self, trustor: str, trustees, task: str) -> tuple[dict[str, Value], list, tuple]:
        """The query's binding, with what _decide_once gives for it."""
        key = (trustor, trustees, task)
        entry = self._bindings.get(key)
        if entry is None:
            binding = {
                "i": self._trustor(trustor),
                "j": self._trustee_group(trustees),
                "t": self._task(task),
            }
            entry = self._bindings[key] = (binding, *self._decide_once(binding))
        return entry

    def _decide_once(self, binding: dict[str, Value]) -> tuple[list, tuple]:
        """The trust guards decided under `binding` alone, and the others.
        The first is a list that holds, per guard in guard order, its label
        and truth if it reads no state variable, and None if it does; such
        a guard reads only the parameters and the constants, which never
        change here.  The second holds each guard left None, with its
        position: (position, label, function).  If a guard that reads no
        state variable raises, none is decided, so each query runs every
        guard in order and the error surfaces where it would without this
        step."""
        guards = self._trust.guard_code
        frame = {**self._env.bindings, **binding}
        bound = self._env.powerset_bound
        try:
            decided = [
                None if reads else (label, code(frame, bound))
                for (label, code), reads in zip(guards, self._tm.guard_reads[TRUST_EVENT])
            ]
        except TrustbError:
            decided = [None] * len(guards)
        pending = tuple(
            (k, label, code) for k, (label, code) in enumerate(guards) if decided[k] is None
        )
        return decided, pending

    def trust_query(self, trustor: str, trustees, task: str) -> TrustDecision:
        trustees = tuple(trustees)  # read an iterator once
        truths = self._guard_truths(*self._binding(trustor, trustees, task))
        granted = all([ok for _lbl, ok in truths])
        return TrustDecision(trustor, trustees, task, self.level, granted, truths)

    def establish_trust(self, trustor: str, trustees, task: str) -> TrustDecision:
        """Fire the trust event, or raise TrustDenied explaining why not."""
        decision = self.trust_query(trustor, trustees, task)
        if not decision.granted:
            raise TrustDenied(decision)
        # trust_query has just evaluated every guard on the frame, which
        # still holds its binding.
        frame = self._frame
        frame.update(post_values(self._trust, frame, self._env.powerset_bound))
        return decision

    def trusts(self, trustor: str, trustees, task: str) -> bool:
        return self._triple(trustor, trustees, task) in self._frame["trustor_trustee_task"]


# --- state files ------------------------------------------------------


def export_state(ts: TrustState) -> str:
    """Render a TrustState as a text block import_state reads back."""
    state = ts.embed()
    lines = [
        f"level {int(ts.level)}",
        "trustors " + " ".join(ts.trustors),
        "trustees " + " ".join(ts.trustees),
        "tasks " + " ".join(ts.tasks),
    ]
    for var in ts.variables():
        lines.append(var)
        for v in state.values[var].sorted_elements():
            lines.append(f"  {canon(v)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def import_state(text: str) -> TrustState:
    """Rebuild a TrustState from export_state's format.  A '#' starts a
    comment that runs to the end of its line, as in a scenario script; a
    malformed value is reported at its line and column."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ln = raw.split("#", 1)[0].rstrip()
        if ln:
            lines.append((lineno, ln))
    header: dict[str, list[str]] = {}
    for idx, key in enumerate(("level", "trustors", "trustees", "tasks")):
        if idx >= len(lines):
            raise ScenarioError(f"state file ends before '{key}' line")
        parts = lines[idx][1].split()
        if parts[0] != key:
            raise ScenarioError(f"expected '{key}' line, found '{lines[idx][1]}'")
        header[key] = parts[1:]
    if len(header["level"]) != 1 or not header["level"][0].isdecimal():
        raise ScenarioError("level line must carry a single number")
    ts = TrustState(
        int(header["level"][0]), header["trustors"], header["trustees"], header["tasks"]
    )
    frame = dict(ts._env.bindings)
    frame.update((name, Atom(name)) for name in (*ts.trustors, *ts.trustees, *ts.tasks))

    bound = ts._env.powerset_bound
    values: dict[str, Value] = {}
    current: str | None = None
    items: list[Expr] = []
    expected_vars = set(ts.variables())
    for lineno, ln in lines[len(header):]:
        if ln == "end":
            break
        if not ln.startswith(" "):
            if current is not None:
                values[current] = _section_value(items, frame, bound)
            if ln not in expected_vars:
                raise ScenarioError(f"unknown state section '{ln}'")
            if ln in values:
                raise ScenarioError(f"state section '{ln}' appears twice")
            current = ln
            items = []
            continue
        if current is None:
            raise ScenarioError(f"value line outside a section: '{ln.strip()}'")
        try:
            items.append(parse_expression(ln))
        except ParseError as err:
            _section_value(items, frame, bound)  # an error on an earlier line comes first
            raise ParseError(lineno, err.col, err.message, err.expected) from None
    if current is not None:
        values[current] = _section_value(items, frame, bound)
    missing = expected_vars - set(values)
    if missing:
        raise ScenarioError(f"state file misses sections: {', '.join(sorted(missing))}")
    for var in ("agent_task", "commitments"):
        if var in values:
            _check_functional(var, values[var])
    ts.adopt(State(values))
    return ts


def _section_value(items: list[Expr], frame: dict, bound: int) -> SetV:
    """The set of a state-file section's values, evaluated in line order as
    one set enumeration, so that a section costs one compile."""
    return eval_expr_frame(SetEnum(tuple(items)), frame, bound) if items else EMPTY_SET


def _check_functional(var: str, relation: SetV) -> None:
    """Reject a state-file section that maps one value to two (naming the
    least such value), as TrustState's verbs never would."""
    seen: dict[Value, Value] = {}
    for pair in relation.sorted_elements():
        if type(pair) is not PairV:
            raise ScenarioError(f"state section '{var}' holds {canon(pair)}, not a pair")
        first = seen.setdefault(pair.left, pair.right)
        if first != pair.right:
            raise FunctionalityViolation(
                f"state section '{var}' maps {canon(pair.left)} to both "
                f"{canon(first)} and {canon(pair.right)}"
            )
