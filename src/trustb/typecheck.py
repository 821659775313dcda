"""Elaboration of parsed contexts and machines into typed models.

Everything downstream (state enumeration, proof obligations, the trust
API) works on the structures built here rather than on raw syntax:

* contexts are merged along their EXTENDS chains, and every constant gets
  a type from its first `c <: E` or `c : E` axiom;
* every variable gets a type and a domain expression from the `v : E`
  invariant of the machine that declares it, in declaration order, so a
  domain may mention earlier variables (`trustor_trustee_task` ranges
  over a space built from the current `agent_task`);
* invariant labels are resolved per machine scope: a refining machine's
  `@inv4` replaces the abstract `@inv4`, so each scope is a flat list of
  the most concrete predicate per label;
* events resolve their REFINES targets and parameter typing guards, and a
  refining event keeps each abstract parameter at its type.

The type language is small: carriers, BOOL, pairs, and sets, plus a
bottom set type for the empty set literal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    MissingTypeInvariant,
    NonFiniteQuantifierDomain,
    NotSuperposition,
    TypeMismatch,
    UnresolvedReference,
)
from .kernel import ExprCode, PredCode, compile_expr, compile_pred, quantifier_domains
from .syntax import (
    And,
    ContextAST,
    Difference,
    Dom,
    EmptySetLit,
    Equal,
    EventAST,
    Exists,
    Expr,
    FnSpace,
    Forall,
    FunApp,
    Ident,
    Image,
    Implies,
    Labeled,
    MachineAST,
    Maplet,
    Member,
    NotEqual,
    NotMember,
    Partition,
    Pos,
    Pow,
    Pred,
    SetEnum,
    Subset,
    Union,
    free_idents_expr,
    free_idents_pred,
)


# --- the type language ------------------------------------------------------


class Type:
    __slots__ = ()


class TBool(Type):
    __slots__ = ()

    def __repr__(self):
        return "BOOL"

    def __eq__(self, other):
        return type(other) is TBool

    def __hash__(self):
        return hash(TBool)


class TEmptySet(Type):
    """Type of the empty set literal before unification pins it down."""

    __slots__ = ()

    def __repr__(self):
        return "{}"

    def __eq__(self, other):
        return type(other) is TEmptySet

    def __hash__(self):
        return hash(TEmptySet)


@dataclass(frozen=True)
class TCarrier(Type):
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class TPair(Type):
    left: Type
    right: Type

    def __repr__(self):
        return f"({self.left!r} x {self.right!r})"


@dataclass(frozen=True)
class TSet(Type):
    elem: Type

    def __repr__(self):
        return f"pow({self.elem!r})"


BOOL_T = TBool()
EMPTY_T = TEmptySet()


def unify(a: Type, b: Type) -> Type | None:
    """Most specific common type, or None if the two cannot agree."""
    if a == b:
        return a
    ta, tb = type(a), type(b)
    if ta is TEmptySet and tb is TSet:
        return b
    if tb is TEmptySet and ta is TSet:
        return a
    if ta is TSet and tb is TSet:
        elem = unify(a.elem, b.elem)
        return TSet(elem) if elem is not None else None
    if ta is TPair and tb is TPair:
        left = unify(a.left, b.left)
        right = unify(a.right, b.right)
        if left is None or right is None:
            return None
        return TPair(left, right)
    return None


def _fail(message: str, pos: Pos) -> TypeMismatch:
    line, col = pos
    return TypeMismatch(message, line if line >= 0 else None, col if col >= 0 else None)


def _elem_of(t: Type, pos: Pos, what: str) -> Type:
    if type(t) is TSet:
        return t.elem
    if type(t) is TEmptySet:
        return EMPTY_T
    raise _fail(f"{what} must be a set, got {t!r}", pos)


# --- expression and predicate typing ------------------------------------------------------


def type_of_expr(e: Expr, env: dict[str, Type]) -> Type:
    t = type(e)
    if t is Ident:
        try:
            return env[e.name]
        except KeyError:
            raise _fail(f"unknown identifier '{e.name}'", e.pos) from None
    if t is EmptySetLit:
        return EMPTY_T
    if t is SetEnum:
        merged: Type | None = None
        for item in e.items:
            it = type_of_expr(item, env)
            merged = it if merged is None else unify(merged, it)
            if merged is None:
                raise _fail("set enumeration mixes element types", e.pos)
        return TSet(merged)
    if t is Maplet:
        return TPair(type_of_expr(e.left, env), type_of_expr(e.right, env))
    if t is Union or t is Difference:
        lt = type_of_expr(e.left, env)
        rt = type_of_expr(e.right, env)
        if type(lt) not in (TSet, TEmptySet) or type(rt) not in (TSet, TEmptySet):
            raise _fail("set operation on non-set operands", e.pos)
        merged = unify(lt, rt)
        if merged is None:
            raise _fail(f"set operands disagree: {lt!r} versus {rt!r}", e.pos)
        return merged
    if t is Pow:
        base_t = type_of_expr(e.base, env)
        _elem_of(base_t, e.pos, "powerset base")
        return TSet(base_t)
    if t is Dom:
        elem = _elem_of(type_of_expr(e.rel, env), e.pos, "dom operand")
        if type(elem) is not TPair:
            raise _fail(f"dom needs a relation, got set of {elem!r}", e.pos)
        return TSet(elem.left)
    if t is Image:
        elem = _elem_of(type_of_expr(e.rel, env), e.pos, "image relation")
        if type(elem) is not TPair:
            raise _fail(f"image needs a relation, got set of {elem!r}", e.pos)
        arg_t = type_of_expr(e.arg, env)
        if unify(arg_t, TSet(elem.left)) is None:
            raise _fail(
                f"image argument must be a set of {elem.left!r}, got {arg_t!r}", e.pos
            )
        return TSet(elem.right)
    if t is FunApp:
        elem = _elem_of(type_of_expr(e.fn, env), e.pos, "applied function")
        if type(elem) is not TPair:
            raise _fail(f"application needs a function, got set of {elem!r}", e.pos)
        arg_t = type_of_expr(e.arg, env)
        if unify(arg_t, elem.left) is None:
            raise _fail(
                f"function argument must be {elem.left!r}, got {arg_t!r}", e.pos
            )
        return elem.right
    if t is FnSpace:
        dom_elem = _elem_of(type_of_expr(e.dom, env), e.pos, "relation-space domain")
        ran_elem = _elem_of(type_of_expr(e.ran, env), e.pos, "relation-space range")
        return TSet(TSet(TPair(dom_elem, ran_elem)))
    raise TypeError(f"not an expression node: {e!r}")


def check_pred(p: Pred, env: dict[str, Type]) -> None:
    t = type(p)
    if t is Member or t is NotMember:
        item_t = type_of_expr(p.item, env)
        cont_elem = _elem_of(type_of_expr(p.container, env), p.pos, "membership container")
        if unify(item_t, cont_elem) is None:
            raise _fail(
                f"member type {item_t!r} does not fit container of {cont_elem!r}", p.pos
            )
        return
    if t is Subset:
        lt = type_of_expr(p.left, env)
        rt = type_of_expr(p.right, env)
        if type(lt) not in (TSet, TEmptySet) or type(rt) not in (TSet, TEmptySet):
            raise _fail("subset needs set operands", p.pos)
        if unify(lt, rt) is None:
            raise _fail(f"subset operands disagree: {lt!r} versus {rt!r}", p.pos)
        return
    if t is Equal or t is NotEqual:
        lt = type_of_expr(p.left, env)
        rt = type_of_expr(p.right, env)
        if unify(lt, rt) is None:
            raise _fail(f"comparison operands disagree: {lt!r} versus {rt!r}", p.pos)
        return
    if t is Partition:
        whole_t = type_of_expr(p.whole, env)
        for part in p.parts:
            pt = type_of_expr(part, env)
            if unify(whole_t, pt) is None:
                raise _fail(f"partition part {pt!r} does not fit {whole_t!r}", p.pos)
        return
    if t is And or t is Implies:
        check_pred(p.left, env)
        check_pred(p.right, env)
        return
    if t is Forall or t is Exists:
        try:
            domains = quantifier_domains(p.vars, p.body, is_forall=(t is Forall))
        except NonFiniteQuantifierDomain as err:
            raise _fail(str(err), p.pos) from None
        inner = dict(env)
        for name, dexpr in zip(p.vars, domains):
            inner[name] = _elem_of(type_of_expr(dexpr, inner), p.pos, "quantifier domain")
        check_pred(p.body, inner)
        return
    raise TypeError(f"not a predicate node: {p!r}")


# --- elaborated units ------------------------------------------------------


@dataclass
class TypedContext:
    """A context merged with everything it extends.

    `typing_axioms` holds each constant's typing axiom, the first `c <: E`
    or `c : E` among the axioms, which its type and its candidate values
    come from.
    """

    name: str
    carriers: tuple[str, ...]
    constants: tuple[str, ...]
    axioms: tuple[Labeled, ...]
    types: dict[str, Type] = field(default_factory=dict)
    typing_axioms: dict[str, Pred] = field(default_factory=dict)

    def base_types(self) -> dict[str, Type]:
        env: dict[str, Type] = {"BOOL": TSet(BOOL_T), "TRUE": BOOL_T, "FALSE": BOOL_T}
        env.update(self.types)
        return env


@dataclass
class VarInfo:
    name: str
    type: Type
    domain_expr: Expr
    declared_in: str


@dataclass
class EventInfo:
    ast: EventAST
    param_types: dict[str, Type]
    param_domains: dict[str, Expr]
    machine: str
    abstract: EventAST | None = None

    @property
    def name(self) -> str:
        return self.ast.name

    @cached_property
    def guard_code(self) -> tuple[tuple[str, PredCode], ...]:
        """Each guard's label and compiled predicate, in guard order;
        compiled on first use, so elaboration never pays for it.  A guard
        compiles under its machine, event and label, as M2_int/trust/grd8."""
        where = f"{self.machine}/{self.name}"
        return tuple(
            (g.label, compile_pred(g.pred, f"{where}/{g.label}")) for g in self.ast.guards
        )

    @cached_property
    def action_code(self) -> tuple[tuple[str, ExprCode], ...]:
        """Each action's variable and compiled right-hand side, in action
        order, compiled as guard_code is, as M2_int/trust/act1."""
        where = f"{self.machine}/{self.name}"
        return tuple(
            (a.variable, compile_expr(a.expr, f"{where}/{a.label}")) for a in self.ast.actions
        )


@dataclass
class TypedMachine:
    ast: MachineAST
    context: TypedContext
    refines: "TypedMachine | None"
    variables: dict[str, VarInfo]
    events: dict[str, EventInfo]
    invariant_scope: tuple[tuple[str, Labeled, str], ...]

    @property
    def name(self) -> str:
        return self.ast.name

    @property
    def var_order(self) -> tuple[str, ...]:
        return tuple(self.variables)

    @cached_property
    def invariant_code(self) -> tuple[tuple[str, PredCode], ...]:
        """invariant_scope's labels with compiled predicates, built on first
        use; an invariant compiles under the machine that states it and its
        label, as M2_int/inv4."""
        return tuple(
            (lbl, compile_pred(inv.pred, f"{origin}/{lbl}"))
            for lbl, inv, origin in self.invariant_scope
        )

    def reads(self, node: Expr | Pred) -> tuple[str, ...]:
        """The state variables `node` mentions, in declaration order."""
        free = free_idents_pred(node) if isinstance(node, Pred) else free_idents_expr(node)
        return tuple(v for v in self.variables if v in free)

    @cached_property
    def invariant_reads(self) -> dict[str, tuple[str, ...]]:
        """Each invariant's label with the state variables it mentions, in
        variable order: its truth in a state depends on nothing else but
        the constants."""
        return {lbl: self.reads(inv.pred) for lbl, inv, _origin in self.invariant_scope}

    @cached_property
    def guard_reads(self) -> dict[str, tuple[tuple[str, ...], ...]]:
        """Per event, the state variables each guard mentions, in guard
        order and each in variable order: a guard's truth depends on
        nothing else but them, the parameters and the constants."""
        return {
            name: tuple(self.reads(g.pred) for g in info.ast.guards)
            for name, info in self.events.items()
        }

    @cached_property
    def typing_invariants(self) -> frozenset[str]:
        """The labels of the in-scope invariants that are a variable's very
        typing clause, the `v : E` its domain_expr came from.  Every state
        the state enumeration lists satisfies them; a later clause of the
        same form is not one of them."""
        labels = set()
        for lbl, inv, _origin in self.invariant_scope:
            p = inv.pred
            if type(p) is Member and type(p.item) is Ident:
                info = self.variables.get(p.item.name)
                if info is not None and p.container is info.domain_expr:
                    labels.add(lbl)
        return frozenset(labels)

    def invariant(self, label: str) -> Labeled:
        for lbl, inv, _origin in self.invariant_scope:
            if lbl == label:
                return inv
        raise UnresolvedReference("invariant", label)

    def event(self, name: str) -> EventInfo:
        try:
            return self.events[name]
        except KeyError:
            raise UnresolvedReference("event", name) from None


@dataclass
class TypedModel:
    contexts: dict[str, TypedContext]
    machines: dict[str, TypedMachine]

    def machine(self, name: str) -> TypedMachine:
        try:
            return self.machines[name]
        except KeyError:
            raise UnresolvedReference("machine", name) from None

    def context(self, name: str) -> TypedContext:
        try:
            return self.contexts[name]
        except KeyError:
            raise UnresolvedReference("context", name) from None


# --- elaboration ------------------------------------------------------


def _merge_context(
    name: str,
    raw: dict[str, ContextAST],
    done: dict[str, TypedContext],
    in_progress: set[str],
) -> TypedContext:
    if name in done:
        return done[name]
    if name not in raw:
        raise UnresolvedReference("context", name)
    if name in in_progress:
        raise TypeMismatch(f"context '{name}' extends itself through a cycle")
    in_progress.add(name)
    ast = raw[name]
    for parent_name in ast.extends:
        _merge_context(parent_name, raw, done, in_progress)
    in_progress.discard(name)

    inherited = _combine_contexts(ast.extends, done)
    sets = [s for s in ast.sets if s not in inherited.carriers]
    constants = [c for c in ast.constants if c not in inherited.constants]
    merged = TypedContext(
        name,
        (*inherited.carriers, *sets),
        (*inherited.constants, *constants),
        (*inherited.axioms, *ast.axioms),
        dict(inherited.types),
        dict(inherited.typing_axioms),
    )
    for s in sets:
        merged.types[s] = TSet(TCarrier(s))
    for c in constants:
        axiom, merged.types[c] = _constant_typing(c, merged.axioms, merged.base_types())
        merged.typing_axioms[c] = axiom
    env = merged.base_types()
    for axiom in merged.axioms:
        check_pred(axiom.pred, env)
    done[name] = merged
    return merged


def _constant_typing(
    name: str, axioms: tuple[Labeled, ...], env: dict[str, Type]
) -> tuple[Pred, Type]:
    """A constant's typing axiom, its first `c <: E` or `c : E`, and its type."""
    for axiom in axioms:
        p = axiom.pred
        if type(p) is Subset and type(p.left) is Ident and p.left.name == name:
            bound_t = type_of_expr(p.right, env)
            if type(bound_t) is not TSet:
                raise _fail(f"typing axiom for '{name}' needs a set bound", p.pos)
            return p, bound_t
        if type(p) is Member and type(p.item) is Ident and p.item.name == name:
            return p, _elem_of(type_of_expr(p.container, env), p.pos, "typing axiom bound")
    raise TypeMismatch(f"constant '{name}' has no typing axiom (c <: E or c : E)")


def _combine_contexts(names: tuple[str, ...], done: dict[str, TypedContext]) -> TypedContext:
    if len(names) == 1:
        return done[names[0]]
    carriers: list[str] = []
    constants: list[str] = []
    axioms: list[Labeled] = []
    types: dict[str, Type] = {}
    typing_axioms: dict[str, Pred] = {}
    for n in names:
        ctx = done[n]
        carriers.extend(s for s in ctx.carriers if s not in carriers)
        constants.extend(c for c in ctx.constants if c not in constants)
        axioms.extend(a for a in ctx.axioms if a not in axioms)
        # The first context to type a name wins, as its axiom comes first.
        types = ctx.types | types
        typing_axioms = ctx.typing_axioms | typing_axioms
    return TypedContext(
        "+".join(names), tuple(carriers), tuple(constants), tuple(axioms), types, typing_axioms
    )


def _elaborate_machine(
    ast: MachineAST,
    raw: dict[str, MachineAST],
    contexts: dict[str, TypedContext],
    done: dict[str, TypedMachine],
    in_progress: set[str],
) -> TypedMachine:
    if ast.name in done:
        return done[ast.name]
    if ast.name in in_progress:
        raise TypeMismatch(f"machine '{ast.name}' refines itself through a cycle")
    in_progress.add(ast.name)

    abstract: TypedMachine | None = None
    if ast.refines is not None:
        if ast.refines not in raw:
            raise UnresolvedReference("machine", ast.refines)
        abstract = _elaborate_machine(raw[ast.refines], raw, contexts, done, in_progress)

    for ctx_name in ast.sees:
        if ctx_name not in contexts:
            raise UnresolvedReference("context", ctx_name)
    context = _combine_contexts(ast.sees, contexts)
    if abstract is not None:
        context = _combine_contexts(
            tuple(dict.fromkeys((abstract.context.name, *ast.sees))),
            {**contexts, abstract.context.name: abstract.context},
        )

    # Variables: inherited ones keep their abstract typing, new ones are
    # typed from this machine's own `v : E` invariant, in declaration order.
    variables: dict[str, VarInfo] = {}
    if abstract is not None:
        missing = [v for v in abstract.variables if v not in ast.variables]
        if missing:
            raise NotSuperposition(
                f"machine '{ast.name}' drops refined variables: {', '.join(missing)}"
            )
        variables.update(abstract.variables)
    env = context.base_types()
    for info in variables.values():
        env[info.name] = info.type
    for v in ast.variables:
        if v in variables:
            continue
        dexpr = _typing_domain(v, ast.invariants)
        if dexpr is None:
            raise MissingTypeInvariant(v, ast.name)
        vtype = _elem_of(type_of_expr(dexpr, env), dexpr.pos, f"typing of '{v}'")
        variables[v] = VarInfo(v, vtype, dexpr, ast.name)
        env[v] = vtype

    # Invariant scope: walk abstract to concrete, most concrete label wins.
    scope: dict[str, tuple[Labeled, str]] = {}
    if abstract is not None:
        scope = {lbl: (inv, origin) for lbl, inv, origin in abstract.invariant_scope}
    for inv in ast.invariants:
        scope[inv.label] = (inv, ast.name)
    invariant_scope = tuple((lbl, inv, origin) for lbl, (inv, origin) in scope.items())
    for _lbl, inv, _origin in invariant_scope:
        check_pred(inv.pred, env)

    events = _elaborate_events(ast, abstract, variables, env)

    machine = TypedMachine(ast, context, abstract, variables, events, invariant_scope)
    in_progress.discard(ast.name)
    done[ast.name] = machine
    return machine


def _typing_domain(name: str, clauses: tuple[Labeled, ...]) -> Expr | None:
    """E of the first clause `name : E`: a variable's typing invariant or a
    parameter's typing guard."""
    for clause in clauses:
        p = clause.pred
        if type(p) is Member and type(p.item) is Ident and p.item.name == name:
            return p.container
    return None


def _elaborate_events(
    ast: MachineAST,
    abstract: TypedMachine | None,
    variables: dict[str, VarInfo],
    env: dict[str, Type],
) -> dict[str, EventInfo]:
    if not any(ev.is_init for ev in ast.events):
        raise TypeMismatch(f"machine '{ast.name}' has no INITIALISATION event")
    events: dict[str, EventInfo] = {}
    for ev in ast.events:
        if ev.is_init:
            if ev.params or ev.guards:
                raise TypeMismatch(
                    f"INITIALISATION of '{ast.name}' must have no parameters or guards"
                )
            assigned = {act.variable for act in ev.actions}
            unset = [v for v in variables if v not in assigned]
            if unset:
                raise TypeMismatch(
                    f"INITIALISATION of '{ast.name}' does not assign: {', '.join(unset)}"
                )

        param_types: dict[str, Type] = {}
        param_domains: dict[str, Expr] = {}
        local = dict(env)
        for p in ev.params:
            if p in env:
                raise TypeMismatch(
                    f"parameter '{p}' of event '{ev.name}' shadows an existing name"
                )
            dexpr = _typing_domain(p, ev.guards)
            if dexpr is None:
                raise TypeMismatch(
                    f"parameter '{p}' of event '{ev.name}' has no typing guard (p : E)"
                )
            ptype = _elem_of(type_of_expr(dexpr, local), dexpr.pos, f"typing of '{p}'")
            param_types[p] = ptype
            param_domains[p] = dexpr
            local[p] = ptype
        for g in ev.guards:
            check_pred(g.pred, local)
        for act in ev.actions:
            if act.variable not in variables:
                raise _fail(
                    f"event '{ev.name}' assigns unknown variable '{act.variable}'",
                    act.pos,
                )
            rhs_t = type_of_expr(act.expr, local)
            if unify(rhs_t, variables[act.variable].type) is None:
                raise _fail(
                    f"assignment to '{act.variable}' has type {rhs_t!r}, "
                    f"expected {variables[act.variable].type!r}",
                    act.pos,
                )

        info = EventInfo(ev, param_types, param_domains, ast.name)
        if abstract is not None and not ev.is_init:
            target = ev.refines_event or (ev.name if ev.name in abstract.events else None)
            if ev.refines_event is not None and ev.refines_event not in abstract.events:
                raise UnresolvedReference("event", ev.refines_event)
            if target is not None:
                # Superposition keeps each abstract parameter at its type.
                abs_types = abstract.events[target].param_types
                lost = ", ".join(p for p in abs_types if p not in param_types)
                if lost:
                    raise NotSuperposition(f"event '{ev.name}' drops abstract parameters: {lost}")
                for p, ptype in abs_types.items():
                    if unify(param_types[p], ptype) is None:
                        raise NotSuperposition(f"event '{ev.name}' retypes abstract parameter "
                                               f"'{p}': {param_types[p]!r}, not {ptype!r}")
                info.abstract = abstract.events[target].ast
        events[ev.name] = info

    if abstract is not None:
        covered = {
            info.abstract.name for info in events.values() if info.abstract is not None
        }
        for name, abs_info in abstract.events.items():
            if abs_info.ast.is_init:
                continue
            if name not in covered:
                raise TypeMismatch(
                    f"abstract event '{name}' is not refined by any event of '{ast.name}'"
                )
    return events


def elaborate(units: list[ContextAST | MachineAST]) -> TypedModel:
    """Type-check a parsed file and link every machine to what it refines."""
    raw_contexts: dict[str, ContextAST] = {}
    raw_machines: dict[str, MachineAST] = {}
    for unit in units:
        registry = raw_contexts if isinstance(unit, ContextAST) else raw_machines
        if unit.name in registry:
            raise TypeMismatch(f"duplicate definition of '{unit.name}'")
        registry[unit.name] = unit

    contexts: dict[str, TypedContext] = {}
    for name in raw_contexts:
        _merge_context(name, raw_contexts, contexts, set())
    machines: dict[str, TypedMachine] = {}
    for ast in raw_machines.values():
        _elaborate_machine(ast, raw_machines, contexts, machines, set())
    return TypedModel(contexts, machines)
