"""Abstract syntax for the modelling language.

The expression language is deliberately closed: it has exactly the set
operators the built-in models need (membership, subset, equality, union,
difference, powerset, relational image, domain, maplets, set enumeration,
function application, the three relation-space constructors, partition,
conjunction, implication and the two bounded quantifiers).

Every node carries a source position for diagnostics; positions are
excluded from structural equality so a pretty-printed and re-parsed tree
compares equal to the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field


Pos = tuple[int, int]

NO_POS: Pos = (0, 0)


def _pos_field():
    return field(default=NO_POS, compare=False, repr=False)


class Expr:
    __slots__ = ("_value_code",)  # the kernel's compiled closure for the node


class Pred:
    __slots__ = ("_truth_code",)  # the kernel's compiled closure for the node


# --- expressions -----------------------------------------------------------


@dataclass(frozen=True)
class Ident(Expr):
    name: str
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class EmptySetLit(Expr):
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class SetEnum(Expr):
    items: tuple[Expr, ...]
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Maplet(Expr):
    left: Expr
    right: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Union(Expr):
    left: Expr
    right: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Difference(Expr):
    left: Expr
    right: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Dom(Expr):
    rel: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Image(Expr):
    rel: Expr
    arg: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class FunApp(Expr):
    fn: Expr
    arg: Expr
    pos: Pos = _pos_field()


# kind: "rel" (<->), "pfun" (+->), "tfun" (-->)
@dataclass(frozen=True)
class FnSpace(Expr):
    kind: str
    dom: Expr
    ran: Expr
    pos: Pos = _pos_field()


# --- predicates --------------------------------------------------------------


@dataclass(frozen=True)
class Member(Pred):
    item: Expr
    container: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class NotMember(Pred):
    item: Expr
    container: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Subset(Pred):
    left: Expr
    right: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Equal(Pred):
    left: Expr
    right: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class NotEqual(Pred):
    left: Expr
    right: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Partition(Pred):
    whole: Expr
    parts: tuple[Expr, ...]
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class And(Pred):
    left: Pred
    right: Pred
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Implies(Pred):
    left: Pred
    right: Pred
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Forall(Pred):
    vars: tuple[str, ...]
    body: Pred
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Exists(Pred):
    vars: tuple[str, ...]
    body: Pred
    pos: Pos = _pos_field()


# --- clauses and units -------------------------------------------------------


@dataclass(frozen=True)
class Labeled:
    """A labelled predicate clause: axiom, invariant or guard."""

    label: str
    pred: Pred
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Action:
    """A labelled simple assignment `variable := expr`."""

    label: str
    variable: str
    expr: Expr
    pos: Pos = _pos_field()


INIT_EVENT = "INITIALISATION"


@dataclass(frozen=True)
class EventAST:
    name: str
    params: tuple[str, ...] = ()
    guards: tuple[Labeled, ...] = ()
    actions: tuple[Action, ...] = ()
    refines_event: str | None = None
    pos: Pos = _pos_field()

    @property
    def is_init(self) -> bool:
        return self.name == INIT_EVENT


@dataclass(frozen=True)
class ContextAST:
    name: str
    extends: tuple[str, ...] = ()
    sets: tuple[str, ...] = ()
    constants: tuple[str, ...] = ()
    axioms: tuple[Labeled, ...] = ()
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class MachineAST:
    name: str
    sees: tuple[str, ...] = ()
    refines: str | None = None
    variables: tuple[str, ...] = ()
    invariants: tuple[Labeled, ...] = ()
    events: tuple[EventAST, ...] = ()
    pos: Pos = _pos_field()


# --- free-identifier collection ----------------------------------------------


def subexprs(e: Expr) -> tuple[Expr, ...]:
    """The immediate operands of an expression node."""
    t = type(e)
    if t is SetEnum:
        return e.items
    if t in (Maplet, Union, Difference):
        return (e.left, e.right)
    if t is Pow:
        return (e.base,)
    if t is Dom:
        return (e.rel,)
    if t is Image:
        return (e.rel, e.arg)
    if t is FunApp:
        return (e.fn, e.arg)
    if t is FnSpace:
        return (e.dom, e.ran)
    return ()


def collect_idents_expr(e: Expr, out: set[str]) -> None:
    if type(e) is Ident:
        out.add(e.name)
    for sub in subexprs(e):
        collect_idents_expr(sub, out)


def collect_idents_pred(p: Pred, out: set[str]) -> None:
    t = type(p)
    if t in (Member, NotMember):
        collect_idents_expr(p.item, out)
        collect_idents_expr(p.container, out)
    elif t in (Subset, Equal, NotEqual):
        collect_idents_expr(p.left, out)
        collect_idents_expr(p.right, out)
    elif t is Partition:
        collect_idents_expr(p.whole, out)
        for part in p.parts:
            collect_idents_expr(part, out)
    elif t in (And, Implies):
        collect_idents_pred(p.left, out)
        collect_idents_pred(p.right, out)
    elif t in (Forall, Exists):
        inner: set[str] = set()
        collect_idents_pred(p.body, inner)
        out.update(inner - set(p.vars))


def free_idents_pred(p: Pred) -> set[str]:
    out: set[str] = set()
    collect_idents_pred(p, out)
    return out


def free_idents_expr(e: Expr) -> set[str]:
    out: set[str] = set()
    collect_idents_expr(e, out)
    return out


def conjuncts(p: Pred) -> list[Pred]:
    """Flatten a left-nested conjunction chain into a list."""
    if type(p) is And:
        return conjuncts(p.left) + conjuncts(p.right)
    return [p]
