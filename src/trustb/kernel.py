"""Evaluator for the closed expression language over finite set values.

Evaluation is pure: the same expression under the same environment always
yields the same value.  Each syntax node is compiled once, on first
evaluation, into one Python function generated from source for its
whole subtree, and the function is kept on the node; there is no
second, tree-walking path.  The frame is only ever read: a quantified
variable is a local of the generated code, never a frame entry.
Conjunction and implication evaluate left to right and stop as soon as the
answer is known, so a right operand that is only well defined when the
left one holds is never evaluated otherwise.  Quantifiers expand by
enumerating their declared domains, one variable at a time, which must be
given syntactically as the leading membership conjuncts of the quantifier
body (for a universal whose body is an implication, the leading conjuncts
of its left-hand side).  Such a typing conjunct is not evaluated again
inside the loop that enumerated its domain, since every member listed
satisfies it, unless a later variable of the quantifier rebinds a name it
reads.

A quantifier is a generated function of its own: a for statement per
variable, one `if` per member that returns False for a universal (the
member fails) or True for an existential (the member holds), and its
answer after the loops.  A predicate whose root is a quantifier is that
function, and a quantifier anywhere else is a call to it that passes the
enclosing locals on as arguments.  A subterm that reads no local of an
inner loop is hoisted lazily (lazy code motion, Knoop, Ruething &
Steffen, PLDI 1992): it gets a slot, reset to None just outside the first
loop whose local it does not read and filled where it is first reached, so
it is computed at most once per pass of the loops it reads and never on a
path that did not reach it.  Errors, the order of evaluation and what a
function reads from its frame are therefore those of the unhoisted code.

There is one domain enumerator, compile_domain, and the runtime's state
and parameter enumeration uses it too.  It lists pow(S) by bitmask over
S's sorted members, a relation or function space in enumerate_fn_space's
order (bitmask over the sorted pairs for a relation, the last domain
element's choice varying fastest for a function), and any other set in
sorted order, so that every downstream search is deterministic.
Enumerations are capped: a powerset or relation space may have at most
2**bound members, with bound 12 by default and configurable per
environment.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, Mapping

from .errors import (
    ApplicationOutsideDomain,
    BoundExceeded,
    NonFiniteQuantifierDomain,
    NotARelation,
    NotFunctional,
    UnboundIdentifier,
)
from .syntax import (
    And,
    Difference,
    Dom,
    EmptySetLit,
    Equal,
    Exists,
    Expr,
    FnSpace,
    Forall,
    FunApp,
    Ident,
    Image,
    Implies,
    Maplet,
    Member,
    NotEqual,
    NotMember,
    Partition,
    Pow,
    Pred,
    SetEnum,
    Subset,
    Union,
    conjuncts,
    free_idents_expr,
)
from .values import (
    BOOL_SET,
    EMPTY_SET,
    FALSE,
    TRUE,
    PairV,
    SetV,
    Value,
    value_sorted,
)

DEFAULT_POWERSET_BOUND = 12

_BUILTINS: dict[str, Value] = {"BOOL": BOOL_SET, "TRUE": TRUE, "FALSE": FALSE}


class Env:
    """An immutable-by-convention binding of identifiers to values.

    BOOL, TRUE and FALSE are pre-bound unless the caller overrides them.
    """

    __slots__ = ("bindings", "powerset_bound")

    def __init__(
        self,
        bindings: Mapping[str, Value] | None = None,
        powerset_bound: int = DEFAULT_POWERSET_BOUND,
    ):
        merged = dict(_BUILTINS)
        if bindings:
            merged.update(bindings)
        self.bindings = merged
        self.powerset_bound = powerset_bound


# --- core set operations ------------------------------------------------------
#
# A set value is a frozenset of its members and a pair p is the tuple
# (2, left, right), so the helpers read p[1] and p[2] (see values).

_pow_cache: dict[tuple[SetV, int], tuple[SetV, ...]] = {}


def powerset_elements(s: SetV, bound: int = DEFAULT_POWERSET_BOUND) -> tuple[SetV, ...]:
    """All subsets of s in canonical order: by bitmask over sorted elements."""
    if type(s) is not SetV:
        raise NotARelation(f"powerset needs a set, got {s!r}")
    if len(s) > bound:
        raise BoundExceeded("powerset", 1 << len(s), bound)
    key = (s, bound)
    cached = _pow_cache.get(key)
    if cached is not None:
        return cached
    elems = s.sorted_elements()
    n = len(elems)
    subsets = []
    for mask in range(1 << n):
        subsets.append(SetV(elems[k] for k in range(n) if mask >> k & 1))
    result = tuple(subsets)
    if len(_pow_cache) < 4096:
        _pow_cache[key] = result
    return result


def _non_pair(op: str, r: SetV) -> NotARelation:
    """The error for a relation operand holding a non-pair.  It names the
    canonically least non-pair, so the message does not depend on hash order."""
    least = value_sorted(e for e in r if type(e) is not PairV)[0]
    return NotARelation(f"{op} over a set containing non-pair {least!r}")


def domain_of(r: SetV) -> SetV:
    if type(r) is not SetV:
        raise NotARelation(f"dom needs a relation, got {r!r}")
    out = []
    for p in r:
        if type(p) is not PairV:
            raise _non_pair("dom", r)
        out.append(p[1])
    return SetV(out)


def apply_function(f: SetV, x: Value) -> Value:
    """Function application through the pair graph of f."""
    if type(f) is not SetV:
        raise NotARelation(f"application needs a relation, got {f!r}")
    found = None
    count = 0
    for p in f:
        if type(p) is not PairV:
            raise _non_pair("application", f)
        if p[1] == x:
            count += 1
            if count > 1:
                raise NotFunctional(f"{f!r} maps {x!r} to more than one value")
            found = p[2]
    if count == 0:
        raise ApplicationOutsideDomain(repr(f), repr(x))
    return found


def check_function_kind(r: Value, dom_set: SetV, ran_set: SetV, kind: str) -> bool:
    """Whether r is a relation / partial function / total function dom -> ran.

    kind is one of "rel", "pfun", "tfun".  Non-set r is simply not a member
    of any relation space, so the answer is False rather than an error.
    """
    if type(r) is not SetV:
        return False
    seen_lefts: set[Value] = set()
    functional = True
    for p in r:
        if type(p) is not PairV:
            return False
        left, right = p[1], p[2]
        if left not in dom_set or right not in ran_set:
            return False
        if left in seen_lefts:
            functional = False
        seen_lefts.add(left)
    if kind == "rel":
        return True
    if not functional:
        return False
    if kind == "pfun":
        return True
    if kind == "tfun":
        return seen_lefts == dom_set
    raise ValueError(f"unknown function kind {kind!r}")


def enumerate_fn_space(
    kind: str, dom_set: SetV, ran_set: SetV, bound: int = DEFAULT_POWERSET_BOUND
) -> tuple[SetV, ...]:
    """All members of a relation space, in canonical order.

    The cardinality cap mirrors the powerset bound: at most 2**bound
    members may be enumerated.
    """
    cap = 1 << bound
    dom_elems = dom_set.sorted_elements()
    ran_elems = ran_set.sorted_elements()
    d, r = len(dom_elems), len(ran_elems)
    if kind == "rel":
        pairs = [PairV(a, b) for a in dom_elems for b in ran_elems]
        n = len(pairs)
        if 1 << n > cap:
            raise BoundExceeded("relation space", 1 << n, bound)
        return tuple(
            SetV(pairs[k] for k in range(n) if mask >> k & 1) for mask in range(1 << n)
        )
    if kind == "pfun":
        if (r + 1) ** d > cap:
            raise BoundExceeded("partial-function space", (r + 1) ** d, bound)
        options = [[None] + [PairV(a, b) for b in ran_elems] for a in dom_elems]
    elif kind == "tfun":
        if d > 0 and r**d > cap:
            raise BoundExceeded("total-function space", r**d, bound)
        options = [[PairV(a, b) for b in ran_elems] for a in dom_elems]
        if r == 0 and d > 0:
            return ()
    else:
        raise ValueError(f"unknown function kind {kind!r}")
    out = []
    for choice in itertools.product(*options):
        out.append(SetV(p for p in choice if p is not None))
    return tuple(out)


# --- compiled evaluation ------------------------------------------------------
#
# Every node that compile_expr, compile_pred or compile_domain is asked for
# becomes one Python function `code(frame, bound)`, built with compile() from
# source that inlines the node's whole subtree (the source is emit_source's).
# The function is memoised on the node, so it lives exactly as long as the
# syntax tree that owns it.  A frame may be a dict subclass whose
# __missing__ supplies identifiers it lacks; a KeyError from it means the
# identifier is unbound.

ExprCode = Callable[[dict, int], Value]
PredCode = Callable[[dict, int], bool]


def eval_expr_frame(e: Expr, frame: dict, bound: int = DEFAULT_POWERSET_BOUND) -> Value:
    """Evaluate against a plain bindings dict; the caller owns the frame."""
    return compile_expr(e)(frame, bound)


def eval_pred_frame(p: Pred, frame: dict, bound: int = DEFAULT_POWERSET_BOUND) -> bool:
    return compile_pred(p)(frame, bound)


def compile_expr(e: Expr, name: str | None = None) -> ExprCode:
    """The function that evaluates expression e (built once per node),
    named as compile_pred names its functions."""
    try:
        return e._value_code
    except AttributeError:
        pass
    return _compiled(e, "expr", name)


def compile_pred(p: Pred, name: str | None = None) -> PredCode:
    """The function that decides predicate p (built once per node).  A
    function built here is compiled under the file name `<trustb NAME>`,
    such as `<trustb M2_int/inv4>`, so that profiles and tracebacks name
    it; without a name, under the node's kind and a counter."""
    try:
        return p._truth_code
    except AttributeError:
        pass
    return _compiled(p, "pred", name)


def compile_domain(e: Expr) -> Callable[[dict, int], tuple[Value, ...]]:
    """The function that lists the members of domain e in the order the
    module docstring gives (built once per node): the one enumerator behind
    quantifiers, state variables, event parameters and the pow and
    relation-space expressions."""
    try:
        return e._domain_code
    except AttributeError:
        pass
    return _compiled(e, "domain")


def emit_source(node: Expr | Pred, kind: str) -> str:
    """The Python source of the function that compile_expr ("expr"),
    compile_pred ("pred") or compile_domain ("domain") builds for node."""
    return _emit(node, kind)[0]


# Per kind, the node class and the node's slot that keeps its function.
_SLOTS = {
    "expr": (Expr, "_value_code"),
    "pred": (Pred, "_truth_code"),
    "domain": (Expr, "_domain_code"),
}


# Numbers the functions compiled without a name.
_unnamed = itertools.count(1)


def _compiled(node: Expr | Pred, kind: str, name: str | None = None) -> Callable:
    cls, slot = _SLOTS[kind]
    if not isinstance(node, cls):
        what = "a predicate" if cls is Pred else "an expression"
        raise TypeError(f"not {what} node: {node!r}")
    source, names = _emit(node, kind)
    namespace = dict(_RUNTIME, **names)
    filename = f"<trustb {name or f'{kind} {next(_unnamed)}'}>"
    exec(compile(source, filename, "exec"), namespace)
    code = namespace["code"]
    object.__setattr__(node, slot, code)
    return code


def _emit(node: Expr | Pred, kind: str) -> tuple[str, dict[str, object]]:
    em = _Emitter()
    plan = _plan(node) if type(node) is Forall or type(node) is Exists else None
    if plan is not None:
        lines = em.quantified(plan, {})
    else:
        lines = ["return " + getattr(em, kind)(node, {})[0]]
    if em.free:
        # Only the frame is subscripted, so a KeyError for a name this
        # function reads is that name being unbound.
        names = "{" + ", ".join(repr(n) for n in sorted(em.free)) + "}"
        lines = [
            "try:", *_indent(lines),
            "except KeyError as err:",
            f"    if err.args and err.args[0] in {names}:",
            "        raise UnboundIdentifier(err.args[0]) from None",
            "    raise",
        ]
    return "".join(em.defs) + _function("code(f, b)", lines), em.names


def _function(head: str, lines: list[str]) -> str:
    return f"def {head}:\n" + "".join(f"    {line}\n" for line in lines) + "\n"


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


# The deepest bracket nesting kept in one generated function.  Python
# refuses source nested past 200 brackets, and the parser accepts trees that
# would emit deeper, so a deeper subtree becomes a function of its own.
_CUT = 48

# The most variables one quantifier's function binds in nested loops.
# Python refuses more than 20 statically nested blocks, and the `try`
# around a body is one; the variables past these go on in a function of
# their own.
_LOOPS = 16

# A frame read, which costs no more than a slot would.
_READ = re.compile(r"f\['\w+'\]")


def _holes(n: int, item: str = "{}", sep: str = ", ") -> str:
    return sep.join([item] * n)


# A relation space's two operands, each checked to be a set.
_SPACE_OPERANDS = "_as_set({}, 'relation space'), _as_set({}, 'relation space')"


class _Emitter:
    """Python source for one node's function.

    Each template fixes the order of its operands (a membership reads its
    container before its item) and checks each operand right after
    evaluating it, so the error raised, its message and the state it is
    raised in follow from the tree alone.  A free identifier reads the
    frame as f["name"]; a quantified variable is a local of the generated
    code (scope maps each name in reach to its local), so the frame is only
    ever read.

    A code part is a triple: its source, its bracket depth and its level,
    the deepest loop of this function whose local it reads (0 for none).
    A part below the level of the code around it has the same value on
    every pass of the loops in between, so it gets a slot (see hoist).
    """

    def __init__(self):
        self.defs: list[str] = []  # the functions cut off from this one
        self.names: dict[str, object] = {}  # objects the source refers to
        self.free: set[str] = set()  # identifiers read from the frame
        self.count = 0
        # Of the function being emitted: the loops open around the code,
        # each loop local's loop (1 for the outermost), and the slots not yet
        # reset, each with its level, its source and the code it stands for.
        self.loops = 0
        self.levels: dict[str, int] = {}
        self.slots: dict[str, tuple[int, str, str]] = {}

    def fresh(self, stem: str) -> str:
        self.count += 1
        return f"{stem}{self.count}"

    def form(self, template: str, *parts: tuple[str, int, int]) -> tuple[str, int, int]:
        """Fill the {} holes of template with parts, each part below the
        others' level hoisted first; the result is a part too."""
        level = max([part[2] for part in parts], default=0)
        out = []
        nest = depth = 0
        for k, piece in enumerate(template.split("{}")):
            for ch in piece:
                if ch in "([{":
                    nest += 1
                    depth = max(depth, nest)
                elif ch in ")]}":
                    nest -= 1
            out.append(piece)
            if k < len(parts):
                code, d, _level = self.hoist(parts[k], level)
                out.append(code)
                depth = max(depth, nest + d)
        return "".join(out), depth, level

    def hoist(self, part: tuple[str, int, int], level: int) -> tuple[str, int, int]:
        """part, in a slot if it reads no local of the loops past its level
        up to `level`.  The slot is reset just outside the first loop the
        part does not read and filled where the part is first reached, so
        the part is computed only where the unhoisted code computed it, and
        at most once per pass of the loops it reads.  No part's value is
        None, so None marks an empty slot."""
        code, depth, below = part
        if below >= level or code.isidentifier() or _READ.fullmatch(code):
            return part
        slot = self.fresh("_s")
        slotted = f"({slot} if {slot} is not None else ({slot} := {code}))"
        self.slots[slot] = (below, slotted, code)
        return slotted, depth + 2, below

    def resets(self, level: int) -> list[str]:
        """The statement resetting the slots of `level`, which leave."""
        names = [slot for slot, (below, _s, _c) in self.slots.items() if below == level]
        for slot in names:
            del self.slots[slot]
        return [" = ".join(names) + " = None"] if names else []

    def cut(self, part: tuple[str, int, int], scope: dict) -> tuple[str, int, int]:
        """part, or a call to a new function returning it when it nests too
        deep; the locals in scope are passed on as arguments, and the slots
        in part are filled in again with their code, as the new function
        cannot assign them."""
        code, depth, level = part
        if depth <= _CUT:
            return part
        for slot, (_below, slotted, raw) in reversed(list(self.slots.items())):
            if slotted in code:
                code = code.replace(slotted, raw)
                del self.slots[slot]
        name = self.fresh("_part")
        params = "".join(", " + local for local in sorted(scope.values()))
        self.defs.append(_function(f"{name}(f, b{params})", [f"return {code}"]))
        return f"{name}(f, b{params})", 1, level

    # -- expressions

    def expr(self, e: Expr, scope: dict) -> tuple[str, int, int]:
        return self.cut(self._expr(e, scope), scope)

    def _expr(self, e: Expr, scope: dict) -> tuple[str, int, int]:
        t = type(e)
        if t is Ident:
            local = scope.get(e.name)
            if local is not None:
                return local, 0, self.levels.get(local, 0)
            self.free.add(e.name)
            return f"f[{e.name!r}]", 1, 0
        if t is EmptySetLit:
            return "EMPTY_SET", 0, 0
        if t is SetEnum or t is Image:
            return self.form("SetV({})", self.members(e, scope))
        if t is Maplet:
            left, right = self.expr(e.left, scope), self.expr(e.right, scope)
            return self.form("_tuple_new(PairV, (2, {}, {}))", left, right)
        if t is Union or t is Difference:
            what, op = ("'union'", "|") if t is Union else ("'difference'", "-")
            template = f"SetV(_as_set({{}}, {what}) {op} _as_set({{}}, {what}))"
            return self.form(template, self.expr(e.left, scope), self.expr(e.right, scope))
        if t is Dom:
            return self.form("domain_of({})", self.expr(e.rel, scope))
        if t is Pow or t is FnSpace:
            return self.form("SetV({})", self.domain(e, scope))
        if t is FunApp:
            fn, arg = self.expr(e.fn, scope), self.expr(e.arg, scope)
            return self.form("apply_function({}, {})", fn, arg)
        raise TypeError(f"not an expression node: {e!r}")

    def members(self, e: SetEnum | Image, scope: dict) -> tuple[str, int, int]:
        """The members of an enumeration or an image as a list, without
        building the set; nor is an enumerated image argument built, such
        as the {j} of agent_task[{j}]."""
        if type(e) is SetEnum:
            parts = [self.expr(item, scope) for item in e.items]
            return self.cut(self.form("[" + _holes(len(parts)) + "]", *parts), scope)
        rel = self.expr(e.rel, scope)
        arg = self.members(e.arg, scope) if type(e.arg) is SetEnum else self.expr(e.arg, scope)
        return self.cut(self.form("_image_list({}, {})", rel, arg), scope)

    def domain(self, e: Expr, scope: dict) -> tuple[str, int, int]:
        t = type(e)
        if t is Pow:
            template = "powerset_elements(_as_set({}, 'powerset'), b)"
            part = self.form(template, self.expr(e.base, scope))
        elif t is FnSpace:
            template = f"enumerate_fn_space({e.kind!r}, {_SPACE_OPERANDS}, b)"
            part = self.form(template, self.expr(e.dom, scope), self.expr(e.ran, scope))
        else:
            part = self.form("_members({})", self.expr(e, scope))
        return self.cut(part, scope)

    # -- predicates

    def pred(self, p: Pred, scope: dict) -> tuple[str, int, int]:
        return self.cut(self._pred(p, scope), scope)

    def _pred(self, p: Pred, scope: dict) -> tuple[str, int, int]:
        t = type(p)
        if t is Member or t is NotMember:
            part = self.member(p.item, p.container, scope)
            return part if t is Member else self.form("not {}", part)
        if t is Equal or t is NotEqual:
            if type(p.left) in (SetEnum, Image) and type(p.right) in (SetEnum, Image):
                # Both sides are sets by construction: compare their members.
                parts = [self.form("set({})", self.members(x, scope)) for x in (p.left, p.right)]
            else:
                parts = [self.expr(p.left, scope), self.expr(p.right, scope)]
            return self.form("{} == {}" if t is Equal else "not {} == {}", *parts)
        if t is And:
            return self.join("and", [self.pred(c, scope) for c in conjuncts(p)])
        if t is Implies:
            # a => (b => c) runs as `not a or not b or c`.
            parts = []
            while type(p) is Implies:
                parts.append(self.form("not {}", self.pred(p.left, scope)))
                p = p.right
            return self.join("or", [*parts, self.pred(p, scope)])
        if t is Subset:
            left = self.expr(p.left, scope)
            if type(p.right) is Image:
                image = self.members(p.right, scope)
                return self.form("_as_set({}, 'subset').issubset({})", left, image)
            template = "_as_set({}, 'subset') <= _as_set({}, 'subset')"
            return self.form(template, left, self.expr(p.right, scope))
        if t is Partition:
            parts = [self.expr(x, scope) for x in (p.whole, *p.parts)]
            operands = _holes(len(parts), "_as_set({}, 'partition')")
            return self.form(f"_partition({operands})", *parts)
        if t is Forall or t is Exists:
            plan = _plan(p)
            if plan is None:
                # Reported when evaluated, as a quantifier on an untaken
                # branch is never evaluated.
                node = self.fresh("_node")
                self.names[node] = p
                return f"_undeclared({node})", 1, 0
            return self.call(plan, scope)
        raise TypeError(f"not a predicate node: {p!r}")

    def join(self, op: str, parts: list[tuple[str, int, int]]) -> tuple[str, int, int]:
        if len(parts) == 1:
            return parts[0]
        return self.form("(" + _holes(len(parts), sep=f" {op} ") + ")", *parts)

    def member(self, item: Expr, container: Expr, scope: dict) -> tuple[str, int, int]:
        tc = type(container)
        if tc is Pow:
            # x : pow(S) is a subset test; the powerset itself is never built.
            base = self.expr(container.base, scope)
            return self.form("_in_pow(_as_set({}, 'powerset'), {})", base, self.expr(item, scope))
        if tc is FnSpace:
            template = f"_in_space({container.kind!r}, {_SPACE_OPERANDS}, {{}})"
            dom, ran = self.expr(container.dom, scope), self.expr(container.ran, scope)
            return self.form(template, dom, ran, self.expr(item, scope))
        if tc is Image:
            # x : r[s] scans r for a pair (y |-> x) with y in s.
            whole = self.members(container, scope)
        elif tc is Dom:
            # dom(r) raises on a non-pair anywhere in r before x is read.
            whole = self.form("domain_of({})", self.expr(container.rel, scope))
        else:
            whole = self.form("_elements({})", self.expr(container, scope))
        return self.form("{}.__contains__({})", whole, self.expr(item, scope))

    # -- quantifiers

    def quantified(self, plan: tuple, scope: dict) -> list[str]:
        """The statements of the function deciding a quantifier's plan: a
        for statement per variable, one `if` per member that returns False
        for a universal or True for an existential, and its answer after the
        loops.  The variables past _LOOPS are a quantifier of their own,
        which is the claim of the first _LOOPS."""
        forall, names, domains, kept, claim = plan
        if len(names) > _LOOPS:
            rest = (forall, names[_LOOPS:], domains[_LOOPS:], kept, claim)
            names, domains, kept, claim = names[:_LOOPS], domains[:_LOOPS], [], [rest]
        inner = dict(scope)
        heads = []
        for name, domain in zip(names, domains):
            members = self.source(self.domain(domain, inner))
            local = inner[name] = self.fresh("x")
            self.loops += 1
            self.levels[local] = self.loops
            heads.append(f"for {local} in {members}:")
        if claim:
            test = self.all_of(claim, inner)
            if forall:  # a member fails
                test = self.form("not {}", test)
                if kept:
                    test = self.form("{} and {}", self.all_of(kept, inner), test)
            lines = [f"if {self.source(test)}:", f"    return {not forall}"]
        else:
            lines = ["pass" if forall else "return True"]
        for k in reversed(range(len(heads))):
            lines = [*self.resets(k), heads[k], *_indent(lines)]
        return [*lines, f"return {forall}"]

    def source(self, part: tuple[str, int, int]) -> str:
        """The source of part for a statement in the innermost open loop."""
        return self.hoist(part, self.loops)[0]

    def all_of(self, items: list, scope: dict) -> tuple[str, int, int]:
        """The part deciding every item, a predicate or a quantifier's _plan."""
        return self.join("and", [
            self.call(p, scope) if type(p) is tuple else self.pred(p, scope) for p in items
        ])

    def call(self, plan: tuple, scope: dict) -> tuple[str, int, int]:
        """A call to a new function deciding a quantifier's plan; the
        locals in scope are passed on as arguments."""
        name = self.fresh("_q")
        params = "".join(", " + local for local in sorted(scope.values()))
        level = max([self.levels.get(local, 0) for local in scope.values()], default=0)
        outer = self.loops, self.levels, self.slots
        self.loops, self.levels, self.slots = 0, {}, {}
        lines = self.quantified(plan, scope)
        self.loops, self.levels, self.slots = outer
        self.defs.append(_function(f"{name}(f, b{params})", lines))
        return f"{name}(f, b{params})", 1, level


# -- quantifiers


def _plan(p: Forall | Exists) -> tuple | None:
    """How quantifier p runs: (whether it is universal, its variables, their
    domains, kept, claim), or None if its domains are not declared (see
    quantifier_domains).  A member of a universal's domains passes when a
    conjunct of kept fails or every conjunct of claim holds; a member of an
    existential's holds when every conjunct of claim does, and kept is
    empty.  The typing conjuncts the loops already satisfy are left out
    (see _typing_given)."""
    forall = type(p) is Forall
    try:
        domains = quantifier_domains(p.vars, p.body, forall)
    except NonFiniteQuantifierDomain:
        return None
    implication = forall and type(p.body) is Implies
    chain = conjuncts(p.body.left if implication else p.body)
    kept = [
        c for k, c in enumerate(chain)
        if k >= len(domains) or not _typing_given(p.vars, k, domains[k])
    ]
    if implication:
        return forall, p.vars, domains, kept, [p.body.right]
    return forall, p.vars, domains, [], kept


def _typing_given(vars: tuple[str, ...], k: int, domain: Expr) -> bool:
    """Whether the k-th typing conjunct `vars[k] : domain` holds for every
    member the k-th loop binds, so that it need not run.  compile_domain's
    members of a domain are exactly what the membership code accepts; the
    conjunct runs after the loops, though, so it is given only when it
    still reads vars[k] and domain as the loop did: no later variable of
    the quantifier rebinds vars[k] or a name the domain mentions."""
    return vars[k] not in vars[k + 1:] and not free_idents_expr(domain) & set(vars[k:])


def quantifier_domains(vars: tuple[str, ...], body: Pred, is_forall: bool) -> list[Expr]:
    """The domain expression for each bound variable, read syntactically.

    The k-th leading conjunct of the body (of the implication's left side,
    for a universal written as typing => claim) must be `vars[k] : D`.
    """
    if is_forall and type(body) is Implies:
        chain = conjuncts(body.left)
    else:
        chain = conjuncts(body)
    if len(chain) < len(vars):
        raise NonFiniteQuantifierDomain(
            f"expected {len(vars)} typing conjuncts, found {len(chain)}"
        )
    domains: list[Expr] = []
    for k, name in enumerate(vars):
        c = chain[k]
        if type(c) is Member and type(c.item) is Ident and c.item.name == name:
            domains.append(c.container)
        else:
            raise NonFiniteQuantifierDomain(
                f"quantified variable '{name}' is not typed by conjunct {k + 1}"
            )
    return domains


# -- what the generated code calls


def _as_set(v: Value, op: str) -> SetV:
    if type(v) is not SetV:
        raise NotARelation(f"{op} needs a set, got {v!r}")
    return v


def _elements(v: Value) -> SetV:
    if type(v) is not SetV:
        raise NotARelation(f"membership container is not a set: {v!r}")
    return v


def _members(v: Value) -> tuple[Value, ...]:
    if type(v) is not SetV:
        raise NonFiniteQuantifierDomain(f"domain is not a set: {v!r}")
    return v.sorted_elements()


def _image_list(r: Value, lefts) -> list[Value]:
    """Right components of the pairs of r whose left is in lefts: a list of
    values, or a set value."""
    if type(r) is not SetV:
        raise NotARelation(f"image needs a relation, got {r!r}")
    if type(lefts) is not list:
        if type(lefts) is not SetV:
            raise NotARelation(f"image argument must be a set, got {lefts!r}")
    out = []
    for p in r:
        if type(p) is not PairV:
            raise _non_pair("image", r)
        if p[1] in lefts:
            out.append(p[2])
    return out


def _in_pow(base: SetV, v: Value) -> bool:
    return type(v) is SetV and v <= base


def _in_space(kind: str, dom_set: SetV, ran_set: SetV, v: Value) -> bool:
    return check_function_kind(v, dom_set, ran_set, kind)


def _partition(whole: SetV, *parts: SetV) -> bool:
    union: set = set()
    total = 0
    for part in parts:
        union |= part
        total += len(part)
    return union == whole and total == len(union)


def _undeclared(p: Forall | Exists) -> None:
    """Raise the error quantifier_domains gives for p's domains."""
    quantifier_domains(p.vars, p.body, type(p) is Forall)


# The globals of every generated function.
_RUNTIME = {
    "SetV": SetV,
    "PairV": PairV,
    "_tuple_new": tuple.__new__,  # builds a pair without PairV.__new__'s Python frame
    "EMPTY_SET": EMPTY_SET,
    "UnboundIdentifier": UnboundIdentifier,
    "powerset_elements": powerset_elements,
    "enumerate_fn_space": enumerate_fn_space,
    "domain_of": domain_of,
    "apply_function": apply_function,
    **{f.__name__: f for f in (
        _as_set, _elements, _members, _image_list, _in_pow, _in_space, _partition, _undeclared,
    )},
}
