"""Evaluator for the closed expression language over finite set values.

Evaluation is pure: the same expression under the same environment always
yields the same value.  Each syntax node is compiled once, on first
evaluation, into one Python function generated from source that inlines
its whole subtree, and the function is kept on the node; there is no
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


def compile_expr(e: Expr) -> ExprCode:
    """The function that evaluates expression e (built once per node)."""
    try:
        return e._value_code
    except AttributeError:
        pass
    return _compiled(e, "expr")


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
    code, _depth = getattr(em, kind)(node, {})
    if em.free:
        # Only the frame is subscripted, so a KeyError for a name this
        # function reads is that name being unbound.
        names = "{" + ", ".join(repr(n) for n in sorted(em.free)) + "}"
        body = (
            f"    try:\n        return {code}\n"
            "    except KeyError as err:\n"
            f"        if err.args and err.args[0] in {names}:\n"
            "            raise UnboundIdentifier(err.args[0]) from None\n"
            "        raise\n"
        )
    else:
        body = f"    return {code}\n"
    return "".join(em.defs) + "def code(f, b):\n" + body, em.names


# The deepest bracket nesting kept in one generated function.  Python
# refuses source nested past 200 brackets, and the parser accepts trees that
# would emit deeper, so a deeper subtree becomes a function of its own.
_CUT = 48


def _form(template: str, *parts: tuple[str, int]) -> tuple[str, int]:
    """Fill the {} holes of template with code parts, each a (source,
    bracket depth) pair; the result is such a pair too."""
    pieces = template.split("{}")
    out = []
    level = depth = 0
    for k, piece in enumerate(pieces):
        for ch in piece:
            if ch in "([{":
                level += 1
                depth = max(depth, level)
            elif ch in ")]}":
                level -= 1
        out.append(piece)
        if k < len(parts):
            code, d = parts[k]
            out.append(code)
            depth = max(depth, level + d)
    return "".join(out), depth


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
    """

    def __init__(self):
        self.defs: list[str] = []  # the subtrees cut into functions of their own
        self.names: dict[str, object] = {}  # objects the source refers to
        self.free: set[str] = set()  # identifiers read from the frame
        self.count = 0

    def fresh(self, stem: str) -> str:
        self.count += 1
        return f"{stem}{self.count}"

    def cut(self, part: tuple[str, int], scope: dict) -> tuple[str, int]:
        """part, or a call to a new function returning it when it nests too
        deep; the locals in scope are passed on as arguments."""
        code, depth = part
        if depth <= _CUT:
            return part
        name = self.fresh("_part")
        params = "".join(", " + local for local in sorted(scope.values()))
        self.defs.append(f"def {name}(f, b{params}):\n    return {code}\n\n")
        return f"{name}(f, b{params})", 1

    # -- expressions

    def expr(self, e: Expr, scope: dict) -> tuple[str, int]:
        return self.cut(self._expr(e, scope), scope)

    def _expr(self, e: Expr, scope: dict) -> tuple[str, int]:
        t = type(e)
        if t is Ident:
            local = scope.get(e.name)
            if local is not None:
                return local, 0
            self.free.add(e.name)
            return f"f[{e.name!r}]", 1
        if t is EmptySetLit:
            return "EMPTY_SET", 0
        if t is SetEnum or t is Image:
            return _form("SetV({})", self.members(e, scope))
        if t is Maplet:
            return _form("PairV({}, {})", self.expr(e.left, scope), self.expr(e.right, scope))
        if t is Union or t is Difference:
            what, op = ("'union'", "|") if t is Union else ("'difference'", "-")
            template = f"SetV(_as_set({{}}, {what}) {op} _as_set({{}}, {what}))"
            return _form(template, self.expr(e.left, scope), self.expr(e.right, scope))
        if t is Dom:
            return _form("domain_of({})", self.expr(e.rel, scope))
        if t is Pow or t is FnSpace:
            return _form("SetV({})", self.domain(e, scope))
        if t is FunApp:
            return _form("apply_function({}, {})", self.expr(e.fn, scope), self.expr(e.arg, scope))
        raise TypeError(f"not an expression node: {e!r}")

    def members(self, e: SetEnum | Image, scope: dict) -> tuple[str, int]:
        """The members of an enumeration or an image as a list, without
        building the set; nor is an enumerated image argument built, such
        as the {j} of agent_task[{j}]."""
        if type(e) is SetEnum:
            parts = [self.expr(item, scope) for item in e.items]
            return self.cut(_form("[" + _holes(len(parts)) + "]", *parts), scope)
        rel = self.expr(e.rel, scope)
        arg = self.members(e.arg, scope) if type(e.arg) is SetEnum else self.expr(e.arg, scope)
        return self.cut(_form("_image_list({}, {})", rel, arg), scope)

    def domain(self, e: Expr, scope: dict) -> tuple[str, int]:
        t = type(e)
        if t is Pow:
            part = _form("powerset_elements(_as_set({}, 'powerset'), b)", self.expr(e.base, scope))
        elif t is FnSpace:
            template = f"enumerate_fn_space({e.kind!r}, {_SPACE_OPERANDS}, b)"
            part = _form(template, self.expr(e.dom, scope), self.expr(e.ran, scope))
        else:
            part = _form("_members({})", self.expr(e, scope))
        return self.cut(part, scope)

    # -- predicates

    def pred(self, p: Pred, scope: dict) -> tuple[str, int]:
        return self.cut(self._pred(p, scope), scope)

    def _pred(self, p: Pred, scope: dict) -> tuple[str, int]:
        t = type(p)
        if t is Member or t is NotMember:
            part = self.member(p.item, p.container, scope)
            return part if t is Member else _form("not {}", part)
        if t is Equal or t is NotEqual:
            if type(p.left) in (SetEnum, Image) and type(p.right) in (SetEnum, Image):
                # Both sides are sets by construction: compare their members.
                template = "set({}) == set({})"
                parts = self.members(p.left, scope), self.members(p.right, scope)
            else:
                template = "{} == {}"
                parts = self.expr(p.left, scope), self.expr(p.right, scope)
            return _form(template if t is Equal else "not " + template, *parts)
        if t is And:
            return self.join("and", [self.pred(c, scope) for c in conjuncts(p)])
        if t is Implies:
            # a => (b => c) runs as `not a or not b or c`.
            parts = []
            while type(p) is Implies:
                parts.append(_form("not {}", self.pred(p.left, scope)))
                p = p.right
            return self.join("or", [*parts, self.pred(p, scope)])
        if t is Subset:
            left = self.expr(p.left, scope)
            if type(p.right) is Image:
                image = self.members(p.right, scope)
                return _form("_as_set({}, 'subset').issubset({})", left, image)
            template = "_as_set({}, 'subset') <= _as_set({}, 'subset')"
            return _form(template, left, self.expr(p.right, scope))
        if t is Partition:
            parts = [self.expr(x, scope) for x in (p.whole, *p.parts)]
            operands = _holes(len(parts), "_as_set({}, 'partition')")
            return _form(f"_partition({operands})", *parts)
        if t is Forall or t is Exists:
            return self.quantifier(p, scope)
        raise TypeError(f"not a predicate node: {p!r}")

    def join(self, op: str, parts: list[tuple[str, int]]) -> tuple[str, int]:
        if len(parts) == 1:
            return parts[0]
        return _form("(" + _holes(len(parts), sep=f" {op} ") + ")", *parts)

    def member(self, item: Expr, container: Expr, scope: dict) -> tuple[str, int]:
        tc = type(container)
        if tc is Pow:
            # x : pow(S) is a subset test; the powerset itself is never built.
            base = self.expr(container.base, scope)
            return _form("_in_pow(_as_set({}, 'powerset'), {})", base, self.expr(item, scope))
        if tc is FnSpace:
            template = f"_in_space({container.kind!r}, {_SPACE_OPERANDS}, {{}})"
            dom, ran = self.expr(container.dom, scope), self.expr(container.ran, scope)
            return _form(template, dom, ran, self.expr(item, scope))
        if tc is Image:
            # x : r[s] scans r for a pair (y |-> x) with y in s.
            image = self.members(container, scope)
            return _form("{}.__contains__({})", image, self.expr(item, scope))
        if tc is Dom:
            # dom(r) raises on a non-pair anywhere in r before x is read.
            rel = self.expr(container.rel, scope)
            return _form("domain_of({}).__contains__({})", rel, self.expr(item, scope))
        cont = self.expr(container, scope)
        return _form("_elements({}).__contains__({})", cont, self.expr(item, scope))

    def quantifier(self, p: Forall | Exists, scope: dict) -> tuple[str, int]:
        """`!x, y . P` runs as all(P for x in X for y in Y), with Y read
        while x is bound; the typing conjuncts the loops already satisfy
        are left out (see _typing_given)."""
        is_forall = type(p) is Forall
        try:
            domains = quantifier_domains(p.vars, p.body, is_forall)
        except NonFiniteQuantifierDomain:
            # Reported when evaluated, as a quantifier on an untaken branch
            # is never evaluated.
            node = self.fresh("_node")
            self.names[node] = p
            return f"_undeclared({node})", 1
        inner = dict(scope)
        loops, fors = [], []
        for name, domain in zip(p.vars, domains):
            loops.append(self.domain(domain, inner))
            local = inner[name] = self.fresh("x")
            fors.append(f"for {local} in {{}}")
        implication = is_forall and type(p.body) is Implies
        chain = conjuncts(p.body.left if implication else p.body)
        kept = [
            self.pred(c, inner)
            for k, c in enumerate(chain)
            if k >= len(domains) or not _typing_given(p.vars, k, domains[k])
        ]
        if implication:
            claim = self.pred(p.body.right, inner)
            element = claim
            if kept:
                element = self.join("or", [_form("not {}", self.join("and", kept)), claim])
        else:
            element = self.join("and", kept) if kept else ("True", 0)
        template = ("all(" if is_forall else "any(") + "{} " + " ".join(fors) + ")"
        return _form(template, element, *loops)


# -- quantifiers


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
