"""Evaluator for the closed expression language over finite set values.

Evaluation is pure: the same expression under the same environment always
yields the same value, and nothing here mutates an environment a caller
handed in.  Each syntax node is compiled once, on first evaluation, into a
closure that is kept on the node; there is no second, tree-walking path.
Conjunction and implication evaluate left to right and stop as soon as the
answer is known, so a right operand that is only well defined when the
left one holds is never evaluated otherwise.  Quantifiers expand by enumerating their declared domains, which
must be given syntactically as the leading membership conjuncts of the
quantifier body (for a universal whose body is an implication, the leading
conjuncts of its left-hand side).

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
from typing import Callable, Iterable, Mapping

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
    least = value_sorted(e for e in r.elements if type(e) is not PairV)[0]
    return NotARelation(f"{op} over a set containing non-pair {least!r}")


def _image_list(r: SetV, lefts) -> list[Value]:
    """Right components of the pairs of r whose left is in lefts."""
    out = []
    for p in r.elements:
        if type(p) is not PairV:
            raise _non_pair("image", r)
        if p.left in lefts:
            out.append(p.right)
    return out


def domain_of(r: SetV) -> SetV:
    if type(r) is not SetV:
        raise NotARelation(f"dom needs a relation, got {r!r}")
    out = []
    for p in r.elements:
        if type(p) is not PairV:
            raise _non_pair("dom", r)
        out.append(p.left)
    return SetV(out)


def apply_function(f: SetV, x: Value) -> Value:
    """Function application through the pair graph of f."""
    if type(f) is not SetV:
        raise NotARelation(f"application needs a relation, got {f!r}")
    found = None
    count = 0
    for p in f.elements:
        if type(p) is not PairV:
            raise _non_pair("application", f)
        if p.left == x:
            count += 1
            if count > 1:
                raise NotFunctional(f"{f!r} maps {x!r} to more than one value")
            found = p.right
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
    dom_members = dom_set.elements
    ran_members = ran_set.elements
    seen_lefts: set[Value] = set()
    functional = True
    for p in r.elements:
        if type(p) is not PairV:
            return False
        if p.left not in dom_members or p.right not in ran_members:
            return False
        if p.left in seen_lefts:
            functional = False
        seen_lefts.add(p.left)
    if kind == "rel":
        return True
    if not functional:
        return False
    if kind == "pfun":
        return True
    if kind == "tfun":
        return seen_lefts == set(dom_members)
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
# Every node compiles, on first use, into a closure `code(frame, bound)`
# that evaluates it against a bindings dict (Feeley & Lapalme, "Using
# closures for code generation", 1987).  The closure is memoised on the
# node, so it lives exactly as long as the syntax tree that owns it, and
# dispatch on node type happens once per node instead of once per call.

ExprCode = Callable[[dict, int], Value]
PredCode = Callable[[dict, int], bool]


def eval_expr_frame(e: Expr, frame: dict, bound: int = DEFAULT_POWERSET_BOUND) -> Value:
    """Evaluate against a plain bindings dict; the caller owns the frame."""
    return compile_expr(e)(frame, bound)


def eval_pred_frame(p: Pred, frame: dict, bound: int = DEFAULT_POWERSET_BOUND) -> bool:
    return compile_pred(p)(frame, bound)


def compile_expr(e: Expr) -> ExprCode:
    """The closure that evaluates expression e (built once per node)."""
    try:
        return e._value_code
    except AttributeError:
        if not isinstance(e, Expr):
            raise TypeError(f"not an expression node: {e!r}") from None
    code = _expr_code(e)
    object.__setattr__(e, "_value_code", code)
    return code


def compile_pred(p: Pred) -> PredCode:
    """The closure that decides predicate p (built once per node)."""
    try:
        return p._truth_code
    except AttributeError:
        if not isinstance(p, Pred):
            raise TypeError(f"not a predicate node: {p!r}") from None
    code = _pred_code(p)
    object.__setattr__(p, "_truth_code", code)
    return code


def compile_domain(e: Expr) -> Callable[[dict, int], tuple[Value, ...]]:
    """The closure that lists the members of domain e in the order the
    module docstring gives: the one enumerator behind quantifiers, state
    variables, event parameters and the pow and relation-space expressions."""
    t = type(e)
    if t is Pow:
        base = compile_expr(e.base)
        return lambda f, b: powerset_elements(_as_set(base(f, b), "powerset"), b)
    if t is FnSpace:
        dom, ran, kind = compile_expr(e.dom), compile_expr(e.ran), e.kind

        def space(f, b):
            dom_set = _as_set(dom(f, b), "relation space")
            ran_set = _as_set(ran(f, b), "relation space")
            return enumerate_fn_space(kind, dom_set, ran_set, b)

        return space
    whole = compile_expr(e)

    def members(f, b):
        v = whole(f, b)
        if type(v) is not SetV:
            raise NonFiniteQuantifierDomain(f"domain is not a set: {v!r}")
        return v.sorted_elements()

    return members


def _as_set(v: Value, op: str) -> SetV:
    if type(v) is not SetV:
        raise NotARelation(f"{op} needs a set, got {v!r}")
    return v


def _expr_code(e: Expr) -> ExprCode:
    t = type(e)
    if t is Ident:
        name = e.name

        def ident(f, b):
            try:
                return f[name]
            except KeyError:
                raise UnboundIdentifier(name) from None

        return ident
    if t is EmptySetLit:
        return lambda f, b: EMPTY_SET
    if t is SetEnum or t is Image:
        members = _members_code(e)
        return lambda f, b: SetV(members(f, b))
    if t is Maplet:
        left, right = compile_expr(e.left), compile_expr(e.right)
        return lambda f, b: PairV(left(f, b), right(f, b))
    if t is Union or t is Difference:
        left, right = compile_expr(e.left), compile_expr(e.right)
        op, what = (frozenset.union, "union") if t is Union else (frozenset.difference, "difference")

        def combine(f, b):
            lv = _as_set(left(f, b), what)
            return SetV(op(lv.elements, _as_set(right(f, b), what).elements))

        return combine
    if t is Dom:
        rel = compile_expr(e.rel)
        return lambda f, b: domain_of(rel(f, b))
    if t is Pow or t is FnSpace:
        members = compile_domain(e)
        return lambda f, b: SetV(members(f, b))
    if t is FunApp:
        fn, arg = compile_expr(e.fn), compile_expr(e.arg)
        return lambda f, b: apply_function(fn(f, b), arg(f, b))
    raise TypeError(f"not an expression node: {e!r}")


def _compile_all(exprs: Iterable[Expr]) -> tuple[ExprCode, ...]:
    return tuple(compile_expr(x) for x in exprs)


def _members_code(e: Expr) -> Callable[[dict, int], list[Value]] | None:
    """For an enumeration or an image, the members of its set as a list,
    without building the set; None for any other expression.

    An enumerated image argument, such as the {j} of agent_task[{j}], is
    not built either.
    """
    t = type(e)
    if t is SetEnum:
        items = _compile_all(e.items)
        return lambda f, b: [item(f, b) for item in items]
    if t is not Image:
        return None
    rel = compile_expr(e.rel)
    if type(e.arg) is SetEnum:
        lefts = _members_code(e.arg)

        def members(f, b):
            r = rel(f, b)
            s = lefts(f, b)
            if type(r) is not SetV:
                raise NotARelation(f"image needs a relation, got {r!r}")
            return _image_list(r, s)

        return members
    arg = compile_expr(e.arg)

    def members(f, b):
        r, s = rel(f, b), arg(f, b)
        if type(r) is not SetV:
            raise NotARelation(f"image needs a relation, got {r!r}")
        if type(s) is not SetV:
            raise NotARelation(f"image argument must be a set, got {s!r}")
        return _image_list(r, s.elements)

    return members


def _pred_code(p: Pred) -> PredCode:
    t = type(p)
    if t is Member or t is NotMember:
        member = _member_code(p.item, p.container)
        return member if t is Member else lambda f, b: not member(f, b)
    if t is Equal or t is NotEqual:
        equal = _equal_code(p.left, p.right)
        return equal if t is Equal else lambda f, b: not equal(f, b)
    if t is And:
        left, right = compile_pred(p.left), compile_pred(p.right)
        return lambda f, b: left(f, b) and right(f, b)
    if t is Implies:
        left, right = compile_pred(p.left), compile_pred(p.right)
        return lambda f, b: (not left(f, b)) or right(f, b)
    if t is Subset:
        left = compile_expr(p.left)
        image = _members_code(p.right) if type(p.right) is Image else None
        if image is not None:
            return lambda f, b: _as_set(left(f, b), "subset").elements.issubset(image(f, b))
        right = compile_expr(p.right)

        def subset(f, b):
            lv = _as_set(left(f, b), "subset")
            return lv.elements <= _as_set(right(f, b), "subset").elements

        return subset
    if t is Partition:
        whole, parts = compile_expr(p.whole), _compile_all(p.parts)

        def partition(f, b):
            wv = _as_set(whole(f, b), "partition")
            union: set = set()
            total = 0
            for part in parts:
                elements = _as_set(part(f, b), "partition").elements
                union |= elements
                total += len(elements)
            return union == wv.elements and total == len(union)

        return partition
    if t is Forall or t is Exists:
        return _quantifier(p, is_forall=t is Forall)
    raise TypeError(f"not a predicate node: {p!r}")


def _equal_code(left_expr: Expr, right_expr: Expr) -> PredCode:
    left, right = _members_code(left_expr), _members_code(right_expr)
    if left is not None and right is not None:
        # Both sides are sets by construction: compare their members.
        return lambda f, b: set(left(f, b)) == set(right(f, b))
    left, right = compile_expr(left_expr), compile_expr(right_expr)
    return lambda f, b: left(f, b) == right(f, b)


def _member_code(item_expr: Expr, container: Expr) -> PredCode:
    item = compile_expr(item_expr)
    tc = type(container)
    if tc is Pow:
        # x : pow(S) is a subset test; the powerset itself is never built.
        base = compile_expr(container.base)

        def subset(f, b):
            bv = _as_set(base(f, b), "powerset")
            v = item(f, b)
            return type(v) is SetV and v.elements <= bv.elements

        return subset
    if tc is FnSpace:
        dom, ran, kind = compile_expr(container.dom), compile_expr(container.ran), container.kind

        def of_kind(f, b):
            dom_set = _as_set(dom(f, b), "relation space")
            ran_set = _as_set(ran(f, b), "relation space")
            return check_function_kind(item(f, b), dom_set, ran_set, kind)

        return of_kind
    if tc is Image:
        # x : r[s] scans r for a pair (y |-> x) with y in s.
        image = _members_code(container)

        def in_image(f, b):
            members = image(f, b)
            return item(f, b) in members

        return in_image
    cont = compile_expr(container)

    def member(f, b):
        cv = cont(f, b)
        if type(cv) is not SetV:
            raise NotARelation(f"membership container is not a set: {cv!r}")
        return item(f, b) in cv.elements

    return member


# -- quantifiers


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


def _quantifier(p: Forall | Exists, is_forall: bool) -> PredCode:
    vars, body = p.vars, p.body
    try:
        domains = tuple(compile_domain(d) for d in quantifier_domains(vars, body, is_forall))
    except NonFiniteQuantifierDomain:
        # Reported when evaluated, as a quantifier on an untaken branch
        # is never evaluated.
        def undeclared(f, b):
            quantifier_domains(vars, body, is_forall)

        return undeclared
    holds = compile_pred(body)
    last = len(vars) - 1

    def code(f, b):
        local = dict(f)

        def walk(k: int) -> bool:
            name = vars[k]
            for v in domains[k](local, b):
                local[name] = v
                result = holds(local, b) if k == last else walk(k + 1)
                if result != is_forall:
                    return result
            return is_forall

        return walk(0)

    return code
