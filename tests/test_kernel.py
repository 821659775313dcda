import itertools

import pytest
from hypothesis import given, settings, strategies as st

from trustb.dsl import parse_expression, parse_predicate
from trustb.errors import (
    ApplicationOutsideDomain,
    BoundExceeded,
    NonFiniteQuantifierDomain,
    NotARelation,
    NotFunctional,
    UnboundIdentifier,
)
from trustb.kernel import (
    Env,
    apply_function,
    check_function_kind,
    compile_domain,
    compile_pred,
    domain_of,
    enumerate_fn_space,
    eval_expr_frame,
    eval_pred_frame,
    powerset_elements,
)
from trustb.values import EMPTY_SET, FALSE, TRUE, Atom, PairV, SetV, mkatoms, mkset


def ev(text, **bindings):
    return eval_expr_frame(parse_expression(text), Env(bindings).bindings)


def holds(text, **bindings):
    return eval_pred_frame(parse_predicate(text), Env(bindings).bindings)


A, B, C = Atom("a"), Atom("b"), Atom("c")


# --- powerset ------------------------------------------------------


def brute_powerset(s):
    elems = list(s.elements)
    out = set()
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            out.add(SetV(combo))
    return out


@given(st.sets(st.sampled_from("abcde"), max_size=5))
def test_powerset_matches_brute_force(names):
    s = mkatoms(names)
    subsets = powerset_elements(s, bound=8)
    assert len(subsets) == 2 ** len(names)
    assert set(subsets) == brute_powerset(s)
    assert len(set(subsets)) == len(subsets)


def test_powerset_deterministic_order():
    s = mkatoms(["b", "a", "c"])
    assert powerset_elements(s, 8) == powerset_elements(mkatoms(["c", "a", "b"]), 8)


def test_powerset_bound():
    s = mkatoms(f"x{i}" for i in range(13))
    with pytest.raises(BoundExceeded):
        powerset_elements(s, 12)
    assert len(powerset_elements(s, 13)) == 2**13


def test_powerset_rejects_non_set():
    with pytest.raises(NotARelation):
        powerset_elements(A, 8)


# --- relational operations ------------------------------------------------------


def rel(*pairs):
    return mkset(PairV(x, y) for x, y in pairs)


def test_relational_image_oracle():
    r = rel((A, B), (A, C), (B, C))
    assert ev("r[s]", r=r, s=mkset([A])) == mkset([B, C])
    assert ev("r[s]", r=r, s=mkset([B])) == mkset([C])
    assert ev("r[s]", r=r, s=mkset([C])) == EMPTY_SET
    assert ev("r[s]", r=r, s=mkset([A, B])) == mkset([B, C])
    assert ev("r[s]", r=EMPTY_SET, s=mkset([A])) == EMPTY_SET


@given(
    st.sets(st.tuples(st.sampled_from("abc"), st.sampled_from("abc")), max_size=9),
    st.sets(st.sampled_from("abc"), max_size=3),
)
def test_relational_image_comprehension(pairs, arg):
    r = mkset(PairV(Atom(x), Atom(y)) for x, y in pairs)
    s = mkatoms(arg)
    expected = mkset(Atom(y) for x, y in pairs if x in arg)
    assert ev("r[s]", r=r, s=s) == expected


def test_domain_of():
    assert domain_of(rel((A, B), (B, C))) == mkset([A, B])
    assert domain_of(EMPTY_SET) == EMPTY_SET
    with pytest.raises(NotARelation):
        domain_of(mkset([A]))


def test_apply_function():
    f = rel((A, B), (B, C))
    assert apply_function(f, A) == B
    with pytest.raises(ApplicationOutsideDomain):
        apply_function(f, C)
    with pytest.raises(NotFunctional):
        apply_function(rel((A, B), (A, C)), A)


# --- function kinds ------------------------------------------------------


def brute_kind(r, dom, ran, kind):
    if not all(isinstance(p, PairV) for p in r.elements):
        return False
    pairs = [(p.left, p.right) for p in r.elements]
    if not all(x in dom.elements and y in ran.elements for x, y in pairs):
        return False
    if kind == "rel":
        return True
    lefts = [x for x, _ in pairs]
    if len(set(lefts)) != len(lefts):
        return False
    if kind == "pfun":
        return True
    return set(lefts) == set(dom.elements)


@given(
    st.sets(st.tuples(st.sampled_from("abc"), st.sampled_from("xy")), max_size=6),
    st.sampled_from(["rel", "pfun", "tfun"]),
)
def test_check_function_kind_oracle(pairs, kind):
    dom = mkatoms("abc")
    ran = mkatoms("xy")
    r = mkset(PairV(Atom(x), Atom(y)) for x, y in pairs)
    assert check_function_kind(r, dom, ran, kind) == brute_kind(r, dom, ran, kind)


def test_check_function_kind_non_set():
    assert not check_function_kind(A, mkatoms("a"), mkatoms("b"), "rel")


def test_enumerate_fn_space_counts():
    dom = mkatoms("ab")
    ran = mkatoms("xyz")
    rels = enumerate_fn_space("rel", dom, ran, 12)
    pfuns = enumerate_fn_space("pfun", dom, ran, 12)
    tfuns = enumerate_fn_space("tfun", dom, ran, 12)
    assert len(rels) == 2 ** (2 * 3)
    assert len(pfuns) == (3 + 1) ** 2
    assert len(tfuns) == 3**2
    for space, kind in ((rels, "rel"), (pfuns, "pfun"), (tfuns, "tfun")):
        assert len(set(space)) == len(space)
        for f in space:
            assert brute_kind(f, dom, ran, kind)


def test_enumerate_fn_space_respects_bound():
    dom = mkatoms("abcd")
    ran = mkatoms("wxyz")
    with pytest.raises(BoundExceeded):
        enumerate_fn_space("rel", dom, ran, 12)  # 2**16 candidates


def test_fn_space_deterministic():
    dom = mkatoms("ab")
    ran = mkatoms("xy")
    assert enumerate_fn_space("pfun", dom, ran, 12) == enumerate_fn_space(
        "pfun", mkatoms("ba"), mkatoms("yx"), 12
    )


# Every value over the atoms a, b, c of the shapes a domain can hold: the
# atoms, their sets and the relations between them.
_ABC = mkatoms("abc")
_CANDIDATES = (
    *_ABC.sorted_elements(),
    *powerset_elements(_ABC),
    *enumerate_fn_space("rel", _ABC, _ABC),
)


@pytest.mark.parametrize("domain", ["pow(S)", "S <-> T", "S +-> T", "S --> T", "S"])
@given(st.sets(st.sampled_from("abc"), max_size=3), st.sets(st.sampled_from("abc"), max_size=3))
@settings(max_examples=30)
def test_domain_lists_exactly_what_membership_accepts(domain, s, t):
    # The discharge walk takes a variable's typing invariant `v : E` as
    # true on every state it lists, which holds because the members
    # compile_domain lists for E are those that `v : E` accepts.
    frame = Env({"S": mkatoms(s), "T": mkatoms(t)}).bindings
    listed = compile_domain(parse_expression(domain))(frame, 12)
    member = compile_pred(parse_predicate(f"v : {domain}"))
    accepted = {v for v in _CANDIDATES if member({**frame, "v": v}, 12)}
    assert len(set(listed)) == len(listed)
    assert set(listed) == accepted


# --- expression evaluation ------------------------------------------------------


def test_eval_basics():
    s = mkatoms("pq")
    assert ev("S \\/ {r}", S=s, r=Atom("r")) == mkatoms("pqr")
    assert ev("S \\ {p}", S=s, p=Atom("p")) == mkatoms("q")
    assert ev("{}") == EMPTY_SET
    assert ev("x |-> y", x=A, y=B) == PairV(A, B)
    assert ev("dom(r)", r=rel((A, B))) == mkset([A])
    assert ev("r[{a}]", r=rel((A, B)), a=A) == mkset([B])
    assert ev("f(a)", f=rel((A, B)), a=A) == B


def test_eval_unbound():
    with pytest.raises(UnboundIdentifier):
        ev("nothing_here")


def test_builtins_bound():
    assert ev("TRUE") is TRUE
    assert ev("BOOL") == mkset([TRUE, FALSE])


def test_eval_pow_materializes():
    out = ev("pow(S)", S=mkatoms("ab"))
    assert out == mkset(brute_powerset(mkatoms("ab")))


def test_membership_fast_paths_match_materialized():
    s = mkatoms("abc")
    for sub in brute_powerset(s):
        direct = holds("x : pow(S)", x=sub, S=s)
        materialized = sub in ev("pow(S)", S=s).elements
        assert direct == materialized
    f = rel((A, B))
    assert holds("f : {a} +-> {b}", f=f, a=A, b=B)
    assert holds("f : {a} --> {b}", f=f, a=A, b=B)
    # the empty set is a partial but not a total function on a nonempty domain
    assert holds("f : {a} +-> {b}", f=EMPTY_SET, a=A, b=B)
    assert not holds("f : {a} --> {b}", f=EMPTY_SET, a=A, b=B)


def test_predicates():
    assert holds("{a} <: {a, b}", a=A, b=B)
    assert not holds("{a, c} <: {a, b}", a=A, b=B, c=C)
    assert holds("x /: {b}", x=A, b=B)
    assert holds("x = x & x /= y", x=A, y=B)
    assert holds("x = y => y = x", x=A, y=B)


def test_partition_requires_disjoint_cover():
    assert holds("partition(S, {a}, {b})", S=mkatoms("ab"), a=A, b=B)
    assert not holds("partition(S, {a}, {a, b})", S=mkatoms("ab"), a=A, b=B)
    assert not holds("partition(S, {a}, {b})", S=mkatoms("abc"), a=A, b=B)
    assert holds("partition(S, S, {})", S=mkatoms("ab"))


# --- quantifiers ------------------------------------------------------


def test_forall_matches_python_fold():
    s = mkatoms("abc")
    e = mkatoms("ab")
    got = holds("!x . x : S => x : E", S=s, E=e)
    want = all(x in e.elements for x in s.elements)
    assert got == want


def test_exists_matches_python_fold():
    s = mkatoms("abc")
    got = holds("#x . x : S & x = a", S=s, a=A)
    assert got == any(x == A for x in s.elements)
    assert not holds("#x . x : S & x = q", S=s, q=Atom("q"))


def test_nested_quantifiers_short_circuit_order_free():
    r = rel((A, B), (B, C))
    got = holds("!x, y . x : S & y : S & x |-> y : r => x /= y", S=mkatoms("abc"), r=r)
    pairs = [(x, y) for x in "abc" for y in "abc"]
    want = all(
        not (PairV(Atom(x), Atom(y)) in r.elements) or x != y for x, y in pairs
    )
    assert got == want


def test_quantifier_over_powerset_domain():
    assert holds("#j . j : pow(S) & j /= {}", S=mkatoms("a"))
    assert not holds("#j . j : pow(S) & j /= {}", S=EMPTY_SET)
    # Relation and function spaces as domains, against a brute force over
    # enumerate_fn_space's members.
    S, T = mkatoms("ab"), mkatoms("bc")
    both = mkset([PairV(A, B), PairV(B, B)])
    claims = [
        ("#f . f : S {} T & a |-> c : f & b |-> b : f", any,
         lambda f: PairV(A, C) in f.elements and PairV(B, B) in f.elements),
        ("!f . f : S {} T => f[{{a}}] /= {{}}", all,
         lambda f: any(p.left == A for p in f.elements)),
        ("#f . f : S {} T & dom(f) = S & f /= {{a |-> b, b |-> b}}", any,
         lambda f: {p.left for p in f.elements} == {A, B} and f != both),
        ("!f . f : S {} T => f : S +-> T", all,
         lambda f: len({p.left for p in f.elements}) == len(f)),
    ]
    for op, kind in (("<->", "rel"), ("+->", "pfun"), ("-->", "tfun")):
        space = enumerate_fn_space(kind, S, T)
        for text, fold, claim in claims:
            want = fold(claim(f) for f in space)
            assert holds(text.format(op), S=S, T=T, a=A, b=B, c=C) == want, (text, op)


def test_quantifier_needs_declared_domain():
    with pytest.raises(NonFiniteQuantifierDomain):
        holds("!x . x = x")
    with pytest.raises(NonFiniteQuantifierDomain):
        holds("#x . x /= a", a=A)


def test_quantifier_domain_may_use_earlier_vars():
    assert holds(
        "!x, y . x : pow(S) & y : x => y : S",
        S=mkatoms("ab"),
    )


# --- environment behaviour ------------------------------------------------------


def test_eval_is_pure():
    env = Env({"S": mkatoms("ab")})
    before = dict(env.bindings)
    ev("pow(S)", S=mkatoms("ab"))
    holds("!x . x : S => x : S", S=mkatoms("ab"))
    assert env.bindings == before


@settings(max_examples=60)
@given(st.sets(st.sampled_from("abcd"), max_size=4), st.sets(st.sampled_from("abcd"), max_size=4))
def test_union_difference_against_python_sets(xs, ys):
    sx, sy = mkatoms(xs), mkatoms(ys)
    assert ev("X \\/ Y", X=sx, Y=sy) == mkatoms(xs | ys)
    assert ev("X \\ Y", X=sx, Y=sy) == mkatoms(xs - ys)
    assert holds("X <: Y", X=sx, Y=sy) == (xs <= ys)


# --- compiled evaluator against plain frozenset arithmetic ----------------------
#
# Random small terms over atoms a, b, c, atom sets s1, s2 and relations
# r1, r2, each drawn with a reference function over Python frozensets.
# An atom is represented by its name, a pair by a 2-tuple.

_NAMES = "abc"
_PAIRS = [(x, y) for x in _NAMES for y in _NAMES]


def _plain(v):
    if type(v) is SetV:
        return frozenset(_plain(x) for x in v.elements)
    if type(v) is PairV:
        return (_plain(v.left), _plain(v.right))
    return v.name


def _enum(items):
    text = "{" + ", ".join(items) + "}"
    return text, lambda env: frozenset(items)


def _pair_enum(pairs):
    text = "{" + ", ".join(f"({x} |-> {y})" for x, y in pairs) + "}"
    return text, lambda env: frozenset(pairs)


def _binary(op, ref):
    def build(left, right):
        return f"({left[0]} {op} {right[0]})", lambda env: ref(left[1](env), right[1](env))

    return build


def _variable(name):
    return name, lambda env: env[name]


_union = _binary("\\/", frozenset.union)
_difference = _binary("\\", frozenset.difference)

_relations = st.recursive(
    st.one_of(
        st.sampled_from(["r1", "r2"]).map(_variable),
        st.lists(st.sampled_from(_PAIRS), min_size=1, max_size=3, unique=True).map(_pair_enum),
    ),
    lambda inner: st.one_of(st.builds(_union, inner, inner), st.builds(_difference, inner, inner)),
    max_leaves=4,
)


def _dom(rel):
    return f"dom({rel[0]})", lambda env: frozenset(x for x, _y in rel[1](env))


def _image(rel, arg):
    return f"{rel[0]}[{arg[0]}]", lambda env: frozenset(
        y for x, y in rel[1](env) if x in arg[1](env)
    )


_sets = st.recursive(
    st.one_of(
        st.sampled_from(["s1", "s2"]).map(_variable),
        st.just(("{}", lambda env: frozenset())),
        st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3, unique=True).map(_enum),
    ),
    lambda inner: st.one_of(
        st.builds(_union, inner, inner),
        st.builds(_difference, inner, inner),
        st.builds(_dom, _relations),
        st.builds(_image, _relations, inner),
    ),
    max_leaves=6,
)

_atoms = st.sampled_from(_NAMES).map(lambda n: (n, lambda env: n))


def _atomic_pred(kind, left, right):
    lt, lf = left
    rt, rf = right
    if kind == "member":
        return f"{lt} : {rt}", lambda env: lf(env) in rf(env)
    if kind == "not_member":
        return f"{lt} /: {rt}", lambda env: lf(env) not in rf(env)
    if kind == "subset":
        return f"{lt} <: {rt}", lambda env: lf(env) <= rf(env)
    if kind == "in_pow":
        return f"{lt} : pow({rt})", lambda env: lf(env) <= rf(env)
    if kind == "equal":
        return f"{lt} = {rt}", lambda env: lf(env) == rf(env)
    if kind == "not_equal":
        return f"{lt} /= {rt}", lambda env: lf(env) != rf(env)
    if kind == "forall":
        return f"(!x . x : {lt} => x : {rt})", lambda env: all(x in rf(env) for x in lf(env))
    if kind == "exists":
        return f"(#x . x : {lt} & x : {rt})", lambda env: any(x in rf(env) for x in lf(env))
    raise ValueError(kind)


def _maplet_member(x, y, rel):
    return f"({x[0]} |-> {y[0]}) : {rel[0]}", lambda env: (x[1](env), y[1](env)) in rel[1](env)


# Quantifiers over x whose body holds a quantifier over y that reads x, in
# each place of the outer body that the inner one can stand: a universal's
# claim or hypothesis, and an existential's last or an earlier conjunct.
# The inner domain may read x too, as r[{x}] does.

_x, _y = _variable("x"), _variable("y")
_by_x = st.builds(_image, _relations, st.just(("{x}", lambda env: frozenset([env["x"]]))))
_over_x = st.one_of(
    st.builds(_atomic_pred, st.sampled_from(["member", "not_member"]), st.just(_x), _sets),
    st.builds(_maplet_member, st.just(_x), _atoms, _relations),
)
_over_xy = st.one_of(
    st.builds(_maplet_member, st.just(_x), st.just(_y), _relations),
    st.builds(_atomic_pred, st.sampled_from(["member", "not_member"]), st.just(_y), _by_x),
    st.builds(_atomic_pred, st.sampled_from(["equal", "not_equal"]), st.just(_x), st.just(_y)),
    st.builds(_atomic_pred, st.just("member"), st.just(_y), _sets),
)


def _inner(universal, ys, q):
    fold = all if universal else any
    text = f"(!y . y : {ys[0]} => {q[0]})" if universal else f"(#y . y : {ys[0]} & {q[0]})"
    return text, lambda env: fold(q[1]({**env, "y": y}) for y in ys[1](env))


def _outer(place, xs, p, inner):
    """A quantifier over xs whose body holds inner, where place says, with p
    beside it."""
    body = {
        "claim": ("!", f"{p[0]} => {inner[0]}", lambda env: not p[1](env) or inner[1](env)),
        "hypothesis": ("!", f"{inner[0]} => {p[0]}", lambda env: not inner[1](env) or p[1](env)),
        "last": ("#", f"{p[0]} & {inner[0]}", lambda env: p[1](env) and inner[1](env)),
        "earlier": ("#", f"{inner[0]} & {p[0]}", lambda env: inner[1](env) and p[1](env)),
    }
    quantifier, text, member = body[place]
    fold = all if quantifier == "!" else any
    return (
        f"({quantifier}x . x : {xs[0]} & {text})",
        lambda env: fold(member({**env, "x": x}) for x in xs[1](env)),
    )


_inners = st.builds(_inner, st.booleans(), st.one_of(_sets, _by_x), _over_xy)
_nested = st.builds(
    _outer, st.sampled_from(["claim", "hypothesis", "last", "earlier"]), _sets, _over_x, _inners
)

_images = st.builds(_image, _relations, _sets)
_set_kinds = ["subset", "in_pow", "equal", "not_equal", "forall", "exists"]
_and = _binary("&", lambda p, q: p and q)
_preds = st.recursive(
    st.one_of(
        st.builds(_atomic_pred, st.sampled_from(["member", "not_member"]), _atoms, _sets),
        st.builds(_atomic_pred, st.sampled_from(_set_kinds), _sets, _sets),
        st.builds(_atomic_pred, st.sampled_from(["subset", "equal"]), _relations, _relations),
        st.builds(_maplet_member, _atoms, _atoms, _relations),
        # the shapes the compiler evaluates without building the image
        st.builds(_atomic_pred, st.sampled_from(["member", "not_member"]), _atoms, _images),
        st.builds(_atomic_pred, st.sampled_from(["member", "not_member"]), _atoms,
                  st.builds(_dom, _relations)),
        st.builds(_atomic_pred, st.sampled_from(["subset", "equal"]), _sets, _images),
        st.builds(_atomic_pred, st.just("equal"), _images, _sets),
        _nested,
    ),
    lambda inner: st.one_of(
        st.builds(_and, inner, inner),
        st.builds(_binary("=>", lambda p, q: (not p) or q), inner, inner),
    ),
    max_leaves=4,
)

_plain_envs = st.fixed_dictionaries(
    {
        "s1": st.frozensets(st.sampled_from(_NAMES)),
        "s2": st.frozensets(st.sampled_from(_NAMES)),
        "r1": st.frozensets(st.sampled_from(_PAIRS), max_size=4),
        "r2": st.frozensets(st.sampled_from(_PAIRS), max_size=4),
    }
)


def _frame(env):
    def value(v):
        if isinstance(v, tuple):
            return PairV(Atom(v[0]), Atom(v[1]))
        return Atom(v)

    bindings = {n: Atom(n) for n in _NAMES}
    bindings.update({name: mkset(value(v) for v in vs) for name, vs in env.items()})
    return Env(bindings).bindings


@settings(max_examples=100, deadline=None)
@given(_sets, _plain_envs)
def test_compiled_expressions_match_frozenset_arithmetic(term, env):
    text, ref = term
    assert _plain(eval_expr_frame(parse_expression(text), _frame(env))) == ref(env), text


@settings(max_examples=100, deadline=None)
@given(_preds, _plain_envs)
def test_compiled_predicates_match_frozenset_arithmetic(term, env):
    text, ref = term
    assert eval_pred_frame(parse_predicate(text), _frame(env)) == ref(env), text


@settings(max_examples=200, deadline=None)
@given(st.one_of(_nested, st.builds(_and, _preds, _nested), st.builds(_and, _nested, _preds)),
       _plain_envs)
def test_nested_quantifiers_match_python_folds(term, env):
    """Each nested shape alone, and as a conjunct of a root `&`."""
    text, ref = term
    assert eval_pred_frame(parse_predicate(text), _frame(env)) == ref(env), text


def test_member_of_dom_raises_as_domain_of():
    a, b = Atom("a"), Atom("b")
    member = parse_predicate("x : dom(r)")
    for r in (SetV([PairV(b, a), a, SetV([a])]), SetV([b, PairV(a, b)])):
        with pytest.raises(NotARelation) as built:
            domain_of(r)
        with pytest.raises(NotARelation) as scanned:
            eval_pred_frame(member, {"x": a, "r": r})
        assert str(scanned.value) == str(built.value)
    # The relation is read, and refused, before the item.
    with pytest.raises(NotARelation, match="dom needs a relation, got a"):
        eval_pred_frame(member, {"r": a})
    assert eval_pred_frame(member, {"x": b, "r": SetV([PairV(a, b), PairV(b, a)])})


# --- generated functions ------------------------------------------------------


def test_unbound_identifier_is_named_from_inside_a_quantifier_body():
    with pytest.raises(UnboundIdentifier) as exc:
        holds("!x . x : S => x : T", S=mkatoms("ab"))
    assert exc.value.name == "T"
    with pytest.raises(UnboundIdentifier) as exc:
        holds("#x, y . x : S & y : pow(x) & y /= U", S=mkset([mkatoms("a")]))
    assert exc.value.name == "U"
    assert holds("!x . x : S => x : T", S=EMPTY_SET)  # the body never runs


def test_unbound_identifier_is_named_from_a_guard_on_a_po_reader():
    from trustb.models import machine_setup
    from trustb.po import _Reader

    tm, _inst, env = machine_setup(0)
    grd4 = dict(tm.event("trust").guard_code)["grd4"]  # t : agent_task[{j}]
    j = mkset([Atom("trustee1")])

    def reader_on(values):
        reader = _Reader(tm.var_order, env)
        reader.move(values)
        reader.update(j=j, t=Atom("task1"))
        return reader

    with pytest.raises(UnboundIdentifier) as exc:
        grd4(reader_on({}), env.powerset_bound)  # a state that lacks agent_task
    assert exc.value.name == "agent_task"
    state = {name: EMPTY_SET for name in tm.var_order}
    reader = reader_on(dict(state, agent_task=mkset([PairV(j, Atom("task1"))])))
    assert grd4(reader, env.powerset_bound)
    assert reader.depth() == 1 + tm.var_order.index("agent_task")


def test_a_quantified_variable_reads_its_binding_and_leaves_the_frame_alone():
    frame = Env({"x": A, "i": B, "S": mkatoms("bc"), "a": A, "b": B, "c": C}).bindings
    before = dict(frame)
    for text, want in [
        ("#x . x : S & x = b", True),  # x shadows a constant bound to a
        ("!x . x : S => x /= a", True),
        ("#i . i : S & i = c", True),  # i shadows a parameter bound to b
        ("!i . i : S => i = b", False),
        ("#y . y : S & (#x . x : {y} & x = c)", True),
    ]:
        assert eval_pred_frame(parse_predicate(text), frame) == want, text
        assert frame == before and frame["x"] is A and frame["i"] is B
    assert "y" not in frame


def test_a_quantified_variable_is_never_read_from_a_po_reader():
    from trustb.models import machine_setup
    from trustb.po import _Reader

    tm, _inst, env = machine_setup(0)
    reader = _Reader(tm.var_order, env)
    reader.move({name: EMPTY_SET for name in tm.var_order})
    pred = parse_predicate("#agent_task . agent_task : trustors & agent_task = agent_task")
    assert eval_pred_frame(pred, reader, env.powerset_bound)
    assert reader.depth() == 0


def test_a_typing_conjunct_that_mentions_a_later_variable_still_runs():
    # x is drawn from the frame's y, but its typing conjunct x : y reads the
    # bound y: the only x, a, is in no member of S.
    S = mkset([mkatoms("b")])
    assert not holds("#x, y . x : y & y : S", y=mkatoms("a"), S=S)
    assert holds("#x, y . x : y & y : S", y=mkatoms("b"), S=S)
    assert holds("!x, y . x : y & y : S => x /= x", y=mkatoms("a"), S=S)
    # A later variable of the same name rebinds x before the conjunct runs.
    assert not holds("#x, x . x : S & x : T", S=mkatoms("a"), T=mkatoms("b"))
    # The conjunct x : x reads the bound x, not the frame's.
    assert not holds("#x . x : x", x=mkset([mkatoms("a")]))


def test_a_hoisted_subterm_runs_once_per_pass_of_the_loops_it_reads(monkeypatch):
    from trustb import kernel

    calls = dict.fromkeys(["domain_of", "powerset_elements", "_image_list"], 0)

    def counting(name):
        real = kernel._RUNTIME[name]

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setitem(kernel._RUNTIME, name, counting(name))
    # A node of its own, so its function compiles with the wrappers in reach.
    pred = parse_predicate("!i, j . i : S & j : pow(T) & i : dom(r) => j <: r[{i}]")
    frame = {"S": mkatoms("abc"), "T": mkatoms("ab"), "r": rel((A, A), (A, B), (B, A), (B, B))}
    assert eval_pred_frame(pred, frame)
    # dom(r) and pow(T) read no quantified variable: once per run, where the
    # unhoisted code ran them 3 * 4 and 3 times.  r[{i}] reads i alone: once
    # for each i in dom(r), the only ones whose claim runs, not once per j.
    assert calls == {"domain_of": 1, "powerset_elements": 1, "_image_list": 2}
    assert eval_pred_frame(pred, frame)
    assert calls == {"domain_of": 2, "powerset_elements": 2, "_image_list": 4}


def test_an_ill_defined_subterm_on_an_untaken_branch_raises_nothing():
    # g(a) reads no quantified variable; a is outside dom(g).
    g = rel((B, A))
    for text, want in [
        ("!x . x : S => g(a) = x", True),  # the domain is empty
        ("#x . x : S & g(a) = x", False),
    ]:
        assert holds(text, S=EMPTY_SET, g=g, a=A) is want, text
    S = mkatoms("ab")
    assert holds("#x . x : S & x /= x & g(a) = x", S=S, g=g, a=A) is False
    assert holds("!x, y . x : S & y : S => (x = y => g(a) = x)", S=EMPTY_SET, g=g, a=A)
    with pytest.raises(ApplicationOutsideDomain):
        holds("!x, y . x : S & y : S => (x /= y => g(a) = x)", S=S, g=g, a=A)


def test_a_loop_invariant_subterm_raises_where_it_is_first_reached():
    # trustor_trustee_task(i) reads no j: it is first reached at the second
    # j, after j = {} skipped it, and again for each i.
    from trustb.models import machine_setup
    from trustb.po import _Reader

    tm, _inst, env = machine_setup(0)
    code = compile_pred(parse_predicate(
        "!i, j . i : trustors & j : pow(trustees) => (j /= {} => trustor_trustee_task(i) /= j)"
    ))
    u1, v1, t1 = Atom("u1"), Atom("v1"), Atom("t1")
    for ttt, message in [
        (EMPTY_SET, "application outside domain: {} applied to u1"),
        (rel((u1, PairV(mkset([v1]), t1))),
         "application outside domain: {(u1 |-> ({v1} |-> t1))} applied to u2"),
    ]:
        reader = _Reader(tm.var_order, env)
        reader.move({"agent_task": EMPTY_SET, "trustor_trustee_task": ttt})
        with pytest.raises(ApplicationOutsideDomain) as exc:
            code(reader, env.powerset_bound)
        assert str(exc.value) == message
        assert reader.depth() == 2


# The deepest nesting the parser takes for each operator family (as in
# tests/test_dsl.py), with the value the predicate has under _DEEP_FRAME or
# the error it raises.
_DEEPEST = {
    "brackets around an expression": ("a = " + "(" * 98 + "b" + ")" * 98, False),
    "brackets around a predicate": ("(" * 98 + "a = a" + ")" * 98, True),
    "application": ("a = " + "f(" * 98 + "a" + ")" * 98, True),
    "image": ("r[" * 97 + "{a}" + "]" * 97 + " <: {a}", True),
    "powerset": ("{} : " + "pow(" * 98 + "S" + ")" * 98, BoundExceeded),  # 2**16 at pow^4(S)
    "set enumeration": ("{" * 98 + "a" + "}" * 98 + " = " + "{" * 98 + "b" + "}" * 98, False),
    "existential": ("#x . x : S & " * 65 + "a = a", True),
    "universal": ("!x . x : S => " * 65 + "x = a", True),
    "implication": ("a = b => " * 196 + "a = b", True),
    "conjunction": ("a = a" + " & a = a" * 196, True),
    "union": ("{a} = {a}" + " \\/ {b}" * 194, False),
    "difference": ("{a} = {a, b}" + " \\ {b}" * 194, True),
    "maplet": ("a" + " |-> a" * 196 + " = a" + " |-> a" * 196, True),
}
_DEEP_FRAME = {"a": A, "b": B, "S": mkatoms("a"), "f": rel((A, A)), "r": rel((A, A))}


@pytest.mark.parametrize("family", _DEEPEST)
def test_the_deepest_nesting_evaluates_through_the_frame_api(family):
    text, want = _DEEPEST[family]
    pred = parse_predicate(text)
    if want is BoundExceeded:
        with pytest.raises(BoundExceeded):
            eval_pred_frame(pred, dict(_DEEP_FRAME))
    else:
        assert eval_pred_frame(pred, dict(_DEEP_FRAME)) is want


def _wide(n):
    """A universal, an existential, and a universal whose claim is an
    existential, each over the n variables x1 .. xn."""
    names = ", ".join(f"x{k}" for k in range(1, n + 1))
    typing = " & ".join(f"x{k} : S" for k in range(1, n + 1))
    return [
        f"!{names} . {typing} => x1 = x{n}",
        f"#{names} . {typing} & x1 /= x{n}",
        f"!{names} . {typing} => (#y . y : S & y = x{n})",
    ]


# Quantifiers over more variables than one function's loops hold.
WIDE = _wide(17) + _wide(40)


@pytest.mark.parametrize("n, atoms, want", [
    (17, "a", [True, False, True]),
    (40, "a", [True, False, True]),
    (17, "ab", [False, True, True]),
])
def test_a_quantifier_past_the_loop_cap_goes_on_in_a_function_of_its_own(n, atoms, want):
    got = [eval_pred_frame(parse_predicate(text), {"S": mkatoms(atoms)}) for text in _wide(n)]
    assert got == want


def test_a_quantifier_leaves_its_loops_by_return_alone():
    """Every quantifier is a function of its own, so no generated line of a
    built-in model leaves a loop otherwise; an inv4, !i, t . ... => (#j . ...),
    calls one function for its inner existential."""
    from trustb.kernel import emit_source

    from test_python_floor import shipped_nodes

    inv4 = 0
    for where, lbl, node, kind in shipped_nodes():
        lines = [line.strip() for line in emit_source(node, kind).splitlines()]
        assert not {"break", "continue", "else:"} & set(lines), (where, lbl)
        if lbl == "inv4":
            inv4 += 1
            assert sum(line.startswith("def _q") for line in lines) == 1, where
    assert inv4 > 0


_HASH_PROBE = """
from trustb.dsl import parse_expression
from trustb.errors import NotARelation
from trustb.kernel import apply_function, domain_of, eval_expr_frame
from trustb.values import Atom, PairV, SetV

a, b = Atom("a"), Atom("b")
r = SetV([PairV(a, b), PairV(b, PairV(a, b)), a, b, SetV([PairV(a, a)]), PairV(b, a)])
print(hash(PairV(a, b)), [repr(e) for e in r])
for op in (lambda: domain_of(r), lambda: apply_function(r, Atom("z")),
           lambda: eval_expr_frame(parse_expression("r[s]"), {"r": r, "s": SetV([a])})):
    try:
        op()
    except NotARelation as err:
        print(err)
"""


def test_pair_hashes_and_non_pair_messages_repeat_between_runs():
    import os
    import pathlib
    import subprocess
    import sys

    import trustb

    src = str(pathlib.Path(trustb.__file__).parent.parent)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    outs = [
        subprocess.run([sys.executable, "-c", _HASH_PROBE], env=env, check=True,
                       capture_output=True, text=True).stdout
        for _ in range(2)
    ]
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert lines[1:] == [
        f"{op} over a set containing non-pair a"
        for op in ("dom", "application", "image")
    ]
