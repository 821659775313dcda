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


_images = st.builds(_image, _relations, _sets)
_set_kinds = ["subset", "in_pow", "equal", "not_equal", "forall", "exists"]
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
    ),
    lambda inner: st.one_of(
        st.builds(_binary("&", lambda p, q: p and q), inner, inner),
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
