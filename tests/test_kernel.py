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
    domain_of,
    enumerate_fn_space,
    eval_expr,
    eval_pred,
    powerset_elements,
    relational_image,
)
from trustb.values import EMPTY_SET, FALSE, TRUE, Atom, PairV, SetV, mkatoms, mkset


def ev(text, **bindings):
    return eval_expr(parse_expression(text), Env(bindings))


def holds(text, **bindings):
    return eval_pred(parse_predicate(text), Env(bindings))


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
    assert relational_image(r, mkset([A])) == mkset([B, C])
    assert relational_image(r, mkset([B])) == mkset([C])
    assert relational_image(r, mkset([C])) == EMPTY_SET
    assert relational_image(r, mkset([A, B])) == mkset([B, C])
    assert relational_image(EMPTY_SET, mkset([A])) == EMPTY_SET


@given(
    st.sets(st.tuples(st.sampled_from("abc"), st.sampled_from("abc")), max_size=9),
    st.sets(st.sampled_from("abc"), max_size=3),
)
def test_relational_image_comprehension(pairs, arg):
    r = mkset(PairV(Atom(x), Atom(y)) for x, y in pairs)
    s = mkatoms(arg)
    expected = mkset(Atom(y) for x, y in pairs if x in arg)
    assert relational_image(r, s) == expected


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


def test_env_extension_does_not_mutate():
    env = Env({"x": A})
    env2 = env.extended({"y": B})
    assert "y" not in env.bindings
    assert env2.bindings["x"] is A
    assert env2.powerset_bound == env.powerset_bound


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


_HASH_PROBE = """
from trustb.errors import NotARelation
from trustb.kernel import apply_function, domain_of, relational_image
from trustb.values import Atom, PairV, SetV

a, b = Atom("a"), Atom("b")
r = SetV([PairV(a, b), PairV(b, PairV(a, b)), a, b, SetV([PairV(a, a)]), PairV(b, a)])
print(hash(PairV(a, b)), [repr(e) for e in r])
for op in (lambda: domain_of(r), lambda: apply_function(r, Atom("z")),
           lambda: relational_image(r, SetV([a]))):
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
