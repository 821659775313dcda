import copy
import itertools
import pickle

from hypothesis import given, strategies as st

from trustb.values import (
    BOOL_SET,
    EMPTY_SET,
    FALSE,
    TRUE,
    Atom,
    BoolV,
    PairV,
    SetV,
    canon,
    mkatoms,
    mkset,
    value_sorted,
)


def atoms(*names):
    return [Atom(n) for n in names]


def some_values():
    a, b = atoms("a", "b")
    return [
        TRUE,
        FALSE,
        a,
        b,
        PairV(a, b),
        PairV(b, a),
        PairV(a, PairV(a, b)),
        EMPTY_SET,
        mkset([a]),
        mkset([a, b]),
        mkset([PairV(a, b)]),
        mkset([mkset([a]), EMPTY_SET]),
    ]


def test_atoms_intern():
    assert Atom("x") is Atom("x")
    assert Atom("x") is not Atom("y")


def test_bool_singletons():
    assert BoolV(True) is TRUE
    assert BoolV(False) is FALSE
    assert TRUE != FALSE


def test_rank_order_bool_atom_pair_set():
    a = Atom("a")
    ranked = [TRUE, a, PairV(a, a), mkset([a])]
    assert value_sorted(reversed(ranked)) == ranked


def test_total_order_is_strict_and_total():
    vals = some_values()
    for x, y in itertools.product(vals, vals):
        kx, ky = x.sort_key(), y.sort_key()
        if x == y:
            assert kx == ky
        else:
            assert kx != ky
            assert (kx < ky) != (ky < kx)


def test_sets_compare_by_content_not_construction_order():
    a, b, c = atoms("a", "b", "c")
    s1 = mkset([a, b, c])
    s2 = mkset([c, a, b])
    assert s1 == s2
    assert hash(s1) == hash(s2)
    assert s1.sort_key() == s2.sort_key()
    assert s1.sorted_elements() == (a, b, c)


def test_canon_strings():
    a, b = atoms("a", "b")
    assert canon(a) == "a"
    assert canon(TRUE) == "TRUE"
    assert canon(PairV(a, b)) == "(a |-> b)"
    assert canon(EMPTY_SET) == "{}"
    assert canon(mkset([b, a])) == "{a, b}"
    assert canon(mkset([PairV(a, PairV(b, a))])) == "{(a |-> (b |-> a))}"


def test_canon_injective_on_sample():
    vals = some_values()
    texts = [canon(v) for v in vals]
    for (v1, t1), (v2, t2) in itertools.combinations(zip(vals, texts), 2):
        if v1 != v2:
            assert t1 != t2


def test_mkatoms_and_bool_set():
    assert mkatoms(["p", "q"]) == mkset(atoms("p", "q"))
    assert BOOL_SET == mkset([TRUE, FALSE])


names = st.sampled_from(["a", "b", "c", "d"])


def value_strategy():
    return st.recursive(
        st.booleans().map(BoolV) | names.map(Atom),
        lambda kids: st.tuples(kids, kids).map(lambda p: PairV(*p))
        | st.lists(kids, max_size=4).map(mkset),
        max_leaves=12,
    )


@given(st.lists(value_strategy(), max_size=8))
def test_value_sorted_is_deterministic_and_stable(vals):
    once = value_sorted(vals)
    again = value_sorted(reversed(once))
    assert [v.sort_key() for v in once] == sorted(v.sort_key() for v in vals)
    assert once == again


def test_an_atom_hashes_as_its_sort_key():
    # Atom keeps its hash in a slot; the value is the one the key tuple has.
    for a in atoms("a", "bb"):
        assert hash(a) == hash(a.sort_key()) == hash((1, a.name))


@given(value_strategy(), value_strategy())
def test_equal_values_share_key_and_hash(x, y):
    if x == y:
        assert hash(x) == hash(y)
        assert x.sort_key() == y.sort_key()
    else:
        assert x.sort_key() != y.sort_key()


# --- the representation: tagged tuples and frozensets, with today's hashes


def test_a_pair_hashes_as_its_tagged_tuple():
    a, b = atoms("a", "b")
    assert hash(PairV(a, b)) == hash((2, a, b))
    assert hash(PairV(a, PairV(b, a))) == hash((2, a, (2, b, a)))


def test_a_set_hashes_as_the_frozenset_of_its_members():
    a, b = atoms("a", "b")
    for xs in ([], [a], [a, b, PairV(a, b)], [mkset([a]), EMPTY_SET]):
        assert hash(SetV(xs)) == hash(frozenset(xs))


def test_a_boolean_hashes_as_its_tagged_tuple():
    assert hash(TRUE) == hash((0, True))
    assert hash(FALSE) == hash((0, False))


@given(value_strategy(), value_strategy())
def test_values_of_different_kinds_never_compare_equal(x, y):
    if type(x) is not type(y):
        assert x != y
        assert not x == y


@given(value_strategy())
def test_a_set_is_its_own_elements(v):
    s = mkset([v, v]) if type(v) is not SetV else v
    assert s.elements == frozenset(s)
    assert s.sorted_elements() == tuple(value_sorted(frozenset(s)))


@given(value_strategy())
def test_a_value_copies_and_pickles_to_an_equal_value(v):
    for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(twin) is type(v) and twin == v and canon(twin) == canon(v)
