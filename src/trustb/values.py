"""Finite set-theoretic value universe.

Values are atoms, booleans, ordered pairs and finite sets.  All values are
immutable and hashable;  sets are duplicate-free and compare structurally
regardless of construction order.  A canonical total order over the whole
universe (`sort_key`) makes every enumeration and printout deterministic,
independent of hash randomisation.

Each value is a built-in container, so hashing, equality and membership
run in C: an atom is the tuple (1, name), a boolean (0, flag), a pair
(2, left, right), and a set is a frozenset of its members.  The leading
tag keeps the kinds apart, so values of different kinds never compare
equal.  A value hashes as the plain tuple or frozenset of the same items,
the hash keys the values had before they were containers, so no hash and
no set's iteration order changed with the representation.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable


class Value:
    __slots__ = ()

    def sort_key(self):
        raise NotImplementedError


class Atom(tuple, Value):
    """An uninterpreted element of a carrier set, identified by name."""

    __slots__ = ()
    _interned: dict[str, "Atom"] = {}

    def __new__(cls, name: str):
        atom = cls._interned.get(name)
        if atom is None:
            atom = cls._interned[name] = tuple.__new__(cls, (1, name))
        return atom

    name = property(itemgetter(1))

    def __getnewargs__(self):  # what copy and pickle pass to __new__
        return (self[1],)

    def __repr__(self):
        return self[1]

    def sort_key(self):
        return self


class BoolV(tuple, Value):
    """A boolean constant, distinct from any atom."""

    __slots__ = ()

    def __new__(cls, value: bool):
        return TRUE if value else FALSE

    value = property(itemgetter(1))

    def __getnewargs__(self):
        return (self[1],)

    def __repr__(self):
        return "TRUE" if self[1] else "FALSE"

    def sort_key(self):
        return self


FALSE = tuple.__new__(BoolV, (0, False))
TRUE = tuple.__new__(BoolV, (0, True))


class PairV(tuple, Value):
    """An ordered pair, written left |-> right.

    It declares no __slots__, as a tuple's subclass can hold none: a pair
    keeps its sort key, once made, in its __dict__.
    """

    def __new__(cls, left: Value, right: Value):
        return tuple.__new__(cls, (2, left, right))

    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __getnewargs__(self):
        return (self[1], self[2])

    def __repr__(self):
        return f"({self[1]!r} |-> {self[2]!r})"

    def sort_key(self):
        try:
            return self._key
        except AttributeError:
            pass
        key = self._key = (2, self[1].sort_key(), self[2].sort_key())
        return key


class SetV(frozenset, Value):
    """A finite set of values.  Duplicates collapse; order never matters.
    Its canonical order and sort key are made once, on first use."""

    __slots__ = ("_sorted", "_key")

    def __repr__(self):
        return "{" + ", ".join([repr(v) for v in self.sorted_elements()]) + "}"

    @property
    def elements(self) -> frozenset:
        """The set itself, as a frozenset."""
        return self

    def sorted_elements(self) -> tuple[Value, ...]:
        try:
            return self._sorted
        except AttributeError:
            pass
        ordered = self._sorted = tuple(sorted(self, key=_key_of))
        return ordered

    def sort_key(self):
        try:
            return self._key
        except AttributeError:
            pass
        key = self._key = (3, tuple([v.sort_key() for v in self.sorted_elements()]))
        return key


EMPTY_SET = SetV()

BOOL_SET = SetV((FALSE, TRUE))


def _key_of(v: Value):
    return v.sort_key()


def mkset(elements: Iterable[Value]) -> SetV:
    return SetV(elements)


def mkatoms(names: Iterable[str]) -> SetV:
    return SetV(Atom(n) for n in names)


def value_sorted(values: Iterable[Value]) -> list[Value]:
    """The canonical ordering used by every enumerator and printer."""
    return sorted(values, key=_key_of)


def canon(v: Value) -> str:
    """Canonical text form of a value, its repr; inverse of the value reader."""
    return repr(v)
