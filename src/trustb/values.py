"""Finite set-theoretic value universe.

Values are atoms, booleans, ordered pairs and finite sets.  All values are
immutable and hashable;  sets are duplicate-free and compare structurally
regardless of construction order.  A canonical total order over the whole
universe (`sort_key`) makes every enumeration and printout deterministic,
independent of hash randomisation.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Value:
    __slots__ = ()

    def sort_key(self):
        raise NotImplementedError


class Atom(Value):
    """An uninterpreted element of a carrier set, identified by name."""

    __slots__ = ("name", "_key")
    _interned: dict[str, "Atom"] = {}

    def __new__(cls, name: str):
        cached = cls._interned.get(name)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self.name = name
        self._key = (1, name)
        cls._interned[name] = self
        return self

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return self is other or (type(other) is Atom and other.name == self.name)

    def __hash__(self):
        return hash(self._key)

    def sort_key(self):
        return self._key


class BoolV(Value):
    """A boolean constant, distinct from any atom."""

    __slots__ = ("value", "_key")

    def __new__(cls, value: bool):
        return TRUE if value else FALSE

    def __repr__(self):
        return "TRUE" if self.value else "FALSE"

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash(self._key)

    def sort_key(self):
        return self._key


def _make_bool(value: bool) -> BoolV:
    b = object.__new__(BoolV)
    b.value = value
    b._key = (0, value)
    return b


FALSE = _make_bool(False)
TRUE = _make_bool(True)


# A pair's hash mixes in this constant, not the class object, whose hash is
# its address and so would change from run to run.
_PAIR_TAG = 2


class PairV(Value):
    """An ordered pair, written left |-> right."""

    __slots__ = ("left", "right", "_hash", "_key")

    def __init__(self, left: Value, right: Value):
        self.left = left
        self.right = right
        self._hash = hash((_PAIR_TAG, left, right))
        self._key = None

    def __repr__(self):
        return f"({self.left!r} |-> {self.right!r})"

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is PairV
            and self._hash == other._hash
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return self._hash

    def sort_key(self):
        key = self._key
        if key is None:
            key = (2, self.left.sort_key(), self.right.sort_key())
            self._key = key
        return key


class SetV(Value):
    """A finite set of values.  Duplicates collapse; order never matters."""

    __slots__ = ("elements", "_hash", "_key")

    def __init__(self, elements: Iterable[Value] = ()):
        self.elements = frozenset(elements)
        self._hash = hash(self.elements)
        self._key = None

    def __repr__(self):
        inner = ", ".join(repr(v) for v in self.sorted_elements())
        return "{" + inner + "}"

    def __eq__(self, other):
        if self is other:
            return True
        return (
            type(other) is SetV
            and self._hash == other._hash
            and self.elements == other.elements
        )

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.elements)

    def __contains__(self, value: Value):
        return value in self.elements

    def __iter__(self) -> Iterator[Value]:
        return iter(self.elements)

    def sorted_elements(self) -> tuple[Value, ...]:
        return tuple(sorted(self.elements, key=_key_of))

    def sort_key(self):
        key = self._key
        if key is None:
            key = (3, tuple(v.sort_key() for v in self.sorted_elements()))
            self._key = key
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
    """Canonical text form of a value; inverse of the value reader."""
    if type(v) is SetV:
        return "{" + ", ".join(canon(e) for e in v.sorted_elements()) + "}"
    if type(v) is PairV:
        return f"({canon(v.left)} |-> {canon(v.right)})"
    return repr(v)
