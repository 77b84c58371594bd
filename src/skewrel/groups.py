"""Group arithmetic for the three supported group kinds.

Cyclic groups Z_n, the integers (Z, +), and arbitrary finite groups given by
a Cayley table. The two constructors are the one checked door into this layer, so no
bad group or element becomes a latent state: ``GroupSpec(...)`` refuses an unknown kind
and a field its kind does not take or of the wrong type, and checks a new table's group
laws; ``GroupElement(spec, p)`` takes an int p, reduced mod n in Z_n, in range in a
table. ``from_table`` only translates names into indices.

Specs and elements are slotted Values written by hand, not dataclasses: each CLI command
is a fresh interpreter, and importing dataclasses would cost about a fifth of its
start-up. Both are interned, so they compare and hash by identity: ``GroupSpec(...)``
returns the one spec with its fields, and ``GroupElement(spec, p)`` the spec's one element
with payload p, which the spec keeps from its first use, with its sort key and inverse
(linked both ways). Copies and pickles go through the constructors, to the same objects.
"""

from __future__ import annotations

import re
import sys

from .errors import PreconditionError, StructureError, Value

CYCLIC = "cyclic"
INTEGERS = "integers"
TABLE = "table"

# ASCII digits only: int() alone would also take "1_0", "+1", " 1" and non-ASCII digits.
INTEGER_LITERAL = re.compile(r"-?[0-9]+")

_SPECS: dict = {}       # fields -> the one GroupSpec with them
_TAKES = {CYCLIC: ("order",), INTEGERS: (), TABLE: ("names", "identity_index", "table")}


def _check_names(names):
    if type(names) is not tuple or not all(type(name) is str for name in names):
        raise StructureError("table group names must be a tuple of strings, got %r" % (names,))
    if len(set(names)) != len(names):
        raise StructureError("duplicate element names in table group")


def _check_table(names, e, table):
    _check_names(names)
    n = len(names)
    if type(e) is not int or not 0 <= e < n:
        raise StructureError("identity index must be an int in range(%d), got %r" % (n, e))
    if type(table) is not tuple or not all(type(row) is tuple for row in table):
        raise StructureError("Cayley table must be a tuple of tuples")
    bad = [v for row in table for v in row if type(v) is not int or not 0 <= v < n]
    if bad:
        raise StructureError("Cayley table entry %r is not an element name or index" % (bad[0],))
    if any(len(row) != n for row in table):
        raise StructureError("Cayley table row has wrong shape")
    if len(table) != n:
        raise StructureError("Cayley table must be %d x %d" % (n, n))


def _table_inverses(names, e, table) -> tuple:
    """The inverse of each index, once the identity, inverse and associative laws hold.

    Associativity is Light's test (Clifford and Preston, 1961): the middles, the g with
    (xg)y = x(gy) for all x, y, are closed under products, so only the generators it picks
    are checked, O(n^2) each. Their products reach every element, so a table that is not a
    group fails at a generator, and rows and columns need no probe of their own. With
    two-sided inverses a middle's row is a permutation, so each generator doubles the group."""
    n = len(names)
    for i in range(n):
        if table[e][i] != i or table[i][e] != i:
            raise StructureError("identity law fails at %r" % (names[i],))
    for i in range(n):
        if e not in table[i]:
            raise StructureError("%r has no right inverse" % (names[i],))
        if table[table[i].index(e)][i] != e:
            raise StructureError("%r has no two-sided inverse" % (names[i],))

    def middle(g):              # raises unless (xg)y = x(gy) for all x, y
        for x, y in ((x, y) for x in range(n) for y in range(n)):
            if table[table[x][g]][y] != table[x][table[g][y]]:
                raise StructureError("associativity fails at (%r, %r, %r)"
                                     % (names[x], names[g], names[y]))
    generators, generated = [], {e}
    while len(generated) < n:
        generators.append(min(set(range(n)) - generated))   # outside the group so far
        middle(generators[-1])
        todo = list(generated)
        for c in todo:
            todo += (new := {table[c][g] for g in generators} - generated)
            generated |= new
    return tuple(row.index(e) for row in table)


class GroupSpec(Value):
    """Z_n, the integers, or a Cayley table: table[i][j] indexes names[i]*names[j]."""

    __slots__ = ("kind", "order", "names", "identity_index", "table",
                 "inverses", "_fields", "_interned", "_identity")

    def __new__(cls, kind: str, order: int | None = None, names: tuple | None = None,
                identity_index: int | None = None, table: tuple | None = None):
        if type(kind) is not str or kind not in _TAKES:
            raise StructureError("unknown group kind %r" % (kind,))
        fields = (kind, order, names, identity_index, table)
        for name, value in zip(cls.__slots__[1:], fields[1:]):
            if value is not None and name not in _TAKES[kind]:
                raise StructureError("%s group takes no %s" % (kind, name))
        if kind == CYCLIC and (type(order) is not int or order < 1):
            raise StructureError("cyclic order must be an int >= 1, got %r" % (order,))
        if kind == TABLE:       # on hits too, so a hit equal in value but not in type is refused
            _check_table(names, identity_index, table)
        if fields not in _SPECS:
            self = object.__new__(cls)
            inverses = _table_inverses(names, identity_index, table) if kind == TABLE else None
            for name, value in zip(cls.__slots__, fields + (inverses, fields, {})):
                object.__setattr__(self, name, value)
            object.__setattr__(self, "_identity", _element(self, identity_index or 0))
            _SPECS[fields] = self
        return _SPECS[fields]

    def _args(self):
        return self._fields

    def __repr__(self) -> str:
        return "GroupSpec(kind=%r, order=%r, names=%r, identity_index=%r, table=%r)" % self._fields

    @staticmethod
    def cyclic(n: int) -> "GroupSpec":
        return GroupSpec(CYCLIC, order=n)

    @staticmethod
    def integers() -> "GroupSpec":
        return GroupSpec(INTEGERS)

    @staticmethod
    def from_table(names, identity, table) -> "GroupSpec":
        """The table group of names, whose rows, lists or tuples, hold names or indices."""
        if not isinstance(names, (list, tuple)):
            raise StructureError("table group names must be a list or tuple of strings")
        names = tuple(names)
        _check_names(names)     # before the identity, as documents have reported them
        if identity not in names:
            raise StructureError("identity %r not among element names" % (identity,))
        if not isinstance(table, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) for row in table):
            raise StructureError("Cayley table must be a list or tuple of rows")
        pos = {name: i for i, name in enumerate(names)}
        return GroupSpec(TABLE, names=names, identity_index=pos[identity], table=tuple(
            tuple(pos.get(v, v) if isinstance(v, str) else v for v in row) for row in table))

    def identity(self) -> "GroupElement":
        return self._identity

    def element(self, payload: int) -> "GroupElement":
        return GroupElement(self, payload)

    def parse(self, text: str) -> "GroupElement":
        if self.kind == TABLE:
            if text not in self.names:
                raise StructureError("unknown group element %r" % (text,))
            return _element(self, self.names.index(text))
        if not INTEGER_LITERAL.fullmatch(text):
            raise StructureError("bad group element literal %r" % (text,))
        try:
            payload = int(text)
        except ValueError:      # too many digits: Python 3.10.7 on limits int(str)
            raise StructureError("group element literal has more than %d digits"
                                 % sys.get_int_max_str_digits()) from None
        return GroupElement(self, payload)


def _element(spec: GroupSpec, payload: int) -> "GroupElement":
    """The spec's one element with an int payload in range; products come here directly."""
    interned = spec._interned
    if payload in interned:
        return interned[payload]
    inverse = (spec.inverses[payload] if spec.kind == TABLE
               else -payload % spec.order if spec.kind == CYCLIC else -payload)
    self = interned[payload] = object.__new__(GroupElement)
    sort_key = (0 if payload == (spec.identity_index or 0) else 1, payload)
    for name, value in zip(GroupElement.__slots__, (spec, payload, sort_key)):
        object.__setattr__(self, name, value)
    # Made after self is interned, a new inverse finds self as its own inverse.
    object.__setattr__(self, "_inverse", _element(spec, inverse))
    return self


class GroupElement(Value):
    """An immutable group element: its group's spec and an int payload, interned."""

    __slots__ = ("spec", "payload", "_sort_key", "_inverse")

    def __new__(cls, spec: GroupSpec, payload: int):
        if type(payload) is not int:
            raise StructureError("group element payload must be an int, got %r" % (payload,))
        if spec.kind == TABLE and not 0 <= payload < len(spec.names):
            raise StructureError("element index out of range")
        return _element(spec, payload % spec.order if spec.kind == CYCLIC else payload)

    def _args(self):
        return self.spec, self.payload

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.spec is not other.spec:
            raise PreconditionError("group elements from different groups")
        if self.spec.kind == CYCLIC:
            return _element(self.spec, (self.payload + other.payload) % self.spec.order)
        if self.spec.kind == INTEGERS:
            return _element(self.spec, self.payload + other.payload)
        return _element(self.spec, self.spec.table[self.payload][other.payload])

    def inverse(self) -> "GroupElement":
        return self._inverse

    def is_identity(self) -> bool:
        return self is self.spec._identity

    def sort_key(self):
        """Identity first, then encoding order; total and deterministic."""
        return self._sort_key

    def __str__(self) -> str:
        if self.spec.kind == TABLE:
            return self.spec.names[self.payload]
        return str(self.payload)

    def __repr__(self) -> str:
        return "GroupElement(%s)" % self
