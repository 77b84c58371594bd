"""Group arithmetic for the three supported group kinds.

Cyclic groups Z_n, the integers (Z, +), and arbitrary finite groups given by
a Cayley table. Table groups are checked eagerly: closure, associativity,
identity and inverses are verified at construction, so a bad table never
becomes a latent state.

Specs and elements are slotted Values written by hand, not dataclasses: each CLI
command is a fresh interpreter, and importing dataclasses would cost about a fifth of
its start-up. They hash once, at construction; copies and pickles go through the
constructors, since string hashes differ per process.
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


class GroupSpec(Value):
    """Z_n, the integers, or a Cayley table: table[i][j] indexes names[i]*names[j]."""

    __slots__ = ("kind", "order", "names", "identity_index", "table",
                 "inverses", "_fields", "_hash", "_identity")

    def __init__(self, kind: str, order: int | None = None, names: tuple | None = None,
                 identity_index: int | None = None, table: tuple | None = None):
        fields = (kind, order, names, identity_index, table)
        inverses = tuple(row.index(identity_index) for row in table) if kind == TABLE else None
        for name, value in zip(GroupSpec.__slots__, fields + (inverses, fields, hash(fields))):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_identity", GroupElement(self, identity_index or 0))

    def _args(self):
        return self._fields

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "GroupSpec(kind=%r, order=%r, names=%r, identity_index=%r, table=%r)" % self._fields

    @staticmethod
    def cyclic(n: int) -> "GroupSpec":
        if n < 1:
            raise StructureError("cyclic order must be >= 1")
        return GroupSpec(CYCLIC, order=n)

    @staticmethod
    def integers() -> "GroupSpec":
        return GroupSpec(INTEGERS)

    @staticmethod
    def from_table(names, identity, table) -> "GroupSpec":
        names = tuple(names)
        if len(set(names)) != len(names):
            raise StructureError("duplicate element names in table group")
        if identity not in names:
            raise StructureError("identity %r not among element names" % (identity,))
        n = len(names)
        pos = {name: i for i, name in enumerate(names)}
        rows = []
        for row in table:
            row = tuple(pos[name] if isinstance(name, str) else int(name) for name in row)
            if len(row) != n or any(not 0 <= v < n for v in row):
                raise StructureError("Cayley table row has wrong shape or entries")
            rows.append(row)
        if len(rows) != n:
            raise StructureError("Cayley table must be %d x %d" % (n, n))
        tab = tuple(rows)
        e = pos[identity]
        for i in range(n):
            if tab[e][i] != i or tab[i][e] != i:
                raise StructureError("identity law fails at %r" % (names[i],))
        for i in range(n):
            if e not in tab[i]:
                raise StructureError("%r has no right inverse" % (names[i],))
            j = tab[i].index(e)
            if tab[j][i] != e:
                raise StructureError("%r has no two-sided inverse" % (names[i],))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if tab[tab[i][j]][k] != tab[i][tab[j][k]]:
                        raise StructureError(
                            "associativity fails at (%r, %r, %r)"
                            % (names[i], names[j], names[k]))
        return GroupSpec(TABLE, names=names, identity_index=e, table=tab)

    def identity(self) -> "GroupElement":
        return self._identity

    def element(self, payload: int) -> "GroupElement":
        if self.kind == CYCLIC:
            return GroupElement(self, payload % self.order)
        if self.kind == TABLE and not 0 <= payload < len(self.names):
            raise StructureError("element index out of range")
        return GroupElement(self, payload)

    def elements(self):
        """All elements; finite groups only."""
        if self.kind == CYCLIC:
            return [GroupElement(self, i) for i in range(self.order)]
        if self.kind == TABLE:
            return [GroupElement(self, i) for i in range(len(self.names))]
        raise PreconditionError("the integers group is infinite")

    def parse(self, text: str) -> "GroupElement":
        if self.kind == TABLE:
            if text not in self.names:
                raise StructureError("unknown group element %r" % (text,))
            return GroupElement(self, self.names.index(text))
        if not INTEGER_LITERAL.fullmatch(text):
            raise StructureError("bad group element literal %r" % (text,))
        try:
            payload = int(text)
        except ValueError:      # too many digits: Python 3.10.7 on limits int(str)
            raise StructureError("group element literal has more than %d digits"
                                 % sys.get_int_max_str_digits()) from None
        return self.element(payload)


class GroupElement(Value):
    """An immutable group element: its group's spec and an int payload."""

    __slots__ = ("spec", "payload", "_hash")

    def __init__(self, spec: GroupSpec, payload: int):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "_hash", hash((spec, payload)))

    def _args(self):
        return self.spec, self.payload

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (self.payload == other.payload
                and (self.spec is other.spec or self.spec == other.spec))

    def _check(self, other: "GroupElement"):
        if self.spec is not other.spec and self.spec != other.spec:
            raise PreconditionError("group elements from different groups")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        if self.spec.kind == CYCLIC:
            return GroupElement(self.spec, (self.payload + other.payload) % self.spec.order)
        if self.spec.kind == INTEGERS:
            return GroupElement(self.spec, self.payload + other.payload)
        return GroupElement(self.spec, self.spec.table[self.payload][other.payload])

    def inverse(self) -> "GroupElement":
        if self.spec.kind == CYCLIC:
            return GroupElement(self.spec, (-self.payload) % self.spec.order)
        if self.spec.kind == INTEGERS:
            return GroupElement(self.spec, -self.payload)
        return GroupElement(self.spec, self.spec.inverses[self.payload])

    def is_identity(self) -> bool:
        return self == self.spec.identity()

    def sort_key(self):
        """Identity first, then encoding order; total and deterministic."""
        return (0 if self.is_identity() else 1, self.payload)

    def __str__(self) -> str:
        if self.spec.kind == TABLE:
            return self.spec.names[self.payload]
        return str(self.payload)

    def __repr__(self) -> str:
        return "GroupElement(%s)" % self
