"""Exact field scalars: arbitrary-precision rationals and prime fields GF(p).

There is no floating point anywhere. Elements compute on raw values: a
fractions.Fraction (lowest terms, positive denominator) over Q, a residue in
[0, p) over GF(p), which FieldSpec reads, reduces and inverts. It also owns the
format that the skew product and the convolution sum in: ``add_products`` adds
plain ints over GF(p) and unreduced integer parts (n, d) over Q, equal
denominators with one integer add, others as (m·d + n·e, e·d), and ``total``
reduces each key once. A Scalar, a raw value with its field, is what public
constructors take.
Both are slotted Values written by hand, not dataclasses: each CLI command is
a fresh interpreter, and importing dataclasses would cost about a fifth of its start-up.
FieldSpec is interned, one object per (kind, modulus), so fields compare by identity.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import PreconditionError, StructureError, Value

RATIONALS = "rationals"
PRIME_FIELD = "prime-field"


# Miller-Rabin over the prime bases up to 37 decides primality exactly below
# this bound (Sorenson & Webster, Math. Comp. 2017); larger moduli are refused.
MODULUS_LIMIT = 318665857834031151167461
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# ASCII digits only: int() alone would also take "1_000", "+3", " 3" and non-ASCII digits.
_SCALAR_LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")

_SPECS: dict = {}       # (kind, modulus) -> the one FieldSpec with them


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n in _WITNESSES:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec(Value):
    __slots__ = ("kind", "modulus")

    def __new__(cls, kind: str, modulus: int | None = None):
        if kind == RATIONALS:
            if modulus is not None:
                raise StructureError("rationals take no modulus")
        elif kind == PRIME_FIELD:
            if type(modulus) is not int:
                raise StructureError("prime-field modulus must be an int, got %r" % (modulus,))
            if modulus >= MODULUS_LIMIT:
                raise StructureError("prime-field modulus must be below %d" % MODULUS_LIMIT)
            if not _is_prime(modulus):
                raise StructureError("prime-field modulus must be prime, got %r" % (modulus,))
        else:
            raise StructureError("unknown field kind %r" % (kind,))
        if (kind, modulus) not in _SPECS:
            self = _SPECS[kind, modulus] = object.__new__(cls)
            object.__setattr__(self, "kind", kind)
            object.__setattr__(self, "modulus", modulus)
        return _SPECS[kind, modulus]

    def _args(self):
        return self.kind, self.modulus

    def __repr__(self) -> str:
        return "FieldSpec(kind=%r, modulus=%r)" % self._args()

    def raw(self, num: int, den: int = 1):
        """The raw value num/den."""
        if den == 0:
            raise PreconditionError("zero denominator")
        if self.modulus is None:
            return Fraction(num, den)
        if den % self.modulus == 0:
            raise PreconditionError("denominator %d is zero mod %d" % (den, self.modulus))
        return num * pow(den, -1, self.modulus) % self.modulus

    def reduce(self, values: dict) -> dict:
        """{key: raw value} with each value reduced into the field, zeros dropped."""
        m = self.modulus
        if m is None:
            return {k: v for k, v in values.items() if v}
        return {k: r for k, v in values.items() if (r := v % m)}

    def add_products(self, sums: dict, products):
        """sums[key] += c * e for each (key, c, e) of raw values, a missing key counting
        as zero: plain ints over GF(p), integer parts (n, d) over Q. ``total`` reduces them."""
        if self.modulus:
            for key, c, e in products:
                sums[key] = sums.get(key, 0) + c * e
            return
        for key, c, e in products:
            n, d = c.numerator * e.numerator, c.denominator * e.denominator
            m, f = sums.get(key, (0, d))
            sums[key] = (m + n, f) if f == d else (m * d + n * f, f * d)

    def total(self, sums: dict) -> dict:
        """{key: raw value} of what ``add_products`` summed, reduced once per key, zeros dropped."""
        if self.modulus:
            return self.reduce(sums)
        return {k: Fraction(n, d) for k, (n, d) in sums.items() if n}

    def inv(self, value):
        """The inverse of a nonzero raw value."""
        if self.modulus is None:
            return Fraction(1) / value          # a Fraction even for an int value
        return pow(value, -1, self.modulus)

    def unwrap(self, k: "Scalar"):
        """The raw value of a Scalar of this field."""
        if k.field is not self:
            raise PreconditionError("scalars from different fields")
        return k.value

    def zero(self) -> "Scalar":
        return Scalar(self, self.raw(0))

    def one(self) -> "Scalar":
        return Scalar(self, self.raw(1))

    def from_int(self, n: int) -> "Scalar":
        return Scalar(self, self.raw(n))

    def read(self, text: str):
        """The raw value of a literal "n" or "p/q" of ASCII digits, exactly -?[0-9]+(/[0-9]+)?."""
        if not _SCALAR_LITERAL.fullmatch(text):
            raise StructureError("bad scalar literal %r" % (text,))
        num, _, den = text.partition("/")
        try:
            return self.raw(int(num), int(den or 1))
        except ValueError:      # too many digits: Python 3.10.7 on limits int(str)
            raise StructureError("scalar literal has more than %d digits"
                                 % sys.get_int_max_str_digits()) from None
        except PreconditionError as exc:      # a zero denominator
            raise StructureError("scalar literal %r: %s" % (text, exc)) from None


class Scalar(Value):
    """An immutable field element."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)      # Fraction (rationals) or int residue

    def _args(self):
        return self.field, self.value

    def __eq__(self, other):
        return other.__class__ is Scalar and self.field is other.field and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def _new(self, value) -> "Scalar":
        m = self.field.modulus
        return Scalar(self.field, value if m is None else value % m)

    def __add__(self, other: "Scalar") -> "Scalar":
        return self._new(self.value + self.field.unwrap(other))

    def __mul__(self, other: "Scalar") -> "Scalar":
        return self._new(self.value * self.field.unwrap(other))

    def __neg__(self) -> "Scalar":
        return self._new(-self.value)

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise PreconditionError("zero has no inverse")
        return Scalar(self.field, self.field.inv(self.value))

    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return "Scalar(%s)" % self
