"""Exact field scalars: arbitrary-precision rationals and prime fields GF(p).

There is no floating point anywhere. Elements compute on raw values with
native + - *: a fractions.Fraction (lowest terms, positive denominator) over Q,
a residue in [0, p) over GF(p); FieldSpec reduces and inverts them. A Scalar,
a raw value with its field, is what public constructors and documents use.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, StructureError

RATIONALS = "rationals"
PRIME_FIELD = "prime-field"


# Miller-Rabin over the prime bases up to 37 decides primality exactly below
# this bound (Sorenson & Webster, Math. Comp. 2017); larger moduli are refused.
MODULUS_LIMIT = 318665857834031151167461
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# ASCII digits only: int() alone would also take "1_000", "+3", " 3" and non-ASCII digits.
_SCALAR_LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


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


@dataclass(frozen=True)
class FieldSpec:
    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind == RATIONALS:
            if self.modulus is not None:
                raise StructureError("rationals take no modulus")
        elif self.kind == PRIME_FIELD:
            if self.modulus is not None and self.modulus >= MODULUS_LIMIT:
                raise StructureError("prime-field modulus must be below %d" % MODULUS_LIMIT)
            if self.modulus is None or not _is_prime(self.modulus):
                raise StructureError(
                    "prime-field modulus must be prime, got %r" % (self.modulus,))
        else:
            raise StructureError("unknown field kind %r" % (self.kind,))

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

    def inv(self, value):
        """The inverse of a nonzero raw value."""
        if self.modulus is None:
            return Fraction(1) / value          # a Fraction even for an int value
        return pow(value, -1, self.modulus)

    def unwrap(self, k: "Scalar"):
        """The raw value of a Scalar of this field."""
        if k.field is not self and k.field != self:
            raise PreconditionError("scalars from different fields")
        return k.value

    def zero(self) -> "Scalar":
        return Scalar(self, self.raw(0))

    def one(self) -> "Scalar":
        return Scalar(self, self.raw(1))

    def from_int(self, n: int) -> "Scalar":
        return Scalar(self, self.raw(n))

    def from_fraction(self, num: int, den: int) -> "Scalar":
        return Scalar(self, self.raw(num, den))

    def parse(self, text: str) -> "Scalar":
        """Parse a literal "n" or "p/q" of ASCII digits, exactly -?[0-9]+(/[0-9]+)?."""
        if not _SCALAR_LITERAL.fullmatch(text):
            raise StructureError("bad scalar literal %r" % (text,))
        num, _, den = text.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError:      # too many digits: Python 3.10.7 on limits int(str)
            raise StructureError("scalar literal has more than %d digits"
                                 % sys.get_int_max_str_digits()) from None
        return self.from_fraction(num, den)


@dataclass(frozen=True)
class Scalar:
    """An immutable field element."""

    field: FieldSpec
    value: object          # Fraction (rationals) or int residue

    def _new(self, value) -> "Scalar":
        m = self.field.modulus
        return Scalar(self.field, value if m is None else value % m)

    def __add__(self, other: "Scalar") -> "Scalar":
        return self._new(self.value + self.field.unwrap(other))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

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

    def is_one(self) -> bool:
        return self.value == 1

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return "Scalar(%s)" % self
