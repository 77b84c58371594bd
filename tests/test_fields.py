import copy
import math
import pickle

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skewrel.errors import PreconditionError, StructureError
from skewrel.fields import (MODULUS_LIMIT, FieldSpec, PRIME_FIELD, RATIONALS, _SPECS, Scalar,
                            _is_prime)

Q = FieldSpec(RATIONALS)
F5 = FieldSpec(PRIME_FIELD, 5)


def test_rational_add():
    assert Scalar(Q, Q.raw(1, 2)) + Scalar(Q, Q.raw(1, 3)) == Scalar(Q, Q.raw(5, 6))


def test_prime_field_mul():
    assert F5.from_int(3) * F5.from_int(4) == F5.from_int(2)


def test_zero_has_no_inverse():
    with pytest.raises(PreconditionError, match="zero has no inverse"):
        Q.zero().inverse()
    with pytest.raises(PreconditionError):
        F5.zero().inverse()


def test_modulus_must_be_prime():
    with pytest.raises(StructureError):
        FieldSpec(PRIME_FIELD, 6)
    with pytest.raises(StructureError):
        FieldSpec(PRIME_FIELD, 1)
    FieldSpec(PRIME_FIELD, 2)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primality_agrees_with_trial_division():
    assert all(_is_prime(n) == _trial_division(n) for n in range(10 ** 5))


def test_carmichael_moduli_rejected():
    for n in (561, 41041):
        with pytest.raises(StructureError, match="must be prime"):
            FieldSpec(PRIME_FIELD, n)


def test_modulus_limit():
    FieldSpec(PRIME_FIELD, 2 ** 61 - 1)
    with pytest.raises(StructureError, match="must be below"):
        FieldSpec(PRIME_FIELD, MODULUS_LIMIT)


def test_moduli_that_are_not_ints_are_refused_before_registering():
    # Interned by value, 7.0 would share its spec with 7, and True with 1.
    for modulus in (7.0, 41.0, 5.5, True, False, "7", None, Fraction(7)):
        with pytest.raises(StructureError, match="prime-field modulus must be an int"):
            FieldSpec(PRIME_FIELD, modulus)
    assert type(FieldSpec(PRIME_FIELD, 7).modulus) is int
    assert all(modulus is None or type(modulus) is int for _kind, modulus in _SPECS)
    assert FieldSpec(PRIME_FIELD, 7).one().inverse() == FieldSpec(PRIME_FIELD, 7).one()
    with pytest.raises(StructureError, match="rationals take no modulus"):
        FieldSpec(RATIONALS, 7.0)


def test_canonical_forms():
    assert Scalar(Q, Q.raw(2, 4)) == Scalar(Q, Q.raw(1, 2))
    assert Scalar(Q, Q.raw(1, -2)) == Scalar(Q, Q.raw(-1, 2))
    assert str(Scalar(Q, Q.raw(-1, 2))) == "-1/2"
    assert F5.from_int(12) == F5.from_int(2)


def test_parse_round_trip():
    for text in ["5/6", "-3", "0", "7/3"]:
        assert str(Scalar(Q, Q.read(text))) == text
    assert Scalar(F5, F5.read("9")) == F5.from_int(4)
    for text in ["1.5", "1_000", "+3", " 3", "3 ", "1/-2", "1/+2", "\u0663", "3\n", ""]:
        with pytest.raises(StructureError, match="bad scalar literal"):
            Scalar(Q, Q.read(text))


def test_read_returns_raw_values_and_names_a_zero_denominator():
    assert Q.read("-4/6") == Fraction(-2, 3) and type(Q.read("3")) is Fraction
    assert F5.read("3/2") == 4 and F5.read("-1") == 4
    for field, text in [(Q, "1/0"), (F5, "1/5"), (F5, "2/10"), (F5, "0/0")]:
        with pytest.raises(StructureError, match="^scalar literal '%s': " % text):
            field.read(text)
        with pytest.raises(StructureError, match="^scalar literal '%s': " % text):
            Scalar(field, field.read(text))
    # Library callers keep the PreconditionError of raw.
    with pytest.raises(PreconditionError, match="^zero denominator$"):
        Q.raw(1, 0)
    with pytest.raises(PreconditionError, match="^denominator 10 is zero mod 5$"):
        F5.raw(2, 10)


def test_field_mismatch():
    with pytest.raises(PreconditionError):
        Q.one() + F5.one()


def test_scalar_semantics():
    x = Scalar(Q, Q.raw(-1, 2))
    for name in ("value", "field"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x.value == Fraction(-1, 2) and x.field is Q
    a, b = FieldSpec(PRIME_FIELD, 5).from_int(3), FieldSpec(PRIME_FIELD, 5).from_int(8)
    assert a.field is b.field is F5
    assert a == b and hash(a) == hash(b)
    assert a + b == F5.from_int(1) and a * b == F5.from_int(4)
    f7 = FieldSpec(PRIME_FIELD, 7)
    for u, v in ((Q.one(), F5.one()), (F5.one(), f7.one())):
        with pytest.raises(PreconditionError, match="different fields"):
            u + v
        with pytest.raises(PreconditionError, match="different fields"):
            u * v
    assert Q.one() != F5.one() and Q.one() != 1
    assert (str(x), repr(x)) == ("-1/2", "Scalar(-1/2)")
    assert (str(a), repr(a)) == ("3", "Scalar(3)")
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert clone == x and clone.field is Q


rationals = st.builds(
    lambda n, d: Scalar(Q, Q.raw(n, d)), st.integers(-50, 50), st.integers(1, 9))
gf5 = st.integers(0, 4).map(F5.from_int)


@pytest.mark.parametrize("scalars", [rationals, gf5], ids=["Q", "GF5"])
class TestFieldAxioms:
    @given(data=st.data())
    def test_commutativity(self, scalars, data):
        x, y = data.draw(scalars), data.draw(scalars)
        assert x + y == y + x
        assert x * y == y * x

    @given(data=st.data())
    def test_associativity_and_distributivity(self, scalars, data):
        x, y, z = (data.draw(scalars) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(data=st.data())
    def test_inverse(self, scalars, data):
        x = data.draw(scalars)
        if not x.is_zero():
            assert x * x.inverse() == x.field.one()

    @given(data=st.data())
    def test_equality_consistent_with_arithmetic(self, scalars, data):
        a, c = data.draw(scalars), data.draw(scalars)
        b = a + c + (-c)
        assert a == b
        assert a + c == b + c
