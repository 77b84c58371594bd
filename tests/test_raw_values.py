"""Raw field values inside the element kernels, Scalars only at the boundary.

Elements store a Fraction over Q and a reduced int residue over GF(p) at each
key; products, convolution, Gamma and the ideal oracle compute on those raw
values. The public constructors and ``scale`` take Scalars and check their
field.
"""

import random
from fractions import Fraction

import pytest

from skewrel.errors import PreconditionError
from skewrel.fields import FieldSpec, PRIME_FIELD, RATIONALS, Scalar
from skewrel.fixtures import e1_action, e2_action, fixture_bundle
from skewrel.funalg import FunAlgElement
from skewrel.relalg import ExactRowSpace, RelElement, brute_force_ideal_span, gamma, gamma_inv
from skewrel.selftest import random_funalg, random_rel, random_skew
from skewrel.skew import SkewElement
from test_skew import cyclic_action

Q = FieldSpec(RATIONALS)
F5 = FieldSpec(PRIME_FIELD, 5)
FIELDS = pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])


def seeded_e2(field, seed=5, count=25):
    """(relation, action, skew elements, relation elements, F0(X) elements) over E2."""
    _, rel, alpha = fixture_bundle(field, e2_action())
    rng = random.Random(seed)
    us = [random_skew(rng, alpha) for _ in range(count)]
    fs = [random_rel(rng, field, rel) for _ in range(count)]
    hs = [random_funalg(rng, field, alpha.carrier) for _ in range(count)]
    return rel, alpha, us, fs, hs


# The constructor-based draws that the seeded ones replaced, kept as the
# reference: a Scalar per value, and the keys checked by the public constructors.
def reference_scalar(rng, field):
    if field.kind == PRIME_FIELD:
        return Scalar(field, rng.randrange(1, field.modulus))
    num = rng.choice((-3, -2, -1, 1, 2, 3))
    den = rng.choice((1, 2, 3))
    return Scalar(field, Fraction(num, den))


def reference_funalg(rng, field, carrier, allowed=None):
    pool = list(carrier if allowed is None else allowed)
    support = rng.sample(pool, rng.randint(0, len(pool)))
    return FunAlgElement(field, carrier, {x: reference_scalar(rng, field) for x in support})


def reference_skew(rng, alpha):
    domains = alpha.action.domains
    ts = list(domains)
    terms = {t: reference_funalg(rng, alpha.field, alpha.carrier, domains[t])
             for t in rng.sample(ts, rng.randint(0, len(ts)))}
    return SkewElement(alpha, terms)


def reference_rel(rng, field, rel):
    pairs = rel.sorted_pairs()
    chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
    return RelElement(field, rel, {p: reference_scalar(rng, field) for p in chosen})


@FIELDS
@pytest.mark.parametrize("make_action", [e1_action, e2_action, lambda: cyclic_action(8, 4)],
                         ids=["E1", "E2", "cyc-8-4"])
def test_raw_draws_match_the_constructor_draws(field, make_action):
    _, rel, alpha = fixture_bundle(field, make_action())
    domains = alpha.action.domains
    ts = list(domains)
    raw, reference = random.Random(13), random.Random(13)
    for i in range(40):
        x_t = domains[ts[i % len(ts)]]
        for draw, reference_draw, args in [
                (random_funalg, reference_funalg, (field, alpha.carrier)),
                (random_funalg, reference_funalg, (field, alpha.carrier, x_t)),
                (random_skew, reference_skew, (alpha,)),
                (random_rel, reference_rel, (field, rel))]:
            got, expected = draw(raw, *args), reference_draw(reference, *args)
            assert got == expected
            assert list(got.coeffs) == list(expected.coeffs)
            assert raw.getstate() == reference.getstate()


def count_scalars(monkeypatch) -> list:
    """The values of every Scalar built from now on."""
    built = []
    original = Scalar.__init__

    def counting(self, field, value):
        built.append(value)
        original(self, field, value)

    monkeypatch.setattr(Scalar, "__init__", counting)
    return built


@FIELDS
def test_kernels_build_no_scalar(field, monkeypatch):
    rel, alpha, us, fs, hs = seeded_e2(field)
    built = count_scalars(monkeypatch)
    nonzero = 0
    for u, v in zip(us, us[1:]):
        image = gamma(rel, u * v)
        assert gamma_inv(alpha, image) == u * v
        nonzero += not (u * v + u - v).is_zero()
    for f, g in zip(fs, fs[1:]):
        nonzero += not (f * g - f).is_zero()
        assert gamma(rel, gamma_inv(alpha, f)) == f
        if not f.is_zero():
            assert brute_force_ideal_span(field, rel, [f]).dimension > 0
    for a, b in zip(hs, hs[1:]):
        nonzero += not (a * b + a).is_zero()
    assert nonzero > 0
    assert built == []


@FIELDS
def test_oracle_rows_come_from_convolution(field, monkeypatch):
    rel, _alpha, _us, fs, _hs = seeded_e2(field)
    products, added = [], []
    convolve, add = RelElement.__mul__, ExactRowSpace.add

    def recording_convolve(f, g):
        out = convolve(f, g)
        products.append(out.coeffs)
        return out

    def recording_add(space, vec):
        added.append(vec)
        return add(space, vec)

    monkeypatch.setattr(RelElement, "__mul__", recording_convolve)
    monkeypatch.setattr(ExactRowSpace, "add", recording_add)
    pairs = rel.sorted_pairs()
    for f in fs:
        products.clear()
        added.clear()
        brute_force_ideal_span(field, rel, [f])
        assert added or f.is_zero()
        assert len(added) <= len(products)
        for vec, product in zip(added, products):
            assert {pairs[col]: c for col, c in vec.items()} == product


def stays_reduced(element, modulus) -> bool:
    return all(type(c) is int and 0 < c < modulus for c in element.coeffs.values())


def test_prime_field_values_stay_reduced():
    rel, alpha, us, fs, hs = seeded_e2(F5, seed=9)
    rng = random.Random(9)
    for group in (us, fs, hs):
        for x, y in zip(group, group[1:]):
            k = F5.from_int(rng.randrange(1, 5))
            assert (x - x).coeffs == {}
            for result in (x + y, -x, x - y, x + y - y, x.scale(k), x.scale(F5.zero())):
                if isinstance(result, SkewElement):
                    assert all(stays_reduced(a, 5) and a.coeffs
                               for a in result.coeffs.values())
                else:
                    assert stays_reduced(result, 5)
            assert x + y - y == x
    for f, g in zip(fs, fs[1:]):
        assert stays_reduced(f * g, 5)
    for u, v in zip(us, us[1:]):
        assert stays_reduced(gamma(rel, u * v), 5)


def test_rational_values_are_fractions():
    _rel, _alpha, _us, fs, _hs = seeded_e2(Q, seed=3)
    for f, g in zip(fs, fs[1:]):
        for result in (f + g, f * g, -f):
            assert all(type(c).__name__ == "Fraction" and c != 0
                       for c in result.coeffs.values())


def test_scalar_from_another_field_rejected():
    rel, alpha, _us, _fs, _hs = seeded_e2(Q)
    other = F5.one()
    with pytest.raises(PreconditionError, match="scalars from different fields"):
        FunAlgElement(Q, alpha.carrier, {"1": Q.one(), "2": other})
    with pytest.raises(PreconditionError, match="scalars from different fields"):
        RelElement(Q, rel, {("1", "2"): other})
    elements = [FunAlgElement.delta(Q, alpha.carrier, "1"),
                RelElement.delta(Q, rel, "1", "2"),
                SkewElement.monomial(alpha, "1", alpha.action.identity)]
    for element in elements:
        with pytest.raises(PreconditionError, match="scalars from different fields"):
            element.scale(other)


def test_equal_field_object_accepted():
    rel, alpha, _us, _fs, _hs = seeded_e2(Q)
    same = FieldSpec(RATIONALS)
    assert same is not Q
    f = FunAlgElement(Q, alpha.carrier, {"1": same.from_int(2)})
    assert f == FunAlgElement.delta(Q, alpha.carrier, "1").scale(same.from_int(2))
    assert RelElement(Q, rel, {("1", "2"): same.one()}) == RelElement.delta(Q, rel, "1", "2")

