"""Raw field values inside the element kernels, Scalars only at the boundary.

Elements store a Fraction over Q and a reduced int residue over GF(p) at each
key; products, convolution, Gamma and the ideal oracle compute on those raw
values. The public constructors and ``scale`` take Scalars and check their
field. Over Q the two products add integer parts (n, d) unreduced; the
differential tests below hold them to a reference in Scalar arithmetic.
"""

import random
from fractions import Fraction

import pytest

from skewrel.actions import Carrier, PartialAction, build_relation
from skewrel.documents import parse_funalg, parse_rel
from skewrel.errors import PreconditionError
from skewrel.fields import FieldSpec, PRIME_FIELD, RATIONALS, Scalar
from skewrel.fixtures import e1_action, e2_action, fixture_bundle
from skewrel.funalg import FunAlgElement, LinearMapOnBasis
from skewrel.groups import GroupSpec
from skewrel.relalg import ExactRowSpace, RelElement, brute_force_ideal_span, gamma, gamma_inv
from skewrel.selftest import _support, _values, random_rel, random_skew
from skewrel.skew import SkewElement
from strategies import draw_any
from test_skew import cyclic_action

Q = FieldSpec(RATIONALS)
F5 = FieldSpec(PRIME_FIELD, 5)
F7 = FieldSpec(PRIME_FIELD, 7)
FIELDS = pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])


def random_funalg(rng, field, carrier, allowed=None) -> FunAlgElement:
    """A seeded F0(X) draw, on the selftest battery's distribution of supports and values."""
    bits = rng.getrandbits
    support = _support(bits, rng, carrier if allowed is None else allowed)
    return FunAlgElement._raw((field, Carrier(carrier)), _values(bits, field.modulus, support))


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


def held_reduced(element) -> bool:
    """Every value reduced and nonzero; in a skew element, every term nonempty too."""
    field = element.field
    if isinstance(element, SkewElement):
        return all(a.coeffs and held_reduced(a) for a in element.terms.values())
    if field.modulus is None:
        return all(type(c) is Fraction and c != 0 for c in element.coeffs.values())
    return all(type(c) is int and 0 < c < field.modulus for c in element.coeffs.values())


def test_parsers_drop_the_values_that_reduce_to_zero():
    labels = ["a", "b", "c", "d", "e"]
    texts = dict(zip(labels, ["0", "-0", "0/4", "10", "7"]))
    rel = build_relation(PartialAction(GroupSpec.cyclic(1), labels, {}))
    f = parse_funalg(F5, labels, texts)
    g = parse_rel(F5, rel, [{"x": x, "y": x, "value": text} for x, text in texts.items()])
    assert f.coeffs == {"e": 2} and held_reduced(f)
    assert g.coeffs == {("e", "e"): 2} and held_reduced(g)
    assert f == FunAlgElement(F5, labels, {x: Scalar(F5, F5.read(t)) for x, t in texts.items()})
    assert g == RelElement(F5, rel, {(x, x): Scalar(F5, F5.read(t)) for x, t in texts.items()})
    q = parse_funalg(Q, labels, {"a": "0", "b": "-0/3", "c": "6/4"})
    assert q.coeffs == {"c": Fraction(3, 2)} and held_reduced(q)


@FIELDS
def test_seeded_draws_hold_no_empty_term(field):
    # The reference draws the same stream and keeps the terms whose support is empty.
    _, rel, alpha = fixture_bundle(field, e2_action())
    domains = alpha.action.domains
    ours, theirs = random.Random(8), random.Random(8)
    empty = 0
    for _ in range(200):
        u = random_skew(ours, alpha)
        ts = theirs.sample(list(domains), theirs.randint(0, len(domains)))
        terms = {t: reference_funalg(theirs, field, alpha.carrier, domains[t]) for t in ts}
        empty += sum(a.is_zero() for a in terms.values())
        assert list(u.terms) == [t for t, a in terms.items() if not a.is_zero()]
        assert held_reduced(u)
        assert held_reduced(random_rel(ours, field, rel))
        random_rel(theirs, field, rel)
    assert empty > 20


@FIELDS
def test_gamma_and_its_inverse_hold_reduced_values(field):
    rel, alpha, us, fs, _hs = seeded_e2(field, seed=6)
    for u, v in zip(us, us[1:]):
        assert held_reduced(gamma(rel, u * v)) and held_reduced(gamma_inv(alpha, gamma(rel, u)))
    for f in fs:
        assert held_reduced(gamma_inv(alpha, f)) and held_reduced(gamma(rel, gamma_inv(alpha, f)))


@FIELDS
def test_linear_map_images_are_reduced(field):
    carrier = ("a", "b", "c")
    two, three = field.from_int(2), field.from_int(3)
    columns = {"a": FunAlgElement(field, carrier, {"a": two, "b": three}),
               "b": FunAlgElement(field, carrier, {"a": -two, "c": three}),
               "c": FunAlgElement(field, carrier, {"c": two})}
    linear = LinearMapOnBasis(field, carrier, carrier, columns)
    # (δ_a + δ_b)·3 cancels at a and, over GF(5), gives 3·3 = 4 at b and c.
    image = linear.apply(FunAlgElement(field, carrier, {"a": three, "b": three}))
    assert "a" not in image.coeffs and held_reduced(image)
    assert image.coeffs == {"b": field.raw(9), "c": field.raw(9)}


def test_certificate_rows_drop_values_zero_mod_p(monkeypatch):
    P = 2**31 - 1
    _, rel, _ = fixture_bundle(Q, e2_action())
    added, add = [], ExactRowSpace.add

    def recording(space, vec):
        added.append((space.field, dict(vec)))
        return add(space, vec)

    monkeypatch.setattr(ExactRowSpace, "add", recording)
    g = RelElement(Q, rel, {("1", "1"): Q.from_int(P), ("1", "2"): Scalar(Q, Q.raw(1, 2))})
    span = brute_force_ideal_span(Q, rel, [g])
    assert span.dimension == 9
    certificate = [vec for fld, vec in added if fld.modulus == P]
    assert certificate and all(0 < c < P for vec in certificate for c in vec.values())
    assert {fld.modulus for fld, _ in added} == {P}     # δ_(1,2) alone spans F0(R) of E2


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
                SkewElement.monomial(alpha, "1", alpha.action.group.identity())]
    for element in elements:
        with pytest.raises(PreconditionError, match="scalars from different fields"):
            element.scale(other)


def test_equal_field_object_accepted():
    rel, alpha, _us, _fs, _hs = seeded_e2(Q)
    same = FieldSpec(RATIONALS)
    assert same is Q
    f = FunAlgElement(Q, alpha.carrier, {"1": same.from_int(2)})
    assert f == FunAlgElement.delta(Q, alpha.carrier, "1").scale(same.from_int(2))
    assert RelElement(Q, rel, {("1", "2"): same.one()}) == RelElement.delta(Q, rel, "1", "2")



# --- the products against a reference in Scalar arithmetic -------------------

def reference_skew_product(u, v) -> SkewElement:
    """sum over term pairs of alpha_t(alpha_{t^-1}(a_t) b_s) delta_ts, as the paper
    writes it, with alpha_t(f) = f o h_{t^-1} on X_t and every value a Scalar."""
    alpha = u.action
    field, pulls = alpha.field, alpha.action.pulls
    out: dict = {}
    for t, a in u.terms.items():
        h_t, h_tinv = pulls.get(t.inverse(), {}), pulls[t]     # on X_{t^-1} and on X_t
        for s, b in v.terms.items():
            inner = {y: Scalar(field, a.coeffs[x]) * Scalar(field, b.coeffs[y])
                     for y, x in h_t.items() if x in a.coeffs and y in b.coeffs}
            term = out.setdefault(t * s, {})
            for x, y in h_tinv.items():
                if y in inner:
                    term[x] = term[x] + inner[y] if x in term else inner[y]
    return SkewElement(alpha, {ts: FunAlgElement(field, alpha.carrier, term)
                               for ts, term in out.items()})


def reference_convolution(f, g) -> RelElement:
    """(f * g)(x, z) = sum over y of f(x, y) g(y, z), over all pairs of entries."""
    field, out = f.field, {}
    for (x, y), c in f.coeffs.items():
        for (w, z), d in g.coeffs.items():
            if w == y:
                term = Scalar(field, c) * Scalar(field, d)
                out[x, z] = out[x, z] + term if (x, z) in out else term
    return RelElement(field, f.relation, out)


def wide_scalar(rng, field):
    """A nonzero Scalar: over Q an integer, a small fraction or one past 2^64 over a
    denominator up to 10^6, so products mix equal and unequal denominators."""
    if field.modulus is not None:
        return field.from_int(rng.randrange(1, field.modulus))
    sign, kind = rng.choice((-1, 1)), rng.randrange(3)
    if kind == 0:
        return field.from_int(sign * rng.randrange(1, 10))
    if kind == 1:
        return Scalar(field, field.raw(sign * rng.randrange(1, 10), rng.randrange(1, 10)))
    return Scalar(field, field.raw(sign * (rng.getrandbits(70) + 1), rng.randrange(1, 10 ** 6)))


def wide_skew(rng, alpha) -> SkewElement:
    terms = {}
    for t, x_t in alpha.action.domains.items():
        if rng.random() < 0.7:
            support = rng.sample(x_t, rng.randint(0, len(x_t)))
            terms[t] = FunAlgElement(alpha.field, alpha.carrier,
                                     {x: wide_scalar(rng, alpha.field) for x in support})
    return SkewElement(alpha, terms)


def wide_rel(rng, field, rel) -> RelElement:
    pairs = rel.sorted_pairs()
    return RelElement(field, rel, {p: wide_scalar(rng, field)
                                   for p in rng.sample(pairs, rng.randint(0, len(pairs)))})


def assert_products_match(us, fs) -> int:
    """Checks each cyclically adjacent pair; returns how many products were nonzero."""
    nonzero = 0
    for u, v in zip(us, us[1:] + us[:1]):
        product = u * v
        assert product == reference_skew_product(u, v)
        assert all(a.coeffs for a in product.terms.values())
        nonzero += not product.is_zero()
    for f, g in zip(fs, fs[1:] + fs[:1]):
        product = f * g
        assert product == reference_convolution(f, g)
        nonzero += not product.is_zero()
    return nonzero


@pytest.mark.parametrize("field", [Q, F5, F7], ids=["Q", "GF5", "GF7"])
def test_products_match_the_scalar_reference_on_drawn_actions(field):
    rng, nonzero = random.Random(2005), 0
    for _ in range(200):
        _, rel, alpha = fixture_bundle(field, draw_any(rng, free_only=True).action)
        nonzero += assert_products_match([random_skew(rng, alpha) for _ in range(3)]
                              + [wide_skew(rng, alpha) for _ in range(3)],
                              [random_rel(rng, field, rel) for _ in range(3)]
                              + [wide_rel(rng, field, rel) for _ in range(3)])
    assert nonzero > 1000


@pytest.mark.parametrize("field", [Q, F5, F7], ids=["Q", "GF5", "GF7"])
@pytest.mark.parametrize("make_action", [e1_action, e2_action, lambda: cyclic_action(6, 3)],
                         ids=["E1", "E2", "cyc-6-3"])
def test_products_of_seeded_draws_match_the_scalar_reference(field, make_action):
    _, rel, alpha = fixture_bundle(field, make_action())
    rng = random.Random(11)
    assert 15 < assert_products_match([random_skew(rng, alpha) for _ in range(30)],
                          [random_rel(rng, field, rel) for _ in range(30)])


def primes(count):
    found, n = [], 2
    while len(found) < count:
        if all(n % p for p in found if p * p <= n):
            found.append(n)
        n += 1
    return found


def test_pairwise_coprime_denominators_and_numerators_past_2_64():
    _, rel, alpha = fixture_bundle(Q, cyclic_action(6, 2))
    denominators = iter(primes(2 * 6 * 12))
    rng = random.Random(64)

    def dense():
        return SkewElement(alpha, {t: FunAlgElement(Q, alpha.carrier, {
            x: Scalar(Q, Q.raw(rng.choice((-1, 1)) * (2 ** 64 + rng.getrandbits(64)),
                               next(denominators))) for x in x_t})
            for t, x_t in alpha.action.domains.items()})

    u, v = dense(), dense()
    product = u * v
    assert product == reference_skew_product(u, v)
    assert gamma(rel, u) * gamma(rel, v) == reference_convolution(gamma(rel, u), gamma(rel, v))
    assert gamma(rel, product) == gamma(rel, u) * gamma(rel, v)
    assert all(c.denominator > 2 ** 6 and abs(c.numerator) > 2 ** 64
               for a in product.terms.values() for c in a.coeffs.values())


def test_terms_that_cancel_to_zero_drop_their_key():
    # E1: Z_2 = {e, g} on {a, b, c}, h_g swapping a and b.
    _, rel, alpha = fixture_bundle(Q, e1_action())
    e, g = alpha.action.group.identity(), alpha.action.group.element(1)

    def skew(terms):
        return SkewElement(alpha, {t: FunAlgElement(Q, alpha.carrier, {
            x: Scalar(Q, Q.read(text)) for x, text in values.items()})
            for t, values in terms.items()})

    # At g and a: a_e(a) b_g(a) + a_g(a) b_e(h_g(a)) = 1 * 2/3 + (-1/5) * 10/3 = 0.
    u = skew({e: {"a": "1", "b": "1"}, g: {"a": "-1/5"}})
    v = skew({e: {"a": "7/2", "b": "10/3"}, g: {"a": "2/3", "b": "5"}})
    product = u * v
    assert product == reference_skew_product(u, v)
    assert product.terms[g].coeffs == {"b": 5}
    # And a whole term cancels: drop b_g(b), which feeds only the g term at b.
    v = skew({e: {"a": "7/2", "b": "10/3"}, g: {"a": "2/3"}})
    assert (u * v).terms.keys() == {e} and u * v == reference_skew_product(u, v)
    # In F0(R): (a,a)(a,b) + (a,b)(b,b) = 1/3 * 3/7 + 1/2 * (-2/7) = 0 at (a, b).
    f = RelElement(Q, rel, {("a", "a"): Scalar(Q, Q.raw(1, 3)),
                            ("a", "b"): Scalar(Q, Q.raw(1, 2)), ("b", "a"): Scalar(Q, Q.raw(5))})
    h = RelElement(Q, rel, {("a", "b"): Scalar(Q, Q.raw(3, 7)),
                            ("b", "b"): Scalar(Q, Q.raw(-2, 7))})
    assert (f * h).coeffs == {("b", "b"): Fraction(15, 7)}
    assert f * h == reference_convolution(f, h)


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
def test_by_first_holds_what_convolution_reads(field):
    _rel, _alpha, _us, fs, _hs = seeded_e2(field, seed=4)
    for f in fs:
        rows = [(y, z, d) for y, row in f.by_first.items() for z, d in row]
        assert sorted((y, z) for y, z, _d in rows) == sorted(f.coeffs)
        # The raw values themselves: the field's add_products reads them as they are.
        assert all(d is f.coeffs[y, z] for y, z, d in rows)
