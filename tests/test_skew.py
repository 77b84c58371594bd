import random
import time
from fractions import Fraction

import pytest

from skewrel.actions import PartialAction, build_relation
from skewrel.errors import PreconditionError
from skewrel.fields import FieldSpec, PRIME_FIELD, RATIONALS
from skewrel.fixtures import e1_action, e2_action, fixture_bundle
from skewrel.funalg import FunAlgElement, InducedAlgebraAction, accumulate
from skewrel.groups import GroupSpec
from skewrel.relalg import gamma_inv
from skewrel.selftest import random_rel, random_skew
from skewrel.skew import SkewElement

Q = FieldSpec(RATIONALS)
F5 = FieldSpec(PRIME_FIELD, 5)


def e1_alpha(field=Q):
    return fixture_bundle(field, e1_action())[2]


def e2_alpha(field=Q):
    return fixture_bundle(field, e2_action())[2]


class TestAddition:
    def test_zero_is_neutral(self):
        alpha = e1_alpha()
        u = SkewElement.monomial(alpha, "a", alpha.action.group.element(1))
        assert u + SkewElement.zero(alpha) == u

    def test_cancellation(self):
        alpha = e1_alpha()
        u = SkewElement.monomial(alpha, "a", alpha.action.group.element(1))
        assert (u + u.scale(Q.from_int(-1))).is_zero()

    def test_distinct_terms_stack(self):
        alpha = e1_alpha()
        g = alpha.action.group.element(1)
        u = SkewElement.monomial(alpha, "a", g)
        v = SkewElement.monomial(alpha, "c", alpha.action.identity)
        assert len((u + v).terms) == 2

    def test_action_mismatch(self):
        with pytest.raises(PreconditionError):
            u = SkewElement.monomial(e1_alpha(), "a", e1_action().group.element(1))
            v = SkewElement.monomial(e2_alpha(), "1", e2_action().group.element(1))
            u + v


class TestMultiplication:
    def test_e1_cross_term(self):
        alpha = e1_alpha()
        g = alpha.action.group.element(1)
        dag = SkewElement.monomial(alpha, "a", g)
        dbg = SkewElement.monomial(alpha, "b", g)
        expected = SkewElement.monomial(alpha, "a", alpha.action.identity)
        assert dag * dbg == expected

    def test_e1_self_product_vanishes(self):
        alpha = e1_alpha()
        g = alpha.action.group.element(1)
        dag = SkewElement.monomial(alpha, "a", g)
        assert (dag * dag).is_zero()

    def test_e2_cross_term(self):
        alpha = e2_alpha()
        z = alpha.action.group
        u = SkewElement.monomial(alpha, "2", z.element(1))
        v = SkewElement.monomial(alpha, "1", z.element(-2))
        assert u * v == SkewElement.monomial(alpha, "2", z.element(-1))

    def test_two_sided_identity(self):
        for alpha in (e1_alpha(), e2_alpha(F5)):
            one = SkewElement.one(alpha)
            rng = random.Random(3)
            for _ in range(20):
                u = random_skew(rng, alpha)
                assert u * one == u
                assert one * u == u

    def test_field_is_the_action_field(self):
        for alpha in (e1_alpha(), e2_alpha(F5)):
            assert SkewElement.one(alpha).field is alpha.field

    def test_closure_under_product(self):
        rng = random.Random(5)
        for alpha in (e1_alpha(), e2_alpha(), e2_alpha(F5)):
            for _ in range(50):
                u, v = random_skew(rng, alpha), random_skew(rng, alpha)
                assert (u * v).validate()

    def test_associativity_random(self):
        rng = random.Random(9)
        for alpha in (e1_alpha(), e2_alpha(F5)):
            for _ in range(100):
                u, v, w = (random_skew(rng, alpha) for _ in range(3))
                assert (u * v) * w == u * (v * w)

    def test_bilinearity_random(self):
        rng = random.Random(13)
        alpha = e1_alpha()
        for _ in range(50):
            u, v, w = (random_skew(rng, alpha) for _ in range(3))
            assert u * (v + w) == u * v + u * w
            assert (u + v) * w == u * w + v * w


class TestValidation:
    def test_supported_term_is_valid(self):
        alpha = e1_alpha()
        g = alpha.action.group.element(1)
        assert SkewElement.monomial(alpha, "a", g).validate()

    def test_unsupported_term_detected(self):
        alpha = e1_alpha()
        g = alpha.action.group.element(1)
        # Only _raw, which kernel results go through, can build it.
        bad = SkewElement._raw((alpha,), {g: FunAlgElement.delta(Q, alpha.carrier, "c")})
        assert not bad.validate()
        with pytest.raises(PreconditionError):
            SkewElement(alpha, {g: FunAlgElement.delta(Q, alpha.carrier, "c")})

    def test_e2_support(self):
        alpha = e2_alpha()
        two = alpha.action.group.element(2)
        assert SkewElement.monomial(alpha, "3", two).validate()


def cyclic_action(n, k):
    """Z_n acting freely by translation on k orbits "i.j" of n points each."""
    z = GroupSpec.cyclic(n)
    maps = {z.element(t): {"%d.%d" % (i, j): "%d.%d" % (i, (j + t) % n)
                           for i in range(k) for j in range(n)}
            for t in range(1, n)}
    return PartialAction(z, ["%d.%d" % (i, j) for i in range(k) for j in range(n)], maps)


class TestSharedCarrier:
    def test_every_coefficient_shares_the_action_positions(self, monkeypatch):
        # Records the elements of both constructors: the public one, and _raw,
        # which the seeded draws and the kernel results go through.
        built = []
        init, raw = FunAlgElement.__init__, FunAlgElement._raw.__func__

        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        def record_raw(cls, *args):
            element = raw(cls, *args)
            built.append(element)
            return element

        monkeypatch.setattr(FunAlgElement, "__init__", record)
        monkeypatch.setattr(FunAlgElement, "_raw", classmethod(record_raw))
        rng = random.Random(17)
        for alpha in (e1_alpha(), e2_alpha(F5), e2_alpha()):
            rel = build_relation(alpha.action)
            for _ in range(20):
                u, v = random_skew(rng, alpha), random_skew(rng, alpha)
                u * v
                for t, a in u.terms.items():
                    alpha.apply(t.inverse(), a)
                gamma_inv(alpha, random_rel(rng, alpha.field, rel))
            assert built
            assert all(f.carrier.position is alpha.action.carrier.position for f in built)
            built.clear()

    def test_single_term_product_cost_is_flat_in_the_carrier(self):
        def best_of_7(k):
            alpha = InducedAlgebraAction(Q, cyclic_action(8, k), validate=False)
            z = alpha.action.group
            u = SkewElement.monomial(alpha, "0.3", z.element(2))
            v = SkewElement.monomial(alpha, "0.1", z.element(3))
            assert u * v == SkewElement.monomial(alpha, "0.3", z.element(5))
            times = []
            for _ in range(7):
                start = time.perf_counter()
                for _ in range(20):
                    u * v
                times.append(time.perf_counter() - start)
            return min(times)

        assert best_of_7(1000) < 5 * best_of_7(1)


def reference_product(u, v):
    """The product in the order of the formula alpha_t(alpha_{t^-1}(a_t) b_s):
    pull a_t back with alpha_{t^-1}, multiply pointwise with b_s, push the
    result forward with alpha_t, and add the terms as F0(X) elements."""
    alpha = u.action
    out = {}
    for t, a in u.sorted_terms():
        pulled = alpha.apply(t.inverse(), a)       # alpha_{t^-1}(a_t), in D_{t^-1}
        for s, b in v.sorted_terms():
            mid = pulled * b                       # lands in D_{t^-1} & D_s
            if not mid.is_zero():
                accumulate(out, t * s, alpha.apply(t, mid))   # in D_t & D_{ts}
    return u._like(out)


def assert_reduced(u):
    """Every stored value is a nonzero raw value in its field's normal form."""
    modulus = u.action.field.modulus
    for a in u.terms.values():
        assert a.coeffs
        for c in a.coeffs.values():
            if modulus is None:
                assert isinstance(c, Fraction) and c != 0
            else:
                assert isinstance(c, int) and 0 < c < modulus


class TestFusedProduct:
    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
    @pytest.mark.parametrize("make_action", [e1_action, e2_action, lambda: cyclic_action(8, 4)],
                             ids=["E1", "E2", "cyclic-8-4"])
    def test_matches_pull_multiply_push(self, field, make_action):
        alpha = InducedAlgebraAction(field, make_action(), validate=False)
        rng = random.Random(23)
        nonzero = 0
        for _ in range(60):
            u, v = random_skew(rng, alpha), random_skew(rng, alpha)
            product = u * v
            assert product == reference_product(u, v)
            assert_reduced(product)
            nonzero += not product.is_zero()
        assert nonzero >= 10

    def test_cancelling_terms_drop_out(self):
        alpha = e1_alpha(F5)
        e, g = alpha.action.identity, alpha.action.group.element(1)
        f = FunAlgElement(F5, alpha.carrier, {"a": F5.from_int(1), "b": F5.from_int(2)})
        u = SkewElement(alpha, {e: f, g: f})
        v = SkewElement(alpha, {e: f, g: f.scale(F5.from_int(-1))})
        assert u * v == reference_product(u, v)
        assert_reduced(u * v)

    def test_constructor_names_the_points_outside_x_t(self):
        alpha = e2_alpha()
        f = FunAlgElement(Q, alpha.carrier, {x: Q.from_int(1) for x in ("3", "2", "1")})
        with pytest.raises(PreconditionError, match=r"^a_2 has support outside X_2 at 1,2$"):
            SkewElement(alpha, {alpha.action.group.element(2): f})
