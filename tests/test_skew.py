import operator
import os
import random
import time
from fractions import Fraction

import pytest

from skewrel.actions import PartialAction, build_relation
from skewrel.documents import load_action
from skewrel.errors import PreconditionError
from skewrel.fields import FieldSpec, PRIME_FIELD, RATIONALS
from skewrel.fixtures import e1_action, e2_action, fixture_bundle
from skewrel.funalg import FunAlgElement, InducedAlgebraAction, accumulate
from skewrel.groups import GroupSpec
from skewrel.relalg import ExactRowSpace, gamma_inv
from skewrel.selftest import _squared_skew_mul, random_rel, random_skew, random_value
from skewrel.skew import SkewElement

from helpers import group_elements
from strategies import draw_any

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
        assert u + SkewElement(alpha) == u

    def test_cancellation(self):
        alpha = e1_alpha()
        u = SkewElement.monomial(alpha, "a", alpha.action.group.element(1))
        assert (u + u.scale(Q.from_int(-1))).is_zero()

    def test_distinct_terms_stack(self):
        alpha = e1_alpha()
        g = alpha.action.group.element(1)
        u = SkewElement.monomial(alpha, "a", g)
        v = SkewElement.monomial(alpha, "c", alpha.action.group.identity())
        assert len((u + v).terms) == 2

    def test_action_mismatch(self):
        with pytest.raises(PreconditionError):
            u = SkewElement.monomial(e1_alpha(), "a", e1_action().group.element(1))
            v = SkewElement.monomial(e2_alpha(), "1", e2_action().group.element(1))
            u + v

    def test_equal_actions_built_apart_mix(self):
        # Two induced actions made separately from equal set actions: their elements
        # add, multiply and compare through InducedAlgebraAction.__eq__.
        alpha, twin = e1_alpha(), InducedAlgebraAction(Q, e1_action())
        assert twin is not alpha and twin.action is not alpha.action and twin == alpha
        e, g = alpha.action.group.identity(), alpha.action.group.element(1)
        u, v = SkewElement.monomial(alpha, "a", g), SkewElement.monomial(twin, "b", g)
        assert u == SkewElement.monomial(twin, "a", g)
        assert u + v == v + u and len((u + v).terms[g].coeffs) == 2
        assert u * v == SkewElement.monomial(twin, "a", e)
        # An equal carrier is not enough: another action, or the same one over GF(5).
        swap_bc = PartialAction(alpha.action.group, alpha.carrier, {g: {"b": "c", "c": "b"}})
        for other in (InducedAlgebraAction(Q, swap_bc), InducedAlgebraAction(F5, e1_action())):
            assert other != alpha
            w = SkewElement.monomial(other, "b", g)
            assert u != w
            for op in (operator.add, operator.mul):
                with pytest.raises(PreconditionError, match="^elements over different actions$"):
                    op(u, w)


class TestMultiplication:
    def test_e1_cross_term(self):
        alpha = e1_alpha()
        g = alpha.action.group.element(1)
        dag = SkewElement.monomial(alpha, "a", g)
        dbg = SkewElement.monomial(alpha, "b", g)
        expected = SkewElement.monomial(alpha, "a", alpha.action.group.identity())
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
            # sum_x delta_x delta_e: the unit, as the carrier is finite.
            e = alpha.action.group.identity()
            one = sum((SkewElement.monomial(alpha, x, e) for x in alpha.carrier),
                      SkewElement(alpha))
            rng = random.Random(3)
            for _ in range(20):
                u = random_skew(rng, alpha)
                assert u * one == u
                assert one * u == u

    def test_field_is_the_action_field(self):
        for alpha in (e1_alpha(), e2_alpha(F5)):
            e = alpha.action.group.identity()
            assert SkewElement(alpha).field is alpha.field
            assert SkewElement.monomial(alpha, alpha.carrier[0], e).field is alpha.field

    def test_closure_under_product(self):
        rng = random.Random(5)
        for alpha in (e1_alpha(), e2_alpha(), e2_alpha(F5)):
            for _ in range(50):
                u, v = random_skew(rng, alpha), random_skew(rng, alpha)
                assert SkewElement(alpha, (u * v).coeffs) == u * v

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
        m = SkewElement.monomial(alpha, "a", g)
        assert SkewElement(alpha, m.coeffs) == m

    def test_unsupported_term_detected(self):
        alpha = e1_alpha()
        g = alpha.action.group.element(1)
        # Only _raw, which kernel results go through, can build it.
        bad = SkewElement._raw((alpha.field, alpha),
                               {g: FunAlgElement.delta(Q, alpha.carrier, "c")})
        with pytest.raises(PreconditionError):
            SkewElement(alpha, bad.coeffs)
        with pytest.raises(PreconditionError):
            SkewElement(alpha, {g: FunAlgElement.delta(Q, alpha.carrier, "c")})

    def test_e2_support(self):
        alpha = e2_alpha()
        two = alpha.action.group.element(2)
        m = SkewElement.monomial(alpha, "3", two)
        assert SkewElement(alpha, m.coeffs) == m


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
        e, g = alpha.action.group.identity(), alpha.action.group.element(1)
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


CYC_8_12 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cyc-8-12.json")


class SkewIdealOracle:
    """The ideal A·u·A of A = F0(X) x G, from products of monomials 1_x delta_t alone.

    Its coefficient space has a column per (t, x) with x in X_t. A is unital,
    1 = sum of the 1_x delta_e, so two passes of row reduction suffice, as in
    the F0(R) oracle: the products m * u over monomials m, then each basis row
    f times each monomial. It uses neither Gamma nor the R-classes. Products
    zero by support are skipped: (1_x delta_t) * u needs h_{t^-1}(x) among the
    points of u, and f * (1_y delta_s) needs y = h_{t^-1}(x) for a point x of
    f's term at t. ``mul`` is the product under test.
    """

    def __init__(self, alpha, mul=operator.mul):
        self.alpha, self.mul = alpha, mul
        pulls = alpha.action.pulls
        self.cells = [(t, x) for t, domain in alpha.action.domains.items() for x in domain]
        self.column = {cell: i for i, cell in enumerate(self.cells)}
        self.landing, self.at = {}, {}     # y -> the (t, x) with h_{t^-1}(x) = y; with x = y
        for t, x in self.cells:
            self.landing.setdefault(pulls[t][x], []).append((t, x))
            self.at.setdefault(x, []).append((t, x))

    def monomial(self, cell):
        t, x = cell
        return SkewElement.monomial(self.alpha, x, t)

    def row(self, u) -> dict:
        # A faulty product may leave X_t; such a cell gets a column of its own.
        column = self.column
        return {column.setdefault((t, x), len(column)): c
                for t, a in u.terms.items() for x, c in a.coeffs.items()}

    def element(self, row):
        terms = {}
        cells = {i: cell for cell, i in self.column.items()}
        for col, c in row.items():
            t, x = cells[col]
            terms.setdefault(t, {})[x] = c
        context = (self.alpha.field, self.alpha.carrier)
        return SkewElement._raw((self.alpha.field, self.alpha),
                                {t: FunAlgElement._raw(context, a) for t, a in terms.items()})

    def ideal(self, u) -> ExactRowSpace:
        pulls = self.alpha.action.pulls
        space = ExactRowSpace(self.alpha.field, len(self.cells))
        points = {x for a in u.terms.values() for x in a.coeffs}
        left = {c for y in points for c in self.landing.get(y, ())}
        for cell in sorted(left, key=self.column.get):
            space.add(self.row(self.mul(self.monomial(cell), u)))
        for f in [self.element(row) for row in space.rows.values()]:
            # A faulty product's points outside X_t have no h_{t^-1} to follow.
            ends = {pulls[t][x] for t, a in f.terms.items()
                    for x in a.coeffs if x in pulls.get(t, {})}
            for cell in sorted({c for y in ends for c in self.at[y]}, key=self.column.get):
                space.add(self.row(self.mul(f, self.monomial(cell))))
        return space

    def span(self, elements) -> ExactRowSpace:
        space = ExactRowSpace(self.alpha.field, len(self.cells))
        for u in elements:
            space.add(self.row(u))
        return space

    def predicted(self, u) -> ExactRowSpace:
        """The span of the 1_x delta_t with x in the invariant closure of u's points:
        the points u's points reach under the stored maps h_t."""
        maps = {t.inverse(): h for t, h in self.alpha.action.pulls.items()}     # h_t, e included
        reached = {x for a in u.terms.values() for x in a.coeffs}
        frontier = list(reached)
        while frontier:
            x = frontier.pop()
            for h in maps.values():
                if x in h and h[x] not in reached:
                    reached.add(h[x])
                    frontier.append(h[x])
        return self.span(self.monomial(cell) for cell in self.cells if cell[1] in reached)


def z2_fixing_a_point(field):
    """Z_2 = {e, g} on one point p with h_g(p) = p: A = F0({p}) x Z_2 is the group algebra."""
    z2 = GroupSpec.cyclic(2)
    alpha = InducedAlgebraAction(field, PartialAction(z2, ["p"], {z2.element(1): {"p": "p"}}))
    one, g = (SkewElement.monomial(alpha, "p", t) for t in group_elements(z2))
    return alpha, one, g


def sparse_skew(rng, alpha, terms):
    """A sum of one to ``terms`` monomials with random nonzero coefficients."""
    cells = [(t, x) for t, domain in alpha.action.domains.items() for x in domain]
    coeffs = {}
    for t, x in rng.sample(cells, rng.randint(1, terms)):
        coeffs.setdefault(t, {})[x] = random_value(rng, alpha.field)
    context = (alpha.field, alpha.carrier)
    return SkewElement._raw((alpha.field, alpha), {t: FunAlgElement._raw(context, a)
                                                   for t, a in coeffs.items()})


def ideal_theorem_failures(mul) -> list:
    """The cases where A·u·A under mul is not the span the paper's ideal theorem
    predicts: random u over E1, E2 and generated free actions, sparse u over
    cyc-8-12, over Q and GF(5); and in the group algebra of Z_2, where the
    theorem does not apply, 1 + g and 1 - g each spanning the 1-dimensional
    ideal they generate. On a free action every ideal is spanned by monomials,
    so only that last case sees a product that gets the coefficients wrong."""
    failures = []
    _q, cyc = load_action(CYC_8_12)
    rng = random.Random(77)
    generated = [draw_any(rng, free_only=True).action for _ in range(20)]
    for field in (Q, F5):
        cases = [("E1", e1_action(), 25), ("E2", e2_action(), 25), ("cyc-8-12", cyc, 6)]
        cases += [("generated %d" % i, action, 3) for i, action in enumerate(generated)]
        for name, action, trials in cases:
            alpha = InducedAlgebraAction(field, action, validate=False)
            oracle = SkewIdealOracle(alpha, mul)
            for i in range(trials):
                if name == "cyc-8-12":
                    u = sparse_skew(rng, alpha, 3)
                else:
                    u = random_skew(rng, alpha)
                if oracle.ideal(u) != oracle.predicted(u):
                    failures.append("%s over %s, trial %d" % (name, field.kind, i))
        alpha, one, g = z2_fixing_a_point(field)
        oracle = SkewIdealOracle(alpha, mul)
        for name, u in (("1 + g", one + g), ("1 - g", one - g)):
            if oracle.ideal(u) != oracle.span([u]):
                failures.append("Z_2 fixing p over %s: %s" % (field.kind, name))
    return failures


def skew_mul_without_pull(u, v):
    """(a_t delta_t)(b_s delta_s) taken as (a_t b_s) delta_ts, without h_{t^-1}."""
    out = {}
    for t, a in u.terms.items():
        for s, b in v.terms.items():
            if (ab := a * b).coeffs:
                accumulate(out, t * s, ab)
    return u._like(out)             # a sum of terms may cancel to an empty one


class TestIdealTheorem:
    def test_ideals_are_the_spans_over_invariant_closures(self):
        start = time.perf_counter()
        assert ideal_theorem_failures(operator.mul) == []
        assert time.perf_counter() - start < 3.0

    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
    def test_a_fixed_point_breaks_the_theorem(self, field):
        # 1 + g generates a 1-dimensional ideal, but its closure {p} predicts both
        # 1_p delta_e and 1_p delta_g: why every F0(R) operation refuses non-free actions.
        alpha, one, g = z2_fixing_a_point(field)
        oracle = SkewIdealOracle(alpha)
        assert g * (one + g) == one + g
        assert oracle.ideal(one + g).dimension == 1
        assert oracle.predicted(one + g).dimension == 2
        assert not build_relation(alpha.action).is_free()

    @pytest.mark.parametrize("mul", [_squared_skew_mul, skew_mul_without_pull],
                             ids=["squared", "without-pull"])
    def test_faulty_products_break_it(self, mul):
        assert ideal_theorem_failures(mul)
