"""The *-structure: Gamma is a *-isomorphism F0(X) x G -> F0(R).

The partial crossed product of a free partial action is the algebraic shadow
of a groupoid C*-algebra (Exel, J. Funct. Anal. 1994; McClanahan, J. Funct.
Anal. 1995; Abadie, Proc. AMS 2004; Renault, LNM 793), and the
correspondence respects the involutions. Over Q and GF(p) conjugation is the
identity, so:

- on the skew ring, (a delta_t)* = alpha_{t^-1}(a) delta_{t^-1}, which is
  x |-> a(h_t(x)) on X_{t^-1};
- on F0(R), f*(x, y) = f(y, x).

Both are written here from ``pulls`` and transposition, without ``gamma``, so
the laws Gamma(u*) = Gamma(u)*, (uv)* = v* u* and u** = u check the products
and Gamma against definitions independent of them.
"""

import os
import random

import pytest

from skewrel.documents import load_action
from skewrel.fields import FieldSpec, PRIME_FIELD, RATIONALS, Scalar
from skewrel.fixtures import e1_action, e2_action, fixture_bundle
from skewrel.funalg import FunAlgElement
from skewrel.relalg import RelElement, gamma
from skewrel.selftest import random_rel, random_skew
from skewrel.skew import SkewElement
from strategies import draw_any

Q = FieldSpec(RATIONALS)
F5 = FieldSpec(PRIME_FIELD, 5)
FIELDS = pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
CYC_8_12 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cyc-8-12.json")


def skew_star(u: SkewElement) -> SkewElement:
    """sum_t alpha_{t^-1}(a_t) delta_{t^-1}: a_t(h_t(x)) at x in X_{t^-1}."""
    alpha = u.action
    field, pulls = alpha.field, alpha.action.pulls
    terms = {}
    for t, a in u.terms.items():
        h_t = pulls[t.inverse()]                       # h_t, defined on X_{t^-1}
        terms[t.inverse()] = FunAlgElement(field, alpha.carrier, {
            x: Scalar(field, a.coeffs[y]) for x, y in h_t.items() if y in a.coeffs})
    return SkewElement(alpha, terms)


def rel_star(f: RelElement) -> RelElement:
    """The transpose: f*(x, y) = f(y, x)."""
    return RelElement(f.field, f.relation, {(y, x): Scalar(f.field, c)
                                            for (x, y), c in f.coeffs.items()})


def check_laws(field, action, rng, trials) -> int:
    """Checks the three laws on seeded draws; returns how many u v were nonzero."""
    _, rel, alpha = fixture_bundle(field, action)
    nonzero = 0
    for _ in range(trials):
        u, v = random_skew(rng, alpha), random_skew(rng, alpha)
        assert skew_star(skew_star(u)) == u
        assert skew_star(u * v) == skew_star(v) * skew_star(u)
        assert gamma(rel, skew_star(u)) == rel_star(gamma(rel, u))
        f, g = random_rel(rng, field, rel), random_rel(rng, field, rel)
        assert rel_star(rel_star(f)) == f
        assert rel_star(f * g) == rel_star(g) * rel_star(f)
        nonzero += not (u * v).is_zero()
    return nonzero


@FIELDS
@pytest.mark.parametrize("make_action, trials", [
    (e1_action, 200), (e2_action, 200), (lambda: load_action(CYC_8_12)[1], 10)],
    ids=["E1", "E2", "cyc-8-12"])
def test_star_laws_on_the_fixtures(field, make_action, trials):
    assert check_laws(field, make_action(), random.Random(1994), trials) > trials // 5


@FIELDS
def test_star_laws_on_drawn_free_actions(field):
    rng, nonzero = random.Random(2004), 0
    for _ in range(200):
        nonzero += check_laws(field, draw_any(rng, free_only=True).action, rng, 2)
    assert nonzero > 100


def test_the_star_of_a_product_reverses_its_factors():
    # E2: the integers on {1, 2, 3} by h_1 = {1->2, 2->3} and h_2 = {1->3}, worked by hand.
    _, rel, alpha = fixture_bundle(Q, e2_action())
    z = alpha.action.group
    u = SkewElement.monomial(alpha, "2", z.element(1))        # Gamma(u) = delta_(2,1)
    v = SkewElement.monomial(alpha, "3", z.element(1))        # Gamma(v) = delta_(3,2)
    assert skew_star(u) == SkewElement.monomial(alpha, "1", z.element(-1))
    assert gamma(rel, skew_star(u)) == RelElement.delta(Q, rel, "1", "2")
    assert (u * v).is_zero() and v * u == SkewElement.monomial(alpha, "3", z.element(2))
    assert (skew_star(v * u) == skew_star(u) * skew_star(v)
            == SkewElement.monomial(alpha, "1", z.element(-2)))
    assert (skew_star(v) * skew_star(u)).is_zero()
