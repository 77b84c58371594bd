"""Walkthrough: the partial skew group ring, the relation algebra with
convolution, the isomorphism between them, and the ideal lattice.

Run with: python3 demos/03_skew_ring_and_relation_algebra.py
"""

from skewrel import (FieldSpec, RelElement, RelIdeal, SkewElement,
                     brute_force_ideal_span, count_ideals, gamma, gamma_inv,
                     ideal_closure_of, span_of_ideal)
from skewrel.actions import enumerate_invariant_subsets
from skewrel.fixtures import e1_action, e2_action, fixture_bundle

Q = FieldSpec("rationals")

# Twisted products in the skew ring over E1.
action1, rel1, alpha1 = fixture_bundle(Q, e1_action())
g = action1.group.element(1)
dag = SkewElement.monomial(alpha1, "a", g)
dbg = SkewElement.monomial(alpha1, "b", g)
print("(delta_a d_g)(delta_b d_g) =", dag * dbg)
print("(delta_a d_g)(delta_a d_g) =", dag * dag)

# The same elements, seen as functions on the relation via the isomorphism.
print("image of delta_a d_g:", gamma(rel1, dag))
print("pulled back:", gamma_inv(alpha1, gamma(rel1, dag)) == dag)

# Over E2 the relation is full, so the relation algebra is a 3x3 matrix
# algebra and the delta pairs behave as matrix units.
action2, rel2, alpha2 = fixture_bundle(Q, e2_action())
e21 = RelElement.delta(Q, rel2, "2", "1")
e13 = RelElement.delta(Q, rel2, "1", "3")
print("\nE_21 * E_13 =", e21 * e13)
print("E_21 * E_21 =", e21 * e21)

# Ideals correspond to invariant subsets: 2^k of them for k classes.
print("\nideal count: E1 ->", count_ideals(rel1), " E2 ->", count_ideals(rel2))
for members in enumerate_invariant_subsets(rel1):
    ideal = RelIdeal(rel1, members)
    print("  Z = %-12s dimension %d" % (members, ideal.dimension))

# The oracle computes the ideal A·f·A in two passes (all delta_p * f, then
# each basis row times every delta_q) and agrees with the classification: the
# ideal generated by a single element is determined by its class closure.
f = RelElement.delta(Q, rel1, "a", "b")
oracle = brute_force_ideal_span(Q, rel1, [f])
closed = span_of_ideal(Q, RelIdeal(rel1, ideal_closure_of(f)))
print("\nspan of <delta_(a,b)> has dimension", oracle.dimension,
      "and matches the classification:", oracle == closed)
