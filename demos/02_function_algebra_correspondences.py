"""Walkthrough: the algebra of finite-support functions and its four
structural correspondences (points, bijections, subsets, actions).

Run with: python3 demos/02_function_algebra_correspondences.py
"""

from skewrel import (FieldSpec, FunAlgElement, InducedAlgebraAction,
                     bijection_from_isomorphism, classify_linear_functional,
                     psi_from_bijection, recover_set_action, subset_of_ideal)
from skewrel.fixtures import e1_action

Q = FieldSpec("rationals")
X = ("a", "b", "c")

# Basis vectors multiply like orthogonal idempotents.
da = FunAlgElement.delta(Q, X, "a")
db = FunAlgElement.delta(Q, X, "b")
print("delta_a * delta_b =", da * db)
print("delta_a * delta_a =", da * da)

# Nonzero homomorphisms to the field are exactly point evaluations.
print(classify_linear_functional(Q, X, {"a": Q.one(), "b": Q.zero(), "c": Q.zero()}))
print(classify_linear_functional(Q, X, {x: Q.one() for x in X}))

# Algebra isomorphisms come from bijections of the carrier, and the bijection
# can be recovered from the isomorphism alone.
swap = {"a": "b", "b": "a", "c": "c"}
psi = psi_from_bijection(Q, swap, X, X)
print("psi_swap(delta_a) =", psi.apply(da))
print("recovered bijection:", bijection_from_isomorphism(psi))

# Ideals are cut out by subsets: whatever points the generators touch.
f = da.scale(Q.from_int(2)) + db
print("ideal generated by 2*delta_a + delta_b lives on", subset_of_ideal([f]))

# A set-level partial action induces an algebra-level one, and the set level
# can be recovered from the algebra level exactly.
theta = e1_action()
alpha = InducedAlgebraAction(Q, theta)
g = theta.group.element(1)
print("alpha_g(delta_a) =", alpha.apply(g, FunAlgElement.delta(Q, theta.carrier, "a")))

family = {t: (theta.domains[t], alpha.as_linear_map(t))
          for t in theta.listed()}
print("round trip recovers theta:",
      recover_set_action(Q, theta.group, theta.carrier, family) == theta)
