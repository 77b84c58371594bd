"""Exact computer algebra for partial skew group rings of free partial
actions on finite sets, realized as equivalence-relation algebras."""

from .actions import (PartialAction, Relation, build_relation, check_free,
                      enumerate_invariant_subsets, equivalence_classes,
                      invariant_closure, validate_partial_action,
                      verify_equivalence, witness)
from .fields import FieldSpec, Scalar
from .funalg import (FunAlgElement, InducedAlgebraAction, LinearMapOnBasis,
                     bijection_from_isomorphism, classify_linear_functional,
                     psi_from_bijection, recover_set_action, subset_of_ideal)
from .groups import GroupElement, GroupSpec
from .relalg import (RelElement, RelIdeal, brute_force_ideal_span, count_ideals,
                     gamma, gamma_inv, ideal_closure_of, ideal_membership,
                     span_of_ideal)
from .skew import SkewElement

__all__ = [
    "FieldSpec", "Scalar", "GroupSpec", "GroupElement",
    "PartialAction", "Relation", "validate_partial_action", "check_free",
    "build_relation", "verify_equivalence", "equivalence_classes",
    "invariant_closure", "enumerate_invariant_subsets", "witness",
    "FunAlgElement", "LinearMapOnBasis", "classify_linear_functional",
    "psi_from_bijection", "bijection_from_isomorphism", "subset_of_ideal",
    "InducedAlgebraAction", "recover_set_action",
    "SkewElement",
    "RelElement", "RelIdeal", "gamma", "gamma_inv", "ideal_closure_of",
    "ideal_membership", "brute_force_ideal_span", "span_of_ideal", "count_ideals",
]

__version__ = "0.1.0"
