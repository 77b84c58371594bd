"""Shared desk fixtures used by demos, tests and the self-test battery.

E1: Z_2 = {e, g} acting on {a, b, c} with h_g the swap a <-> b on {a, b}.
    Free; classes {a, b} and {c}.

E2: (Z, +) acting on {1, 2, 3} with h_1 the shift 1 -> 2 -> 3 on {1, 2} and
    h_2 = {1 -> 3}; every other X_t empty. Free; a single class.
"""

from __future__ import annotations

from .actions import PartialAction, build_relation
from .fields import FieldSpec, RATIONALS, PRIME_FIELD
from .funalg import InducedAlgebraAction
from .groups import GroupSpec

RATIONALS_FIELD = FieldSpec(RATIONALS)
GF5 = FieldSpec(PRIME_FIELD, 5)


def e1_action() -> PartialAction:
    group = GroupSpec.cyclic(2)
    g = group.element(1)
    return PartialAction(group, ["a", "b", "c"], {g: {"a": "b", "b": "a"}})


def e2_action() -> PartialAction:
    group = GroupSpec.integers()
    return PartialAction(group, ["1", "2", "3"], {
        group.element(1): {"1": "2", "2": "3"},
        group.element(2): {"1": "3"},
    })


def fixture_bundle(field: FieldSpec, action: PartialAction):
    """(action, relation, induced algebra action) for one fixture and field."""
    rel = build_relation(action)
    alpha = InducedAlgebraAction(field, action, validate=False)
    return action, rel, alpha
