"""Test-side helpers that no CLI command needs: a finite group's elements and an
action document writer, the inverse of ``parse_action_document``."""

from skewrel.fields import RATIONALS
from skewrel.groups import CYCLIC, INTEGERS, TABLE


def group_elements(group) -> list:
    """All elements of a finite group, in payload order."""
    return [group.element(i) for i in range(group.order or len(group.names))]


def group_doc(group) -> dict:
    if group.kind == CYCLIC:
        return {"kind": CYCLIC, "n": group.order}
    if group.kind == INTEGERS:
        return {"kind": INTEGERS}
    return {
        "kind": TABLE,
        "elements": list(group.names),
        "identity": group.names[group.identity_index],
        "table": [[group.names[v] for v in row] for row in group.table],
    }


def action_doc(field, action) -> dict:
    """The action document of (field, action), maps listed as ``action.listed()`` orders them."""
    return {
        "field": {"kind": RATIONALS} if field.kind == RATIONALS
        else {"kind": field.kind, "modulus": field.modulus},
        "group": group_doc(action.group),
        "set": list(action.carrier),
        "maps": [           # h_t is pulls[t^-1], on X_{t^-1}
            {"t": str(t), "pairs": [[x, action.pulls[ti][x]] for x in action.domains[ti]]}
            for t in action.listed() for ti in [t.inverse()]
        ],
    }
