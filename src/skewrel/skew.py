"""The partial skew group ring F0(X) x_alpha G.

Elements are finite formal sums sum_t a_t delta_t with a_t in D_t = F0(X_t).
The product extends (a_t delta_t)(b_s delta_s) =
alpha_t(alpha_{t^-1}(a_t) b_s) delta_{ts} bilinearly, computed in exactly
that order: pull a_t back with alpha_{t^-1}, multiply pointwise with b_s,
push forward with alpha_t. Terms are canonicalized aggressively so equality
is structural.
"""

from __future__ import annotations

from .errors import PreconditionError
from .fields import Scalar
from .funalg import FunAlgElement, InducedAlgebraAction, SparseSum, accumulate
from .groups import GroupElement


class SkewElement(SparseSum):
    """Finite formal sum of a_t delta_t terms over an induced algebra action.

    ``coeffs`` (also ``terms``) maps t to the coefficient a_t in F0(X).
    """

    mismatch = "elements over different actions"

    action = property(lambda self: self.context[0])

    def __init__(self, action: InducedAlgebraAction, terms=None, check_support=True):
        context = (action.field, action.carrier)
        for t, a in (terms or {}).items():
            if a.context != context:
                raise PreconditionError("coefficient over the wrong carrier or field")
            if check_support:
                x_t = action.domain_support(t)
                outside = [x for x in a.coeffs if x not in x_t]
                if outside:
                    raise PreconditionError("a_%s has support outside X_%s at %s"
                                            % (t, t, ",".join(action.carrier.sort(outside))))
        self.context = (action,)
        self.coeffs = self._reduce(terms or {})

    def _reduce(self, terms: dict) -> dict:
        return {t: a for t, a in terms.items() if a.coeffs}

    @property
    def terms(self) -> dict[GroupElement, FunAlgElement]:
        return self.coeffs

    @staticmethod
    def zero(action: InducedAlgebraAction) -> "SkewElement":
        return SkewElement(action)

    @staticmethod
    def monomial(action: InducedAlgebraAction, x: str, t: GroupElement) -> "SkewElement":
        """delta_x delta_t."""
        return SkewElement(action, {t: FunAlgElement.delta(action.field, action.carrier, x)})

    @staticmethod
    def one(action: InducedAlgebraAction) -> "SkewElement":
        """sum_x delta_x delta_e, the identity when the carrier is finite."""
        f = FunAlgElement(action.field, action.carrier,
                          {x: action.field.one() for x in action.carrier})
        return SkewElement(action, {action.action.identity: f})

    def sorted_terms(self):
        return sorted(self.coeffs.items(), key=lambda p: p[0].sort_key())

    def scale(self, k: Scalar) -> "SkewElement":
        return self._like({t: a.scale(k) for t, a in self.coeffs.items()})

    def __mul__(self, other: "SkewElement") -> "SkewElement":
        self._check(other)
        alpha = self.action
        right = other.sorted_terms()
        out: dict[GroupElement, FunAlgElement] = {}
        for t, a in self.sorted_terms():
            pulled = alpha.apply(t.inverse(), a)       # alpha_{t^-1}(a_t), in D_{t^-1}
            for s, b in right:
                mid = pulled * b                       # lands in D_{t^-1} & D_s
                if not mid.is_zero():
                    accumulate(out, t * s, alpha.apply(t, mid))   # in D_t & D_{ts}
        return self._like(out)

    def validate(self) -> bool:
        """True iff every stored a_t is supported inside X_t."""
        return all(a.coeffs.keys() <= self.action.domain_support(t)
                   for t, a in self.coeffs.items())

    def __repr__(self):
        if self.is_zero():
            return "0"
        return " + ".join("(%r)δ_%s" % (a, t) for t, a in self.sorted_terms())
