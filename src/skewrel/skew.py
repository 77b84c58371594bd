"""The partial skew group ring F0(X) x_alpha G.

Elements are finite formal sums sum_t a_t delta_t with a_t in D_t = F0(X_t).
The public constructor checks that each a_t lies in D_t, once; sums,
products and images are built from checked terms and trust them.
The product extends (a_t delta_t)(b_s delta_s) = alpha_t(alpha_{t^-1}(a_t) b_s)
delta_{ts} bilinearly. As alpha_t(f) = f o h_{t^-1}, the pullback puts a_t(x) at
h_{t^-1}(x) and alpha_t brings the pointwise product back to x, so the product
computes the ts term directly as x |-> a_t(x) b_s(h_{t^-1}(x)), on the x in the
support of a_t with h_{t^-1}(x) in that of b_s, summed by the field
(``FieldSpec.add_products``). Terms are canonicalized so equality is structural.
"""

from __future__ import annotations

from .errors import PreconditionError
from .fields import Scalar
from .funalg import FunAlgElement, InducedAlgebraAction, SparseSum
from .groups import GroupElement


class SkewElement(SparseSum):
    """Finite formal sum of a_t delta_t terms over an induced algebra action.

    ``coeffs`` (also ``terms``) maps t to the coefficient a_t in F0(X).
    """

    mismatch = "elements over different actions"

    action = property(lambda self: self.context[1])

    def __init__(self, action: InducedAlgebraAction, terms=None):
        context = (action.field, action.carrier)
        for t, a in (terms or {}).items():
            if a.context != context:
                raise PreconditionError("coefficient over the wrong carrier or field")
            x_t = action.action.pulls.get(t, {}).keys()
            if not a.coeffs.keys() <= x_t:
                outside = action.carrier.sort(a.coeffs.keys() - x_t)
                raise PreconditionError("a_%s has support outside X_%s at %s"
                                        % (t, t, ",".join(outside)))
        self.context = (action.field, action)
        self.coeffs = self._reduce(terms or {})

    def _reduce(self, terms: dict) -> dict:
        return {t: a for t, a in terms.items() if a.coeffs}

    @property
    def terms(self) -> dict[GroupElement, FunAlgElement]:
        return self.coeffs

    @staticmethod
    def monomial(action: InducedAlgebraAction, x: str, t: GroupElement) -> "SkewElement":
        """delta_x delta_t."""
        return SkewElement(action, {t: FunAlgElement.delta(action.field, action.carrier, x)})

    def sorted_terms(self):
        return sorted(self.coeffs.items(), key=lambda p: p[0].sort_key())

    def scale(self, k: Scalar) -> "SkewElement":
        return self._like({t: a.scale(k) for t, a in self.coeffs.items()})

    def __mul__(self, other: "SkewElement") -> "SkewElement":
        self._check(other)
        alpha, field = self.action, self.field
        right = [(s, b.coeffs) for s, b in other.coeffs.items()]
        out: dict = {}                                 # ts -> {x: the field's sum}
        for t, a in self.coeffs.items():
            h = alpha.action.pulls[t]                  # h_{t^-1}, defined on X_t
            for s, b in right:
                if products := [(x, c, b[h[x]]) for x, c in a.coeffs.items() if h[x] in b]:
                    field.add_products(out.setdefault(t * s, {}), products)
        context = (field, alpha.carrier)
        return self._like({ts: FunAlgElement._raw(context, field.total(v)) for ts, v in out.items()})

    def __repr__(self):
        if self.is_zero():
            return "0"
        return " + ".join("(%r)δ_%s" % (a, t) for t, a in self.sorted_terms())
