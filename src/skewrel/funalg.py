"""The algebra of finitely supported K-valued functions on a finite carrier.

F0(X) has pointwise operations and basis {delta_x}. Its structure mirrors the
carrier exactly: nonzero homomorphisms to K are point evaluations, algebra
isomorphisms F0(Y) -> F0(X) come from bijections X -> Y, ideals are F0(A) for
subsets A, and partial actions on the carrier induce partial actions on the
algebra via alpha_t(f) = f o h_{t^-1} (and conversely).

The induced action keeps no copy of the action's tables ``pulls`` (h_{t^-1} on
X_t, keyed by t) and ``domains`` (X_t): alpha_t is psi of ``pulls[t]``. Only
the validator keys ``pulls`` by inverse, to find incoherent actions.
"""

from __future__ import annotations

from collections import namedtuple

from .actions import Carrier, PartialAction, validate_partial_action
from .errors import PreconditionError
from .fields import FieldSpec, Scalar
from .groups import GroupElement


def accumulate(out: dict, key, value):
    """out[key] += value, where a missing key counts as zero."""
    out[key] = out[key] + value if key in out else value


class SparseSum:
    """A finite formal sum {basis key: nonzero coefficient} over a context.

    The context is the pair (field, base) that fixes the coefficients and the
    basis: the base is a carrier, a relation or an algebra action.
    Coefficients are raw field values (see ``fields``), reduced and nonzero,
    or nonzero F0(X) elements in the skew ring. ``__init__`` is the
    one checked constructor of the field-valued sums: the subclass hook
    ``_checked(base, keys)`` checks the keys and returns the base, then the
    constructor unwraps Scalars and reduces. Anything built from checked parts
    trusts them and goes through ``_raw``, which stores values as given: a
    caller whose values may be unreduced or zero reduces them first, and
    ``_like`` (kernel output) always does. Subclasses supply the hook, the
    product, the term order and ``repr``.
    """

    coeffs: dict
    context: tuple
    mismatch: str          # the PreconditionError message for mixed contexts

    field = property(lambda self: self.context[0])

    def __init__(self, field: FieldSpec, base, coeffs=None):
        coeffs = coeffs or {}
        self.context = (field, self._checked(base, coeffs))
        self.coeffs = self._reduce({k: field.unwrap(c) for k, c in coeffs.items()})

    @classmethod
    def _raw(cls, context: tuple, coeffs: dict):
        """The element with these reduced, nonzero coefficients over a checked context."""
        self = cls.__new__(cls)
        self.context = context
        self.coeffs = coeffs
        return self

    def _reduce(self, coeffs: dict) -> dict:
        return self.context[0].reduce(coeffs)      # the field of a field-valued sum

    def _like(self, coeffs):
        return self._raw(self.context, self._reduce(coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other):
        # Fields compare by identity, and tuple comparison tests the other part for
        # identity before calling its __eq__, so the same objects compare at once.
        if self.context != other.context:
            raise PreconditionError(self.mismatch)

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            accumulate(out, k, c)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k: Scalar):
        k = self.field.unwrap(k)
        return self._like({key: k * c for key, c in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, type(self))
                and self.context == other.context
                and self.coeffs == other.coeffs)


class FunAlgElement(SparseSum):
    """Finite-support function carrier -> K, stored sparsely without zeros."""

    mismatch = "elements live over different carriers or fields"

    carrier = property(lambda self: self.context[1])

    @staticmethod
    def _checked(carrier, points) -> Carrier:
        carrier = Carrier(carrier)
        carrier.require(points)
        return carrier

    @staticmethod
    def delta(field: FieldSpec, carrier, x: str) -> "FunAlgElement":
        return FunAlgElement(field, carrier, {x: field.one()})

    def support(self):
        return self.carrier.sort(self.coeffs)

    def __mul__(self, other: "FunAlgElement") -> "FunAlgElement":
        self._check(other)
        b = other.coeffs
        return self._like({x: c * b[x] for x, c in self.coeffs.items() if x in b})

    def __repr__(self):
        if self.is_zero():
            return "0"
        return " + ".join("%s·δ_%s" % (self.coeffs[x], x) for x in self.support())


class LinearMapOnBasis:
    """Linear map F0(source) -> F0(target), given by the images of delta_x."""

    def __init__(self, field: FieldSpec, source, target, columns):
        self.field = field
        self.source = Carrier(source)
        self.target = Carrier(target)
        missing = [x for x in self.source if x not in columns]
        if missing or len(columns) != len(self.source):
            raise PreconditionError("no column for %s" % missing[0] if missing
                                    else "a column lies off the source")
        self.columns: dict[str, FunAlgElement] = {x: columns[x] for x in self.source}
        for x, col in self.columns.items():
            if col.context != (field, self.target):
                raise PreconditionError("column for %s lives over the wrong carrier" % x)

    def apply(self, f: FunAlgElement) -> FunAlgElement:
        if f.context != (self.field, self.source):
            raise PreconditionError("argument lives over the wrong carrier")
        out = {}
        for x, c in f.coeffs.items():
            for y, d in self.columns[x].coeffs.items():
                accumulate(out, y, c * d)
        return FunAlgElement._raw((self.field, self.target), self.field.reduce(out))

    def __eq__(self, other):
        return (isinstance(other, LinearMapOnBasis)
                and self.field is other.field
                and self.source == other.source
                and self.target == other.target
                and self.columns == other.columns)


# verdict: "zero", "evaluation" at point, or "not-multiplicative" with one witness.
HomClassification = namedtuple("HomClassification", "verdict point pair_witness idem_witness",
                               defaults=(None, None, None))


def classify_linear_functional(field: FieldSpec, carrier, values) -> HomClassification:
    """Decide whether a linear functional on F0(X) is an algebra homomorphism.

    The only nonzero homomorphisms to K are the evaluations eps_x; anything
    else fails multiplicativity on a pair of basis vectors or on a single
    non-idempotent value. Points that ``values`` omits count as zero.
    Witnesses are minimal in carrier order.
    """
    carrier = Carrier(carrier)
    carrier.require(values)
    if any(v.field is not field for v in values.values()):
        raise PreconditionError("scalars from different fields")
    support = carrier.sort(x for x, v in values.items() if not v.is_zero())[:2]
    if not support:
        return HomClassification("zero")
    if len(support) >= 2:
        return HomClassification("not-multiplicative",
                                 pair_witness=(support[0], support[1]))
    x = support[0]
    if values[x] * values[x] != values[x]:
        return HomClassification("not-multiplicative", idem_witness=x)
    return HomClassification("evaluation", point=x)


def psi_from_bijection(field: FieldSpec, h: dict[str, str], source_carrier,
                       target_carrier) -> LinearMapOnBasis:
    """psi_h: F0(Y) -> F0(X), f |-> f o h, for a bijection h: X -> Y.

    On the basis: psi_h(delta_y) = delta_{h^-1(y)}.
    """
    source_carrier = Carrier(source_carrier)   # Y
    target_carrier = Carrier(target_carrier)   # X
    if (set(h) != set(target_carrier) or set(h.values()) != set(source_carrier)
            or len(set(h.values())) != len(h)):
        raise PreconditionError("h is not a bijection between the carriers")
    columns = {y: FunAlgElement.delta(field, target_carrier, x) for x, y in h.items()}
    return LinearMapOnBasis(field, source_carrier, target_carrier, columns)


def bijection_from_isomorphism(gamma: LinearMapOnBasis) -> dict[str, str]:
    """Recover the unique bijection h with gamma = psi_h.

    psi_h sends delta_y to delta_{h^-1(y)}, so gamma is some psi_h exactly when
    every column delta_y is a single delta_x with coefficient 1, the x are
    pairwise distinct and they fill the target; then h(x) = y.
    """
    one = gamma.field.raw(1)
    h: dict[str, str] = {}
    for y, col in gamma.columns.items():
        x = next(iter(col.coeffs), None)
        if len(col.coeffs) != 1 or col.coeffs[x] != one or x in h:
            raise PreconditionError("column of %s is not a unit delta at a new point" % y)
        h[x] = y
    if len(h) != len(gamma.target):
        raise PreconditionError("columns do not fill the target")
    return h


def subset_of_ideal(generators) -> list[str]:
    """The subset A with <generators> = F0(A): points hit by some generator.

    The zero ideal corresponds to the empty set; this extends the nonzero
    ideal / nonempty subset bijection to a total lattice map.
    """
    if not generators:
        return []
    carrier = generators[0].carrier
    hit = set()
    for g in generators:
        g._check(generators[0])
        hit.update(g.coeffs)
    return [x for x in carrier if x in hit]


class InducedAlgebraAction:
    """The partial action on F0(X) arising from a set-level partial action.

    D_t = F0(X_t) and alpha_t(f) = f o h_{t^-1}.
    """

    def __init__(self, field: FieldSpec, action: PartialAction, validate=True):
        if validate:
            report = validate_partial_action(action)
            if not report.ok:
                raise PreconditionError(
                    "underlying action is invalid: %s" % "; ".join(report.render()))
        self.field = field
        self.action = action
        self.carrier = action.carrier

    def apply(self, t: GroupElement, f: FunAlgElement) -> FunAlgElement:
        """alpha_t(f) = f o h_{t^-1}; requires support(f) within X_{t^-1}."""
        if f.context != (self.field, self.carrier):
            raise PreconditionError("element lives over the wrong carrier or field")
        h_t = self.action.pulls.get(t.inverse(), {})
        outside = [x for x in f.coeffs if x not in h_t]
        if outside:
            raise PreconditionError(
                "support escapes X_{t^-1} at %s" % ",".join(self.carrier.sort(outside)))
        return f._like({h_t[x]: c for x, c in f.coeffs.items()})

    def as_linear_map(self, t: GroupElement) -> LinearMapOnBasis:
        """alpha_t as a basis map F0(X_{t^-1}) -> F0(X_t) over subcarriers: psi of h_{t^-1}."""
        domains = self.action.domains
        return psi_from_bijection(self.field, self.action.pulls.get(t, {}),
                                  domains.get(t.inverse(), ()), domains.get(t, ()))

    def __eq__(self, other):
        return (isinstance(other, InducedAlgebraAction)
                and self.field is other.field
                and self.action == other.action)


def recover_set_action(field: FieldSpec, group, carrier, family) -> PartialAction:
    """Rebuild the set-level action from an algebra-level one.

    family: {GroupElement t: (X_t support labels, alpha_t as LinearMapOnBasis
    from F0(X_{t^-1}) to F0(X_t))}. Each alpha_t must be induced by a unique
    bijection h_{t^-1}: X_t -> X_{t^-1}; the recovered action is validated by
    the InducedAlgebraAction constructor and must reproduce the family
    exactly, subcarrier order included.
    """
    e = group.identity()
    maps: dict[GroupElement, dict[str, str]] = {}
    for t, (support, alpha_t) in family.items():
        if t == e:
            continue
        h_tinv = bijection_from_isomorphism(alpha_t)   # X_t -> X_{t^-1}
        if set(h_tinv) != set(support):
            raise PreconditionError("alpha_%s is not defined on all of F0(X_{t^-1})" % t)
        maps[t] = {x: y for y, x in h_tinv.items()}    # h_t: X_{t^-1} -> X_t
    theta = PartialAction(group, carrier, maps)
    induced = InducedAlgebraAction(field, theta)
    for t, (support, alpha_t) in family.items():
        if t != e and induced.as_linear_map(t) != alpha_t:
            raise PreconditionError("recovered action does not reproduce alpha_%s" % t)
    return theta
