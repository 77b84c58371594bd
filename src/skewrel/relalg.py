"""The equivalence-relation algebra F0(R) and its ideal theory.

F0(R) carries the convolution (f * g)(x, z) = sum_{y in [x]} f(x, y) g(y, z).
For free actions it is isomorphic to the skew ring via Gamma, which sends
f delta_t to the function supported on pairs (x, h_{t^-1}(x)) with value f(x).
Ideals are exactly the F0((Z x Z) & R) for R-invariant subsets Z; a brute
force span closure over exact row reduction serves as the independent oracle.

Every operation here refuses non-free actions: with multiple witnesses the
pair-indexed convolution would double-count, a case the construction does
not define.
"""

from __future__ import annotations

from .actions import (Relation, invariant_closure, is_invariant, equivalence_classes,
                      witness)
from .errors import NotFreeError, PreconditionError
from .fields import FieldSpec, Scalar
from .funalg import FunAlgElement, InducedAlgebraAction, SparseSum, accumulate
from .skew import SkewElement


def _require_free(rel: Relation):
    if not rel.is_free():
        raise NotFreeError("operation on F0(R) requires a free action")


class RelElement(SparseSum):
    """Finite-support function R -> K, stored sparsely on pairs of R."""

    mismatch = "elements over different relations or fields"

    def __init__(self, field: FieldSpec, relation: Relation, coeffs=None):
        self.field = field
        self.relation = relation
        for pair in coeffs or ():
            if pair not in relation:
                raise PreconditionError("pair (%s, %s) is not in R" % pair)
        self._store((field, relation), coeffs)

    @staticmethod
    def delta(field: FieldSpec, relation: Relation, x: str, y: str) -> "RelElement":
        return RelElement(field, relation, {(x, y): field.one()})

    @staticmethod
    def zero(field: FieldSpec, relation: Relation) -> "RelElement":
        return RelElement(field, relation)

    def support(self):
        position = self.relation.carrier.position
        return sorted(self.coeffs, key=lambda p: (position[p[0]], position[p[1]]))

    def scale(self, k: Scalar) -> "RelElement":
        return self._like({p: k * c for p, c in self.coeffs.items()})

    def __mul__(self, other: "RelElement") -> "RelElement":
        """Convolution: match middle coordinates over stored support only."""
        self._check(other)
        _require_free(self.relation)
        by_first: dict[str, list] = {}
        for (y, z), d in other.coeffs.items():
            by_first.setdefault(y, []).append((z, d))
        out: dict[tuple[str, str], Scalar] = {}
        for (x, y), c in self.coeffs.items():
            for z, d in by_first.get(y, ()):
                accumulate(out, (x, z), c * d)
        return self._like(out)

    def __repr__(self):
        if self.is_zero():
            return "0"
        return " + ".join("%s·δ_(%s,%s)" % (self.coeffs[p], p[0], p[1])
                          for p in self.support())


def gamma(rel: Relation, u: SkewElement) -> RelElement:
    """The isomorphism F0(X) x G -> F0(R): f delta_t |-> value f(x) at (x, h_{t^-1}(x))."""
    _require_free(rel)
    if not u.validate():
        raise PreconditionError("skew element has a term outside its D_t")
    action = u.action.action
    out: dict[tuple[str, str], Scalar] = {}
    for t, a in u.sorted_terms():
        tinv = t.inverse()
        for x, c in a.coeffs.items():
            accumulate(out, (x, action.apply(tinv, x)), c)
    return RelElement(u.action.field, rel, out)


def gamma_inv(alpha: InducedAlgebraAction, f: RelElement) -> SkewElement:
    """Inverse of gamma: coefficient at (x, y) with witness s feeds the term
    at t = s^-1 with f_t(x) = f(x, h_{t^-1}(x))."""
    rel = f.relation
    _require_free(rel)
    coeffs: dict = {}          # t -> {x: f_t(x)}; x and t fix y, so no x repeats
    for (x, y), c in f.coeffs.items():
        coeffs.setdefault(witness(rel, x, y).inverse(), {})[x] = c
    return SkewElement(alpha, {t: FunAlgElement(alpha.field, alpha.carrier, a)
                               for t, a in coeffs.items()})


class RelIdeal:
    """Ideal F0((Z x Z) & R) for an R-invariant subset Z."""

    def __init__(self, relation: Relation, invariant_members):
        members = set(invariant_members)
        if not is_invariant(relation, members):
            raise PreconditionError("subset is not R-invariant")
        self.relation = relation
        self.invariant = [x for x in relation.carrier if x in members]
        self.basis = [p for p in relation.sorted_pairs()
                      if p[0] in members and p[1] in members]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, RelIdeal)
                and self.relation == other.relation
                and self.invariant == other.invariant)


def ideal_from_invariant(rel: Relation, members) -> RelIdeal:
    return RelIdeal(rel, members)


def ideal_closure_of(f: RelElement) -> list[str]:
    """Invariant subset generating the same ideal as f: the class closure of
    the first coordinates of its support."""
    _require_free(f.relation)
    firsts = {x for (x, _y) in f.coeffs}
    return invariant_closure(f.relation, firsts)


def ideal_membership(g: RelElement, ideal: RelIdeal) -> bool:
    if g.relation != ideal.relation:
        raise PreconditionError("element and ideal over different relations")
    basis = set(ideal.basis)
    return all(p in basis for p in g.coeffs)


def count_ideals(rel: Relation) -> int:
    return 1 << len(equivalence_classes(rel))


def _subtract_multiple(vec: dict, c: Scalar, row: dict):
    """vec -= c·row in place, dropping the entries that cancel."""
    for col, b in row.items():
        accumulate(vec, col, -(c * b))
        if vec[col].is_zero():
            del vec[col]


class ExactRowSpace:
    """Row space over K in reduced echelon form; exact arithmetic throughout.

    Vectors are sparse dicts {column: Scalar}. ``rows`` maps each pivot column
    to its row, whose pivot entry is one and which every other row is zero at;
    reduced echelon form is unique, so ``==`` compares spaces.
    """

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self.rows: dict[int, dict[int, Scalar]] = {}

    def add(self, vec: dict) -> bool:
        """Insert a sparse vector; returns True if the space grew."""
        vec = {col: c for col, c in vec.items() if not c.is_zero()}
        # A row is zero at every other pivot, so the touched pivots are known up front.
        for piv in [col for col in vec if col in self.rows]:
            _subtract_multiple(vec, vec[piv], self.rows[piv])
        if not vec:
            return False
        piv = min(vec)
        inv = vec[piv].inverse()
        vec = {col: inv * c for col, c in vec.items()}
        for row in self.rows.values():
            if piv in row:
                _subtract_multiple(row, row[piv], vec)
        self.rows[piv] = vec
        return True

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, ExactRowSpace)
                and self.field == other.field
                and self.width == other.width
                and self.rows == other.rows)


def brute_force_ideal_span(field: FieldSpec, rel: Relation, generators) -> ExactRowSpace:
    """Smallest subspace containing the generators and closed under left and
    right convolution by every delta pair of R; the oracle for the ideal
    classification. Iterates exact row reduction to a fixed point, and stops
    as soon as the span is the whole coefficient space, which is closed
    already; this needs no knowledge of the R-classes."""
    _require_free(rel)
    column = {pair: i for i, pair in enumerate(rel.sorted_pairs())}
    space = ExactRowSpace(field, len(column))

    def grows(f: RelElement) -> bool:
        return space.add({column[p]: c for p, c in f.coeffs.items()})

    frontier = [g for g in generators if grows(g)]
    deltas = [RelElement.delta(field, rel, x, y) for (x, y) in column]
    while frontier and space.dimension < space.width:
        new_frontier = []
        for f in frontier:
            for d in deltas:
                for prod in (d * f, f * d):
                    if not prod.is_zero() and grows(prod):
                        if space.dimension == space.width:
                            return space
                        new_frontier.append(prod)
        frontier = new_frontier
    return space


def span_of_ideal(field: FieldSpec, ideal: RelIdeal) -> ExactRowSpace:
    """Coefficient space of F0((Z x Z) & R), for comparison with the oracle."""
    column = {pair: i for i, pair in enumerate(ideal.relation.sorted_pairs())}
    space = ExactRowSpace(field, len(column))
    for pair in ideal.basis:
        space.add({column[pair]: field.one()})
    return space
