"""The equivalence-relation algebra F0(R) and its ideal theory.

F0(R) carries the convolution (f * g)(x, z) = sum_{y in [x]} f(x, y) g(y, z).
For free actions it is isomorphic to the skew ring via Gamma, which sends
f delta_t to the function supported on pairs (x, h_{t^-1}(x)) with value f(x).
Ideals are exactly the F0((Z x Z) & R) for R-invariant subsets Z. The
independent oracle computes the ideal A·G·A generated by a set G in two
passes of row reduction over the products with the matrix units of A, each
written as a shifted row of its factor. Both stop at dimension |T|, for T
the pairs R joins to the generators' supports; over Q a rank |T| modulo
2^31 - 1 certifies the answer (von zur Gathen-Gerhard, Modern Computer
Algebra, ch. 5). An element keeps the first-coordinate index ``by_first``
that convolution reads when it is a right factor, and convolution sums its
products through the field (``FieldSpec.add_products``); the oracle indexes
R's pairs by each coordinate once per call, and its row space indexes its
rows by ``Relation.column``.

F0(R) is built only over a free action: with multiple witnesses convolution
would double-count, a case the construction does not define. The checked
constructor of RelElement refuses a non-free R, and operations trust their
operands' relation; the oracle, which takes a bare relation, checks it.
"""

from __future__ import annotations

from collections import defaultdict

from .actions import Relation, invariant_closure, equivalence_classes
from .errors import NotFreeError, PreconditionError
from .fields import PRIME_FIELD, FieldSpec
from .funalg import FunAlgElement, InducedAlgebraAction, SparseSum
from .skew import SkewElement


_CERTIFICATE = FieldSpec(PRIME_FIELD, 2**31 - 1)      # the field of the oracle's certificate


def _require_free(rel: Relation):
    if not rel.is_free():
        raise NotFreeError("operation on F0(R) requires a free action")


def _require_pairs(rel: Relation, pairs: dict) -> Relation:
    """rel; raises NotFreeError unless R is free, PreconditionError naming a pair not in R."""
    _require_free(rel)
    if not pairs.keys() <= rel.pairs.keys():
        pair = next(p for p in pairs if p not in rel.pairs)
        raise PreconditionError("pair (%s, %s) is not in R" % pair)
    return rel


class RelElement(SparseSum):
    """Finite-support function R -> K, stored sparsely on pairs of R."""

    mismatch = "elements over different relations or fields"

    relation = property(lambda self: self.context[1])
    _checked = staticmethod(_require_pairs)

    @staticmethod
    def delta(field: FieldSpec, relation: Relation, x: str, y: str) -> "RelElement":
        return RelElement(field, relation, {(x, y): field.one()})

    def support(self):
        return sorted(self.coeffs, key=self.relation.column.__getitem__)

    @property
    def by_first(self) -> dict:
        """y -> [(z, f(y, z) as the field's factor)]: built on first use and kept in the
        instance dict, as elements are immutable."""
        if "by_first" not in self.__dict__:
            by_first = self.__dict__["by_first"] = {}
            for (y, z), d in self.field.factors(self.coeffs).items():
                by_first.setdefault(y, []).append((z, d))
        return self.__dict__["by_first"]

    def __mul__(self, other: "RelElement") -> "RelElement":
        """Convolution: match middle coordinates over stored support only."""
        self._check(other)
        field, by_first, out = self.field, other.by_first, {}
        left = field.factors(self.coeffs).items()
        field.add_products(out, (((x, z), c, d) for (x, y), c in left
                                 for z, d in by_first.get(y, ())))
        return self._raw(self.context, field.total(out))

    def __repr__(self):
        if self.is_zero():
            return "0"
        return " + ".join("%s·δ_(%s,%s)" % (self.coeffs[p], p[0], p[1])
                          for p in self.support())


def gamma(rel: Relation, u: SkewElement) -> RelElement:
    """The isomorphism F0(X) x G -> F0(R): f delta_t |-> value f(x) at (x, h_{t^-1}(x)),
    a re-indexing, as a free action sends distinct (t, x) to distinct pairs."""
    out: dict = {}
    for t, a in u.sorted_terms():              # an error names the first pair outside R
        h = u.action.action.pulls[t]           # h_{t^-1}, defined on X_t
        out.update(((x, h[x]), c) for x, c in a.coeffs.items())
    return RelElement._raw((u.action.field, _require_pairs(rel, out)), out)


def gamma_inv(alpha: InducedAlgebraAction, f: RelElement) -> SkewElement:
    """Inverse of gamma: coefficient at (x, y) with witness s feeds the term
    at t = s^-1 with f_t(x) = f(x, h_{t^-1}(x)). Each (x, y) must be
    (x, h_s(x)) in alpha's action, which is gamma(gamma_inv(f)) = f."""
    if f.field is not alpha.field:
        raise PreconditionError("scalars from different fields")
    rel, pulls = f.relation, alpha.action.pulls
    terms: dict = {}           # s -> (h_s, {x: f_{s^-1}(x)}); h_s is pulls[s^-1], on X_{s^-1}
    for (x, y), c in f.coeffs.items():
        s = rel.pairs[x, y][0]                     # the one witness, as R is free
        h, a = terms.get(s) or terms.setdefault(s, (pulls.get(s.inverse(), {}), {}))
        if h.get(x) != y:
            raise PreconditionError("(%s, %s) is not (x, h_%s(x)) in the action" % (x, y, s))
        a[x] = c               # x is in X_{s^-1}, and h_s(x) = y, so no x repeats
    context = (alpha.field, alpha.carrier)
    return SkewElement._raw((alpha.field, alpha), {s.inverse(): FunAlgElement._raw(context, a)
                                                   for s, (_h, a) in terms.items()})


class RelIdeal:
    """Ideal F0((Z x Z) & R) for an R-invariant subset Z."""

    def __init__(self, relation: Relation, invariant_members):
        members = set(invariant_members)
        self.relation = relation
        self.invariant = invariant_closure(relation, members)    # refuses unknown labels
        if len(self.invariant) != len(members):
            raise PreconditionError("subset is not R-invariant")
        # Z is a union of classes, so this is R's pair order restricted to Z x Z.
        classes, class_of = relation.classes, relation.class_of
        self.basis = [(x, y) for x in self.invariant for y in classes[class_of[x]]]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def ideal_closure_of(f: RelElement) -> list[str]:
    """Invariant subset generating the same ideal as f: the class closure of
    the first coordinates of its support."""
    firsts = {x for (x, _y) in f.coeffs}
    return invariant_closure(f.relation, firsts)


def count_ideals(rel: Relation) -> int:
    return 1 << len(equivalence_classes(rel))


def _subtract_multiple(vec: dict, c, row: dict):
    """vec -= c·row in place, unreduced."""
    for col, b in row.items():
        vec[col] = vec[col] - c * b if col in vec else -(c * b)


class ExactRowSpace:
    """Row space over K in reduced echelon form; exact arithmetic throughout.

    Vectors are sparse dicts {column: raw field value}. ``rows`` maps each
    pivot column to its row, whose pivot entry is one and which every other
    row is zero at; reduced echelon form is unique, so ``==`` compares spaces.
    ``holders`` maps a column to the pivots of the rows nonzero there. ``add``
    reads it only at a new pivot, so back-substitution visits only the rows
    it changes.
    """

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self.rows: dict[int, dict] = {}
        self.holders: defaultdict[int, set] = defaultdict(set)

    def add(self, vec: dict) -> bool:
        """Insert a sparse vector of raw values; returns True if the space grew."""
        field = self.field
        vec = dict(vec)
        # A row is zero at every other pivot, so the touched pivots are known up front.
        for piv in [col for col in vec if col in self.rows]:
            _subtract_multiple(vec, vec[piv], self.rows[piv])
        vec = field.reduce(vec)
        if not vec:
            return False
        piv = min(vec)
        if vec[piv] != 1:                        # a unit row is normalized already
            inv = field.inv(vec[piv])
            vec = field.reduce({col: inv * c for col, c in vec.items()})
        for p in self.holders.pop(piv, ()):      # back-substitute into the rows nonzero at piv
            row = self.rows[p]
            _subtract_multiple(row, row[piv], vec)
            self.rows[p] = row = field.reduce(row)
            for col in vec:                      # the row changed only at these columns
                if col in row:
                    self.holders[col].add(p)
                else:
                    self.holders[col].discard(p)
        self.rows[piv] = vec
        for col in vec:
            self.holders[col].add(piv)
        return True

    @classmethod
    def units(cls, field: FieldSpec, width: int, columns) -> "ExactRowSpace":
        """The span of the unit vectors at the given columns, rows in their order."""
        space, one = cls(field, width), field.raw(1)
        space.rows = {col: {col: one} for col in columns}
        space.holders.update((col, {col}) for col in columns)
        return space

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, ExactRowSpace)
                and self.field is other.field
                and self.width == other.width
                and self.rows == other.rows)


def brute_force_ideal_span(field: FieldSpec, rel: Relation, generators) -> ExactRowSpace:
    """Coefficient space of the ideal A·G·A generated by G in A = F0(R); the
    oracle for the ideal classification. A is unital (1 = sum of the
    delta_(x,x)), so two passes of row reduction suffice: the delta_p * g,
    then each basis row f times each delta_q. It never reads the R-classes,
    and it writes each product of a unit as a shifted row: delta_(x,y) * g is
    the row {(x, z): g(y, z)} and f * delta_(y,z) the row {(x, z): f(x, y)},
    indexed by ``column``. It skips zero products: it forms delta_(x,y) * g
    only for y a first coordinate of g and f * delta_(y,z) only for y a second
    one of f, found through an index of the pairs by each coordinate, built
    once per call. The ideal lies in the span of T, the (x, w) in R with
    (x, y) in R for a (y, z) in a generator's support (R is transitive, so
    (z, w) is in R too); either pass stops at dimension |T|. Over Q, unless
    a denominator is divisible by P = 2^31 - 1, the passes first run over
    GF(P) on the generators reduced mod P. Reduction is a ring map there, so
    it cannot raise the rank: rank |T| makes the answer the unit rows of T,
    and a shortfall (a numerator divisible by P) runs the exact passes."""
    _require_free(rel)
    generators = list(generators)          # read twice: for T and for the products
    if any(g.context != (field, rel) for g in generators):
        raise PreconditionError(RelElement.mismatch)
    column = rel.column
    pairs = tuple(column)
    at: tuple[dict, dict] = ({}, {})     # at[i][y]: the k with pairs[k][i] = y, ascending
    for k, pair in enumerate(pairs):
        for i in (0, 1):
            at[i].setdefault(pair[i], []).append(k)
    lefts = {pairs[k][0] for g in generators for y, _z in g.coeffs for k in at[1].get(y, ())}
    cover = sorted(k for x in lefts for k in at[0][x])    # T

    def span(fld, gens) -> ExactRowSpace:
        """The ideal of gens, each {pair: reduced nonzero value}, as rows over fld."""
        space = ExactRowSpace(fld, len(pairs))

        def fills(rows) -> bool:
            for row in rows:
                space.add(row)
                if space.dimension == len(cover):
                    return True
            return False

        def shifted(f: dict, i: int):
            # The products with the units delta_p with p[i] among f's coordinates 1 - i,
            # the only nonzero ones: delta_p * f for i = 1, f * delta_p for i = 0.
            by_end: dict = {}
            for p, c in f.items():
                by_end.setdefault(p[1 - i], []).append((p[i], c))
            for k in sorted(k for y in by_end for k in at[i].get(y, ())):
                y, w = pairs[k][i], pairs[k][1 - i]
                yield ({column[w, z]: c for z, c in by_end[y]} if i else
                       {column[x, w]: c for x, c in by_end[y]})

        if not fills(row for g in gens for row in shifted(g, 1)):
            # Copy the rows first: add() back-substitutes into them.
            left = [{pairs[col]: c for col, c in row.items()} for row in space.rows.values()]
            fills(row for f in left for row in shifted(f, 0))
        return space

    if field.modulus is None and all(c.denominator % _CERTIFICATE.modulus
                                     for g in generators for c in g.coeffs.values()):
        reduced = [_CERTIFICATE.reduce({p: _CERTIFICATE.raw(c.numerator, c.denominator)
                                        for p, c in g.coeffs.items()}) for g in generators]
        if span(_CERTIFICATE, reduced).dimension == len(cover):
            return ExactRowSpace.units(field, len(pairs), cover)
    return span(field, [g.coeffs for g in generators])


def span_of_ideal(field: FieldSpec, ideal: RelIdeal) -> ExactRowSpace:
    """Coefficient space of F0((Z x Z) & R), for comparison with the oracle."""
    column = ideal.relation.column
    return ExactRowSpace.units(field, len(column), [column[p] for p in ideal.basis])
