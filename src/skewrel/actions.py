"""Partial actions of a group on a finite set.

A partial action assigns to each group element t a subset X_t of the carrier
and a bijection h_t from X_{t^-1} onto X_t, subject to three axioms:

  (1) X_e is the whole carrier and h_e is the identity;
  (2) h_t(X_{t^-1} & X_s) = X_t & X_{ts};
  (3) h_t(h_s(x)) = h_{ts}(x) for x in X_{s^-1} & X_{s^-1 t^-1}.

Axiom (1) is unforgeable here: h_e is implicit and always the full identity.
A document gives h_t as pairs (x, h_t(x)); an inverse entry h_{t^-1} is
synthesized when missing. Unlisted group elements have empty X_t.

An action keeps two tables, built once for e and each listed t, and is read
only through them: ``pulls[t]``, h_{t^-1} as a dict on X_t (so h_t is
``pulls[t^-1]``), and ``domains[t]``, X_t in carrier order. The validator keys
``pulls`` by inverse, as only a coherent action has X_t = h_t(X_{t^-1}).

From a validated action we build the equivalence relation R of pairs
(x, h_t(x)), each pair carrying its group witnesses. For free actions the
witness is unique, which is what the relation-algebra layer relies on. The
R-classes and ``Relation.column``, the pairs in carrier order, are computed
once per relation; checking that R is an equivalence relation takes O(|R|).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import PreconditionError, StructureError
from .groups import GroupElement, GroupSpec


class Carrier(tuple):
    """An ordered finite set of labels with its label -> position map.

    A Carrier equals, and hashes as, the plain tuple of its labels. The map is
    built once: ``Carrier(c)`` returns ``c`` itself when it already is one, so
    the action, its relation and every element over them share it.
    """

    def __new__(cls, labels):
        if isinstance(labels, Carrier):
            return labels
        self = super().__new__(cls, labels)
        self.position = {x: i for i, x in enumerate(self)}
        if len(self.position) != len(self):
            raise StructureError("duplicate labels in carrier")
        return self

    def sort(self, labels) -> list:
        """The labels in carrier order; each must be a carrier point."""
        return sorted(labels, key=self.position.__getitem__)

    def require(self, labels):
        """Raise PreconditionError unless every label is a carrier point."""
        for x in labels:
            if x not in self.position:
                raise PreconditionError("%s is not a carrier point" % x)


class PartialAction:
    """Group, ordered finite carrier, and the family of partial bijections."""

    def __init__(self, group: GroupSpec, carrier, maps):
        """maps: {GroupElement t: {x label: h_t(x) label}}; e may be omitted."""
        self.group = group
        self.carrier = Carrier(carrier)
        position = self.carrier.position

        e = group.identity()
        normalized: dict[GroupElement, dict[str, str]] = {}
        for t, pairs in maps.items():
            if t.spec is not group:
                raise StructureError("map keyed by element of a different group")
            pairs = dict(pairs)
            for x, y in pairs.items():
                if x not in position or y not in position:
                    raise StructureError("pair (%s, %s) leaves the carrier" % (x, y))
            if len(set(pairs.values())) != len(pairs):
                raise StructureError("h_%s is not injective" % t)
            if t == e:
                if pairs != {x: x for x in self.carrier}:
                    raise StructureError("h_e must be the identity on the whole carrier")
                continue
            if pairs:
                normalized[t] = pairs
        # Synthesize missing inverse entries; explicit ones are kept as given
        # so the validator can catch inconsistent documents.
        for t in list(normalized):
            ti = t.inverse()
            if ti not in normalized:
                normalized[ti] = {y: x for x, y in normalized[t].items()}
        # h_{t^-1}, keyed by t, and X_t: e first, then the listed t in order.
        self.pulls = {e: {x: x for x in self.carrier}}
        for t in sorted(normalized, key=GroupElement.sort_key):
            self.pulls[t] = normalized[t.inverse()]
        self.domains = {t: tuple(self.carrier.sort(h)) for t, h in self.pulls.items()}

    def listed(self):
        """Non-identity elements with nonempty maps, in deterministic order."""
        return list(self.domains)[1:]

    def check_elements(self):
        """Group elements over which the axioms are verified: the closure set
        {t^-1 u : t, u in S+{e}} over the listed elements S, for every group.

        It holds S+{e}, and for any (t, s) outside it, axioms (2) and (3)
        compare only empty sets, since X_t and X_{ts} cannot both be nonempty
        there, nor X_{s^-1} and X_{(ts)^-1}.
        """
        base = self.pulls.keys()
        return sorted({t.inverse() * u for t in base for u in base},
                      key=GroupElement.sort_key)

    def __eq__(self, other):
        return (isinstance(other, PartialAction)
                and self.group is other.group
                and self.carrier == other.carrier
                and self.pulls == other.pulls)

    def __repr__(self):
        return "PartialAction(%s points, %d maps)" % (len(self.carrier), len(self.pulls) - 1)


class Violation(namedtuple("Violation", "axiom t s witness")):
    """axiom is "domain", "2" or "3"; s is None for a domain violation."""

    __slots__ = ()

    def render(self) -> str:
        at = "t=%s" % self.t if self.s is None else "(t,s)=(%s,%s)" % (self.t, self.s)
        return "axiom %s at %s: %s" % (self.axiom, at, self.witness)


class ValidationReport:
    def __init__(self):
        self.violations: list[Violation] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> list[str]:
        return [v.render() for v in self.violations]


def validate_partial_action(pa: PartialAction) -> ValidationReport:
    """Check axioms (2) and (3) over the relevant elements; (1) is structural."""
    maps = {t.inverse(): h for t, h in pa.pulls.items()}     # h_u, for e and the listed u

    def subset(u):          # X_u, the codomain of h_u, as a set of labels
        return set(maps.get(u, {}).values())

    report = ValidationReport()

    # Coherence of the stored family: the domain of h_t must be X_{t^-1}.
    for t in pa.listed():
        dom = set(maps[t])
        expected = subset(t.inverse())
        if dom != expected:
            diff = pa.carrier.sort(dom ^ expected)
            report.violations.append(Violation(
                "domain", t, None,
                "domain of h_%s is %s but X_%s is %s (differ at {%s})"
                % (t, sorted(dom), t.inverse(), sorted(expected), ",".join(diff))))
    if report.violations:
        return report

    # Each side of (2) and (3) meets two domains, so a pair reports only if some y is in both:
    # for a, b in D(y) = {u : y in X_u}, it is (a^-1, b), (a, a^-1 b) or (b^-1 a, a^-1).
    at: dict[str, set] = {}                                 # y -> D(y)
    for u, h in maps.items():
        for y in h.values():
            at.setdefault(y, set()).add(u)
    partners: dict[GroupElement, set] = {}      # each distinct D(y), and each (a, b), once
    for a, b in {(a, b) for d in set(map(frozenset, at.values())) for a in d for b in d}:
        partners.setdefault(a.inverse(), set()).add(b)
        partners.setdefault(a, set()).add(a.inverse() * b)
        partners.setdefault(b.inverse() * a, set()).add(a.inverse())
    for t in sorted(partners, key=GroupElement.sort_key):
        x_t = subset(t)
        x_tinv = subset(t.inverse())
        for s in sorted(partners[t], key=GroupElement.sort_key):
            ts = t * s
            x_s = subset(s)
            # (2) h_t(X_{t^-1} & X_s) = X_t & X_{ts}
            lhs = {maps[t][x] for x in x_tinv & x_s}
            rhs = x_t & subset(ts)
            if lhs != rhs:
                report.violations.append(Violation(
                    "2", t, s,
                    "h_t(X_{t^-1} & X_s) = {%s} but X_t & X_{ts} = {%s}"
                    % (",".join(pa.carrier.sort(lhs)), ",".join(pa.carrier.sort(rhs)))))
            # (3) h_t(h_s(x)) = h_{ts}(x) on X_{s^-1} & X_{(ts)^-1}
            for x in pa.carrier.sort(subset(s.inverse()) & subset(ts.inverse())):
                y = maps[s][x]
                if y not in subset(t.inverse()):
                    report.violations.append(Violation(
                        "3", t, s, "h_s(%s)=%s escapes the domain of h_t" % (x, y)))
                    continue
                if maps[t][y] != maps[ts][x]:
                    report.violations.append(Violation(
                        "3", t, s,
                        "h_t(h_s(%s))=%s but h_{ts}(%s)=%s"
                        % (x, maps[t][y], x, maps[ts][x])))
    return report


FreenessReport = namedtuple("FreenessReport", "free counterexample", defaults=(None,))


def check_free(pa: PartialAction) -> FreenessReport:
    """Free means h_t(x) = x forces t = e."""
    for t in pa.listed():                      # h_{t^-1} fixes x exactly when h_t does
        for x in pa.domains[t]:
            if pa.pulls[t][x] == x:
                return FreenessReport(False, (t, x))
    return FreenessReport(True)


class Relation:
    """The equivalence relation R = {(x, h_t(x))} with per-pair witnesses."""

    def __init__(self, carrier, pairs):
        """pairs: {(x, y): iterable of GroupElement witnesses}."""
        self.carrier = Carrier(carrier)
        self.pairs = {
            key: tuple(sorted(set(wits), key=GroupElement.sort_key))
            for key, wits in pairs.items()
        }
        self._free = all(len(w) == 1 for w in self.pairs.values())
        # Union-find over the pairs: the classes, ordered by least member with
        # members in carrier order, and each point's class index. They are the
        # components of the pairs, so the R-classes when R is an equivalence.
        parent = {x: x for x in self.carrier}

        def root(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for x, y in self.pairs:
            if x not in parent or y not in parent:
                raise StructureError("pair (%s, %s) leaves the carrier" % (x, y))
            parent[root(x)] = root(y)
        by_root: dict[str, list[str]] = {}
        for x in self.carrier:
            by_root.setdefault(root(x), []).append(x)
        self.classes = tuple(tuple(block) for block in by_root.values())
        self.class_of = {x: i for i, block in enumerate(self.classes) for x in block}

    @cached_property
    def column(self) -> dict:
        """pair -> its index in carrier order of (x, y), R's one pair order: sorted once."""
        at = self.carrier.position
        pairs = sorted(self.pairs, key=lambda p: (at[p[0]], at[p[1]]))
        return {pair: i for i, pair in enumerate(pairs)}

    def sorted_pairs(self) -> tuple:
        return tuple(self.column)          # the pairs in carrier order of (x, y)

    def witnesses(self, x: str, y: str):
        return self.pairs.get((x, y), ())

    def is_free(self) -> bool:
        return self._free

    def __eq__(self, other):
        return (isinstance(other, Relation)
                and self.carrier == other.carrier
                and self.pairs == other.pairs)

    def __repr__(self):
        return "Relation(%d pairs on %d points)" % (len(self.pairs), len(self.carrier))


def build_relation(pa: PartialAction) -> Relation:
    """All pairs (x, h_t(x)) over e and the listed t: (x, h_{t^-1}(x)) has witness t^-1."""
    pairs: dict[tuple[str, str], list[GroupElement]] = {}
    for t, h in pa.pulls.items():
        ti = t.inverse()
        for x, y in h.items():
            pairs.setdefault((x, y), []).append(ti)
    return Relation(pa.carrier, pairs)


def verify_equivalence(rel: Relation) -> bool:
    """Reflexive, symmetric and transitive on the (x, y) projection, in O(|R|).

    Every pair lies inside one of ``rel.classes``, so R is the union of the
    C x C exactly when |R| = sum |C|^2. For a free R it also checks each
    witness against the least point r of its class, w(x, y) = w(r, y) w(r, x)^-1:
    the same as w(x, z) = w(y, z) w(x, y) over all composable pairs, the argument
    that transitivity follows from axiom (3) (put x = r there to get it back).
    """
    if len(rel.pairs) != sum(len(block) ** 2 for block in rel.classes):
        return False
    if not rel.is_free():
        return True
    from_root = {x: rel.pairs[block[0], x][0] for block in rel.classes for x in block}
    to_root = {x: t.inverse() for x, t in from_root.items()}
    return all(w == from_root[y] * to_root[x] for (x, y), (w,) in rel.pairs.items())


def equivalence_classes(rel: Relation) -> list[list[str]]:
    """R-classes as lists in carrier order, ordered by least member."""
    if not verify_equivalence(rel):
        raise PreconditionError("relation is not an equivalence relation")
    return [list(block) for block in rel.classes]


def invariant_closure(rel: Relation, subset) -> list[str]:
    """Least R-invariant superset: union of classes meeting the subset."""
    subset = set(subset)
    rel.carrier.require(subset)
    touched = {rel.class_of[x] for x in subset}
    return rel.carrier.sort(y for i in touched for y in rel.classes[i])


def enumerate_invariant_subsets(rel: Relation) -> list[list[str]]:
    """All 2^k unions of classes, in subset order on class index sets."""
    k = len(equivalence_classes(rel))
    class_of = rel.class_of
    return [[x for x in rel.carrier if mask >> class_of[x] & 1] for mask in range(1 << k)]


def witness(rel: Relation, x: str, y: str) -> GroupElement:
    """The unique t with h_t(x) = y; free actions only."""
    wits = rel.witnesses(x, y)
    if not wits:
        raise PreconditionError("(%s, %s) is not in R" % (x, y))
    if len(wits) > 1 or not rel.is_free():
        raise PreconditionError("witness is ambiguous: the action is not free")
    return wits[0]
