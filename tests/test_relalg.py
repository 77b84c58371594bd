import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

from skewrel import actions, relalg
from skewrel.actions import PartialAction, build_relation, enumerate_invariant_subsets
from skewrel.documents import load_action
from skewrel.errors import NotFreeError, PreconditionError
from skewrel.fields import FieldSpec, PRIME_FIELD, RATIONALS, Scalar
from skewrel.fixtures import e1_action, e2_action, fixture_bundle
from skewrel.funalg import FunAlgElement, InducedAlgebraAction, accumulate
from skewrel.groups import GroupSpec
from skewrel.relalg import (ExactRowSpace, RelElement, RelIdeal, brute_force_ideal_span,
                            count_ideals, gamma, gamma_inv, ideal_closure_of,
                            ideal_membership, span_of_ideal)
from skewrel.selftest import random_rel, random_scalar, random_skew
from skewrel.skew import SkewElement
from strategies import draw_any
from test_skew import cyclic_action

Q = FieldSpec(RATIONALS)
F5 = FieldSpec(PRIME_FIELD, 5)


@pytest.fixture
def e1():
    return fixture_bundle(Q, e1_action())


@pytest.fixture
def e2():
    return fixture_bundle(Q, e2_action())


def non_free_action():
    z2 = GroupSpec.cyclic(2)
    return PartialAction(z2, ["a", "b", "c"],
                         {z2.element(1): {"a": "b", "b": "a", "c": "c"}})


def non_free_relation():
    return build_relation(non_free_action())


def three_class_action():
    """Z_2 swapping a <-> b and c <-> d; classes {a, b}, {c, d} and {e}."""
    z2 = GroupSpec.cyclic(2)
    return PartialAction(z2, ["a", "b", "c", "d", "e"],
                         {z2.element(1): {"a": "b", "b": "a", "c": "d", "d": "c"}})


def chain_action(m):
    """Z acting on q0..q<m-1> by the partial shifts h_t(q<i>) = q<i+t>; one class, |R| = m^2."""
    z = GroupSpec.integers()
    return PartialAction(z, ["q%d" % i for i in range(m)],
                         {z.element(t): {"q%d" % i: "q%d" % (i + t) for i in range(m - t)}
                          for t in range(1, m)})


def chain5_action():
    return chain_action(5)


def as_scalars(field, raw):
    """{key: Scalar} from {key: raw value}: the Scalar boundary of a kernel result."""
    return {key: Scalar(field, c) for key, c in raw.items()}


def dense_gauss_jordan(field, width, vectors):
    """Reference elimination on dense rows: (add results, reduced rows by pivot)."""
    zero = field.zero()
    rows, grew = [], []
    for vec in vectors:
        v = [vec.get(i, zero) for i in range(width)]
        for row in rows:
            c = v[next(i for i, b in enumerate(row) if not b.is_zero())]
            v = [a - c * b for a, b in zip(v, row)]
        nonzero = [i for i, c in enumerate(v) if not c.is_zero()]
        grew.append(bool(nonzero))
        if not nonzero:
            continue
        piv = nonzero[0]
        inv = v[piv].inverse()
        v = [inv * c for c in v]
        rows = [[a - row[piv] * b for a, b in zip(row, v)] for row in rows]
        rows.append(v)
    reduced = {}
    for row in rows:
        support = {i: c for i, c in enumerate(row) if not c.is_zero()}
        reduced[min(support)] = support
    return grew, reduced


def fixed_point_span(field, rel, generators):
    """Reference oracle: the closure loop run to its fixed point, with no stop rule."""
    column = {pair: i for i, pair in enumerate(rel.sorted_pairs())}
    space = ExactRowSpace(field, len(column))

    def grows(f):
        return space.add({column[p]: c for p, c in f.coeffs.items()})

    frontier = [g for g in generators if grows(g)]
    deltas = [RelElement.delta(field, rel, x, y) for (x, y) in column]
    while frontier:
        new_frontier = []
        for f in frontier:
            for d in deltas:
                for prod in (d * f, f * d):
                    if not prod.is_zero() and grows(prod):
                        new_frontier.append(prod)
        frontier = new_frontier
    return space


def oracle_cases(field, make_action):
    """(relation, generator lists): ones spanning all of F0(R), ones that do
    not, the empty list, and seeded random lists of one to three elements."""
    _, rel, _ = fixture_bundle(field, make_action())
    pairs = rel.sorted_pairs()
    classes = actions.equivalence_classes(rel)
    two = field.from_int(2)
    # One diagonal unit per class meets every class; dropping the last one does not.
    diagonal = [RelElement.delta(field, rel, block[0], block[0]) for block in classes]
    dense = RelElement(field, rel, {p: two for p in pairs})
    cases = [[], diagonal, [sum(diagonal[1:], diagonal[0])], [dense],
             diagonal[:-1], [RelElement.delta(field, rel, *pairs[-1])]]
    rng = random.Random(71)
    cases += [[random_rel(rng, field, rel) for _ in range(rng.randint(1, 3))]
              for _ in range(12)]
    return rel, cases


ORACLE_ACTIONS = [e1_action, e2_action, three_class_action, chain5_action]
ORACLE_IDS = ["E1", "E2", "three-class", "chain5"]


class Forbidden:
    """Stands in for an attribute the code under test must not read: any use fails."""

    def _fail(self, *_args, **_kwargs):
        raise AssertionError("the oracle consulted the R-classes")

    __getattr__ = __getitem__ = __iter__ = __len__ = __contains__ = __bool__ = _fail
    __eq__ = __hash__ = _fail


class TestConvolution:
    def test_pairs_outside_r_are_named_in_the_given_order(self, e1):
        _, rel, _ = e1
        one = Q.from_int(1)
        for coeffs, named in [({("a", "b"): one, ("a", "c"): one, ("c", "a"): one}, "a, c"),
                              ({("c", "a"): one, ("a", "c"): one}, "c, a")]:
            with pytest.raises(PreconditionError, match=r"^pair \(%s\) is not in R$" % named):
                RelElement(Q, rel, coeffs)

    def test_repr(self, e1):
        _, rel, _ = e1
        assert repr(RelElement.zero(Q, rel)) == "0"
        f = RelElement(Q, rel, {("c", "c"): Q.one(), ("a", "b"): Q.one()})
        assert repr(f) == "1·δ_(a,b) + 1·δ_(c,c)"

    def test_matching_middle(self, e1):
        _, rel, _ = e1
        f = RelElement.delta(Q, rel, "a", "b")
        g = RelElement.delta(Q, rel, "b", "a")
        assert f * g == RelElement.delta(Q, rel, "a", "a")

    def test_middle_mismatch_vanishes(self, e1):
        _, rel, _ = e1
        f = RelElement.delta(Q, rel, "a", "b")
        assert (f * f).is_zero()

    def test_matrix_unit_law_partial(self, e2):
        _, rel, _ = e2
        f = RelElement.delta(Q, rel, "2", "1")
        g = RelElement.delta(Q, rel, "1", "3")
        assert f * g == RelElement.delta(Q, rel, "2", "3")

    def test_matrix_unit_law_exhaustive(self, e2):
        # E2's relation is full, so F0(R) is the 3x3 matrix algebra
        _, rel, _ = e2
        points = rel.carrier
        for x, y, y2, z in itertools.product(points, repeat=4):
            prod = RelElement.delta(Q, rel, x, y) * RelElement.delta(Q, rel, y2, z)
            if y == y2:
                assert prod == RelElement.delta(Q, rel, x, z)
            else:
                assert prod.is_zero()

    def test_associativity_random(self, e2):
        _, rel, _ = e2
        rng = random.Random(21)
        for _ in range(100):
            f, g, l = (random_rel(rng, Q, rel) for _ in range(3))
            assert (f * g) * l == f * (g * l)

    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
    @pytest.mark.parametrize("make_action", [e1_action, e2_action, three_class_action],
                             ids=["E1", "E2", "three-classes"])
    def test_matches_definition_random(self, field, make_action):
        # (f * g)(x, z) = sum over y of f(x, y) g(y, z), from the plain dicts
        _, rel, _ = fixture_bundle(field, make_action())
        zero = field.zero()
        rng = random.Random(34)
        for _ in range(60):
            f, g = random_rel(rng, field, rel), random_rel(rng, field, rel)
            fs, gs = as_scalars(field, f.coeffs), as_scalars(field, g.coeffs)
            expected = {}
            for x, z in rel.pairs:
                total = zero
                for y in rel.carrier:
                    total = total + fs.get((x, y), zero) * gs.get((y, z), zero)
                if not total.is_zero():
                    expected[(x, z)] = total
            assert as_scalars(field, (f * g).coeffs) == expected

    def test_non_free_rejected(self):
        rel = non_free_relation()
        with pytest.raises(NotFreeError):
            RelElement.delta(Q, rel, "a", "b")

    def test_context_compared_by_value(self, e1, e2):
        _, rel, _ = e1
        twin = build_relation(e1_action())
        assert twin is not rel
        f = RelElement.delta(Q, rel, "a", "b")
        g = RelElement.delta(Q, twin, "b", "a")
        assert f * g == RelElement.delta(Q, twin, "a", "a")
        assert f - g == f + (-g)
        with pytest.raises(PreconditionError):
            f + RelElement.delta(Q, e2[1], "1", "1")
        with pytest.raises(PreconditionError):
            f * RelElement.delta(F5, rel, "b", "a")

    def test_pair_outside_relation_rejected(self, e1):
        _, rel, _ = e1
        with pytest.raises(PreconditionError):
            RelElement.delta(Q, rel, "a", "c")


class TestGamma:
    def test_monomial_image(self, e1):
        action, rel, alpha = e1
        g = action.group.element(1)
        u = SkewElement.monomial(alpha, "a", g)
        assert gamma(rel, u) == RelElement.delta(Q, rel, "a", "b")

    def test_identity_term_hits_diagonal(self, e1):
        action, rel, alpha = e1
        for x in action.carrier:
            u = SkewElement.monomial(alpha, x, action.identity)
            assert gamma(rel, u) == RelElement.delta(Q, rel, x, x)

    def test_e2_monomial(self, e2):
        action, rel, alpha = e2
        u = SkewElement.monomial(alpha, "2", action.group.element(1))
        assert gamma(rel, u) == RelElement.delta(Q, rel, "2", "1")

    def test_gamma_inv_examples(self, e1, e2):
        action2, rel2, alpha2 = e2
        f = RelElement.delta(Q, rel2, "1", "3")
        assert gamma_inv(alpha2, f) == SkewElement.monomial(
            alpha2, "1", action2.group.element(-2))
        action1, rel1, alpha1 = e1
        f = RelElement.delta(Q, rel1, "a", "b") + \
            RelElement.delta(Q, rel1, "c", "c").scale(Q.from_int(2))
        g = action1.group.element(1)
        expected = SkewElement.monomial(alpha1, "a", g) + \
            SkewElement.monomial(alpha1, "c", action1.identity).scale(Q.from_int(2))
        assert gamma_inv(alpha1, f) == expected

    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
    @pytest.mark.parametrize("make_action", [e1_action, e2_action], ids=["E1", "E2"])
    def test_isomorphism_laws_random(self, field, make_action):
        action, rel, alpha = fixture_bundle(field, make_action())
        rng = random.Random(33)
        for _ in range(100):
            u, v = random_skew(rng, alpha), random_skew(rng, alpha)
            assert gamma(rel, u + v) == gamma(rel, u) + gamma(rel, v)
            k = field.from_int(rng.randint(1, 3))
            assert gamma(rel, u.scale(k)) == gamma(rel, u).scale(k)
            assert gamma(rel, u * v) == gamma(rel, u) * gamma(rel, v)
            assert gamma_inv(alpha, gamma(rel, u)) == u
            f = random_rel(rng, field, rel)
            assert gamma(rel, gamma_inv(alpha, f)) == f

    def test_relation_of_another_action_names_the_first_pair_in_term_order(self, e2):
        action, _rel, alpha = e2
        diagonal = build_relation(PartialAction(GroupSpec.cyclic(1), action.carrier, {}))
        z = action.group
        q = {x: FunAlgElement.delta(Q, alpha.carrier, x) for x in alpha.carrier}
        # Stored as t = 2 before t = 1; term order meets (2, 1) before (3, 1).
        u = SkewElement(alpha, {z.element(2): q["3"], z.element(1): q["2"] + q["3"]})
        with pytest.raises(PreconditionError, match=r"^pair \(2, 1\) is not in R$"):
            gamma(diagonal, u)

    def test_gamma_inv_refuses_an_element_over_another_field(self, e1):
        action, rel, _alpha = e1
        f = RelElement.delta(Q, rel, "a", "b").scale(Q.parse("1/3"))
        with pytest.raises(PreconditionError, match="^scalars from different fields$"):
            gamma_inv(InducedAlgebraAction(F5, action), f)

    def test_gamma_inv_refuses_a_relation_of_another_action(self):
        # Z_3 rotates {a, b, c} one way in A and the other way in B: (a, b) has
        # witness 2 in R_B, and h_2(a) = c in A, so no u over A has Gamma(u) = f.
        z3, carrier = GroupSpec.cyclic(3), ["a", "b", "c"]
        rotate_a = PartialAction(z3, carrier, {z3.element(1): {"a": "b", "b": "c", "c": "a"}})
        rotate_b = PartialAction(z3, carrier, {z3.element(1): {"a": "c", "b": "a", "c": "b"}})
        f = RelElement.delta(Q, build_relation(rotate_b), "a", "b")
        with pytest.raises(PreconditionError,
                           match=r"^\(a, b\) is not \(x, h_2\(x\)\) in the action$"):
            gamma_inv(InducedAlgebraAction(Q, rotate_a), f)

    def test_non_free_rejected(self):
        pa = non_free_action()
        rel = build_relation(pa)
        alpha = InducedAlgebraAction(Q, pa, validate=False)
        u = SkewElement.zero(alpha)
        with pytest.raises(NotFreeError):
            gamma(rel, u)
        with pytest.raises(NotFreeError):
            gamma_inv(alpha, RelElement.zero(Q, rel))


class TestIdeals:
    def test_ideal_from_invariant_e1(self, e1):
        _, rel, _ = e1
        ideal = RelIdeal(rel, ["a", "b"])
        assert set(ideal.basis) == {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}
        assert ideal.dimension == 4
        assert RelIdeal(rel, []).dimension == 0
        assert RelIdeal(rel, ["c"]).basis == [("c", "c")]

    def test_non_invariant_rejected(self, e1):
        _, rel, _ = e1
        with pytest.raises(PreconditionError):
            RelIdeal(rel, ["a"])

    def test_unknown_label_rejected(self, e1):
        _, rel, _ = e1
        for members in (["zzz"], ["c", "zzz"]):
            with pytest.raises(PreconditionError, match="^zzz is not a carrier point$"):
                RelIdeal(rel, members)

    def test_span_closed_under_convolution(self, e1):
        _, rel, _ = e1
        ideal = RelIdeal(rel, ["a", "b"])
        basis = set(ideal.basis)
        for pair in ideal.basis:
            f = RelElement.delta(Q, rel, *pair)
            for (x, y) in rel.sorted_pairs():
                d = RelElement.delta(Q, rel, x, y)
                for prod in (d * f, f * d):
                    assert set(prod.coeffs) <= basis

    def test_closure_of_element(self, e1, e2):
        _, rel1, _ = e1
        assert ideal_closure_of(RelElement.delta(Q, rel1, "a", "b")) == ["a", "b"]
        assert ideal_closure_of(RelElement.zero(Q, rel1)) == []
        _, rel2, _ = e2
        assert ideal_closure_of(RelElement.delta(Q, rel2, "2", "2")) == ["1", "2", "3"]

    def test_membership(self, e1):
        _, rel, _ = e1
        ideal = RelIdeal(rel, ["a", "b"])
        assert ideal_membership(RelElement.delta(Q, rel, "a", "b"), ideal)
        assert not ideal_membership(RelElement.delta(Q, rel, "c", "c"), ideal)
        assert ideal_membership(RelElement.zero(Q, rel), ideal)

    def test_counts(self, e1, e2):
        assert count_ideals(e1[1]) == 4
        assert count_ideals(e2[1]) == 2
        trivial = PartialAction(GroupSpec.cyclic(1), ["p", "q", "r"], {})
        assert count_ideals(build_relation(trivial)) == 8


class TestExactRowSpace:
    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
    def test_matches_dense_gauss_jordan(self, field):
        rng = random.Random(89)
        for width in range(1, 13):
            for _ in range(10):
                vectors = [{col: field.zero() if rng.random() < 0.1
                            else random_scalar(rng, field)
                            for col in range(width) if rng.random() < 0.35}
                           for _ in range(rng.randint(1, 2 * width))]
                space = ExactRowSpace(field, width)
                grew = [space.add({col: c.value for col, c in vec.items()})
                        for vec in vectors]
                ref_grew, ref_rows = dense_gauss_jordan(field, width, vectors)
                assert grew == ref_grew
                assert space.dimension == len(ref_rows)
                assert {piv: as_scalars(field, row)
                        for piv, row in space.rows.items()} == ref_rows
                holders = {}
                for piv, row in space.rows.items():
                    for col in row:
                        holders.setdefault(col, set()).add(piv)
                assert {col: ps for col, ps in space.holders.items() if ps} == holders


class TestBruteForceSpan:
    def test_e1_generator(self, e1):
        _, rel, _ = e1
        span = brute_force_ideal_span(Q, rel, [RelElement.delta(Q, rel, "a", "b")])
        assert span.dimension == 4
        ideal = RelIdeal(rel, ["a", "b"])
        assert span == span_of_ideal(Q, ideal)

    def test_empty_generators(self, e1):
        _, rel, _ = e1
        assert brute_force_ideal_span(Q, rel, []).dimension == 0

    def test_e2_matrix_units_generate_everything(self, e2):
        _, rel, _ = e2
        span = brute_force_ideal_span(Q, rel, [RelElement.delta(Q, rel, "1", "1")])
        assert span.dimension == 9

    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
    @pytest.mark.parametrize("make_action", [e1_action, e2_action], ids=["E1", "E2"])
    def test_oracle_matches_classification(self, field, make_action):
        _, rel, _ = fixture_bundle(field, make_action())
        rng = random.Random(55)
        for _ in range(40):
            f = random_rel(rng, field, rel)
            if f.is_zero():
                continue
            oracle = brute_force_ideal_span(field, rel, [f])
            closed = span_of_ideal(field, RelIdeal(
                rel, ideal_closure_of(f)))
            assert oracle == closed

    def test_dense_generator_on_chain16_is_fast(self):
        _, rel, _ = fixture_bundle(Q, chain_action(16))
        rng = random.Random(16)
        g = RelElement(Q, rel, {p: random_scalar(rng, Q) for p in rel.sorted_pairs()})
        start = time.process_time()
        span = brute_force_ideal_span(Q, rel, [g])
        assert time.process_time() - start < 1.0
        assert span.dimension == span.width == 256

    def test_lattice_map_injective_and_monotone(self, e1):
        from skewrel.actions import enumerate_invariant_subsets
        _, rel, _ = e1
        subsets = enumerate_invariant_subsets(rel)
        ideals = [RelIdeal(rel, s) for s in subsets]
        bases = [set(i.basis) for i in ideals]
        assert len({frozenset(b) for b in bases}) == len(bases)
        for s1, b1 in zip(subsets, bases):
            for s2, b2 in zip(subsets, bases):
                if set(s1) <= set(s2):
                    assert b1 <= b2
        assert len(ideals) == count_ideals(rel)


class TestOracleStopRule:
    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
    @pytest.mark.parametrize("make_action", ORACLE_ACTIONS, ids=ORACLE_IDS)
    def test_matches_fixed_point_loop(self, field, make_action):
        rel, cases = oracle_cases(field, make_action)
        dimensions = set()
        for generators in cases:
            span = brute_force_ideal_span(field, rel, generators)
            assert span == fixed_point_span(field, rel, generators)
            dimensions.add(span.dimension)
        assert 0 in dimensions and len(rel.pairs) in dimensions
        assert len(dimensions) > 2 or len(actions.equivalence_classes(rel)) == 1

    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
    @pytest.mark.parametrize("make_action", ORACLE_ACTIONS, ids=ORACLE_IDS)
    def test_independent_of_classification(self, field, make_action, monkeypatch):
        rel, cases = oracle_cases(field, make_action)
        expected = [fixed_point_span(field, rel, generators) for generators in cases]

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the oracle consulted the classification")

        for module in (relalg, actions):
            for name in ("ideal_closure_of", "invariant_closure", "equivalence_classes"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        # The pair order is cached first; after that the R-classes themselves are
        # off limits, so the oracle can skip products only by the generators' supports.
        rel.sorted_pairs()
        monkeypatch.setattr(rel, "classes", Forbidden())
        monkeypatch.setattr(rel, "class_of", Forbidden())
        assert [brute_force_ideal_span(field, rel, generators)
                for generators in cases] == expected


class TestOracleIndexes:
    def test_cost_per_pair_is_flat_in_the_relation(self):
        def per_pair(k):
            _, rel, _ = fixture_bundle(Q, cyclic_action(8, k))
            g = random_rel(random.Random(1), Q, rel)
            times = []
            for _ in range(3):
                start = time.process_time()
                brute_force_ideal_span(Q, rel, [g])
                times.append(time.process_time() - start)
            return min(times) / len(rel.pairs)

        assert per_pair(100) < 2 * per_pair(25)


class TestSpanOfIdeal:
    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
    @pytest.mark.parametrize("make_action", ORACLE_ACTIONS, ids=ORACLE_IDS)
    def test_matches_unit_vectors_added_one_by_one(self, field, make_action):
        _, rel, _ = fixture_bundle(field, make_action())
        column = {pair: i for i, pair in enumerate(rel.sorted_pairs())}
        subsets = actions.enumerate_invariant_subsets(rel)
        assert len(subsets) == count_ideals(rel)
        for subset in subsets:
            ideal = RelIdeal(rel, subset)
            expected = ExactRowSpace(field, len(column))
            for pair in ideal.basis:
                expected.add({column[pair]: field.raw(1)})
            span = span_of_ideal(field, ideal)
            assert span == expected
            assert list(span.rows.items()) == list(expected.rows.items())
            assert span.holders == expected.holders


P = 2**31 - 1         # the prime of the oracle's certificate
GF_P = FieldSpec(PRIME_FIELD, P)


def recording_adds(monkeypatch) -> list:
    """[(row space, its dimension after the add)] for every ExactRowSpace.add from now on."""
    adds = []
    add = ExactRowSpace.add

    def recording(space, vec):
        grew = add(space, vec)
        adds.append((space, space.dimension))
        return grew

    monkeypatch.setattr(ExactRowSpace, "add", recording)
    return adds


class TestOracleCertificate:
    """The modular certificate against the exact fixed-point reference, and which
    path each call took: over GF(P) alone, exactly, or both."""

    @staticmethod
    def run(field, rel, generators, adds) -> set:
        """Checks the oracle on generators, handed over as an iterator, with the
        R-classes off limits; returns the fields of the row spaces it filled."""
        expected = fixed_point_span(field, rel, generators)
        classes, class_of = rel.classes, rel.class_of
        rel.classes, rel.class_of = Forbidden(), Forbidden()
        adds.clear()
        try:
            span = brute_force_ideal_span(field, rel, iter(generators))
        finally:
            rel.classes, rel.class_of = classes, class_of
        assert span == expected
        dimensions: dict = {}
        for space, dimension in adds:
            dimensions.setdefault(id(space), []).append(dimension)
        # Either pass stops at dimension |T|: no space takes a vector after reaching it.
        assert all(seen.count(expected.dimension) <= 1 for seen in dimensions.values())
        return {space.field for space, _ in adds}

    def test_matches_the_exact_path_on_generated_actions(self, monkeypatch):
        adds = recording_adds(monkeypatch)
        rng = random.Random(18)
        certified = 0
        for _ in range(200):
            pa = draw_any(rng, free_only=True).action
            for field in (Q, F5):
                rel = build_relation(pa)
                generators = [random_rel(rng, field, rel) for _ in range(rng.randint(1, 3))]
                nonzero = any(not g.is_zero() for g in generators)
                # Over Q every coefficient is a unit mod P, so the certificate decides.
                expected = {GF_P if field == Q else F5} if nonzero else set()
                assert self.run(field, rel, generators, adds) == expected
                certified += nonzero and field == Q
        assert certified > 100

    @pytest.mark.parametrize("make_action", ORACLE_ACTIONS, ids=ORACLE_IDS)
    def test_a_fresh_relation_keeps_its_classes_unread(self, make_action):
        """The pair order is not cached yet, and sorting it reads no class either."""
        rel = build_relation(make_action())
        classes, class_of = rel.classes, rel.class_of
        rel.classes, rel.class_of = Forbidden(), Forbidden()
        generators = [RelElement.delta(Q, rel, x, x) for x in rel.carrier[:2]]
        span = brute_force_ideal_span(Q, rel, generators)
        rel.classes, rel.class_of = classes, class_of
        assert span == fixed_point_span(Q, rel, generators)

    @pytest.mark.parametrize("value", [(P, 1), (2 * P, 3), (1, P), (3, 5 * P)],
                             ids=["P", "2P/3", "1/P", "3/5P"])
    @pytest.mark.parametrize("make_action", ORACLE_ACTIONS, ids=ORACLE_IDS)
    def test_a_coefficient_with_p_falls_back(self, value, make_action, monkeypatch):
        """A numerator divisible by P empties a class mod P, so the rank falls
        short of |T|; a denominator divisible by P has no reduction at all.
        Either way the exact passes decide."""
        adds = recording_adds(monkeypatch)
        rel = build_relation(make_action())
        scalar = Q.from_fraction(*value)
        rng = random.Random(19)
        for pair in rel.sorted_pairs():
            alone = RelElement(Q, rel, {pair: scalar})
            assert self.run(Q, rel, [alone], adds) == {Q}
            g = random_rel(rng, Q, rel)
            for generators in ([g + alone], [alone, g]):
                fields = self.run(Q, rel, generators, adds)
                if value[1] % P == 0:         # nothing to reduce: only the exact passes run
                    assert fields == {Q}


def reference_ideal_span(field, rel, generators):
    """The oracle as it was before it wrote unit products as shifted rows: the
    same two passes, stop rule and certificate, each product formed by
    convolution with a matrix unit built when a product first needs it."""
    relalg._require_free(rel)
    generators = list(generators)
    column = rel.column
    pairs = tuple(column)
    at = ({}, {})
    for k, pair in enumerate(pairs):
        for i in (0, 1):
            at[i].setdefault(pair[i], []).append(k)
    lefts = {pairs[k][0] for g in generators for y, _z in g.coeffs for k in at[1].get(y, ())}
    rights = {pairs[k][1] for g in generators for _y, z in g.coeffs for k in at[0].get(z, ())}
    cover = sorted(k for x in lefts for k in at[0][x] if pairs[k][1] in rights)

    def span(fld, gens):
        space = ExactRowSpace(fld, len(pairs))
        one, context, units = fld.raw(1), (fld, rel), {}

        def fills(products):
            for f in products:
                space.add({column[p]: c for p, c in f.coeffs.items()})
                if space.dimension == len(cover):
                    return True
            return False

        def units_meeting(f, i):
            ends = {p[1 - i] for p in f.coeffs}
            for k in sorted(k for y in ends for k in at[i].get(y, ())):
                if k not in units:
                    units[k] = RelElement._raw(context, {pairs[k]: one})
                yield units[k]

        if not fills(d * g for g in gens for d in units_meeting(g, 1)):
            left = [RelElement._raw(context, {pairs[col]: c for col, c in row.items()})
                    for row in space.rows.values()]
            fills(f * d for f in left for d in units_meeting(f, 0))
        return space

    if field.modulus is None and all(c.denominator % P for g in generators
                                     for c in g.coeffs.values()):
        reduced = [RelElement(GF_P, rel, {p: GF_P.from_fraction(c.numerator, c.denominator)
                                          for p, c in g.coeffs.items()})
                   for g in generators]
        if span(GF_P, reduced).dimension == len(cover):
            return ExactRowSpace.units(field, len(pairs), cover)
    return span(field, generators)


def with_p_numerators(field, rel, rng):
    """Generator lists holding a coefficient P or 2P/3, zero mod P: over Q the
    certificate falls short of |T| and the exact passes decide."""
    cases = []
    for value in ((P, 1), (2 * P, 3)):
        scalar = field.from_fraction(*value)
        for pair in rng.sample(rel.sorted_pairs(), min(3, len(rel.pairs))):
            alone = RelElement(field, rel, {pair: scalar})
            cases += [[alone], [alone + random_rel(rng, field, rel)]]
    return cases


class TestOracleMatchesTheReference:
    """The oracle against its convolution form, ``reference_ideal_span``: equal
    row spaces, the same rows added in the same order, and first-pass rows
    equal to the products delta_p * g."""

    @staticmethod
    def check(field, rel, generators, adds) -> set:
        """Checks one call; returns the fields of the row spaces it filled."""
        adds.clear()
        expected = reference_ideal_span(field, rel, generators)
        reference_rows = [(space.field, list(vec.items())) for space, vec in adds]
        adds.clear()
        span = brute_force_ideal_span(field, rel, generators)
        assert span == expected
        assert list(span.rows.items()) == list(expected.rows.items())
        # A wrong row can leave the span as it is, so the rows themselves must agree.
        assert [(space.field, list(vec.items())) for space, vec in adds] == reference_rows
        column, spaces = rel.column, {}
        for space, vec in adds:
            spaces.setdefault(id(space), (space.field, []))[1].append(vec)
        for fld, added in spaces.values():
            gens = generators if fld == field else [
                RelElement(fld, rel, {p: fld.from_fraction(c.numerator, c.denominator)
                                      for p, c in g.coeffs.items()}) for g in generators]
            products = [RelElement.delta(fld, rel, *q) * g for g in gens
                        for q in rel.sorted_pairs() if q[1] in {y for y, _ in g.coeffs}]
            firsts = [[(column[p], c) for p, c in d.coeffs.items()] for d in products]
            # The first pass stops at |T|; when it does not, the second pass follows.
            assert firsts[:len(added)] == [list(vec.items()) for vec in added[:len(firsts)]]
        return {fld for fld, _ in spaces.values()}

    @pytest.fixture
    def adds(self, monkeypatch) -> list:
        """[(row space, vector)] for every ExactRowSpace.add from now on."""
        adds, add = [], ExactRowSpace.add

        def recording(space, vec):
            adds.append((space, dict(vec)))
            return add(space, vec)

        monkeypatch.setattr(ExactRowSpace, "add", recording)
        return adds

    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
    @pytest.mark.parametrize("make_action", ORACLE_ACTIONS + [lambda: cyclic_action(8, 4)],
                             ids=ORACLE_IDS + ["cyc-8-4"])
    def test_spans_are_equal(self, field, make_action, adds):
        rel, cases = oracle_cases(field, make_action)
        if field == Q:
            cases += with_p_numerators(field, rel, random.Random(24))
        fields = set()
        for generators in cases:
            fields |= self.check(field, rel, generators, adds)
        assert fields == ({GF_P, Q} if field == Q else {F5})

    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
    def test_spans_are_equal_on_drawn_actions(self, field, adds):
        rng, fields = random.Random(24), set()
        for i in range(200):
            rel = build_relation(draw_any(rng, free_only=True).action)
            cases = [[random_rel(rng, field, rel) for _ in range(rng.randint(1, 3))]]
            if field == Q and i % 10 == 0 and rel.pairs:
                cases += with_p_numerators(field, rel, rng)
            for generators in cases:
                fields |= self.check(field, rel, generators, adds)
        assert fields == ({GF_P, Q} if field == Q else {F5})


# Runs the oracle on E2 in a fresh interpreter and prints every vector it hands
# to ExactRowSpace.add, entries in their dict order.
RECORD_ORACLE_ADDS = """
import json, random
from skewrel import relalg
from skewrel.fields import FieldSpec, PRIME_FIELD, RATIONALS
from skewrel.fixtures import e2_action, fixture_bundle
from skewrel.selftest import random_rel

added = []
add = relalg.ExactRowSpace.add

def record(self, vec):
    added.append([[col, str(c)] for col, c in vec.items()])
    return add(self, vec)

relalg.ExactRowSpace.add = record
rng = random.Random(7)
for field in (FieldSpec(RATIONALS), FieldSpec(PRIME_FIELD, 5)):
    _, rel, _ = fixture_bundle(field, e2_action())
    for pair in rel.sorted_pairs():
        relalg.brute_force_ideal_span(field, rel, [relalg.RelElement.delta(field, rel, *pair)])
    for _ in range(20):
        generators = [random_rel(rng, field, rel) for _ in range(rng.randint(1, 3))]
        relalg.brute_force_ideal_span(field, rel, generators)
print(json.dumps(added))
"""


def test_oracle_adds_the_same_vectors_under_any_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", RECORD_ORACLE_ADDS], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(done.stdout))
    assert len(runs[0]) > 100
    assert runs[0] == runs[1]


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def reference_gamma(rel, u):
    """Gamma as it was before it built the pairs once in term order: it added each
    term's values up in stored order, and on a pair outside R walked the terms a
    second time, in term order, to name the first one."""
    relalg._require_free(rel)
    out: dict = {}
    for t, a in u.coeffs.items():
        h = u.action.action.pulls.get(t, {})
        for x, c in a.coeffs.items():
            accumulate(out, (x, h[x]), c)
    if not out.keys() <= rel.pairs.keys():
        relalg._require_pairs(rel, {(x, u.action.action.pulls.get(t, {})[x]): c
                                    for t, a in u.sorted_terms() for x, c in a.coeffs.items()})
    return RelElement._raw((u.action.field, rel), out)


def reference_membership(g, ideal):
    """Membership as it was before it read the invariant subset: every pair of
    g's support in the materialised basis of the ideal."""
    if g.relation != ideal.relation:
        raise PreconditionError("element and ideal over different relations")
    basis = set(ideal.basis)
    return all(p in basis for p in g.coeffs)


def outcome(fn, *args):
    """fn(*args), or the text of the PreconditionError it raises."""
    try:
        return fn(*args)
    except PreconditionError as exc:
        return "error: %s" % exc


def reference_cases():
    """(name, action): the desk fixtures, cyc-8-12 and z3-six-classes."""
    files = [load_action(os.path.join(DATA, name + ".json"))[1]
             for name in ("cyc-8-12", "z3-six-classes")]
    return list(zip(["E1", "E2", "cyc-8-12", "z3-six-classes"],
                    [e1_action(), e2_action()] + files))


class TestGammaMatchesTheReference:
    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
    def test_images_are_equal(self, field):
        rng = random.Random(41)
        compared = 0
        for name, action in reference_cases():
            _action, rel, alpha = fixture_bundle(field, action)
            for _ in range(40 if name == "cyc-8-12" else 150):
                u = random_skew(rng, alpha)
                image = gamma(rel, u)
                assert image == reference_gamma(rel, u)
                assert image.support() == reference_gamma(rel, u).support()
                compared += not u.is_zero()
        assert compared > 250

    def test_a_relation_of_another_action_gives_the_same_error(self):
        # The other action keeps some listed elements of the first, so some
        # elements map into its relation and the others name a pair outside it.
        rng = random.Random(42)
        errors = images = 0
        for name, action in reference_cases():
            _action, rel, alpha = fixture_bundle(Q, action)
            for _ in range(30):
                kept = {t.inverse(): h for t, h in action.pulls.items()
                        if t != action.identity and rng.random() < 0.5}
                other = build_relation(PartialAction(action.group, action.carrier, kept))
                u = random_skew(rng, alpha)
                got = outcome(gamma, other, u)
                assert got == outcome(reference_gamma, other, u)
                errors += isinstance(got, str)
                images += not isinstance(got, str)
        assert errors > 30 and images > 10


class TestMembershipMatchesTheReference:
    def test_verdicts_are_equal(self):
        rng = random.Random(43)
        relations = [fixture_bundle(Q, action)[1] for _name, action in reference_cases()]
        relations += [build_relation(draw_any(rng, free_only=True).action) for _ in range(150)]
        compared = members = 0
        for rel in relations:
            subsets = enumerate_invariant_subsets(rel)
            for subset in rng.sample(subsets, min(8, len(subsets))):
                ideal = RelIdeal(rel, subset)
                inside = [p for p in rel.sorted_pairs() if p[0] in ideal.invariant]
                for _ in range(20):
                    # Mostly pairs of the ideal, now and then one pair of R outside it.
                    chosen = rng.sample(inside, rng.randint(0, len(inside)))
                    if rel.pairs and rng.random() < 0.4:
                        chosen.append(rng.choice(rel.sorted_pairs()))
                    g = RelElement._raw((Q, rel), {p: Q.raw(1) for p in chosen})
                    verdict = ideal_membership(g, ideal)
                    assert verdict == reference_membership(g, ideal)
                    compared += 1
                    members += verdict
        assert compared >= 5000 and 1000 < members < compared - 1000
