import copy
import itertools
import pickle
import random

import pytest

from skewrel.actions import (Carrier, PartialAction, Relation, build_relation, check_free,
                             enumerate_invariant_subsets, equivalence_classes,
                             invariant_closure, is_invariant,
                             validate_partial_action, verify_equivalence, witness)
from skewrel.errors import PreconditionError, StructureError
from skewrel.fixtures import e1_action, e2_action, trivial_action
from skewrel.groups import GroupElement, GroupSpec

from test_groups import s3_table_from_permutations


def e2_without_h2():
    z = GroupSpec.integers()
    return PartialAction(z, ["1", "2", "3"], {z.element(1): {"1": "2", "2": "3"}})


def e1_fixing_c():
    z2 = GroupSpec.cyclic(2)
    return PartialAction(z2, ["a", "b", "c"],
                         {z2.element(1): {"a": "b", "b": "a", "c": "c"}})


class TestValidation:
    def test_e1_ok_by_exhaustion(self):
        # oracle: check both axioms over all of Z2 x Z2 by hand here
        pa = e1_action()
        elems = pa.group.elements()
        for t, s in itertools.product(elems, repeat=2):
            lhs = {pa.apply(t, x) for x in pa.subset(t.inverse()) & pa.subset(s)}
            assert lhs == pa.subset(t) & pa.subset(t * s)
        assert validate_partial_action(pa).ok

    def test_e2_ok(self):
        assert validate_partial_action(e2_action()).ok

    def test_e2_mutant_fails_axiom_2(self):
        report = validate_partial_action(e2_without_h2())
        assert not report.ok
        assert any(v.axiom == "2" and str(v.t) == "1" and str(v.s) == "1"
                   for v in report.violations)
        hit = next(v for v in report.violations
                   if v.axiom == "2" and str(v.t) == "1" and str(v.s) == "1")
        assert "{3}" in hit.render() and "{}" in hit.render()

    def test_inconsistent_inverse_entries_fail(self):
        z4 = GroupSpec.cyclic(4)
        pa = PartialAction(z4, ["a", "b"], {
            z4.element(1): {"a": "b"},
            z4.element(3): {"a": "b"},   # should be b -> a
        })
        assert not validate_partial_action(pa).ok

    def test_structural_errors(self):
        z2 = GroupSpec.cyclic(2)
        with pytest.raises(StructureError):
            PartialAction(z2, ["a", "a"], {})
        with pytest.raises(StructureError):
            PartialAction(z2, ["a", "b"], {z2.element(1): {"a": "b", "b": "b"}})
        with pytest.raises(StructureError):
            PartialAction(z2, ["a"], {z2.element(1): {"a": "z"}})

    def test_empty_carrier(self):
        pa = PartialAction(GroupSpec.cyclic(2), [], {})
        assert validate_partial_action(pa).ok
        rel = build_relation(pa)
        assert rel.pairs == {}
        assert equivalence_classes(rel) == []
        assert enumerate_invariant_subsets(rel) == [[]]

    def test_explicit_identity_must_be_identity(self):
        z2 = GroupSpec.cyclic(2)
        PartialAction(z2, ["a", "b"], {z2.identity(): {"a": "a", "b": "b"}})
        with pytest.raises(StructureError):
            PartialAction(z2, ["a", "b"], {z2.identity(): {"a": "a"}})


class TestFreeness:
    def test_fixtures_free(self):
        assert check_free(e1_action()).free
        assert check_free(e2_action()).free
        assert check_free(trivial_action()).free

    def test_fixed_point_witness(self):
        rep = check_free(e1_fixing_c())
        assert not rep.free
        t, x = rep.counterexample
        assert (str(t), x) == ("1", "c")


class TestRelation:
    def test_e1_pairs(self):
        rel = build_relation(e1_action())
        got = {(x, y, str(rel.witnesses(x, y)[0])) for (x, y) in rel.pairs}
        assert got == {("a", "a", "0"), ("b", "b", "0"), ("c", "c", "0"),
                       ("a", "b", "1"), ("b", "a", "1")}

    def test_e2_pairs_witness_is_difference(self):
        rel = build_relation(e2_action())
        assert len(rel.pairs) == 9
        for x, y in itertools.product("123", repeat=2):
            (w,) = rel.witnesses(x, y)
            assert w.payload == int(y) - int(x)

    def test_trivial_diagonal(self):
        rel = build_relation(trivial_action(("a", "b", "c")))
        assert set(rel.pairs) == {(x, x) for x in "abc"}

    def test_verify_equivalence(self):
        assert verify_equivalence(build_relation(e1_action()))
        assert verify_equivalence(build_relation(e2_action()))
        broken = Relation(("a", "b"), {("a", "a"): [GroupSpec.cyclic(1).identity()],
                                       ("b", "b"): [GroupSpec.cyclic(1).identity()],
                                       ("a", "b"): [GroupSpec.cyclic(1).identity()]})
        assert not verify_equivalence(broken)

    def test_classes(self):
        assert equivalence_classes(build_relation(e1_action())) == [["a", "b"], ["c"]]
        assert equivalence_classes(build_relation(e2_action())) == [["1", "2", "3"]]
        assert equivalence_classes(build_relation(trivial_action(("x", "y")))) == [["x"], ["y"]]

    def test_witness(self):
        rel1 = build_relation(e1_action())
        assert str(witness(rel1, "a", "b")) == "1"
        assert witness(rel1, "c", "c").is_identity()
        rel2 = build_relation(e2_action())
        assert witness(rel2, "1", "3").payload == 2
        with pytest.raises(PreconditionError):
            witness(rel1, "a", "c")

    def test_witness_ambiguous_for_non_free(self):
        rel = build_relation(e1_fixing_c())
        with pytest.raises(PreconditionError, match="not free"):
            witness(rel, "c", "c")


class TestInvariantSubsets:
    def test_closure(self):
        rel1 = build_relation(e1_action())
        assert invariant_closure(rel1, {"a"}) == ["a", "b"]
        assert invariant_closure(rel1, set()) == []
        rel2 = build_relation(e2_action())
        assert invariant_closure(rel2, {"2"}) == ["1", "2", "3"]

    def test_closure_is_a_closure_operator(self):
        rel = build_relation(e1_action())
        points = list(rel.carrier)
        for mask in range(1 << len(points)):
            s = {points[i] for i in range(len(points)) if mask >> i & 1}
            closed = set(invariant_closure(rel, s))
            assert s <= closed                                    # extensive
            assert set(invariant_closure(rel, closed)) == closed  # idempotent
            for mask2 in range(1 << len(points)):
                s2 = {points[i] for i in range(len(points)) if mask2 >> i & 1}
                if s <= s2:                                       # monotone
                    assert closed <= set(invariant_closure(rel, s2))

    def test_enumeration(self):
        rel1 = build_relation(e1_action())
        assert enumerate_invariant_subsets(rel1) == [
            [], ["a", "b"], ["c"], ["a", "b", "c"]]
        rel2 = build_relation(e2_action())
        assert enumerate_invariant_subsets(rel2) == [[], ["1", "2", "3"]]
        assert len(enumerate_invariant_subsets(build_relation(trivial_action()))) == 4

    def test_count_matches_classes(self):
        for action in (e1_action(), e2_action(), trivial_action(("x", "y", "z"))):
            rel = build_relation(action)
            k = len(equivalence_classes(rel))
            assert len(enumerate_invariant_subsets(rel)) == 1 << k

    def test_is_invariant(self):
        rel = build_relation(e1_action())
        assert is_invariant(rel, {"a", "b"})
        assert not is_invariant(rel, {"a"})


def test_inverse_maps_are_pair_inverses():
    for pa in (e1_action(), e2_action()):
        for t in pa.listed():
            assert pa.maps[t.inverse()] == {y: x for x, y in pa.maps[t].items()}


class TestCarrier:
    def test_built_once(self):
        carrier = Carrier(["a", "b", "c"])
        assert Carrier(carrier) is carrier
        pa = PartialAction(GroupSpec.cyclic(2), carrier, {})
        assert pa.carrier is carrier
        assert build_relation(pa).carrier is carrier

    def test_is_the_tuple_of_its_labels(self):
        carrier = Carrier(["b", "a"])
        assert carrier == ("b", "a") and hash(carrier) == hash(("b", "a"))
        assert carrier.position == {"b": 0, "a": 1}
        assert carrier.sort({"a", "b"}) == ["b", "a"]
        with pytest.raises(StructureError):
            Carrier(["a", "b", "a"])

    def test_copy_and_pickle_keep_the_positions(self):
        carrier = Carrier(["x", "y"])
        for twin in (copy.copy(carrier), copy.deepcopy(carrier),
                     pickle.loads(pickle.dumps(carrier))):
            assert type(twin) is Carrier and twin == carrier
            assert twin.position == {"x": 0, "y": 1}


def full_group_report(pa):
    """Reference: validate over every element of a finite group."""
    pa.check_elements = lambda: sorted(pa.group.elements(), key=GroupElement.sort_key)
    return validate_partial_action(pa)


def random_partial_action(rng, group):
    """A partial action of a finite group on at most 4 points, often invalid.

    Half the time it is a restriction of the action of the group on itself by
    left multiplication, which is valid; otherwise random partial injections
    for some elements, with an explicit and usually inconsistent inverse now
    and then.
    """
    elements = group.elements()
    if rng.random() < 0.5:
        points = rng.sample(elements, min(len(elements), rng.randint(0, 4)))
        maps = {t: {str(x): str(t * x) for x in points if t * x in points}
                for t in elements if not t.is_identity()}
        return PartialAction(group, [str(x) for x in points], maps)
    points = ["p%d" % i for i in range(rng.randint(0, 4))]
    maps = {}
    for t in elements:
        if t.is_identity() or rng.random() < 0.5 or (t.inverse() in maps
                                                      and rng.random() < 0.8):
            continue
        domain = rng.sample(points, rng.randint(0, len(points)))
        maps[t] = dict(zip(domain, rng.sample(points, len(domain))))
    return PartialAction(group, points, maps)


class TestCheckElements:
    def test_closure_set_matches_the_whole_group(self):
        rng = random.Random(5)
        names, table = s3_table_from_permutations()
        groups = [GroupSpec.cyclic(n) for n in range(1, 10)]
        groups.append(GroupSpec.from_table(names, "e", table))
        failing = 0
        for trial in range(1500):
            pa = random_partial_action(rng, groups[trial % len(groups)])
            got = validate_partial_action(pa).render()
            assert got == full_group_report(pa).render()
            failing += bool(got)
        assert 200 < failing < 1300     # both valid and invalid actions were compared

    def test_integers_use_the_closure_set(self):
        z = GroupSpec.integers()
        pa = PartialAction(z, ["1", "2", "3"], {z.element(1): {"1": "2", "2": "3"}})
        assert [t.payload for t in pa.check_elements()] == [0, -2, -1, 1, 2]
