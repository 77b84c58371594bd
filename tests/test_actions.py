import copy
import itertools
import pickle
import random
import time

import pytest

from skewrel.actions import (Carrier, PartialAction, Relation, Violation, build_relation,
                             check_free, enumerate_invariant_subsets, equivalence_classes,
                             invariant_closure, validate_partial_action, verify_equivalence,
                             witness)
from skewrel.errors import PreconditionError, StructureError
from skewrel.fixtures import e1_action, e2_action
from skewrel.groups import GroupElement, GroupSpec
from skewrel.relalg import count_ideals

from helpers import group_elements
from test_groups import s3_table_from_permutations
from test_skew import cyclic_action


class StoredMaps:
    """X_t and h_t read straight off ``pa.pulls[t^-1]`` and ``pa.carrier``: the reference
    for the validator and for the ``pulls``/``domains`` tables."""

    def __init__(self, pa):
        self.pa = pa

    def subset(self, t):
        """X_t, the codomain of h_t, as a set of labels."""
        pa = self.pa
        if t == pa.group.identity():
            return set(pa.carrier)
        return set(pa.pulls.get(t.inverse(), {}).values())

    def apply(self, t, x):
        """h_t(x), for x in the domain of h_t."""
        pa = self.pa
        return x if t == pa.group.identity() else pa.pulls[t.inverse()][x]


def trivial_action(labels=("a", "b")) -> PartialAction:
    """The trivial group acting on the given labels: every point its own class."""
    return PartialAction(GroupSpec.cyclic(1), labels, {})


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
        ref = StoredMaps(pa)
        elems = group_elements(pa.group)
        for t, s in itertools.product(elems, repeat=2):
            lhs = {ref.apply(t, x) for x in ref.subset(t.inverse()) & ref.subset(s)}
            assert lhs == ref.subset(t) & ref.subset(t * s)
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

    def test_a_map_keyed_by_another_groups_element_is_refused(self):
        z2, z3 = GroupSpec.cyclic(2), GroupSpec.cyclic(3)
        with pytest.raises(StructureError, match="^map keyed by element of a different group$"):
            PartialAction(z2, ["a", "b"], {z3.element(1): {"a": "b"}})

    def test_the_callers_maps_are_copied(self):
        z3 = GroupSpec.cyclic(3)
        h = {"a": "b"}
        pa = PartialAction(z3, ["a", "b", "c"], {z3.element(1): h})
        pulls = copy.deepcopy(pa.pulls)
        h["c"] = "c"
        assert pa.pulls == pulls


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

    def test_pairs_must_stay_in_the_carrier(self):
        e = GroupSpec.cyclic(1).identity()
        with pytest.raises(StructureError, match=r"^pair \(z, z\) leaves the carrier$"):
            Relation(("a",), {("a", "a"): [e], ("z", "z"): [e]})

    @pytest.mark.parametrize("pair", [("a", "z"), ("z", "a")], ids=["second-off", "first-off"])
    def test_a_pair_with_one_point_off_the_carrier_is_refused(self, pair):
        e = GroupSpec.cyclic(1).identity()
        with pytest.raises(StructureError, match=r"^pair \(%s, %s\) leaves the carrier$" % pair):
            Relation(("a",), {("a", "a"): [e], pair: [e]})

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


def test_inverse_maps_are_pair_inverses():
    for pa in (e1_action(), e2_action()):
        for t in pa.listed():
            assert pa.pulls[t] == {y: x for x, y in pa.pulls[t.inverse()].items()}


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


def reference_report(pa, elems):
    """Reference: the domain check, then axioms (2) and (3) over every (t, s) of
    elems with no pair skipped, read straight off ``pa.pulls[t^-1]``; the violation
    texts as the validator renders them."""
    carrier, ref = list(pa.carrier), StoredMaps(pa)
    X, h = ref.subset, ref.apply

    def labels(xs):
        return ",".join(sorted(xs, key=carrier.index))

    found = []
    for t in sorted(pa.pulls.keys() - {pa.group.identity()}, key=GroupElement.sort_key):
        dom, expected = set(pa.pulls[t.inverse()]), X(t.inverse())
        if dom != expected:
            found.append(Violation(
                "domain", t, None, "domain of h_%s is %s but X_%s is %s (differ at {%s})"
                % (t, sorted(dom), t.inverse(), sorted(expected), labels(dom ^ expected))))
    if found:
        return [v.render() for v in found]
    for t, s in itertools.product(elems, repeat=2):
        ts = t * s
        lhs = {h(t, x) for x in X(t.inverse()) & X(s)}
        rhs = X(t) & X(ts)
        if lhs != rhs:
            found.append(Violation("2", t, s, "h_t(X_{t^-1} & X_s) = {%s} but X_t & X_{ts} = {%s}"
                                   % (labels(lhs), labels(rhs))))
        for x in sorted(X(s.inverse()) & X(ts.inverse()), key=carrier.index):
            y = h(s, x)
            if y not in X(t.inverse()):
                found.append(Violation("3", t, s, "h_s(%s)=%s escapes the domain of h_t" % (x, y)))
            elif h(t, y) != h(ts, x):
                found.append(Violation("3", t, s, "h_t(h_s(%s))=%s but h_{ts}(%s)=%s"
                                       % (x, h(t, y), x, h(ts, x))))
    return [v.render() for v in found]


def random_partial_action(rng, group):
    """A partial action on at most 4 points, often invalid.

    Half the time it is a restriction of the action of the group on itself by
    left multiplication, which is valid; otherwise random partial injections
    for some elements, with an explicit and usually inconsistent inverse now
    and then. The integers use the elements -4..4, and their restriction the
    points 0..4, so that every difference of two points is among them.
    """
    if group.kind == "integers":
        elements = [group.element(k) for k in range(-4, 5)]
        places = elements[4:]
    else:
        elements = places = group_elements(group)
    if rng.random() < 0.5:
        points = rng.sample(places, min(len(places), rng.randint(0, 4)))
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


def domino_action(rng):
    """A translation action of Z_n (n <= 64) cut to at most 8 points whose
    differences are all distinct, so each listed element moves one point and
    the labels lie far apart; an inverse entry is listed explicitly or not.
    Two times in three one entry is then dropped with its inverse, or sent to
    another point, which usually breaks the action.
    """
    n = rng.randint(2, 64)
    group = GroupSpec.cyclic(n)
    size, points, diffs = rng.randint(2, 8), [], set()
    for x in rng.sample(range(n), n):
        new = {(x - p) % n for p in points} | {(p - x) % n for p in points}
        if len(new) == 2 * len(points) and not new & diffs:
            points.append(x)
            diffs |= new
        if len(points) == size:
            break
    maps = {group.element(y - x): {str(x): str(y)}
            for x in points for y in points if x != y and (x < y or rng.random() < 0.5)}
    if maps and rng.random() < 2 / 3:
        t = rng.choice(sorted(maps, key=GroupElement.sort_key))
        if rng.random() < 0.5:
            maps.pop(t)
            maps.pop(t.inverse(), None)
        else:
            (x, y), = maps[t].items()
            maps[t] = {x: str(rng.choice([p for p in points if str(p) != y]))}
    return PartialAction(group, [str(x) for x in points], maps)


class TestCheckElements:
    def test_closure_set_matches_the_whole_group(self):
        rng = random.Random(5)
        names, table = s3_table_from_permutations()
        groups = [GroupSpec.cyclic(n) for n in range(1, 10)]
        groups.append(GroupSpec.from_table(names, "e", table))
        failing = 0
        for trial in range(1500):
            group = groups[trial % len(groups)]
            pa = random_partial_action(rng, group)
            got = validate_partial_action(pa).render()
            elements = sorted(group_elements(group), key=GroupElement.sort_key)
            assert got == reference_report(pa, elements)
            failing += bool(got)
        assert 200 < failing < 1300     # both valid and invalid actions were compared

    def test_integers_match_the_reference_over_a_window(self):
        # The closure set of listed elements up to m in absolute value lies
        # within |t| <= 2m; the reference checks every pair of that window.
        rng = random.Random(6)
        z = GroupSpec.integers()
        failing = 0
        for _ in range(600):
            pa = random_partial_action(rng, z)
            m = max((abs(t.payload) for t in pa.pulls), default=0)
            window = sorted(map(z.element, range(-2 * m, 2 * m + 1)), key=GroupElement.sort_key)
            got = validate_partial_action(pa).render()
            assert got == reference_report(pa, window)
            failing += bool(got)
        assert 100 < failing < 500      # both valid and invalid actions were compared

    def test_sparse_dominoes_match_the_whole_group(self):
        rng = random.Random(15)
        failing = 0
        for _ in range(200):
            pa = domino_action(rng)
            got = validate_partial_action(pa).render()
            elems = sorted(group_elements(pa.group), key=GroupElement.sort_key)
            assert got == reference_report(pa, elems)
            failing += bool(got)
        assert 50 < failing < 150       # both valid and invalid actions were compared

    def test_integers_use_the_closure_set(self):
        z = GroupSpec.integers()
        pa = PartialAction(z, ["1", "2", "3"], {z.element(1): {"1": "2", "2": "3"}})
        assert [t.payload for t in pa.check_elements()] == [0, -2, -1, 1, 2]


class TestTables:
    def test_tables_read_the_maps_of_every_valid_action(self):
        rng = random.Random(12)
        names, table = s3_table_from_permutations()
        groups = [GroupSpec.cyclic(n) for n in range(1, 10)]
        groups.append(GroupSpec.from_table(names, "e", table))
        valid = 0
        for trial in range(1500):
            pa = random_partial_action(rng, groups[trial % len(groups)])
            assert pa.listed() == sorted(pa.pulls.keys() - {pa.group.identity()},
                                         key=GroupElement.sort_key)
            assert list(pa.domains) == list(pa.pulls) == [pa.group.identity()] + pa.listed()
            if not validate_partial_action(pa).ok:
                continue
            valid += 1
            ref = StoredMaps(pa)
            for t in pa.check_elements():
                assert list(pa.domains.get(t, ())) == pa.carrier.sort(ref.subset(t))
                assert pa.pulls.get(t, {}) == {x: ref.apply(t.inverse(), x)
                                               for x in ref.subset(t)}
        assert valid > 200

    def test_incoherent_action_keeps_its_domain_violations(self):
        # The tables take X_1 as the domain of h_3; only the validator's own
        # reading of the stored maps finds that it is not the codomain of h_1.
        z4 = GroupSpec.cyclic(4)
        pa = PartialAction(z4, ["a", "b", "c"], {z4.element(1): {"a": "b", "c": "a"},
                                                 z4.element(3): {"a": "b"}})
        assert pa.domains[z4.element(1)] == ("a",)
        assert validate_partial_action(pa).render() == [
            "axiom domain at t=1: domain of h_1 is ['a', 'c'] but X_3 is ['b'] "
            "(differ at {a,b,c})",
            "axiom domain at t=3: domain of h_3 is ['a'] but X_1 is ['a', 'b'] (differ at {b})"]


def triple_scan_equivalence(rel):
    """Reference: reflexivity and symmetry pair by pair, then transitivity and,
    for a free relation, w(x, z) = w(y, z) w(x, y) over every
    composable (x, y), (y, z): O(|R|^2)."""
    for x in rel.carrier:
        if (x, x) not in rel.pairs:
            return False
    for (x, y) in rel.pairs:
        if (y, x) not in rel.pairs:
            return False
    check_witnesses = rel.is_free()
    for (x, y) in rel.pairs:
        for (y2, z) in rel.pairs:
            if y2 != y:
                continue
            if (x, z) not in rel.pairs:
                return False
            if check_witnesses:
                (t,) = rel.witnesses(x, y)
                (s,) = rel.witnesses(y, z)
                if rel.witnesses(x, z) != (s * t,):
                    return False
    return True


def random_valid_action(rng, group):
    """A restriction of a global action to random points, hence valid.

    A finite group acts on one to three copies of its left cosets of <h> for
    a random h, freely when h = e; the integers act on copies of themselves
    by translation.
    """
    if group.kind == "integers":
        elements = [group.element(k) for k in range(-8, 9)]
        cosets = [frozenset([group.element(k)]) for k in range(-4, 5)]
    else:
        elements = group_elements(group)
        h = rng.choice(elements)
        subgroup, power = {h.spec.identity()}, h
        while not power.is_identity():
            subgroup.add(power)
            power = power * h
        cosets = list({frozenset(g * k for k in subgroup) for g in elements})
    label = {(c, coset): "%d/%s" % (c, ",".join(sorted(map(str, coset))))
             for c in range(rng.randint(1, 3)) for coset in cosets}
    points = rng.sample(sorted(label, key=label.get), rng.randint(0, min(len(label), 12)))
    kept = set(points)
    maps = {}
    for t in elements:
        if not t.is_identity():
            moved = ((c, frozenset(t * g for g in coset)) for c, coset in points)
            maps[t] = {label[p]: label[q] for p, q in zip(points, moved) if q in kept}
    return PartialAction(group, [label[p] for p in points], maps)


def broken_relations(rng, rel):
    """Copies of rel with one defect each: a dropped pair whose mirror stays, a
    pair dropped with its mirror (a composite goes missing), a pair and its mirror
    added across two classes, and two pairs' witnesses swapped."""
    pairs = dict(rel.pairs)
    off = [p for p in pairs if p[0] != p[1]]
    out = []
    if off:
        x, y = rng.choice(off)
        out.append({p: w for p, w in pairs.items() if p != (x, y)})
        out.append({p: w for p, w in pairs.items() if p not in ((x, y), (y, x))})
    if len(rel.classes) > 1:
        b1, b2 = rng.sample(rel.classes, 2)
        x, y = rng.choice(b1), rng.choice(b2)
        t = rng.choice(list(itertools.chain(*pairs.values())))
        out.append(pairs | {(x, y): (t,), (y, x): (t.inverse(),)})
    if len(pairs) > 1:
        p, q = rng.sample(sorted(pairs), 2)
        out.append(pairs | {p: pairs[q], q: pairs[p]})
    return [Relation(rel.carrier, broken) for broken in out]


class TestClassIndex:
    def test_verify_equivalence_matches_the_triple_scan(self):
        rng = random.Random(8)
        names, table = s3_table_from_permutations()
        groups = [GroupSpec.cyclic(n) for n in range(1, 7)]
        groups += [GroupSpec.integers(), GroupSpec.from_table(names, "e", table)]
        seen = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
        for trial in range(400):
            pa = random_valid_action(rng, groups[trial % len(groups)])
            assert validate_partial_action(pa).ok
            rel = build_relation(pa)
            assert verify_equivalence(rel) and triple_scan_equivalence(rel)
            seen[True, rel.is_free()] += 1
            for broken in broken_relations(rng, rel):
                got = verify_equivalence(broken)
                assert got == triple_scan_equivalence(broken)
                seen[got, broken.is_free()] += 1
        assert min(seen.values()) > 50      # every verdict, free and not, was compared

    def test_a_bare_free_relation_with_two_witnesses_swapped_is_refused(self):
        # Built from its pairs alone, with no action: the witness check still runs.
        rel = build_relation(cyclic_action(3, 1))
        pairs = dict(rel.pairs)
        p, q = ("0.0", "0.1"), ("0.0", "0.2")           # witnesses 1 and 2
        swapped = Relation(rel.carrier, pairs | {p: pairs[q], q: pairs[p]})
        assert pairs[p] != pairs[q] and swapped.is_free()
        assert verify_equivalence(Relation(rel.carrier, pairs))
        assert not verify_equivalence(swapped)
        with pytest.raises(PreconditionError, match="^relation is not an equivalence relation$"):
            equivalence_classes(swapped)

    def test_readers_refuse_a_relation_that_is_not_an_equivalence(self):
        rng = random.Random(10)
        names, table = s3_table_from_permutations()
        groups = [GroupSpec.cyclic(4), GroupSpec.integers(),
                  GroupSpec.from_table(names, "e", table)]
        refused = 0
        for trial in range(150):
            rel = build_relation(random_valid_action(rng, groups[trial % len(groups)]))
            for broken in broken_relations(rng, rel):
                if triple_scan_equivalence(broken):
                    continue
                for reader in (equivalence_classes, enumerate_invariant_subsets, count_ideals):
                    with pytest.raises(PreconditionError,
                                       match="^relation is not an equivalence relation$"):
                        reader(broken)
                refused += 1
        assert refused > 100

    def test_readers_match_the_pair_scans(self):
        rng = random.Random(9)
        names, table = s3_table_from_permutations()
        groups = [GroupSpec.cyclic(4), GroupSpec.integers(),
                  GroupSpec.from_table(names, "e", table)]
        for trial in range(150):
            rel = build_relation(random_valid_action(rng, groups[trial % len(groups)]))
            carrier = list(rel.carrier)
            related = {x: [y for y in carrier if (x, y) in rel.pairs] for x in carrier}
            expected = []
            for x in carrier:
                if not any(x in block for block in expected):
                    expected.append(related[x])
            assert equivalence_classes(rel) == expected
            subset = set(rng.sample(carrier, rng.randint(0, len(carrier))))
            closure = {y for x in subset for y in related[x]}
            assert invariant_closure(rel, subset) == [x for x in carrier if x in closure]

    def test_verify_equivalence_is_linear(self):
        def best_of_3(rel):
            times = []
            for _ in range(3):
                start = time.process_time()
                assert verify_equivalence(rel)
                times.append(time.process_time() - start)
            return min(times)

        small = build_relation(cyclic_action(8, 10))        # |R| = 640
        large = build_relation(cyclic_action(8, 200))       # |R| = 12 800
        assert len(large.pairs) == 20 * len(small.pairs) == 12800
        assert best_of_3(large) <= 50 * best_of_3(small)
