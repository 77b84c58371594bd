import itertools
import random
import time

import pytest

from skewrel.actions import Carrier, PartialAction, validate_partial_action
from skewrel.errors import PreconditionError, StructureError
from skewrel.fields import FieldSpec, PRIME_FIELD, RATIONALS, Scalar
from skewrel.fixtures import e1_action, e2_action
from skewrel.funalg import (FunAlgElement, InducedAlgebraAction, LinearMapOnBasis,
                            bijection_from_isomorphism, classify_linear_functional,
                            psi_from_bijection, recover_set_action, subset_of_ideal)
from skewrel.groups import GroupSpec

from test_actions import StoredMaps, e2_without_h2, random_valid_action
from test_groups import s3_table_from_permutations
from test_skew import cyclic_action

Q = FieldSpec(RATIONALS)
F5 = FieldSpec(PRIME_FIELD, 5)
XYZ = ("a", "b", "c")


def delta(x, field=Q, carrier=XYZ):
    return FunAlgElement.delta(field, carrier, x)


class TestArithmetic:
    def test_disjoint_supports_annihilate(self):
        assert (delta("a") * delta("b")).is_zero()

    def test_idempotent_basis(self):
        assert delta("a") * delta("a") == delta("a")

    def test_add_canonicalizes(self):
        f = delta("a").scale(Q.from_int(2)) + delta("c")
        g = delta("a").scale(Q.from_int(3))
        total = f + g
        assert total == delta("a").scale(Q.from_int(5)) + delta("c")
        assert (f - f).is_zero()
        assert (f - f).coeffs == {}

    def test_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            delta("a") + delta("a", carrier=("a", "b"))
        with pytest.raises(PreconditionError):
            delta("a") * delta("a", field=F5)


class TestClassification:
    def test_evaluation(self):
        values = {"a": Q.one(), "b": Q.zero(), "c": Q.zero()}
        cls = classify_linear_functional(Q, XYZ, values)
        assert cls.verdict == "evaluation" and cls.point == "a"

    def test_constant_one_not_multiplicative(self):
        values = {x: Q.one() for x in XYZ}
        cls = classify_linear_functional(Q, XYZ, values)
        assert cls.verdict == "not-multiplicative"
        assert cls.pair_witness == ("a", "b")

    def test_non_idempotent_value(self):
        values = {"a": Q.from_int(2), "b": Q.zero(), "c": Q.zero()}
        cls = classify_linear_functional(Q, XYZ, values)
        assert cls.verdict == "not-multiplicative"
        assert cls.idem_witness == "a"

    def test_zero(self):
        assert classify_linear_functional(
            Q, XYZ, {x: Q.zero() for x in XYZ}).verdict == "zero"

    def test_label_outside_the_carrier_rejected(self):
        with pytest.raises(PreconditionError, match="^z is not a carrier point$"):
            classify_linear_functional(Q, ("a", "b"), {"z": Q.one()})

    def test_values_over_another_field_rejected(self):
        # GF(5) values are not a functional over Q, even where they read as eps_a.
        values = {"a": F5.one(), "b": F5.zero(), "c": F5.zero()}
        with pytest.raises(PreconditionError, match="^scalars from different fields$"):
            classify_linear_functional(Q, XYZ, values)

    def test_random_functionals_never_evaluations(self):
        rng = random.Random(7)
        evaluations = 0
        for _ in range(50):
            values = {x: Q.from_int(rng.randint(-2, 2)) for x in XYZ}
            cls = classify_linear_functional(Q, XYZ, values)
            if cls.verdict == "evaluation":
                evaluations += 1
                assert [values[x] == Q.one() for x in XYZ].count(True) == 1
                assert sum(0 if values[x].is_zero() else 1 for x in XYZ) == 1
        # the classifier is exhaustive: every trial lands in one verdict
        assert evaluations <= 50


class TestPsi:
    def test_identity(self):
        h = {x: x for x in XYZ}
        psi = psi_from_bijection(Q, h, XYZ, XYZ)
        f = delta("a") + delta("c").scale(Q.from_int(3))
        assert psi.apply(f) == f

    def test_swap_sends_delta_a_to_delta_b(self):
        h = {"a": "b", "b": "a", "c": "c"}
        psi = psi_from_bijection(Q, h, XYZ, XYZ)
        assert psi.apply(delta("a")) == delta("b")

    def test_contravariant_on_composition(self):
        for p, q in itertools.product(itertools.permutations(XYZ), repeat=2):
            h = dict(zip(XYZ, p))
            g = dict(zip(XYZ, q))
            gh = {x: g[h[x]] for x in XYZ}
            psi_h = psi_from_bijection(Q, h, XYZ, XYZ)
            psi_g = psi_from_bijection(Q, g, XYZ, XYZ)
            psi_gh = psi_from_bijection(Q, gh, XYZ, XYZ)
            for x in XYZ:
                f = delta(x)
                assert psi_h.apply(psi_g.apply(f)) == psi_gh.apply(f)

    def test_multiplicative(self):
        h = {"a": "b", "b": "c", "c": "a"}
        psi = psi_from_bijection(Q, h, XYZ, XYZ)
        f = delta("a") + delta("b").scale(Q.from_int(2))
        g = delta("b").scale(Q.from_int(3))
        assert psi.apply(f * g) == psi.apply(f) * psi.apply(g)

    def test_not_bijective_rejected(self):
        with pytest.raises(PreconditionError):
            psi_from_bijection(Q, {"a": "b", "b": "b", "c": "c"}, XYZ, XYZ)

    @pytest.mark.parametrize("h, source", [
        ({"a": "a", "b": "b"}, ("a", "b")),             # not defined on all of X
        ({"a": "a", "b": "b", "c": "d"}, XYZ),          # onto a set other than Y
        ({"a": "a", "b": "a", "c": "b"}, ("a", "b")),   # onto Y, but not injective
    ], ids=["domain", "image", "injective"])
    def test_each_condition_refuses_alone(self, h, source):
        with pytest.raises(PreconditionError, match="^h is not a bijection between the carriers$"):
            psi_from_bijection(Q, h, source, XYZ)


class TestLinearMapOnBasis:
    def test_missing_column_rejected(self):
        with pytest.raises(PreconditionError, match="^no column for b$"):
            LinearMapOnBasis(Q, XYZ, XYZ, {"a": delta("a"), "c": delta("c")})

    def test_column_off_the_source_rejected(self):
        columns = {x: delta(x) for x in XYZ}
        with pytest.raises(PreconditionError, match="^a column lies off the source$"):
            LinearMapOnBasis(Q, ("a", "b"), XYZ, columns)


class TestBijectionRecovery:
    def test_identity(self):
        psi = psi_from_bijection(Q, {x: x for x in XYZ}, XYZ, XYZ)
        assert bijection_from_isomorphism(psi) == {x: x for x in XYZ}

    def test_swap(self):
        columns = {"a": delta("b"), "b": delta("a"), "c": delta("c")}
        gamma = LinearMapOnBasis(Q, XYZ, XYZ, columns)
        assert bijection_from_isomorphism(gamma) == {"a": "b", "b": "a", "c": "c"}

    def test_doubled_identity_rejected(self):
        columns = {x: delta(x).scale(Q.from_int(2)) for x in XYZ}
        gamma = LinearMapOnBasis(Q, XYZ, XYZ, columns)
        with pytest.raises(PreconditionError):
            bijection_from_isomorphism(gamma)

    def test_identity_round_trip_scales_linearly(self):
        def best_time(n):
            carrier = ["p%d" % i for i in range(n)]
            h = {x: x for x in carrier}
            times = []
            for _ in range(3):
                # Each reading spans 50 ms: a coarse process clock reads 0 s on one trip.
                count, start, elapsed = 0, time.process_time(), 0.0
                while elapsed < 0.05:
                    psi = psi_from_bijection(Q, h, carrier, carrier)
                    f = FunAlgElement(Q, psi.source, {x: Q.one() for x in carrier})
                    assert psi.apply(f) == f
                    assert bijection_from_isomorphism(psi) == h
                    count += 1
                    elapsed = time.process_time() - start
                times.append(elapsed / count)
            return min(times)

        assert best_time(2000) <= 25 * best_time(200)

    def test_round_trip_all_bijections(self):
        for perm in itertools.permutations(XYZ):
            h = dict(zip(XYZ, perm))
            psi = psi_from_bijection(Q, h, XYZ, XYZ)
            assert bijection_from_isomorphism(psi) == h
            # reverse composite reproduces the map column-exactly
            assert psi_from_bijection(Q, bijection_from_isomorphism(psi),
                                      XYZ, XYZ) == psi


class TestIdealSubset:
    def test_single_delta(self):
        assert subset_of_ideal([delta("a")]) == ["a"]

    def test_mixed_generator(self):
        f = delta("a").scale(Q.from_int(2)) + delta("b")
        assert subset_of_ideal([f]) == ["a", "b"]
        for x in subset_of_ideal([f]):
            assert not (delta(x) * f).is_zero()

    def test_generators_over_different_contexts_rejected(self):
        q_b = delta("b", carrier=("a", "b"))
        f5_x = delta("x", field=F5, carrier=("x", "b"))
        with pytest.raises(PreconditionError,
                           match="^elements live over different carriers or fields$"):
            subset_of_ideal([q_b, f5_x])

    def test_zero_ideal(self):
        assert subset_of_ideal([]) == []
        assert subset_of_ideal([FunAlgElement(Q, XYZ)]) == []

    def test_span_oracle(self):
        # brute force: close the linear span under multiplication by deltas
        rng = random.Random(11)
        for _ in range(25):
            gens = []
            for _ in range(rng.randint(1, 3)):
                coeffs = {x: Q.from_int(rng.randint(-2, 2)) for x in XYZ}
                gens.append(FunAlgElement(Q, XYZ, coeffs))
            covered = set(subset_of_ideal(gens))
            # in F0(X) the two-sided span hits exactly the covered points
            reachable = set()
            for g in gens:
                for x in XYZ:
                    if not (delta(x) * g).is_zero():
                        reachable.add(x)
            assert reachable == covered


class TestInducedAction:
    def test_e1_alpha_g(self):
        pa = e1_action()
        alpha = InducedAlgebraAction(Q, pa)
        g = pa.group.element(1)
        d_a = FunAlgElement.delta(Q, pa.carrier, "a")
        d_b = FunAlgElement.delta(Q, pa.carrier, "b")
        assert alpha.apply(g, d_a) == d_b

    def test_identity_acts_trivially(self):
        pa = e1_action()
        alpha = InducedAlgebraAction(Q, pa)
        f = FunAlgElement(Q, pa.carrier, {"a": Q.from_int(2), "c": Q.one()})
        assert alpha.apply(pa.group.identity(), f) == f

    def test_e2_alpha_1(self):
        pa = e2_action()
        alpha = InducedAlgebraAction(Q, pa)
        one = pa.group.element(1)
        d1 = FunAlgElement.delta(Q, pa.carrier, "1")
        d2 = FunAlgElement.delta(Q, pa.carrier, "2")
        assert alpha.apply(one, d1) == d2

    def test_support_violation(self):
        pa = e2_action()
        alpha = InducedAlgebraAction(Q, pa)
        d3 = FunAlgElement.delta(Q, pa.carrier, "3")
        with pytest.raises(PreconditionError, match="support"):
            alpha.apply(pa.group.element(1), d3)

    def test_invalid_action_refused_with_its_report(self):
        with pytest.raises(PreconditionError) as excinfo:
            InducedAlgebraAction(Q, e2_without_h2())
        assert str(excinfo.value) == (
            "underlying action is invalid: "
            "axiom 3 at (t,s)=(-2,1): h_s(2)=3 escapes the domain of h_t; "
            "axiom 2 at (t,s)=(-1,-1): h_t(X_{t^-1} & X_s) = {1} but X_t & X_{ts} = {}; "
            "axiom 2 at (t,s)=(-1,2): h_t(X_{t^-1} & X_s) = {} but X_t & X_{ts} = {2}; "
            "axiom 2 at (t,s)=(1,-2): h_t(X_{t^-1} & X_s) = {} but X_t & X_{ts} = {2}; "
            "axiom 2 at (t,s)=(1,1): h_t(X_{t^-1} & X_s) = {3} but X_t & X_{ts} = {}; "
            "axiom 3 at (t,s)=(2,-1): h_s(2)=1 escapes the domain of h_t")

    def test_alpha_inverse_composes_to_identity(self):
        pa = e2_action()
        alpha = InducedAlgebraAction(Q, pa)
        for t in pa.listed():
            for x in StoredMaps(pa).subset(t.inverse()):
                f = FunAlgElement.delta(Q, pa.carrier, x)
                assert alpha.apply(t.inverse(), alpha.apply(t, f)) == f

    def test_algebra_action_axioms_on_basis(self):
        for pa in (e1_action(), e2_action()):
            alpha = InducedAlgebraAction(Q, pa)
            ref = StoredMaps(pa)
            elems = pa.check_elements()
            for t in elems:
                # supports: alpha_t(D_{t^-1} & D_s) = D_t & D_{ts}
                for s in elems:
                    dom = ref.subset(t.inverse()) & ref.subset(s)
                    image = {ref.apply(t, x) for x in dom}
                    assert image == ref.subset(t) & ref.subset(t * s)
                # composition on basis vectors of D_{s^-1} & D_{s^-1 t^-1}
                for s in elems:
                    for x in ref.subset(s.inverse()) & ref.subset((t * s).inverse()):
                        f = FunAlgElement.delta(Q, pa.carrier, x)
                        assert alpha.apply(t, alpha.apply(s, f)) == \
                            alpha.apply(t * s, f)


def hand_built_linear_map(alpha, t):
    """Reference alpha_t: the column of x in X_{t^-1} is delta_{h_t(x)} in F0(X_t)."""
    pa, ref = alpha.action, StoredMaps(alpha.action)
    source = pa.carrier.sort(ref.subset(t.inverse()))
    target = Carrier(pa.carrier.sort(ref.subset(t)))
    columns = {x: FunAlgElement.delta(alpha.field, target, ref.apply(t, x)) for x in source}
    return LinearMapOnBasis(alpha.field, source, target, columns)


class TestActionTables:
    @pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
    def test_as_linear_map_is_the_hand_built_map(self, field):
        empty = 0
        for pa in (e1_action(), e2_action(), cyclic_action(8, 4)):
            alpha = InducedAlgebraAction(field, pa)
            for t in pa.check_elements():
                assert alpha.as_linear_map(t) == hand_built_linear_map(alpha, t)
                empty += not StoredMaps(pa).subset(t)
        assert empty       # E2 has t with empty X_t

    def test_one_copy_per_action(self):
        for pa in (e1_action(), e2_action(), cyclic_action(8, 4)):
            alpha = InducedAlgebraAction(Q, pa)
            for t in pa.pulls:
                assert alpha.action.pulls[t] is pa.pulls[t]


class TestRecovery:
    def _family(self, field, pa):
        alpha = InducedAlgebraAction(field, pa, validate=False)
        return {t: (pa.domains[t], alpha.as_linear_map(t))
                for t in pa.listed()}

    def test_round_trip_e1(self):
        pa = e1_action()
        back = recover_set_action(Q, pa.group, pa.carrier, self._family(Q, pa))
        assert back == pa

    def test_round_trip_e2(self):
        pa = e2_action()
        back = recover_set_action(F5, pa.group, pa.carrier, self._family(F5, pa))
        assert back == pa

    def test_scaled_map_rejected(self):
        pa = e1_action()
        family = self._family(Q, pa)
        g = pa.group.element(1)
        support, amap = family[g]
        doubled = LinearMapOnBasis(
            Q, amap.source, amap.target,
            {x: amap.columns[x].scale(Q.from_int(2)) for x in amap.source})
        family[g] = (support, doubled)
        with pytest.raises(PreconditionError):
            recover_set_action(Q, pa.group, pa.carrier, family)

    def test_a_support_other_than_the_maps_target_is_refused(self):
        pa = e1_action()
        family = self._family(Q, pa)
        g = pa.group.element(1)
        family[g] = (("a",), family[g][1])
        with pytest.raises(PreconditionError, match="^support of alpha_1 is not X_1, its target$"):
            recover_set_action(Q, pa.group, pa.carrier, family)

    def test_alpha_e_must_be_the_identity(self):
        pa = e1_action()
        e = pa.group.identity()
        family = self._family(Q, pa)
        family[e] = (pa.carrier, InducedAlgebraAction(Q, pa).as_linear_map(e))
        assert recover_set_action(Q, pa.group, pa.carrier, family) == pa
        swap = psi_from_bijection(Q, {"a": "b", "b": "a", "c": "c"}, pa.carrier, pa.carrier)
        family[e] = (pa.carrier, swap)
        with pytest.raises(StructureError, match="^h_e must be the identity on the whole carrier$"):
            recover_set_action(Q, pa.group, pa.carrier, family)


def reference_bijection(gamma):
    """Reference for bijection_from_isomorphism: each row eps_x o gamma must be
    an evaluation eps_y, the h(x) = y must form a bijection, and psi_h must be
    gamma column for column."""
    field = gamma.field
    rows = {x: {} for x in gamma.target}
    for y, col in gamma.columns.items():
        for x, c in col.coeffs.items():
            rows[x][y] = Scalar(field, c)
    h = {}
    for x, values in rows.items():
        cls = classify_linear_functional(field, gamma.source, values)
        if cls.verdict != "evaluation":
            raise PreconditionError("eps_%s o gamma is not an evaluation" % x)
        h[x] = cls.point
    if len(set(h.values())) != len(gamma.source) or len(h) != len(gamma.source):
        raise PreconditionError("recovered map is not a bijection")
    if psi_from_bijection(field, h, gamma.source, gamma.target) != gamma:
        raise PreconditionError("map is not induced by any bijection")
    return h


def reference_recovery(field, group, carrier, family):
    """Reference for recover_set_action: the columns must fill each F0(X_t),
    and the recovered action is validated on its own before its alpha_t are
    compared with the family."""
    maps = {}
    for t, (support, alpha_t) in family.items():
        if subset_of_ideal(list(alpha_t.columns.values())) != list(alpha_t.target):
            raise PreconditionError("columns of alpha_%s do not fill F0(X_t)" % t)
        h_tinv = reference_bijection(alpha_t)
        if set(h_tinv) != set(support):
            raise PreconditionError("support of alpha_%s is not X_%s, its target" % (t, t))
        maps[t] = {x: y for y, x in h_tinv.items()}
    theta = PartialAction(group, carrier, maps)
    if not validate_partial_action(theta).ok:
        raise PreconditionError("recovered family is not a partial action")
    induced = InducedAlgebraAction(field, theta, validate=False)
    for t, (support, alpha_t) in family.items():
        if induced.as_linear_map(t) != alpha_t:
            raise PreconditionError("recovered action does not reproduce alpha_%s" % t)
    return theta


def outcome(function, *args):
    """The result, or None when the inputs are refused."""
    try:
        return function(*args)
    except (PreconditionError, StructureError):
        return None


def random_basis_map(rng, field):
    """A map F0(Y) -> F0(X) on at most five points each, usually of one size.
    Each column is a unit, scaled, zero or two-entry delta; when Y is no larger
    than X, the unit columns, two in three, sit at distinct points."""
    source = rng.sample("pqrstu", rng.randint(0, 5))
    size = len(source) if rng.random() < 0.8 else rng.randint(0, 5)
    target = Carrier(rng.sample("abcdef", size))
    images = rng.sample(target, len(source)) if len(source) <= size else []
    columns = {}
    for i, y in enumerate(source):
        kind = rng.choice("uuuuuuszt" if images else "uuszt") if target else "z"
        coeffs = {}
        if kind != "z":
            x = images[i] if images and kind == "u" else rng.choice(target)
            coeffs[x] = field.from_int(rng.choice([2, 3, 4, -1]) if kind == "s" else 1)
            if kind == "t":
                coeffs[rng.choice(target)] = field.one()
        columns[y] = FunAlgElement(field, target, coeffs)
    return LinearMapOnBasis(field, source, target, columns)


def mutated_family(rng, field, pa):
    """The family of alpha_t of a valid action, with at most one alpha_t changed:
    two columns swapped, its subcarriers listed in reverse, or alpha_{t^-1}
    replaced by psi of another bijection, so that t and t^-1 disagree."""
    alpha = InducedAlgebraAction(field, pa, validate=False)
    family = {t: (pa.domains[t], alpha.as_linear_map(t)) for t in pa.listed()}
    if rng.random() < 0.25:
        return family
    t = rng.choice(pa.listed())
    support, amap = family[t]
    source, target = list(amap.source), list(amap.target)
    kind = rng.choice(["swap", "reverse", "inverse"])
    if kind == "swap" and len(source) >= 2:
        x, y = rng.sample(source, 2)
        columns = dict(amap.columns, **{x: amap.columns[y], y: amap.columns[x]})
        family[t] = (support, LinearMapOnBasis(field, source, target, columns))
    elif kind == "reverse":
        target = Carrier(target[::-1])
        columns = {y: FunAlgElement(field, target, {x: field.one()})
                   for y, col in amap.columns.items() for x in col.coeffs}
        family[t] = (support, LinearMapOnBasis(field, source[::-1], target, columns))
    else:
        support, amap = family[t.inverse()]
        h = dict(zip(amap.target, rng.sample(list(amap.source), len(amap.source))))
        family[t.inverse()] = (support, psi_from_bijection(field, h, amap.source, amap.target))
    return family


class TestRecoveryMatchesTheReference:
    def test_basis_maps(self):
        rng = random.Random(15)
        accepted = 0
        for trial in range(20000):
            gamma = random_basis_map(rng, (Q, F5)[trial % 2])
            got = outcome(bijection_from_isomorphism, gamma)
            assert got == outcome(reference_bijection, gamma)
            accepted += got is not None
        assert 5000 < accepted < 15000      # both verdicts were compared

    def test_families(self):
        rng = random.Random(16)
        names, table = s3_table_from_permutations()
        groups = [GroupSpec.cyclic(4), GroupSpec.cyclic(6), GroupSpec.integers(),
                  GroupSpec.from_table(names, "e", table)]
        accepted = 0
        for trial in range(600):
            field = (Q, F5)[trial % 2]
            pa = random_valid_action(rng, groups[trial % len(groups)])
            while not pa.listed():
                pa = random_valid_action(rng, groups[trial % len(groups)])
            family = mutated_family(rng, field, pa)
            got = outcome(recover_set_action, field, pa.group, pa.carrier, family)
            assert got == outcome(reference_recovery, field, pa.group, pa.carrier, family)
            accepted += got is not None
        assert 150 < accepted < 450         # both verdicts were compared
