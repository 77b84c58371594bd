import copy
import itertools
import os
import pickle
import subprocess
import sys

import pytest

import skewrel
from skewrel import groups
from skewrel.errors import PreconditionError, StructureError
from skewrel.groups import GroupElement, GroupSpec


def s3_table_from_permutations():
    """Cayley table oracle: compose permutations of {0,1,2} directly.

    Product convention matches partial-bijection composition: (p*q)(i) = p(q(i)).
    """
    perms = sorted(itertools.permutations(range(3)))
    names = {(0, 1, 2): "e", (1, 0, 2): "(12)", (2, 1, 0): "(13)",
             (0, 2, 1): "(23)", (1, 2, 0): "(123)", (2, 0, 1): "(132)"}
    order = [name for _p, name in sorted((p, names[p]) for p in perms)]
    by_name = {v: k for k, v in names.items()}
    table = []
    for a in order:
        row = []
        for b in order:
            p, q = by_name[a], by_name[b]
            row.append(names[tuple(p[q[i]] for i in range(3))])
        table.append(row)
    return order, table


def test_cyclic_arithmetic():
    z2 = GroupSpec.cyclic(2)
    g = z2.element(1)
    assert g * g == z2.identity()
    assert g.inverse() == g
    z5 = GroupSpec.cyclic(5)
    assert z5.element(2).inverse() == z5.element(3)


def test_integers_arithmetic():
    z = GroupSpec.integers()
    assert z.element(1) * z.element(-1) == z.identity()
    assert z.element(3).inverse() == z.element(-3)


def test_s3_from_cayley_table():
    names, table = s3_table_from_permutations()
    s3 = GroupSpec.from_table(names, "e", table)
    t12, t13 = s3.parse("(12)"), s3.parse("(13)")
    assert str(t12 * t13) == "(132)"
    for t in s3.elements():
        assert t * t.inverse() == s3.identity()
        assert t.inverse() * t == s3.identity()
    for a, b, c in itertools.product(s3.elements(), repeat=3):
        assert (a * b) * c == a * (b * c)


def test_bad_tables_rejected():
    with pytest.raises(StructureError):
        GroupSpec.from_table(["e", "a"], "e", [["e", "a"], ["a", "a"]])
    with pytest.raises(StructureError):
        GroupSpec.from_table(["e", "a"], "e", [["a", "e"], ["e", "a"]])
    with pytest.raises(StructureError):
        GroupSpec.from_table(["e", "e"], "e", [["e", "e"], ["e", "e"]])
    # non-associative magma with valid identity and inverse rows
    with pytest.raises(StructureError):
        GroupSpec.from_table(
            ["e", "a", "b", "c", "d"], "e",
            [["e", "a", "b", "c", "d"],
             ["a", "e", "c", "d", "b"],
             ["b", "d", "e", "a", "c"],
             ["c", "b", "d", "e", "a"],
             ["d", "c", "a", "b", "e"]])


@pytest.mark.parametrize("entry", ["z", None, 1.7, True, 2, -1],
                         ids=["unknown-name", "none", "float", "bool", "index-past-end",
                              "negative-index"])
def test_bad_table_entries_rejected(entry):
    with pytest.raises(StructureError, match="Cayley table entry"):
        GroupSpec.from_table(["e", "a"], "e", [["e", "a"], ["a", entry]])


def test_table_entries_may_be_names_or_indices():
    by_name = GroupSpec.from_table(["e", "a"], "e", [["e", "a"], ["a", "e"]])
    assert GroupSpec.from_table(["e", "a"], "e", [[0, "a"], [1, 0]]) == by_name


def test_parse_encodings():
    z = GroupSpec.integers()
    assert str(z.parse("-7")) == "-7"
    z4 = GroupSpec.cyclic(4)
    assert z4.parse("6") == z4.element(2)
    for group in (z, z4):
        for text in ["1_0", " 1", "1 ", "+1", "\u0663", "1/2", ""]:
            with pytest.raises(StructureError, match="bad group element literal"):
                group.parse(text)


def test_sort_key_identity_first():
    z = GroupSpec.integers()
    elems = [z.element(2), z.element(-1), z.element(0), z.element(1)]
    ordered = sorted(elems, key=lambda t: t.sort_key())
    assert [str(t) for t in ordered] == ["0", "-1", "1", "2"]


def s3():
    names, table = s3_table_from_permutations()
    return GroupSpec.from_table(names, "e", table)


def test_separately_built_equal_groups_share_elements():
    # Groups are interned: building one twice, by any route, gives the same object.
    names, table = s3_table_from_permutations()
    indices = [[names.index(name) for name in row] for row in table]
    for a, b in [(s3(), s3()), (s3(), GroupSpec.from_table(tuple(names), "e", indices)),
                 (GroupSpec.cyclic(6), GroupSpec.cyclic(6)),
                 (GroupSpec.cyclic(6), GroupSpec("cyclic", order=6)),
                 (GroupSpec.integers(), GroupSpec.integers())]:
        assert a is b and a == b and hash(a) == hash(b)
        assert a.identity() is a.identity() is b.identity()
        payloads = range(-3, 4) if a.kind == "integers" else range(len(a.elements()))
        keyed_a = {a.element(i): i for i in payloads}
        keyed_b = {b.element(i): i for i in payloads}
        for i in payloads:
            assert a.element(i) is b.element(i) and hash(a.element(i)) == hash(b.element(i))
            assert keyed_a[b.element(i)] == keyed_b[a.element(i)] == i


def test_elements_of_different_groups_do_not_mix():
    z3, z4, z = GroupSpec.cyclic(3), GroupSpec.cyclic(4), GroupSpec.integers()
    for g, h in [(z3.element(1), z4.element(1)), (z4.element(1), z.element(1)),
                 (s3().element(1), z4.element(1))]:
        assert g != h and h != g
        with pytest.raises(PreconditionError, match="different groups"):
            g * h


def test_elements_and_groups_are_immutable():
    g = GroupSpec.cyclic(4).element(1)
    for name in ("spec", "payload", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, 2)
    with pytest.raises(AttributeError):
        del g.payload
    with pytest.raises(AttributeError):
        GroupSpec.cyclic(4).order = 5
    assert g == GroupSpec.cyclic(4).element(1)


def test_copies_keep_equality_and_lookup():
    for group in (s3(), GroupSpec.cyclic(5)):
        keyed = {t: str(t) for t in group.elements()}
        for twin in (copy.copy(keyed), copy.deepcopy(keyed), pickle.loads(pickle.dumps(keyed))):
            for t, name in twin.items():
                assert keyed[t] == name and twin[group.parse(name)] == name
                assert t == group.parse(name) and hash(t) == hash(group.parse(name))
        assert copy.deepcopy(group) == group and hash(copy.deepcopy(group)) == hash(group)


def test_orders_and_payloads_that_are_not_ints_are_refused_before_registering():
    # Interned by value, 3.0 and True would share a spec or an element with 3 and 1.
    for n in (2.5, 3.0, True, False, "3", None):
        for build in (GroupSpec.cyclic, lambda n: GroupSpec("cyclic", n)):
            with pytest.raises(StructureError, match="cyclic order must be an int >= 1"):
                build(n)
    for group in (GroupSpec.cyclic(5), GroupSpec.integers(), s3()):
        for payload in (1.0, 2.5, True, False, "1", None):
            with pytest.raises(StructureError, match="payload must be an int"):
                group.element(payload)
        assert all(type(t.payload) is int for t in group._interned.values())
    for n in (1, 3):
        assert type(GroupSpec.cyclic(n).order) is int
    assert all(type(spec.order) is int for spec in groups._SPECS.values() if spec.kind == "cyclic")


def test_pickle_rehashes_under_another_hash_seed():
    # Elements hash by identity, and the table's names are strings, whose hashes
    # change with PYTHONHASHSEED: a hash carried over in the pickle would miss the
    # keys in the child, which must find each one by parsing its name.
    group = s3()
    names = [str(t) for t in group.elements()]
    table = [[str(a * b) for b in group.elements()] for a in group.elements()]
    payload = pickle.dumps((names, table, hash(names[1]), {t: str(t) for t in group.elements()}))
    child = """if True:
        import pickle, sys
        from skewrel.groups import GroupElement, GroupSpec
        names, table, parent_hash, keyed = pickle.loads(sys.stdin.buffer.read())
        group = GroupSpec.from_table(names, "e", table)
        assert hash(names[1]) != parent_hash, "the hash seed did not change"
        for name in names:
            t = group.parse(name)
            assert keyed[t] == name
            (twin,) = [k for k in keyed if k == t]
            assert twin is t and twin.spec is group
        print("ok")
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(skewrel.__file__)),
               PYTHONHASHSEED="1" if os.environ.get("PYTHONHASHSEED") == "0" else "0")
    done = subprocess.run([sys.executable, "-c", child], input=payload, env=env,
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == b"ok\n"


def test_table_inverses_are_the_identity_column():
    group = s3()
    for i, row in enumerate(group.table):
        assert group.element(i).inverse() == group.element(row.index(group.identity_index))


def klein():
    names = ["e", "a", "b", "c"]
    return GroupSpec.from_table(names, "e", [[names[i ^ j] for j in range(4)] for i in range(4)])


def test_elements_are_interned_with_their_inverse_linked_both_ways():
    for group in (GroupSpec.cyclic(6), GroupSpec.integers(), s3(), klein()):
        payloads = range(-4, 5) if group.kind == "integers" else range(len(group.elements()))
        for p in payloads:
            t = group.element(p)
            assert GroupElement(group, p) is GroupElement(group, p) is t
            assert group.parse(str(t)) is t
            assert t.inverse().inverse() is t
            assert (t * t.inverse()) is group.identity() is (t.inverse() * t)
        assert group.identity().inverse() is group.identity()


def test_inverse_and_sort_key_match_their_reference_formulas():
    cases = [(GroupSpec.cyclic(n), range(n), lambda p, n=n: (-p) % n, 0) for n in range(1, 10)]
    cases.append((GroupSpec.integers(), [-10**30, -7, -1, 0, 1, 2, 10**30], lambda p: -p, 0))
    for group in (s3(), klein()):
        e = group.identity_index
        cases.append((group, range(len(group.names)),
                      lambda p, group=group, e=e: group.table[p].index(e), e))
    for group, payloads, inverse, e in cases:
        for p in payloads:
            t = GroupElement(group, p)
            assert t.inverse().payload == inverse(p)
            assert t.inverse() == GroupElement(group, inverse(p))
            assert t.sort_key() == (0 if p == e else 1, p)
            assert t.is_identity() == (p == e)


def test_equal_payloads_share_an_element_only_within_one_group():
    for a, b in [(GroupSpec.cyclic(5), GroupSpec.cyclic(5)), (s3(), s3()), (klein(), klein()),
                 (GroupSpec.integers(), GroupSpec.integers())]:
        assert a is b
        for p in range(4):
            s, t = a.element(p), b.element(p)
            assert s is t and s == t and t == s and hash(s) == hash(t)
            assert s.inverse() is t.inverse() and s.sort_key() == t.sort_key()
            assert s * t == t * s == a.element(p) * a.element(p)
            assert (s != t) is False and s != b.element((p + 1) % 4)
    z5, z6, z = GroupSpec.cyclic(5), GroupSpec.cyclic(6), GroupSpec.integers()
    for p in range(5):
        for s, t in [(z5.element(p), z6.element(p)), (z5.element(p), z.element(p)),
                     (z6.element(p), z.element(p))]:
            assert s.payload == t.payload and s.sort_key() == t.sort_key()
            assert s != t and t != s and not s == t
            assert {s: 1}.get(t) is None
            with pytest.raises(PreconditionError, match="different groups"):
                s * t


def test_copy_deepcopy_and_pickle_keep_interned_elements_usable():
    for group in (GroupSpec.cyclic(7), GroupSpec.integers(), s3(), klein()):
        t = group.element(3)
        assert copy.copy(t) is t
        for twin in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert twin is t
            assert twin == t and hash(twin) == hash(t) and twin.spec == group
            assert twin.inverse().inverse() is twin
            assert twin.inverse() == t.inverse() and twin.sort_key() == t.sort_key()
            assert GroupElement(twin.spec, 3) is twin
        # Pickled together, an element and its inverse come back in one spec.
        u, v = pickle.loads(pickle.dumps((t, t.inverse())))
        assert u.spec is v.spec and u.inverse() is v and v.inverse() is u


def test_cache_slots_refuse_writes():
    group = GroupSpec.cyclic(4)
    t = group.element(1)
    for name in ("_sort_key", "_inverse"):
        with pytest.raises(AttributeError):
            setattr(t, name, group.element(2))
        with pytest.raises(AttributeError):
            delattr(t, name)
    with pytest.raises(AttributeError):
        group._interned = {}
    assert t.inverse() is group.element(3) and t.sort_key() == (1, 1)
