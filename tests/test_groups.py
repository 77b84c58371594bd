import copy
import itertools
import os
import pickle
import re
import subprocess
import sys

import pytest

import skewrel
from skewrel import groups
from skewrel.errors import PreconditionError, StructureError
from skewrel.groups import GroupElement, GroupSpec

from helpers import group_elements


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
    for t in group_elements(s3):
        assert t * t.inverse() == s3.identity()
        assert t.inverse() * t == s3.identity()
    for a, b, c in itertools.product(group_elements(s3), repeat=3):
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


def test_repeated_names_are_reported_before_a_missing_identity():
    # The order a table document has always reported its faults in.
    with pytest.raises(StructureError, match="duplicate element names"):
        GroupSpec.from_table(["e", "e"], "z", [["e", "e"], ["e", "e"]])
    with pytest.raises(StructureError, match="identity 'z' not among element names"):
        GroupSpec.from_table(["e", "a"], "z", [["e", "a"], ["a", "e"]])


@pytest.mark.parametrize("entry", ["z", None, 1.7, True, 2, -1],
                         ids=["unknown-name", "none", "float", "bool", "index-past-end",
                              "negative-index"])
def test_bad_table_entries_rejected(entry):
    with pytest.raises(StructureError, match="Cayley table entry"):
        GroupSpec.from_table(["e", "a"], "e", [["e", "a"], ["a", entry]])


def test_table_entries_may_be_names_or_indices():
    by_name = GroupSpec.from_table(["e", "a"], "e", [["e", "a"], ["a", "e"]])
    assert GroupSpec.from_table(["e", "a"], "e", [[0, "a"], [1, 0]]) == by_name


def cubic_associative(table) -> bool:
    """The reference associativity check: every triple."""
    n = len(table)
    return all(table[table[i][j]][k] == table[i][table[j][k]]
               for i, j, k in itertools.product(range(n), repeat=3))


def test_lights_test_agrees_with_the_cubic_scan_on_every_order_4_table():
    # The tables on e, a, b, c with identity e that reach the associativity check:
    # every row holds e, and the column of its first e is a left inverse too.
    names = tuple("eabc")
    rows = [[(i,) + cells for cells in itertools.product(range(4), repeat=3) if 0 in cells]
            for i in (1, 2, 3)]
    checked = accepted = 0
    for rest in itertools.product(*rows):
        table = ((0, 1, 2, 3),) + rest
        if any(table[row.index(0)][i] != 0 for i, row in enumerate(table)):
            continue
        checked += 1
        try:
            inverses = groups._table_inverses(names, 0, table)
        except StructureError as exc:
            assert not cubic_associative(table), table
            assert str(exc).startswith("associativity fails at ")
            x, g, y = (names.index(v) for v in re.findall(r"'(\w)'", str(exc)))
            assert table[table[x][g]][y] != table[x][table[g][y]], (table, str(exc))
        else:
            assert cubic_associative(table), table
            assert all(table[i][inverses[i]] == 0 for i in range(4))
            accepted += 1
    assert (checked, accepted) == (11092, 4)      # Z_4 three ways, and the Klein group


def loops(n):
    """Every Latin square on range(n) whose row and column 0 are the identity."""
    table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield tuple(map(tuple, table))
            return
        i, j = cells[k]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        for v in range(n):
            if v not in used:
                table[i][j] = v
                yield from fill(k + 1)
        table[i][j] = None
    yield from fill(0)


@pytest.mark.parametrize("n, count, associative", [(5, 56, 6), (6, 9408, 80)])
def test_lights_test_agrees_with_the_cubic_scan_on_every_loop(n, count, associative):
    # Rows and columns are permutations, so only the generators decide: the smallest
    # loops that are not groups have order 5. Order 6 holds Z_6 (60 ways) and S_3 (20).
    names, seen, accepted = tuple("eabcdf"[:n]), 0, 0
    for table in loops(n):
        seen += 1
        try:
            groups._table_inverses(names, 0, table)
        except StructureError:
            assert not cubic_associative(table), table
        else:
            assert cubic_associative(table), table
            accepted += 1
    assert (seen, accepted) == (count, associative)


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
        payloads = range(-3, 4) if a.kind == "integers" else range(len(group_elements(a)))
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
        keyed = {t: str(t) for t in group_elements(group)}
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
    elements = group_elements(group)
    names = [str(t) for t in elements]
    table = [[str(a * b) for b in elements] for a in elements]
    payload = pickle.dumps((names, table, hash(names[1]), {t: str(t) for t in elements}))
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
        payloads = range(-4, 5) if group.kind == "integers" else range(len(group_elements(group)))
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


def table_spec(table, names=("e", "a"), identity_index=0, **more) -> GroupSpec:
    """GroupSpec("table", ...) built directly, as from_table never builds it."""
    return GroupSpec("table", names=names, identity_index=identity_index, table=table, **more)


def z2_table() -> GroupSpec:
    return table_spec(((0, 1), (1, 0)))


# A magma on five elements with an identity and two-sided inverses, not associative.
MAGMA = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def interned(name, probe, expected):
    return pytest.param(probe, expected, id=name)


def refused(name, text, probe):
    return pytest.param(probe, text, id=name)


PROBES = [
    interned("cyclic-payload-past-n", lambda: GroupElement(GroupSpec.cyclic(5), 7),
             lambda: GroupSpec.cyclic(5).element(2)),
    interned("cyclic-payload-below-zero", lambda: GroupElement(GroupSpec.cyclic(5), -3),
             lambda: GroupSpec.cyclic(5).element(2)),
    interned("integers-payload", lambda: GroupElement(GroupSpec.integers(), -4),
             lambda: GroupSpec.integers().parse("-4")),
    interned("table-index", lambda: GroupElement(z2_table(), 1), lambda: z2_table().parse("a")),
    interned("table-spec", z2_table,
             lambda: GroupSpec.from_table(["e", "a"], "e", [["e", "a"], ["a", "e"]])),
    refused("integers-float-payload", "payload must be an int",
            lambda: GroupElement(GroupSpec.integers(), 2.0)),
    refused("cyclic-bool-payload", "payload must be an int",
            lambda: GroupElement(GroupSpec.cyclic(5), True)),
    refused("cyclic-str-payload", "payload must be an int",
            lambda: GroupElement(GroupSpec.cyclic(5), "1")),
    refused("table-index-past-end", "element index out of range",
            lambda: GroupElement(z2_table(), 10)),
    refused("table-index-negative", "element index out of range",
            lambda: GroupElement(z2_table(), -1)),
    refused("unknown-kind", "unknown group kind", lambda: GroupSpec("bogus")),
    refused("unhashable-kind", "unknown group kind", lambda: GroupSpec(["cyclic"], order=2)),
    refused("integers-with-order", "integers group takes no order",
            lambda: GroupSpec("integers", order=5)),
    refused("cyclic-with-names", "cyclic group takes no names",
            lambda: GroupSpec("cyclic", order=5, names=("e",))),
    refused("table-with-order", "table group takes no order",
            lambda: table_spec(((0, 1), (1, 0)), order=2)),
    refused("no-inverse", "'a' has no right inverse", lambda: table_spec(((0, 1), (1, 1)))),
    refused("not-associative", "associativity fails",
            lambda: table_spec(MAGMA, names=tuple("eabcd"))),
    refused("identity-law", "identity law fails at 'a'", lambda: table_spec(((0, 1), (0, 1)))),
    refused("names-list", "names must be a tuple of strings",
            lambda: table_spec(((0, 1), (1, 0)), names=["e", "a"])),
    refused("int-name", "names must be a tuple of strings",
            lambda: table_spec(((0, 1), (1, 0)), names=("e", 1))),
    refused("duplicate-names", "duplicate element names",
            lambda: table_spec(((0, 1), (1, 0)), names=("e", "e"))),
    refused("identity-index-past-end", "identity index must be an int",
            lambda: table_spec(((0, 1), (1, 0)), identity_index=2)),
    refused("table-list", "tuple of tuples", lambda: table_spec([(0, 1), (1, 0)])),
    refused("rows-lists", "tuple of tuples", lambda: table_spec(([0, 1], [1, 0]))),
    refused("table-missing", "tuple of tuples", lambda: table_spec(None)),
    refused("entry-past-end", "Cayley table entry 2", lambda: table_spec(((0, 1), (1, 2)))),
    refused("row-too-short", "wrong shape", lambda: table_spec(((0, 1), (1,)))),
    refused("too-few-rows", "must be 2 x 2", lambda: table_spec(((0, 1),))),
    # from_table reads rows before the spec sees them: an int row is refused there.
    refused("from-table-int-row", "Cayley table must be a list or tuple of rows",
            lambda: GroupSpec.from_table(["e"], "e", [5])),
    refused("from-table-int-row-in-tuple", "Cayley table must be a list or tuple of rows",
            lambda: GroupSpec.from_table(["e"], "e", (5,))),
    refused("from-table-int-second-row", "Cayley table must be a list or tuple of rows",
            lambda: GroupSpec.from_table(["e"], "e", [[0], 5])),
    # from_table reads names as a list or tuple: an int, None or a string is refused there.
    refused("from-table-int-names", "names must be a list or tuple of strings",
            lambda: GroupSpec.from_table(5, "e", [[0]])),
    refused("from-table-no-names", "names must be a list or tuple of strings",
            lambda: GroupSpec.from_table(None, "e", [[0]])),
    refused("from-table-string-names", "names must be a list or tuple of strings",
            lambda: GroupSpec.from_table("ab", "a", [["a", "b"], ["b", "a"]])),
    # Equal in value to a registered spec, but not in type: refused whatever is registered.
    refused("bool-entries", "Cayley table entry True",
            lambda: z2_table() and table_spec(((0, True), (True, 0)))),
    refused("bool-identity-index", "identity index must be an int",
            lambda: z2_table() and table_spec(((0, 1), (1, 0)), identity_index=False)),
    refused("float-order", "cyclic order must be an int",
            lambda: GroupSpec.cyclic(3) and GroupSpec.cyclic(3.0)),
    refused("table-index-n", "element index out of range", lambda: GroupElement(z2_table(), 2)),
    # Every row holds e, but a's right inverse b has b * a = a.
    refused("one-sided-inverse", "'a' has no two-sided inverse",
            lambda: table_spec(((0, 1, 2), (1, 2, 0), (2, 1, 0)), names=("e", "a", "b"))),
]


@pytest.mark.parametrize("probe, expected", PROBES)
def test_constructors_refuse_or_return_the_one_interned_object(probe, expected):
    """``expected`` makes the interned object, or is the text of the refusal."""
    if isinstance(expected, str):
        with pytest.raises(StructureError, match=re.escape(expected)):
            probe()
        return
    made = probe()
    assert made is expected()
    if isinstance(made, GroupElement):
        assert made.inverse().inverse() is made and made * made.inverse() is made.spec.identity()
    assert all(type(t.payload) is int for spec in groups._SPECS.values()
               for t in spec._interned.values())


def test_refused_payloads_leave_a_fresh_interpreter_clean():
    # Interned by value, 2.0 and True would be stored under the keys 2 and 1.
    child = """if True:
        from skewrel.errors import StructureError
        from skewrel.groups import GroupElement, GroupSpec
        z, z5 = GroupSpec.integers(), GroupSpec.cyclic(5)
        assert 2 not in z._interned and 1 not in z5._interned
        for spec, payload in ((z, 2.0), (z5, True)):
            try:
                GroupElement(spec, payload)
            except StructureError:
                pass
            else:
                raise SystemExit("accepted %r" % (payload,))
        print(z.element(2), z5.element(1), repr(z.element(2)))
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(skewrel.__file__)))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "2 1 GroupElement(2)\n"
