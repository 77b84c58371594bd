import itertools

import pytest

from skewrel.errors import StructureError
from skewrel.groups import GroupSpec


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
