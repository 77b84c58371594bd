"""The hand-written value and report classes behave as the dataclasses they replace.

FieldSpec, Scalar and GroupSpec are slotted Values; Violation, FreenessReport and
HomClassification are named tuples. Each repr below is the text the dataclass
printed. Specs are interned, so a spec built twice is one object, which copies
and pickles return too; every other value built apart must compare and hash
equal to its twin.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from skewrel.actions import FreenessReport, Violation
from skewrel.fields import FieldSpec, Scalar
from skewrel.funalg import HomClassification
from skewrel.groups import GroupSpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def z3_one():
    return GroupSpec.cyclic(3).element(1)


# (a function that builds a fresh value, the repr the dataclass printed for it)
VALUES = {
    "rationals": (lambda: FieldSpec("rationals"),
                  "FieldSpec(kind='rationals', modulus=None)"),
    "gf5": (lambda: FieldSpec("prime-field", 5),
            "FieldSpec(kind='prime-field', modulus=5)"),
    "scalar-q": (lambda: Scalar(FieldSpec("rationals"), Fraction(-1, 2)), "Scalar(-1/2)"),
    "scalar-gf5": (lambda: FieldSpec("prime-field", 5).from_int(8), "Scalar(3)"),
    "cyclic": (lambda: GroupSpec.cyclic(3),
               "GroupSpec(kind='cyclic', order=3, names=None, identity_index=None, table=None)"),
    "integers": (GroupSpec.integers,
                 "GroupSpec(kind='integers', order=None, names=None, identity_index=None, "
                 "table=None)"),
    "table": (lambda: GroupSpec.from_table(["e", "a"], "e", [["e", "a"], ["a", "e"]]),
              "GroupSpec(kind='table', order=None, names=('e', 'a'), identity_index=0, "
              "table=((0, 1), (1, 0)))"),
    "violation": (lambda: Violation("2", z3_one(), None, "w"),
                  "Violation(axiom='2', t=GroupElement(1), s=None, witness='w')"),
    "free": (lambda: FreenessReport(True), "FreenessReport(free=True, counterexample=None)"),
    "not-free": (lambda: FreenessReport(False, (z3_one(), "x")),
                 "FreenessReport(free=False, counterexample=(GroupElement(1), 'x'))"),
    "zero": (lambda: HomClassification("zero"),
             "HomClassification(verdict='zero', point=None, pair_witness=None, "
             "idem_witness=None)"),
    "evaluation": (lambda: HomClassification("evaluation", point="a"),
                   "HomClassification(verdict='evaluation', point='a', pair_witness=None, "
                   "idem_witness=None)"),
    "pair-witness": (lambda: HomClassification("not-multiplicative", pair_witness=("a", "b")),
                     "HomClassification(verdict='not-multiplicative', point=None, "
                     "pair_witness=('a', 'b'), idem_witness=None)"),
}

values = pytest.mark.parametrize("make, text", list(VALUES.values()), ids=list(VALUES))


@values
def test_repr_is_the_dataclass_text(make, text):
    assert repr(make()) == text


def is_spec(value):
    return isinstance(value, (FieldSpec, GroupSpec))


@values
def test_equal_values_compare_and_hash_equal(make, text):
    a, b = make(), make()
    assert a is b if is_spec(a) else a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


@values
def test_attributes_cannot_be_set_or_deleted(make, text):
    value = make()
    first = value._fields[0] if isinstance(value, tuple) else type(value).__slots__[0]
    for name in (first, "new_name"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@values
def test_copy_deepcopy_and_pickle_round_trip(make, text):
    value = make()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin is value or not is_spec(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == text


def test_specs_and_scalars_equal_only_their_own_class():
    q, f5 = FieldSpec("rationals"), FieldSpec("prime-field", 5)
    z3 = GroupSpec.cyclic(3)
    assert q != f5 and f5 != FieldSpec("prime-field", 7)
    assert q.one() != f5.one() and q.one() != q.from_int(2)
    others = {
        q: [("rationals", None), ["rationals", None], z3, q.zero()],
        f5: [("prime-field", 5), f5.zero()],
        q.one(): [1, Fraction(1), (q, Fraction(1)), q],
        f5.one(): [1, (f5, 1), z3.identity()],
        z3: [("cyclic", 3, None, None, None), q, z3.identity()],
        GroupSpec.integers(): [("integers", None, None, None, None)],
    }
    for value, unequal in others.items():
        for other in unequal:
            assert value != other and other != value
            assert not value == other and not other == value


def test_importing_the_cli_loads_no_dataclasses_or_source_tools():
    # Each command runs in a fresh interpreter, so what `import skewrel.cli` loads
    # is paid on every call: dataclasses would bring inspect, ast, dis and tokenize.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import skewrel.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'ast', 'dis', 'tokenize'}"
            " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, os.path.join(ROOT, "src")],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
