"""Byte-exact CLI output on the demo documents.

Each expected file under tests/data/golden/ is the verbatim stdout of
``skewrel <argv>`` run from the repository root; regenerate one by running
that command and redirecting its output to the file.
"""

import os

import pytest

from skewrel.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "demos", "data")
GOLDEN = os.path.join(ROOT, "tests", "data", "golden")


def _demo(name):
    return os.path.join(DATA, name)


CASES = {
    "validate-e1": ["validate", _demo("e1.json")],
    "validate-e2": ["validate", _demo("e2.json")],
    "relation-e1": ["relation", _demo("e1.json")],
    "relation-e2": ["relation", _demo("e2.json")],
    "ideals-e1": ["ideals", _demo("e1.json")],
    "ideals-e2": ["ideals", _demo("e2.json")],
    "mul-skew-e1": ["mul", "--algebra", "skew", _demo("e1.json"),
                    _demo("skew_lhs.json"), _demo("skew_rhs.json")],
    "mul-rel-e1": ["mul", "--algebra", "rel", _demo("e1.json"),
                   _demo("rel_elem.json"), _demo("rel_elem.json")],
    "gamma-fwd-e1": ["gamma", "--dir", "fwd", _demo("e1.json"), _demo("skew_lhs.json")],
    "gamma-inv-e1": ["gamma", "--dir", "inv", _demo("e1.json"), _demo("rel_elem.json")],
    "selftest-42-25": ["selftest", "--seed", "42", "--trials", "25"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as handle:
        expected = handle.read()
    assert capsys.readouterr().out == expected
