"""README's "Library API" and the dead-code guard's allowlist, checked statically.

README's export table must list exactly ``skewrel.__all__``, and every test id
that README or ``tools/dead_code.py``'s ALLOWED names must resolve to a test
function that exists. Ids are resolved by reading the test file's syntax tree,
not by running pytest, so these checks take milliseconds; the traced run of
``tools/dead_code.py`` itself is a CI step.
"""

import ast
import importlib.util
import re
from pathlib import Path

import skewrel

ROOT = Path(__file__).resolve().parent.parent
TEST_ID = re.compile(r"tests/[\w/]+\.py(?:::\w+)+")


def api_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("\n## Library API\n")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def table_rows(text: str) -> list:
    """The cells of each body row of the Markdown tables in text."""
    rows = []
    for line in text.splitlines():
        if line.startswith("|") and not line.startswith("| ---"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return [row for row in rows if row[-1] != "Covered by"]


def resolves(test_id: str) -> bool:
    """Whether tests/file.py[::Class]::function names a function of that file."""
    path, *names = test_id.split("::")
    file = ROOT / path
    if not file.is_file():
        return False
    body = ast.parse(file.read_text(encoding="utf-8")).body
    for i, name in enumerate(names):
        kind = ast.FunctionDef if i == len(names) - 1 else ast.ClassDef
        found = [node for node in body if isinstance(node, kind) and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def load_dead_code():
    spec = importlib.util.spec_from_file_location("dead_code", ROOT / "tools" / "dead_code.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_export_table_lists_exactly_all():
    section = api_section()
    exports = section[section.index("(`__all__`)"):]
    exports = exports[:exports.index("\n\n", exports.index("|"))]
    listed = [re.match(r"`(\w+)", row[0]).group(1) for row in table_rows(exports)]
    assert sorted(listed) == sorted(skewrel.__all__)
    assert len(set(listed)) == len(listed)


def test_every_covered_by_id_resolves():
    rows = table_rows(api_section())
    assert len(rows) > len(skewrel.__all__)         # the three tables, not only the first
    for row in rows:
        ids = TEST_ID.findall(row[-1])
        assert ids, row
        assert [i for i in ids if not resolves(i)] == [], row


def test_allowlist_names_defined_functions_and_existing_tests():
    dead_code = load_dead_code()
    defined = set(dead_code.defined_functions().values())
    assert sorted(set(dead_code.ALLOWED) - defined) == []
    for name, reason in dead_code.ALLOWED.items():
        if reason.startswith("tests/"):
            assert TEST_ID.fullmatch(reason) and resolves(reason), (name, reason)
        else:
            assert reason in (dead_code.BENCH, dead_code.HOOK), (name, reason)


def test_the_resolver_refuses_what_is_not_there():
    good = "tests/test_groups.py::test_inverse_and_sort_key_match_their_reference_formulas"
    assert resolves(good)
    assert resolves("tests/test_skew.py::TestAddition::test_cancellation")
    assert not resolves(good + "_typo")
    assert not resolves("tests/test_skew.py::TestAddition::test_no_such_test")
    assert not resolves("tests/test_skew.py::test_cancellation")    # it is a method
    assert not resolves("tests/test_no_such_file.py::test_x")
