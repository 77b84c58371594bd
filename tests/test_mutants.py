"""tools/mutants.py, the mutation gate, on a fixture module and statically.

The gate's run over src/skewrel takes minutes, so it is a CI step. Here its scan runs
on tests/data/mutants/sample.py, which has one mutant that its test kills and one that
no test can tell apart, and the operators and the gate's own lists are checked
without running a mutant.
"""

import importlib.util
import os
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "mutants"

spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

KILLED = "sample.double_if_positive:negate:0"           # 2 * n if not (n > 0) else n
EQUIVALENT = "sample.double_if_positive:compare:0"      # n >= 0: equal at n = 0


def test_the_gate_kills_one_mutant_and_fails_until_the_other_is_listed(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    shutil.copy(FIXTURE / "sample.py", tmp_path / "src" / "sample.py")
    shutil.copy(FIXTURE / "sample_checks.py", tmp_path / "tests" / "test_sample.py")
    log = []
    results = mutants.scan(tmp_path, "src", {"sample": ["double_if_positive"]},
                           recheck={KILLED, EQUIVALENT}, log=log.append)
    assert results == {KILLED: "killed", EQUIVALENT: "survived"}
    assert [line for line in log if "again alone" in line] == [
        "killed: %s with %d workers running; again alone" % (KILLED, min(4, os.cpu_count()))]
    assert mutants.failures(results, {}) == ["survived, not in EQUIVALENT: " + EQUIVALENT]
    assert mutants.failures(results, {EQUIVALENT: "equal at 0"}) == []
    assert mutants.failures(results, {EQUIVALENT: "equal at 0", KILLED: "wrong"}) == [
        "stale EQUIVALENT entry (killed, or no longer made): " + KILLED]
    assert not list(tmp_path.rglob("__pycache__"))      # the copies ran, not tmp_path


def test_each_operator_makes_one_mutant_per_site():
    # The non-ASCII label puts the second comparison's byte column past its character one.
    source = ("def f(xs, n):\n"
              "    for x in xs:\n"
              "        n = n + 1 if x == 'ü' and n >= 0 else n\n"
              "    return [x for x in xs if x is not None]\n")
    made = {name: text.splitlines()[2:] for name, text in mutants.mutants("m", source, ["f"])}
    head = "        n = n + 1 if "
    tail = "    return [x for x in xs if x is not None]"
    assert made == {
        "m.f:pass:0": ["        pass", tail],
        "m.f:negate:0": [head + "(not (x == 'ü' and n >= 0)) else n", tail],
        "m.f:boolop:0": [head + "(x == 'ü' or n >= 0) else n", tail],
        "m.f:compare:0": [head + "(x != 'ü') and n >= 0 else n", tail],
        "m.f:compare:1": [head + "x == 'ü' and (n > 0) else n", tail],
        "m.f:filter:0": [head + "x == 'ü' and n >= 0 else n",
                         "    return [x for x in xs if True]"],
        "m.f:compare:2": [head + "x == 'ü' and n >= 0 else n",
                          "    return [x for x in xs if (x is None)]"],
    }


def test_scope_names_functions_and_equivalent_names_mutants():
    made = set()
    for module, qualnames in mutants.SCOPE.items():
        source = (ROOT / mutants.PACKAGE / (module + ".py")).read_text(encoding="utf-8")
        made.update(name for name, _text in mutants.mutants(module, source, qualnames))
    assert sorted(set(mutants.EQUIVALENT) - made) == []
    assert all(mutants.EQUIVALENT.values())
    own = [f for files in mutants.OWN_TESTS.values() for f in files]
    assert [f for f in own if not (ROOT / f).is_file()] == []
