"""Mutation gate: every one-point change to the code that decides a verdict must fail a test.

Each function in SCOPE decides a verdict (is this a partial action, is it free, is
this a group, a field, a document) or a value (a product, Gamma, an ideal's span).
The gate makes every one-point mutant of those functions, with these operators
(DeMillo, Lipton and Sayward, IEEE Computer 11(4), 1978; after the sufficient set of
Offutt, Lee, Rothermel, Untch and Zapf, ACM TOSEM 5(2), 1996):

    compare   one relational operator swapped: == and !=, < and <=, > and >=,
              in and not in, is and is not
    negate    the test of an if, a while or a conditional expression negated
    boolop    and and or swapped
    pass      one statement of a for or while body replaced by pass
    filter    one comprehension filter dropped (its test replaced by True)

and runs the test suite against each one. A mutant's id is
``module.Qualname:operator:index``, the index counting that operator's sites in the
function in source order, nested functions included, so ids stay stable while the
function does. A mutant is killed when a test fails or the run times out (a mutant
can loop forever), and survives when the whole suite passes.

    python tools/mutants.py          # exit 0: every mutant is killed or listed

Exits 1 on a surviving mutant that EQUIVALENT does not list, and on a stale
EQUIVALENT entry: a mutant that was killed or is no longer made. So the list shrinks
with the code, like tools/dead_code.py's ALLOWED. A survivor is either code that no
test can tell apart, to delete, or a check that no test reaches, to pin with a test;
only a change that cannot alter any result, such as a fast path's guard, is listed.

Each worker runs its mutants in its own temporary copy of the checkout, never in
src/. Each run starts with no __pycache__ in the copy and PYTHONDONTWRITEBYTECODE=1
set: CPython reuses a .pyc whose source has the same size and mtime second, and
swapping == for != keeps the size, so a cached module could otherwise stand in for
the mutant. A test that starts Python with -I ignores the variable, so the gate
deletes what such a child writes before the next run.

The unmutated suite runs first: it must pass, and its per-file times order the test
files, so that ``pytest -x`` runs the mutated module's own test files first, then the
rest fastest first, all but the gate's own tests. A run times out when collection
or one test takes five times the slowest unmutated test plus 10 s, or the run twice
the unmutated suite plus 10 s. A loaded machine can break those limits and a few
tests' wall-clock budgets, so a mutant listed in EQUIVALENT that a run with the other
workers busy kills runs again alone. Each run sets CI=1, so Hypothesis draws the same
examples every time (tests/conftest.py), and limits its address space to 2 GiB, so a
mutant that grows a list forever fails fast. The worker count is
min(4, os.cpu_count()). On a 2-core machine the gate takes about 8 minutes, so it
is a CI step of its own; tests/test_mutants.py runs the gate on a fixture module in
tier-1.
"""

from __future__ import annotations

import ast
import contextlib
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ElementTree
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/skewrel"

SCOPE = {
    "actions": ["PartialAction.__init__", "validate_partial_action", "check_free",
                "Relation.__init__", "verify_equivalence"],
    "groups": ["_table_inverses", "GroupElement.__new__"],
    "fields": ["_is_prime", "FieldSpec.__new__", "FieldSpec.add_products", "FieldSpec.total"],
    "funalg": ["psi_from_bijection", "recover_set_action"],
    "skew": ["SkewElement.__init__", "SkewElement.__mul__"],
    "relalg": ["RelElement.__mul__", "gamma", "gamma_inv", "ExactRowSpace.add",
               "brute_force_ideal_span"],
    "documents": ["parse_field", "parse_group", "parse_action_document", "parse_funalg",
                  "parse_skew", "parse_rel", "_unique_keys"],
    "cli": ["cmd_ideals"],
}

EQUIVALENT = {
    "documents._unique_keys:compare:0":
        "the guard of the no-duplicate fast path: with <= the scan also runs when "
        "no key repeats, and finds none",
}

# The gate's own tests run it on a fixture module, not on src/: mutant runs leave them out.
GATE_TESTS = "tests/test_mutants.py"
# A module's own test files, when they are not tests/test_<module>.py.
OWN_TESTS = {"documents": ["tests/test_cli.py", "tests/test_raw_values.py",
                           "tests/test_fuzz_documents.py"]}

SWAPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is}
# The child runs pytest as ``python -m pytest`` does, with at most 2 GiB of address
# space. SIGALRM, whose default action ends a process, ends it when collection or one
# test takes longer than the seconds filled in. No CPU limit: under RLIMIT_CPU, Linux
# reads time.process_time in steps of a few milliseconds, and tests compare those.
CHILD = """\
import resource, signal, sys, pytest
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
class Alarm:
    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(self):
        signal.alarm(%(seconds)d)
        return (yield)
signal.alarm(%(seconds)d)
status = pytest.main(sys.argv[1:], plugins=[Alarm()])
signal.alarm(0)
sys.exit(status)
"""
IGNORED = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis",
                                 ".bench_work", "*.egg-info")


def find_function(tree: ast.Module, qualname: str):
    body = tree.body
    for name in qualname.split("."):
        found = [node for node in body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name]
        if not found:
            raise LookupError("no function %s" % qualname)
        body = found[0].body
    return found[0]


def sites(function) -> list:
    """(operator, node whose source text is replaced, replacement text), in source order."""
    found = []
    for node in (n for stmt in function.body for n in ast.walk(stmt)):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                ops = node.ops[:i] + [SWAPS[type(op)]()] + node.ops[i + 1:]
                swapped = ast.Compare(left=node.left, ops=ops, comparators=node.comparators)
                found.append(("compare", node, "(%s)" % ast.unparse(swapped)))
        elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
            found.append(("negate", node.test, "(not (%s))" % ast.unparse(node.test)))
        elif isinstance(node, ast.BoolOp):
            swapped = ast.BoolOp(op=ast.Or() if isinstance(node.op, ast.And) else ast.And(),
                                 values=node.values)
            found.append(("boolop", node, "(%s)" % ast.unparse(swapped)))
        elif isinstance(node, ast.comprehension):
            found.extend(("filter", test, "True") for test in node.ifs)
        if isinstance(node, (ast.For, ast.While)):
            found.extend(("pass", stmt, "pass") for stmt in node.body)
    return sorted(found, key=lambda site: (site[1].lineno, site[1].col_offset))


def _offset(lines: list, lineno: int, col: int) -> int:
    """The character offset of (lineno, UTF-8 byte column col) in the joined lines."""
    return sum(map(len, lines[:lineno - 1])) + len(lines[lineno - 1].encode()[:col].decode())


def mutants(module: str, source: str, qualnames) -> list:
    """[(id, mutated source)] for every site of every function named, in scope order."""
    tree, lines, made = ast.parse(source), source.splitlines(keepends=True), []
    unchanged = ast.dump(tree)
    for qualname in qualnames:
        counts: dict = {}
        for operator, node, text in sites(find_function(tree, qualname)):
            index = counts[operator] = counts.get(operator, -1) + 1
            start = _offset(lines, node.lineno, node.col_offset)
            end = _offset(lines, node.end_lineno, node.end_col_offset)
            mutated = source[:start] + text + source[end:]
            if ast.dump(ast.parse(mutated)) == unchanged:
                raise AssertionError("%s:%s:%d changes nothing" % (qualname, operator, index))
            made.append(("%s.%s:%s:%d" % (module, qualname, operator, index), mutated))
    return made


def run_suite(copy: Path, args: list, timeout: float, per_test: int) -> str:
    """'survived' if pytest passes args in copy, 'killed' if it fails, 'timeout' if the
    run takes timeout seconds, or collection or a test per_test seconds."""
    for cache in list(copy.rglob("__pycache__")):     # a child started with -I writes one
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1", CI="1")
    # A session of its own, so that killing it also ends the CLI processes a test started.
    proc = subprocess.Popen([sys.executable, "-c", CHILD % {"seconds": per_test}, "-x", "-q",
                             "-p", "no:cacheprovider", *args],
                            cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        status = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        status = -signal.SIGALRM            # as if the child's own alarm had ended it
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    if status == -signal.SIGALRM:
        return "timeout"
    return "killed" if status else "survived"


def timings(junit: Path) -> dict:
    """tests/<file>.py -> the seconds of each of its tests, from a pytest --junitxml report."""
    times: dict = {}
    for case in ElementTree.parse(junit).iter("testcase"):
        name = "tests/%s.py" % case.get("classname").split(".")[1]
        times.setdefault(name, []).append(float(case.get("time")))
    return times


def scan(root: Path, package: str, scope: dict, recheck=(), log=print) -> dict:
    """{mutant id: 'killed', 'timeout' or 'survived'} for every mutant of scope.

    A mutant of recheck that a run with the other workers busy killed runs again alone:
    some tests hold a wall-clock budget, and the timeout is one too."""
    made = []
    for module, qualnames in scope.items():
        path = "%s/%s.py" % (package, module)
        original = (root / path).read_text(encoding="utf-8")
        made += [(name, module, path, original, mutated)
                 for name, mutated in mutants(module, original, qualnames)]
    workers = min(4, os.cpu_count() or 1)
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copies = queue.Queue()
        for i in range(workers):
            copies.put(Path(shutil.copytree(root, Path(scratch, str(i)), ignore=IGNORED)))
        copy, junit = copies.get(), Path(scratch, "baseline.xml")
        start = time.monotonic()
        if run_suite(copy, ["--junitxml", str(junit), "tests"], 3600, 3600) != "survived":
            raise SystemExit("the test suite fails on the unmutated copy")
        took = time.monotonic() - start
        copies.put(copy)
        times = timings(junit)
        times.pop(GATE_TESTS, None)
        slowest = max((t for cases in times.values() for t in cases), default=0.0)
        timeout, per_test = 2 * took + 10, int(5 * slowest) + 10
        fastest = sorted(times, key=lambda f: sum(times[f]))
        log("%d mutants of %d functions, %d workers; the suite took %.0f s, its slowest test "
            "%.1f s, so a run times out at %.0f s, or at %d s in one test"
            % (len(made), sum(map(len, scope.values())), workers, took, slowest, timeout, per_test))

        def run(name, module, path, original, mutated):
            own = [f for f in OWN_TESTS.get(module, ["tests/test_%s.py" % module]) if f in times]
            copy = copies.get()
            try:
                (copy / path).write_text(mutated, encoding="utf-8")
                verdict = run_suite(copy, own + [f for f in fastest if f not in own],
                                    timeout, per_test)
            finally:
                (copy / path).write_text(original, encoding="utf-8")
                copies.put(copy)
            if verdict != "killed":
                log("%s: %s" % (verdict, name))
            return verdict

        with ThreadPoolExecutor(workers) as pool:
            results = dict(zip((m[0] for m in made), pool.map(lambda m: run(*m), made)))
        for mutant in made:
            if mutant[0] in recheck and results[mutant[0]] != "survived":
                log("%s: %s with %d workers running; again alone"
                    % (results[mutant[0]], mutant[0], workers))
                results[mutant[0]] = run(*mutant)
        return results


def failures(results: dict, equivalent: dict) -> list:
    """One line per unlisted survivor and per stale EQUIVALENT entry."""
    survived = [name for name, verdict in results.items() if verdict == "survived"]
    return (["survived, not in EQUIVALENT: %s" % name
             for name in survived if name not in equivalent]
            + ["stale EQUIVALENT entry (killed, or no longer made): %s" % name
               for name in sorted(set(equivalent) - set(survived))])


def main() -> int:
    results = scan(ROOT, PACKAGE, SCOPE, recheck=EQUIVALENT)
    verdicts = list(results.values())
    print("%d killed (%d by a timeout), %d survived, %d listed as equivalent"
          % (len(verdicts) - verdicts.count("survived"), verdicts.count("timeout"),
             verdicts.count("survived"), len(EQUIVALENT)))
    lines = failures(results, EQUIVALENT)
    print("\n".join(lines) if lines else "every mutant is killed or listed")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
