"""List the functions of src/skewrel that neither the CLI nor the demos enter.

Runs tests/test_golden.py and tests/test_cli.py (which drive every CLI command,
selftest included, in this process) and the three demos under sys.settrace. A
function of src/skewrel counts as entered only if a call enters it while
``skewrel.cli.main`` or a demo is running: a test's direct library calls do not
count, so a name that only tests use shows up here. Each function or method
defined in src/skewrel that no such call entered must be on ALLOWED below, with
its reason: held by the benchmark's tracer, library API with the test that covers
it, or a repr or pickling hook. Anything else is dead code: delete it, or move a
test-only helper to tests/.

    python tools/dead_code.py          # exit 0: every unentered function is allowed

Exits 1 when an unentered function is not allowed, and when an allowed name is
stale: the run entered it, or it is no longer defined. So the allowlist shrinks
with the code. The traced run takes about 12 s on a 2-core machine, so it runs as
a CI step rather than in the test suite; tests/test_api_surface.py checks the
allowlist's names and test ids statically, without tracing.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skewrel"
TESTS = ["tests/test_golden.py", "tests/test_cli.py"]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

BENCH = "held by the benchmark's tracer (bench/tracing.py)"
HOOK = "a repr or pickling hook"
ALLOWED = {
    "actions.PartialAction.check_elements": BENCH,
    "skew.SkewElement.terms": BENCH,
    "fields.Scalar.__add__": BENCH,
    "fields.Scalar.__neg__": BENCH,
    "fields.Scalar.inverse": BENCH,
    "actions.Relation.__eq__":
        "tests/test_relalg.py::TestConvolution::test_context_compared_by_value",
    "fields.Scalar.__hash__": "tests/test_fields.py::test_scalar_semantics",
    "errors.Value._immutable": "tests/test_values.py::test_attributes_cannot_be_set_or_deleted",
    "funalg.SparseSum.__neg__": "tests/test_funalg.py::TestArithmetic::test_add_canonicalizes",
    "funalg.SparseSum.__sub__": "tests/test_funalg.py::TestArithmetic::test_add_canonicalizes",
    "funalg.InducedAlgebraAction.__eq__":
        "tests/test_skew.py::TestAddition::test_equal_actions_built_apart_mix",
    "skew.SkewElement.scale": "tests/test_skew.py::TestAddition::test_cancellation",
    "groups.GroupElement.is_identity":
        "tests/test_groups.py::test_inverse_and_sort_key_match_their_reference_formulas",
    "errors.Value.__reduce__": HOOK,
    "fields.FieldSpec._args": HOOK,
    "fields.Scalar._args": HOOK,
    "groups.GroupSpec._args": HOOK,
    "groups.GroupElement._args": HOOK,
    "actions.PartialAction.__repr__": HOOK,
    "actions.Relation.__repr__": HOOK,
    "fields.FieldSpec.__repr__": HOOK,
    "fields.Scalar.__repr__": HOOK,
    "fields.Scalar.__str__": HOOK,
    "groups.GroupSpec.__repr__": HOOK,
    "groups.GroupElement.__repr__": HOOK,
}


def defined_functions() -> dict:
    """(file, first line of the code object) -> 'module.Qualified.name', for every def."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path), first] = prefix + child.name
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
        visit(ast.parse(path.read_text(), str(path)), module + ".")
    return found


def traced_run() -> set:
    """(file, first line) of every code object in src/skewrel that a call entered
    while cli.main or a demo was running."""
    from skewrel import cli

    entered, package, main_code = set(), str(PACKAGE) + os.sep, cli.main.__code__
    running = [0]               # cli.main frames open, plus one while a demo runs

    def leave_main(frame, event, arg):
        if event == "return":   # also when an exception unwinds the frame
            running[0] -= 1
        return leave_main

    def tracer(frame, event, arg):
        code = frame.f_code
        opens = code is main_code
        running[0] += opens
        if running[0] and code.co_filename.startswith(package):
            entered.add((code.co_filename, code.co_firstlineno))
        if opens:               # cli.main's local tracer sees it return, and no lines
            frame.f_trace_lines = False
            return leave_main
        return None             # no line events: calls alone are enough

    import pytest
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *TESTS])
        running[0] += 1
        with contextlib.redirect_stdout(io.StringIO()):
            for demo in DEMOS:
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.settrace(None)
    if status != 0:
        sys.exit("the traced tests failed (pytest exit %d)" % status)
    return entered


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    defined = defined_functions()
    entered = traced_run()
    unentered = sorted(name for key, name in defined.items() if key not in entered)
    dead = [name for name in unentered if name not in ALLOWED]
    stale = sorted(set(ALLOWED) - set(unentered))
    print("%d functions defined, %d not entered, %d allowed" %
          (len(defined), len(unentered), len(unentered) - len(dead)))
    for name in stale:
        print("stale allowlist entry (entered, or no longer defined): %s" % name)
    for name in dead:
        print("not entered and not allowed: %s" % name)
    return 1 if dead or stale else 0


if __name__ == "__main__":
    sys.exit(main())
