"""Command-line interface.

Commands: validate, relation, ideals, mul, gamma, selftest. All results go
to stdout as JSON; diagnostics go to stderr. Exit codes: 0 success,
1 validation or precondition failure, 2 property failure, 3 I/O or parse
error, usage errors included.
"""

from __future__ import annotations

import argparse
import os
import sys

from .actions import (build_relation, check_free, enumerate_invariant_subsets,
                      equivalence_classes)
from .documents import (dump_json, load_action, load_json, parse_rel, parse_skew,
                        rel_doc, skew_doc)
from .errors import (DocumentError, PreconditionError, StructureError,
                     ValidationFailure)
from .funalg import InducedAlgebraAction
from .groups import INTEGER_LITERAL
from .relalg import gamma, gamma_inv
from .selftest import run_selftest

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PROPERTY = 2
EXIT_IO = 3

# ideals lists 2^k ideals for k classes; above this many classes it refuses.
MAX_IDEAL_CLASSES = 16

# Every character str.splitlines() breaks at, escaped, so that a diagnostic
# quoting a document's labels stays on one line.
_ESCAPED_BREAKS = {ord(c): ascii(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _write(text: str, end="\n"):
    """Write text to stdout and flush; a failed write or flush raises DocumentError."""
    try:
        print(text, end=end, flush=True)
    except OSError as exc:
        # Send what stays buffered to devnull, so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise DocumentError("cannot write to stdout: %s" % (exc.strerror or exc)) from None


def _emit(doc) -> int:
    """Write one document to stdout through _write."""
    _write(dump_json(doc))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Prints help to stdout through _write: argparse's own writer ignores an OSError."""

    def print_help(self, file=None):
        if file is None:
            _write(self.format_help(), end="")
        else:
            super().print_help(file)


def _free_relation(path):
    field, action = load_action(path)
    rep = check_free(action)
    if not rep.free:
        t, x = rep.counterexample
        raise PreconditionError("action is not free: h_%s fixes %s" % (t, x))
    return field, action, build_relation(action)


def cmd_validate(args) -> int:
    field, action = load_action(args.action)
    return _emit({
        "command": "validate",
        "ok": True,
        "points": len(action.carrier),
        "maps": len(action.listed()),
        "free": check_free(action).free,
    })


def cmd_relation(args) -> int:
    field, action, rel = _free_relation(args.action)
    classes = equivalence_classes(rel)
    return _emit({
        "command": "relation",
        "pairs": [{"x": x, "y": y, "witness": str(rel.witnesses(x, y)[0])}
                  for (x, y) in rel.sorted_pairs()],
        "classes": classes,
        "invariant_subset_count": 1 << len(classes),
    })


def cmd_ideals(args) -> int:
    field, action, rel = _free_relation(args.action)
    classes = rel.classes
    if len(classes) > MAX_IDEAL_CLASSES:
        raise PreconditionError("ideals lists at most %d classes (2^%d ideals); this action has %d"
                                % (MAX_IDEAL_CLASSES, MAX_IDEAL_CLASSES, len(classes)))
    # Subset number mask unions the classes i with bit i set: dimension sum |C|^2.
    # enumerate_invariant_subsets checks that the components in rel.classes are R's classes.
    ideals = []
    for mask, invariant in enumerate(enumerate_invariant_subsets(rel)):
        chosen = [block for i, block in enumerate(classes) if mask >> i & 1]
        ideals.append({
            "invariant": invariant,
            "basis_size": sum(len(block) ** 2 for block in chosen),
            "generators": [{"x": block[0], "y": block[0]} for block in chosen],
        })
    return _emit({"command": "ideals", "ideals": ideals})


def cmd_mul(args) -> int:
    if args.algebra == "rel":
        field, _action, rel = _free_relation(args.action)
        lhs = parse_rel(field, rel, load_json(args.lhs))
        rhs = parse_rel(field, rel, load_json(args.rhs))
        return _emit({"command": "mul", "algebra": "rel", "product": rel_doc(lhs * rhs)})
    field, action = load_action(args.action)
    alpha = InducedAlgebraAction(field, action, validate=False)
    lhs = parse_skew(alpha, load_json(args.lhs))
    rhs = parse_skew(alpha, load_json(args.rhs))
    return _emit({"command": "mul", "algebra": "skew", "product": skew_doc(lhs * rhs)})


def cmd_gamma(args) -> int:
    field, action, rel = _free_relation(args.action)
    alpha = InducedAlgebraAction(field, action, validate=False)
    if args.dir == "fwd":
        u = parse_skew(alpha, load_json(args.element))
        return _emit({"command": "gamma", "direction": "fwd",
                      "image": rel_doc(gamma(rel, u))})
    f = parse_rel(field, rel, load_json(args.element))
    return _emit({"command": "gamma", "direction": "inv",
                  "image": skew_doc(gamma_inv(alpha, f))})


def cmd_selftest(args) -> int:
    custom = load_action(args.action) if args.action is not None else None
    report = run_selftest(args.seed, args.trials, custom=custom,
                          corrupt_skew_mul=args.corrupt_skew_mul)
    _emit(report)
    return EXIT_OK if report["ok"] else EXIT_PROPERTY


def integer(text: str) -> int:
    """int(text) for an ASCII literal -?[0-9]+, as documents read group elements."""
    if not INTEGER_LITERAL.fullmatch(text):
        raise ValueError(text)
    return int(text)


def non_negative_int(text: str) -> int:
    value = integer(text)
    if text.startswith("-"):        # "-0" too: a count is [0-9]+
        raise argparse.ArgumentTypeError("must be at least 0, got %s" % text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skewrel",
        description="Partial skew group rings as equivalence-relation algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a partial-action document")
    p.add_argument("action")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("relation", help="print R, its classes and the subset count")
    p.add_argument("action")
    p.set_defaults(func=cmd_relation)

    p = sub.add_parser("ideals", help="print the ideal lattice of F0(R)")
    p.add_argument("action")
    p.set_defaults(func=cmd_ideals)

    p = sub.add_parser("mul", help="multiply two elements")
    p.add_argument("--algebra", choices=["skew", "rel"], required=True)
    p.add_argument("action")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("gamma", help="apply the isomorphism or its inverse")
    p.add_argument("--dir", choices=["fwd", "inv"], required=True)
    p.add_argument("action")
    p.add_argument("element")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("selftest", help="run the seeded property battery")
    p.add_argument("--action", default=None)
    p.add_argument("--seed", type=integer, required=True)
    p.add_argument("--trials", type=non_negative_int, required=True)
    p.add_argument("--corrupt-skew-mul", action="store_true",
                   help=argparse.SUPPRESS)  # fault-injection hook for testing
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:   # argparse exits 0 after --help, 2 after its usage message
            return EXIT_IO if exc.code else EXIT_OK
        try:
            return args.func(args)
        except ValidationFailure as exc:
            lines = exc.report.render()
            _emit({"ok": False, "violations": lines})
            print("\n".join(lines), file=sys.stderr)
            return EXIT_INVALID
    except (PreconditionError, StructureError, DocumentError) as exc:
        print(str(exc).translate(_ESCAPED_BREAKS), file=sys.stderr)
        return EXIT_IO if isinstance(exc, DocumentError) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
