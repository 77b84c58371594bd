"""JSON documents for actions and algebra elements.

All documents are strict: unknown and repeated keys are rejected, scalars
travel as strings ("5/6", "3") so no float ever enters the pipeline, and
serialization orders everything deterministically (carrier order for points,
identity first then encoding order for group elements).
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

from .actions import PartialAction, Relation, validate_partial_action
from .errors import DocumentError, PreconditionError, SkewRelError, ValidationFailure
from .fields import FieldSpec, PRIME_FIELD, RATIONALS
from .funalg import FunAlgElement, InducedAlgebraAction
from .groups import GroupSpec
from .relalg import RelElement
from .skew import SkewElement


@contextmanager
def _as_document_error():
    """Report a library error raised while reading a document as a DocumentError.

    A ValidationFailure passes through: it carries the axiom report.
    """
    try:
        yield
    except (DocumentError, ValidationFailure):
        raise
    except SkewRelError as exc:
        raise DocumentError(str(exc)) from exc


@contextmanager
def _printable():
    """Report an integer too long for str() as a PreconditionError."""
    try:
        yield
    except ValueError:      # Python 3.10.7 on limits int -> str conversion
        raise PreconditionError("result has an integer of more than %d digits, too long to print"
                                % sys.get_int_max_str_digits()) from None


def _require_keys(obj: dict, required, optional=(), what="object"):
    if not isinstance(obj, dict):
        raise DocumentError("%s must be a JSON object" % what)
    missing = [k for k in required if k not in obj]
    unknown = [k for k in obj if k not in required and k not in optional]
    if missing:
        raise DocumentError("%s is missing keys %s" % (what, missing))
    if unknown:
        raise DocumentError("%s has unknown keys %s" % (what, unknown))


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise DocumentError("%s must be a JSON string, got %s" % (what, json.dumps(value)))
    return value


def _integer(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError("%s must be a JSON integer, got %s" % (what, json.dumps(value)))
    return value


def _labels(value, what: str) -> list:
    if not (isinstance(value, list) and all(isinstance(x, str) for x in value)):
        raise DocumentError("%s must be a list of labels" % what)
    return value


def _parse_text(parse, text, what: str):
    """parse(text) for a JSON string; a library error becomes a DocumentError."""
    text = _string(text, what)
    with _as_document_error():
        return parse(text)


def parse_field(obj) -> FieldSpec:
    _require_keys(obj, ["kind"], ["modulus"], "field")
    with _as_document_error():
        if obj["kind"] == RATIONALS:
            _require_keys(obj, ["kind"], (), "rationals field")
            return FieldSpec(RATIONALS)
        if obj["kind"] == PRIME_FIELD:
            return FieldSpec(PRIME_FIELD, _integer(obj.get("modulus"), "modulus"))
    raise DocumentError("unknown field kind %r" % obj["kind"])


def parse_group(obj) -> GroupSpec:
    _require_keys(obj, ["kind"], ["n", "elements", "identity", "table"], "group")
    kind = obj.get("kind")
    with _as_document_error():
        if kind == "cyclic":
            _require_keys(obj, ["kind", "n"], (), "cyclic group")
            return GroupSpec.cyclic(_integer(obj["n"], "n"))
        if kind == "integers":
            _require_keys(obj, ["kind"], (), "integers group")
            return GroupSpec.integers()
        if kind == "table":
            _require_keys(obj, ["kind", "elements", "identity", "table"], (), "table group")
            known, table = set(_labels(obj["elements"], "elements")), obj["table"]
            if not (isinstance(table, list) and all(
                    isinstance(row, list) and all(isinstance(v, str) and v in known for v in row)
                    for row in table)):
                raise DocumentError("table must be a list of rows of element names")
            return GroupSpec.from_table(obj["elements"], obj["identity"], table)
    raise DocumentError("unknown group kind %r" % kind)


def parse_action_document(doc) -> tuple[FieldSpec, PartialAction]:
    """Parse and validate; raises ValidationFailure with the axiom report."""
    _require_keys(doc, ["field", "group", "set", "maps"], (), "action document")
    field = parse_field(doc["field"])
    group = parse_group(doc["group"])
    _labels(doc["set"], "set")
    maps = {}
    if not isinstance(doc["maps"], list):
        raise DocumentError("maps must be a list")
    for entry in doc["maps"]:
        _require_keys(entry, ["t", "pairs"], (), "map entry")
        t = _parse_text(group.parse, entry["t"], "group element")
        if not isinstance(entry["pairs"], list):
            raise DocumentError("pairs of h_%s must be a list" % t)
        pairs = {}
        for pair in entry["pairs"]:
            if len(_labels(pair, "map pair")) != 2:
                raise DocumentError("map pair must be [x, y]")
            if pair[0] in pairs:
                raise DocumentError("duplicate source %r in h_%s" % (pair[0], t))
            pairs[pair[0]] = pair[1]
        if t in maps:
            raise DocumentError("duplicate map entry for t=%s" % t)
        maps[t] = pairs
    with _as_document_error():
        action = PartialAction(group, doc["set"], maps)
    report = validate_partial_action(action)
    if not report.ok:
        with _printable():      # the report names group elements
            raise ValidationFailure(report)
    return field, action


def load_action(path) -> tuple[FieldSpec, PartialAction]:
    return parse_action_document(load_json(path))


def parse_funalg(field: FieldSpec, carrier, obj) -> FunAlgElement:
    if not isinstance(obj, dict):
        raise DocumentError("function element must be an object label -> scalar")
    with _as_document_error():      # raw values, then the constructor's check
        coeffs = {label: field.read(_string(text, "scalar")) for label, text in obj.items()}
        return FunAlgElement._raw((field, FunAlgElement._checked(carrier, coeffs)),
                                  field.reduce(coeffs))


def funalg_doc(f: FunAlgElement) -> dict:
    return {x: str(f.coeffs[x]) for x in f.support()}


def parse_skew(alpha: InducedAlgebraAction, doc) -> SkewElement:
    if not isinstance(doc, list):
        raise DocumentError("skew element must be a list of terms")
    terms = {}
    for entry in doc:
        _require_keys(entry, ["t", "coeffs"], (), "skew term")
        t = _parse_text(alpha.action.group.parse, entry["t"], "group element")
        if t in terms:
            raise DocumentError("duplicate term for t=%s" % t)
        terms[t] = parse_funalg(alpha.field, alpha.carrier, entry["coeffs"])
    with _as_document_error():
        return SkewElement(alpha, terms)


def skew_doc(u: SkewElement) -> list:
    with _printable():
        return [{"t": str(t), "coeffs": funalg_doc(a)} for t, a in u.sorted_terms()]


def parse_rel(field: FieldSpec, rel: Relation, doc) -> RelElement:
    if not isinstance(doc, list):
        raise DocumentError("relation element must be a list of entries")
    coeffs = {}
    with _as_document_error():      # raw values, then the constructor's check
        for entry in doc:
            _require_keys(entry, ["x", "y", "value"], (), "relation entry")
            key = (_string(entry["x"], "x"), _string(entry["y"], "y"))
            if key in coeffs:
                raise DocumentError("duplicate entry for (%s, %s)" % key)
            coeffs[key] = field.read(_string(entry["value"], "scalar"))
        return RelElement._raw((field, RelElement._checked(rel, coeffs)), field.reduce(coeffs))


def rel_doc(f: RelElement) -> list:
    with _printable():
        return [{"x": x, "y": y, "value": str(f.coeffs[(x, y)])} for (x, y) in f.support()]


def _unique_keys(pairs: list) -> dict:
    """The JSON object of these pairs; a repeated key raises ValueError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _value in pairs:
            if key in seen:
                raise ValueError("duplicate key %s" % json.dumps(key, ensure_ascii=False))
            seen.add(key)
    return obj


def load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:   # bad JSON, UTF-8, int size or nesting
        raise DocumentError("cannot read %s: %s" % (path, exc)) from exc


def dump_json(doc) -> str:
    with _printable():      # relation's subset count 2^k has over 4 300 digits from k = 14 285
        return json.dumps(doc, indent=2, sort_keys=False, ensure_ascii=False)
