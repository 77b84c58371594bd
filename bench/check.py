"""Output checks against the generators' own invariants; no skewrel imports.

Each check takes the command's stdout and returns None when it is right, or
a one-line reason when it is not.
"""

from __future__ import annotations

import json

import gen

MALFORMED = (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError)


def _load(text: str):
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, "stdout is not JSON: %s" % exc


def validate(fam: gen.Family, text: str):
    doc, err = _load(text)
    if err:
        return err
    want = {"command": "validate", "ok": True, "points": fam.points,
            "maps": len(fam.maps), "free": True}
    return None if doc == want else "validate reported %s, expected %s" % (doc, want)


def relation(fam: gen.Family, text: str):
    doc, err = _load(text)
    if err:
        return err
    index = {x: i for i, x in enumerate(fam.carrier)}
    pairs = sorted(fam.witness, key=lambda p: (index[p[0]], index[p[1]]))
    want = {"command": "relation",
            "pairs": [{"x": x, "y": y, "witness": fam.witness[(x, y)]} for x, y in pairs],
            "classes": fam.classes,
            "invariant_subset_count": fam.ideal_count}
    if doc == want:
        return None
    if not isinstance(doc, dict):
        return "relation output is not an object"
    wrong = [k for k in want if doc.get(k) != want[k]] or sorted(set(doc) - set(want))
    return "relation output differs in %s" % wrong


def ideals(fam: gen.Family, text: str):
    doc, err = _load(text)
    if err:
        return err
    if not isinstance(doc, dict) or doc.get("command") != "ideals" or set(doc) != {
            "command", "ideals"}:
        return "ideals output has the wrong shape"
    got = doc["ideals"]
    if not isinstance(got, list) or len(got) != fam.ideal_count:
        return "expected %d ideals" % fam.ideal_count
    for mask, ideal in enumerate(got):
        blocks = [b for i, b in enumerate(fam.classes) if mask >> i & 1]
        members = {x for b in blocks for x in b}
        want = {"invariant": [x for x in fam.carrier if x in members],
                "basis_size": sum(len(b) ** 2 for b in blocks),
                "generators": [{"x": b[0], "y": b[0]} for b in blocks]}
        if ideal != want:
            return "ideal %d differs from the union of classes %s" % (mask, blocks)
    return None


def _image(text: str, command: dict, key: str):
    doc, err = _load(text)
    if err:
        return None, err
    if not isinstance(doc, dict) or set(doc) != set(command) | {key}:
        return None, "output keys are %s" % (sorted(doc) if isinstance(doc, dict) else doc)
    if any(doc[k] != v for k, v in command.items()):
        return None, "output header is %s" % {k: doc[k] for k in command}
    return doc[key], None


def read_skew(fam: gen.Family, terms) -> dict:
    out = {}
    for term in terms:
        for x, text in term["coeffs"].items():
            out[(term["t"], x)] = gen.parse_scalar(text, fam.modulus)
    return out


def read_rel(fam: gen.Family, entries) -> dict:
    return {(e["x"], e["y"]): gen.parse_scalar(e["value"], fam.modulus) for e in entries}


def _compare(got: dict, want: dict, what: str):
    if got == want:
        return None
    wrong = sum(1 for k in set(got) | set(want) if got.get(k) != want.get(k))
    return "%s differs at %d of %d coefficients" % (what, wrong, len(want))


def mul_skew(fam: gen.Family, expected_conv: dict, text: str):
    """Gamma(u v) = Gamma(u) * Gamma(v), with Gamma and * computed here."""
    terms, err = _image(text, {"command": "mul", "algebra": "skew"}, "product")
    if err:
        return err
    try:
        image = gen.gamma(fam, read_skew(fam, terms))
    except MALFORMED as exc:
        return "skew product is malformed: %r" % exc
    return _compare(image, expected_conv, "Gamma(u v)")


def mul_rel(fam: gen.Family, expected_conv: dict, text: str):
    entries, err = _image(text, {"command": "mul", "algebra": "rel"}, "product")
    if err:
        return err
    try:
        got = read_rel(fam, entries)
    except MALFORMED as exc:
        return "convolution is malformed: %r" % exc
    return _compare(got, expected_conv, "Gamma(u) * Gamma(v)")


def gamma_fwd(fam: gen.Family, u: dict, text: str):
    entries, err = _image(text, {"command": "gamma", "direction": "fwd"}, "image")
    if err:
        return err
    try:
        got = read_rel(fam, entries)
    except MALFORMED as exc:
        return "Gamma(u) is malformed: %r" % exc
    return _compare(got, gen.gamma(fam, u), "Gamma(u)")


def gamma_inv(fam: gen.Family, u: dict, text: str):
    """Gamma^-1(Gamma(u)) = u."""
    terms, err = _image(text, {"command": "gamma", "direction": "inv"}, "image")
    if err:
        return err
    try:
        got = read_skew(fam, terms)
    except MALFORMED as exc:
        return "Gamma^-1 image is malformed: %r" % exc
    return _compare(got, u, "Gamma^-1(Gamma(u))")


def selftest(seed: int, trials: int, text: str):
    doc, err = _load(text)
    if err:
        return err
    if not isinstance(doc, dict) or doc.get("command") != "selftest":
        return "not a selftest report"
    if doc.get("seed") != seed or doc.get("trials") != trials:
        return "report is for seed %s, trials %s" % (doc.get("seed"), doc.get("trials"))
    failed = [s.get("name") for s in doc.get("suites", []) if s.get("failed") != 0]
    if doc.get("ok") is not True or failed or not doc.get("suites"):
        return "selftest not ok; failing suites %s" % failed
    return None
