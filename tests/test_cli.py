import json
import os
import random
import subprocess
import sys
import time

import pytest

from skewrel import actions, cli
from skewrel.actions import (PartialAction, build_relation, enumerate_invariant_subsets,
                             equivalence_classes)
from skewrel.cli import build_parser, main
from skewrel.documents import dump_json, parse_action_document
from skewrel.errors import DocumentError, ValidationFailure
from skewrel.fixtures import GF5, RATIONALS_FIELD, e1_action, e2_action
from skewrel.groups import GroupSpec
from skewrel.relalg import RelIdeal

from helpers import action_doc
from strategies import draw_any

E1_DOC = {
    "field": {"kind": "rationals"},
    "group": {"kind": "cyclic", "n": 2},
    "set": ["a", "b", "c"],
    "maps": [{"t": "1", "pairs": [["a", "b"], ["b", "a"]]}],
}

E2_DOC = {
    "field": {"kind": "rationals"},
    "group": {"kind": "integers"},
    "set": ["1", "2", "3"],
    "maps": [
        {"t": "1", "pairs": [["1", "2"], ["2", "3"]]},
        {"t": "2", "pairs": [["1", "3"]]},
    ],
}

E1_GF5_DOC = dict(E1_DOC, field={"kind": "prime-field", "modulus": 5})

Z2_TABLE = {"kind": "table", "elements": ["e", "g"], "identity": "e",
            "table": [["e", "g"], ["g", "e"]]}
Z2_DOC = dict(E1_DOC, group=Z2_TABLE, maps=[{"t": "g", "pairs": [["a", "b"], ["b", "a"]]}])


# int() alone reads "1_0" as 10, " 3" and "+3" as 3, and U+0663 as 3; --seed and
# --trials take ASCII digits only, as documents do.
INT_LOOKALIKES = ["1_0", " 3", "+3", "\u0663", "3.0", "9" * 5000]


def write(tmp_path, name, doc):
    """Write doc as JSON, or verbatim when it is bytes."""
    path = tmp_path / name
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode("utf-8"))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_document(tmp_path, capsys, doc, algebra, element):
    """validate the action document, or, given an algebra, mul element by itself over it."""
    action = write(tmp_path, "action.json", doc)
    if algebra is None:
        return run(capsys, "validate", action)
    elem = write(tmp_path, "elem.json", element)
    return run(capsys, "mul", "--algebra", algebra, action, elem, elem)


class TestDocuments:
    def test_e1_parses_to_fixture(self):
        field, action = parse_action_document(E1_DOC)
        assert field == RATIONALS_FIELD
        assert action == e1_action()

    def test_e2_parses_to_fixture(self):
        field, action = parse_action_document(E2_DOC)
        assert action == e2_action()

    def test_serialization_round_trip(self):
        for field, action in [(RATIONALS_FIELD, e1_action()), (GF5, e2_action())]:
            doc = action_doc(field, action)
            field2, action2 = parse_action_document(doc)
            assert (field2, action2) == (field, action)

    def test_unknown_keys_rejected(self):
        doc = dict(E1_DOC)
        doc["extra"] = 1
        with pytest.raises(DocumentError, match="unknown keys"):
            parse_action_document(doc)

    def test_invalid_action_reports_axiom(self):
        doc = dict(E2_DOC)
        doc["maps"] = [E2_DOC["maps"][0]]
        with pytest.raises(ValidationFailure) as excinfo:
            parse_action_document(doc)
        assert any("axiom 2 at (t,s)=(1,1)" in line
                   for line in excinfo.value.report.render())

    def test_empty_action(self):
        doc = {"field": {"kind": "rationals"},
               "group": {"kind": "cyclic", "n": 1},
               "set": [], "maps": []}
        field, action = parse_action_document(doc)
        assert action.carrier == ()


class TestCommands:
    def test_validate_ok(self, tmp_path, capsys):
        code, out, _ = run(capsys, "validate", write(tmp_path, "e1.json", E1_DOC))
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] and doc["points"] == 3 and doc["maps"] == 1

    def test_validate_failure_exit_1(self, tmp_path, capsys):
        bad = dict(E2_DOC)
        bad["maps"] = [E2_DOC["maps"][0]]
        code, out, err = run(capsys, "validate", write(tmp_path, "bad.json", bad))
        assert code == 1
        assert "axiom 2 at (t,s)=(1,1)" in err
        assert not json.loads(out)["ok"]

    def test_parse_error_exit_3(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _out, err = run(capsys, "validate", str(path))
        assert code == 3 and err

    @pytest.mark.parametrize("argv, message", [
        (["validate"], "the following arguments are required: action"),
        (["selftest", "--seed", "1", "--trials", "-3"], "argument --trials: must be at least 0"),
        (["selftest", "--seed", "1", "--trials", "three"], "argument --trials: invalid"),
        (["frobnicate"], "argument command: invalid choice"),
        (["selftest", "--seed", "1", "--trials", "-0"], "argument --trials: must be at least 0"),
    ] + [(["selftest", "--seed", text, "--trials", "1"], "argument --seed: invalid")
         for text in INT_LOOKALIKES]
      + [(["selftest", "--seed", "1", "--trials", text], "argument --trials: invalid")
         for text in INT_LOOKALIKES])
    def test_usage_error_exit_3(self, capsys, argv, message):
        # 2 is the property-failure code; a usage error is a parse error.
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("usage: skewrel") and "error: " + message in err

    def test_seed_may_be_negative(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "-3", "--trials", "0")
        assert code == 0 and json.loads(out)["seed"] == -3

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "selftest", "--help")
        assert code == 0 and out.startswith("usage: skewrel selftest")

    @pytest.mark.parametrize("doc, algebra, element", [
        (dict(E1_DOC, maps=[{"t": "1", "pairs": 5}]), None, None),
        (E1_DOC, "skew", [{"t": "1", "coeffs": {"a": 3}}]),
        (E1_DOC, "rel", [{"x": "a", "y": "b", "value": 3}]),
        (dict(E1_DOC, maps=[{"t": "1", "pairs": [[["a"], "b"]]}]), None, None),
        (dict(E1_DOC, maps=[{"t": "1", "pairs": [["a", ["b"]]]}]), None, None),
        (E1_DOC, "rel", [{"x": ["a"], "y": "b", "value": "1"}]),
        (E1_DOC, "rel", [{"x": "a", "y": ["b"], "value": "1"}]),
        (dict(E1_DOC, group={"kind": "cyclic", "n": "2"}), None, None),
        (dict(E1_DOC, group={"kind": "cyclic", "n": 2.5}), None, None),
        (dict(E1_DOC, group={"kind": "cyclic", "n": True}, maps=[]), None, None),
        (dict(E1_DOC, field={"kind": "prime-field", "modulus": "7"}), None, None),
        (dict(E1_DOC, field={"kind": "prime-field",
                             "modulus": 318665857834031151167461}), None, None),
        (dict(E1_DOC, maps=[{"t": [1], "pairs": [["a", "b"], ["b", "a"]]}]), None, None),
        (dict(E1_DOC, maps=[{"t": 1, "pairs": [["a", "b"], ["b", "a"]]}]), None, None),
        (E1_DOC, "skew", [{"t": [1], "coeffs": {"a": "3"}}]),
        (dict(Z2_DOC, group=dict(Z2_TABLE, table=[["e", "g"], ["g", "x"]])), None, None),
        (dict(Z2_DOC, group=dict(Z2_TABLE, table=[["e", "g"], ["g", 0]])), None, None),
        (dict(Z2_DOC, group=dict(Z2_TABLE, table=5)), None, None),
        (dict(Z2_DOC, group=dict(Z2_TABLE, table=[5, 5])), None, None),
        (dict(Z2_DOC, group=dict(Z2_TABLE, elements=5)), None, None),
        (dict(Z2_DOC, group=dict(Z2_TABLE, elements=[["e"], "g"])), None, None),
    ] + [(E1_DOC, "rel", [{"x": "a", "y": "b", "value": text}])
         for text in ["1_000", " +3", "+3", "3 ", "1/-2", "\u0663"]]
      + [(dict(E1_DOC, maps=[{"t": text, "pairs": [["a", "b"], ["b", "a"]]}]), None, None)
         for text in ["1_0", "1_1", " 1"]]
      + [(dict(E1_DOC, maps=[{"t": "1", "pairs": [[label, "b"]]}]), None, None)
         for label in ["a\nb", "\r", "\x85", "\u2028"]]
      + [(E1_DOC, "rel", [{"x": "a\nb", "y": "b", "value": "1"}])]
      # A denominator that is a multiple of the modulus is zero in GF(p).
      + [(E1_GF5_DOC, "skew", [{"t": "1", "coeffs": {"a": "1/5"}}]),
         (E1_GF5_DOC, "rel", [{"x": "a", "y": "b", "value": "3/10"}])]
      # Past Python's 4 300-digit int limit, and not UTF-8: json.load raises ValueError.
      + [pytest.param(json.dumps(E1_DOC).replace('"n": 2', '"n": 1' + "0" * 4999).encode(),
                      None, None, id="n-of-5000-digits"),
         pytest.param(b"\xff", None, None, id="byte-0xff"),
         pytest.param(E1_DOC, "rel", [{"x": "a", "y": "b", "value": "9" * 5000}],
                      id="scalar-of-5000-digits"),
         pytest.param(dict(E1_DOC, maps=[{"t": "1" * 5000, "pairs": [["a", "b"], ["b", "a"]]}]),
                      None, None, id="t-of-5000-digits")]
      # json.load raises RecursionError.
      + [pytest.param(b"[" * 200000 + b"]" * 200000, None, None, id="action-nested-200000-deep"),
         pytest.param(E1_DOC, "rel", b"[" * 200000 + b"]" * 200000,
                      id="element-nested-200000-deep")]
      # A rationals field takes no modulus key.
      + [pytest.param(dict(E1_DOC, field={"kind": "rationals", "modulus": 5}), None, None,
                      id="rationals-modulus-5"),
         pytest.param(dict(E1_DOC, field={"kind": "rationals", "modulus": None}), None, None,
                      id="rationals-modulus-null")])
    def test_malformed_document_exit_3(self, tmp_path, capsys, doc, algebra, element):
        code, _out, err = run_document(tmp_path, capsys, doc, algebra, element)
        assert code == 3
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("doc, algebra, element, message", [
        pytest.param(dict(E1_DOC, maps=5), None, None, "maps must be a list", id="maps-not-list"),
        pytest.param(dict(E1_DOC, maps=[{"t": "1", "pairs": [["a", "b"], ["a", "c"]]}]),
                     None, None, "duplicate source 'a' in h_1", id="duplicate-source"),
        pytest.param(dict(E1_DOC, maps=E1_DOC["maps"] * 2), None, None,
                     "duplicate map entry for t=1", id="duplicate-map-entry"),
        pytest.param(E1_DOC, "skew", [{"t": "1", "coeffs": 5}],
                     "function element must be an object label -> scalar", id="coeffs-not-object"),
        pytest.param(E1_DOC, "skew", {"t": "1"}, "skew element must be a list of terms",
                     id="skew-not-list"),
        pytest.param(E1_DOC, "skew", [{"t": "1", "coeffs": {"a": "1"}}] * 2,
                     "duplicate term for t=1", id="duplicate-term"),
        pytest.param(E1_DOC, "rel", [{"x": "a", "y": "b", "value": "1"}] * 2,
                     "duplicate entry for (a, b)", id="duplicate-rel-entry"),
        pytest.param(E1_DOC, "skew", [{"t": "1", "coeffs": {"zzz": "1"}}],
                     "zzz is not a carrier point", id="coefficient-off-carrier"),
        # A zero denominator names the literal; over GF(p) it is any multiple of p.
        pytest.param(E1_DOC, "rel", [{"x": "a", "y": "b", "value": "1/0"}],
                     "scalar literal '1/0': zero denominator", id="zero-denominator-q"),
        pytest.param(E1_GF5_DOC, "skew", [{"t": "1", "coeffs": {"a": "1/5"}}],
                     "scalar literal '1/5': denominator 5 is zero mod 5",
                     id="zero-denominator-gf5"),
        # A repeated key is refused where the JSON is read, whichever value would win.
        pytest.param(json.dumps(E1_DOC)[:-1].encode() + b', "maps": []}', None, None,
                     'cannot read TMP/action.json: duplicate key "maps"', id="duplicate-key-maps"),
        pytest.param(E1_DOC, "skew", b'[{"t": "1", "coeffs": {"a": "1", "a": "2"}}]',
                     'cannot read TMP/elem.json: duplicate key "a"', id="duplicate-key-in-term"),
    ])
    def test_malformed_document_message(self, tmp_path, capsys, doc, algebra, element, message):
        message = message.replace("TMP", str(tmp_path))
        assert run_document(tmp_path, capsys, doc, algebra, element) == (3, "", message + "\n")

    def test_help_writes_argparse_text_and_exits_0(self, capsys):
        assert run(capsys, "--help") == (0, build_parser().format_help(), "")
        code, out, err = run(capsys, "ideals", "--help")
        assert (code, err) == (0, "") and out.startswith("usage: skewrel ideals [-h] action\n")

    def test_table_group_document(self, tmp_path, capsys):
        code, out, _ = run(capsys, "validate", write(tmp_path, "z2.json", Z2_DOC))
        assert code == 0 and json.loads(out)["free"]

    def test_large_prime_modulus_validates_quickly(self, tmp_path, capsys):
        doc = dict(E1_DOC, field={"kind": "prime-field", "modulus": 2 ** 61 - 1})
        path = write(tmp_path, "e1.json", doc)
        start = time.perf_counter()
        code, out, _ = run(capsys, "validate", path)
        assert time.perf_counter() - start < 1.0
        assert code == 0 and json.loads(out)["ok"]

    def test_huge_cyclic_group_validates_quickly(self, tmp_path, capsys):
        # The violations sit at the same (t, s), named mod n.
        expected = run(capsys, "validate",
                       write(tmp_path, "n400.json", dict(E1_DOC, group={"kind": "cyclic",
                                                                       "n": 400})))
        path = write(tmp_path, "huge.json", dict(E1_DOC, group={"kind": "cyclic",
                                                               "n": 10 ** 12}))
        start = time.perf_counter()
        code, out, err = run(capsys, "validate", path)
        assert time.perf_counter() - start < 1.0
        assert code == expected[0] == 1
        assert err == expected[2].replace("399", "999999999999").replace("398", "999999999998")

    def test_relation(self, tmp_path, capsys):
        code, out, _ = run(capsys, "relation", write(tmp_path, "e1.json", E1_DOC))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["pairs"]) == 5
        assert doc["classes"] == [["a", "b"], ["c"]]
        assert doc["invariant_subset_count"] == 4

    def test_relation_with_an_unprintable_subset_count_exits_1(self, capsys, monkeypatch):
        # 2^14300 has 4305 digits, past Python's 4300-digit limit on int -> str. Reading
        # and validating a 14300-point document takes seconds, so the action is built here.
        action = PartialAction(GroupSpec.cyclic(1), ["p%d" % i for i in range(14300)], {})
        monkeypatch.setattr(cli, "load_action", lambda path: (RATIONALS_FIELD, action))
        code, out, err = run(capsys, "relation", "trivial-14300.json")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("result has an integer of more than")

    def test_relation_e2(self, tmp_path, capsys):
        code, out, _ = run(capsys, "relation", write(tmp_path, "e2.json", E2_DOC))
        doc = json.loads(out)
        assert len(doc["pairs"]) == 9
        assert doc["invariant_subset_count"] == 2

    def test_relation_refuses_non_free(self, tmp_path, capsys):
        doc = dict(E1_DOC)
        doc["maps"] = [{"t": "1", "pairs": [["a", "b"], ["b", "a"], ["c", "c"]]}]
        code, _out, err = run(capsys, "relation", write(tmp_path, "nf.json", doc))
        assert code == 1
        assert "fixes c" in err

    def test_mul_rel_refuses_non_free_like_relation(self, tmp_path, capsys):
        doc = dict(E1_DOC, maps=[{"t": "1", "pairs": [["a", "b"], ["b", "a"], ["c", "c"]]}])
        elem = write(tmp_path, "elem.json", [{"x": "a", "y": "b", "value": "1"}])
        code, out, err = run(capsys, "mul", "--algebra", "rel",
                             write(tmp_path, "nf.json", doc), elem, elem)
        assert (code, out, err) == (1, "", "action is not free: h_1 fixes c\n")

    def test_ideals(self, tmp_path, capsys):
        code, out, _ = run(capsys, "ideals", write(tmp_path, "e1.json", E1_DOC))
        doc = json.loads(out)
        assert [i["basis_size"] for i in doc["ideals"]] == [0, 4, 1, 5]
        code, out, _ = run(capsys, "ideals", write(tmp_path, "e2.json", E2_DOC))
        doc = json.loads(out)
        assert [i["basis_size"] for i in doc["ideals"]] == [0, 9]

    def test_ideals_checks_equivalence_a_fixed_number_of_times(self, tmp_path, capsys,
                                                               monkeypatch):
        calls = []
        check = actions.verify_equivalence
        monkeypatch.setattr(actions, "verify_equivalence",
                            lambda rel: calls.append(rel) or check(rel))
        counts = []
        for k in (1, 5):
            doc = {"field": {"kind": "rationals"}, "group": {"kind": "cyclic", "n": 1},
                   "set": ["p%d" % i for i in range(k)], "maps": []}
            calls.clear()
            code, out, _ = run(capsys, "ideals", write(tmp_path, "triv.json", doc))
            assert code == 0 and len(json.loads(out)["ideals"]) == 1 << k
            counts.append(len(calls))
        assert counts == [1, 1]

    def test_ideals_refuses_more_than_sixteen_classes(self, tmp_path, capsys):
        # 17 fixed points are 17 classes, so 2^17 ideals: refused before enumerating.
        doc = {"field": {"kind": "rationals"}, "group": {"kind": "cyclic", "n": 1},
               "set": ["p%d" % i for i in range(17)], "maps": []}
        path = write(tmp_path, "triv17.json", doc)
        start = time.process_time()
        code, out, err = run(capsys, "ideals", path)
        assert time.process_time() - start < 1.0
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "at most 16 classes" in err

    def test_mul_skew(self, tmp_path, capsys):
        action = write(tmp_path, "e1.json", E1_DOC)
        lhs = write(tmp_path, "lhs.json", [{"t": "1", "coeffs": {"a": "1"}}])
        rhs = write(tmp_path, "rhs.json", [{"t": "1", "coeffs": {"b": "1"}}])
        code, out, _ = run(capsys, "mul", "--algebra", "skew", action, lhs, rhs)
        assert code == 0
        assert json.loads(out)["product"] == [{"t": "0", "coeffs": {"a": "1"}}]

    def test_mul_rel(self, tmp_path, capsys):
        action = write(tmp_path, "e1.json", E1_DOC)
        lhs = write(tmp_path, "lhs.json", [{"x": "a", "y": "b", "value": "1"}])
        rhs = write(tmp_path, "rhs.json", [{"x": "b", "y": "a", "value": "1"}])
        code, out, _ = run(capsys, "mul", "--algebra", "rel", action, lhs, rhs)
        assert json.loads(out)["product"] == [{"x": "a", "y": "a", "value": "1"}]

    def test_mul_by_zero(self, tmp_path, capsys):
        action = write(tmp_path, "e1.json", E1_DOC)
        lhs = write(tmp_path, "lhs.json", [{"t": "1", "coeffs": {"a": "1"}}])
        rhs = write(tmp_path, "rhs.json", [])
        code, out, _ = run(capsys, "mul", "--algebra", "skew", action, lhs, rhs)
        assert json.loads(out)["product"] == []

    def test_mul_support_violation(self, tmp_path, capsys):
        action = write(tmp_path, "e1.json", E1_DOC)
        lhs = write(tmp_path, "lhs.json", [{"t": "1", "coeffs": {"c": "1"}}])
        rhs = write(tmp_path, "rhs.json", [])
        code, _out, err = run(capsys, "mul", "--algebra", "skew", action, lhs, rhs)
        assert code == 3 and "support" in err

    @pytest.mark.parametrize("algebra, element", [
        ("rel", lambda value: [{"x": "a", "y": "a", "value": value}]),
        ("skew", lambda value: [{"t": "0", "coeffs": {"a": value}}]),
    ], ids=["rel", "skew"])
    def test_product_past_the_digit_limit_exit_1(self, tmp_path, capsys, algebra, element):
        # Python 3.10.7 on refuses str() of an int of more than 4 300 digits.
        action = write(tmp_path, "e1.json", E1_DOC)
        elem = write(tmp_path, "elem.json", element("1" * 3000))
        code, out, err = run(capsys, "mul", "--algebra", algebra, action, elem, elem)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "too long to print" in err

    def test_violation_past_the_digit_limit_exit_1(self, tmp_path, capsys):
        # h_t of E2 without h_2 breaks the axioms; the violations name -2t, of 4 301 digits.
        doc = dict(E2_DOC, maps=[{"t": "9" * 4300, "pairs": [["1", "2"], ["2", "3"]]}])
        code, out, err = run(capsys, "validate", write(tmp_path, "big.json", doc))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "too long to print" in err

    def test_product_of_2000_digits_prints_exactly(self, tmp_path, capsys):
        action = write(tmp_path, "e1.json", E1_DOC)
        elem = write(tmp_path, "elem.json", [{"x": "a", "y": "a", "value": "1" * 1000}])
        code, out, _ = run(capsys, "mul", "--algebra", "rel", action, elem, elem)
        assert code == 0
        assert json.loads(out)["product"] == [{"x": "a", "y": "a",
                                               "value": str(int("1" * 1000) ** 2)}]

    def test_gamma_round_trip_byte_exact(self, tmp_path, capsys):
        action = write(tmp_path, "e2.json", E2_DOC)
        elem = [{"t": "1", "coeffs": {"2": "1/2"}}, {"t": "2", "coeffs": {"3": "3"}}]
        path = write(tmp_path, "elem.json", elem)
        code, out, _ = run(capsys, "gamma", "--dir", "fwd", action, path)
        assert code == 0
        image = json.loads(out)["image"]
        path2 = write(tmp_path, "image.json", image)
        code, out2, _ = run(capsys, "gamma", "--dir", "inv", action, path2)
        assert json.loads(out2)["image"] == elem

    def test_gamma_forward_example(self, tmp_path, capsys):
        action = write(tmp_path, "e1.json", E1_DOC)
        path = write(tmp_path, "elem.json", [{"t": "1", "coeffs": {"a": "1"}}])
        code, out, _ = run(capsys, "gamma", "--dir", "fwd", action, path)
        assert json.loads(out)["image"] == [{"x": "a", "y": "b", "value": "1"}]


class TestSelftestCommand:
    def test_deterministic_report(self, capsys):
        code1, out1, _ = run(capsys, "selftest", "--seed", "42", "--trials", "25")
        code2, out2, _ = run(capsys, "selftest", "--seed", "42", "--trials", "25")
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["ok"]

    def test_different_seed_different_stream(self, capsys):
        _, out1, _ = run(capsys, "selftest", "--seed", "1", "--trials", "10")
        _, out2, _ = run(capsys, "selftest", "--seed", "2", "--trials", "10")
        assert json.loads(out1)["ok"] and json.loads(out2)["ok"]

    def test_fault_injection_fails_associativity(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "42", "--trials", "10",
                           "--corrupt-skew-mul")
        assert code == 2
        doc = json.loads(out)
        assoc = next(s for s in doc["suites"] if s["name"] == "associativity")
        assert assoc["failed"] > 0
        assert assoc["failures"]

    def test_zero_trials_runs_only_the_fixed_checks(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "1", "--trials", "0")
        doc = json.loads(out)
        assert code == 0 and doc["ok"] and doc["trials"] == 0
        assert next(s for s in doc["suites"] if s["name"] == "associativity")["passed"] == 0

    def test_custom_action(self, tmp_path, capsys):
        path = tmp_path / "e1.json"
        path.write_text(json.dumps(E1_DOC), encoding="utf-8")
        code, out, _ = run(capsys, "selftest", "--action", str(path),
                           "--seed", "7", "--trials", "10")
        assert code == 0 and json.loads(out)["ok"]


def reference_ideals_doc(rel):
    """The ideals document as it was built before it read the class masks: an
    ideal per invariant subset, re-closed and re-checked, its basis listed to be
    counted, and the classes scanned for the generators."""
    classes = equivalence_classes(rel)
    ideals = []
    for members in enumerate_invariant_subsets(rel):
        ideal = RelIdeal(rel, members)
        ideals.append({
            "invariant": ideal.invariant,
            "basis_size": ideal.dimension,
            "generators": [{"x": block[0], "y": block[0]}
                           for block in classes if block[0] in members],
        })
    return {"command": "ideals", "ideals": ideals}


class TestIdealsMatchTheReference:
    def test_documents_are_byte_identical(self, tmp_path, capsys):
        rng = random.Random(44)
        classes = []
        for i in range(300):
            action = draw_any(rng, max_points=14, free_only=True, max_copies=10).action
            rel = build_relation(action)
            path = write(tmp_path, "action-%d.json" % i, action_doc(RATIONALS_FIELD, action))
            code, out, _ = run(capsys, "ideals", path)
            assert code == 0
            assert out == dump_json(reference_ideals_doc(rel)) + "\n"
            classes.append(len(rel.classes))
        assert max(classes) == 10 and min(classes) == 0 and sum(classes) > 900


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A success, a validation failure (exit 1 when its report can be written) and a
# selftest report; the relation document is 57 KB, the other two under 2 KB.
WRITE_CASES = {
    "relation": ["relation", "tests/data/cyc-8-12.json"],
    "validation-failure": ["validate", "tests/data/broken-z12-dropped-pair.json"],
    "selftest": ["selftest", "--seed", "1", "--trials", "1"],
}


def start_cli(argv, stdout, unbuffered=False):
    # Python's default buffered stdout, which holds a document until a flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "skewrel.cli", *argv], cwd=ROOT, env=env,
                            stdout=stdout, stderr=subprocess.PIPE, text=True)


def fill_pipe(fd):
    """Write to fd until the pipe is full, then leave fd blocking again."""
    os.set_blocking(fd, False)
    for chunk in (b"-" * 4096, b"-"):
        try:
            while True:
                os.write(fd, chunk)
        except BlockingIOError:
            pass
    os.set_blocking(fd, True)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full and POSIX pipes")
class TestWriteFailures:
    """A document that cannot be written ends with exit 3 and one stderr line."""

    @pytest.mark.parametrize("argv", list(WRITE_CASES.values()), ids=list(WRITE_CASES))
    def test_full_device(self, argv):
        with open("/dev/full", "w") as full:
            proc = start_cli(argv, full)
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 3
        assert err == "cannot write to stdout: No space left on device\n"

    @pytest.mark.parametrize("argv", list(WRITE_CASES.values()), ids=list(WRITE_CASES))
    def test_pipe_closed_after_ten_bytes(self, argv):
        # The reader takes 10 bytes and closes, as `head -c 10` does. The pipe is
        # full before the command starts, so its first write still waits when the
        # reader closes, however short the document.
        read_end, write_end = os.pipe()
        fill_pipe(write_end)
        proc = start_cli(argv, write_end)
        os.close(write_end)
        assert len(os.read(read_end, 10)) == 10
        os.close(read_end)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 3
        assert err == "cannot write to stdout: Broken pipe\n"

    # argparse's own printer ignores a failed write: unbuffered, the help would be
    # lost with exit 0; buffered, the flush at exit would fail with exit 120.
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_help_to_full_device(self, unbuffered):
        with open("/dev/full", "w") as full:
            proc = start_cli(["--help"], full, unbuffered)
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 3
        assert err == "cannot write to stdout: No space left on device\n"
