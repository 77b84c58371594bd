"""Byte-exact CLI output on the demo documents.

Each expected file under tests/data/golden/ is the verbatim stdout of
``skewrel <argv>`` run from the repository root, which exits with the code
listed next to the argv; regenerate one by running that command and
redirecting its output to the file.
"""

import os

import pytest

from skewrel.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "demos", "data")
GOLDEN = os.path.join(ROOT, "tests", "data", "golden")
E1_GF7 = os.path.join(ROOT, "tests", "data", "e1-gf7.json")
# Z_3 on four orbits (two whole, two cut to two points) and two points no map
# moves: six classes, and the members of each larger one are interleaved with
# other classes in carrier order.
Z3_SIX = os.path.join(ROOT, "tests", "data", "z3-six-classes.json")
# bench/gen.py's cyc(8, 12, random.Random(1)): Z_8 on 12 orbits, 96 shuffled points.
CYC_8_12 = os.path.join(ROOT, "tests", "data", "cyc-8-12.json")
# The integers by 40 one-pair maps labelled 2, 4, ..., 2^40 on 80 points: 3 049
# elements in the closure set, of which only the 80 listed ones and e carry points.
SPARSE_Z_40 = os.path.join(ROOT, "tests", "data", "sparse-z-40.json")
# The same family with 200 maps labelled 2, ..., 2^200 on 400 points: a validator
# that pairs every two listed maps takes seconds here, one that reads its pairs off
# the points a fraction of one.
SPARSE_Z_200 = os.path.join(ROOT, "tests", "data", "sparse-z-200.json")
# bench/gen.py's chain(12, random.Random(1)): the integers on q0..q11 by
# h_t(q_i) = q_{i+t} where both exist, listed for t = 1..11, so the action keeps
# 23 maps (e and t = -11..11) and the validator multiplies and inverts many
# integers for few points.
CHAIN_12 = os.path.join(ROOT, "tests", "data", "chain-12.json")
# Dense elements over CHAIN_12 from bench/gen.py: after chain(12, rng) with
# rng = random.Random(1), u and v are dense_skew(fam, rng) twice, and gu and gv
# their Gamma images. Every pair of R carries a value over Q, with denominators
# up to 5, so each product coefficient sums 12 fractions of mixed denominators.
CHAIN_12_ELEMENTS = {name: os.path.join(ROOT, "tests", "data", "chain-12-%s.json" % name)
                     for name in ("u", "v", "gu", "gv")}
# Dense elements over GF(7) from bench/gen.py: with rng = random.Random(1),
# cyc(6, 4, rng, modulus=7) is Z_6 on 4 orbits, then u and v are
# dense_skew(fam, rng) twice and gu and gv their Gamma images, each written by
# json.dump(doc, handle, indent=2) and a newline. Every pair of R carries a
# residue, and 16 of the 144 coefficients of the product sum to zero mod 7.
CYC_6_4_GF7 = os.path.join(ROOT, "tests", "data", "cyc-6-4-gf7.json")
CYC_6_4_GF7_ELEMENTS = {name: os.path.join(ROOT, "tests", "data", "cyc-6-4-gf7-%s.json" % name)
                        for name in ("u", "v", "gu", "gv")}
# Broken actions, each reported with exit 1. On the integers chain, h_2 sends 4
# to 1 instead of 6, and some violations sit at unlisted t of the closure set
# (t = -7, -6, 6, 7). The Z_12 action on {0, 1, 3, 4, 8} by translation has
# lost the pair 1 -> 4 of h_3. The S3 table group acts on three of its own
# elements, with an explicit h_(132) that swaps two images of h_(123)^-1.
# Two are mutants from tests/strategies.py, mutate(rng, draw_any(rng,
# max_points=6).action) with rng = random.Random(seed): at seed 18, Z_3 on
# itself has lost the pair 0:0 -> 0:1 of h_1 and its mirror; at seed 23, Z_5
# on {0:3, 0:4} has h_1 redirected to fix 0:3, and some violations sit at the
# unlisted t = 2, 3. SPARSE_Z_200 with one more map, h_6(p1) = p2, breaks
# axioms (2) and (3) at twelve pairs, some at the unlisted t = -10, 10.
BROKEN = {name: os.path.join(ROOT, "tests", "data", name + ".json")
          for name in ("broken-chain-6-redirect", "broken-z12-dropped-pair",
                       "broken-s3-bad-inverse", "broken-z3-dropped-pair",
                       "broken-z5-redirect", "broken-sparse-z-200")}


def _demo(name):
    return os.path.join(DATA, name)


CASES = {
    "validate-e1": (["validate", _demo("e1.json")], 0),
    "validate-e2": (["validate", _demo("e2.json")], 0),
    "relation-e1": (["relation", _demo("e1.json")], 0),
    "relation-e2": (["relation", _demo("e2.json")], 0),
    "ideals-e1": (["ideals", _demo("e1.json")], 0),
    "ideals-e2": (["ideals", _demo("e2.json")], 0),
    "validate-sparse-z-40": (["validate", SPARSE_Z_40], 0),
    "validate-sparse-z-200": (["validate", SPARSE_Z_200], 0),
    "validate-chain-12": (["validate", CHAIN_12], 0),
    "relation-chain-12": (["relation", CHAIN_12], 0),
    "relation-z3-six-classes": (["relation", Z3_SIX], 0),
    "relation-cyc-8-12": (["relation", CYC_8_12], 0),
    "ideals-z3-six-classes": (["ideals", Z3_SIX], 0),
    "mul-skew-e1": (["mul", "--algebra", "skew", _demo("e1.json"),
                     _demo("skew_lhs.json"), _demo("skew_rhs.json")], 0),
    "mul-rel-e1": (["mul", "--algebra", "rel", _demo("e1.json"),
                    _demo("rel_elem.json"), _demo("rel_elem.json")], 0),
    "gamma-fwd-e1": (["gamma", "--dir", "fwd", _demo("e1.json"), _demo("skew_lhs.json")], 0),
    "gamma-inv-e1": (["gamma", "--dir", "inv", _demo("e1.json"), _demo("rel_elem.json")], 0),
    "mul-skew-chain-12": (["mul", "--algebra", "skew", CHAIN_12, CHAIN_12_ELEMENTS["u"],
                           CHAIN_12_ELEMENTS["v"]], 0),
    "mul-rel-chain-12": (["mul", "--algebra", "rel", CHAIN_12, CHAIN_12_ELEMENTS["gu"],
                          CHAIN_12_ELEMENTS["gv"]], 0),
    "gamma-fwd-chain-12": (["gamma", "--dir", "fwd", CHAIN_12, CHAIN_12_ELEMENTS["u"]], 0),
    "gamma-inv-chain-12": (["gamma", "--dir", "inv", CHAIN_12, CHAIN_12_ELEMENTS["gu"]], 0),
    "mul-skew-cyc-6-4-gf7": (["mul", "--algebra", "skew", CYC_6_4_GF7,
                              CYC_6_4_GF7_ELEMENTS["u"], CYC_6_4_GF7_ELEMENTS["v"]], 0),
    "mul-rel-cyc-6-4-gf7": (["mul", "--algebra", "rel", CYC_6_4_GF7,
                             CYC_6_4_GF7_ELEMENTS["gu"], CYC_6_4_GF7_ELEMENTS["gv"]], 0),
    "gamma-fwd-cyc-6-4-gf7": (["gamma", "--dir", "fwd", CYC_6_4_GF7, CYC_6_4_GF7_ELEMENTS["u"]], 0),
    "gamma-inv-cyc-6-4-gf7": (["gamma", "--dir", "inv", CYC_6_4_GF7,
                               CYC_6_4_GF7_ELEMENTS["gu"]], 0),
    "selftest-42-25": (["selftest", "--seed", "42", "--trials", "25"], 0),
    # The failure texts of a broken product: the report formats them lazily.
    "selftest-42-25-corrupt": (["selftest", "--seed", "42", "--trials", "25",
                                "--corrupt-skew-mul"], 2),
    # A document's Q field is the fixtures' field itself, as fields are interned.
    "selftest-e2-7-100": (["selftest", "--action", _demo("e2.json"), "--seed", "7",
                           "--trials", "100"], 0),
    "selftest-e1-gf7-7-100": (["selftest", "--action", E1_GF7, "--seed", "7",
                               "--trials", "100"], 0),
    "selftest-cyc-8-12-1-3": (["selftest", "--seed", "1", "--trials", "3",
                               "--action", CYC_8_12], 0),
}
CASES.update({"validate-" + name: (["validate", path], 1) for name, path in BROKEN.items()})


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    argv, code = CASES[name]
    assert main(argv) == code
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as handle:
        expected = handle.read()
    assert capsys.readouterr().out == expected
