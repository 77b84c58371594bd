"""Seeded property-test battery tying every module together.

All randomness flows from one random.Random(seed) instance and every
iteration order is defined, so a fixed (seed, trials, inputs) triple yields
a byte-identical report. An element is drawn in one loop over getrandbits:
``_support`` draws a size and a pool sample, ``_values`` a value per key, with
CPython's rejection loop below n written out, reading the words randint,
randrange, choice and sample read (pools past 21 go to rng.sample). Coefficients
are small by design: numerators in {-3..3} minus 0 with denominators in
{1, 2, 3} over the rationals, uniform nonzero residues over a prime field.
"""

from __future__ import annotations

import itertools
import operator
import random
from fractions import Fraction

from .actions import (Carrier, PartialAction, check_free, equivalence_classes,
                      validate_partial_action, verify_equivalence)
from .errors import PreconditionError
from .fields import FieldSpec, Scalar
from .fixtures import GF5, RATIONALS_FIELD, e1_action, e2_action, fixture_bundle
from .funalg import (FunAlgElement, InducedAlgebraAction, bijection_from_isomorphism,
                     classify_linear_functional, psi_from_bijection, recover_set_action)
from .groups import GroupSpec
from .relalg import (RelElement, RelIdeal, brute_force_ideal_span, count_ideals,
                     gamma, gamma_inv, ideal_closure_of, span_of_ideal)
from .skew import SkewElement


class SuiteResult:
    def __init__(self, name: str):
        self.name, self.passed, self.failed, self.failures = name, 0, 0, []

    def check(self, ok: bool, detail: str, *args):
        """Count one check; on failure keep ``detail % args``, formatted only then."""
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(detail % args)

    def as_doc(self) -> dict:
        doc = {"name": self.name, "passed": self.passed, "failed": self.failed}
        if self.failures:
            doc["failures"] = self.failures
        return doc


_NUMERATORS = (-3, -2, -1, 1, 2, 3)
_DENOMINATORS = (1, 2, 3)
_RATIONAL_DRAWS = tuple(tuple(Fraction(n, d) for d in _DENOMINATORS) for n in _NUMERATORS)


def _support(bits, rng: random.Random, pool) -> list:
    """rng.sample(pool, rng.randint(0, len(pool))) from the bound getrandbits ``bits``;
    pools of 21 or fewer are drawn here, by CPython's pool algorithm."""
    n = len(pool)
    m, w = n + 1, (n + 1).bit_length()
    k = bits(w)
    while k >= m:
        k = bits(w)
    if n > 21:
        return rng.sample(pool, k)
    pool, out = list(pool), []
    for m in range(n, n - k, -1):
        w = m.bit_length()
        j = bits(w)
        while j >= m:
            j = bits(w)
        out.append(pool[j])
        pool[j] = pool[m - 1]          # move the last unchosen item into the gap
    return out


def _values(bits, modulus, keys) -> dict:
    """{key: a nonzero raw coefficient} from the stated test distribution, drawn
    key by key in order: 1 + randrange(modulus - 1) over GF(modulus), a
    numerator and then a denominator by choice over Q (modulus None)."""
    out = {}
    if modulus is not None:
        m, w = modulus - 1, (modulus - 1).bit_length()
        for key in keys:
            r = bits(w)
            while r >= m:
                r = bits(w)
            out[key] = 1 + r
        return out
    for key in keys:
        i = bits(3)
        while i >= 6:
            i = bits(3)
        j = bits(2)
        while j >= 3:
            j = bits(2)
        out[key] = _RATIONAL_DRAWS[i][j]
    return out


def random_value(rng: random.Random, field: FieldSpec):
    """Nonzero raw coefficient from the stated test distribution."""
    return _values(rng.getrandbits, field.modulus, (None,))[None]


def random_scalar(rng: random.Random, field: FieldSpec) -> Scalar:
    return Scalar(field, random_value(rng, field))


def random_funalg(rng, field, carrier, allowed=None) -> FunAlgElement:
    bits = rng.getrandbits
    support = _support(bits, rng, carrier if allowed is None else allowed)
    return FunAlgElement._raw((field, Carrier(carrier)), _values(bits, field.modulus, support))


def random_skew(rng, alpha: InducedAlgebraAction) -> SkewElement:
    bits, field, domains = rng.getrandbits, alpha.field, alpha.action.domains
    context, terms = (field, alpha.carrier), {}
    for t in _support(bits, rng, list(domains)):
        if values := _values(bits, field.modulus, _support(bits, rng, domains[t])):
            terms[t] = FunAlgElement._raw(context, values)      # a skew element holds no empty term
    return SkewElement._raw((field, alpha), terms)


def random_rel(rng, field, rel) -> RelElement:
    bits = rng.getrandbits
    return RelElement._raw((field, rel), _values(bits, field.modulus,
                                                 _support(bits, rng, rel.sorted_pairs())))


def _e2_without_h2() -> PartialAction:
    group = GroupSpec.integers()
    return PartialAction(group, ["1", "2", "3"],
                         {group.element(1): {"1": "2", "2": "3"}})


def _e1_fixing_c() -> PartialAction:
    group = GroupSpec.cyclic(2)
    return PartialAction(group, ["a", "b", "c"],
                         {group.element(1): {"a": "b", "b": "a", "c": "c"}})


def suite_axioms() -> SuiteResult:
    suite = SuiteResult("axiom-validation")
    for name, action in [("E1", e1_action()), ("E2", e2_action())]:
        report = validate_partial_action(action)
        suite.check(report.ok, "%s failed validation: %s", name, report.render())
    report = validate_partial_action(_e2_without_h2())
    hits = [v for v in report.violations
            if v.axiom == "2" and str(v.t) == "1" and str(v.s) == "1"]
    suite.check(bool(hits) and not report.ok,
                "E2 without h_2 should fail axiom 2 at (t,s)=(1,1), got %s", report.render())
    return suite


def suite_freeness() -> SuiteResult:
    suite = SuiteResult("freeness")
    for name, action in [("E1", e1_action()), ("E2", e2_action()),
                         ("trivial", PartialAction(GroupSpec.cyclic(1), ["a", "b"], {}))]:
        rep = check_free(action)
        suite.check(rep.free, "%s should be free, witness %s", name, rep.counterexample)
    rep = check_free(_e1_fixing_c())
    ok = (not rep.free and rep.counterexample is not None
          and str(rep.counterexample[0]) == "1" and rep.counterexample[1] == "c")
    suite.check(ok, "c-fixing E1 mutant should report witness (g, c), got %s",
                rep.counterexample)
    return suite


def _bundles(custom=None):
    """(name, field, action, relation, induced algebra action), built once."""
    if custom is not None:
        named = [("custom", *custom)]
    else:
        named = [("%s/%s" % (aname, fname), fld, action)
                 for fname, fld in [("Q", RATIONALS_FIELD), ("GF5", GF5)]
                 for aname, action in [("E1", e1_action()), ("E2", e2_action())]]
    return [(name, fld) + fixture_bundle(fld, action) for name, fld, action in named]


def suite_gamma(rng, trials, bundles, skew_mul=operator.mul) -> SuiteResult:
    suite = SuiteResult("gamma-isomorphism")
    for name, fld, _action, rel, alpha in bundles:
        if not rel.is_free():
            continue
        for i in range(trials):
            u = random_skew(rng, alpha)
            v = random_skew(rng, alpha)
            ok = gamma(rel, skew_mul(u, v)) == gamma(rel, u) * gamma(rel, v)
            suite.check(ok, "%s trial %d: Gamma not multiplicative on u=%r v=%r",
                        name, i, u, v)
        for i in range(trials):
            u = random_skew(rng, alpha)
            f = random_rel(rng, fld, rel)
            suite.check(gamma_inv(alpha, gamma(rel, u)) == u,
                        "%s trial %d: inverse(gamma(u)) != u for u=%r", name, i, u)
            suite.check(gamma(rel, gamma_inv(alpha, f)) == f,
                        "%s trial %d: gamma(inverse(f)) != f for f=%r", name, i, f)
    return suite


def suite_associativity(rng, trials, bundles, skew_mul=operator.mul) -> SuiteResult:
    suite = SuiteResult("associativity")
    for name, fld, _action, rel, alpha in bundles:
        free = rel.is_free()
        for i in range(trials):
            u, v, w = (random_skew(rng, alpha) for _ in range(3))
            suite.check(skew_mul(skew_mul(u, v), w) == skew_mul(u, skew_mul(v, w)),
                        "%s trial %d: skew associativity fails on %r, %r, %r",
                        name, i, u, v, w)
            if free:
                f, g, l = (random_rel(rng, fld, rel) for _ in range(3))
                suite.check((f * g) * l == f * (g * l),
                            "%s trial %d: convolution associativity fails on %r, %r, %r",
                            name, i, f, g, l)
    return suite


def suite_ideals(rng, trials, bundles) -> SuiteResult:
    suite = SuiteResult("ideal-classification")
    for name, fld, _action, rel, _alpha in bundles:
        if not rel.is_free():
            continue
        expected = 1 << len(equivalence_classes(rel))
        suite.check(count_ideals(rel) == expected, "%s: ideal count mismatch", name)
        for i in range(trials):
            f = random_rel(rng, fld, rel)
            if f.is_zero():
                continue
            oracle = brute_force_ideal_span(fld, rel, [f])
            closed = span_of_ideal(fld, RelIdeal(rel, ideal_closure_of(f)))
            suite.check(oracle == closed,
                        "%s trial %d: ideal span mismatch for f=%r", name, i, f)
    return suite


def suite_round_trips(bundles) -> SuiteResult:
    suite = SuiteResult("round-trips")
    for name, fld, action, _rel, alpha in bundles:
        family = {t: (action.domains[t], alpha.as_linear_map(t))
                  for t in action.listed()}
        try:
            back = recover_set_action(fld, action.group, action.carrier, family)
            suite.check(back == action, "%s: recovered action differs", name)
        except PreconditionError as exc:
            suite.check(False, "%s: recovery failed: %s", name, exc)
    carrier = ("p", "q", "r")
    for fld in (RATIONALS_FIELD, GF5):
        for perm in itertools.permutations(carrier):
            h = dict(zip(carrier, perm))
            psi = psi_from_bijection(fld, h, carrier, carrier)
            suite.check(bijection_from_isomorphism(psi) == h, "psi round trip fails for %s", h)
    return suite


def suite_homomorphisms(rng, bundles) -> SuiteResult:
    suite = SuiteResult("homomorphism-classification")
    for name, fld, action, _rel, _alpha in bundles:
        carrier = action.carrier
        one, zeros = fld.one(), dict.fromkeys(carrier, fld.zero())
        for x in carrier:
            values = dict(zeros)
            values[x] = one
            cls = classify_linear_functional(fld, carrier, values)
            suite.check(cls.verdict == "evaluation" and cls.point == x,
                        "%s: eps_%s misclassified as %s", name, x, cls.verdict)
        suite.check(classify_linear_functional(fld, carrier, zeros).verdict == "zero",
                    "%s: zero functional misclassified", name)
    fld = RATIONALS_FIELD
    carrier = ("a", "b", "c")
    produced = 0
    while produced < 50:
        values = {x: (random_scalar(rng, fld) if rng.random() < 0.7 else fld.zero())
                  for x in carrier}
        cls = classify_linear_functional(fld, carrier, values)
        if cls.verdict != "not-multiplicative":
            continue
        produced += 1
        if cls.pair_witness is not None:
            x, y = cls.pair_witness
            ok = not (values[x] * values[y]).is_zero()
        else:
            v = values[cls.idem_witness]
            ok = v * v != v
        suite.check(ok, "witness does not verify for %s", values)
    return suite


def suite_relation(bundles) -> SuiteResult:
    suite = SuiteResult("relation-structure")
    for name, _fld, action, rel, _alpha in bundles:
        suite.check(verify_equivalence(rel), "%s: built relation is not an equivalence", name)
        for t in action.listed():       # pulls[t^-1] is h_t, pulls[t] is h_{t^-1}
            inv = {y: x for x, y in action.pulls[t.inverse()].items()}
            suite.check(action.pulls[t] == inv,
                        "%s: h_{%s^-1} is not the inverse of h_%s", name, t, t)
    return suite


def _squared_skew_mul(u: SkewElement, v: SkewElement) -> SkewElement:
    """u * v with every coefficient squared: a fault that is not bilinear, so
    the law suites must report it. Squaring keeps each a_t in D_t."""
    return SkewElement(u.action, {t: a * a for t, a in (u * v).coeffs.items()})


def run_selftest(seed: int, trials: int, custom=None, corrupt_skew_mul=False) -> dict:
    """Run every property suite; returns the JSON-ready report."""
    rng = random.Random(seed)
    bundles = _bundles(custom)
    skew_mul = _squared_skew_mul if corrupt_skew_mul else operator.mul
    suites = [
        suite_axioms(),
        suite_freeness(),
        suite_relation(bundles),
        suite_gamma(rng, trials, bundles, skew_mul),
        suite_associativity(rng, trials, bundles, skew_mul),
        suite_ideals(rng, min(trials, 200), bundles),
        suite_round_trips(bundles),
        suite_homomorphisms(rng, bundles),
    ]
    ok = all(s.failed == 0 for s in suites)
    return {
        "command": "selftest",
        "seed": seed,
        "trials": trials,
        "suites": [s.as_doc() for s in suites],
        "ok": ok,
    }
