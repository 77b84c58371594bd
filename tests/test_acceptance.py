"""Acceptance gate: every criterion at its stated tolerance (exact, zero
tolerance) with its stated time budget. One pass/fail line per criterion is
printed; run with `pytest tests/test_acceptance.py -s` to see them inline.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from skewrel import groups
from skewrel.actions import (PartialAction, build_relation, check_free,
                             validate_partial_action)
from skewrel.cli import main
from skewrel.fields import FieldSpec, PRIME_FIELD, RATIONALS, Scalar
from skewrel.fixtures import e1_action, e2_action, fixture_bundle
from skewrel.funalg import (FunAlgElement, InducedAlgebraAction, bijection_from_isomorphism,
                            classify_linear_functional, psi_from_bijection,
                            recover_set_action)
from skewrel.groups import GroupSpec
from skewrel.relalg import (RelElement, RelIdeal, brute_force_ideal_span, count_ideals,
                            gamma, gamma_inv, ideal_closure_of, span_of_ideal)
from skewrel.selftest import random_rel, random_scalar, random_skew
from skewrel.skew import SkewElement

from test_actions import trivial_action

Q = FieldSpec(RATIONALS)
F5 = FieldSpec(PRIME_FIELD, 5)
FIELDS = [Q, F5]
FIXTURES = [e1_action, e2_action]
# The integers acting by 40 one-pair maps labelled 2, 4, ..., 2^40 on 80 points:
# a closure set of 3 049 elements, but only the pairs (t, s) with two of t, s, ts
# among the 80 listed elements and e can meet a nonempty X_u.
SPARSE_Z_40 = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "sparse-z-40.json")


def report(number, ok, text):
    print("\n[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", number, text))
    assert ok, "criterion %d failed: %s" % (number, text)


def test_criterion_1_axiom_validation():
    start = time.perf_counter()
    ok = validate_partial_action(e1_action()).ok
    ok = ok and validate_partial_action(e2_action()).ok
    z = GroupSpec.integers()
    mutant = PartialAction(z, ["1", "2", "3"], {z.element(1): {"1": "2", "2": "3"}})
    rep = validate_partial_action(mutant)
    hit = next((v for v in rep.violations
                if v.axiom == "2" and str(v.t) == "1" and str(v.s) == "1"), None)
    ok = ok and not rep.ok and hit is not None
    ok = ok and "{3}" in hit.render() and "{}" in hit.render()
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 0.1
    report(1, ok, "axiom validation (E1, E2 ok; h_2-deleted E2 rejected at "
           "(t,s)=(1,1)) in %.3fs" % elapsed)


def test_criterion_2_freeness():
    ok = check_free(e1_action()).free
    ok = ok and check_free(e2_action()).free
    ok = ok and check_free(trivial_action()).free
    z2 = GroupSpec.cyclic(2)
    mutant = PartialAction(z2, ["a", "b", "c"],
                           {z2.element(1): {"a": "b", "b": "a", "c": "c"}})
    rep = check_free(mutant)
    ok = ok and not rep.free and rep.counterexample is not None
    t, x = rep.counterexample
    ok = ok and str(t) == "1" and x == "c"
    report(2, ok, "freeness (fixtures free; c-fixing mutant caught at (g, c))")


def test_criterion_3_gamma_isomorphism():
    rng = random.Random(20240601)
    start = time.perf_counter()
    ok = True
    for field, make in itertools.product(FIELDS, FIXTURES):
        _, rel, alpha = fixture_bundle(field, make())
        for _ in range(1000):
            u, v = random_skew(rng, alpha), random_skew(rng, alpha)
            ok = ok and gamma(rel, u * v) == gamma(rel, u) * gamma(rel, v)
        for _ in range(1000):
            u = random_skew(rng, alpha)
            f = random_rel(rng, field, rel)
            ok = ok and gamma_inv(alpha, gamma(rel, u)) == u
            ok = ok and gamma(rel, gamma_inv(alpha, f)) == f
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(3, ok, "Gamma multiplicative + mutually inverse, 1000 trials per "
           "fixture x field, exact, in %.2fs" % elapsed)


def test_criterion_4_associativity():
    rng = random.Random(20240602)
    start = time.perf_counter()
    ok = True
    for field, make in itertools.product(FIELDS, FIXTURES):
        _, rel, alpha = fixture_bundle(field, make())
        for _ in range(500):
            u, v, w = (random_skew(rng, alpha) for _ in range(3))
            ok = ok and (u * v) * w == u * (v * w)
            f, g, l = (random_rel(rng, field, rel) for _ in range(3))
            ok = ok and (f * g) * l == f * (g * l)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(4, ok, "associativity, 500 random triples per algebra per fixture, "
           "exact, in %.2fs" % elapsed)


def test_criterion_5_ideal_classification():
    rng = random.Random(20240603)
    start = time.perf_counter()
    ok = count_ideals(build_relation(e1_action())) == 4
    ok = ok and count_ideals(build_relation(e2_action())) == 2
    for make in FIXTURES:
        _, rel, _ = fixture_bundle(Q, make())
        done = 0
        while done < 200:
            f = random_rel(rng, Q, rel)
            if f.is_zero():
                continue
            done += 1
            oracle = brute_force_ideal_span(Q, rel, [f])
            closed = span_of_ideal(
                Q, RelIdeal(rel, ideal_closure_of(f)))
            ok = ok and oracle == closed
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(5, ok, "ideal counts 4 (E1) / 2 (E2) and 200 random span oracles per "
           "fixture, exact, in %.2fs" % elapsed)


def test_criterion_6_matrix_units():
    _, rel, _ = fixture_bundle(Q, e2_action())
    points = rel.carrier
    ok = True
    for x, y, y2, z in itertools.product(points, repeat=4):
        prod = RelElement.delta(Q, rel, x, y) * RelElement.delta(Q, rel, y2, z)
        expected = (RelElement.delta(Q, rel, x, z) if y == y2
                    else RelElement(Q, rel))
        ok = ok and prod == expected
    report(6, ok, "81-entry convolution table of E2 matches the matrix-unit law")


def test_criterion_7_correspondence_round_trips():
    ok = True
    for make in FIXTURES:
        pa = make()
        alpha = InducedAlgebraAction(Q, pa, validate=False)
        family = {t: (pa.domains[t], alpha.as_linear_map(t))
                  for t in pa.listed()}
        ok = ok and recover_set_action(Q, pa.group, pa.carrier, family) == pa
    carrier = ("a", "b", "c")
    for perm in itertools.permutations(carrier):
        h = dict(zip(carrier, perm))
        psi = psi_from_bijection(Q, h, carrier, carrier)
        ok = ok and bijection_from_isomorphism(psi) == h
    for x in carrier:
        values = {y: (Q.one() if y == x else Q.zero()) for y in carrier}
        cls = classify_linear_functional(Q, carrier, values)
        ok = ok and cls.verdict == "evaluation" and cls.point == x
    zero = {y: Q.zero() for y in carrier}
    ok = ok and classify_linear_functional(Q, carrier, zero).verdict == "zero"
    rng = random.Random(20240604)
    produced = 0
    while produced < 50:
        values = {x: (random_scalar(rng, Q) if rng.random() < 0.7 else Q.zero())
                  for x in carrier}
        cls = classify_linear_functional(Q, carrier, values)
        if cls.verdict != "not-multiplicative":
            continue
        produced += 1
        if cls.pair_witness is not None:
            x, y = cls.pair_witness
            ok = ok and not (values[x] * values[y]).is_zero()
        else:
            v = values[cls.idem_witness]
            ok = ok and v * v != v
    report(7, ok, "theta/alpha, psi/bijection and evaluation-classification "
           "round trips all exact")


def test_criterion_8_selftest_determinism():
    cmd = [sys.executable, "-m", "skewrel.cli", "selftest",
           "--seed", "42", "--trials", "500"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout and len(first.stdout) > 0
    ok = ok and json.loads(first.stdout)["ok"]
    report(8, ok, "selftest --seed 42 --trials 500 is byte-identical across runs")


def test_criterion_9_wide_sparse_validation(capsys):
    start = time.perf_counter()
    code = main(["validate", SPARSE_Z_40])
    elapsed = time.perf_counter() - start
    ok = code == 0 and json.loads(capsys.readouterr().out)["ok"] and elapsed < 2.0
    report(9, ok, "validate on 40 one-pair maps of the integers with labels up to "
           "2^40 in %.2fs" % elapsed)


def test_criterion_10_dense_oracle_over_q():
    # Z acting on q0..q31 by partial shifts: one class, |R| = 1024.
    z = GroupSpec.integers()
    chain = PartialAction(z, ["q%d" % i for i in range(32)],
                          {z.element(t): {"q%d" % i: "q%d" % (i + t) for i in range(32 - t)}
                           for t in range(1, 32)})
    _, rel, _ = fixture_bundle(Q, chain)
    rng = random.Random(32)
    g = RelElement(Q, rel, {p: random_scalar(rng, Q) for p in rel.sorted_pairs()})
    start = time.process_time()
    span = brute_force_ideal_span(Q, rel, [g])
    elapsed = time.process_time() - start
    ok = span == span_of_ideal(Q, RelIdeal(rel, rel.carrier)) and elapsed < 0.5
    report(10, ok, "ideal oracle on a dense generator over Q on the 32-point chain "
           "(|R| = 1024) in %.2f CPU s" % elapsed)


def test_criterion_11_dense_products_over_q_with_coprime_denominators():
    # The 32-point chain again, every coefficient of u and v nonzero over its own
    # prime: 2 048 pairwise-coprime denominators, so no two products of a sum
    # share a denominator and every coefficient of u v has a large one.
    m = 32
    z = GroupSpec.integers()
    chain = PartialAction(z, ["q%d" % i for i in range(m)],
                          {z.element(t): {"q%d" % i: "q%d" % (i + t) for i in range(m - t)}
                           for t in range(1, m)})
    _, rel, alpha = fixture_bundle(Q, chain)
    primes, n = [], 2
    while len(primes) < 2 * m * m:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    rng, denominators = random.Random(11), iter(primes)
    # X_t = h_t(X) = {q_i : 0 <= i - t < m}; u[t, i] is the coefficient of a_t at q_i.
    u, v = ({(t, i): Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), next(denominators))
             for t in range(1 - m, m) for i in range(max(0, t), min(m, m + t))}
            for _ in range(2))

    def skew(values):
        terms: dict = {}
        for (t, i), c in values.items():
            terms.setdefault(z.element(t), {})["q%d" % i] = Scalar(Q, Q.raw(c.numerator,
                                                                             c.denominator))
        return SkewElement(alpha, {t: FunAlgElement(Q, alpha.carrier, a)
                                   for t, a in terms.items()})

    # References in Fraction arithmetic on indices: (a_t d_t)(b_s d_s) is
    # q_i |-> a_t(q_i) b_s(q_{i-t}) at t + s, and Gamma puts a_t(q_i) at (q_i, q_{i-t}).
    skew_ref: dict = {}
    for (t, i), c in u.items():
        for s in range(1 - m, m):
            if (s, i - t) in v:
                skew_ref[t + s, i] = skew_ref.get((t + s, i), 0) + c * v[s, i - t]
    gv = {(j, j - s): d for (s, j), d in v.items()}
    rel_ref: dict = {}
    for (t, i), c in u.items():
        for k in range(m):
            if (i - t, k) in gv:
                rel_ref[i, k] = rel_ref.get((i, k), 0) + c * gv[i - t, k]
    su, sv = skew(u), skew(v)
    fu, fv = gamma(rel, su), gamma(rel, sv)
    start = time.process_time()
    product = su * sv
    skew_s = time.process_time() - start
    start = time.process_time()
    convolution = fu * fv
    rel_s = time.process_time() - start
    ok = {(t.payload, int(x[1:])): c for t, a in product.terms.items()
          for x, c in a.coeffs.items()} == {k: c for k, c in skew_ref.items() if c}
    ok = ok and {(int(x[1:]), int(y[1:])): c
                 for (x, y), c in convolution.coeffs.items()} == {k: c for k, c in
                                                                   rel_ref.items() if c}
    ok = ok and skew_s < 0.3 and rel_s < 0.3
    report(11, ok, "dense products over Q on the 32-point chain with 2 048 pairwise-coprime "
           "denominators: skew %.3f, F0(R) %.3f CPU s" % (skew_s, rel_s))


def test_criterion_12_table_group_validation(tmp_path, capsys):
    # Z_480 given as a Cayley table of 230 400 entries: an associativity scan over
    # every triple takes seconds, Light's test checks the one generator 1.
    n = 480
    names = [str(i) for i in range(n)]
    doc = {"field": {"kind": "rationals"},
           "group": {"kind": "table", "elements": names, "identity": "0",
                     "table": [[names[(i + j) % n] for j in range(n)] for i in range(n)]},
           "set": ["a", "b", "c"], "maps": [{"t": "1", "pairs": [["a", "b"]]}]}
    path = tmp_path / "z480-table.json"
    path.write_text(json.dumps(doc))
    # Specs are interned: a Z_480 table built before would skip the group laws.
    assert not any(spec.names == tuple(names) for spec in groups._SPECS.values())
    start = time.process_time()
    code = main(["validate", str(path)])
    elapsed = time.process_time() - start
    ok = code == 0 and json.loads(capsys.readouterr().out)["ok"] and elapsed < 1.0
    report(12, ok, "validate on Z_480 given as a Cayley table in %.2f CPU s" % elapsed)


def test_criterion_13_sparse_validation_valid_and_broken(tmp_path, capsys):
    # The integers by 800 one-pair maps labelled 2, 4, ..., 2^800 on 1 600 points:
    # pairing every two of the 1 601 maps takes minutes, while each point lies in
    # two domains. One more map, h_6(p1) = p2, breaks axioms (2) and (3).
    k = 800
    maps = [{"t": str(2 ** (i + 1)), "pairs": [["p%d" % (2 * i), "p%d" % (2 * i + 1)]]}
            for i in range(k)]
    doc = {"field": {"kind": "rationals"}, "group": {"kind": "integers"},
           "set": ["p%d" % i for i in range(2 * k)], "maps": maps}
    times, outcomes = [], []
    for name, extra in (("sparse-z-800", []), ("broken-sparse-z-800",
                                               [{"t": "6", "pairs": [["p1", "p2"]]}])):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(dict(doc, maps=maps + extra)))
        start = time.process_time()
        code = main(["validate", str(path)])
        times.append(time.process_time() - start)
        outcomes.append((code, json.loads(capsys.readouterr().out)["ok"]))
    ok = outcomes == [(0, True), (1, False)] and max(times) < 2.0
    report(13, ok, "validate on 800 one-pair maps of the integers, valid and broken, in "
           "%.2f and %.2f CPU s" % tuple(times))
