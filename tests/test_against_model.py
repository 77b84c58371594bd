"""The CLI against the benchmark's own model of each family.

``bench/gen.py`` builds cyc, chain and restricted-S3 actions, and computes R with
its witnesses, the classes, the ideals, both products and Gamma, all without
importing skewrel. ``bench/check.py`` compares a command's stdout with that
model. Both are imported by path, so a change to their signatures must keep this
test passing. Hypothesis draws a family, its sizes, a field and a seed; every
command runs in process through ``cli.main`` on the documents the model writes.
"""

import contextlib
import importlib.util
import io
import json
import os
import random
import sys
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from skewrel.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(BENCH, name + ".py"))
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# gen's dataclasses look their module up by name, and check.py imports gen by name;
# both names leave sys.modules again once loaded.
with mock.patch.dict(sys.modules):
    gen, check = _load("gen"), _load("check")

MODULI = [None, 2, 3, 7, 101]                       # Q, then GF(p)


@st.composite
def families(draw):
    modulus = draw(st.sampled_from(MODULI))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["cyc", "chain", "s3"]))
    if kind == "cyc":
        return gen.cyc(draw(st.integers(1, 6)), draw(st.integers(1, 4)), rng, modulus), rng
    if kind == "chain":
        return gen.chain(draw(st.integers(1, 8)), rng, modulus), rng
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    return gen.s3_restricted(sizes, rng, modulus), rng


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(families())
def test_every_command_matches_the_model(drawn):
    fam, rng = drawn
    u, v = gen.dense_skew(fam, rng), gen.dense_skew(fam, rng)
    gu, gv = gen.gamma(fam, u), gen.gamma(fam, v)
    conv = gen.convolve(fam, gu, gv)
    with tempfile.TemporaryDirectory() as work:
        paths = {}
        for name, doc in [("action", fam.doc), ("u", gen.skew_doc(fam, u)),
                          ("v", gen.skew_doc(fam, v)), ("gu", gen.rel_doc(fam, gu)),
                          ("gv", gen.rel_doc(fam, gv))]:
            paths[name] = os.path.join(work, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        action = paths["action"]
        commands = [
            (["validate", action], lambda text: check.validate(fam, text)),
            (["relation", action], lambda text: check.relation(fam, text)),
            (["ideals", action], lambda text: check.ideals(fam, text)),
            (["mul", "--algebra", "skew", action, paths["u"], paths["v"]],
             lambda text: check.mul_skew(fam, conv, text)),
            (["mul", "--algebra", "rel", action, paths["gu"], paths["gv"]],
             lambda text: check.mul_rel(fam, conv, text)),
            (["gamma", "--dir", "fwd", action, paths["u"]],
             lambda text: check.gamma_fwd(fam, u, text)),
            (["gamma", "--dir", "inv", action, paths["gu"]],
             lambda text: check.gamma_inv(fam, u, text)),
        ]
        failures = []
        for argv, verdict in commands:
            code, text = _run(argv)
            reason = verdict(text) if code == 0 else "exit %d" % code
            if reason is not None:
                failures.append("%s on %s: %s"
                                % (" ".join(argv[:argv.index(action)]), fam.name, reason))
    assert not failures, failures
