"""Tests of the benchmark itself: generators, checks and failure counting.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from skewrel.actions import build_relation, check_free, equivalence_classes  # noqa: E402
from skewrel.documents import parse_action_document, parse_skew  # noqa: E402
from skewrel.funalg import InducedAlgebraAction  # noqa: E402
from skewrel.relalg import gamma  # noqa: E402

TINY = [
    lambda rng: gen.cyc(3, 2, rng),
    lambda rng: gen.cyc(2, 3, rng, modulus=5),
    lambda rng: gen.chain(4, rng),
    lambda rng: gen.s3_restricted((3, 1, 2), rng),
]


@pytest.mark.parametrize("make", TINY)
def test_generated_documents_match_their_invariants(make):
    fam = make(random.Random(7))
    field, action = parse_action_document(json.loads(json.dumps(fam.doc)))
    assert check_free(action).free
    assert len(action.carrier) == fam.points
    assert len(action.listed()) == len(fam.maps)
    rel = build_relation(action)
    assert len(rel.pairs) == fam.relation_size == len(fam.witness)
    assert {p: str(w[0]) for p, w in rel.pairs.items()} == fam.witness
    assert equivalence_classes(rel) == fam.classes
    assert 1 << len(equivalence_classes(rel)) == fam.ideal_count


@pytest.mark.parametrize("make", TINY)
def test_reference_gamma_and_convolution_agree_with_the_library(make):
    rng = random.Random(3)
    fam = make(rng)
    field, action = parse_action_document(fam.doc)
    rel = build_relation(action)
    alpha = InducedAlgebraAction(field, action, validate=False)
    u, v = gen.dense_skew(fam, rng), gen.dense_skew(fam, rng)
    su, sv = (parse_skew(alpha, gen.skew_doc(fam, w)) for w in (u, v))
    image = {p: gen.parse_scalar(str(c), fam.modulus)
             for p, c in gamma(rel, su * sv).coeffs.items()}
    assert image == gen.convolve(fam, gen.gamma(fam, u), gen.gamma(fam, v))


@pytest.fixture
def tiny_sizes(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(run, "CYC_STRUCTURE", (3, 2))
    monkeypatch.setattr(run, "S3_COPIES", 2)
    monkeypatch.setattr(run, "S3_SIZES", (2, 1))
    monkeypatch.setattr(run, "CHAIN_M", 3)
    monkeypatch.setattr(run, "CYC_PRODUCTS", (2, 3, 5))
    monkeypatch.setattr(run, "SELFTEST_TRIALS", 2)


def _result(capsys, workload, trace=0):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOAD_METRICS))
def test_every_workload_passes_its_checks(tiny_sizes, capsys, workload):
    result = _result(capsys, workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"pass_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer(tiny_sizes, capsys):
    result = _result(capsys, "products", trace=1)
    assert set(result["metrics"]) == set(run.PER_LAYER_NAMES)
    assert result["metrics"]["actions.classes"]["value"] == 3     # cyc(2, 3)
    assert result["metrics"]["skew.mul_calls"]["value"] == 2
    assert result["metrics"]["relalg.conv_calls"]["value"] == 2


def test_every_per_layer_metric_has_a_rule_and_a_row_in_metrics_md():
    assert set(run.RULES) | {"trace.overhead_frac"} == set(run.PER_LAYER_NAMES)
    with open(os.path.join(BENCH, "METRICS.md"), encoding="utf-8") as handle:
        table = handle.read()
    assert [n for n in run.PER_LAYER_NAMES if "`%s`" % n not in table] == []


def test_corrupted_output_is_counted_as_failed(tiny_sizes, capsys, monkeypatch):
    real = run.run_child

    def corrupt_inverse_images(argv, out_path, spans_path):
        outcome = real(argv, out_path, spans_path)
        if argv[:3] == ["gamma", "--dir", "inv"]:
            doc = json.loads(outcome.stdout)
            doc["image"][0]["coeffs"].popitem()
            outcome.stdout = json.dumps(doc)
        return outcome

    monkeypatch.setattr(run, "run_child", corrupt_inverse_images)
    result = _result(capsys, "products")
    per_pass = len(run.products_commands(random.Random(0), str(run.WORK)))
    assert not result["correct"]
    assert result["failed"] == 2 * result["attempted"] // per_pass


def test_failing_command_is_counted(tmp_path):
    out = str(tmp_path / "out.txt")
    argv = ["selftest", "--seed", "1", "--trials", "2", "--corrupt-skew-mul"]
    outcome = run.run_child(argv, out, "-")
    assert outcome.rc == 2 and outcome.reason.startswith("exit 2")
    assert check.selftest(1, 2, outcome.stdout) is not None

