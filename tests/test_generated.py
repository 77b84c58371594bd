"""Generated partial actions (``strategies``) against what their global actions
predict, the validator against its reference on broken ones, and Gamma through
the CLI on free ones."""

import json
import random

from skewrel.actions import (build_relation, check_free, equivalence_classes,
                             validate_partial_action)
from skewrel.cli import main
from skewrel.documents import action_doc, dump_json, skew_doc
from skewrel.fixtures import GF5, RATIONALS_FIELD
from skewrel.funalg import InducedAlgebraAction
from skewrel.relalg import count_ideals
from skewrel.selftest import random_skew

from strategies import draw_any, mutate, reference_elements
from test_actions import reference_report


class TestGeneratedActions:
    def test_invariants_match_the_global_action(self):
        rng = random.Random(16)
        free = 0
        for _ in range(600):
            drawn = draw_any(rng)
            pa = drawn.action
            assert validate_partial_action(pa).ok
            assert check_free(pa).free == drawn.free
            rel = build_relation(pa)
            assert equivalence_classes(rel) == drawn.classes
            assert len(rel.pairs) == drawn.relation_size
            assert count_ideals(rel) == drawn.ideal_count
            free += drawn.free
        assert 200 < free < 550      # both free and non-free actions were drawn

    def test_validator_matches_the_reference_on_broken_actions(self):
        rng = random.Random(17)
        compared = failing = 0
        while compared < 2000:
            pa = mutate(rng, draw_any(rng).action)
            if pa is None:
                continue
            got = validate_partial_action(pa).render()
            assert got == reference_report(pa, reference_elements(pa))
            compared += 1
            failing += bool(got)
        assert 1200 < failing < 2000   # most mutants break the action, some do not


class TestGammaThroughTheCli:
    def test_gamma_is_a_multiplicative_bijection(self, tmp_path, capsys):
        """Gamma(uv) = Gamma(u)·Gamma(v) and Gamma^-1(Gamma(u)) = u, each side
        computed by a CLI command on documents written to disk."""
        def write(name, doc):
            path = tmp_path / name
            path.write_text(dump_json(doc), encoding="utf-8")
            return str(path)

        def run(key, *argv):
            assert main(list(argv)) == 0
            return json.loads(capsys.readouterr().out)[key]

        rng = random.Random(19)
        nonzero = 0
        for i in range(30):
            action = draw_any(rng, free_only=True).action
            field = rng.choice([RATIONALS_FIELD, GF5])
            alpha = InducedAlgebraAction(field, action)
            u, v = random_skew(rng, alpha), random_skew(rng, alpha)
            doc = write("action-%d.json" % i, action_doc(field, action))
            u_path, v_path = write("u.json", skew_doc(u)), write("v.json", skew_doc(v))
            uv = write("uv.json", run("product", "mul", "--algebra", "skew", doc, u_path, v_path))
            images = [write("gamma-%s.json" % name, run("image", "gamma", "--dir", "fwd", doc, path))
                      for name, path in (("u", u_path), ("v", v_path), ("uv", uv))]
            product = run("product", "mul", "--algebra", "rel", doc, images[0], images[1])
            assert product == json.loads((tmp_path / "gamma-uv.json").read_text())
            assert run("image", "gamma", "--dir", "inv", doc, images[0]) == skew_doc(u)
            nonzero += bool(product)
        assert nonzero >= 10
