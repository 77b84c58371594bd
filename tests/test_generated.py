"""Generated partial actions (``strategies``) against what their global actions
predict, and the validator against its reference on broken ones."""

import random

from skewrel.actions import (build_relation, check_free, equivalence_classes,
                             validate_partial_action)
from skewrel.relalg import count_ideals

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
