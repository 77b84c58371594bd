"""The selftest's draws, defined on getrandbits, against the random module's
own randint, randrange, choice and sample on the same stream."""

import random
from fractions import Fraction

from skewrel.fields import FieldSpec, PRIME_FIELD, RATIONALS
from skewrel.selftest import _below, _sample, random_value

NUMERATORS = (-3, -2, -1, 1, 2, 3)
DENOMINATORS = (1, 2, 3)


def test_draws_follow_the_random_module_stream():
    for seed in range(100):
        ours, theirs = random.Random(seed), random.Random(seed)
        bits = ours.getrandbits
        for n in range(31):
            pool = ["p%d" % i for i in range(n)]
            assert _below(bits, n + 1) == theirs.randint(0, n)
            for k in range(n + 1):
                assert _sample(ours, pool, k) == theirs.sample(pool, k)
            assert pool == ["p%d" % i for i in range(n)]
        for m in range(2, 12):
            assert 1 + _below(bits, m - 1) == theirs.randrange(1, m)
            if m in (2, 3, 5, 7, 11):
                assert random_value(ours, FieldSpec(PRIME_FIELD, m)) == theirs.randrange(1, m)
        for _ in range(5):
            expected = Fraction(theirs.choice(NUMERATORS), theirs.choice(DENOMINATORS))
            assert random_value(ours, FieldSpec(RATIONALS)) == expected
        assert ours.getrandbits(32) == theirs.getrandbits(32)
