"""The selftest's draws, defined on getrandbits, against the random module's
own randint, randrange, choice and sample on the same stream."""

import random
from fractions import Fraction

from skewrel.fields import FieldSpec, PRIME_FIELD, RATIONALS
from skewrel.selftest import _support, _values, random_value

NUMERATORS = (-3, -2, -1, 1, 2, 3)
DENOMINATORS = (1, 2, 3)


def test_draws_follow_the_random_module_stream():
    for seed in range(100):
        ours, theirs = random.Random(seed), random.Random(seed)
        bits = ours.getrandbits
        for n in range(31):           # past 21 items, _support hands the pool to rng.sample
            pool = ["p%d" % i for i in range(n)]
            for _ in range(3):
                assert _support(bits, ours, pool) == theirs.sample(pool, theirs.randint(0, n))
                assert ours.getstate() == theirs.getstate()
            assert pool == ["p%d" % i for i in range(n)]
        for m in range(2, 12):
            keys = ["k%d" % i for i in range(m % 4)]
            assert _values(bits, m, keys) == {key: theirs.randrange(1, m) for key in keys}
            assert ours.getstate() == theirs.getstate()
            if m in (2, 3, 5, 7, 11):
                assert random_value(ours, FieldSpec(PRIME_FIELD, m)) == theirs.randrange(1, m)
                assert ours.getstate() == theirs.getstate()
        keys = ["k%d" % i for i in range(5)]
        expected = {key: Fraction(theirs.choice(NUMERATORS), theirs.choice(DENOMINATORS))
                    for key in keys}
        values = _values(bits, None, keys)
        assert values == expected and list(values) == keys
        assert ours.getstate() == theirs.getstate()
        expected = Fraction(theirs.choice(NUMERATORS), theirs.choice(DENOMINATORS))
        assert random_value(ours, FieldSpec(RATIONALS)) == expected
        assert ours.getstate() == theirs.getstate()
        assert ours.getrandbits(32) == theirs.getrandbits(32)
