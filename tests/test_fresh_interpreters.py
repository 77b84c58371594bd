"""Golden outputs stay byte-identical from one fresh interpreter to the next.

Specs and group elements are interned and hash by identity, that is by memory
address, which differs between interpreters even at one PYTHONHASHSEED: a set
of them iterates in another order in each process, and no output may follow
that order. Each command below runs as ``python -m skewrel.cli`` in three fresh
interpreters, at this process's PYTHONHASHSEED (0 when it sets none), and each
run's stdout must equal its golden file byte for byte.
"""

import os
import subprocess
import sys

import pytest

import skewrel
from test_golden import CASES, GOLDEN

NAMES = sorted(name for name in CASES if name.startswith("validate-broken-")) + [
    "validate-sparse-z-40", "relation-cyc-8-12", "selftest-cyc-8-12-1-3"]
RUNS = 3


@pytest.mark.parametrize("name", NAMES)
def test_stdout_matches_golden_in_fresh_interpreters(name):
    argv, code = CASES[name]
    with open(os.path.join(GOLDEN, name + ".json"), "rb") as handle:
        expected = handle.read()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(skewrel.__file__)),
               PYTHONHASHSEED=os.environ.get("PYTHONHASHSEED", "0"))
    for _ in range(RUNS):
        done = subprocess.run([sys.executable, "-m", "skewrel.cli", *argv], env=env,
                              capture_output=True, timeout=60)
        assert done.returncode == code, done.stderr.decode()
        assert done.stdout == expected
