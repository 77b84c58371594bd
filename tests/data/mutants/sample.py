"""The module tests/test_mutants.py runs the mutation gate on: it has two mutants."""


def double_if_positive(n):
    """2n for n > 0, else n. At n = 0 both are 0, so no test can tell > from >=."""
    return 2 * n if n > 0 else n
