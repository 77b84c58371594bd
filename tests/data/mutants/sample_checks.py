"""The test suite of sample.py; tests/test_mutants.py copies it to tests/test_sample.py."""

from sample import double_if_positive


def test_doubles_only_positive_numbers():
    assert double_if_positive(3) == 6
    assert double_if_positive(-1) == -1
