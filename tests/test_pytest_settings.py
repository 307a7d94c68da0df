"""The repository's pytest settings keep the report of a failing Hypothesis test."""

import pathlib

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_AND_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(k):
    assert k < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_prints_its_example_under_the_repo_settings(pytester):
    # Hypothesis imports libcst to report a failure, and that import warns
    # DeprecationWarning; "error::DeprecationWarning" alone turned it into an
    # INTERNALERROR that lost the falsifying example and ended the session
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    path = pytester.makepyfile(FAILING_AND_PASSING)
    result = pytester.runpytest_subprocess(str(path), "-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_fails(" in output
    result.assert_outcomes(failed=1, passed=1)
