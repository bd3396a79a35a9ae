"""Every golden-matrix case reproduces its checked-in behaviour record."""

import pytest

from tests.golden import MATRIX, digest, load


@pytest.fixture(scope="module")
def golden():
    return load()


def test_matrix_and_golden_file_name_the_same_cases(golden):
    assert sorted(golden) == sorted(case.name for case in MATRIX)


@pytest.mark.parametrize("case", MATRIX, ids=[case.name for case in MATRIX])
def test_case_matches_golden(case, golden):
    assert digest(case) == golden[case.name]
