"""Shared fixtures: the bundled demo systems and their derived forms."""
import pytest

from anoncheck.composition import (derive_parallel, derive_sequential,
                                   standard_parallel_schema, standard_sequential_schema)
from anoncheck.registry import fixture_system, paper_system


@pytest.fixture(scope="session")
def s12():
    return paper_system("s12")


@pytest.fixture(scope="session")
def s1234():
    return paper_system("s1234")


@pytest.fixture(scope="session")
def s56():
    return paper_system("s56")


@pytest.fixture(scope="session")
def s12_seq(s12):
    """s12 with the chained submit facts derived."""
    return derive_sequential(s12, standard_sequential_schema(s12))


@pytest.fixture(scope="session")
def s56_seq(s56):
    return derive_sequential(s56, standard_sequential_schema(s56))


@pytest.fixture(scope="session")
def par_swap():
    return fixture_system("par_swap")


@pytest.fixture(scope="session")
def par_swap_joint(par_swap):
    return derive_parallel(par_swap, standard_parallel_schema(par_swap))
