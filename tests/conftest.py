import sys

import pytest
from hypothesis import settings

# Fixed examples, no timing limit and no example database, so every run
# of the suite draws the same cases.
settings.register_profile("tatekit", derandomize=True, deadline=None, database=None)
settings.load_profile("tatekit")


@pytest.fixture
def digit_limit():
    """Python's default limit of 4,300 digits on integer strings, for one
    test, whatever the process had; the test may lift it."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)
