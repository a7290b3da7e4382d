"""Every case of the evaluation table runs and passes its checks.

Each case raises ``CheckFailure`` when a shape check fails, so a green
run here is the whole of ``repro figures``' verdict, case by case.
"""

import pytest

from repro.figures import CASES


@pytest.mark.parametrize("name", list(CASES))
def test_case(name):
    table = CASES[name]()
    assert table.title and table.rows
    assert all(len(row) == len(table.header) for row in table.rows)
