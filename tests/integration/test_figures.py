"""Every case of the evaluation table runs and passes its checks.

``run_case`` raises ``CheckFailure`` when a case's shape check or its
table's shape (title, rows, row widths) fails, so a green run here is
the whole of ``repro figures``' verdict, case by case.
"""

import pytest

from repro.figures import CASES, run_case


@pytest.mark.parametrize("name", list(CASES))
def test_case(name):
    run_case(name)
