"""One scalar rule: every public scalar argument refuses a non-number the same way."""

import re

import pytest

from scalar_cases import CASES


@pytest.mark.parametrize("case", CASES)
def test_bad_scalar_refused(case):
    call, what, value = CASES[case]
    with pytest.raises(ValueError) as refusal:
        call(value)
    assert type(refusal.value) is ValueError
    message = rf"{re.escape(what)} must be [^,]+, got {re.escape(repr(value))}"
    assert re.fullmatch(message, str(refusal.value))
