import math

import numpy as np
import pytest

from convrate.errors import ParameterError, check_nonnegative


@pytest.mark.parametrize("value", [0.0, -0.0, np.float32(2.5), np.int64(3), 7])
def test_nonnegative_value_returned_as_float(value):
    result = check_nonnegative(value, "x")
    assert type(result) is float
    assert result == value
    assert math.copysign(1.0, result) == math.copysign(1.0, value)


@pytest.mark.parametrize("value", [-1e-300, math.nan, math.inf, -math.inf])
def test_negative_or_non_finite_value_rejected(value):
    with pytest.raises(ParameterError) as info:
        check_nonnegative(value, "x")
    assert str(info.value) == f"x must be finite and >= 0, got {value}"
