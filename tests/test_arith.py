from fractions import Fraction

import numpy as np
import pytest

from lcak.arith import Field

EXACT, FLOAT = Field(True), Field(False, 1e-9)


def test_bound_rule():
    assert EXACT.bound(1e6) == 0
    assert FLOAT.bound() == FLOAT.bound(1e-3) == 1e-9
    assert FLOAT.bound(1e3) == pytest.approx(1e-6)


def test_scalars_and_arrays_keep_the_mode():
    assert EXACT.scalar(1, 2) == Fraction(1, 2) and EXACT.scalar("-3/4") == Fraction(-3, 4)
    assert FLOAT.scalar(1, 2) == 0.5 and isinstance(FLOAT.scalar(Fraction(1, 4)), float)
    with pytest.raises(TypeError):
        EXACT.scalar(0.5)
    a = EXACT.array([[1, Fraction(1, 3)], ["2/5", 0]])
    assert a.dtype == object and all(type(v) is Fraction for v in a.flat)
    assert FLOAT.array(a).dtype == float
    assert list(EXACT.eye(2).flat) == [1, 0, 0, 1] and EXACT.zeros(2, 3).shape == (2, 3)


def test_is_zero_exact_and_relative():
    assert EXACT.is_zero([Fraction(0), 0]) and not EXACT.is_zero(Fraction(1, 10 ** 30))
    assert FLOAT.is_zero(5e-10) and not FLOAT.is_zero(5e-9)
    assert FLOAT.is_zero(5e-9, scale=10.0)


@pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e6])
def test_nondegeneracy_is_scale_free(scale):
    f = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert FLOAT.is_nondegenerate(scale * f)
    assert not FLOAT.is_nondegenerate(scale * np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_nondegeneracy_exact_and_nonfinite():
    assert not FLOAT.is_nondegenerate(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    assert EXACT.is_nondegenerate(EXACT.array([[0, Fraction(1, 10 ** 9)], [-1, 0]]))
    assert not EXACT.is_nondegenerate(EXACT.zeros(2, 2))
