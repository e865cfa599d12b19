"""Rigorous-comparison helpers: known values, tight margins, hard errors."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlock.precision import (
    PrecisionError,
    exp_lt_fraction,
    floor_exp,
    fraction_lt_exp,
    log_le,
    precision_bits,
)


def test_log_le_known_values():
    # e^5 = 148.41...: 148 is inside, 149 is out.
    assert log_le(148, 5)
    assert not log_le(149, 5)
    assert log_le(1, 0)
    assert not log_le(2, 0)
    assert log_le(2, Fraction(7, 10))  # ln 2 = 0.693...
    assert not log_le(2, Fraction(69, 100))


def test_log_le_rejects_zero():
    with pytest.raises(ValueError):
        log_le(0, 1)


def test_floor_exp_values():
    assert floor_exp(0) == 1
    assert floor_exp(1) == 2
    assert floor_exp(2) == 7
    assert floor_exp(5) == 148
    assert floor_exp(20) == 485165195
    # Large argument: compare against mpmath at fixed precision.
    with mpmath.workprec(700):
        expected = int(mpmath.floor(mpmath.exp(400)))
    assert floor_exp(400) == expected


def test_fraction_lt_exp_tight_margin():
    # (257/256) = 1.00390625 < e^(1/256) = 1.0039138...: a 7e-6 margin.
    assert fraction_lt_exp(Fraction(257, 256), Fraction(1, 256))
    assert not fraction_lt_exp(Fraction(258, 256), Fraction(1, 256))
    assert fraction_lt_exp(Fraction(1, 2), Fraction(0))
    assert not fraction_lt_exp(Fraction(3, 2), Fraction(0))
    assert fraction_lt_exp(Fraction(1), Fraction(1, 10**9))


def test_exp_lt_fraction():
    assert exp_lt_fraction(Fraction(1, 192), Fraction(11, 10))
    assert not exp_lt_fraction(Fraction(1, 192), Fraction(1))
    assert exp_lt_fraction(Fraction(-1), Fraction(1))


def test_precision_error_on_razor_margin(monkeypatch):
    # A rational 200 digits from ln 3 cannot be separated at 32 * 8 bits.
    monkeypatch.setenv("INTERLOCK_PRECISION_BITS", "32")
    assert precision_bits() == 32
    with mpmath.workprec(1200):
        scaled = int(mpmath.floor(mpmath.log(3) * mpmath.mpf(10) ** 200))
    razor = Fraction(scaled, 10**200)
    with pytest.raises(PrecisionError):
        log_le(3, razor)
    # The same comparison resolves at the default precision budget.
    monkeypatch.delenv("INTERLOCK_PRECISION_BITS")
    assert not log_le(3, razor)  # truncation makes the bound fall short


def test_env_var_validation(monkeypatch):
    for raw in ("4", "abc"):
        monkeypatch.setenv("INTERLOCK_PRECISION_BITS", raw)
        with pytest.raises(ValueError, match="INTERLOCK_PRECISION_BITS"):
            precision_bits()


@given(st.integers(min_value=2, max_value=10**9), st.integers(min_value=-20, max_value=40))
@settings(max_examples=300, deadline=None)
def test_log_le_agrees_with_float_when_comfortable(value, bound):
    # Far from ties, the rigorous comparison matches floating point.
    margin = math.log(value) - bound
    if abs(margin) > 1e-6:
        assert log_le(value, bound) == (margin <= 0)


@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1000)),
    st.fractions(min_value=Fraction(-8), max_value=Fraction(8)),
)
@settings(max_examples=300, deadline=None)
def test_fraction_lt_exp_agrees_with_float_when_comfortable(q, expo):
    lhs = math.log(float(q))
    if abs(lhs - float(expo)) > 1e-6:
        assert fraction_lt_exp(q, expo) == (lhs < float(expo))
