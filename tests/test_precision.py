"""Rigorous-comparison helpers: known values, tight margins, hard errors."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlock import precision
from interlock.arith import PrecisionError
from interlock.precision import (
    exp_bounds,
    floor_exp,
    fraction_lt_exp,
    log_le,
)


def test_fraction_lt_exp_past_the_str_digit_limit():
    # Numerators of 5,000 digits: the comparison never writes q as text.
    tiny = Fraction(10**4999 + 1, 10**4999)  # 1 + 10^-4999
    assert fraction_lt_exp(tiny, Fraction(1, 10**6))
    near_three = Fraction(3 * 10**4999 + 1, 10**4999)
    assert near_three.numerator.bit_length() > 16000  # 5,000 digits
    assert not fraction_lt_exp(near_three, Fraction(1))  # e = 2.718...
    assert fraction_lt_exp(near_three, Fraction(11, 10))  # e^1.1 = 3.004...
    assert fraction_lt_exp(1 / near_three, Fraction(-1))  # 1/3 < 1/e


def test_log_le_known_values():
    # e^5 = 148.41...: 148 is inside, 149 is out.
    assert log_le(148, 5)
    assert not log_le(149, 5)
    assert log_le(1, 0)
    assert not log_le(2, 0)
    assert log_le(2, Fraction(7, 10))  # ln 2 = 0.693...
    assert not log_le(2, Fraction(69, 100))
    # Either side of floor(e^C) and of 2^floor(C), where the two rules of
    # log_le meet, against 4,000-bit mpmath.
    with mpmath.workprec(4000):
        for bound in (999, 1000, 1001, Fraction(2001, 2)):
            e_bound = mpmath.exp(mpmath.mpf(bound.numerator) / bound.denominator)
            e_floor, two = int(mpmath.floor(e_bound)), 1 << math.floor(bound)
            for value in (e_floor, e_floor + 1, two, two + 1):
                assert log_le(value, bound) == (value <= e_bound), (value, bound)


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
    with pytest.raises(ValueError, match="a must be >= 0, got -1"):
        floor_exp(-1)


def test_fraction_lt_exp_tight_margin():
    # (257/256) = 1.00390625 < e^(1/256) = 1.0039138...: a 7e-6 margin.
    assert fraction_lt_exp(Fraction(257, 256), Fraction(1, 256))
    assert not fraction_lt_exp(Fraction(258, 256), Fraction(1, 256))
    assert fraction_lt_exp(Fraction(1, 2), Fraction(0))
    assert not fraction_lt_exp(Fraction(3, 2), Fraction(0))
    assert fraction_lt_exp(Fraction(1), Fraction(1, 10**9))


def test_exp_below_a_fraction():
    assert not fraction_lt_exp(Fraction(11, 10), Fraction(1, 192))
    assert fraction_lt_exp(Fraction(1), Fraction(1, 192))
    assert not fraction_lt_exp(Fraction(1), Fraction(-1))
    with pytest.raises(ValueError, match="q must be positive, got 0"):
        fraction_lt_exp(Fraction(0), 1)


def ln3_razor(digits: int, up: bool) -> Fraction:
    """ln 3 rounded down (or up) to this many decimal digits."""
    with mpmath.workprec(4000 + 4 * digits):
        scaled = mpmath.log(3) * mpmath.mpf(10) ** digits
        return Fraction(int(mpmath.ceil(scaled) if up else mpmath.floor(scaled)), 10**digits)


def wide_enclosures(monkeypatch) -> list[int]:
    """Make every enclosure too wide to decide, and list the precisions tried."""
    tried = []

    def wide(r, prec):
        tried.append(prec)
        return 0, 1 << (prec + 64)

    monkeypatch.setattr(precision, "exp_bounds", wide)
    floor_exp.cache_clear()
    return tried


@pytest.mark.parametrize("digits", [200, 700])
@pytest.mark.parametrize("up", [False, True])
def test_razor_margins_decide_at_operand_sized_precision(digits, up):
    # The bound sits 10^-digits from ln 3: separating e^bound from 3 takes
    # more bits than a fixed 2,048-bit ceiling at 700 digits, and fewer than
    # the ceiling the operands' lengths set.
    razor = ln3_razor(digits, up)
    floor_exp.cache_clear()
    with mpmath.workprec(4000 + 4 * digits):
        expected = 3 <= mpmath.exp(mpmath.mpf(razor.numerator) / razor.denominator)
    assert expected is up  # rounded up, the bound passes ln 3
    assert log_le(3, razor) is expected
    assert fraction_lt_exp(Fraction(3), razor) is expected


def test_the_removed_precision_variable_changes_nothing(monkeypatch):
    # At 8 bits the old fixed ladder topped out at 64 bits and raised here.
    monkeypatch.setenv("INTERLOCK_PRECISION_BITS", "8")
    floor_exp.cache_clear()
    assert not log_le(3, ln3_razor(200, up=False))


def test_precision_error_when_the_enclosure_never_narrows(monkeypatch):
    tried = wide_enclosures(monkeypatch)
    with pytest.raises(PrecisionError, match=r"floor\(e\^5\) at 2048 bits$"):
        floor_exp(5)
    assert tried == [256, 512, 1024, 2048]  # 5 has a few bits: 8 * 256
    # Long operands raise the ceiling to 8 times their bit length.
    razor = ln3_razor(200, up=False)
    operand_bits = razor.numerator.bit_length() + razor.denominator.bit_length()
    tried.clear()
    with pytest.raises(PrecisionError) as raised:
        fraction_lt_exp(Fraction(3), razor)
    assert tried == [256 << i for i in range(len(tried))]
    assert tried[-1] <= 8 * (operand_bits + 3) < 2 * tried[-1]
    assert str(raised.value).endswith(f" at {tried[-1]} bits")


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


def test_enclosures_contain_mpmath_values():
    # 4,000-bit mpmath values, against random r in [0, 50] at 8 to 512 bits.
    rng = random.Random(17)
    with mpmath.workprec(4000):
        for _ in range(300):
            r = Fraction(rng.randint(0, 50_000), rng.randint(1, 1000))
            prec = rng.randint(8, 512)
            lo, hi = exp_bounds(r, prec)
            exact = mpmath.exp(mpmath.mpf(r.numerator) / r.denominator) * mpmath.mpf(2) ** prec
            assert lo <= exact <= hi, (r, prec)
            # a few units of e^r relative to 2^prec
            assert hi - lo <= exact / mpmath.mpf(2) ** prec * 4, (r, prec)
        assert exp_bounds(Fraction(0), 64) == (1 << 64, 1 << 64)


def test_floor_exp_matches_mpmath_to_300():
    with mpmath.workprec(1000):
        for a in range(301):
            assert floor_exp(a) == int(mpmath.floor(mpmath.exp(a))), a
    assert floor_exp(Fraction(5, 2)) == 12  # e^2.5 = 12.18...


def test_decisions_match_mpmath_on_random_rationals():
    rng = random.Random(5)
    with mpmath.workprec(2000):
        for _ in range(500):
            q = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4))
            r = Fraction(rng.randint(-2000, 2000), rng.randint(1, 200))
            expected = mpmath.mpf(q.numerator) / q.denominator < mpmath.exp(
                mpmath.mpf(r.numerator) / r.denominator
            )
            assert fraction_lt_exp(q, r) == expected, (q, r)


def test_exp_bounds_rejects_negative_exponents():
    with pytest.raises(ValueError):
        exp_bounds(Fraction(-1), 64)


def test_decisions_far_from_one_stay_small():
    # ln(10^-900) = -2072.3..., decided through 1/q at relative precision.
    assert fraction_lt_exp(Fraction(1, 10**900), Fraction(-2000))
    assert not fraction_lt_exp(Fraction(1, 10**900), Fraction(-2100))
    # An exponent past q's bit length is settled without e^r: e^(10^12)
    # would have about 1.44e12 bits.
    assert fraction_lt_exp(Fraction(720720), Fraction(10**12))
    assert log_le(2**40 - 1, 40)
    assert not log_le(10**18, 41)  # ln(10^18) = 41.4...
