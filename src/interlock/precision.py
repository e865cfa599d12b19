"""Rigorous real comparisons from integer enclosures.

Every comparison here pits an exact rational against the exponential of a
rational, or one of those against an integer, so equality is impossible (e^r
is irrational for rational r != 0; r = 0 is settled exactly) and the answer
is decidable in principle.  One kernel carries all of it, in plain integers:
exp_bounds(r, prec) gives lo <= e^r * 2^prec <= hi for a rational r >= 0.

It sums a fixed-point series with every term rounded down for lo and up
for hi, plus a bound on the tail, so the enclosure holds whatever the
precision; the precision only sets how narrow it is.  A decision that the
enclosure cannot settle returns None, and escalating doubles the precision,
from 256 bits (or more where the answer itself is longer), until it can.
How close a comparison comes to a tie grows with its operands: ln 3 to d
digits, 6.6d bits of numerator and denominator, puts e^r within 2^(-3.3d)
of 3.  So the ladder's ceiling is sized by them, 8 * max(start, B) bits for
operands of B bits in all, and past it PrecisionError is raised rather than
a guess.  Operands under 256 bits in all climb 256, 512, 1024, 2048.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from .arith import PrecisionError, decimal_text

START_BITS = 256


def _bits(*values: Fraction) -> int:
    return sum(v.numerator.bit_length() + v.denominator.bit_length() for v in values)


def escalating(step, what, operand_bits: int, start: int = START_BITS):
    """Run step(iv) at doubling precision until it returns a non-None value.

    iv.prec is the working precision in bits, from start up to 8 *
    max(start, operand_bits).  step must return None exactly when the
    enclosures it computed were too wide to decide; past the ceiling the
    failure becomes a PrecisionError carrying the text what() builds, which
    is built only then.
    """
    prec, ceiling = start, 8 * max(start, operand_bits)
    while prec <= ceiling:
        result = step(SimpleNamespace(prec=prec))
        if result is not None:
            return result
        prec *= 2
    raise PrecisionError(f"cannot decide {what()} at {prec // 2} bits")


def exp_bounds(r: Fraction, prec: int) -> tuple[int, int]:
    """Integers lo <= e^r * 2^prec <= hi for a rational r >= 0.

    The Taylor series of e^x, x = r / 2^s < 1/2, in fixed point with
    w > prec bits, each term rounded down for lo and up for hi; the last
    term bounds the tail (each later term is at most x/k < 1/2 of the one
    before).  Then s squarings, rounded outward.  The guard bits cover the
    rounding and its doubling at each squaring, so hi - lo is a few times
    e^r.
    """
    if r < 0:
        raise ValueError(f"exp_bounds: r must be >= 0, got {r}")
    p, q = r.numerator, r.denominator
    s = max(0, (2 * p).bit_length() - q.bit_length() + 1)  # 2p < q * 2^s
    w = prec + s + (prec + s).bit_length() + 4
    lo = hi = term_lo = term_hi = 1 << w
    k = 1
    while term_hi > 1:
        div = (q << s) * k
        term_lo = term_lo * p // div
        term_hi = -(-term_hi * p // div)
        lo += term_lo
        hi += term_hi
        k += 1
    hi += term_hi
    for _ in range(s):
        lo, hi = lo * lo >> w, -(-hi * hi >> w)
    return lo >> w - prec, -(-hi >> w - prec)


def log_le(value: int, bound: Fraction | int) -> bool:
    """Decide ln(value) <= bound, i.e. value <= e^bound, for integer value >= 1
    and rational bound: False for bound < 0, else value <= 2^bound < e^bound
    or value <= floor(e^bound), exact as e^bound is 1 or irrational.  The
    floor has about 1.44 * bound bits, not many more than value has."""
    if value < 1:
        raise ValueError(f"log_le: value must be >= 1, got {value}")
    if bound < 0:
        return False
    return (value - 1).bit_length() <= bound or value <= floor_exp(bound)


def fraction_lt_exp(q: Fraction, exponent: Fraction) -> bool:
    """Decide q < e^exponent for positive rational q and rational exponent.

    e^r is irrational for rational r != 0, and the r = 0 tie (q = 1) is
    handled exactly, so there is no equality case.  A negative exponent is
    decided as 1/q > e^-r, and an exponent of at least the numerator's bit
    length from the bit length alone, so the enclosure of e^r is never wider
    than q itself.
    """
    q = Fraction(q)
    exponent = Fraction(exponent)
    if q <= 0:
        raise ValueError(f"fraction_lt_exp: q must be positive, got {q}")
    if q == 1:
        return exponent > 0
    if exponent < 0:
        return not fraction_lt_exp(1 / q, -exponent)
    if exponent >= q.numerator.bit_length():  # q < 2^bits <= 2^r < e^r
        return True

    def step(iv) -> bool | None:
        lo, hi = exp_bounds(exponent, iv.prec)
        scaled = q.numerator << iv.prec  # q * 2^prec, times q.denominator
        below, above = scaled < lo * q.denominator, scaled > hi * q.denominator
        return below if below or above else None

    return escalating(step, lambda: f"{decimal_text(q)} < exp({decimal_text(exponent)})",
                      _bits(q, exponent))


@lru_cache(maxsize=4096)
def floor_exp(a: Fraction | int) -> int:
    """Exact floor(e^a) for rational a >= 0 (e^a is irrational for a > 0)."""
    if a < 0:
        raise ValueError(f"floor_exp: a must be >= 0, got {a}")
    if a == 0:
        return 1
    a = Fraction(a)
    # e^a has about 1.45 * a bits before the point; give headroom.
    int_bits = int(a * 3 / 2)

    def step(iv):
        lo, hi = exp_bounds(a, iv.prec)
        f = lo >> iv.prec
        return f if hi >> iv.prec == f else None

    return escalating(step, lambda: f"floor(e^{a})", _bits(a) + int_bits,
                      max(START_BITS, int_bits + 64))
