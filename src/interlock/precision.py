"""Rigorous real comparisons backed by mpmath interval arithmetic.

Every comparison here pits an exact rational against a log or exponential of
a rational, so equality is impossible and the answer is decidable in
principle.  The decision happens at a configured working precision; when the
enclosing intervals still overlap, the precision escalates a few times and
then PrecisionError is raised rather than guessing.  The working precision
defaults to 256 bits and can be overridden with the INTERLOCK_PRECISION_BITS
environment variable.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from typing import Callable, TypeVar

import mpmath

DEFAULT_PRECISION_BITS = 256
PRECISION_ENV_VAR = "INTERLOCK_PRECISION_BITS"

_ESCALATION_FACTORS = (1, 2, 4, 8)

T = TypeVar("T")


class PrecisionError(ArithmeticError):
    """A comparison could not be decided at the working precision."""


def precision_bits() -> int:
    raw = os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError:
        raise ValueError(f"{PRECISION_ENV_VAR} must be an integer, got {raw!r}") from None
    if bits < 8:
        raise ValueError(f"{PRECISION_ENV_VAR} must be >= 8, got {bits}")
    return bits


@contextmanager
def iv_precision(bits: int):
    """Temporarily set the mpmath interval-context precision."""
    saved = mpmath.iv.prec
    mpmath.iv.prec = bits
    try:
        yield mpmath.iv
    finally:
        mpmath.iv.prec = saved


def iv_fraction(q: Fraction):
    """Enclosing interval for a rational at the current context precision."""
    return mpmath.iv.mpf(q.numerator) / mpmath.iv.mpf(q.denominator)


def escalating(step: Callable[..., T | None], what: str, base: int | None = None) -> T:
    """Run step(iv) at growing precision until it returns a non-None value.

    The precision starts at base bits (default: precision_bits()).  step
    must return None exactly when the intervals it computed were too wide
    to decide; after an 8x escalation the failure becomes a PrecisionError
    carrying `what`.
    """
    base = base or precision_bits()
    for factor in _ESCALATION_FACTORS:
        with iv_precision(base * factor) as iv:
            result = step(iv)
        if result is not None:
            return result
    raise PrecisionError(
        f"cannot decide {what} at {base * _ESCALATION_FACTORS[-1]} bits; "
        f"raise {PRECISION_ENV_VAR} to resolve"
    )


def _lt(lhs, rhs) -> bool | None:
    """lhs < rhs for disjoint intervals, None when they overlap."""
    if lhs.b < rhs.a:
        return True
    if lhs.a > rhs.b:
        return False
    return None


def interval_floor(x) -> int | None:
    # Raw-endpoint conversion: mpmath.floor would round the endpoint through
    # the 53-bit default context and corrupt anything above 2^53.
    lo, hi = x._mpi_
    f_lo = mpmath.libmp.to_int(lo, mpmath.libmp.round_floor)
    f_hi = mpmath.libmp.to_int(hi, mpmath.libmp.round_floor)
    return f_lo if f_lo == f_hi else None


def interval_ceil(x) -> int | None:
    lo, hi = x._mpi_
    c_lo = mpmath.libmp.to_int(lo, mpmath.libmp.round_ceiling)
    c_hi = mpmath.libmp.to_int(hi, mpmath.libmp.round_ceiling)
    return c_lo if c_lo == c_hi else None


def log_le(value: int, bound: Fraction | int) -> bool:
    """Decide ln(value) <= bound for integer value >= 1 and rational bound.

    ln of an integer >= 2 is irrational, so the comparison is never a tie;
    ln(1) = 0 is handled exactly.
    """
    if value < 1:
        raise ValueError(f"log_le: value must be >= 1, got {value}")
    bound = Fraction(bound)
    if value == 1:
        return bound >= 0

    def step(iv) -> bool | None:
        lt = _lt(iv_fraction(bound), iv.log(iv.mpf(value)))
        return None if lt is None else not lt

    return escalating(step, f"ln({value}) <= {bound}")


def fraction_lt_exp(q: Fraction, exponent: Fraction) -> bool:
    """Decide q < e^exponent for positive rational q and rational exponent.

    e^r is irrational for rational r != 0, and the r = 0 tie (q = 1) is
    handled exactly, so there is no equality case.
    """
    q = Fraction(q)
    exponent = Fraction(exponent)
    if q <= 0:
        raise ValueError(f"fraction_lt_exp: q must be positive, got {q}")
    if q == 1:
        return exponent > 0

    def step(iv) -> bool | None:
        lhs = iv.log(iv.mpf(q.numerator)) - iv.log(iv.mpf(q.denominator))
        return _lt(lhs, iv_fraction(exponent))

    return escalating(step, f"{q} < exp({exponent})")


def exp_lt_fraction(exponent: Fraction, q: Fraction) -> bool:
    """Decide e^exponent < q; the mirror of fraction_lt_exp."""
    q = Fraction(q)
    if q <= 0:
        return False
    if q == 1:
        return Fraction(exponent) < 0
    return not fraction_lt_exp(q, exponent)


@lru_cache(maxsize=4096)
def floor_exp(a: int) -> int:
    """Exact floor(e^a) for integer a >= 0 (e^a is irrational for a >= 1)."""
    if a < 0:
        raise ValueError(f"floor_exp: a must be >= 0, got {a}")
    if a == 0:
        return 1
    # e^a needs about 1.45 * a bits before the point; give headroom.
    needed = max(precision_bits(), int(a * 1.5) + 64)

    def step(iv):
        return interval_floor(iv.exp(iv.mpf(a)))

    return escalating(step, f"floor(e^{a})", needed)
