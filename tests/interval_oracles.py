"""mpmath interval replays of the coverage diagnostic's real comparisons.

The package decides these with its own integer enclosures; these are the
mpmath.iv computations it used before, at one fixed precision, raising
AssertionError where the intervals cannot decide.  params is a JumpParams.
They live apart from oracles.py, which the benchmark harness loads into its
own process.
"""

from __future__ import annotations

from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import round_ceiling, round_floor, to_int


def _iv_floor_ceil(value) -> tuple[int, int]:
    """(floor, ceil) of a real enclosed by an mpmath interval, read off the
    raw endpoints (mpmath.floor would round through the 53-bit context)."""
    lo, hi = value._mpi_
    fl, ce = to_int(lo, round_floor), to_int(hi, round_ceiling)
    assert fl == to_int(hi, round_floor) and ce == to_int(lo, round_ceiling), "undecided"
    return fl, ce


def _iv_context(prec: int):
    """A private mpmath interval context at prec bits."""
    iv = MPIntervalContext()
    iv.prec = prec
    return iv


def _iv_threshold(params, iv):
    if params.t is not None:
        return iv.log(iv.mpf(2)) * iv.mpf(2) ** (params.t - 2)
    return iv.mpf(params.override.numerator) / iv.mpf(params.override.denominator)


def oracle_coverage_level(x: int, params, prec: int = 1024) -> int | None:
    """floor(log2(ln ln x / ln c)) for a threshold c > 1, or None below 0;
    x = e^c exactly (t-form, x = 2^(2^(t-2))) is level 0."""
    if params.t is not None and (x - 1).bit_length() <= params.exp_threshold_log2:
        return 0 if x == 1 << params.exp_threshold_log2 else None
    iv = _iv_context(prec)
    inner = iv.log(iv.log(iv.mpf(x))) / iv.log(_iv_threshold(params, iv))
    if inner.b <= 0:
        return None
    assert inner.a > 0, "undecided"
    level = _iv_floor_ceil(iv.log(inner) / iv.log(iv.mpf(2)))[0]
    return None if level < 0 else level


def oracle_interval_bounds(params, power_log2: int, prec: int = 1024) -> tuple[int, int]:
    """(ceil, floor) of e^(c^p), p = 2^power_log2 (1/2 for -1)."""
    if params.t is not None and power_log2 == 0:
        exact = 1 << params.exp_threshold_log2
        return exact, exact
    iv = _iv_context(prec)
    c = _iv_threshold(params, iv)
    fl, ce = _iv_floor_ceil(iv.exp(iv.sqrt(c) if power_log2 < 0 else c ** (1 << power_log2)))
    return ce, fl
