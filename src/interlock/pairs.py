"""Deciding whether two integers interlock.

(m, n) interlock when between every two consecutive divisors of n that both
exceed 1 there is a divisor of m strictly between them, and symmetrically
with the roles swapped.  "Strictly between" means strict inequality on both
sides.  A side with fewer than two divisors exceeding 1 (i.e. tau <= 2)
imposes no condition at all; pairs that interlock only through such vacuous
sides are flagged as degenerate rather than filtered out.

check_interlock implements the definition directly and decides every
verdict; callers that hold the divisor lists (a scanner, or a factorization
known by construction) pass them in, and check_interlock_divisors gives its
verdict alone from those lists.  By the alternation lemma (separability),
on every m != n this is the same as the merged divisor lists above 1
alternating strictly between the two sides with no common entry.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple

from .arith import divisors

FIRST = "first"
SECOND = "second"


class GapWitness(namedtuple("GapWitness", "kind side lower upper")):
    """Why a pair fails: an unseparated gap.  kind is always "gap";
    `lower` and `upper` are consecutive divisors (> 1) of the side named by
    `side` ("first" | "second"), with no divisor of the other side strictly
    between them.
    """

    __slots__ = ()


class InterlockReport(
    namedtuple(
        "InterlockReport",
        "verdict method first second degenerate witness trace",
        defaults=(None, None),
    )
):
    """method is always "definitional"; a failure carries a GapWitness, a
    success the merged trace of divisors > 1."""

    __slots__ = ()


def _first_unseparated_gap(
    own: tuple[int, ...], other: tuple[int, ...]
) -> tuple[int, int] | None:
    """First consecutive pair of `own` with no `other` entry strictly inside."""
    for lo, hi in zip(own, own[1:]):
        i = bisect_right(other, lo)
        if not (i < len(other) and other[i] < hi):
            return lo, hi
    return None


def check_interlock(
    m: int, n: int,
    div_m: tuple[int, ...] | None = None, div_n: tuple[int, ...] | None = None,
) -> InterlockReport:
    """Decide interlocking by the definition (the canonical semantics).

    div_m / div_n, when given, are the complete ascending divisor lists of m
    and n (starting at 1), e.g. from divisors_from_factorization; a missing
    one is computed with divisors().  On success the trace is the merged
    ascending list of all divisors > 1 of either member (duplicates
    collapsed).  On failure the witness names the first unseparated gap,
    checking the first argument's gaps first.
    """
    if m < 1 or n < 1:
        raise ValueError(f"check_interlock: inputs must be >= 1, got ({m}, {n})")
    dm = (divisors(m) if div_m is None else div_m)[1:]
    dn = (divisors(n) if div_n is None else div_n)[1:]
    degenerate = len(dm) < 2 or len(dn) < 2
    for side, own, other in ((FIRST, dm, dn), (SECOND, dn, dm)):
        gap = _first_unseparated_gap(own, other)
        if gap is not None:
            return InterlockReport(
                False, "definitional", m, n, degenerate,
                witness=GapWitness("gap", side, *gap),
            )
    trace = tuple(sorted(set(dm) | set(dn)))
    return InterlockReport(True, "definitional", m, n, degenerate, trace=trace)


def check_interlock_divisors(div_m, div_n) -> bool:
    """check_interlock's verdict alone (no witness or trace), from the complete divisor lists."""
    dm, dn = div_m[1:], div_n[1:]
    return _first_unseparated_gap(dm, dn) is None and _first_unseparated_gap(dn, dm) is None
