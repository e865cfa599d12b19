"""Deciding whether two integers interlock.

(m, n) interlock when between every two consecutive divisors of n that both
exceed 1 there is a divisor of m strictly between them, and symmetrically
with the roles swapped.  "Strictly between" means strict inequality on both
sides.  A side with fewer than two divisors exceeding 1 (i.e. tau <= 2)
imposes no condition at all; pairs that interlock only through such vacuous
sides are flagged as degenerate rather than filtered out.

Two deciders are provided.  check_interlock implements the definition
directly and is the canonical semantics; callers that hold the divisor
lists (a scanner, or a factorization known by construction) pass them in.
check_alternation decides the same
question for coprime inputs by merging the two divisor lists and requiring
the sources to alternate strictly; a common divisor > 1 shows up as a tie
and is reported as a violation instead of being broken arbitrarily.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple

from .arith import divisors, smallest_prime_divisor, tau

FIRST = "first"
SECOND = "second"


class GapWitness(namedtuple("GapWitness", "kind side lower upper")):
    """Why a pair fails: either an unseparated gap or a tie in the merge.

    kind "gap": `lower` and `upper` are consecutive divisors (> 1) of the
    side named by `side` ("first" | "second"), with no divisor of the other
    side strictly between them.  kind "tie": lower == upper is a common
    divisor > 1, and side is "both".
    """

    __slots__ = ()


class InterlockReport(
    namedtuple(
        "InterlockReport",
        "verdict method first second degenerate witness trace",
        defaults=(None, None),
    )
):
    """method is "definitional" or "alternation"; a failure carries a
    GapWitness, a success the merged trace of divisors > 1."""

    __slots__ = ()


class TauRelation(
    namedtuple(
        "TauRelation",
        "smaller_d2_side order expected_tau_delta observed_tau_delta consistent",
    )
):
    """Divisor-count relation between the members of an oriented pair.

    Orientation puts `b` = the member whose smallest prime divisor is
    smaller and `a` = the other; smaller_d2_side names which argument that
    is, and order ("less" | "greater") compares b with a.  For interlocking
    pairs the expected difference tau(a) - tau(b) is 0 when b < a and -1
    when b > a.  The relation is pure arithmetic: it is computed whether or
    not the pair actually interlocks.
    """

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
    gap = _first_unseparated_gap(dm, dn)
    if gap is not None:
        return InterlockReport(
            False, "definitional", m, n, degenerate,
            witness=GapWitness("gap", FIRST, *gap),
        )
    gap = _first_unseparated_gap(dn, dm)
    if gap is not None:
        return InterlockReport(
            False, "definitional", m, n, degenerate,
            witness=GapWitness("gap", SECOND, *gap),
        )
    trace = tuple(sorted(set(dm) | set(dn)))
    return InterlockReport(True, "definitional", m, n, degenerate, trace=trace)


def check_alternation(m: int, n: int) -> InterlockReport:
    """Decide interlocking by merging divisor lists and requiring strict
    alternation of sources.  Valid as an interlock test for coprime inputs;
    a common divisor > 1 yields verdict False with a tie witness.
    """
    if m < 1 or n < 1:
        raise ValueError(f"check_alternation: inputs must be >= 1, got ({m}, {n})")
    dm = divisors(m)[1:]
    dn = divisors(n)[1:]
    degenerate = len(dm) < 2 or len(dn) < 2
    merged = sorted([(d, FIRST) for d in dm] + [(d, SECOND) for d in dn])
    for (a, src_a), (b, src_b) in zip(merged, merged[1:]):
        if a == b:
            return InterlockReport(
                False, "alternation", m, n, degenerate,
                witness=GapWitness("tie", "both", a, b),
            )
        if src_a == src_b:
            return InterlockReport(
                False, "alternation", m, n, degenerate,
                witness=GapWitness("gap", src_a, a, b),
            )
    return InterlockReport(
        True, "alternation", m, n, degenerate,
        trace=tuple(d for d, _ in merged),
    )


def tau_relation(m: int, n: int) -> TauRelation:
    """Compute the divisor-count relation for a pair with distinct smallest
    prime divisors.  Orientation is handled internally; equal smallest
    primes and m = n are rejected because the relation is undefined there.
    """
    if m < 2 or n < 2:
        raise ValueError(f"tau_relation: inputs must be >= 2, got ({m}, {n})")
    if m == n:
        raise ValueError("tau_relation: m = n is excluded")
    pm = smallest_prime_divisor(m)
    pn = smallest_prime_divisor(n)
    if pm == pn:
        raise ValueError(
            f"tau_relation: both members have smallest prime divisor {pm}"
        )
    if pm < pn:
        smaller_side = FIRST
        a, b = n, m
    else:
        smaller_side = SECOND
        a, b = m, n
    order = "less" if b < a else "greater"
    expected = 0 if b < a else -1
    observed = tau(a) - tau(b)
    return TauRelation(smaller_side, order, expected, observed, expected == observed)
