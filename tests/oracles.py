"""Independent reference implementations used as test oracles.

Deliberately naive: trial division, multiples sieves, and the interlock
definition transcribed directly.  Nothing here shares code with the package
under test.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from itertools import combinations
from math import isqrt, prod


def oracle_factorize(n: int) -> dict[int, int]:
    """Pure trial division."""
    fac: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def oracle_divisors(n: int) -> list[int]:
    """Trial division up to the square root."""
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def prime_sieve(limit: int) -> bytearray:
    """is_prime flags for 0..limit."""
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(range(i * i, limit + 1, i))
    return flags


def divisor_table(limit: int) -> list[list[int]]:
    """Divisor lists for 0..limit via one multiples sweep."""
    table: list[list[int]] = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for mult in range(d, limit + 1, d):
            table[mult].append(d)
    return table


def tau_table(limit: int) -> list[int]:
    counts = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for mult in range(d, limit + 1, d):
            counts[mult] += 1
    return counts


def oracle_interlock(m: int, n: int, table=None) -> bool:
    """The definition, verbatim: between consecutive divisors > 1 of each
    member there must lie a divisor of the other, strictly.  table, when
    given, maps m and n to their ascending divisor lists (a divisor_table,
    or a dict)."""
    dm = [d for d in (table[m] if table else oracle_divisors(m)) if d > 1]
    dn = [d for d in (table[n] if table else oracle_divisors(n)) if d > 1]
    for own, other in ((dm, dn), (dn, dm)):
        for lo, hi in zip(own, own[1:]):
            i = bisect_right(other, lo)
            if not (i < len(other) and other[i] < hi):
                return False
    return True


def oracle_has_divisor_free_of(n_divisors: list[int], y: int, z: int) -> bool:
    """True when none of the given divisors lies in [y, z]."""
    return not any(y <= d <= z for d in n_divisors)


def oracle_canonical_splits(k: int):
    """Every split of the first k primes (k >= 1) into (m side, n side),
    each side ascending, with 2 on the m side."""
    limit = 8
    while sum(prime_sieve(limit)) < k:
        limit *= 2
    primes = [p for p, flag in enumerate(prime_sieve(limit)) if flag][:k]
    for r in range(k):
        for n_side in combinations(primes[1:], r):
            yield tuple(p for p in primes if p not in n_side), n_side


def oracle_primorial_pairs(k: int) -> list[tuple[int, int]]:
    """Every interlocking canonical split (m, n) of the first k primes,
    sorted by m: each side's divisor list is the products of all subsets of
    its primes."""
    found = []
    for sides in oracle_canonical_splits(k):
        table = {
            prod(side): sorted(
                prod(c) for r in range(len(side) + 1) for c in combinations(side, r)
            )
            for side in sides
        }
        m, n = map(prod, sides)
        if oracle_interlock(m, n, table):
            found.append((m, n))
    return sorted(found)


class TauRelation(
    namedtuple(
        "TauRelation",
        "smaller_d2_side order expected_tau_delta observed_tau_delta consistent",
    )
):
    """Divisor-count relation between the members of an oriented pair.

    Orientation puts `b` = the member whose smallest prime divisor is
    smaller and `a` = the other; smaller_d2_side ("first" | "second") names
    which argument that is, and order ("less" | "greater") compares b with
    a.  For interlocking pairs the expected difference tau(a) - tau(b) is 0
    when b < a and -1 when b > a.  The relation is pure arithmetic: it is
    computed whether or not the pair actually interlocks.
    """

    __slots__ = ()


def tau_relation(m: int, n: int) -> TauRelation:
    """The divisor-count relation for a pair with distinct smallest prime
    divisors, by trial division.  Equal smallest primes and m = n are
    rejected because the relation is undefined there."""
    if m < 2 or n < 2:
        raise ValueError(f"tau_relation: inputs must be >= 2, got ({m}, {n})")
    if m == n:
        raise ValueError("tau_relation: m = n is excluded")
    pm, pn = min(oracle_factorize(m)), min(oracle_factorize(n))
    if pm == pn:
        raise ValueError(f"tau_relation: both members have smallest prime divisor {pm}")
    if pm < pn:
        smaller_side, a, b = "first", n, m
    else:
        smaller_side, a, b = "second", m, n
    order = "less" if b < a else "greater"
    expected = 0 if b < a else -1
    observed = len(oracle_divisors(a)) - len(oracle_divisors(b))
    return TauRelation(smaller_side, order, expected, observed, expected == observed)
