"""Arithmetic primitives against naive oracles and a prime sieve."""

import random
import tracemalloc
from array import array
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlock import arith
from interlock.arith import (
    DETERMINISTIC_PRIME_BOUND,
    FACTOR_TABLE_CAP,
    MAX_DIVISOR_BITS,
    MAX_DIVISOR_LIST,
    FactorTable,
    check_divisor_caps,
    decimal_int,
    decimal_text,
    divisors,
    divisors_from_factorization,
    factorize,
    first_primes,
    is_prime,
    next_prime,
    smallest_prime_divisor,
)
from oracles import oracle_divisors, oracle_factorize, prime_sieve, tau_table

SIEVE_LIMIT = 1_000_000
PIECE = arith._TABLE_PIECE
FLAGS = prime_sieve(SIEVE_LIMIT + 100)


def test_factorize_examples():
    assert factorize(231) == ((3, 1), (7, 1), (11, 1))
    assert factorize(1) == ()
    assert factorize(2470) == ((2, 1), (5, 1), (13, 1), (19, 1))
    assert factorize(2470) == tuple(sorted(oracle_factorize(2470).items()))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_matches_trial_division():
    for n in range(1, 3000):
        assert factorize(n) == tuple(sorted(oracle_factorize(n).items())), n


def test_factorize_high_prime_powers():
    # A prime power is stripped by p, p^2, p^4, ...: 2^200000 takes O(log^2 e)
    # divisions, not 200,000.
    assert factorize(2**200_000) == ((2, 200000),)
    assert factorize(3**5000 * 5) == ((3, 5000), (5, 1))
    assert factorize(2**31 * 3**15 * 7) == ((2, 31), (3, 15), (7, 1))


def test_factorize_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == ((p, 1), (q, 1))


def test_divisors_examples():
    assert divisors(64) == (1, 2, 4, 8, 16, 32, 64)
    assert divisors(63) == (1, 3, 7, 9, 21, 63)
    assert divisors(1) == (1,)
    with pytest.raises(ValueError):
        divisors(0)


def test_divisors_match_oracle():
    for n in range(1, 2000):
        assert list(divisors(n)) == oracle_divisors(n), n


def test_divisors_from_factorization_high_powers():
    # High exponents and several primes: every layer of the builder counts.
    for n in (2**20, 3**12 * 5**3, 2**5 * 3**4 * 7**2 * 11):
        assert divisors_from_factorization(factorize(n)) == tuple(oracle_divisors(n)), n


def test_divisor_list_cap_refuses():
    with pytest.raises(ValueError, match="cap"):
        divisors_from_factorization(((2, MAX_DIVISOR_LIST),))


def test_divisor_caps_refuse_counts_past_the_str_digit_limit():
    # A 5,001-digit count is named in the cap's own refusal, not in str()'s.
    count = 10**5000
    with pytest.raises(ValueError) as refused:
        check_divisor_caps(count, 10)
    assert str(refused.value) == (
        f"divisors: value has {decimal_text(count)} divisors, "
        f"above the {MAX_DIVISOR_LIST} cap"
    )


def test_divisor_list_size_cap_refuses_before_building():
    # 256 divisors of an 8 * 2^20-bit value: about 2^30 bits in all, 128 MB
    # if the list were built.  Stand-in primes do: the builder only multiplies.
    bits = (1 << 20) + 64
    fac = tuple(((1 << bits) + 2 * i + 1, 1) for i in range(8))
    assert 256 * 8 * (bits + 1) // 2 > MAX_DIVISOR_BITS
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="-bit cap"):
            divisors_from_factorization(fac)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # Under the bound the same shape builds.
    small = tuple(((1 << 64) + 2 * i + 1, 1) for i in range(8))
    assert len(divisors_from_factorization(small)) == 256


@pytest.mark.parametrize("digits", [2, 19, 4300, 4301, 20000])
def test_decimal_codec_roundtrips_any_length(digits):
    up = 10 ** (digits - 1) + 7  # "10...07"
    assert decimal_text(up) == "1" + "0" * (digits - 2) + "7"
    assert decimal_text(-up) == "-" + decimal_text(up)
    for value in (up, -up, 10**digits - 1, -(10**digits - 1)):
        text = decimal_text(value)
        assert len(text.lstrip("-")) == digits
        assert decimal_int(text) == value == decimal_int(f" {text}\n")
    assert decimal_int("+" + decimal_text(up)) == up


def test_decimal_codec_matches_str_and_int():
    for value in (0, -5, 2**63, -(2**1800), 10**700 + 1):
        assert decimal_text(value) == str(value)
        assert decimal_int(str(value)) == value
    assert decimal_text(Fraction(7, 3)) == "7/3" and decimal_text(Fraction(5)) == "5"
    big = Fraction(10**4400 + 1, 3)
    num, den = decimal_text(big).split("/")
    assert den == "3" and len(num) == 4401 and decimal_int(num) == big.numerator
    assert decimal_int("1_000") == 1000 == decimal_int("1_" * 400 + "000") % 10**4
    assert decimal_int(True) == 1 and decimal_int(12) == 12


@pytest.mark.parametrize("text", [
    "1.5", "1e5", "", " ", "-", "NaN", "Infinity", "0x10", "1__0", "_1", "1_",
    "1" * 5000 + ".5", "1" * 5000 + "e5", "_" + "1" * 5000, "1" * 5000 + "_",
    "1" * 2500 + "__" + "1" * 2500, "--" + "1" * 5000, "+-" + "1" * 5000,
    " " * 5000, "NaN" + " " * 5000,
])
def test_decimal_int_refuses_what_int_refuses(text):
    with pytest.raises(ValueError) as refused:
        decimal_int(text)
    with pytest.raises(ValueError) as by_int:
        int(text)
    assert str(refused.value) == str(by_int.value)


def test_divisor_list_reconstructs_factorization():
    # The divisor list pins down the factorization: for each prime p in the
    # list, the exponent is the largest k with p^k present.
    for n in range(1, 100_001):
        divs = divisors(n)
        dset = set(divs)
        rebuilt = {}
        for d in divs:
            if d > 1 and d <= SIEVE_LIMIT and FLAGS[d]:
                e = 1
                while d ** (e + 1) in dset:
                    e += 1
                rebuilt[d] = e
        assert tuple(sorted(rebuilt.items())) == factorize(n), n


def test_tau_multiplicative_on_coprime_pairs():
    taus = tau_table(1000)
    big = tau_table(1_000_000)
    for a in range(1, 1001):
        assert len(divisors(a)) == taus[a], a
    for a in range(1, 1001):
        for b in range(a, 1001):
            if gcd(a, b) == 1:
                assert big[a * b] == taus[a] * taus[b], (a, b)


def test_smallest_prime_divisor():
    assert smallest_prime_divisor(64) == 2
    assert smallest_prime_divisor(63) == 3
    assert smallest_prime_divisor(97) == 97
    with pytest.raises(ValueError):
        smallest_prime_divisor(1)
    for n in range(2, 10_001):
        assert smallest_prime_divisor(n) == divisors(n)[1], n
    # a prime or a square of a prime past the trial primes' reach, and a
    # composite with no factor below 2^16 (Pollard rho)
    for n, p in ((65521**2, 65521), (2**61 - 1, 2**61 - 1), (65537 * (2**61 - 1), 65537)):
        assert smallest_prime_divisor(n) == p, n


def test_is_prime_examples():
    assert is_prime(65537)
    assert not is_prime(1)
    assert not is_prime(0)
    # Either side of the last base, 41, which the screen and the rounds share.
    for n, prime in ((41, True), (43, True), (41**2, False), (41 * 43, False), (43**2, False)):
        assert is_prime(n) is prime, n
    # Independent check for 2^32 + 15: trial division to the square root.
    n = 2**32 + 15
    assert all(n % d for d in range(2, isqrt(n) + 1))
    assert is_prime(n)


def test_is_prime_matches_sieve_below_1e5():
    for n in range(0, 100_000):
        assert is_prime(n) == bool(FLAGS[n]), n


def test_is_prime_matches_sieve_sampled_to_1e6():
    for n in range(100_000, SIEVE_LIMIT, 97):
        assert is_prime(n) == bool(FLAGS[n]), n


def test_is_prime_strong_pseudoprime_composites():
    # Base-2 strong pseudoprimes and Carmichael numbers.
    for n in (2047, 3277, 4033, 561, 41041, 825265, 321197185):
        assert not is_prime(n), n


def test_strong_lucas_and_the_probable_prime_path():
    # Below 10^5 the strong Lucas test passes every odd prime and, among the
    # odd composites that are not squares, exactly the strong Lucas
    # pseudoprimes of Selfridge's parameters (OEIS A217255).
    lucas = arith._strong_lucas
    assert all(lucas(n) for n in range(3, 100_000, 2) if FLAGS[n])
    pseudoprimes = [
        n for n in range(9, 100_000, 2)
        if not FLAGS[n] and isqrt(n) ** 2 != n and lucas(n)
    ]
    assert pseudoprimes == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
    ]
    assert not lucas(35)  # Jacobi(5, 35) = 0: a shared factor
    # A square has no D with Jacobi(D, n) = -1: the test rejects it before
    # its D search.
    assert not any(lucas(r * r) for r in range(3, isqrt(100_000) + 1, 2))
    # The Fermat numbers F7, F8 and F9 are base-2 strong pseudoprimes, so
    # next_prime(2^R) hands each to the Lucas test at its plan level
    # (R = 128, 256, 512), which rejects it; the primes next_prime returns pass.
    for R, gap in ((128, 51), (256, 297), (512, 75)):
        fermat = 2**R + 1
        assert arith._miller_rabin_round(fermat, 2, 1, R)  # fermat - 1 = 2^R * 1
        assert not lucas(fermat) and not is_prime(fermat)
        assert lucas(2**R + gap) and next_prime(2**R) == 2**R + gap
    # Above DETERMINISTIC_PRIME_BOUND is_prime runs base 2, strong Lucas and
    # the extra rounds.
    for n in (2**127 - 1, 2**128 + 51):
        assert n > DETERMINISTIC_PRIME_BOUND and is_prime(n), n
    assert not is_prime((2**61 - 1) * (2**89 - 1))


def test_next_prime_examples():
    assert next_prime(256) == 257
    assert next_prime(65536) == 65537
    assert next_prime(2) == 3
    assert next_prime(1) == 2


def test_next_prime_against_sieve():
    # Full logic coverage without a million walks: every consecutive-prime
    # pair below 1e5 (entry just above a prime, mid-gap, and just below the
    # next), plus every pair in the top decade of the sieve.
    primes = [p for p in range(2, 100_000) if FLAGS[p]]
    for p, q in zip(primes, primes[1:]):
        assert next_prime(p) == q
        assert next_prime(q - 1) == q
        mid = (p + q) // 2
        if p < mid < q:
            assert next_prime(mid) == q
    top = [p for p in range(900_000, SIEVE_LIMIT) if FLAGS[p]]
    for p, q in zip(top, top[1:]):
        assert next_prime(p) == q


def test_first_primes():
    assert first_primes(0) == ()
    assert first_primes(5) == (2, 3, 5, 7, 11)
    assert first_primes(14) == tuple(p for p in range(2, 44) if FLAGS[p])
    # Every prime below 10^6: the sieve's limit doubles from 16 to 2^20.
    assert first_primes(78498) == tuple(p for p in range(SIEVE_LIMIT) if FLAGS[p])
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        first_primes(-1)


def test_tau_bytes_match_a_tau_table():
    # The window sieve's byte taus, min(tau(m), 255), against a tau table.
    taus = bytes(min(t, 255) for t in tau_table(20_000))

    def check(lo, hi):
        assert arith._tau_bytes(lo, hi, 1) == taus[lo : hi + 1], (lo, hi)
        odd = lo | 1
        if odd <= hi:
            assert arith._tau_bytes(odd, hi, 2) == taus[odd : hi + 1 : 2], (odd, hi)

    check(1000, 2000)
    rng = random.Random(4)
    for _ in range(400):
        lo = rng.randint(1, 19_000)
        check(lo, rng.randint(lo, min(lo + rng.choice((3, 70, 900)), 20_000)))
    for hi in range(1, 300):
        check(1, hi)
    for r in (1, 2, 3, 11, 40, 99, 141):
        sq = r * r
        # windows that sit at, start at, end at (hi a square) or hold a square
        below = max(1, sq - 50)
        for lo, hi in ((sq, sq), (sq, sq + 50), (below, sq), (below, sq + 50)):
            check(lo, hi)
    assert arith._tau_bytes(1, 1, 1) == arith._tau_bytes(1, 1, 2) == b"\x01"
    assert arith._tau_bytes(9, 9, 2) == b"\x03"


def test_tau_bytes_saturate_where_taus_pass_255():
    # The sieve counts in bytes that saturate at 255 and must not wrap.
    # tau(1,081,080) = 256 is the first tau past 255; 43,648,605 is the least
    # odd m with tau(m) >= 256; tau(735,134,400) = 1,344 would wrap a byte
    # five times; and tau(4620^2) = tau(45045^2) = 405, a square whose count
    # already reads 255 when its own 1 arrives.
    def check(lo, hi, step):
        clipped = bytes(min(len(divisors(m)), 255) for m in range(lo, hi + 1, step))
        assert arith._tau_bytes(lo, hi, step) == clipped, (lo, hi, step)

    for c in (1_081_080, 2_162_160, 3_603_600, 43_648_605, 735_134_400):
        check(c - 400, c + 400, 1)
        check((c - 400) | 1, c + 400, 2)
    for root in (1040, 4620, 45045):
        sq = root * root
        for lo, hi in ((sq, sq + 300), (sq - 300, sq), (sq, sq)):
            check(lo, hi, 1)
            if sq % 2:
                check(lo | 1, hi, 2)
    assert len(divisors(1_081_080)) == 256 and arith._tau_bytes(1_081_080, 1_081_080, 1) == b"\xff"
    assert len(divisors(735_134_400)) == 1344 and arith._tau_bytes(735_134_400, 735_134_400, 1) == b"\xff"
    assert len(divisors(4620**2)) == 405 and arith._tau_bytes(4620**2 - 1, 4620**2, 1)[1] == 255


def test_factor_table_reads_the_first_tau_past_255():
    table = FactorTable()
    assert table.cover(1_081_080)
    assert table.tau_bytes[1_081_080] == 255 and table.tau_bytes[1_081_079] == len(divisors(1_081_079))
    assert table.tau_bytes.index(255) == 1_081_080 and len(table.divisors(1_081_080)) == 256


def test_factorize_exact_below_50000_and_at_the_trial_bound():
    for n in range(1, 50_001):
        assert dict(factorize(n)) == oracle_factorize(n), n
    # Around 2^11, where trial division by the prime table stops, and around
    # 2^16: the early break (p^2 > n), the table running out with 1, a prime
    # or a composite left, and Pollard rho on factors above the table.
    edges = {
        2039**2: ((2039, 2),),
        2039 * 2053: ((2039, 1), (2053, 1)),
        2053**2: ((2053, 2),),
        2053**3: ((2053, 3),),
        2 * 2053 * 2063: ((2, 1), (2053, 1), (2063, 1)),
        2039 * 2053 * 2063: ((2039, 1), (2053, 1), (2063, 1)),
        65521**2: ((65521, 2),),
        65521 * 65537: ((65521, 1), (65537, 1)),
        65537 * 65539: ((65537, 1), (65539, 1)),
        65537**2: ((65537, 2),),
        (2**61 - 1) * 65537: ((65537, 1), (2**61 - 1, 1)),
        65519 * 65521 * 65537: ((65519, 1), (65521, 1), (65537, 1)),
        2 * 65537 * 65539: ((2, 1), (65537, 1), (65539, 1)),
        2**64: ((2, 64),),
    }
    for n, fac in edges.items():
        assert factorize(n) == fac, n
        assert smallest_prime_divisor(n) == fac[0][0], n


def test_trial_primes_cover_the_factor_table():
    # Every prime a FactorTable strikes out, up to isqrt of its cap, and no more.
    sieve = prime_sieve(isqrt(FACTOR_TABLE_CAP))
    assert arith._TRIAL_PRIMES == tuple(p for p in range(len(sieve)) if sieve[p])
    last = arith._TRIAL_PRIMES[-1]
    assert len(arith._TRIAL_PRIMES) == 309 and last == 2039
    assert last <= isqrt(FACTOR_TABLE_CAP) < next_prime(last)


def check_factor_table(table: FactorTable, taus) -> None:
    """table's tau and least primes against a tau table and trial division,
    for every m it holds."""
    size = table.size
    assert table.tau_bytes == bytes(min(t, 255) for t in taus[: size + 1])
    assert len(table.lpf) == size + 1 and table.lpf[1] == 1
    for m in range(2, size + 1):
        assert table.lpf[m] == smallest_prime_divisor(m), m


def test_factor_table_against_the_oracles():
    taus = tau_table(8 * PIECE)
    table = FactorTable()
    assert table.size == 0 and table.cover(0) and table.size == 0
    grown = ((1, PIECE), (PIECE, PIECE), (PIECE + 1, 2 * PIECE), (5 * PIECE - 1, 5 * PIECE))
    for hi, size in (*grown, (8 * PIECE, 8 * PIECE)):
        assert table.cover(hi) and table.size == size, hi
        check_factor_table(table, taus)


def test_a_factor_table_holds_two_arrays_an_entry():
    # A byte tau and a 4-byte least prime for each m, 5 bytes an entry: a
    # second copy of tau, in any form, would be a third per-entry array.
    table = FactorTable()
    assert table.cover(3 * PIECE) and table.divisors(2520)
    arrays = {k: len(v) for k, v in vars(table).items() if isinstance(v, (array, bytearray, bytes, list))}
    assert arrays == {"tau_bytes": table.size + 1, "lpf": table.size + 1}
    assert type(table.tau_bytes) is bytearray and table.lpf.typecode == "I"


def test_factor_table_never_grows_past_its_cap(monkeypatch):
    assert not FactorTable().cover(FACTOR_TABLE_CAP + 1)
    monkeypatch.setattr(arith, "FACTOR_TABLE_CAP", 3000)
    table = FactorTable()
    assert table.cover(2500) and table.size == 3000
    check_factor_table(table, tau_table(6000))
    assert not table.cover(3001) and table.size == 3000


def test_factor_table_remembers_its_divisor_lists(monkeypatch):
    table = FactorTable()
    assert table.cover(3000)
    assert all(table.divisors(m) == divisors(m) for m in range(1, 3001))
    assert len(table._divisors) == 3000 and table.divisors(2520) is table.divisors(2520)
    monkeypatch.setattr(arith, "_DIVISOR_MEMO_CAP", 8)
    table = FactorTable()
    assert table.cover(100)
    for m in range(1, 21):
        assert table.divisors(m) == divisors(m) and len(table._divisors) == (m - 1) % 8 + 1


def test_factor_table_remembers_divisor_lists_past_its_cap(monkeypatch):
    # The memo holds divisors(m) for any m >= 1; past the cap it does not
    # grow the table.
    monkeypatch.setattr(arith, "FACTOR_TABLE_CAP", 3000)
    table = FactorTable()
    assert table.cover(2500) and not table.cover(3001) and table.size == 3000
    for m in (3001, 3003, 5040, 65537, 1 << 20, 735_134_400, (1 << 61) - 1):
        listed = table.divisors(m)
        assert listed == divisors(m) and table.divisors(m) is listed, m
    assert table.size == 3000


def test_arith_holds_no_mutable_globals():
    # factorize keeps no table that grows, and a forked worker inherits
    # nothing that changes an answer.
    mutable = (list, dict, set, bytearray, array)
    shared = [
        name
        for name, value in vars(arith).items()
        if not name.startswith("__") and isinstance(value, mutable)
    ]
    assert shared == []


@given(st.integers(min_value=1, max_value=10**12))
@settings(max_examples=200, deadline=None)
def test_factorize_roundtrip(n):
    fac = factorize(n)
    assert prod(p**e for p, e in fac) == n
    assert all(is_prime(p) for p, _ in fac)
    assert all(e >= 1 for _, e in fac)
    assert list(fac) == sorted(fac)


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_divisors_closed_under_complement(n):
    divs = divisors(n)
    assert divs[0] == 1 and divs[-1] == n
    dset = set(divs)
    assert all(n % d == 0 and n // d in dset for d in divs)
    assert len(divs) == prod(e + 1 for _, e in factorize(n))


def strong_probable_prime(n: int, a: int) -> bool:
    """The strong Fermat test of odd n > 2 to base a, written out."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


THIRTEEN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def test_is_prime_exact_for_every_odd_n_below_2e6():
    flags = prime_sieve(2_000_000)
    assert all(is_prime(n) == flags[n] for n in range(1, 2_000_000, 2))


def test_is_prime_graded_bases_near_their_bounds():
    # 3,215,031,751 passes bases 2..7 and 3,474,749,660,383 passes bases
    # 2..13, so each grade must stop below them; around both, is_prime
    # agrees with all 13 bases.
    for n, used in ((3_215_031_751, 4), (3_474_749_660_383, 6)):
        assert all(strong_probable_prime(n, a) for a in THIRTEEN_BASES[:used])
        assert not is_prime(n)
        for m in range(n - 2001, n + 2001, 2):
            assert is_prime(m) == all(strong_probable_prime(m, a) for a in THIRTEEN_BASES), m
