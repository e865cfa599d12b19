"""Integer arithmetic primitives: factorization, divisors, primality, primorials.

All values are plain Python ints, so every operation is exact at arbitrary
size (the partner construction routinely produces 2^128-scale numbers).
A factorization is an ascending tuple of (prime, exponent) pairs; a divisor
list is the full ascending tuple of divisors, starting at 1, built afresh on
each call: callers testing many pairs against one n compute it once.
factorize trial-divides by the 309 primes below 2^11, a fixed tuple that
also strikes out the least primes of a FactorTable, and hands a larger
cofactor to is_prime and Pollard rho.  A caller that needs tau and least
primes of many small m builds its own FactorTable, which sieves them up to
the largest m asked for so far, never past FACTOR_TABLE_CAP (5 bytes an
entry, 20 MB at the cap), and remembers the divisor lists of any m it is
asked for.  Its taus, like those of the window sieve _tau_bytes, are bytes
that saturate at 255; a scan leaves an m of byte 255 to the interlock test.
decimal_text and decimal_int are the package's one codec between ints and
decimal text.  SearchBudgetError and PrecisionError, the package's two
refusals, are defined here, below every other module, so any can raise them.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from math import gcd, isqrt

# Largest n for which the fixed Miller-Rabin base set below is a proven
# deterministic primality test.
DETERMINISTIC_PRIME_BOUND = 3317044064679887385961981

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprimes to bases 2..7 and to bases 2..13: below
# each, those bases alone are a proven test.
_MR_BOUND_4, _MR_BOUND_6 = 3215031751, 3474749660383

# Extra rounds above the deterministic bound; combined with the strong Lucas
# test this pushes the composite-accept probability far below 2^-128.
_PROBABLE_EXTRA_ROUNDS = 64

# Divisor lists with more entries than this are refused rather than built.
MAX_DIVISOR_LIST = 2_000_000
# ... and so are lists whose integers may hold more bits than this in all
# (128 MB), bounded by tau(n) / 2 times the sum of e * bits(p) over n's primes.
MAX_DIVISOR_BITS = 1 << 30

# Largest m a FactorTable covers: 5 bytes an entry (a 1-byte saturated tau
# and a 4-byte least prime), 20 MB at the cap.
FACTOR_TABLE_CAP = 1 << 22
# Divisor lists a FactorTable remembers before it forgets them all.
_DIVISOR_MEMO_CAP = 1 << 14
# A FactorTable grows by whole pieces of this many entries, and builds each
# piece with one tau sieve, which holds about 3 bytes an entry while it runs.
_TABLE_PIECE = 1 << 14
# The tau sieve's byte table: b + 2, saturating at 255.
_ADD2 = bytes(min(b + 2, 255) for b in range(256))


class SearchBudgetError(RuntimeError):
    """A search passed its budget; the message names the stage."""


class PrecisionError(ArithmeticError):
    """A comparison could not be decided at the precision its operands allow."""


def _miller_rabin_round(n: int, a: int, d: int, s: int) -> bool:
    """One strong-pseudoprime round; True means 'probably prime'."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (n odd, > 2): P = 1, the
    first D of 5, -7, 9, -11, ... with Jacobi(D, n) = -1, and Q = (1 - D)/4.

    With n + 1 = 2^s * t, t odd, n passes when U_t = 0 or V_(t*2^r) = 0 mod n
    for some 0 <= r < s.  One ladder over the bits of t carries V_k, V_(k+1)
    and Q^k by V_2k = V_k^2 - 2Q^k and V_(2k+1) = V_k * V_(k+1) - Q^k; U_t is
    read from D * U_t = 2 * V_(t+1) - V_t, and D is prime to n."""
    if isqrt(n) ** 2 == n:
        return False  # a square has no D with Jacobi(D, n) = -1
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0 and abs(d) != n:
            return False
        d = -d - 2 if d > 0 else 2 - d
    q = (1 - d) // 4
    t, s = n + 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    v, w, qk = 2, 1, 1  # V_0, V_1, Q^0
    for bit in bin(t)[2:]:
        if bit == "1":
            v, w, qk = (v * w - qk) % n, (w * w - 2 * qk * q) % n, qk * qk * q % n
        else:
            v, w, qk = (v * v - 2 * qk) % n, (v * w - qk) % n, qk * qk % n
    if v == 0 or (2 * w - v) % n == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_prime(n: int) -> bool:
    """Trial division by the 13 primes of _MR_BASES, then: below
    DETERMINISTIC_PRIME_BOUND, exact by Miller-Rabin with the first 4, 6 or
    all 13 of them as bases as n grows; above it, a Baillie-PSW-style
    test (strong base-2 + strong Lucas) plus 64 derandomized Miller-Rabin
    rounds.  No pseudoprime for the combined test is known; the residual
    false-positive probability is far below 2^-128 but not zero, which
    callers that certify primes must record (see primality_is_certified).
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < DETERMINISTIC_PRIME_BOUND:
        used = 4 if n < _MR_BOUND_4 else 6 if n < _MR_BOUND_6 else len(_MR_BASES)
        return all(_miller_rabin_round(n, a, d, s) for a in _MR_BASES[:used])
    if not _miller_rabin_round(n, 2, d, s):
        return False
    if not _strong_lucas(n):
        return False
    # Deterministic extra bases derived from n itself.
    a = 3
    for i in range(_PROBABLE_EXTRA_ROUNDS):
        a = (a * a + i + n % 1000003) % (n - 3) + 2
        if not _miller_rabin_round(n, a, d, s):
            return False
    return True


def primality_is_certified(n: int) -> bool:
    """True when is_prime(n) is a proven answer rather than probabilistic."""
    return n < DETERMINISTIC_PRIME_BOUND


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n (n >= 1)."""
    if n < 2:
        return 2
    # 6k+-1 wheel from the first odd candidate above n.
    c = n + 1
    if c <= 3:
        return 3
    if c % 2 == 0:
        c += 1
    while True:
        if c % 3 != 0 and is_prime(c):
            return c
        c += 2


def _primes_below(limit: int) -> tuple[int, ...]:
    """The primes below an even limit, from an odd-only sieve (flag i is 2i + 1)."""
    flags = bytearray([1]) * (limit // 2)
    flags[0] = 0  # 1 is not prime
    for p in range(3, isqrt(limit) + 1, 2):
        if flags[p // 2]:
            flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(flags), p)))
    return (2, *compress(range(1, limit, 2), flags))


# The trial divisors of factorize and smallest_prime_divisor, and the primes
# a FactorTable strikes out: the 309 primes below isqrt(FACTOR_TABLE_CAP) = 2^11.
_TRIAL_PRIMES = _primes_below(isqrt(FACTOR_TABLE_CAP))


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n via Floyd's cycle method: x takes
    one step of x^2 + c, y takes two, and gcd(|x - y|, n) is taken each step.

    Fully deterministic: the polynomial offset is retried as c = 1, 2, 3, ...
    until a proper factor appears, which always happens for composite n.
    """
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ascending (prime, exponent) pairs.

    factorize(1) is the empty tuple.  Trial division by the primes below
    2^11 stops once p exceeds the square root of what is left, which is
    then 1 or a prime.  If the table runs out first, what is left has no
    prime factor below 2^11, and is_prime with Pollard rho splits it.
    """
    if n < 1:
        raise ValueError(f"factorize: n must be >= 1, got {n}")
    fac = []
    root = isqrt(n)
    for p in _TRIAL_PRIMES:
        if p > root:
            break
        if n % p == 0:
            n, e = n // p, 1
            while n % p == 0:  # strip p, p^2, p^4, ... while each divides
                pk, k = p, 1
                while n % pk == 0:
                    n, e, pk, k = n // pk, e + k, pk * pk, 2 * k
            fac.append((p, e))
            root = isqrt(n)
    else:
        tail: dict[int, int] = {}
        stack = [n] if n > 1 else []  # the last table prime can leave 1
        while stack:
            v = stack.pop()
            if is_prime(v):
                tail[v] = tail.get(v, 0) + 1
            else:
                d = _pollard_rho(v)
                stack += (d, v // d)
        return (*fac, *sorted(tail.items()))
    if n > 1:
        fac.append((n, 1))
    return tuple(fac)


def check_divisor_caps(count: int, bits: int) -> None:
    """ValueError for a list of count divisors past MAX_DIVISOR_LIST entries,
    or past MAX_DIVISOR_BITS bits in all by the upper bound count * bits / 2,
    where bits is the sum of e * bit_length(p) over the value's factorization."""
    if count > MAX_DIVISOR_LIST:
        raise ValueError(
            f"divisors: value has {decimal_text(count)} divisors, "
            f"above the {MAX_DIVISOR_LIST} cap"
        )
    if count * bits // 2 > MAX_DIVISOR_BITS:
        raise ValueError(
            f"divisors: the {decimal_text(count)} divisors would hold up to "
            f"{decimal_text(count * bits // 2)} bits, above the {MAX_DIVISOR_BITS}-bit cap"
        )


def divisors_from_factorization(fac) -> tuple[int, ...]:
    """Sorted divisor tuple for a known (prime, exponent) factorization.

    Lets callers that already know the factorization (e.g. constructed
    numbers with primes far beyond factoring range) get divisor lists
    without re-factorizing.  A list past the caps of check_divisor_caps
    raises ValueError before it is built.
    """
    count, bits = 1, 0
    for p, e in fac:
        count *= e + 1
        bits += e * p.bit_length()
    check_divisor_caps(count, bits)
    divs = [1]
    for p, e in fac:
        layer = divs  # the divisors free of p; each pass multiplies by p once
        for _ in range(e):
            layer = [d * p for d in layer]
            divs += layer
    divs.sort()
    return tuple(divs)


def divisors(n: int) -> tuple[int, ...]:
    """All divisors of n >= 1, ascending, starting at 1 and ending at n."""
    if n < 1:
        raise ValueError(f"divisors: n must be >= 1, got {n}")
    return divisors_from_factorization(factorize(n))


def smallest_prime_divisor(n: int) -> int:
    """Least prime dividing n (n >= 2); equals the second-smallest divisor."""
    if n < 2:
        raise ValueError(f"smallest_prime_divisor: n must be >= 2, got {n}")
    root = isqrt(n)
    for p in _TRIAL_PRIMES:
        if p > root:
            return n
        if n % p == 0:
            return p
    return factorize(n)[0][0]  # no prime factor in the table


def first_primes(k: int) -> tuple[int, ...]:
    """The first k primes, from the sieve of _primes_below, whose limit
    doubles from 16 until it holds k of them."""
    if k < 0:
        raise ValueError(f"first_primes: k must be >= 0, got {k}")
    limit = 16
    while len(primes := _primes_below(limit)) < k:
        limit *= 2
    return primes[:k]


def _tau_bytes(lo: int, hi: int, step: int) -> bytearray:
    """min(tau(m), 255) for every m in range(lo, hi + 1, step), indexed by
    (m - lo) // step; 1 <= lo <= hi, and step = 2 only for odd lo.

    Divisor-pair sieve: each d <= isqrt(hi) adds 1 to m = d^2 and 2 to its
    multiples m > d^2 (for d and m/d); about W*ln(sqrt(hi)) + sqrt(hi) steps
    for W entries.  step = 2 sieves only odd m with odd d, as odd m has only
    odd divisors.  The counts are bytes that saturate at 255, and d's slice
    takes its 2 in one bytes.translate.
    """
    counts = bytearray(len(range(lo, hi + 1, step)))
    for d in range(1, isqrt(hi) + 1, step):
        first = max(d * d, lo + (-lo) % d)
        if (first - lo) % step:  # an even multiple of odd d: take the next one
            first += d
        i = (first - lo) // step
        if first == d * d:  # its count may be 255 already: tau(4620^2) = 405
            counts[i] = min(counts[i] + 1, 255)
            i += d
        counts[i::d] = counts[i::d].translate(_ADD2)
    return counts


class FactorTable:
    """tau and least prime of every m in [1, size], sieved for scans over many
    windows of small m: tau_bytes[m] = min(tau(m), 255) in a bytearray, and
    lpf[m], m's least prime (lpf[1] = 1, lpf[m] = m for prime m), in
    array('I'), so 5 bytes an entry (index 0 holds 0).
    cover(hi) grows size to hi, rounded up to whole pieces of _TABLE_PIECE
    entries, never past FACTOR_TABLE_CAP: the table holds at most one piece
    more than its scans read.  divisors(m) remembers the divisors(m) lists
    of any m >= 1, inside the table or past it, at most 2^14 of them
    (_DIVISOR_MEMO_CAP): 71 MB if they were those of the m <= 2^22 with the
    most divisors (tau 120 to 360), 3.2 MB for the 11,644 of census(10000).
    """

    def __init__(self):
        from array import array  # loaded by a census, not by every command

        self.size = 0
        self.tau_bytes = bytearray(1)
        self.lpf = array("I", [0])
        self._divisors: dict[int, tuple[int, ...]] = {}

    def cover(self, hi: int) -> bool:
        """Grow the table to hold every m <= hi; False if hi is above the cap."""
        if hi <= self.size:
            return True
        if hi > FACTOR_TABLE_CAP:
            return False
        self._extend(min(-(-hi // _TABLE_PIECE) * _TABLE_PIECE, FACTOR_TABLE_CAP))
        return True

    def _extend(self, size: int) -> None:
        # tau by the divisor-pair sieve, least primes by striking out the
        # multiples of each prime <= sqrt(hi), largest prime first, one
        # [lo, hi] piece at a time.
        from array import array

        for lo in range(self.size + 1, size + 1, _TABLE_PIECE):
            hi = min(lo + _TABLE_PIECE - 1, size)
            self.tau_bytes += _tau_bytes(lo, hi, 1)
            least = array("I", range(lo, hi + 1))
            for p in reversed(_TRIAL_PRIMES[: bisect_right(_TRIAL_PRIMES, isqrt(hi))]):
                first = max(p * p, lo + (-lo) % p) - lo
                least[first::p] = array("I", [p]) * len(range(first, len(least), p))
            self.lpf += least
        self.size = size

    def divisors(self, m: int) -> tuple[int, ...]:
        """divisors(m) for any m >= 1, from a memo emptied at _DIVISOR_MEMO_CAP lists."""
        if m not in self._divisors:
            if len(self._divisors) >= _DIVISOR_MEMO_CAP:
                self._divisors.clear()
            self._divisors[m] = divisors(m)
        return self._divisors[m]


def decimal_text(value) -> str:
    """str(value) for an int or a Fraction ("p/q", or "p" when q = 1) of any
    length: str() refuses ints past sys.get_int_max_str_digits() digits, 4,300
    by default, and Decimal converts exactly at any length."""
    from decimal import Decimal

    if isinstance(value, int):
        return str(Decimal(value))
    text = decimal_text(value.numerator)
    return text if value.denominator == 1 else f"{text}/{decimal_text(value.denominator)}"


def decimal_int(text) -> int:
    """int(text) for decimal text of any length.  Text that int() refuses for
    its form ("1.5", "1e5", "") raises int()'s own ValueError; a value that is
    not a str (a JSON number or bool) goes to int() as it is."""
    if isinstance(text, str):
        body = text.strip()
        body = body[1:] if body[:1] in ("+", "-") else body
        if all(part.isdecimal() for part in body.split("_")):  # int()'s grammar
            from decimal import Decimal

            return int(Decimal(text))
    return int(text)
