"""Integer arithmetic primitives: factorization, divisors, primality, primorials.

All values are plain Python ints, so every operation is exact at arbitrary
size (the partner construction routinely produces 2^128-scale numbers).
A factorization is an ascending tuple of (prime, exponent) pairs; a divisor
list is the full ascending tuple of divisors, starting at 1, built afresh on
each call: callers testing many pairs against one n compute it once.
"""

from __future__ import annotations

from array import array
from math import gcd, isqrt

# Largest n for which the fixed Miller-Rabin base set below is a proven
# deterministic primality test.
DETERMINISTIC_PRIME_BOUND = 3317044064679887385961981

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Extra rounds above the deterministic bound; combined with the strong Lucas
# test this pushes the composite-accept probability far below 2^-128.
_PROBABLE_EXTRA_ROUNDS = 64

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Divisor lists with more entries than this are refused rather than built.
MAX_DIVISOR_LIST = 2_000_000


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
    """Strong Lucas test with Selfridge parameter choice (n odd, > 2)."""
    # Find D = 5, -7, 9, -11, ... with Jacobi(D, n) = -1.
    d_cand = 5
    while True:
        j = _jacobi(d_cand, n)
        if j == -1:
            break
        if j == 0 and abs(d_cand) != n:
            return False
        if d_cand > 0:
            d_cand = -d_cand - 2
        else:
            d_cand = -d_cand + 2
        if abs(d_cand) == 13 and isqrt(n) ** 2 == n:
            return False  # perfect squares never yield Jacobi -1
    d_param = d_cand
    q = (1 - d_param) // 4
    # n + 1 = 2^s * t with t odd
    t = n + 1
    s = 0
    while t % 2 == 0:
        t //= 2
        s += 1
    # Lucas sequences U_t, V_t mod n by binary ladder.
    u, v, qk = 1, 1, q % n
    for bit in bin(t)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (v + d_param * u) % n
            if u % 2:
                u += n
            if v % 2:
                v += n
            u, v = u // 2 % n, v // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
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
    """Exact below DETERMINISTIC_PRIME_BOUND; above it, a Baillie-PSW-style
    test (strong base-2 + strong Lucas) plus 64 derandomized Miller-Rabin
    rounds.  No pseudoprime for the combined test is known; the residual
    false-positive probability is far below 2^-128 but not zero, which
    callers that certify primes must record (see primality_is_certified).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
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
        # a >= n only happens for n = 41 here; a multiple of n is no witness.
        return all(_miller_rabin_round(n, a, d, s) for a in _MR_BASES if a % n)
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


# --- smallest-prime-factor sieve cache -------------------------------------
#
# The sieve is the only shared state in this module.  It is grown
# monotonically and is only an accelerator: every routine falls back to
# direct arithmetic when the input exceeds the sieved range.  Parallel
# drivers should call warm_sieve() once before forking workers.

_spf = array("I")


def warm_sieve(limit: int) -> None:
    """Build the smallest-prime-factor table up to limit (idempotent), four
    bytes an entry.  Primes p <= isqrt(limit) overwrite their multiples from
    p^2 on, largest p first, so each entry keeps its least prime factor."""
    global _spf
    if limit < len(_spf):
        return
    limit = max(limit, 1 << 10)
    spf = array("I", range(limit + 1))
    for p in reversed([p for p in range(2, isqrt(limit) + 1) if is_prime(p)]):
        spf[p * p :: p] = array("I", [p]) * len(range(p * p, limit + 1, p))
    _spf = spf


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite n via Brent's cycle method.

    Fully deterministic: the polynomial offset is retried as c = 1, 2, 3, ...
    until a proper factor appears, which always happens for composite n.
    """
    if n % 2 == 0:
        return 2
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

    factorize(1) is the empty tuple.  Trial division handles the sieved
    range and small factors; Pollard rho (deterministic retry) splits any
    large cofactor.
    """
    if n < 1:
        raise ValueError(f"factorize: n must be >= 1, got {n}")
    if n == 1:
        return ()
    if n < len(_spf):
        # spf never decreases as n is divided down: the pairs come out ascending
        fac = []
        while n > 1:
            p = _spf[n]
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            fac.append((p, e))
        return tuple(fac)
    factors: dict[int, int] = {}

    def _accumulate(m: int) -> None:
        stack = [m]
        while stack:
            v = stack.pop()
            if v == 1:
                continue
            if is_prime(v):
                factors[v] = factors.get(v, 0) + 1
                continue
            d = _pollard_rho(v)
            stack.append(d)
            stack.append(v // d)

    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # Trial division up to a fixed threshold, then rho on what is left.
    d = 41
    while d * d <= n and d < 1 << 16:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        if d * d > n:
            factors[n] = factors.get(n, 0) + 1
        else:
            _accumulate(n)
    return tuple(sorted(factors.items()))


def divisors_from_factorization(fac) -> tuple[int, ...]:
    """Sorted divisor tuple for a known (prime, exponent) factorization.

    Lets callers that already know the factorization (e.g. constructed
    numbers with primes far beyond factoring range) get divisor lists
    without re-factorizing.
    """
    count = 1
    for _, e in fac:
        count *= e + 1
    if count > MAX_DIVISOR_LIST:
        raise ValueError(
            f"divisors: value has {count} divisors, above the {MAX_DIVISOR_LIST} cap"
        )
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


def tau(n: int) -> int:
    """Number of divisors of n >= 1: the product of (exponent + 1)."""
    if n < 1:
        raise ValueError(f"tau: n must be >= 1, got {n}")
    count = 1
    for _, e in factorize(n):
        count *= e + 1
    return count


def smallest_prime_divisor(n: int) -> int:
    """Least prime dividing n (n >= 2); equals the second-smallest divisor."""
    if n < 2:
        raise ValueError(f"smallest_prime_divisor: n must be >= 2, got {n}")
    return factorize(n)[0][0]


def first_primes(k: int) -> tuple[int, ...]:
    """The first k primes."""
    if k < 0:
        raise ValueError(f"first_primes: k must be >= 0, got {k}")
    out: list[int] = []
    c = 1
    while len(out) < k:
        c = next_prime(c)
        out.append(c)
    return tuple(out)


def primorial(k: int) -> int:
    """Product of the first k primes; primorial(0) = 1."""
    result = 1
    for p in first_primes(k):
        result *= p
    return result


def divisor_count_range(lo: int, hi: int, step: int = 1) -> list[int]:
    """tau(m) for every m in range(lo, hi + 1, step), indexed by (m - lo) // step.

    Divisor-pair sieve: each d <= isqrt(hi) adds 2 to its multiples m >= d^2
    (for d and m/d), and m = d^2 takes 1 back; about W*ln(sqrt(hi)) + sqrt(hi)
    steps for W entries.  step = 2 (odd lo) sieves only odd m with odd d, as
    odd m has only odd divisors.  Either way d's multiples lie d entries apart.
    """
    if lo < 1 or hi < lo or step not in (1, 2) or (step == 2 and lo % 2 == 0):
        raise ValueError(f"divisor_count_range: bad window [{lo}, {hi}], step {step}")
    counts = [0] * len(range(lo, hi + 1, step))
    for d in range(1, isqrt(hi) + 1, step):
        first = max(d * d, lo + (-lo) % d)
        if (first - lo) % step:  # an even multiple of odd d: take the next one
            first += d
        i = (first - lo) // step
        counts[i::d] = [c + 2 for c in counts[i::d]]
        if d * d >= lo:
            counts[(d * d - lo) // step] -= 1
    return counts
