"""Slow-divisor-growth membership, gap censuses, and the explicit
construction of an interlocking partner for 2^k.

The membership test: with a threshold constant c = ln 2 * 2^(t-2) (or a
direct rational override), an integer belongs to the slow-growth set when
every consecutive divisor pair d_prev < d satisfies d <= e^max(c, d_prev).
In the t-parameterized form e^c is the exact power of two 2^(2^(t-2)), so
that branch of the comparison is pure integer arithmetic.  The e^d_prev
branch and a direct override both go through precision.log_le, which
decides d <= e^r as d <= floor(e^r), exact from precision.py's integer
enclosures, with a hard error on indeterminate margins.

The partner construction: for k divisible by 2^t (t >= 4) with k/2^t in the
slow-growth set, write k = prod(e_i + 1) with each e_i + 1 prime, ascending,
so e_i = 1 for i <= t.  For levels i = 4..r set n_i = 2^((e_1+1)...(e_{i-1}+1))
and p_i = the next prime above n_i.  Then

    m = 231 * prod_{i=4..r} p_i^{e_i}

has tau(m) = 8 * prod(e_i + 1) = k = tau(2^k) - 1, and indexing the divisors
of m by mixed-radix digits d = c_0 + sum c_i (e_1+1)...(e_{i-1}+1) places the
divisor d' = d231[c_0] * prod p_i^{c_i} strictly inside the dyadic interval
(2^d, 2^(d+1)) for every d in [1, k-1]; the d = 0 digit is the divisor 1
itself (the lone divisor not exceeding 2^0, where strict containment is
impossible and not needed: the gaps of 2^k start at (2, 4)).  So the d-th
smallest divisor of m fills slot d, which by the slot lemma of separability
is exactly the interlock of an odd m with 2^k.  verify_construction checks
the slots of m's sorted divisors with exact big-integer comparisons, which
is what makes small-t plans trustworthy even where the asymptotic claim
diagnostics fail.  plan_from_dict rebuilds a saved plan from its k, t and
level primes by the same derivation, and refuses a file that disagrees.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction

from .arith import (
    check_divisor_caps,
    decimal_int,
    decimal_text,
    divisors,
    divisors_from_factorization,
    factorize,
    is_prime,
    next_prime,
    primality_is_certified,
)
from .pairs import check_interlock
from .precision import floor_exp, fraction_lt_exp, log_le
from .separability import SearchBudgetError

# Divisors of 231 = 3 * 7 * 11, the fixed low-end block of every plan: one
# entry per value of the low digit c_0.
DIVISORS_OF_231 = divisors(231)

# Levels with n_i = 2^bits beyond this bit budget are refused: the next-prime
# search above n_i would dominate the run.
DEFAULT_PRIME_SEARCH_BITS = 1024

# The direct interlock cross-check runs exactly when tau(m) = k is at most this.
_DIRECT_CHECK_CAP = 4096


# --- membership parameters ---------------------------------------------------


class JumpParams(namedtuple("JumpParams", "t override", defaults=(None, None))):
    """Threshold parameters for the bounded-divisor-jump test.

    Exactly one of t / override is set.  t-form: the threshold constant is
    ln 2 * 2^(t-2) and its exponential is the exact integer 2^(2^(t-2)).
    Override form: an exact rational threshold, compared at the working
    precision.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if (self.t is None) == (self.override is None):
            raise ValueError("JumpParams: set exactly one of t / override")
        if self.t is not None and self.t < 2:
            raise ValueError(f"JumpParams: t must be >= 2, got {self.t}")
        if self.override is not None and self.override <= 0:
            raise ValueError("JumpParams: override threshold must be positive")
        return self

    @classmethod
    def from_t(cls, t: int) -> "JumpParams":
        return cls(t=t)

    @classmethod
    def from_override(cls, value) -> "JumpParams":
        return cls(override=Fraction(value))

    @property
    def exp_threshold_log2(self) -> int | None:
        """log2 of e^threshold when that is an exact power of two (t-form)."""
        return None if self.t is None else 1 << (self.t - 2)

    def describe(self) -> str:
        if self.t is not None:
            power = decimal_text(1 << (self.t - 2))
            return f"ln(2) * 2^{self.t - 2}  (t = {self.t}, e^c = 2^{power})"
        return f"{decimal_text(self.override)}  (direct override)"


# --- membership test ---------------------------------------------------------


class JumpCheck(namedtuple("JumpCheck", "n bounded witness")):
    """witness: the first (d_prev, d) violating the bound, or None."""

    __slots__ = ()


def _le_exp_threshold(d: int, params: JumpParams) -> bool:
    """Decide d <= e^threshold."""
    if params.t is not None:
        # d <= 2^E  <=>  bit_length(d - 1) <= E; never materializes 2^E.
        return (d - 1).bit_length() <= params.exp_threshold_log2
    return log_le(d, params.override)


def has_bounded_jumps(n: int, params: JumpParams) -> JumpCheck:
    """Decide membership in the slow-divisor-growth set.

    True iff every consecutive divisor pair d_prev < d of n satisfies
    d <= e^max(threshold, d_prev), i.e. d <= e^threshold or d <= e^d_prev;
    the witness is the first pair that does not.  n = 1 has no divisor pair
    and is always a member.
    """
    if n < 1:
        raise ValueError(f"has_bounded_jumps: n must be >= 1, got {n}")
    ds = divisors(n)
    for prev, cur in zip(ds, ds[1:]):
        if not (_le_exp_threshold(cur, params) or log_le(cur, prev)):
            return JumpCheck(n, False, (prev, cur))
    return JumpCheck(n, True, None)


def _jump_marks(x: int, params: JumpParams) -> int:
    """Bit 8n set for each n <= x with a jump: consecutive divisors d < c
    with c > B_d = max(floor(e^threshold), floor(e^d)), that is, d | n,
    n > B_d and no divisor in (d, B_d].  c <= x, so the scan stops at the
    first d with 2.7^d >= x (e^d > x), before floor_exp is asked for it.
    Callers ask only for x >= e^threshold, so floor(e^threshold) <= x."""
    _check_sieve(x)
    e_floor = (floor_exp(params.override) if params.t is None
               else 1 << params.exp_threshold_log2)
    jumps = 0
    d = 1
    while 27**d < 10**d * x:
        bound = max(e_floor, floor_exp(d))
        if bound < x:
            above = 8 * (bound + 1)  # the bits of n <= B_d
            multiples = int.from_bytes(_divisor_marks(x, d, d), "little") >> above << above
            jumps |= multiples & ~int.from_bytes(_divisor_marks(x, d + 1, bound), "little")
        d += 1
    return jumps


def count_bounded_jumps(x: int, params: JumpParams) -> int:
    """Number of n <= x in the slow-growth set.

    When e^threshold >= x every divisor comparison is vacuous and the count
    is x without enumeration.  Otherwise the divisor-mark sieves of
    _jump_marks find the n with a jump, with no factorization: about
    2 x ln x byte writes in all, and O(x) bytes of memory.
    """
    if x < 1:
        raise ValueError(f"count_bounded_jumps: x must be >= 1, got {x}")
    if _le_exp_threshold(x, params):
        return x
    return x - _jump_marks(x, params).bit_count()


# --- divisor-free-interval census --------------------------------------------


def _check_sieve(x: int) -> None:
    """Refuse, with ValueError, a sieve over n <= x that no bytearray holds."""
    if x + 1 > sys.maxsize:
        raise ValueError(f"x = {x} is too large to sieve (at most {sys.maxsize - 1})")


def _divisor_marks(x: int, y: int, z: int) -> bytearray:
    """marks[n] = 1 for the n <= x with a divisor d, y <= d <= z; index 0
    stays 0.  x + 1 > sys.maxsize raises ValueError, allocating nothing."""
    _check_sieve(x)
    marks = bytearray(x + 1)
    for d in range(y, z + 1):
        if not marks[d]:  # else a divisor of d in [y, d) marked its multiples
            marks[d::d] = b"\x01" * (x // d)
    return marks


def gap_census(x: int, y: int, z: int) -> int:
    """Exact count of n <= x having no divisor d with y <= d <= z."""
    if not 2 <= y <= z <= x:
        raise ValueError(f"gap_census: need 2 <= y <= z <= x, got ({x}, {y}, {z})")
    return x - _divisor_marks(x, y, z).count(1)


def gap_ratio(x: int, y: int, z: int, count: int) -> float:
    """count * log z / (x * log y): the scale on which the census count is
    expected to be bounded by an absolute constant."""
    return count * math.log(z) / (x * math.log(y))


# --- the partner construction -------------------------------------------------


class PlanLevel(namedtuple("PlanLevel", "index exponent bits pow2 prime certified")):
    """One level i >= 4 of the construction: the power of two n_i = pow2 =
    2^bits with bits = (e_1+1)...(e_{i-1}+1), the next prime p_i above it,
    the exponent e_i it carries in m, and whether p_i is proven prime."""

    __slots__ = ()


class ClaimDiagnostics(namedtuple("ClaimDiagnostics", "exponent_fourth_root prime_ratio "
                                  "digit_ratio aggregate aggregate_below_exp "
                                  "aggregate_below_11_10 exp_below_11_10 all_hold")):
    """Asymptotic-regime inequalities, evaluated exactly at this plan's
    scale.  They are guaranteed only for enormous t, so small-t plans may
    legitimately fail them; plan validity rests on the per-slot dyadic
    checks instead.  The pairs are (i, e_i^4 <= n_i) per level i > t,
    (i, (p/n)^e < e^(1/4^i)) per level and (c0, d231/2^(c0+1) < 10/11);
    aggregate is the product of (p/n)^e, compared with e^(1/192) and 11/10.
    """

    __slots__ = ()


class ConstructionPlan(namedtuple("ConstructionPlan", "k t r exponents levels m "
                                  "probabilistic_primes")):
    """What _plan derives from (k, t, the level primes), for build_pow2_partner
    and plan_from_dict alike: r counts the prime factors of k with
    multiplicity, exponents are e_1..e_r ascending (each e_i + 1 prime),
    levels are i = 4..r, and m = 231 * prod p_i^e_i.  What a check found
    lives in the ConstructionReport verify_construction returns."""

    __slots__ = ()


class ConstructionReport(namedtuple("ConstructionReport", "k t dyadic_checks first_failure "
                                    "tau_m tau_identity_ok injective verified claims "
                                    "interlock_checked interlock_report")):
    """What verify_construction found for a plan, which it leaves as it is.
    dyadic_checks counts the slots checked (= k); first_failure is the
    first slot d whose divisor, the d-th smallest of m, misses (2^d, 2^(d+1))
    (slot 0 holds the divisor 1); tau_identity_ok says tau(m) = k =
    tau(2^k) - 1; injective says m's sorted divisor list has one entry per
    slot, k in all; verified says all of these hold, and the direct interlock
    check too when it ran; claims are the plan's ClaimDiagnostics."""

    __slots__ = ()


def _tau_m(levels) -> int:
    """tau(m) = 8 * prod(e_i + 1): 231's 8 divisors times each level's
    distinct prime p_i > 11 to the power e_i."""
    return 8 * math.prod(lvl.exponent + 1 for lvl in levels)


def _factorization(levels) -> list[tuple[int, int]]:
    """m's factorization, known by construction: 3 * 7 * 11 and p_i^e_i."""
    return [(3, 1), (7, 1), (11, 1)] + [(l.prime, l.exponent) for l in levels]


def _plan(k: int, t: int, prime_for) -> ConstructionPlan:
    """The plan for 2^k at t with level i's prime from prime_for(i, e_i,
    bits_i), for build_pow2_partner and plan_from_dict alike.  ValueError
    unless t >= 4, k >= 1, 2^t | k, tau(m) = k is within arith's count cap
    (checked before k is factorized), k/2^t is in the slow-growth set for t,
    and m's divisors fit arith's bit cap (checked before m is built)."""
    if t < 4:
        raise ValueError(f"build_pow2_partner: t must be >= 4, got {decimal_text(t)}")
    if k < 1:
        raise ValueError(f"build_pow2_partner: k must be >= 1, got {decimal_text(k)}")
    if (k & -k).bit_length() <= t:  # 2^t does not divide k; 2^t is not built
        raise ValueError(f"build_pow2_partner: 2^{decimal_text(t)} does not divide "
                         f"k = {decimal_text(k)}")
    check_divisor_caps(k, 0)
    reduced = k >> t
    membership = has_bounded_jumps(reduced, JumpParams.from_t(t))
    if not membership.bounded:
        prev, cur = membership.witness
        raise ValueError(
            f"build_pow2_partner: k/2^t = {decimal_text(reduced)} is outside the "
            f"slow-growth set for t = {decimal_text(t)}: divisor jump "
            f"{decimal_text(prev)} -> {decimal_text(cur)} exceeds the bound"
        )

    exps = sorted(p - 1 for p, e in factorize(k) for _ in range(e))
    r = len(exps)
    assert all(e == 1 for e in exps[:t]), "2^t | k forces e_i = 1 for i <= t"

    levels: list[PlanLevel] = []
    partial = 1  # (e_1+1)...(e_{i-1}+1) as i advances
    for i, e in enumerate(exps, start=1):
        if i >= 4:
            prime = prime_for(i, e, partial)
            levels.append(PlanLevel(i, e, partial, 1 << partial, prime,
                                    primality_is_certified(prime)))
        partial *= e + 1
    assert _tau_m(levels) == k, "8 * prod(e_i + 1) over levels must reproduce k"
    check_divisor_caps(k, sum(e * p.bit_length() for p, e in _factorization(levels)))

    m = 231 * math.prod(lvl.prime**lvl.exponent for lvl in levels)
    probabilistic = tuple(l.prime for l in levels if not l.certified)
    return ConstructionPlan(k, t, r, tuple(exps), tuple(levels), m, probabilistic)


def build_pow2_partner(k: int, t: int,
                       prime_search_bits: int = DEFAULT_PRIME_SEARCH_BITS) -> ConstructionPlan:
    """Build the explicit partner plan for 2^k, with p_i the next prime above
    n_i, under _plan's conditions on (k, t).  A level whose power of two
    exceeds prime_search_bits bits raises SearchBudgetError before its
    next-prime walk starts."""

    def next_prime_above(index: int, exponent: int, bits: int) -> int:
        if bits > prime_search_bits:
            raise SearchBudgetError(f"level {index} needs the next prime above 2^{bits}, "
                                    f"beyond the {prime_search_bits}-bit search budget")
        return next_prime(1 << bits)

    return _plan(k, t, next_prime_above)


def plan_divisors(plan: ConstructionPlan) -> tuple[int, ...]:
    """All divisors of m, from the factorization known by construction."""
    return divisors_from_factorization(_factorization(plan.levels))


def _compute_claims(plan: ConstructionPlan) -> ClaimDiagnostics:
    exponent_fourth_root = tuple(
        (lvl.index, lvl.exponent**4 <= lvl.pow2)
        for lvl in plan.levels
        if lvl.index > plan.t
    )
    prime_ratio = []
    aggregate = Fraction(1)
    for lvl in plan.levels:
        q = Fraction(lvl.prime, lvl.pow2) ** lvl.exponent
        aggregate *= q
        prime_ratio.append((lvl.index, fraction_lt_exp(q, Fraction(1, 4**lvl.index))))
    digit_ratio = tuple(
        (c0, Fraction(DIVISORS_OF_231[c0], 1 << (c0 + 1)) < Fraction(10, 11))
        for c0 in range(8)
    )
    aggregate_below_exp = fraction_lt_exp(aggregate, Fraction(1, 192))
    aggregate_below_11_10 = aggregate < Fraction(11, 10)
    exp_below = not fraction_lt_exp(Fraction(11, 10), Fraction(1, 192))
    all_hold = (
        all(ok for _, ok in exponent_fourth_root)
        and all(ok for _, ok in prime_ratio)
        and all(ok for _, ok in digit_ratio)
        and aggregate_below_exp
        and aggregate_below_11_10
        and exp_below
    )
    return ClaimDiagnostics(
        exponent_fourth_root=exponent_fourth_root,
        prime_ratio=tuple(prime_ratio),
        digit_ratio=digit_ratio,
        aggregate=aggregate,
        aggregate_below_exp=aggregate_below_exp,
        aggregate_below_11_10=aggregate_below_11_10,
        exp_below_11_10=exp_below,
        all_hold=all_hold,
    )


def verify_construction(plan: ConstructionPlan) -> ConstructionReport:
    """Check that m's k divisors fill the dyadic slots of 2^k, one each.

    Ascending, the d-th divisor d' of m, from the plan's factorization (m is
    never factorized), must satisfy 2^d < d' < 2^(d+1), except d = 0 whose
    slot holds the divisor 1 = 2^0 exactly: for odd m, d' has bit length
    d + 1.  Also checks tau(m) = k (the p_i are distinct and exceed 11, so
    tau multiplies out directly).  Claim diagnostics are attached but do not
    gate `verified`.  An m past arith's divisor-list cap raises ValueError.
    When k <= _DIRECT_CHECK_CAP the full interlock check runs on the same
    divisors too, and gates `verified`.
    """
    k = plan.k
    divs = plan_divisors(plan)
    first_failure = next(
        (d for d, div in zip(range(k), divs) if div.bit_length() != d + 1), None
    )
    injective = len(divs) == k

    tau_m = _tau_m(plan.levels)
    tau_ok = tau_m == k

    verified = first_failure is None and injective and tau_ok

    interlock_report = None
    if k <= _DIRECT_CHECK_CAP:
        div_n = tuple(1 << i for i in range(k + 1))
        interlock_report = check_interlock(plan.m, 1 << k, divs, div_n)
        verified = verified and interlock_report.verdict

    return ConstructionReport(
        k=k,
        t=plan.t,
        dyadic_checks=k,
        first_failure=first_failure,
        tau_m=tau_m,
        tau_identity_ok=tau_ok,
        injective=injective,
        verified=verified,
        claims=_compute_claims(plan),
        interlock_checked=interlock_report is not None,
        interlock_report=interlock_report,
    )


# --- plan serialization -------------------------------------------------------
#
# Integers are emitted as decimal strings so arbitrary-precision values
# survive any JSON tooling downstream.


def _encode(value):
    """A plan field as JSON: ints and Fractions become decimal strings,
    records dicts, tuples lists; bools and None stay as they are."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, Fraction)):
        return decimal_text(value)
    if hasattr(value, "_asdict"):  # a namedtuple
        value = value._asdict()
    if isinstance(value, dict):
        return {key: _encode(v) for key, v in value.items()}
    return [_encode(v) for v in value]


def plan_to_dict(plan: ConstructionPlan, report: ConstructionReport) -> dict:
    """The plan as JSON, keyed by its field names, with the claims and the
    verdict of its report; plan_from_dict reads the plan back."""
    return _encode({**plan._asdict(), "claims": report.claims, "verified": report.verified})


def _canonical(value):
    """A JSON plan value as plan_to_dict writes it: each integer, decimal
    text or JSON number, as decimal text, and None for malformed text."""
    if type(value) in (int, str):
        try:
            return decimal_text(decimal_int(value))
        except ValueError:
            return None
    if isinstance(value, dict):
        return {key: _canonical(v) for key, v in value.items()}
    return [_canonical(v) for v in value] if isinstance(value, list) else value


def _int_field(data, key: str, where: str = "") -> int:
    """data[key] as a plan integer, from decimal text or a JSON integer but
    not from a float or bool; else ValueError names the field."""
    text = _canonical(data.get(key)) if isinstance(data, dict) else None
    if not isinstance(text, str):
        raise ValueError(f"plan: bad or missing field '{where}{key}'")
    return decimal_int(text)


def plan_from_dict(data: dict) -> ConstructionPlan:
    """The plan plan_to_dict wrote, rebuilt by _plan from its k, t and level
    primes, each a prime > 11 used once.  Every other plan field must equal
    the derived one in value, so an integer may be decimal text or a JSON
    integer; claims and verified are not read, as verify_construction
    recomputes both.  A file that fails raises ValueError naming the field."""
    if not isinstance(data, dict):
        raise ValueError(f"plan: expected a JSON object, got {type(data).__name__}")
    rows = data.get("levels")
    if not isinstance(rows, list):
        raise ValueError("plan: bad or missing field 'levels'")
    primes = [_int_field(row, "prime", f"levels[{i}].") for i, row in enumerate(rows)]

    def saved_prime(index: int, exponent: int, bits: int) -> int:
        if index - 4 >= len(primes):
            raise ValueError(f"plan: field 'levels' has no level {index} for k")
        prime = primes[index - 4]
        if not (prime > 11 and primes.count(prime) == 1 and is_prime(prime)):
            raise ValueError(f"plan: level {index}: {decimal_text(prime)}^{exponent} "
                             "is not a prime > 11, used once")
        return prime

    plan = _plan(_int_field(data, "k"), _int_field(data, "t"), saved_prime)
    for field in plan._fields[2:]:
        if _canonical(data.get(field)) != _encode(getattr(plan, field)):
            raise ValueError(f"plan: field '{field}' disagrees with the plan derived "
                             "from k, t and the level primes")
    return plan
