"""Membership thresholds, gap censuses, and the power-of-two partner
construction with its exact verification."""

import json
import math
import pickle
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlock.arith import SearchBudgetError, decimal_text, divisors
from interlock.construction import (
    DIVISORS_OF_231,
    JumpParams,
    build_pow2_partner,
    count_bounded_jumps,
    gap_census,
    gap_ratio,
    has_bounded_jumps,
    plan_from_dict,
    plan_to_dict,
    verify_construction,
)
from interlock.pairs import check_interlock
from interlock.construction import _le_exp_threshold, plan_divisors
from oracles import divisor_table


def naive_in_set(divs, c_value: float) -> bool:
    for prev, cur in zip(divs, divs[1:]):
        if not math.log(cur) <= max(c_value, prev):
            return False
    return True


def test_jump_constant():
    jc = JumpParams(2)
    assert jc == (2, None) and jc.describe() == "ln(2) * 2^0  (t = 2, e^c = 2^(2^0))"
    assert JumpParams(5).describe() == "ln(2) * 2^3  (t = 5, e^c = 2^(2^3))"  # e^c = 256
    # e^c = 2^(2^48) is written by its exponent's exponent and never materialized.
    jc = JumpParams(50)
    assert jc.describe() == "ln(2) * 2^48  (t = 50, e^c = 2^(2^48))"
    assert count_bounded_jumps(10**4, jc) == 10**4
    with pytest.raises(ValueError):
        JumpParams(1)


def test_t_form_comparison_reads_bit_lengths():
    # d <= 2^(2^(t-2)), decided without 2^(t-2), against the direct comparison.
    for t in range(2, 9):
        e_c = 1 << (1 << (t - 2))
        params = JumpParams(t)
        for d in [*range(1, 3000), e_c - 1, e_c, e_c + 1]:
            assert _le_exp_threshold(d, params) == (d <= e_c), (t, d)


def test_params_validation():
    with pytest.raises(ValueError):
        JumpParams(t=5, override=Fraction(2))
    with pytest.raises(ValueError):
        JumpParams()
    with pytest.raises(ValueError):
        JumpParams(override=0)


def test_membership_examples():
    t5 = JumpParams(5)
    assert has_bounded_jumps(1, t5).bounded  # no divisor pair at all
    check = has_bounded_jumps(514, t5)  # 514 = 2 * 257 and 257 > e^c = 256
    assert not check.bounded and check.witness == (2, 257)
    assert has_bounded_jumps(12, t5).bounded
    assert has_bounded_jumps(513, t5).bounded  # 513 = 3^3 * 19: jumps are tame
    with pytest.raises(ValueError):
        has_bounded_jumps(0, t5)


def test_membership_monotone_in_threshold():
    # A larger threshold only weakens the condition.
    small = JumpParams(override=3)
    large = JumpParams(override=6)
    t_small, t_large = JumpParams(4), JumpParams(6)
    for n in range(1, 10_001):
        if has_bounded_jumps(n, small).bounded:
            assert has_bounded_jumps(n, large).bounded, n
        if has_bounded_jumps(n, t_small).bounded:
            assert has_bounded_jumps(n, t_large).bounded, n


def test_membership_against_float_oracle():
    table = divisor_table(3000)
    params = JumpParams(override=5)
    for n in range(1, 3001):
        assert has_bounded_jumps(n, params).bounded == naive_in_set(table[n], 5.0), n


def test_count_examples():
    assert count_bounded_jumps(10**4, JumpParams(override=5)) == 6908
    assert count_bounded_jumps(10**4, JumpParams(override=5)) > 5000
    # e^c = 2^1024 dwarfs every divisor below 1e5: vacuous regime.
    assert count_bounded_jumps(10**5, JumpParams(12)) == 10**5
    assert count_bounded_jumps(1, JumpParams(override=5)) == 1
    with pytest.raises(ValueError, match="x must be >= 1, got 0"):
        count_bounded_jumps(0, JumpParams(4))


def test_count_against_oracle():
    table = divisor_table(2000)
    expected = sum(1 for n in range(1, 2001) if naive_in_set(table[n], 3.0))
    assert count_bounded_jumps(2000, JumpParams(override=3)) == expected


def test_count_matches_membership_t_form():
    # The t-form threshold outside the vacuous regime: e^c = 2^4 < 3000.
    params = JumpParams(4)
    expected = sum(has_bounded_jumps(n, params).bounded for n in range(1, 3001))
    assert count_bounded_jumps(3000, params) == expected


SIEVE_PARAMS = [
    JumpParams(override=Fraction(v)) for v in ("1/2", 1, "3/2", 2, "7/2", 5, 9, "31/3")
] + [JumpParams(t) for t in range(2, 6)]


def member_prefix_counts(x: int, params: JumpParams) -> list[int]:
    """counts[m] = #{n <= m in the set}, from the per-n membership test."""
    counts = [0]
    for n in range(1, x + 1):
        counts.append(counts[-1] + has_bounded_jumps(n, params).bounded)
    return counts


@pytest.mark.parametrize("params", SIEVE_PARAMS, ids=lambda p: f"t={p.t}" if p.t else f"C={p.override}")
def test_count_sieve_matches_membership(params):
    # Both sides of floor(e^5) = 148 and of 2^8, the t = 5 threshold.
    counts = member_prefix_counts(3000, params)
    for x in (1, 2, 3, 100, 148, 149, 150, 256, 257, 3000):
        assert count_bounded_jumps(x, params) == counts[x], x


@settings(max_examples=20, deadline=None)
@given(
    x=st.integers(1, 3000),
    threshold=st.fractions(min_value=Fraction(1, 50), max_value=10, max_denominator=50),
)
def test_count_sieve_matches_membership_random(x, threshold):
    params = JumpParams(override=threshold)
    assert count_bounded_jumps(x, params) == member_prefix_counts(x, params)[x]


BOUNDARY_PARAMS = [JumpParams(t) for t in range(3, 7)] + [
    JumpParams(override=Fraction(c)) for c in ("3/2", "2", "5/2", "3", "7/3", "5", "7")
]


def _trial_prime(p: int) -> bool:
    return p > 1 and all(p % q for q in range(2, math.isqrt(p) + 1))


def _floor_exp_threshold(params: JumpParams) -> int:
    """floor(e^threshold): exact in t-form, from mpmath for an override."""
    if params.t is not None:
        return 1 << (1 << (params.t - 2))
    with mpmath.workprec(256):
        value = mpmath.exp(mpmath.mpf(params.override.numerator) / params.override.denominator)
        floor = int(mpmath.floor(value))
        assert mpmath.mpf(2) ** -64 < value - floor < 1 - mpmath.mpf(2) ** -64
    return floor


@pytest.mark.parametrize("params", BOUNDARY_PARAMS, ids=str)
def test_membership_boundary_matches_mpmath(params):
    # A prime p has the one divisor pair (1, p): it is in the set exactly
    # when p <= e^threshold (every threshold here is >= 1), so the primes on
    # either side of floor(e^threshold) pin the exact comparison.
    e_floor = _floor_exp_threshold(params)
    below = next(p for p in range(e_floor, 1, -1) if _trial_prime(p))
    above = next(p for p in range(e_floor + 1, 2 * e_floor + 2) if _trial_prime(p))
    assert has_bounded_jumps(below, params) == (below, True, None)
    assert has_bounded_jumps(above, params) == (above, False, (1, above))
    # Up to floor(e^threshold) every n is a member without a sieve; one past
    # it, the sieve counts what the membership test says of e_floor + 1.
    assert count_bounded_jumps(e_floor, params) == e_floor
    assert count_bounded_jumps(e_floor + 1, params) == (
        e_floor + has_bounded_jumps(e_floor + 1, params).bounded
    )


def test_count_pinned_values():
    # Each checked against the per-n membership count.
    for c, expected in ((5, 70601), (2, 49706), (9, 79412)):
        assert count_bounded_jumps(10**5, JumpParams(override=c)) == expected
    assert count_bounded_jumps(10**6, JumpParams(override=5)) == 688682


def test_gap_census_examples():
    assert gap_census(100, 2, 100) == 1  # only n = 1 avoids [2, 100]
    assert gap_census(30, 3, 5) == 12
    with pytest.raises(ValueError):
        gap_census(100, 1, 50)
    with pytest.raises(ValueError):
        gap_census(100, 60, 50)
    ratio = gap_ratio(30, 3, 5, 12)
    assert ratio == pytest.approx(12 * math.log(5) / (30 * math.log(3)))


def test_gap_census_monotone_grid():
    # Non-increasing as z grows, non-decreasing as y grows.
    for x in (500, 2000):
        for y in (2, 3, 5, 10):
            counts = [gap_census(x, y, z) for z in range(y, 40)]
            assert counts == sorted(counts, reverse=True)
        for z in (40, 60):
            counts = [gap_census(x, y, z) for y in range(2, z + 1)]
            assert counts == sorted(counts)


def test_gap_census_against_oracle():
    table = divisor_table(1000)
    for x, y, z in ((1000, 2, 30), (800, 5, 17), (999, 10, 100), (100, 2, 100)):
        expected = sum(
            1 for n in range(1, x + 1) if not any(y <= d <= z for d in table[n])
        )
        assert gap_census(x, y, z) == expected, (x, y, z)


def test_build_plan_k32():
    plan = build_pow2_partner(32, 5)
    assert plan.m == 231 * 257 * 65537
    assert plan.r == 5 and plan.exponents == (1, 1, 1, 1, 1)
    assert [(l.index, l.pow2, l.prime) for l in plan.levels] == [
        (4, 256, 257),
        (5, 65536, 65537),
    ]
    assert plan.probabilistic_primes == ()


def test_build_plan_k96():
    plan = build_pow2_partner(96, 5)
    assert plan.exponents == (1, 1, 1, 1, 1, 2)
    assert plan.levels[-1].pow2 == 2**32
    assert plan.levels[-1].prime == 2**32 + 15
    assert plan.m == 231 * 257 * 65537 * (2**32 + 15) ** 2


def test_build_plan_rejections():
    with pytest.raises(ValueError):
        build_pow2_partner(48, 5)  # 2^5 does not divide 48
    with pytest.raises(ValueError):
        build_pow2_partner(32, 3)  # t below 4
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        build_pow2_partner(0, 4)
    with pytest.raises(ValueError):
        build_pow2_partner(32 * 514, 5)  # 514 jumps out of the set at t = 5
    with pytest.raises(SearchBudgetError):
        build_pow2_partner(2**13, 4, prime_search_bits=256)
    # tau(m) = k is refused before m, 4.2 Mbit here, is built.
    with pytest.raises(ValueError, match="value has 4193344 divisors, above the 2000000 cap"):
        build_pow2_partner(64 * 65521, 6)


def test_verify_k32_with_direct_check():
    plan = build_pow2_partner(32, 5)
    report = verify_construction(plan)
    assert report.verified
    assert report.dyadic_checks == 32 and report.first_failure is None
    assert report.tau_m == 32 and report.tau_identity_ok
    assert report.injective
    assert report.interlock_checked and report.interlock_report.verdict
    # What the check found is in the report alone; the plan is what was built.
    assert plan._fields == (
        "k", "t", "r", "exponents", "levels", "m", "probabilistic_primes"
    )
    assert plan == build_pow2_partner(32, 5)


def test_claim_diagnostics_k32():
    plan = build_pow2_partner(32, 5)
    report = verify_construction(plan)
    claims = report.claims
    # The tightest digit ratio is 231/256 = 0.9023... < 10/11 = 0.9090...
    assert claims.digit_ratio == tuple((c0, True) for c0 in range(8))
    assert max(Fraction(DIVISORS_OF_231[c], 2 ** (c + 1)) for c in range(8)) == Fraction(
        231, 256
    )
    # Prime-ratio inequality at level 4 holds by a tiny margin.
    assert (4, True) in claims.prime_ratio
    assert claims.aggregate == Fraction(257, 256) * Fraction(65537, 65536)
    assert claims.aggregate_below_exp and claims.aggregate_below_11_10
    assert claims.exp_below_11_10
    assert claims.all_hold


def test_verified_plans_interlock():
    for k, t in ((16, 4), (32, 5), (48, 4), (64, 4), (96, 5), (160, 5), (256, 4)):
        plan = build_pow2_partner(k, t)
        report = verify_construction(plan)
        assert report.verified, (k, t)
        assert report.tau_m == k == len(divisors(1 << k)) - 1, (k, t)
        assert report.interlock_report.verdict, (k, t)


def test_k256_records_probabilistic_primes():
    plan = build_pow2_partner(256, 4)
    # Levels reach 2^128; those next-primes are only probabilistically tested.
    assert plan.levels[-1].pow2 == 2**128
    assert plan.probabilistic_primes
    assert all(p > 2**64 for p in plan.probabilistic_primes)


def test_plan_serialization_roundtrip(tmp_path):
    plan = build_pow2_partner(96, 5)
    data = plan_to_dict(plan, verify_construction(plan))
    assert data["m"] == str(plan.m)
    assert all(isinstance(lv["pow2"], str) for lv in data["levels"])
    text = json.dumps(data, sort_keys=True)
    back = plan_from_dict(json.loads(text))
    assert back == plan
    assert pickle.loads(pickle.dumps(plan)) == plan and type(back) is type(plan)
    # a reloaded plan re-verifies identically
    report = verify_construction(back)
    assert report.verified


def test_plan_to_dict_pins_the_k16_plan():
    # The JSON of the verified k = 16, t = 4 plan.
    plan = build_pow2_partner(16, 4)
    expected = {
        "claims": {
            "aggregate": "257/256",
            "aggregate_below_11_10": True,
            "aggregate_below_exp": True,
            "all_hold": True,
            "digit_ratio": [
                ["0", True], ["1", True], ["2", True], ["3", True],
                ["4", True], ["5", True], ["6", True], ["7", True],
            ],
            "exp_below_11_10": True,
            "exponent_fourth_root": [],
            "prime_ratio": [["4", True]],
        },
        "exponents": ["1", "1", "1", "1"],
        "k": "16",
        "levels": [
            {"bits": "8", "certified": True, "exponent": "1", "index": "4",
             "pow2": "256", "prime": "257"},
        ],
        "m": "59367",
        "probabilistic_primes": [],
        "r": "4",
        "t": "4",
        "verified": True,
    }
    assert plan_to_dict(plan, verify_construction(plan)) == expected


def test_plan_from_dict_ignores_verified_and_claims():
    plan = build_pow2_partner(16, 4)
    data = plan_to_dict(plan, verify_construction(plan))
    tampered = {**data, "verified": False, "claims": {"all_hold": "no"}}
    assert plan_from_dict(tampered) == plan
    del tampered["verified"], tampered["claims"]
    assert plan_from_dict(tampered) == plan


def test_plans_past_the_str_digit_limit_roundtrip():
    # m and the claims' aggregate pass 4,300 decimal digits at k = 14848.
    plan = build_pow2_partner(14848, 9)
    report = verify_construction(plan)
    assert report.verified and report.first_failure is None
    data = json.loads(json.dumps(plan_to_dict(plan, report)))
    assert len(data["m"]) > 4300 and data["m"] == decimal_text(plan.m)
    assert len(data["claims"]["aggregate"]) > 4300
    assert plan_from_dict(data) == plan


def test_sorted_divisors_fill_one_slot_each():
    plan = build_pow2_partner(96, 5)
    divs = plan_divisors(plan)
    assert len(divs) == 96
    assert [d.bit_length() for d in divs] == list(range(1, 97))
    report = verify_construction(plan)
    assert report.injective and report.tau_m == len(divs)
    assert report.first_failure is None and report.verified
    assert check_interlock(
        plan.m, 1 << 96, divs, tuple(1 << i for i in range(97))
    ).verdict
