"""The interlock decider: worked examples, the alternation lemma, and the divisor-count
relation as an empirical theorem over an exhaustive small-range scan."""

from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interlock.arith import divisors, smallest_prime_divisor
from interlock.pairs import check_interlock, check_interlock_divisors
from oracles import divisor_table, oracle_interlock, tau_relation

SCAN = 300
TABLE = divisor_table(SCAN)


@cache
def interlocking_pairs(limit):
    """Every interlocking (m, n) with m, n <= limit; computed once a run."""
    return tuple(
        (m, n)
        for m in range(1, limit + 1)
        for n in range(1, limit + 1)
        if check_interlock(m, n).verdict
    )


def test_worked_example_63_64():
    report = check_interlock(63, 64)
    assert report.verdict
    assert report.trace == (2, 3, 4, 7, 8, 9, 16, 21, 32, 63, 64)
    assert not report.degenerate
    assert report.witness is None


def test_self_pair_6_fails_on_2_3():
    report = check_interlock(6, 6)
    assert not report.verdict
    assert (report.witness.lower, report.witness.upper) == (2, 3)
    assert report.witness.kind == "gap"


def test_more_examples():
    assert check_interlock(2470, 3927).verdict
    assert check_interlock(4, 9).verdict  # 3 splits (2,4); 4 splits (3,9)
    assert not check_interlock(45, 64).verdict
    with pytest.raises(ValueError):
        check_interlock(0, 5)


def test_degenerate_flags():
    for m, n in ((1, 1), (2, 3), (7, 7), (3, 2), (1, 7)):
        report = check_interlock(m, n)
        assert report.verdict and report.degenerate, (m, n)
    # 1 cannot separate anything with two gaps.
    assert not check_interlock(1, 12).verdict


def test_traces_and_the_first_gap_witness():
    report = check_interlock(10, 21)
    assert report.verdict and report.trace == (2, 3, 5, 7, 10, 21)
    report = check_interlock(45, 64)
    assert not report.verdict and report.method == "definitional"
    assert report.witness == ("gap", "first", 9, 15)


def test_check_interlock_divisors_entry_point():
    report = check_interlock(63, 64, divisors(63), divisors(64))
    assert report.verdict and report.trace == (2, 3, 4, 7, 8, 9, 16, 21, 32, 63, 64)


def test_given_divisor_lists_match_computed():
    divs = {m: divisors(m) for m in range(1, 201)}
    for m in range(1, 201):
        for n in range(1, 201):
            given = check_interlock(m, n, divs[m], divs[n])
            assert given == check_interlock(m, n), (m, n)


def test_verdict_only_test_matches_check_interlock():
    divs = {m: divisors(m) for m in range(1, 201)}
    hits = 0
    for m in range(1, 201):
        for n in range(1, 201):
            verdict = check_interlock_divisors(divs[m], divs[n])
            assert verdict == check_interlock(m, n).verdict, (m, n)
            hits += verdict
    assert hits > 1000  # both verdicts are exercised


@given(st.integers(1, 2**27), st.integers(1, 2**27))
@example(63, 64)
@example(19_191_826, 67_108_865)  # the least partner of 2^26 + 1
@example(67_108_865, 19_191_826)
@settings(max_examples=300, deadline=None)
def test_verdict_only_test_matches_check_interlock_random(m, n):
    verdict = check_interlock_divisors(divisors(m), divisors(n))
    assert verdict == check_interlock(m, n).verdict


def test_check_interlock_rejects_nonpositive_with_lists():
    with pytest.raises(ValueError):
        check_interlock(0, 6, (1,), divisors(6))
    with pytest.raises(ValueError):
        check_interlock(6, -1, divisors(6), (1,))


def test_tau_relation_examples():
    rel = tau_relation(63, 64)
    assert rel.smaller_d2_side == "second"
    assert rel.order == "greater"
    assert rel.expected_tau_delta == -1
    assert rel.observed_tau_delta == -1
    assert rel.consistent

    rel = tau_relation(21, 10)
    assert rel.order == "less" and rel.expected_tau_delta == 0 and rel.consistent

    rel = tau_relation(9, 10)
    assert rel.consistent  # tau(9) = 3 = tau(10) - 1


def test_tau_relation_rejections():
    with pytest.raises(ValueError):
        tau_relation(6, 10)  # both even
    with pytest.raises(ValueError):
        tau_relation(15, 15)
    with pytest.raises(ValueError):
        tau_relation(1, 5)


def alternates(m, n):
    """The merged divisor lists above 1 strictly alternate between m's and
    n's, with no common entry."""
    merged = sorted([(d, 0) for d in TABLE[m][1:]] + [(d, 1) for d in TABLE[n][1:]])
    return all(a < b and sa != sb for (a, sa), (b, sb) in zip(merged, merged[1:]))


def test_the_alternation_lemma_on_distinct_pairs():
    for m in range(1, SCAN + 1):
        for n in range(1, SCAN + 1):
            if m != n:
                assert check_interlock(m, n).verdict == alternates(m, n), (m, n)


def test_matches_definition_oracle():
    for m in range(1, SCAN + 1):
        for n in range(1, SCAN + 1):
            assert check_interlock(m, n).verdict == oracle_interlock(m, n, TABLE), (m, n)


def test_symmetry():
    for m, n in interlocking_pairs(SCAN):
        assert check_interlock(n, m).verdict, (m, n)


def test_tau_relation_holds_for_every_interlocking_pair():
    # The divisor-count relation, checked as a theorem over the scan range:
    # zero failures allowed.
    checked = 0
    for m, n in interlocking_pairs(SCAN):
        if m == n or min(m, n) < 2:
            continue
        if smallest_prime_divisor(m) == smallest_prime_divisor(n):
            continue
        assert tau_relation(m, n).consistent, (m, n)
        checked += 1
    assert checked > 100  # the scan is not vacuous


def test_each_gap_holds_exactly_one_partner_divisor():
    # At-least-one is the definition; exactly-one is forced for pairs whose
    # members both have three or more divisors.
    for m, n in interlocking_pairs(SCAN):
        if len(divisors(m)) < 3 or len(divisors(n)) < 3:
            continue
        dm = [d for d in divisors(m) if d > 1]
        dn = [d for d in divisors(n) if d > 1]
        for own, other in ((dm, dn), (dn, dm)):
            for lo, hi in zip(own, own[1:]):
                assert sum(1 for d in other if lo < d < hi) == 1, (m, n, lo, hi)


@given(st.integers(1, 5000), st.integers(1, 5000))
@settings(max_examples=400, deadline=None)
def test_verdict_matches_oracle_random(m, n):
    assert check_interlock(m, n).verdict == oracle_interlock(m, n)


@given(st.integers(1, 2000), st.integers(1, 2000))
@settings(max_examples=300, deadline=None)
def test_symmetry_and_trace_random(m, n):
    a = check_interlock(m, n)
    b = check_interlock(n, m)
    assert a.verdict == b.verdict
    if a.verdict:
        assert a.trace == b.trace
        assert list(a.trace) == sorted(set(a.trace))
