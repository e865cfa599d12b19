"""Primorial splits: the k <= 8 boundary, certificates, the forced
placement chain, and the pruned search against a naive enumerator."""

from itertools import product
from math import prod

import pytest

from interlock.arith import divisors, first_primes
from interlock.pairs import check_interlock
from interlock.primorials import _find_contradiction, _possible, placement_consensus

from oracles import oracle_canonical_splits, oracle_primorial_pairs, tau_relation


def test_known_boundary():
    assert placement_consensus(0).survivors == ()
    assert [(s.m, s.n) for s in placement_consensus(1).survivors] == [(2, 1)]
    assert [(s.m, s.n) for s in placement_consensus(2).survivors] == [(2, 3)]
    assert [(s.m, s.n) for s in placement_consensus(4).survivors] == [(10, 21)]
    assert [(s.m, s.n) for s in placement_consensus(6).survivors] == [(130, 231)]
    splits = placement_consensus(8).survivors
    assert len(splits) == 1
    s = splits[0]
    assert (s.m, s.n) == (2470, 3927)
    assert s.m_primes == (2, 5, 13, 19) and s.n_primes == (3, 7, 11, 17)
    assert not s.degenerate
    for k in (3, 5, 7, 9, 10, 11, 12):
        assert placement_consensus(k).survivors == (), k


def test_degenerate_flagging():
    s2 = placement_consensus(2).survivors[0]
    assert s2.degenerate  # (2, 3): both sides vacuous
    s4 = placement_consensus(4).survivors[0]
    assert not s4.degenerate


def test_splits_multiply_to_primorial_and_interlock():
    for k in range(1, 9):
        for s in placement_consensus(k).survivors:
            assert s.m * s.n == prod(first_primes(k))
            assert 2 in s.m_primes  # canonical orientation
            assert sorted(s.m_primes + s.n_primes) == list(first_primes(k))
            assert check_interlock(s.m, s.n).verdict
            if s.n > 1:
                assert tau_relation(s.m, s.n).consistent


def test_tau_parity_kills_odd_k():
    # For odd k > 1 the two divisor counts are powers of two whose
    # difference is at least 2^((k-1)/2) > 1: direct computation over all
    # canonical splits.
    for k in (3, 5, 7, 9):
        min_gap = min(
            abs(len(divisors(prod(m_side))) - len(divisors(prod(n_side))))
            for m_side, n_side in oracle_canonical_splits(k)
        )
        assert min_gap == 2 ** ((k - 1) // 2)
        assert min_gap > 1
        report = placement_consensus(k)
        assert report.parity_certificate is not None
        assert report.parity_certificate.min_tau_gap == min_gap


def test_consensus_reports():
    r8 = placement_consensus(8)
    assert r8.consensus == {2: "m", 3: "n", 5: "m", 7: "n", 11: "n", 13: "m", 17: "n", 19: "m"}
    assert r8.contradiction is None
    r6 = placement_consensus(6)
    assert r6.consensus == {2: "m", 3: "n", 5: "m", 7: "n", 11: "n", 13: "m"}
    r4 = placement_consensus(4)
    assert r4.consensus == {2: "m", 3: "n", 5: "m", 7: "n"}
    assert r4.splits_scanned == 8


def test_forced_chain_matches_unique_split():
    report = placement_consensus(8)
    assert report.contradiction is None
    placed = {s.prime: s.side for s in report.forced_chain}
    assert placed == {2: "m", 3: "n", 5: "m", 7: "n", 11: "n", 13: "m", 17: "n", 19: "m"}


def test_forced_chain_contradiction_at_k_10_and_12():
    # The same chain and certificate for every even k >= 10, far past the
    # point where the 2^(k-1) splits could be tried one by one.
    chain = placement_consensus(10).forced_chain
    for k in (10, 12, 20, 40, 100):
        report = placement_consensus(k)
        assert report.survivors == ()
        assert report.consensus is None
        assert report.splits_scanned == 1 << (k - 1)
        c = report.contradiction
        assert c is not None
        assert (c.side, c.lower, c.upper) == ("m", 23, 26)
        assert report.forced_chain == chain
        placed = {s.prime: s.side for s in report.forced_chain}
        assert placed[23] == "m" and placed[19] == "m" and placed[17] == "n"


def test_empty_k9_has_both_certificates():
    report = placement_consensus(9)
    assert report.survivors == ()
    assert report.parity_certificate is not None
    assert report.parity_certificate.min_tau_gap == 16


def test_scaling_rejection():
    with pytest.raises(ValueError, match=r"^primorial: k must be >= 0, got -1$"):
        placement_consensus(-1)


def test_search_matches_naive_enumerator():
    for k in range(1, 15):
        assert [(s.m, s.n) for s in placement_consensus(k).survivors] == (
            oracle_primorial_pairs(k)
        ), k


def test_possible_gap_integers_divide_a_member_of_some_completion():
    # _possible(c, prefix, p_k) holds iff some completion of the prefix
    # assignment of the first j primes to m and n has c | m or c | n.
    for k in range(1, 9):
        primes = first_primes(k)
        for j in range(k + 1):
            for prefix in product("mn", repeat=j):
                assignment = dict(zip(primes, prefix))
                members = [  # m and n of every completion
                    prod(p for p, s in zip(primes, prefix + rest) if s == side)
                    for rest in product("mn", repeat=k - j)
                    for side in "mn"
                ]
                for c in range(2, 401):
                    divides = any(member % c == 0 for member in members)
                    assert _possible(c, assignment, primes[-1]) == divides, (k, prefix, c)


def test_pruned_prefixes_have_no_interlocking_completion():
    # Soundness of the pruning rule: a partial assignment that
    # _find_contradiction flags is never the prefix of an interlocking split.
    flagged_total = 0
    for k in range(1, 13):
        primes = first_primes(k)
        interlocking = {m for m, _ in oracle_primorial_pairs(k)}
        for j in range(1, k + 1):
            prefix_primes = primes[:j]
            for m_side, n_side in oracle_canonical_splits(j):
                assignment = {p: "m" for p in m_side} | {p: "n" for p in n_side}
                if _find_contradiction(assignment, primes) is None:
                    continue
                flagged_total += 1
                for m in interlocking:
                    assert any(
                        (m % p == 0) != (assignment[p] == "m") for p in prefix_primes
                    ), (k, assignment, m)
    assert flagged_total > 0
