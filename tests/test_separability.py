"""Partner search: windows, pruning soundness against the unpruned oracle,
power-of-two exhaustion, and the census cache."""

import json
from fractions import Fraction
from functools import cache
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interlock import arith, separability
from interlock.arith import FactorTable, divisors, factorize, smallest_prime_divisor
from interlock.pairs import check_interlock, check_interlock_divisors
from interlock.separability import (
    VERIFIED_RESIDUES,
    ChunkScan,
    Pow2Report,
    SearchConfig,
    census,
    count_separable,
    find_partner,
    load_census_cache,
    merge_chunk_scans,
    partner_window,
    pow2_partners,
    record_to_result,
    result_to_record,
    scan_range,
    verify_pow2_nonseparable,
    write_census_cache,
)
from oracles import (
    divisor_table,
    oracle_divisors,
    oracle_factorize,
    oracle_interlock,
    prime_sieve,
    tau_table,
)

NO_PRUNE = SearchConfig(prune=False, report_all_partners=True)
ALL = SearchConfig(report_all_partners=True)


def oracle_partner_set(n: int, table) -> list[int]:
    """Pruning-free brute force over the full fallback window [2, n^2]."""
    hits = []
    skip_self = len(table[n]) >= 3
    for m in range(2, n * n + 1):
        if skip_self and m == n:
            continue
        if oracle_interlock(m, n, table):
            hits.append(m)
    return hits


@cache
def oracle_pairs(limit: int) -> tuple[tuple[int, int], ...]:
    """Every interlocking (m, n) with m, n <= limit, by the oracle."""
    table = divisor_table(limit)
    return tuple(
        (m, n)
        for n in range(1, limit + 1)
        for m in range(1, limit + 1)
        if oracle_interlock(m, n, table)
    )


def test_window_examples():
    assert partner_window(64) == (33, 4 * 64, False)
    assert partner_window(2**9) == (2**8 + 1, 4 * 2**9, False)
    assert partner_window(12) == (7, 36, False)
    assert partner_window(7) == (2, 49, True)
    assert partner_window(1) == (2, 1, True)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        partner_window(0)


def test_find_partner_examples():
    r = find_partner(64)
    assert r.separable and r.partners == (63,) and not r.degenerate
    r = find_partner(64, ALL)
    assert r.partners == (63,)  # unique within the window
    r = find_partner(512)
    assert not r.separable and r.partners == () and r.search_bound == 2048
    r = find_partner(3)
    assert r.separable and r.degenerate and r.partners == (2,)
    r = find_partner(1)
    assert r.separable and r.degenerate and r.partners == ()


def test_window_bound_and_validation(monkeypatch):
    r = find_partner(64, bound=50)
    assert not r.partners and r.search_bound == 50
    assert partner_window(12, bound=2) == (7, 2, False)
    # n = 1 keeps its empty window whatever the bound.
    r = find_partner(1, bound=10)
    assert r == find_partner(1)
    assert r.partners == () and r.candidates_tested == 0 and r.search_bound == 1
    # A bound below 2 is refused before n is factored, n = 1 and n = 0 too.
    monkeypatch.setattr(separability, "divisors", lambda n: pytest.fail("factored"))
    for n, bound in ((64, 1), (1, 1), (0, 1), (15, -5)):
        for call in (partner_window, find_partner):
            with pytest.raises(ValueError, match=f"the bound must be >= 2, got {bound}$"):
                call(n, bound=bound)


def test_oracle_equivalence_small():
    # Fast feedback variant of the acceptance sweep (n <= 200 runs there).
    table = divisor_table(60 * 60)
    for n in range(1, 61):
        expected = oracle_partner_set(n, table)
        got = find_partner(n, ALL)
        assert list(got.partners) == expected, n
        unpruned = find_partner(n, NO_PRUNE)
        assert list(unpruned.partners) == expected, n
        assert got.separable == unpruned.separable == (
            bool(expected) or got.degenerate
        ), n


def test_bound_soundness_exhaustive_scan():
    # Every interlocking pair with tau(n) >= 3 fits in n/d2(n) < m <= n * d3(n),
    # and, for m != n, is coprime with tau(m) - tau(n) = [pm < p] + [m > n] - 1
    # (the alternation lemma, p and pm the least primes of n and m).
    limit = 500
    table = divisor_table(limit)
    worst_delta = 0
    for m, n in oracle_pairs(limit):
        divs = table[n]
        k = n.bit_length() - 1 if n >= 4 and n & (n - 1) == 0 else None
        if len(divs) >= 3:
            assert m <= n * divs[2], (m, n)
            assert m > n // divs[1], (m, n)
            if m != n:
                assert gcd(m, n) == 1, (m, n)
                lemma = (table[m][1] < divs[1]) + (m > n) - 1
                assert len(table[m]) - len(divs) == lemma, (m, n)
        if k is not None and m % 2:
            # the alternation filter for n = 2^k
            assert len(table[m]) == (k if m < n else k + 1), (m, n)
        worst_delta = max(worst_delta, abs(len(table[m]) - len(divs)))
    # tau filter soundness over the same scan: differences never exceed 1.
    assert worst_delta <= 1


def naive_end_gap_rules(m: int, n: int, dm, dn) -> set[int]:
    """The end-gap rules (separability module doc) that (m, n) breaks, read
    off the two oracle divisor lists; tau(m), tau(n) >= 3."""
    pm, p, q = dm[1], dn[1], dn[2]
    broken = set()
    if pm == p:
        broken.add(1)
    if not any(m // pm < d < m for d in dn):
        broken.add(2)
    if not any(n // p < d < n for d in dm):
        broken.add(3)
    if not (p < dm[2] if pm < p else pm < q):
        broken.add(4)
    return broken


def test_end_gap_soundness_exhaustive_scan():
    # No end-gap rule, and not the scan's helper fed least primes by trial
    # division or from a factor table, rejects an interlocking pair with
    # m, n <= 500.
    limit = 500
    table = divisor_table(limit)
    factors = FactorTable()
    factors.cover(limit)
    checked = 0
    for m, n in oracle_pairs(limit):
        dn = tuple(table[n])
        for least_prime in (smallest_prime_divisor, factors.lpf.__getitem__):
            assert separability._end_gaps_allow(m, n, dn, least_prime), (m, n)
        if len(table[m]) >= 3 and len(dn) >= 3:
            assert not naive_end_gap_rules(m, n, table[m], dn), (m, n)
            checked += 1
    assert checked > 1000  # the scan is not vacuous


def test_end_gap_rules_reject_most_census_survivors(monkeypatch):
    # The candidates that reach the end-gap rules in the census scans up to
    # 200: 291 past the gap rule, and 1,499 with the gap rule off, which are
    # the alternation filter's survivors themselves.  The helper rejects 1,093
    # (73%) of those survivors, each rejection in either run breaks one of the
    # naive end-gap rules, and every rule is broken by some rejected candidate.
    helper, seen = separability._end_gaps_allow, []

    def recording(m, n, div_n, least_prime):
        allowed = helper(m, n, div_n, least_prime)
        seen.append((m, n, allowed))
        return allowed

    def rejected_and_broken():
        rejected = [(m, n) for m, n, allowed in seen if not allowed]
        broken = set()
        for m, n in rejected:
            rules = naive_end_gap_rules(m, n, divisors(m), divisors(n))
            assert rules, (m, n)
            broken |= rules
        return rejected, broken

    monkeypatch.setattr(separability, "_end_gaps_allow", recording)
    census(200)
    assert len(seen) == 291
    assert rejected_and_broken()[1] == {1, 2, 3, 4}
    seen.clear()
    monkeypatch.setattr(separability, "_gap", lambda div_n: None)
    census(200)
    assert len(seen) == 1499
    rejected, broken = rejected_and_broken()
    assert len(rejected) == 1093
    assert broken == {1, 2, 3, 4}


@given(st.integers(1 << 24, 1 << 27), st.integers(1 << 24, 1 << 27))
@example(19191826, 67108865)  # an interlocking pair
@settings(max_examples=60, deadline=None)
def test_end_gap_rules_above_the_sieve(m, n):
    dn, oracle = divisors(n), oracle_factorize(m)
    assert factorize(m) == tuple(sorted(oracle.items()))
    assert smallest_prime_divisor(m) == min(oracle)
    if not separability._end_gaps_allow(m, n, dn, smallest_prime_divisor):
        assert not oracle_interlock(m, n), (m, n)
    if m == 19191826 and n == 67108865:
        assert oracle_interlock(m, n)


def test_scan_chunks_merge_like_serial():
    # Chunked report-all scans over the exact search window must reproduce
    # both the partner tuple and the serial tested-count.
    for n in (64, 210, 96):
        lo, hi, _ = partner_window(n)
        whole = scan_range(n, lo, hi, ALL)
        step = max(1, (hi - lo) // 7)
        parts = [
            scan_range(n, a, min(a + step - 1, hi), ALL) for a in range(lo, hi + 1, step)
        ]
        assert len(parts) > 1, n
        assert merge_chunk_scans(parts) == (whole.partners, whole.passed), n


def test_first_hit_scan_matches_full_scan():
    # A first-hit scan stops inside a sieve segment; it must give the full
    # scan's first partner and the full count of the candidates up to that
    # partner, and a scan with no hit must count the same as the full scan.
    def agree(n):
        lo, hi, _ = partner_window(n)
        full = scan_range(n, lo, hi, ALL)
        first = scan_range(n, lo, hi, SearchConfig())
        assert first.partners == full.partners[:1], n
        end = first.partners[0] if first.partners else hi
        assert first == scan_range(n, lo, end, ALL), n
        return hi - lo + 1

    for n in range(1, 301):
        agree(n)
    # windows of more than four segments (64 + 128 + 256 + 512 odd entries)
    for n in (1000, 1024, 1260, 2048, 2310, 4096):
        assert agree(n) > 2 * 960, n


def test_find_partner_factorizes_n_at_most_twice(monkeypatch):
    # n's divisor list is built once for the window and once in the scan.
    calls = []
    factorize = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda r: calls.append(r) or factorize(r))
    for n in (7, 64, 96, 210, 720720):
        calls.clear()
        find_partner(n)
        assert calls.count(n) <= 2, n


def naive_gap(dn) -> tuple[int, int] | None:
    """The gap of n's divisor list dn that the gap rule reads: the first empty
    gap if n has one, else the first of least ratio b/a; None if tau(n) <= 2."""
    gaps = list(zip(dn[1:], dn[2:]))
    if not gaps:
        return None
    empty = [(a, b) for a, b in gaps if b == a + 1]
    return empty[0] if empty else min(gaps, key=lambda g: Fraction(g[1], g[0]))


def table_scan(n: int, lo: int, hi: int, taus) -> tuple[tuple, int]:
    """The default-config scan of [lo, hi] in one ascending pass over a tau
    table: (partners, candidates that passed the filters).  The gap rule is
    a divisibility test of m by every integer inside n's gap; the alternation
    filter allows tau(n) - 1 + [m >= n] and, for odd n, one more, read as
    byte taus, min(tau, 255)."""
    tn = taus[n]
    gap = naive_gap(oracle_divisors(n))
    inside = range(gap[0] + 1, gap[1]) if gap else None
    hits, passed = [], 0
    for m in range(lo, hi + 1):
        if n > 2 and n % 2 == 0 and m % 2 == 0:
            continue
        low = tn - 1 + (m >= n)
        allowed = {min(t, 255) for t in ((low, low + 1) if n % 2 else (low,))}
        if (inside is None or any(m % c == 0 for c in inside)) and min(taus[m], 255) in allowed:
            passed += 1
            if check_interlock(m, n).verdict:
                hits.append(m)
    return tuple(hits), passed


@pytest.mark.parametrize("cap", [None, 64])
def test_scan_range_matches_tau_table_scan(monkeypatch, cap):
    # The segmented sieve must feed the filter every candidate exactly once;
    # the smallest cap crosses a segment boundary every 64 entries.
    if cap is not None:
        monkeypatch.setattr(separability, "_SEGMENT_CAP", cap)
    taus = tau_table(150 * 150)
    for n in list(range(2, 151)) + [1000, 1024, 2048, 2310]:
        lo, hi, _ = partner_window(n)
        scan = scan_range(n, lo, hi, ALL)
        assert (scan.partners, scan.passed) == table_scan(n, lo, hi, taus), n


@pytest.mark.parametrize("cap", [arith.FACTOR_TABLE_CAP, 300])
def test_scan_range_reads_a_factor_table_like_the_tau_table_scan(monkeypatch, cap):
    # One table shared by every scan, as in a census; with cap 300 nearly
    # every window runs past the table onto the sieve.
    monkeypatch.setattr(arith, "FACTOR_TABLE_CAP", cap)
    factors = FactorTable()
    taus = tau_table(150 * 150)
    for n in list(range(2, 151)) + [1000, 1024, 2048, 2310]:
        lo, hi, _ = partner_window(n)
        scan = scan_range(n, lo, hi, ALL, table=factors)
        assert (scan.partners, scan.passed) == table_scan(n, lo, hi, taus), n
    assert factors.size == min(cap, 2 * arith._TABLE_PIECE)  # 149^2 < 2^15


class TauOf(dict):
    """tau(m) as len(divisors(m)), on first lookup."""

    def __missing__(self, m):
        self[m] = len(divisors(m))
        return self[m]


def test_tau_mask_is_exact_where_byte_taus_wrap():
    # tau(1,081,080) = 256 and tau(2,162,160) = 320 pass a byte; the scans
    # read them as 255, from the table's clipped bytes and from the segment
    # sieve alike, and must pass or drop them as their exact taus would for
    # every n of tau below 254.  For 43,648,605, of tau 256, byte 255 passes.
    factors = FactorTable()
    assert factors.cover(2_163_000)
    taus = TauOf()
    assert taus[1_081_080] == 256 and taus[2_162_160] == 320
    for c in (1_081_080, 2_162_160):
        lo, hi = c - 1500, c + 1500
        clipped = bytes(min(taus[m], 255) for m in range(lo, hi + 1))
        assert factors.tau_bytes[lo : hi + 1] == arith._tau_bytes(lo, hi, 1) == clipped
        for n in (1, 7, 1024, 255_255, 43_648_605):  # tau 1, 2, 11, 64, 256
            scan = scan_range(n, lo, hi, ALL)
            assert scan == scan_range(n, lo, hi, ALL, table=factors), (c, n)
            assert (scan.partners, scan.passed) == table_scan(n, lo, hi, taus), (c, n)
            assert n != 7 or scan.passed > 200  # the primes and prime squares


def test_an_n_with_tau_past_253_leaves_byte_255_to_the_interlock_test():
    # tau(43,648,605) = 256 allows 255, 256 and 257, which a byte tau cannot
    # tell from 288.  Its gap is (663, 665); in this window the multiples of
    # 664 include 10,667,160 with tau 256 and 10,876,320 with tau 288.  Both
    # pass the mask on byte 255, and the interlock test rejects both.
    n, lo, hi = 43_648_605, 10_667_000, 10_877_000
    taus = TauOf()
    assert taus[n] == 256 and taus[10_667_160] == 256 and taus[10_876_320] == 288
    scan = scan_range(n, lo, hi, ALL)
    assert scan == ChunkScan((), 2) and table_scan(n, lo, hi, taus) == ((), 2)
    assert scan_range(n, lo, hi, SearchConfig()) == scan
    assert not any(check_interlock(m, n).verdict for m in (10_667_160, 10_876_320))


@pytest.mark.parametrize(
    "n, lo, hi",
    [
        (1_081_080, 1_080_780, 1_081_380),
        (2_162_160, 2_161_860, 2_162_460),
        (43_648_605, 4_000_000, 4_000_400),
    ],
)
def test_unpruned_scan_of_an_n_with_tau_past_253_tests_every_m(n, lo, hi):
    # tau 256, 320 and 256: --no-prune is the oracle for every filter, so it
    # tests each m in the window, n included, with the table and without it;
    # a tau filter that ran would lower the count.
    factors = FactorTable()
    assert factors.cover(hi)
    raw = SearchConfig(prune=False, report_all_partners=True)
    expected = tuple(m for m in range(lo, hi + 1) if check_interlock(m, n).verdict)
    assert n not in expected
    for table in (None, factors):
        scan = scan_range(n, lo, hi, raw, table=table)
        assert scan == ChunkScan(expected, hi - lo + 1), (n, table)  # 601 with n inside, else 401


def test_census_with_a_tiny_divisor_memo_is_unchanged(monkeypatch):
    # The memo forgets every list once it holds _DIVISOR_MEMO_CAP of them.
    expected = census(300)
    sizes = []

    class Recording(FactorTable):
        def divisors(self, m):
            divs = super().divisors(m)
            sizes.append(len(self._divisors))
            return divs

    monkeypatch.setattr(arith, "_DIVISOR_MEMO_CAP", 8)
    monkeypatch.setattr(separability, "FactorTable", Recording)
    assert census(300) == expected
    assert max(sizes) == 8 and sizes.count(1) > 1  # full, then emptied


@pytest.mark.parametrize("cap", [None, 256])
@pytest.mark.parametrize(
    "cfg, x",
    [
        (SearchConfig(), 300),
        (ALL, 150),
        (SearchConfig(prune=False), 300),
    ],
    ids=["default", "all", "no-prune"],
)
def test_census_with_the_table_matches_scans_without_it(monkeypatch, cfg, x, cap):
    # Every row, tested included, whether tau and least primes come from
    # the census's shared table or each window's own sieve; with cap 256
    # the census windows cross the table's cap.
    if cap is not None:
        monkeypatch.setattr(arith, "FACTOR_TABLE_CAP", cap)
    assert census(x, cfg) == [find_partner(n, cfg) for n in range(1, x + 1)]


@cache
def unpruned_census(x: int, report_all: bool):
    return census(x, SearchConfig(prune=False, report_all_partners=report_all))


@pytest.mark.parametrize("x, report_all", [(1000, False), (300, True)], ids=["first", "all"])
def test_gap_rule_keeps_every_unpruned_partner(x, report_all):
    # For every n <= x with tau(n) >= 3, each partner the pruning-free scan
    # finds (the least, or every one) is a multiple of an integer inside the
    # gap the rule reads, and an n with an empty gap has no partner at all.
    empty = checked = 0
    for r in unpruned_census(x, report_all):
        gap = naive_gap(oracle_divisors(r.n))
        if gap is None:
            continue
        inside = range(gap[0] + 1, gap[1])
        empty += not inside
        assert inside or not r.partners, r.n
        for m in r.partners:
            assert any(m % c == 0 for c in inside), (m, r.n)
            checked += 1
    assert empty > x // 6 and checked > x // 3  # 6 | n: the gap (2, 3)


def test_census_partners_are_the_same_with_and_without_pruning():
    pruned = census(300, ALL)
    unpruned = unpruned_census(300, True)
    assert [(r.n, r.separable, r.partners) for r in pruned] == [
        (r.n, r.separable, r.partners) for r in unpruned
    ]


@given(
    st.integers(1, 5000), st.integers(0, 400), st.integers(2, 90), st.integers(1, 120),
    st.sampled_from([1, 2]),
)
@example(2001, 0, 2, 2, 2)  # the gap (2, 4) of 2^k at one odd entry
@example(2001, 10, 40, 80, 2)  # marked from the cofactors: 33 values, not 79
@settings(max_examples=300, deadline=None)
def test_gap_marks_flag_the_multiples_of_the_gap(start, width, a, span, step):
    start |= step - 1
    end, b = start + width, a + span
    marks = separability._gap_marks(start, end, step, a, b)
    naive = [any(m % c == 0 for c in range(a + 1, b)) for m in range(start, end + 1, step)]
    assert list(marks) == list(map(int, naive))


def test_pow2_verifier():
    for k in (9, 10):
        report = verify_pow2_nonseparable(k)
        assert isinstance(report, Pow2Report)
        assert report.confirmed and report.partners == ()
        assert report.lo == 2 ** (k - 1) + 1 and report.hi == 2 ** (k + 2) - 1
        assert report.odd_candidates > 0 and report.tau_filtered < report.odd_candidates
    with pytest.raises(ValueError):
        verify_pow2_nonseparable(12)  # residue 0: a partner may exist
    with pytest.raises(ValueError):
        verify_pow2_nonseparable(2)
    with pytest.raises(ValueError):
        verify_pow2_nonseparable(1)


def test_verified_residues_match_the_partner_shapes_seen():
    # The classes are the k whose k and k + 1 are both free of the factors
    # 4 and 6.  Every partner of 2^k, k = 3..33, has 4 | tau(m) or
    # 6 | tau(m), and 3 or 9 exactly divides it.  This is an observation
    # over that range, not a proof of the lemma.
    assert VERIFIED_RESIDUES == {
        r for r in range(12) if all(x % 4 and x % 6 for x in (r, r + 1))
    }
    total = 0
    for k in range(3, 34):
        partners = pow2_partners(k, 2 ** (k + 2) - 1, True).partners
        for m in partners:
            t = len(divisors(m))
            assert t % 4 == 0 or t % 6 == 0, (k, m)
            assert m % 3 == 0 and m % 27, (k, m)  # 3 or 9 exactly divides m
        total += len(partners)
    assert total == 18_488


def test_even_partner_restriction_is_validated_not_assumed():
    # The odd-only filter for even n must not drop partners: compare with the
    # scan that prunes nothing, on powers of two and on even n that are
    # neither powers of two nor multiples of 6.
    for k in (2, 3, 4, 5, 6, 7):
        assert find_partner(2**k, ALL).partners == find_partner(2**k, NO_PRUNE).partners, k
    for n in (1010, 2000):
        assert find_partner(n, ALL).partners == find_partner(n, NO_PRUNE).partners, n


def test_census_counts_and_monotonicity():
    rows = census(60)
    assert len(rows) == 60
    assert rows[0].n == 1 and rows[0].separable and rows[0].degenerate
    a_prev = 0
    for x in range(1, 61):
        a_x = count_separable(rows[:x])
        assert a_x >= a_prev
        a_prev = a_x
    assert count_separable(rows) > count_separable(rows, include_degenerate=False)
    by_n = {r.n: r for r in rows}
    assert by_n[9].separable  # partner 5 sits in the lone gap (3, 9)
    assert not by_n[6].separable  # the (2, 3) gap of 6 cannot be cut
    with pytest.raises(ValueError, match="census: x must be >= 1, got 0"):
        census(0)


def test_census_cache_roundtrip(tmp_path):
    path = tmp_path / "census.jsonl"
    rows = census(25)
    write_census_cache(path, rows)
    cached = load_census_cache(path)
    assert set(cached) == set(range(1, 26))
    for r in rows:
        assert cached[r.n] == r
    # records are JSON lines with the fixed field set, after the header line
    with path.open() as fh:
        fh.readline()
        first = json.loads(fh.readline())
    assert set(first) == {"n", "separable", "degenerate", "partners", "bound", "tested"}
    assert record_to_result(result_to_record(rows[5])) == rows[5]


@pytest.mark.parametrize("crash_at", ["third-row", "fsync", "replace"])
def test_census_cache_survives_a_crash_mid_write(tmp_path, monkeypatch, crash_at):
    path = tmp_path / "census.jsonl"
    rows = census(30)
    write_census_cache(path, rows[:10])
    before = path.read_bytes()
    to_record, written = separability.result_to_record, []

    def crash_on_third_row(r):
        written.append(r)
        if len(written) == 3:
            raise OSError("injected crash")
        return to_record(r)

    def crash(*args):
        raise OSError("injected crash")

    with monkeypatch.context() as patch:
        if crash_at == "third-row":
            patch.setattr(separability, "result_to_record", crash_on_third_row)
        else:
            patch.setattr(separability.os, crash_at, crash)
        with pytest.raises(OSError, match="injected crash"):
            write_census_cache(path, rows)
    # the old file is untouched and still served, the temporary file is
    # gone, and the next write replaces the old file
    assert [p.name for p in tmp_path.iterdir()] == ["census.jsonl"]
    assert path.read_bytes() == before
    assert load_census_cache(path) == {r.n: r for r in rows[:10]}
    write_census_cache(path, [*load_census_cache(path).values(), *rows[10:]])
    assert load_census_cache(path) == {r.n: r for r in rows}
    assert [p.name for p in tmp_path.iterdir()] == ["census.jsonl"]


def test_load_census_cache_missing_file(tmp_path):
    assert load_census_cache(tmp_path / "absent.jsonl") == {}


@given(st.integers(min_value=2, max_value=400))
@settings(max_examples=150, deadline=None)
def test_every_reported_partner_interlocks(n):
    result = find_partner(n, ALL)
    for m in result.partners:
        assert check_interlock(m, n).verdict
    if result.partners:
        assert result.separable
    assert result.degenerate == (len(divisors(n)) <= 2)


@given(st.integers(min_value=2, max_value=300))
@settings(max_examples=100, deadline=None)
def test_partner_window_contains_all_partners(n):
    # Property form of the bound guarantee.
    lo, hi, _ = partner_window(n)
    if len(divisors(n)) >= 3:
        assert lo == n // divisors(n)[1] + 1
        assert hi == n * divisors(n)[2]
    else:
        assert lo == 2
        assert hi == n * n


def test_slot_search_matches_the_window_scan():
    # find_partner sends 2^k to the slot search, so the window scan is
    # called directly here.
    for k in range(3, 21):
        lo, hi, _ = partner_window(2**k)
        scanned = scan_range(2**k, lo, hi, ALL).partners
        every = pow2_partners(k, hi, True)
        assert every.partners == scanned and every.passed == len(scanned), k
        assert pow2_partners(k, hi, False).partners == scanned[:1], k
        for m in scanned:
            assert check_interlock(m, 2**k).verdict


def test_slot_search_matches_the_unpruned_scan():
    for k in range(3, 15):
        assert find_partner(2**k, ALL).partners == find_partner(2**k, NO_PRUNE).partners, k


def test_slot_search_pins():
    hi = lambda k: 4 << k  # the top of 2^k's window
    every = pow2_partners(23, hi(23), True).partners
    assert len(every) == 342 and every[0] == 15257319
    every = pow2_partners(24, hi(24), True).partners
    assert len(every) == 89 and every[0] == 15257319
    least = {k: pow2_partners(k, hi(k), False).partners for k in range(25, 33)}
    assert least == {
        25: (), 26: (), 27: (), 28: (),
        29: (1038438075,), 30: (1038438075,),
        31: (3775127811,), 32: (3775127811,),
    }


@cache
def every_pow2_partner(k: int) -> frozenset:
    return frozenset(pow2_partners(k, 4 << k, True).partners)


@given(st.integers(3, 30), st.integers(0, 1 << 40))
@example(6, 63 - 33)  # partners of 2^6, 2^11 and 2^29
@example(11, 3975 - 1025)
@example(29, 1038438075 - (2**28 + 1))
@settings(max_examples=300, deadline=None)
def test_slot_search_finds_exactly_the_interlocking_m(k, r):
    # m: an odd number in (2^(k-1), 2^(k+2)), the window of 2^k.
    lo, hi = (1 << (k - 1)) + 1, (1 << (k + 2)) - 1
    m = (lo + r % (hi - lo + 1)) | 1
    assert (m in every_pow2_partner(k)) == check_interlock(m, 2**k).verdict, m


SLOT_PRIMES = prime_sieve(1 << 16)  # the slots of 2^k, k <= 16


def naive_runs(ds, f, used, j, k, qmax):
    """The q of slot j, up to qmax, placed one by one: {q: the filled slots
    with every q*d added} where each q*d gets a free slot of its own, up to
    k, or above it as m = q*f once every slot up to k is filled."""
    filled = {s for s in range(used.bit_length()) if used >> s & 1}
    out = {}
    for q in range(2 ** (j - 1) + 1, min(2**j - 1, qmax) + 1):
        if not SLOT_PRIMES[q]:
            continue
        slots = [(q * d).bit_length() for d in ds]
        top = (q * f).bit_length()
        below = slots if top <= k else [s for s, d in zip(slots, ds) if d != f]
        if len(set(slots)) == len(slots) and not filled & set(slots) and all(s <= k for s in below):
            now = filled | set(slots)
            if top <= k or now >= set(range(k + 1)):
                out[q] = sum(1 << s for s in now)
    return out


def test_prime_runs_match_placing_each_prime(monkeypatch):
    runs, calls = separability._prime_intervals, []

    def recording(*node):
        got = runs(*node)
        calls.append((node, got))
        return got

    monkeypatch.setattr(separability, "_prime_intervals", recording)
    for k in range(3, 17):
        for report_all in (True, False):
            pow2_partners(k, 4 << k, report_all)
    assert len(calls) > 100
    for node, got in calls:
        placed = {q: bits for a, b, bits in got for q in range(a, b + 1) if SLOT_PRIMES[q]}
        assert placed == naive_runs(*node), node


def test_slot_search_hands_complete_divisor_lists_to_check_interlock(monkeypatch):
    # Each complete placement reaches check_interlock_divisors with its own
    # divisors, so no placement is factorized again (the partners are pinned
    # to the window scan above).
    seen = []

    def recording(div_m, div_n):
        seen.append(div_m)
        return check_interlock_divisors(div_m, div_n)

    monkeypatch.setattr(separability, "check_interlock_divisors", recording)
    placements = sum(pow2_partners(k, 4 << k, True).passed for k in range(3, 21))
    assert placements == len(seen) > 0
    for div_m in seen:
        assert tuple(div_m) == divisors(div_m[-1]), div_m
