"""Acceptance suite: one test per criterion, each printing a pass line with
its measured runtime and running at its stated tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they pass.
"""

import json
import time
from bisect import bisect_right

import pytest

from interlock.arith import smallest_prime_divisor
from interlock.cli import run as cli_run
from interlock.construction import (
    JumpParams,
    build_pow2_partner,
    count_bounded_jumps,
    gap_census,
    verify_construction,
)
from interlock.pairs import check_interlock
from interlock.separability import SearchConfig, find_partner
from oracles import divisor_table, tau_relation


def _cli_json(capsys, *argv):
    code = cli_run(["--jsonl", *argv])
    text = capsys.readouterr().out
    return code, json.loads(text)


def _report(name, elapsed, detail=""):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.3f}s){' - ' + detail if detail else ''}")


def test_criterion_1_worked_example(capsys):
    started = time.perf_counter()
    code, rec = _cli_json(capsys, "check", "63", "64")
    assert code == 0
    assert rec["result"]["verdict"] is True
    assert rec["result"]["trace"] == [2, 3, 4, 7, 8, 9, 16, 21, 32, 63, 64]
    # the decision itself must run under a millisecond
    check_interlock(63, 64)  # first call outside the timed loop
    reps = 200
    t0 = time.perf_counter()
    for _ in range(reps):
        report = check_interlock(63, 64)
    per_call = (time.perf_counter() - t0) / reps
    assert report.trace == (2, 3, 4, 7, 8, 9, 16, 21, 32, 63, 64)
    assert per_call < 1e-3, f"check took {per_call * 1e3:.3f} ms"
    _report("1 (worked example)", time.perf_counter() - started,
            f"{per_call * 1e6:.1f}us per check")


def test_criterion_2_tau_relation_suite():
    started = time.perf_counter()
    failures = 0
    pairs = 0
    for m in range(2, 301):
        pm = smallest_prime_divisor(m)
        for n in range(2, 301):
            if m == n or pm == smallest_prime_divisor(n):
                continue
            if not check_interlock(m, n).verdict:
                continue
            pairs += 1
            if not tau_relation(m, n).consistent:
                failures += 1
    elapsed = time.perf_counter() - started
    assert failures == 0
    assert pairs > 0
    assert elapsed < 60
    _report("2 (tau relation, pairs <= 300)", elapsed, f"{pairs} interlocking pairs, 0 failures")


def test_criterion_3_pow2_nonseparable_desk_scale(capsys):
    started = time.perf_counter()
    for k in (9, 10, 13, 14):
        code, rec = _cli_json(capsys, "pow2", "--k", str(k), "--jobs", "1")
        assert code == 0, k
        report = rec["result"]["report"]
        assert rec["result"]["mode"] == "exhaustive-verification"
        assert report["confirmed"] is True and report["partners"] == [], k
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _report("3 (2^k exhaustion, k in 9/10/13/14)", elapsed)


def test_criterion_4_construction_mechanics(capsys):
    started = time.perf_counter()
    code, rec = _cli_json(capsys, "construct", "--k", "32", "--t", "5")
    assert code == 0
    result = rec["result"]
    assert int(result["plan"]["m"]) == 231 * 257 * 65537
    verification = result["verification"]
    assert verification["verified"] is True
    assert verification["tau_m"] == 32
    assert verification["dyadic_checks"] == 32
    assert verification["first_failure"] is None
    assert verification["interlock_report"]["verdict"] is True

    plan96 = build_pow2_partner(96, 5)
    report96 = verify_construction(plan96)
    assert report96.verified and report96.tau_m == 96
    # The slot checks and the direct interlock check agree.
    slots_ok = (report96.first_failure is None and report96.injective
                and report96.tau_identity_ok)
    assert report96.interlock_checked and slots_ok == report96.interlock_report.verdict
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    _report("4 (partner construction, k=32 and k=96)", elapsed)


def test_criterion_5_primorial_boundary(capsys):
    started = time.perf_counter()
    code, rec = _cli_json(capsys, "primorial", "--k", "8")
    assert code == 0
    assert rec["result"]["count"] == 1
    split = rec["result"]["splits"][0]
    assert (split["m"], split["n"]) == (2470, 3927)
    for k in (2, 4, 6):
        code, rec = _cli_json(capsys, "primorial", "--k", str(k))
        assert code == 0 and rec["result"]["count"] >= 1, k
    for k in (9, 10, 11, 12):
        code, rec = _cli_json(capsys, "primorial", "--k", str(k))
        assert code == 0 and rec["result"]["count"] == 0, k
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _report("5 (primorial boundary k <= 12)", elapsed)


def test_criterion_6_oracle_equivalence():
    started = time.perf_counter()
    limit = 200
    table = divisor_table(limit * limit)
    all_partners = SearchConfig(report_all_partners=True)
    discrepancies = []
    for n in range(1, limit + 1):
        dn = [d for d in table[n] if d > 1]
        gaps = list(zip(dn, dn[1:]))
        skip_self = len(table[n]) >= 3
        expected = []
        for m in range(2, n * n + 1):
            if skip_self and m == n:
                continue
            dm = [d for d in table[m] if d > 1]
            ok = True
            for lo, hi in gaps:  # n-side first: usually fails immediately
                i = bisect_right(dm, lo)
                if not (i < len(dm) and dm[i] < hi):
                    ok = False
                    break
            if ok:
                for lo, hi in zip(dm, dm[1:]):
                    i = bisect_right(dn, lo)
                    if not (i < len(dn) and dn[i] < hi):
                        ok = False
                        break
            if ok:
                expected.append(m)
        result = find_partner(n, all_partners)
        oracle_separable = bool(expected) or result.degenerate
        if list(result.partners) != expected or result.separable != oracle_separable:
            discrepancies.append((n, expected, list(result.partners)))
    elapsed = time.perf_counter() - started
    assert discrepancies == []
    _report("6 (pruned search = unpruned oracle, n <= 200)", elapsed, "0 discrepancies")


def test_criterion_7_membership_counts():
    started = time.perf_counter()
    count_override = count_bounded_jumps(10**4, JumpParams.from_override(5))
    assert count_override > 5000
    count_vacuous = count_bounded_jumps(10**5, JumpParams.from_t(12))
    assert count_vacuous == 10**5
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _report("7 (membership counts)", elapsed,
            f"count(1e4, c=5) = {count_override} > 5000; vacuous regime exact")


def test_criterion_8_gap_census_grid():
    started = time.perf_counter()
    grid = [
        (100, 2, 3), (100, 2, 100), (250, 3, 9), (500, 2, 22), (500, 7, 31),
        (1000, 2, 5), (1000, 10, 100), (2000, 5, 17), (2500, 2, 50), (3000, 11, 13),
        (4000, 2, 63), (5000, 3, 70), (6000, 29, 31), (7000, 2, 7), (7919, 13, 100),
        (8000, 40, 80), (9000, 3, 5), (9500, 17, 23), (10000, 10, 100), (10000, 2, 100),
    ]
    assert len(grid) == 20
    table = divisor_table(10000)
    for x, y, z in grid:
        expected = sum(
            1 for n in range(1, x + 1) if not any(y <= d <= z for d in table[n])
        )
        assert gap_census(x, y, z) == expected, (x, y, z)
    elapsed = time.perf_counter() - started
    _report("8 (gap census vs oracle, 20-point grid)", elapsed)
