"""CLI surface: payload shapes, exit codes, determinism across --jobs, and
the census cache."""

import json
import re
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal

import mpmath
import pytest

from interlock import arith, cli, construction, precision, separability
from interlock.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    text = out.out or out.err
    return code, json.loads(text)


def strip_volatile(record):
    record = dict(record)
    record.pop("timing_ms", None)
    return record


def test_check_true_exit_zero(capsys):
    code, rec = invoke(capsys, "--jsonl", "check", "63", "64")
    assert code == 0
    assert rec["command"] == "check"
    assert rec["result"]["verdict"] is True
    assert rec["result"]["trace"] == [2, 3, 4, 7, 8, 9, 16, 21, 32, 63, 64]
    assert rec["version"]


def test_check_false_exit_one(capsys):
    code, rec = invoke(capsys, "--jsonl", "check", "6", "6")
    assert code == 1
    assert rec["result"]["verdict"] is False
    assert rec["result"]["witness"]["lower"] == 2
    code, rec = invoke(capsys, "--jsonl", "check", "6", "10")
    assert code == 1
    assert rec["result"]["witness"] == {"kind": "gap", "side": "first", "lower": 2, "upper": 3}


def test_check_zero_input_usage_error(capsys):
    code, rec = invoke(capsys, "--jsonl", "check", "0", "5")
    assert code == 2
    assert rec["result"]["error"] == "usage"


def test_partner_payloads(capsys):
    code, rec = invoke(capsys, "--jsonl", "partner", "64")
    assert code == 0
    assert rec["result"]["partners"] == [63]
    code, rec = invoke(capsys, "--jsonl", "partner", "512")
    assert code == 1
    assert rec["result"]["partners"] == []
    assert rec["result"]["search_bound"] == 2048
    code, rec = invoke(capsys, "--jsonl", "partner", "1", "--bound", "10")
    assert code == 0
    assert rec["result"]["partners"] == [] and rec["result"]["search_bound"] == 1
    code, rec = invoke(capsys, "--jsonl", "partner", "720720")  # the empty gap (2, 3)
    assert code == 1 and rec["result"]["candidates_tested"] == 0


def test_partner_jobs_determinism(capsys):
    _, rec1 = invoke(capsys, "--jsonl", "partner", "64", "--all", "--jobs", "1")
    _, rec2 = invoke(capsys, "--jsonl", "partner", "64", "--all", "--jobs", "3")
    assert strip_volatile(rec1) == strip_volatile(rec2)
    _, rec1 = invoke(capsys, "--jsonl", "partner", "210", "--jobs", "1")
    _, rec2 = invoke(capsys, "--jsonl", "partner", "210", "--jobs", "4")
    assert strip_volatile(rec1) == strip_volatile(rec2)
    # a window wide enough to really fan out over the pool
    _, rec1 = invoke(capsys, "--jsonl", "partner", "3072", "--all", "--jobs", "1")
    _, rec2 = invoke(capsys, "--jsonl", "partner", "3072", "--all", "--jobs", "4")
    assert strip_volatile(rec1) == strip_volatile(rec2)


def test_pow2_verifier_and_search_modes(capsys):
    code, rec = invoke(capsys, "--jsonl", "pow2", "--k", "9", "--jobs", "1")
    assert code == 0
    assert rec["result"]["mode"] == "exhaustive-verification"
    assert rec["result"]["report"]["confirmed"] is True
    assert rec["result"]["report"]["partners"] == []
    code, rec = invoke(capsys, "--jsonl", "pow2", "--k", "6", "--jobs", "1")
    assert code == 0
    assert rec["result"]["mode"] == "partner-search"
    assert rec["result"]["result"]["partners"] == [63]


def test_pow2_jobs_determinism(capsys):
    _, rec1 = invoke(capsys, "--jsonl", "pow2", "--k", "10", "--jobs", "1")
    _, rec2 = invoke(capsys, "--jsonl", "pow2", "--k", "10", "--jobs", "4")
    assert strip_volatile(rec1) == strip_volatile(rec2)


def test_pow2_search_mode_jobs_determinism(capsys):
    for k in ("6", "8", "12"):
        _, rec1 = invoke(capsys, "--jsonl", "pow2", "--k", k, "--jobs", "1")
        _, rec2 = invoke(capsys, "--jsonl", "pow2", "--k", k, "--jobs", "2")
        assert rec1["result"]["mode"] == "partner-search", k
        assert strip_volatile(rec1) == strip_volatile(rec2), k


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records (max_workers, tasks) and
    runs the tasks here, in order."""

    def __init__(self, log, max_workers=None):
        self.log, self.max_workers = log, max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        tasks = list(zip(*iterables))
        self.log.append((self.max_workers, len(tasks)))
        return [fn(*task) for task in tasks]


def record_pools(monkeypatch):
    log = []
    monkeypatch.setattr(
        cli, "ProcessPoolExecutor", lambda **kw: RecordingPool(log, **kw)
    )
    return log


def record_scans(monkeypatch):
    # The [lo, hi] of every scan_range call the CLI makes.
    log = []
    scan_range = cli.scan_range
    monkeypatch.setattr(
        cli, "scan_range", lambda *task: log.append(task[1:3]) or scan_range(*task)
    )
    return log


@pytest.fixture
def pool_log(monkeypatch):
    # Every split window scan and every census starts a pool, however small.
    monkeypatch.setattr(cli, "_MIN_POOL_WINDOW", 1)
    monkeypatch.setattr(cli, "_MIN_POOL_CENSUS", 1)
    return record_pools(monkeypatch)


def test_pools_never_outnumber_tasks(capsys, monkeypatch, pool_log):
    # A census sends one batch of n per worker, and never more batches than n
    # or CPUs; no pool has more workers than tasks or CPUs, whatever --jobs.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    code, rec = invoke(capsys, "--jsonl", "--jobs", "64", "census", "--max", "20")
    assert code == 0 and rec["result"]["computed"] == 20
    assert pool_log == [(20, 20)]
    pool_log.clear()
    _, rec3 = invoke(capsys, "--jsonl", "--jobs", "3", "census", "--max", "20")
    assert pool_log == [(3, 3)]
    assert strip_volatile(rec3) == strip_volatile(rec)
    pool_log.clear()
    _, serial = invoke(capsys, "--jsonl", "partner", "3072", "--all", "--jobs", "1")
    _, pooled = invoke(capsys, "--jsonl", "partner", "3072", "--all", "--jobs", "64")
    assert strip_volatile(serial) == strip_volatile(pooled)
    assert len(pool_log) == 1 and pool_log[0][0] == pool_log[0][1] > 1
    pool_log.clear()
    invoke(capsys, "--jsonl", "pow2", "--k", "10", "--jobs", "3")
    assert len(pool_log) == 1 and pool_log[0][0] == 3 < pool_log[0][1]
    pool_log.clear()
    invoke(capsys, "--jsonl", "--jobs", "100000", "census", "--max", "200")
    invoke(capsys, "--jsonl", "--jobs", "100000", "partner", "3072", "--all", "--bound", "40000")
    assert pool_log == [(64, 64), (64, 75)]  # 75 chunks of the window


def test_windows_below_the_pool_threshold_run_in_process(capsys, monkeypatch):
    assert cli._MIN_POOL_WINDOW > 1 << 18
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    pools = record_pools(monkeypatch)
    chunks = record_scans(monkeypatch)
    command = ("partner", "786432", "--bound", "655360", "--all")  # 2^18 entries
    _, serial = invoke(capsys, "--jsonl", "--jobs", "1", *command)
    assert chunks == [(393217, 655360)]
    chunks.clear()
    _, split = invoke(capsys, "--jsonl", "--jobs", "2", *command)
    assert pools == []
    assert len(chunks) == 8 and chunks[0][0] == 393217 and chunks[-1][1] == 655360
    assert strip_volatile(serial) == strip_volatile(split)


def test_chunks_are_cut_for_the_workers_that_run(capsys, monkeypatch):
    # At most four chunks per worker, and at most one worker per CPU,
    # however many --jobs ask for.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    chunks = record_scans(monkeypatch)
    _, wide = invoke(capsys, "--jsonl", "--jobs", "1000", "pow2", "--k", "13")
    assert len(chunks) == 8
    chunks.clear()
    _, two = invoke(capsys, "--jsonl", "--jobs", "2", "pow2", "--k", "13")
    assert len(chunks) == 8 and strip_volatile(wide) == strip_volatile(two)


def test_first_hit_search_is_one_scan_at_every_jobs(capsys, monkeypatch, pool_log):
    # Even with every window allowed a pool, a search that stops at its first
    # partner scans the whole window once, in ascending order, in process.
    chunks = record_scans(monkeypatch)
    _, serial = invoke(capsys, "--jsonl", "--jobs", "1", "partner", "1010")
    chunks.clear()
    code, split = invoke(capsys, "--jsonl", "--jobs", "2", "partner", "1010")
    assert code == 0 and split["result"]["partners"] == [2163]
    assert pool_log == []
    assert chunks == [(506, 5050)]
    assert strip_volatile(serial) == strip_volatile(split)


def test_powers_of_two_scan_no_window(capsys, monkeypatch, pool_log):
    # The partners of 2^k come from the slot search, at every --jobs.
    chunks = record_scans(monkeypatch)
    for command in (("partner", "2048", "--all"), ("pow2", "--k", "11")):
        _, serial = invoke(capsys, "--jsonl", "--jobs", "1", *command)
        _, split = invoke(capsys, "--jsonl", "--jobs", "2", *command)
        assert strip_volatile(serial) == strip_volatile(split), command
    assert serial["result"]["result"]["partners"] == [3975]
    assert chunks == [] and pool_log == []


def test_pow2_search_accounting(capsys):
    # candidates_tested of a 2^k search counts the complete placements
    # handed to check_interlock.
    expected = {
        "partner 64": 1,
        "partner 512": 0,
        "partner 524288 --bound 524288": 0,
        "pow2 --k 11": 1,
        "pow2 --k 12": 1,
        "pow2 --k 23": 3,
        "pow2 --k 24": 3,
    }
    for command, tested in expected.items():
        _, rec = invoke(capsys, "--jsonl", "--jobs", "1", *command.split())
        assert rec["result"].get("result", rec["result"])["candidates_tested"] == tested, command


def test_slot_search_budget_is_a_budget_error(capsys, monkeypatch):
    assert arith.SearchBudgetError is separability.SearchBudgetError is construction.SearchBudgetError
    monkeypatch.setattr(separability, "POW2_SEARCH_BUDGET", 50)
    code, rec = invoke(capsys, "--jsonl", "--jobs", "1", "pow2", "--k", "31")
    assert code == 2
    assert rec["result"] == {
        "error": "budget-exceeded",
        "message": "pow2 partner search: k = 31 passed the budget of 50 nodes",
    }
    monkeypatch.setattr(separability, "POW2_SEARCH_BUDGET", 435)  # what k = 31 visits
    code, rec = invoke(capsys, "--jsonl", "--jobs", "1", "pow2", "--k", "31")
    assert code == 0 and rec["result"]["result"]["partners"] == [3775127811]


def test_census_batches_over_a_pool_above_the_crossover(capsys, monkeypatch):
    # At the crossover --jobs 2 deals the n to two batches over a pool (a
    # recording one: no process starts), and the payload is --jobs 1's.
    pools = record_pools(monkeypatch)
    command = ("census", "--max", str(cli._MIN_POOL_CENSUS))
    _, serial = invoke(capsys, "--jsonl", "--jobs", "1", *command)
    assert pools == []
    _, pooled = invoke(capsys, "--jsonl", "--jobs", "2", *command)
    assert pools == [(2, 2)]
    assert strip_volatile(serial) == strip_volatile(pooled)
    rows = serial["result"]["rows"]
    assert [row["n"] for row in rows] == list(range(1, cli._MIN_POOL_CENSUS + 1))
    # one below the crossover runs in process
    invoke(capsys, "--jsonl", "--jobs", "2", "census", "--max", str(cli._MIN_POOL_CENSUS - 1))
    assert pools == [(2, 2)]


class CountingPool(ProcessPoolExecutor):
    """The real process pool, counting the pools started."""

    started = []

    def __init__(self, max_workers=None):
        self.started.append(max_workers)
        super().__init__(max_workers=max_workers)


def test_window_scan_over_a_real_pool(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_MIN_POOL_WINDOW", 1)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
    CountingPool.started.clear()
    _, serial = invoke(capsys, "--jsonl", "--jobs", "1", "pow2", "--k", "10")
    _, pooled = invoke(capsys, "--jsonl", "--jobs", "2", "pow2", "--k", "10")
    assert CountingPool.started == [2]
    assert strip_volatile(serial) == strip_volatile(pooled)


def test_jobs_below_one_usage_error(capsys, pool_log):
    for jobs in ("0", "-2"):
        code, rec = invoke(capsys, "--jsonl", "--jobs", jobs, "census", "--max", "20")
        assert code == 2, jobs
        assert rec["result"]["error"] == "usage"
    assert pool_log == []


def test_construct_and_reload(tmp_path, capsys):
    path = tmp_path / "plan.json"
    code, rec = invoke(
        capsys, "--jsonl", "construct", "--k", "32", "--t", "5", "--save", str(path),
    )
    assert code == 0
    result = rec["result"]
    assert result["plan"]["m"] == str(231 * 257 * 65537)
    assert result["verification"]["verified"] is True
    assert result["verification"]["interlock_report"]["verdict"] is True
    assert path.exists()
    code, rec = invoke(capsys, "--jsonl", "construct", "--load", str(path))
    assert code == 0
    assert rec["result"]["verification"]["verified"] is True


def test_the_direct_interlock_check_runs_exactly_up_to_its_cap(capsys):
    # construction._DIRECT_CHECK_CAP = 4096 lies between these two k.
    for k, t, checked in (("4064", "5", True), ("4160", "6", False)):
        code, rec = invoke(capsys, "--jsonl", "construct", "--k", k, "--t", t)
        report = rec["result"]["verification"]
        assert code == 0 and report["verified"] is True, k
        assert report["interlock_checked"] is checked, k
        if checked:
            assert report["interlock_report"]["verdict"] is True
        else:
            assert report["interlock_report"] is None


def test_construct_usage_errors(capsys):
    code, rec = invoke(capsys, "--jsonl", "construct", "--k", "48", "--t", "5")
    assert code == 2
    assert rec["result"]["error"] == "usage"
    code, rec = invoke(capsys, "--jsonl", "construct")
    assert code == 2
    code, rec = invoke(
        capsys, "--jsonl", "construct", "--k", "8192", "--t", "4",
        "--budget-bits", "128",
    )
    assert code == 2
    assert rec["result"]["error"] == "budget-exceeded"


def test_construct_refuses_load_with_k_or_t(capsys):
    for extra in (("--k", "96"), ("--t", "5"), ("--k", "96", "--t", "5")):
        code, rec = invoke(capsys, "--jsonl", "construct", *extra, "--load", "plan.json")
        assert code == 2
        assert rec["result"] == {
            "error": "usage",
            "message": "construct: give --k and --t, or --load PATH, not both",
        }


def test_construct_load_refuses_tampered_and_malformed_plans(tmp_path, capsys):
    saved = tmp_path / "plan.json"
    code, _ = invoke(
        capsys, "--jsonl", "construct", "--k", "16", "--t", "4", "--save", str(saved)
    )
    assert code == 0
    plan = json.loads(saved.read_text())
    assert [l["prime"] for l in plan["levels"]] == ["257"]
    # 12345 does not interlock with 2^16; 259 = 7 * 37 is no level prime.
    bad_m = {**plan, "m": "12345"}
    bad_prime = {**plan, "levels": [{**plan["levels"][0], "prime": "259"}]}
    bad_k = {**plan, "k": "32"}  # k = 32 needs a second level
    moved = {**plan["levels"][0], "index": "7", "bits": "9", "pow2": "512"}
    cases = (
        (bad_m, "field 'm'"),
        (bad_prime, "259^1 is not a prime"),
        ({"k": "16"}, "missing field 'levels'"),
        ([plan], "JSON object"),
        (bad_k, "field 'levels'"),
        ({**plan, "t": "2"}, "t must be >= 4, got 2"),
        ({**plan, "r": "99"}, "field 'r'"),
        ({**plan, "exponents": ["7"]}, "field 'exponents'"),
        ({**plan, "levels": [moved]}, "field 'levels'"),
        ({**plan, "k": 32.7}, "field 'k'"),
        ({**plan, "k": "12a"}, "bad or missing field 'k'"),
        ({**plan, "t": True}, "field 't'"),
        # t past str()'s 4,300-digit limit is refused in _plan's own words
        ({**plan, "t": "9" * 5000}, f"2^{'9' * 5000} does not divide k = 16"),
    )
    for i, (data, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(data))
        code, rec = invoke(capsys, "--jsonl", "construct", "--load", str(path))
        assert code == 2, message
        assert rec["result"]["error"] == "usage"
        assert message in rec["result"]["message"]
    code, check = invoke(capsys, "--jsonl", "check", "12345", "65536")
    assert code == 1 and check["result"]["verdict"] is False


def test_construct_save_keeps_the_old_plan_when_the_write_fails(tmp_path, capsys, monkeypatch):
    saved = tmp_path / "plan.json"
    code, _ = invoke(
        capsys, "--jsonl", "construct", "--k", "16", "--t", "4", "--save", str(saved)
    )
    assert code == 0
    before = saved.read_bytes()

    def failing_fsync(fd):
        raise OSError("fsync failed")

    monkeypatch.setattr(separability.os, "fsync", failing_fsync)
    code, rec = invoke(
        capsys, "--jsonl", "construct", "--k", "32", "--t", "5", "--save", str(saved)
    )
    assert code == 2 and rec["result"] == {"error": "usage", "message": "fsync failed"}
    assert saved.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["plan.json"]  # no plan.json.tmp


def test_construct_load_reports_crafted_plans(tmp_path, capsys):
    saved = tmp_path / "plan.json"
    invoke(capsys, "--jsonl", "construct", "--k", "16", "--t", "4", "--save", str(saved))
    plan = json.loads(saved.read_text())
    # Both primes are certified.  7 * 293 = 2051 leaves slot 10 = (2^10, 2^11)
    # empty and shares slot 11 with 11 * 293 = 3223; 251 shares slot 7 with
    # 231, so slot 8 gets 251.
    for prime, failure in (("293", 10), ("251", 8)):
        level = {**plan["levels"][0], "prime": prime}
        crafted = {**plan, "levels": [level], "m": str(231 * int(prime))}
        path = tmp_path / f"k16-{prime}.json"
        path.write_text(json.dumps(crafted))
        code, rec = invoke(capsys, "--jsonl", "construct", "--load", str(path))
        report = rec["result"]["verification"]
        assert code == 1
        assert report["first_failure"] == failure and report["verified"] is False
        assert report["interlock_report"]["verdict"] is False

    # Swapping the two level primes keeps m, so its divisors still fill the
    # slots of 2^32, though not in the order of the plan's digits.
    invoke(capsys, "--jsonl", "construct", "--k", "32", "--t", "5", "--save", str(saved))
    plan = json.loads(saved.read_text())
    low, high = plan["levels"]
    swapped = [{**low, "prime": high["prime"], "certified": high["certified"]},
               {**high, "prime": low["prime"], "certified": low["certified"]}]
    path = tmp_path / "k32.json"
    path.write_text(json.dumps({**plan, "levels": swapped}))
    code, rec = invoke(capsys, "--jsonl", "construct", "--load", str(path))
    report = rec["result"]["verification"]
    assert code == 0
    assert report["first_failure"] is None and report["verified"] is True
    assert report["interlock_report"]["verdict"] is True
    assert report["claims"]["all_hold"] is False


def test_construct_load_recomputes_verified_and_claims(tmp_path, capsys):
    saved = tmp_path / "plan.json"
    code, built = invoke(
        capsys, "--jsonl", "construct", "--k", "32", "--t", "5", "--save", str(saved)
    )
    assert code == 0
    plan = json.loads(saved.read_text())
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps({**plan, "verified": False, "claims": [1, 2, 3]}))
    code, rec = invoke(capsys, "--jsonl", "construct", "--load", str(tampered))
    assert code == 0
    assert rec["result"] == built["result"]
    assert rec["result"]["plan"]["verified"] is True
    assert rec["result"]["plan"]["claims"]["all_hold"] is True


def test_construct_past_the_str_digit_limit(tmp_path, capsys):
    # m has 4,470 decimal digits and the claims' aggregate more.
    saved = tmp_path / "plan.json"
    code, built = invoke(
        capsys, "--jsonl", "construct", "--k", "14848", "--t", "9", "--save", str(saved)
    )
    assert code == 0
    assert built["result"]["verification"]["verified"] is True
    assert len(built["result"]["plan"]["m"]) > 4300
    assert json.loads(saved.read_text()) == built["result"]["plan"]
    code, loaded = invoke(capsys, "--jsonl", "construct", "--load", str(saved))
    assert code == 0 and loaded["result"] == built["result"]
    # m as a bare JSON number of 4,470 digits reads back too.
    plan = built["result"]["plan"]
    bare = json.dumps(plan).replace(f'"m": "{plan["m"]}"', f'"m": {plan["m"]}')
    saved.write_text(bare)
    code, loaded = invoke(capsys, "--jsonl", "construct", "--load", str(saved))
    assert code == 0 and loaded["result"] == built["result"]


def test_construct_over_the_divisor_cap_is_a_usage_error(capsys):
    # The plan builds at once; its m has 2,000,192 divisors, above the cap of
    # the divisor list the slots are checked on.
    code, rec = invoke(capsys, "--jsonl", "construct", "--k", "2000192", "--t", "6")
    assert code == 2
    assert rec["result"] == {
        "error": "usage",
        "message": "divisors: value has 2000192 divisors, above the 2000000 cap",
    }
    for k in ("1033216", "1024003072"):  # past the bit cap, and far past the divisor cap
        code, rec = invoke(capsys, "--jsonl", "construct", "--k", k, "--t", "10")
        assert code == 2 and rec["result"]["error"] == "usage", k


def test_pow2_rejects_negative_k(capsys):
    code, rec = invoke(capsys, "--jsonl", "pow2", "--k", "-1")
    assert code == 2
    assert rec["result"] == {"error": "usage", "message": "pow2: k must be >= 0, got -1"}


def test_pow2_at_a_huge_k_is_refused_not_searched(capsys):
    # 2^k's divisor list passes arith.MAX_DIVISOR_BITS, so the search is
    # refused before it starts instead of running without end; factorizing
    # 2^300000 costs O(log^2 k) divisions, not k of them.
    for k in (50000, 300000):
        assert run(["--jsonl", "pow2", "--k", str(k)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        record = json.loads(out.err)
        assert record["result"]["error"] in ("usage", "budget-exceeded")
        assert record["timing_ms"] < 5000, k


def test_s_member_and_exit_codes(capsys):
    code, rec = invoke(capsys, "--jsonl", "s-member", "12", "--t", "5")
    assert code == 0 and rec["result"]["member"] is True
    code, rec = invoke(capsys, "--jsonl", "s-member", "514", "--t", "5")
    assert code == 1
    assert rec["result"]["witness"] == [2, 257]
    code, rec = invoke(capsys, "--jsonl", "s-member", "5", "--t", "5", "--C", "3")
    assert code == 2  # both threshold forms at once


def threshold_argv(t, C):
    return [*(["--t", str(t)] if t is not None else []), *(["--C", C] if C is not None else [])]


ONE_FORM = "provide exactly one of --t / --C"
POSITIVE = "JumpParams: override threshold must be positive"
RATIONAL = "--C must be a rational p/q with q != 0, got {!r}"


def test_bad_thresholds_are_one_usage_error_in_process_and_on_the_cli(capsys):
    # (t, C, message).  "_" and inner spaces are refused on every Python,
    # as 3.10's Fraction does; 3.11 reads "1_000" and 3.12 reads "2 / 3".
    bad = [(5, "3", ONE_FORM), (None, None, ONE_FORM), (1, None, "JumpParams: t must be >= 2, got 1"),
           (None, "0", POSITIVE), (None, "-2", POSITIVE)]
    bad += [(None, C, RATIONAL.format(C)) for C in ("1/0", "0/0", "abc", "1_000", "2 / 3", "2/ 3", "1 000")]
    for t, C, message in bad:
        with pytest.raises(ValueError) as raised:
            construction.JumpParams(t, C)
        assert str(raised.value) == message, (t, C)
        for command in (("s-member", "5"), ("s-count", "--max", "10")):
            code, rec = invoke(capsys, "--jsonl", *command, *threshold_argv(t, C))
            assert code == 2, (t, C)
            assert rec["result"] == {"error": "usage", "message": message}, (t, C)


def test_good_thresholds_read_the_same_in_process_and_on_the_cli(capsys):
    good = [(None, C) for C in ("7/3", "5", "2.5", "1e3", " 7/3 ")] + [(2, None), (14300, None)]
    for t, C in good:
        threshold = construction.JumpParams(t, C).describe()
        for command in (("s-member", "1"), ("s-count", "--max", "10")):  # 1 is always a member
            code, rec = invoke(capsys, "--jsonl", *command, *threshold_argv(t, C))
            assert code == 0 and rec["result"]["threshold"] == threshold, (t, C)


def test_threshold_text_for_a_large_t(capsys):
    # Neither e^c = 2^(2^14298) nor its exponent 2^14298 is built or printed.
    code, rec = invoke(capsys, "--jsonl", "s-member", "5", "--t", "14300")
    assert code == 0 and rec["result"]["member"] is True
    assert rec["result"]["threshold"] == "ln(2) * 2^14298  (t = 14300, e^c = 2^(2^14298))"
    # 2^(10^9 - 2) would take 125 MB per divisor comparison.
    code, rec = invoke(capsys, "--jsonl", "s-member", "5", "--t", "1000000000")
    assert code == 0 and rec["result"]["member"] is True and rec["timing_ms"] < 1000


def ln3_text(digits: int, up: bool) -> str:
    """--C text for ln 3 rounded down (or up) to this many decimal digits."""
    with mpmath.workprec(4000 + 4 * digits):
        scaled = mpmath.log(3) * mpmath.mpf(10) ** digits
        return f"{int(mpmath.ceil(scaled) if up else mpmath.floor(scaled))}/{10**digits}"


def test_s_member_precision_exit_three(capsys, monkeypatch):
    # Enclosures that never narrow: the ladder passes its ceiling.
    monkeypatch.setattr(precision, "exp_bounds", lambda r, prec: (0, 1 << (prec + 64)))
    precision.floor_exp.cache_clear()
    code, rec = invoke(capsys, "--jsonl", "s-member", "3", "--C", ln3_text(200, up=False))
    assert code == 3
    assert rec["result"]["error"] == "precision-indeterminate"
    assert rec["result"]["message"].endswith(" bits")


def test_s_member_decides_a_700_digit_threshold(capsys):
    # e^C falls 10^-700 short of 3 (or passes it): about 2,400 bits decide it.
    precision.floor_exp.cache_clear()
    for up, code in ((False, 1), (True, 0)):
        assert invoke(capsys, "--jsonl", "s-member", "3", "--C", ln3_text(700, up))[0] == code


def test_s_count(capsys):
    code, rec = invoke(capsys, "--jsonl", "s-count", "--max", "1000", "--C", "5")
    assert code == 0
    assert rec["result"]["count"] > 500
    code, rec = invoke(capsys, "--jsonl", "s-count", "--max", "100000", "--t", "12")
    assert code == 0 and rec["result"]["count"] == 100000


def test_huge_override_thresholds_answer_at_once(capsys):
    # e^(10^12) has about 1.44e12 bits; every divisor here is settled from
    # its bit length, so it is never built.
    code, rec = invoke(capsys, "--jsonl", "s-member", "6", "--C", "1000000000000")
    assert code == 0 and rec["result"]["member"] is True
    code, rec = invoke(capsys, "--jsonl", "s-member", "720720", "--C", "1000000")
    assert code == 0 and rec["result"]["member"] is True
    code, rec = invoke(capsys, "--jsonl", "s-count", "--max", "100", "--C", "1000000000000")
    assert code == 0 and rec["result"]["count"] == 100


def test_gaps(capsys):
    code, rec = invoke(capsys, "--jsonl", "gaps", "--x", "30", "--y", "3", "--z", "5")
    assert code == 0
    assert rec["result"]["count"] == 12
    assert 0 < rec["result"]["scaled_ratio"] < 1
    code, rec = invoke(capsys, "--jsonl", "gaps", "--x", "10", "--y", "1", "--z", "5")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("gaps", "--x", str(10**20), "--y", "2", "--z", "3"),
        ("s-count", "--max", str(10**20), "--C", "5"),
        ("s-count", "--max", str(10**700), "--C", "1500"),  # 10^700 > e^1500
    ],
)
def test_sieve_beyond_an_index_is_a_usage_error(capsys, argv):
    # x + 1 > sys.maxsize is refused before anything is allocated.
    code, rec = invoke(capsys, "--jsonl", *argv)
    assert code == 2
    assert rec["result"]["error"] == "usage"
    assert f"x = {argv[2]} is too large" in rec["result"]["message"]


def test_running_out_of_memory_is_a_record(capsys, monkeypatch):
    def no_memory(x, y, z):
        raise MemoryError

    monkeypatch.setattr(construction, "_divisor_marks", no_memory)
    code, rec = invoke(capsys, "--jsonl", "gaps", "--x", "30", "--y", "3", "--z", "5")
    assert code == 2
    assert rec["result"] == {"error": "out-of-memory", "message": "MemoryError"}


def test_primorial_payloads(capsys):
    code, rec = invoke(capsys, "--jsonl", "primorial", "--k", "8")
    assert code == 0
    assert rec["result"]["count"] == 1
    split = rec["result"]["splits"][0]
    assert split["m"] == 2470 and split["n"] == 3927
    code, rec = invoke(capsys, "--jsonl", "primorial", "--k", "10")
    assert code == 0  # an empty enumeration is still a successful answer
    assert rec["result"]["count"] == 0


def test_primorial_table_goes_to_stderr(capsys):
    code = run(["--jsonl", "primorial", "--k", "8", "--table"])
    out = capsys.readouterr()
    assert code == 0
    lines = out.out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["result"]["count"] == 1
    assert out.err.startswith("m = 2470 = ")
    # With --consensus the table ends with the consensus, or for k = 9, with
    # the forced-chain contradiction and the parity certificate.
    assert run(["--jsonl", "primorial", "--k", "8", "--consensus", "--table"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("m = 2470 = ")
    assert err[-1].startswith("consensus: 2->m  3->n  5->m ")
    assert run(["--jsonl", "primorial", "--k", "9", "--consensus", "--table"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "no interlocking splits"
    assert err[1].startswith("forced-chain contradiction: 23 and 26 ")
    assert err[2].startswith("parity certificate: ") and err[2].endswith(" >= 16 > 1")


def test_primorial_consensus_payload(capsys):
    for k in (10, 100):
        code, rec = invoke(capsys, "--jsonl", "primorial", "--k", str(k), "--consensus")
        assert code == 0
        assert rec["result"]["count"] == 0
        consensus = rec["result"]["consensus"]
        assert consensus["contradiction"]["side"] == "m"
        assert consensus["contradiction"]["lower"] == 23
        assert consensus["contradiction"]["upper"] == 26
    assert consensus["splits_scanned"] == str(1 << 99)  # beyond a signed 64-bit word


def test_primorial_consensus_only_adds_to_the_one_search(capsys):
    # --consensus adds the consensus key and the table's closing lines; the
    # splits and every other line come from the same search either way.
    closing = ("consensus: ", "forced-chain contradiction: ", "parity certificate: ")
    for k in range(15):
        argv = ["--jsonl", "primorial", "--k", str(k), "--table"]
        assert run(argv) == 0
        plain = capsys.readouterr()
        assert run([*argv, "--consensus"]) == 0
        full = capsys.readouterr()
        result = json.loads(full.out)["result"]
        del result["consensus"]
        assert json.loads(plain.out)["result"] == result, k
        lines, full_lines = plain.err.splitlines(), full.err.splitlines()
        assert full_lines[: len(lines)] == lines, k
        assert all(line.startswith(closing) for line in full_lines[len(lines) :]), k


def test_ints_beyond_the_str_digit_limit_are_emitted(capsys):
    # splits_scanned = 2^14299 has more decimal digits than int -> str
    # allows by default (4,300 on CPython 3.11).
    code, rec = invoke(capsys, "--jsonl", "primorial", "--k", "14300", "--consensus")
    assert code == 0
    assert rec["result"]["count"] == 0
    scanned = rec["result"]["consensus"]["splits_scanned"]
    assert scanned.isdigit() and Decimal(scanned) == 1 << 14299


@pytest.mark.parametrize("error", [ZeroDivisionError, RuntimeError])
def test_unexpected_errors_propagate(capsys, monkeypatch, error):
    # Both refusals are defined in arith, which every command loads, and the
    # bases of their errors must still propagate.
    assert issubclass(arith.PrecisionError, ArithmeticError)
    assert issubclass(arith.SearchBudgetError, RuntimeError)

    def handler(args):
        raise error("not a domain error")

    monkeypatch.setattr(cli, "_cmd_check", handler)
    with pytest.raises(error, match="not a domain error"):
        run(["--jsonl", "check", "6", "7"])
    out = capsys.readouterr()
    assert out.out == "" and out.err == ""


# Argument vectors the one-command parser must read exactly as the full
# parser: every subcommand, the global flags before and after it, their
# abbreviations, negative integers, "--", help and usage errors.
PARSE_CORPUS = [
    "check 6 10", "--jsonl check 6 10 --jobs=1", "check 6 10 --jobs 2 --jsonl",
    "--jobs 2 partner 64 --all", "--jobs=2 partner 64 --bound 100 --no-prune",
    "partner 64 --jobs=3", "--js --job 2 census --max 30", "--jo=1 census --max 30 --cache c",
    "census --max 30 --recompute --no-prune --all --js", "pow2 --k 14", "--jsonl pow2 --k=-1",
    "construct --k 96 --t 5 --jsonl --save p --budget-bits 64", "construct --load p",
    "check 6 10 --alternation", "construct --k 96 --t 5 --verify-direct",
    "s-member 148 --t 5", "s-member -148 --C 5/2", "s-count --max 100 --C 5", "s-count --max 10 --t 4",
    "gaps --x 30 --y 3 --z 5", "primorial --k 6 --consensus --table", "check -6 10",
    "check -- -6 10", "--jobs -1 check 6 10", "--jobs 2 -- check 6 10", "partner -- 64",
    "census -h", "pow2 --help", "check 6", "check 6 10 --foo", "check 6 10 --j", "--jobs x check 6 10",
    "--jobs=x check 6 10", "census", "pow2 --k", "pow2 --k x", "census --max 5 --cache",
    "--jobs", "--js", "--help", "-h check 6 10", "--version", "--version check 6 10", "bogus",
    "--jsonl=1 check 6 10", "check 6 10 --version", "",
]


def parse_outcome(parser, argv, capsys):
    """vars(args) of a parse, or (exit code, stdout, stderr) of one that exits."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as done:
        out = capsys.readouterr()
        return done.code, out.out, out.err


def test_the_one_command_parser_parses_as_the_full_parser(capsys):
    full_only = []
    for text in PARSE_CORPUS:
        argv, command = text.split(), cli._command_of(text.split())
        full = parse_outcome(cli.build_parser(), argv, capsys)
        assert parse_outcome(cli.build_parser(command), argv, capsys) == full, argv
        if command is None:
            full_only.append(text)
    assert full_only == [
        "--jobs -1 check 6 10", "--jobs 2 -- check 6 10", "--jobs", "--js", "--help",
        "-h check 6 10", "--version", "--version check 6 10", "bogus", "--jsonl=1 check 6 10", "",
    ]


def test_help_and_an_unknown_command_name_every_subcommand(capsys):
    names = "check,partner,census,pow2,construct,s-member,s-count,gaps,primorial"
    for argv, code in ((["--help"], 0), (["bogus"], 2)):
        with pytest.raises(SystemExit) as done:
            run(argv)
        out = capsys.readouterr()
        assert done.value.code == code and "{" + names + "}" in out.out + out.err
        if code == 0:  # and --help gives each its own line
            assert re.findall(r"^    (\S+) +\S", out.out, re.M) == names.split(",")


def test_census_rejects_max_below_one(capsys):
    for bound in ("0", "-3"):
        code, rec = invoke(capsys, "--jsonl", "census", "--max", bound)
        assert code == 2
        assert rec["result"] == {
            "error": "usage",
            "message": f"census: x must be >= 1, got {bound}",
        }


def test_census_refuses_max_past_the_table_cap(capsys):
    # Refused before any work: past the census table's 2^22 (days of work).
    for bound in ("4194305", "1000000000000"):
        code, rec = invoke(capsys, "--jsonl", "census", "--max", bound)
        assert code == 2
        assert rec["result"] == {
            "error": "usage",
            "message": f"census: x must be <= 4194304, got {bound}",
        }


def test_census_cache_and_determinism(tmp_path, capsys):
    cache = tmp_path / "census.jsonl"
    code, cold = invoke(
        capsys, "--jsonl", "census", "--max", "40", "--cache", str(cache), "--jobs", "1"
    )
    assert code == 0
    assert cold["result"]["computed"] == 40 and cold["result"]["from_cache"] == 0
    code, warm = invoke(
        capsys, "--jsonl", "census", "--max", "40", "--cache", str(cache), "--jobs", "1"
    )
    assert warm["result"]["from_cache"] == 40 and warm["result"]["computed"] == 0
    assert cold["result"]["rows"] == warm["result"]["rows"]
    code, par = invoke(capsys, "--jsonl", "census", "--max", "40", "--jobs", "3")
    assert par["result"]["rows"] == cold["result"]["rows"]
    assert cold["result"]["separable_count"] == par["result"]["separable_count"]
    _, pruned = invoke(capsys, "--jsonl", "census", "--max", "500")
    _, unpruned = invoke(capsys, "--jsonl", "census", "--max", "500", "--no-prune")
    pruned, unpruned = ([(r["n"], r["separable"], r["degenerate"], r["partners"])
                         for r in rec["result"]["rows"]] for rec in (pruned, unpruned))
    assert len(pruned) == 500 and pruned == unpruned


def test_census_cache_is_not_served_across_configs(tmp_path, capsys):
    cache = str(tmp_path / "census.jsonl")
    base = ("--jsonl", "--jobs", "1", "census", "--max", "5", "--cache", cache)
    _, every = invoke(capsys, *base, "--all")
    assert every["result"]["rows"][2]["partners"] == [2, 3, 4, 5, 7]
    _, first = invoke(capsys, *base)
    assert first["result"]["from_cache"] == 0 and first["result"]["computed"] == 5
    assert first["result"]["rows"][2]["partners"] == [2]
    # the file now holds the default config's rows, and serves them
    _, again = invoke(capsys, *base)
    assert again["result"]["from_cache"] == 5
    assert again["result"]["rows"] == first["result"]["rows"]
    # --recompute replaces the file in place and leaves it servable
    invoke(capsys, *base, "--recompute")
    _, after = invoke(capsys, *base)
    assert after["result"]["from_cache"] == 5
    assert after["result"]["rows"] == first["result"]["rows"]
    assert [p.name for p in tmp_path.iterdir()] == ["census.jsonl"]


def test_census_cache_without_header_is_recomputed(tmp_path, capsys):
    # A file in the headerless format of older code, with a wrong row.
    cache = tmp_path / "census.jsonl"
    row = {"n": 3, "separable": True, "degenerate": True, "partners": [99],
           "bound": 9, "tested": 1}
    cache.write_text(json.dumps(row) + "\n")
    _, rec = invoke(capsys, "--jsonl", "--jobs", "1", "census", "--max", "5",
                    "--cache", str(cache))
    assert rec["result"]["from_cache"] == 0 and rec["result"]["computed"] == 5
    assert rec["result"]["rows"][2]["partners"] == [2]
    header = json.loads(cache.read_text().splitlines()[0])
    assert header["config"]["report_all_partners"] is False
    assert len(cache.read_text().splitlines()) == 6


def test_census_from_cache_counts_rows_served(tmp_path, capsys):
    cache = str(tmp_path / "census.jsonl")
    base = ("--jsonl", "--jobs", "1", "census", "--cache", cache)
    invoke(capsys, *base, "--max", "40")
    _, rec = invoke(capsys, *base, "--max", "20")
    assert rec["result"]["from_cache"] == 20 and rec["result"]["computed"] == 0
    assert [row["n"] for row in rec["result"]["rows"]] == list(range(1, 21))


def test_census_reads_and_rechecks_the_cache_once(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path / "census.jsonl")
    base = ("--jsonl", "--jobs", "1", "census", "--cache", cache)
    _, first = invoke(capsys, *base, "--max", "20")
    partners = {(p, row["n"]) for row in first["result"]["rows"] for p in row["partners"]}
    assert len(partners) == 15
    loads, checks = [], []
    load, check = cli.load_census_cache, separability.check_interlock_divisors

    def counted_load(*args, **kwargs):
        loads.append(args)
        return load(*args, **kwargs)

    def counted_check(div_m, div_n):
        checks.append((div_m[-1], div_n[-1]))
        return check(div_m, div_n)

    monkeypatch.setattr(cli, "load_census_cache", counted_load)
    monkeypatch.setattr(separability, "load_census_cache", counted_load)
    monkeypatch.setattr(separability, "check_interlock_divisors", counted_check)
    _, rec = invoke(capsys, *base, "--max", "40")
    assert rec["result"]["from_cache"] == 20 and rec["result"]["computed"] == 20
    assert len(loads) == 1
    # the cache re-checks its own partners once; the scans of n = 21..40
    # check only pairs with those n
    assert sorted(c for c in checks if c[1] <= 20) == sorted(partners)
    assert any(n > 20 for _, n in checks)
    _, uncached = invoke(capsys, "--jsonl", "--jobs", "1", "census", "--max", "40")
    assert rec["result"]["rows"] == uncached["result"]["rows"]


def test_census_recompute_keeps_the_rows_above_its_max(tmp_path, capsys):
    cache = str(tmp_path / "census.jsonl")
    base = ("--jsonl", "--jobs", "1", "census", "--cache", cache)
    _, full = invoke(capsys, *base, "--max", "40")
    _, redone = invoke(capsys, *base, "--max", "20", "--recompute")
    assert redone["result"]["from_cache"] == 0 and redone["result"]["computed"] == 20
    _, rec = invoke(capsys, *base, "--max", "40")
    assert rec["result"]["from_cache"] == 40 and rec["result"]["computed"] == 0
    assert rec["result"]["rows"] == full["result"]["rows"]


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: text[: text.rindex("}")],  # the last row cut short
        lambda text: text.replace(', "tested": 0', "", 1),  # a row lacks a field
        lambda text: text + text.splitlines()[1].replace('"n": 1', '"n": 0') + "\n",
        # (2^61 - 1)(2^89 - 1): refused before Pollard rho works on it
        lambda text: text + text.splitlines()[1].replace(
            '"n": 1', f'"n": {((1 << 61) - 1) * ((1 << 89) - 1)}') + "\n",
        lambda text: text.replace('[3], "separable": true', '[3], "separable": false'),
        lambda text: text.replace('"degenerate": true, "n": 3', '"degenerate": false, "n": 3'),
        lambda text: text.replace('"bound": 16,', '"bound": 17,'),  # n = 4's window is [3, 16]
        # the header written while the config held the window-top override
        lambda text: text.replace('"config": {', '"config": {"bound_override": null, ', 1),
    ],
    ids=["truncated-row", "missing-field", "n-below-one", "n-past-the-cap",
         "separable-despite-a-partner", "prime-not-degenerate", "bound-off-the-window",
         "old-header"],
)
def test_damaged_census_cache_is_recomputed(tmp_path, capsys, damage):
    cache = tmp_path / "census.jsonl"
    base = ("--jsonl", "--jobs", "1", "census", "--max", "8", "--cache", str(cache))
    _, good = invoke(capsys, *base)
    for extra in ((), ("--recompute",)):
        text = cache.read_text()
        cache.write_text(damage(text))
        assert cache.read_text() != text
        code, rec = invoke(capsys, *base, *extra)
        assert code == 0, extra
        assert rec["result"]["from_cache"] == 0 and rec["result"]["computed"] == 8
        assert rec["result"]["rows"] == good["result"]["rows"]
        # the one writer replaced the damaged file with a servable one
        _, again = invoke(capsys, *base)
        assert again["result"]["from_cache"] == 8, extra
        assert again["result"]["rows"] == good["result"]["rows"]


@pytest.mark.parametrize(
    "n, partners",
    [(10, [7777]), (10, [7]), (3, [101])],
    ids=["outside-the-window", "not-interlocking", "interlocking-outside-the-window"],
)
def test_census_cache_rows_with_bad_partners_are_recomputed(tmp_path, capsys, n, partners):
    # A served partner must lie in its row's window and interlock with n:
    # 10's window is [6, 50] and 7 does not interlock with 10; 101
    # interlocks with 3 (two primes, vacuously) outside 3's window [2, 9].
    # One bad row makes the whole file damaged: recomputed and rewritten.
    cache = tmp_path / "census.jsonl"
    base = ("--jsonl", "--jobs", "1", "census", "--max", "12", "--cache", str(cache))
    _, good = invoke(capsys, *base)
    header, *lines = cache.read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    for row in rows:
        if row["n"] == n:
            row["partners"] = partners
    cache.write_text("\n".join([header, *map(json.dumps, rows)]) + "\n")
    _, rec = invoke(capsys, *base)
    assert rec["result"]["from_cache"] == 0 and rec["result"]["computed"] == 12
    assert rec["result"]["rows"] == good["result"]["rows"]
    assert cache.read_text().splitlines()[0] == header
    _, again = invoke(capsys, *base)
    assert again["result"]["from_cache"] == 12
    assert again["result"]["rows"] == good["result"]["rows"]


def test_jobs_do_not_change_scan_payloads(capsys):
    # Exit codes.  --jobs 2 starts real pools for census 1200 (_MIN_POOL_CENSUS),
    # pow2 --k 21 and 43648605's window (_MIN_POOL_WINDOW).
    tau256 = "partner 43648605 --all --bound 20000000"
    commands = {f"pow2 --k {k}": 0 for k in (9, 10, 11, 12, 13, 14, 21, 40)}
    commands.update({"partner 524288 --bound 524288": 1, tau256: 1, "partner 16777217": 0,
                     "partner 67108865": 0, "census --max 40": 0, "census --max 1200": 0})
    results = {}
    for command, code in commands.items():
        serial = invoke(capsys, "--jsonl", "--jobs", "1", *command.split())
        pooled = invoke(capsys, "--jsonl", "--jobs", "2", *command.split())
        assert serial[0] == pooled[0] == code, command
        assert strip_volatile(serial[1]) == strip_volatile(pooled[1]), command
        results[command] = serial[1]["result"]
    assert results["partner 67108865"]["partners"] == [19191826]
    assert results[tau256]["partners"] == [] and results[tau256]["candidates_tested"] == 33
    assert results["pow2 --k 21"]["report"]["confirmed"] is True
    assert results["pow2 --k 40"]["result"]["partners"] == [1007730662631]


def test_census_accounting_contract(capsys):
    # Pinned funnel counts: a scan change that alters what counts as tested
    # shows here, whatever the --jobs setting.
    _, serial = invoke(capsys, "--jsonl", "--jobs", "1", "census", "--max", "200")
    _, pooled = invoke(capsys, "--jsonl", "--jobs", "2", "census", "--max", "200")
    assert strip_volatile(serial) == strip_volatile(pooled)
    result = serial["result"]
    assert sum(row["tested"] for row in result["rows"]) == 298
    assert result["separable_count"] == 149
    assert result["separable_count_nondegenerate"] == 102


def test_big_integers_cross_as_strings(capsys):
    code, rec = invoke(capsys, "--jsonl", "construct", "--k", "256", "--t", "4")
    assert code == 0
    m = rec["result"]["plan"]["m"]
    assert isinstance(m, str) and int(m) > 2**255
    # every big value in levels is a decimal string round-trippable to int
    for level in rec["result"]["plan"]["levels"]:
        assert int(level["pow2"]) and int(level["prime"])
    code, rec = invoke(capsys, "--jsonl", "construct", "--k", "1024", "--t", "10")
    assert code == 0 and rec["result"]["verification"]["verified"] is True


def test_inputs_echo(capsys):
    _, rec = invoke(capsys, "--jsonl", "gaps", "--x", "100", "--y", "2", "--z", "10")
    assert rec["inputs"] == {"x": 100, "y": 2, "z": 10}
    _, rec = invoke(capsys, "--jsonl", "check", "6", "10")
    assert rec["inputs"] == {"m": 6, "n": 10}
    _, rec = invoke(capsys, "--jsonl", "construct", "--k", "32", "--t", "5")
    assert rec["inputs"] == {"budget_bits": 1024, "k": 32, "load": None, "save": None, "t": 5}


def test_ints_are_strings_exactly_outside_a_signed_64_bit_word(capsys):
    for m, echo in ((-(1 << 63), -(1 << 63)), (-(1 << 63) - 1, str(-(1 << 63) - 1)),
                    ((1 << 63) - 1, (1 << 63) - 1), (1 << 63, str(1 << 63))):
        _, rec = invoke(capsys, "--jsonl", "check", "--", str(m), "5")
        assert rec["inputs"]["m"] == echo, m
