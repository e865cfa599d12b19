"""The result records: the payloads they feed, the census cache header, and
the behaviour callers rely on (immutability, repr, pickling, validation)."""

import json
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from interlock import cli
from interlock.cli import run
from interlock.construction import (
    ClaimDiagnostics,
    ConstructionPlan,
    ConstructionReport,
    JumpCheck,
    JumpParams,
    PlanLevel,
    build_pow2_partner,
    has_bounded_jumps,
    verify_construction,
)
from interlock.pairs import GapWitness, InterlockReport, check_interlock
from interlock.primorials import (
    ChainContradiction,
    ForcedStep,
    ParityCertificate,
    PlacementReport,
    PrimorialSplit,
    placement_consensus,
)
from interlock.separability import (
    ChunkScan,
    Pow2Report,
    SearchConfig,
    SeparabilityResult,
    _cache_header,
    census_batch,
    find_partner,
    scan_range,
    verify_pow2_nonseparable,
)

PINNED_RESULTS = {
    ("check", "6", "10"): {
        "degenerate": False, "first": 6, "method": "definitional", "second": 10,
        "trace": None, "verdict": False,
        "witness": {"kind": "gap", "lower": 2, "side": "first", "upper": 3},
    },
    ("check", "10", "21"): {
        "degenerate": False, "first": 10, "method": "definitional", "second": 21,
        "trace": [2, 3, 5, 7, 10, 21], "verdict": True, "witness": None,
    },
    ("pow2", "--k", "9"): {
        "mode": "exhaustive-verification",
        "report": {
            "confirmed": True, "hi": 2047, "k": 9, "lo": 257, "n": 512,
            "odd_candidates": 896, "partners": [], "tau_filtered": 8,
            "window_size": 1791,
        },
    },
    ("partner", "1010"): {
        "candidates_tested": 40, "degenerate": False, "n": 1010,
        "partners": [2163], "search_bound": 5050, "separable": True,
    },
    ("primorial", "--k", "9", "--consensus"): {
        "consensus": {
            "consensus": None,
            "contradiction": {
                "lower": 23,
                "reason": "23 and 26 both divide m with nothing of either member "
                "possible strictly between them",
                "side": "m",
                "upper": 26,
            },
            "forced_chain": [
                {"prime": 2, "reason": "canonical orientation", "side": "m"},
                {"prime": 3, "reason": "on m: gap (2, 3)", "side": "n"},
                {"prime": 5, "reason": "on n: gap (3, 5)", "side": "m"},
                {"prime": 7, "reason": "on m: gap (5, 7)", "side": "n"},
                {"prime": 11, "reason": "on m: gap (10, 11)", "side": "n"},
                {"prime": 13, "reason": "on n: gap (11, 13)", "side": "m"},
                {"prime": 17, "reason": "on m: gap (13, 17)", "side": "n"},
                {"prime": 19, "reason": "on n: gap (17, 19)", "side": "m"},
                {"prime": 23, "reason": "both sides contradictory", "side": "m"},
            ],
            "k": 9,
            "parity_certificate": {"k": 9, "min_tau_gap": 16, "required_max": 1},
            "splits_scanned": 256,
            "survivors": [],
        },
        "count": 0,
        "k": 9,
        "splits": [],
    },
}

CACHE_HEADER = (
    '{"config": {"bound_override": null, "prune": true, "report_all_partners": false}, '
    '"format": "interlock-census/1"}'
)

RECORDS = [
    GapWitness("gap", "first", 2, 3),
    check_interlock(6, 10),
    check_interlock(63, 64),
    SearchConfig(bound_override=10, report_all_partners=True),
    find_partner(1010),
    verify_pow2_nonseparable(9),
    placement_consensus(8),
    placement_consensus(9),
    *placement_consensus(8).survivors,
    ForcedStep(2, "m", "canonical orientation"),
    ChainContradiction("m", 23, 26, "no divisor between"),
    ParityCertificate(9, 16, 1),
    scan_range(1010, 2000, 2200, SearchConfig()),
    JumpParams.from_t(5),
    JumpParams.from_override("7/3"),
    has_bounded_jumps(514, JumpParams.from_t(5)),
    build_pow2_partner(32, 5),
    build_pow2_partner(32, 5).levels[0],
    verify_construction(build_pow2_partner(32, 5)),
    verify_construction(build_pow2_partner(32, 5)).claims,
]


@pytest.mark.parametrize("argv", list(PINNED_RESULTS), ids=" ".join)
def test_payloads_fed_by_the_records_are_pinned(capsys, argv):
    run(["--jsonl", *argv])
    assert json.loads(capsys.readouterr().out)["result"] == PINNED_RESULTS[argv]


def test_cache_header_is_pinned():
    assert _cache_header(SearchConfig()) == CACHE_HEADER


def test_a_cache_file_under_the_pinned_header_is_served(tmp_path, capsys):
    rows = [
        {"bound": 1, "degenerate": True, "n": 1, "partners": [], "separable": True, "tested": 0},
        {"bound": 4, "degenerate": True, "n": 2, "partners": [2], "separable": True, "tested": 1},
        {"bound": 9, "degenerate": True, "n": 3, "partners": [2], "separable": True, "tested": 1},
        {"bound": 16, "degenerate": False, "n": 4, "partners": [3], "separable": True, "tested": 1},
    ]
    cache = tmp_path / "census.jsonl"
    cache.write_text("\n".join([CACHE_HEADER, *map(json.dumps, rows)]) + "\n")
    run(["--jsonl", "--jobs", "1", "census", "--max", "4", "--cache", str(cache)])
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["from_cache"] == len(rows) and result["computed"] == 0
    assert result["rows"] == rows


def test_record_types_cover_every_record():
    kinds = {type(r) for r in RECORDS}
    assert kinds == {
        GapWitness, InterlockReport, SearchConfig, SeparabilityResult,
        Pow2Report, PlacementReport, PrimorialSplit, ForcedStep, ChainContradiction,
        ParityCertificate, ChunkScan, JumpParams, JumpCheck, ConstructionPlan, PlanLevel,
        ConstructionReport, ClaimDiagnostics,
    }


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_survive_pickling(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.no_such_field = 0


def test_search_config_validates_and_keeps_its_repr():
    for args, kwargs in (((), {"bound_override": 1}), ((1,), {})):
        with pytest.raises(ValueError, match="bound_override must be >= 2"):
            SearchConfig(*args, **kwargs)
    assert repr(SearchConfig()) == (
        "SearchConfig(bound_override=None, prune=True, report_all_partners=False)"
    )
    assert SearchConfig(2).bound_override == 2
    assert hash(SearchConfig()) == hash(SearchConfig(None, True, False))
    assert repr(GapWitness("gap", "second", 3, 5)) == (
        "GapWitness(kind='gap', side='second', lower=3, upper=5)"
    )


def test_census_batches_over_a_real_pool_match_serial(monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", ProcessPoolExecutor)
    cfg = SearchConfig()
    ns = list(range(1, 41))
    tasks = [(ns[i::2], cfg) for i in range(2)]
    pooled = cli._pool_map(census_batch, tasks, 2)
    assert pooled == [census_batch(*task) for task in tasks]
    rows = sorted((r for batch in pooled for r in batch), key=lambda r: r.n)
    assert rows == census_batch(ns, cfg)
    assert all(type(r) is SeparabilityResult for r in rows)
