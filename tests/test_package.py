"""The package surface: lazy re-exports, and what a CLI import loads."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import interlock

EXPORTS = {
    "arith": [
        "divisors", "divisors_from_factorization", "factorize", "first_primes",
        "is_prime", "next_prime", "primorial", "smallest_prime_divisor", "tau",
    ],
    "construction": [
        "ClaimDiagnostics", "ConstructionPlan", "ConstructionReport", "CoverageReport",
        "JumpParams", "MixedRadixDigits", "SearchBudgetError", "build_pow2_partner",
        "count_bounded_jumps", "gap_census", "gap_ratio", "has_bounded_jumps",
        "interval_coverage_diagnostic", "mixed_radix_compose", "mixed_radix_decompose",
        "plan_from_dict", "plan_to_dict", "verify_construction",
    ],
    "pairs": [
        "GapWitness", "InterlockReport", "TauRelation", "check_alternation",
        "check_interlock", "tau_relation",
    ],
    "precision": ["PrecisionError", "precision_bits"],
    "primorials": [
        "PlacementReport", "PrimorialSplit", "enumerate_primorial_pairs",
        "placement_consensus",
    ],
    "separability": [
        "Pow2Report", "SearchConfig", "SeparabilityResult", "census",
        "count_separable", "find_partner", "partner_search_bound",
        "verify_pow2_nonseparable",
    ],
}

# Loaded only by the commands that use them.
UNUSED_BY_IMPORT = [
    "mpmath",
    "interlock.construction",
    "interlock.primorials",
    "interlock.precision",
    "concurrent.futures.process",
    "dataclasses",
    "decimal",
    "fractions",
]


def fresh_python(code: str) -> str:
    src = str(Path(interlock.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def test_cli_import_leaves_unused_modules_out():
    loaded = json.loads(
        fresh_python(
            "import json, sys, interlock.cli; "
            f"print(json.dumps([m for m in {UNUSED_BY_IMPORT!r} if m in sys.modules]))"
        )
    )
    assert loaded == []


def test_primorials_import_leaves_dataclasses_out():
    out = fresh_python("import sys, interlock.primorials; print('dataclasses' in sys.modules)")
    assert out.split() == ["False"]


def test_every_export_resolves_to_its_submodule():
    names = [name for module_names in EXPORTS.values() for name in module_names]
    assert sorted(interlock.__all__) == sorted(names)
    for module, module_names in EXPORTS.items():
        submodule = import_module(f"interlock.{module}")
        for name in module_names:
            assert getattr(interlock, name) is getattr(submodule, name), name
            assert name in dir(interlock), name
    assert interlock.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        interlock.no_such_name


def test_from_import_in_a_fresh_process():
    out = fresh_python(
        "from interlock import census, placement_consensus, PrecisionError; "
        "print(census.__module__, placement_consensus.__module__, PrecisionError.__module__)"
    )
    assert out.split() == ["interlock.separability", "interlock.primorials", "interlock.precision"]
