"""The package surface: lazy re-exports, and what a CLI import loads."""

import gc
import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import interlock
from interlock.cli import run

EXPORTS = {
    "arith": [
        "divisors", "divisors_from_factorization", "factorize", "first_primes",
        "is_prime", "next_prime", "primorial", "smallest_prime_divisor", "tau",
    ],
    "construction": [
        "ClaimDiagnostics", "ConstructionPlan", "ConstructionReport", "JumpParams",
        "SearchBudgetError", "build_pow2_partner", "count_bounded_jumps", "gap_census",
        "gap_ratio", "has_bounded_jumps", "plan_from_dict", "plan_to_dict",
        "verify_construction",
    ],
    "pairs": ["GapWitness", "InterlockReport", "check_interlock"],
    "precision": ["PrecisionError"],
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


def fresh_process(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """python args, in a fresh interpreter that imports this checkout's package."""
    src = str(Path(interlock.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=check,
    )


def fresh_python(code: str, *flags: str) -> str:
    return fresh_process(*flags, "-c", code).stdout


def test_cli_import_leaves_unused_modules_out():
    loaded = json.loads(
        fresh_python(
            "import json, sys, interlock.cli; "
            f"print(json.dumps([m for m in {UNUSED_BY_IMPORT!r} if m in sys.modules]))"
        )
    )
    assert loaded == []


def test_primorials_import_leaves_dataclasses_out():
    out = fresh_python("import sys, interlock.cli, interlock.primorials; "
                       "print(sorted({'dataclasses', 'decimal', 'fractions'} & set(sys.modules)))")
    assert out.split() == ["[]"]


def test_construction_import_leaves_mpmath_and_dataclasses_out():
    out = fresh_python(
        "import sys, interlock.construction; "
        "print('mpmath' in sys.modules, 'dataclasses' in sys.modules)"
    )
    assert out.split() == ["False", "False"]


def test_cli_import_without_site_leaves_pathlib_out():
    # Without site (python -S) nothing else loads pathlib first, and the
    # package never imports it.
    out = fresh_python("import sys, interlock.cli; print('pathlib' in sys.modules)", "-S")
    assert out.split() == ["False"]


def test_construction_import_without_site_leaves_typing_out():
    # Without site nothing else loads typing first; construction and the
    # precision module it compares with leave it out (about 2 ms).
    out = fresh_python("import sys, interlock.construction; "
                       "print('interlock.precision' in sys.modules, 'typing' in sys.modules)", "-S")
    assert out.split() == ["True", "False"]


def test_commands_run_with_mpmath_unimportable(tmp_path):
    # Every real comparison is decided by precision's integer enclosures.
    plan = tmp_path / "plan.json"
    out = fresh_python(
        "import sys; sys.modules['mpmath'] = None\n"
        "from interlock.cli import run\n"
        f"codes = [run(['--jsonl', *c.split()]) for c in ("
        f"'construct --k 96 --t 5 --save {plan}', 'construct --load {plan}', "
        "'s-count --max 20000 --C 5', 's-count --max 1000 --t 4', 's-member 148 --C 5', "
        "'s-member 149 --C 5', 's-member 5 --C 2000', 'gaps --x 30 --y 3 --z 5')]\n"
        "print(*codes, sys.modules['mpmath'] is None)"
    )
    # exit codes, then mpmath still None
    assert out.splitlines()[-1].split() == "0 0 0 0 0 1 0 0 True".split()
    assert '"verified": true' in out and '"count": 12' in out


def test_the_workflow_runs_tier1_the_selftest_and_the_installed_script():
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"
    lines = [l for l in workflow.read_text().splitlines() if not l.lstrip().startswith("#")]
    tier1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"
    installed = ("interlock --version", "interlock --jsonl check 6 10")  # not python -m interlock
    for command in (tier1, "python3 perfbench/selftest.py", *installed):
        assert any(re.search(rf"(?<!-m ){re.escape(command)}", l) for l in lines), command


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


def without_timing(text: str) -> str:
    return re.sub(r'"timing_ms": [-+.e0-9]+', '"timing_ms": 0', text)


def test_main_in_a_fresh_process_matches_run_in_process(tmp_path, capsys):
    # python -m interlock goes through main, which freezes the heap before
    # it exits; run, called in process, leaves the heap collectable.
    plan = str(tmp_path / "plan.json")
    cases = [
        (["pow2", "--k", "13"], 0),
        (["check", "6", "10"], 1),
        (["construct", "--k", "2000192", "--t", "6"], 2),  # the record on stderr
        (["construct", "--k", "96", "--t", "5", "--save", plan], 0),
        (["construct", "--load", plan], 0),
    ]
    results = []
    for argv, code in cases:
        argv = ["--jsonl", *argv]
        cold = fresh_process("-m", "interlock", *argv, check=False)
        cold_plan = Path(plan).read_bytes() if "--save" in argv else None
        assert run(argv) == cold.returncode == code, argv
        warm = capsys.readouterr()
        assert gc.get_freeze_count() == 0
        assert without_timing(warm.out) == without_timing(cold.stdout), argv
        assert without_timing(warm.err) == without_timing(cold.stderr), argv
        assert (bool(cold.stdout), bool(cold.stderr)) == (code != 2, code == 2), argv
        if cold_plan is not None:
            assert Path(plan).read_bytes() == cold_plan
        results.append(json.loads(cold.stdout or cold.stderr)["result"])
    assert results[-1] == results[-2] and results[-1]["verification"]["verified"] is True
    out = fresh_python(
        "import gc, sys; from interlock.cli import main\n"
        "sys.argv[1:] = ['--jsonl', 'check', '63', '64']\n"
        "try:\n    main()\nexcept SystemExit as done:\n"
        "    print(done.code, gc.get_freeze_count() > 0)"
    )
    assert out.splitlines()[-1] == "0 True"
