"""The package surface: one import path per name, what a CLI import loads,
and the code references of the README and of the package's own docstrings
and comments."""

import ast
import gc
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import tokenize
from importlib import import_module
from pathlib import Path

import interlock
from interlock.cli import _COMMANDS, run

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


# Each module imports only from the layers below its own; the package
# itself, which holds only __version__, imports nothing.
LAYERS = [["__init__", "arith"], ["pairs", "precision"],
          ["separability", "primorials", "construction"], ["cli"], ["__main__"]]


def imported_modules(path: Path) -> set[str]:
    """The package modules a source file imports, at its top or in a function
    (from . import __version__ imports none)."""
    modules = {m.name for m in pkgutil.iter_modules(interlock.__path__)}
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("interlock") for a in node.names), path.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level or not (node.module or "").startswith("interlock"), path.name
            if node.level and node.module:
                found.add(node.module)
            elif node.level:
                found |= {a.name for a in node.names} & modules
    return found


def test_modules_import_only_from_the_layers_below():
    layer = {name: depth for depth, names in enumerate(LAYERS) for name in names}
    paths = sorted(Path(interlock.__path__[0]).glob("*.py"))
    assert {p.stem for p in paths} == set(layer)
    for path in paths:
        for module in imported_modules(path):
            assert layer[module] < layer[path.stem], f"{path.stem} imports {module}"
    out = fresh_python("import sys, interlock.construction; "
                       "print('interlock.separability' in sys.modules)")
    assert out.split() == ["False"]


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
    # a huge power of two is refused by the cold installed script within 10 s, exit 2
    huge = "timeout 10 interlock --jsonl pow2 --k 300000 || code=$?; test $code -eq 2"
    # a huge t is answered (exit 0) within 10 s: 2^(t-2) is never built
    huge_t = "timeout 10 interlock --jsonl s-member 5 --t 10000000"
    selftest = "python3 perfbench/selftest.py"
    clean = 'test -z "$(git status --porcelain)"'  # the runs leave the checkout as it was
    where = {}
    for command in (tier1, selftest, clean, *installed, huge, huge_t):
        where[command] = next((i for i, l in enumerate(lines)
                               if re.search(rf"(?<!-m ){re.escape(command)}", l)), None)
        assert where[command] is not None, command
    assert where[clean] > where[selftest]
    step = next(i for i, l in enumerate(lines) if "name: Installed CLI from a cold process" in l)
    next_step = next(i for i, l in enumerate(lines) if i > step and "- name:" in l)
    assert step < where[huge] < next_step and step < where[huge_t] < next_step
    assert lines[where[huge_t]].strip() == huge_t  # its exit code fails the step
    # every minor version that requires-python admits, through the newest
    matrix = next(re.findall(r'"(3\.\d+)"', l) for l in lines if "python-version: [" in l)
    assert matrix == ["3.10", "3.11", "3.12", "3.13"]
    assert 'requires-python = ">=3.10"' in (workflow.parents[2] / "pyproject.toml").read_text()


def test_the_package_holds_only_its_version():
    # Each name is imported from its own module; the package itself loads none.
    out = fresh_python(
        "import sys, interlock\n"
        "print([m for m in sys.modules if m.startswith('interlock.')], interlock.__version__)\n"
        "try:\n    from interlock import find_partner\nexcept ImportError:\n    print('ImportError')"
    )
    assert out.split() == ["[]", "0.1.0", "ImportError"]


def test_readme_code_references_resolve():
    # `m.name` or `interlock.m.name` for a package module m; `m.py` is a file.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    modules = "|".join(m.name for m in pkgutil.iter_modules(interlock.__path__))
    refs = re.findall(rf"`(?:interlock\.)?({modules})\.(?!py`)(\w+)", readme)
    assert ("cli", "run") in refs and ("pairs", "check_interlock_divisors") in refs
    for module, name in refs:
        assert hasattr(import_module(f"interlock.{module}"), name), f"{module}.{name}"


def test_source_docstring_and_comment_references_resolve():
    # `m.name`, `m.name.attr` or `interlock.m.name` for a package module m, in
    # a docstring or a comment under src/interlock; `m.py` is a file.
    modules = "|".join(m.name for m in pkgutil.iter_modules(interlock.__path__))
    reference = re.compile(rf"(?<![\w.])(?:interlock\.)?({modules})((?:\.(?!py\b)\w+)+)")
    refs = []
    for path in sorted(Path(interlock.__path__[0]).glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = io.StringIO(source).readline
        texts = [t.string for t in tokenize.generate_tokens(lines) if t.type == tokenize.COMMENT]
        documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        nodes = (node for node in ast.walk(ast.parse(source)) if isinstance(node, documented))
        texts += [ast.get_docstring(node, clean=False) or "" for node in nodes]
        refs += [(module, chain[1:]) for text in texts for module, chain in reference.findall(text)]
    assert ("arith", "FactorTable") in refs and ("pairs", "check_interlock_divisors") in refs
    for module, chain in refs:
        owner = import_module(f"interlock.{module}")
        for name in chain.split("."):
            assert hasattr(owner, name), f"{module}.{chain}"
            owner = getattr(owner, name)


def test_readme_command_table_names_every_subcommand_and_flag():
    # A row's first cell names its subcommands, as `name ...`; the row names
    # every --flag the subcommand declares.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [line for line in readme.splitlines() if line.startswith("| `")]
    for name, (_, arguments) in _COMMANDS.items():
        row = [r for r in rows if re.search(rf"`{re.escape(name)}[ `]", r.split(" | ")[0])]
        assert len(row) == 1, name
        for flags, _ in arguments:
            for flag in (f for f in flags if f.startswith("--")):
                assert re.search(rf"{re.escape(flag)}(?![\w-])", row[0]), (name, flag)


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
