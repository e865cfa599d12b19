"""Answer checks: golden answers from the seed commit and oracle spot-checks.

An answer is the CLI record's ``result`` with the accounting fields removed:
they count work rather than state a result, and changes that make the
search cheaper may legitimately change them.  Everything else, and the exit
code, must match the golden answer stored in golden.json.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"
ORACLES_PATH = ROOT / "tests" / "oracles.py"

ACCOUNTING_FIELDS = frozenset(
    {
        "timing_ms",
        "stats",
        "candidates_tested",
        "search_bound",
        "tau_filtered",
        "fully_checked",
        "bound",
        "tested",
        "from_cache",
        "computed",
    }
)

# Oracle sample sizes per run.
CENSUS_PARTNERS = 25
WINDOW_CANDIDATES = 40


def answer(record: dict):
    """The record's result without its accounting fields."""

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in ACCOUNTING_FIELDS}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return strip(record["result"])


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text())


def load_oracles():
    """tests/oracles.py as a module, read from source (nothing is written)."""
    namespace: dict = {"__name__": "oracles"}
    exec(compile(ORACLES_PATH.read_text(), str(ORACLES_PATH), "exec"), namespace)
    return SimpleNamespace(**{k: v for k, v in namespace.items() if not k.startswith("__")})


def spot_check(command: list[str], result, golden: dict, seed: int, oracles) -> tuple[int, list[str]]:
    """Re-verify a seed-chosen sample of the answer with the naive oracles.

    Returns (checks made, problems found).  Census: sampled partners must
    interlock with their n.  pow2 verification, and a partner search that
    found no partner: sampled candidates of the scanned window must not
    interlock with n.  The caller checks only answers that already equal
    the golden one, so this cross-checks the golden answer with code
    independent of the package, on another sample for each seed.
    """
    rng = random.Random(f"{seed}:{' '.join(command)}")
    problems: list[str] = []
    checks = 0
    if command[0] == "census":
        rows = [r for r in result["rows"] if r["partners"]]
        for row in rng.sample(rows, min(CENSUS_PARTNERS, len(rows))):
            checks += 1
            for p in row["partners"]:
                if not oracles.oracle_interlock(p, row["n"]):
                    problems.append(f"census: {p} does not interlock with {row['n']}")
    elif command[0] == "pow2" and result.get("mode") == "exhaustive-verification":
        report = result["report"]
        checks += _no_partner_in(report["n"], report["lo"], report["hi"], rng, oracles, problems)
    elif command[0] == "partner" and not result["partners"]:
        lo, hi = golden["window"]
        checks += _no_partner_in(result["n"], lo, hi, rng, oracles, problems)
    return checks, problems


def _no_partner_in(n: int, lo: int, hi: int, rng, oracles, problems: list[str]) -> int:
    for _ in range(WINDOW_CANDIDATES):
        m = rng.randint(lo, hi)
        if oracles.oracle_interlock(m, n):
            problems.append(f"{m} interlocks with {n}, but no partner was reported")
    return WINDOW_CANDIDATES
