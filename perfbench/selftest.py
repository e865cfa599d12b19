"""Self-test of the harness at tiny sizes (pow2 --k 13, census --max 60).

    python3 perfbench/selftest.py

Checks that a timed run prints exactly the end-to-end metrics and a traced
run exactly the per-layer metrics, each with its unit; that an injected
wrong answer and a wrong exit code are counted as failures; and that the
traced spans nest inside their parents with self time >= 0.  It takes a few
seconds and is not part of the test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import answers
import make_golden
import run

TINY = {
    "tiny-pow2": run.Workload((("pow2", "--k", "13"),), True),
    "tiny-census": run.Workload((("census", "--max", "60"),), False),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_main(argv: list[str]) -> dict:
    """run.main on the tiny workloads; returns the parsed last stdout line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    expect(code == 0, f"{argv}: exit {code}")
    last = json.loads(out.getvalue().splitlines()[-1])
    expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(last)}")
    return last


def check_metrics(result: dict, units: dict, what: str) -> None:
    expect(set(result["metrics"]) == set(units), f"{what}: metric names differ from the declared ones")
    for name, unit in units.items():
        m = result["metrics"][name]
        expect(m["unit"] == unit, f"{what}: {name} has unit {m['unit']}, expected {unit}")
        expect(isinstance(m["value"], (int, float)), f"{what}: {name} is not a number")


def check_spans(path) -> None:
    for p in json.loads(path.read_text()):
        for pass_name in ("jobs1", "layers"):
            spans = (p[pass_name] or {}).get("spans", [])
            expect(spans, f"{path.name}: no spans in the {pass_name} pass")
            by_id = {s["id"]: s for s in spans}
            for s in spans:
                expect(s["self_s"] >= 0, f"{s['name']} has self time {s['self_s']}")
                parent = by_id.get(s["parent"])
                if parent is not None:
                    expect(parent["start"] <= s["start"] <= s["end"] <= parent["end"],
                           f"{s['name']} is not inside its parent {parent['name']}")


def main() -> None:
    run.WORKLOADS.clear()
    run.WORKLOADS.update(TINY)
    golden = {" ".join(c): make_golden.golden_entry(c) for w in TINY.values() for c in w.commands}
    answers.load_golden = lambda: golden

    traced_runs = {}
    for name in TINY:
        timed = run_main(["--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", "0"])
        expect(timed["correct"] and timed["failed"] == 0, f"{name}: timed run failed")
        check_metrics(timed, run.declared_units("end_to_end"), name)
        expect(all(m["value"] > 0 for m in timed["metrics"].values()), f"{name}: an end-to-end metric is 0")

        traced = run_main(["--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", "1"])
        expect(traced["correct"] and traced["failed"] == 0, f"{name}: traced run failed")
        check_metrics(traced, run.declared_units("per_layer"), name)
        check_spans(run.TRACE_OUT / f"trace-{name}.json")
        traced_runs[name] = traced["metrics"]

    pow2 = traced_runs["tiny-pow2"]
    expect(pow2["separability.chunk.count"]["value"] > 1, "tiny-pow2: no chunk split replayed")
    expect(pow2["separability.chunk_redundancy"]["value"] > 0, "tiny-pow2: no chunk redundancy")

    wrong_answer = json.loads(json.dumps(golden))
    wrong_answer["census --max 60"]["digest"] = "0" * 64
    answers.load_golden = lambda: wrong_answer
    bad = run_main(["--workload", "tiny-census", "--seed", "3", "--seconds", "0.5", "--trace", "0"])
    expect(not bad["correct"] and bad["failed"] == bad["attempted"], "an injected wrong answer was not counted")

    wrong_exit = json.loads(json.dumps(golden))
    wrong_exit["pow2 --k 13"]["exit"] = 1
    answers.load_golden = lambda: wrong_exit
    bad = run_main(["--workload", "tiny-pow2", "--seed", "3", "--seconds", "0.5", "--trace", "1"])
    expect(not bad["correct"] and bad["failed"] > 0, "an injected wrong exit code was not counted")
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
