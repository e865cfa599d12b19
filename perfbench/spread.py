"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 perfbench/spread.py

Runs run.py for seeds 1 to 10 on every workload of BENCHMARK.json, cycling
through the workloads for each seed in turn (round-robin, so slow drift of
the host spreads over all workloads instead of landing on one).  For each
metric and workload it prints the median and the spread: the distance
between the first and third quartile of the runs as a share of their
median, which is what each metric's bound is compared with.  The raw
results go to .perfbench/spread.json.  Run it again for a second set.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.splitlines()
            result = json.loads(out[-1])
            report = json.loads(out[-2])["report"]
            runs[w].append({"seed": seed, "result": result, "environment": report["environment"]})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"seed {seed} {w}: correct={result['correct']} {values}", flush=True)

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / "spread.json").write_text(json.dumps(runs))
    worst = 0.0
    for w in workloads:
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs[w]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            share = spread / metric["bound"]
            worst = max(worst, share)
            print(f"{w:14s} {metric['name']:12s} median {med:10.4f}  spread {spread:.4f}"
                  f"  bound {metric['bound']}  ({share:.2f} of bound)")
    print(f"largest spread: {worst:.2f} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
