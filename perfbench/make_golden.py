"""Write golden.json: the answers the benchmark's commands must reproduce.

    python3 perfbench/make_golden.py

Run it at the commit whose answers are trusted.  Each command runs through
the CLI with --jobs 2 and --jobs 1, and the two answers must agree.  Only
the exit code and a digest of each answer are stored, with a few headline
fields for readers.  A partner search also stores the window it scanned,
for the oracle spot-check.
"""

from __future__ import annotations

import json

import answers
import run


def golden_entry(command: tuple[str, ...]) -> dict:
    procs = [run.spawn(run.LAUNCH, run.cli_argv(command, jobs), run.DEADLINE_S) for jobs in (run.JOBS, 1)]
    records = [json.loads(p.stdout.strip().splitlines()[-1]) for p in procs]
    got = [answers.answer(r) for r in records]
    if got[0] != got[1] or procs[0].exit != procs[1].exit:
        raise SystemExit(f"{' '.join(command)}: --jobs {run.JOBS} and --jobs 1 disagree")
    result = got[0]
    entry = {
        "exit": procs[0].exit,
        "digest": answers.digest(result),
        "summary": {k: v for k, v in result.items() if isinstance(v, (bool, int, float))},
    }
    if command[0] == "partner":
        entry["window"] = [2, records[0]["result"]["search_bound"]]
    if result.get("mode") == "exhaustive-verification":
        report = records[0]["result"]["report"]
        entry["summary"].update(confirmed=report["confirmed"], tau_survivors=report["tau_filtered"])
    return entry


def main() -> None:
    golden = {}
    for workload in run.WORKLOADS.values():
        for command in workload.commands:
            golden[" ".join(command)] = golden_entry(command)
            print(" ".join(command), golden[" ".join(command)]["summary"], flush=True)
    answers.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
