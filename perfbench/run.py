"""Benchmark harness for the interlock CLI.

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

--trace 0 (timed): starts the real CLI (``python -m interlock --jsonl
--jobs 2 ...``, through launch.py) one process at a time: once untimed as
a warm-up, then over and over until --seconds have passed, timing each
process tree.  Each metric reports the run's median.  Wall time is spawn
to exit; CPU time and peak RSS come from os.wait4 on that child, so they
cover the pool workers it reaped and nothing else.  Every answer is
checked against golden.json, and a seed-chosen sample is re-verified with
the naive oracles in tests/oracles.py.

--trace 1 (traced): runs each command in-process through tracer.py instead
and reports the per-layer metrics (see README.md for which pass feeds them).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the full report
(quartiles, sample counts, failures, environment).  The seed only chooses
the oracle sample; the workload inputs are fixed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import answers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
TRACER = HERE / "tracer.py"
TRACE_OUT = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

JOBS = 2  # the host has 2 cores; no workload asks for more workers
DEADLINE_S = 170.0  # a run must end within 180 s, whatever the host does
SETUP_MARKER = "perfbench-imported "  # launch.py's first stderr line


@dataclass(frozen=True)
class Workload:
    commands: tuple[tuple[str, ...], ...]
    # The CLI splits this command's scan window into chunks under --jobs 2;
    # the traced pass replays that split serially.
    chunked: bool


# Why each workload is there, and its metrics and their units, are in
# BENCHMARK.json.
WORKLOADS = {
    "pow2-verify": Workload((("pow2", "--k", "14"),), True),
    "partner-pow2": Workload((("partner", "524288", "--bound", "524288"),), True),
    "census": Workload((("census", "--max", "500"),), False),
    "toolkit": Workload(
        (
            ("construct", "--k", "1024", "--t", "10"),
            ("primorial", "--k", "12", "--consensus"),
            ("s-count", "--max", "20000", "--C", "5"),
        ),
        False,
    ),
}


def declared_units(section: str) -> dict:
    """Metric name -> unit, for BENCHMARK.json's end_to_end or per_layer list."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def cli_argv(command, jobs: int) -> list[str]:
    return ["--jsonl", "--jobs", str(jobs), *command]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Proc:
    exit: int | None
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(script: Path, args: list[str], timeout: float) -> Proc:
    """Run one child to completion.  If it outlives timeout, kill it and
    every process it started (its pool workers share its process group)."""
    start = monotonic()
    p = subprocess.Popen(
        [sys.executable, str(script), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    killer = threading.Timer(max(timeout, 1.0), _kill_group, (p.pid,))
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
    reader.start()
    out = p.stdout.read()
    reader.join()
    _, status, usage = os.wait4(p.pid, 0)
    end = monotonic()
    killer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    stderr = err[0].decode(errors="replace")
    setup = None
    first, _, rest = stderr.partition("\n")
    if first.startswith(SETUP_MARKER):
        setup = float(first[len(SETUP_MARKER):]) - start
        stderr = rest
    return Proc(
        exit=None if p.returncode < 0 else p.returncode,
        stdout=out.decode(errors="replace"),
        stderr=stderr,
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=setup,
    )


def check_answer(command, exit_code, stdout: str, golden: dict) -> tuple[object, str | None]:
    """(answer, problem): problem is None when the exit code and answer match."""
    key = " ".join(command)
    want = golden.get(key)
    if want is None:
        return None, f"{key}: no golden answer"
    try:
        record = json.loads(stdout.strip().splitlines()[-1])
        got = answers.answer(record)
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        return None, f"{key}: unparsable record ({exc})"
    if exit_code != want["exit"]:
        return got, f"{key}: exit {exit_code}, expected {want['exit']}"
    if answers.digest(got) != want["digest"]:
        return got, f"{key}: answer differs from the golden answer"
    return got, None


def quartiles(values: list[float]) -> dict:
    q1 = med = q3 = values[0]
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "min": min(values), "max": max(values)}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: tells host drift from a regression."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def host_state(stage: str) -> dict:
    return {f"calibration_{stage}_s": calibrate(), f"loadavg_{stage}": list(os.getloadavg())}


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "interlock").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "jobs": JOBS,
        "python": platform.python_version(),
        "mpmath": version("mpmath"),
        "numpy": version("numpy"),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(problem)


def timed_run(workload: Workload, seed: int, seconds: float, golden: dict, oracles) -> tuple[dict, Tally, dict]:
    started = time.perf_counter()
    tally = Tally()

    # Warm-up: each command once, untimed, with the oracle spot-check.
    oracle_checks = 0
    for command in workload.commands:
        proc = spawn(LAUNCH, cli_argv(command, JOBS), DEADLINE_S - (time.perf_counter() - started))
        got, problem = check_answer(command, proc.exit, proc.stdout, golden)
        if problem is None:
            checks, problems = answers.spot_check(list(command), got, golden[" ".join(command)], seed, oracles)
            oracle_checks += checks
            problem = "; ".join(problems) or None
        tally.record(problem)

    iterations, setups = [], []
    per_command = {" ".join(c): {"wall_s": [], "cpu_s": [], "peak_rss_mb": []} for c in workload.commands}
    t0 = time.perf_counter()
    while not iterations or time.perf_counter() - t0 + iterations[-1]["wall_s"] <= seconds:
        # After the first, an iteration starts only if it would end, on the
        # last one's pace, within --seconds and well before the deadline.
        if iterations and time.perf_counter() - started + 1.5 * iterations[-1]["wall_s"] > DEADLINE_S:
            break
        it = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
        for command in workload.commands:
            remaining = DEADLINE_S - (time.perf_counter() - started)
            proc = spawn(LAUNCH, cli_argv(command, JOBS), remaining)
            tally.record(check_answer(command, proc.exit, proc.stdout, golden)[1])
            for name, samples in per_command[" ".join(command)].items():
                samples.append(getattr(proc, name))
            it["wall_s"] += proc.wall_s
            it["cpu_s"] += proc.cpu_s
            it["peak_rss_mb"] = max(it["peak_rss_mb"], proc.peak_rss_mb)
            if proc.setup_s is not None:
                setups.append(proc.setup_s)
        iterations.append(it)

    if not setups:
        raise RuntimeError("no process reported its set-up time")
    samples = {name: [it[name] for it in iterations] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    units = declared_units("end_to_end")
    stats = {name: {**quartiles(samples[name]), "unit": unit} for name, unit in units.items()}
    metrics = {name: {"value": s["median"], "unit": s["unit"]} for name, s in stats.items()}
    by_command = {
        cmd: {name: quartiles(v) for name, v in samples.items()} for cmd, samples in per_command.items()
    }
    detail = {"stats": stats, "per_command": by_command, "iterations": len(iterations)}
    return metrics, tally, {**detail, "oracle_checks": oracle_checks}


def _tracer(args: list[str], started: float) -> dict:
    proc = spawn(TRACER, args, DEADLINE_S - (time.perf_counter() - started))
    if proc.exit != 0:
        return {"exit": None, "stdout": "", "stderr": proc.stderr, "elapsed_s": 0.0}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_run(name: str, workload: Workload, golden: dict) -> tuple[dict, Tally, dict]:
    """Per command: a traced --jobs 1 run (the --jobs identity answer); for
    chunked commands a traced serial replay of the --jobs 2 run; and the
    layer-source run once more untraced, for the tracing overhead."""
    started = time.perf_counter()
    tally = Tally()
    sources, passes = [], []
    traced_s = untraced_s = 0.0
    chunk_reference = 0.0
    for command in workload.commands:
        jobs1 = _tracer(["--trace", "--", *cli_argv(command, 1)], started)
        answer1, problem = check_answer(command, jobs1["exit"], jobs1["stdout"], golden)
        tally.record(problem)
        source = jobs1
        untraced_args = ["--", *cli_argv(command, 1)]
        if workload.chunked:
            whole = jobs1.get("trace", {}).get("chunks", [])
            flags = ["--trace", "--serial-pool"] + ([] if whole else ["--reference"])
            source = _tracer([*flags, "--", *cli_argv(command, JOBS)], started)
            answer2, problem = check_answer(command, source["exit"], source["stdout"], golden)
            if problem is None and answer2 != answer1:
                problem = f"{' '.join(command)}: --jobs 1 and --jobs {JOBS} answers differ"
            tally.record(problem)
            untraced_args = ["--serial-pool", "--", *cli_argv(command, JOBS)]
            chunks = source.get("trace", {}).get("chunks", [])
            if whole and chunks and (whole[0]["lo"], whole[0]["hi"]) == (
                min(c["lo"] for c in chunks), max(c["hi"] for c in chunks)
            ):
                chunk_reference += whole[0]["busy_s"]
            else:
                chunk_reference += source.get("trace", {}).get("reference_s") or 0.0
        untraced = _tracer(untraced_args, started)
        tally.record(check_answer(command, untraced["exit"], untraced["stdout"], golden)[1])
        traced_s += source["elapsed_s"]
        untraced_s += untraced["elapsed_s"]
        if "trace" in source:
            sources.append(source["trace"])
        passes.append({"command": list(command), "jobs1": jobs1.get("trace"), "layers": source.get("trace")})

    units = declared_units("per_layer")
    metrics = layer_metrics(sources, chunk_reference, units)
    metrics["trace.traced_s"] = traced_s
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    TRACE_OUT.mkdir(exist_ok=True)
    trace_file = TRACE_OUT / f"trace-{name}.json"
    trace_file.write_text(json.dumps(passes))
    out = {metric: {"value": metrics[metric], "unit": unit} for metric, unit in units.items()}
    return out, tally, {"trace_file": str(trace_file.relative_to(ROOT))}


def layer_metrics(sources: list[dict], chunk_reference: float, names) -> dict:
    """The named per-layer metrics, summed over the workload's commands.  A
    name not computed below is read as <module>.<function>.<stat> from the
    tracer's per-function totals."""

    def total(fn: str, key: str) -> float:
        return sum(s["functions"].get(fn, {}).get(key, 0) for s in sources)

    chunks = [c for s in sources for c in s["chunks"]]
    interlock_calls = total("pairs.check_interlock", "calls")
    chunk_sum = sum(c["busy_s"] for c in chunks)
    m = {
        "arith.divisor_count_range.entries": total("arith.divisor_count_range", "entries"),
        "arith.divisors.cache_entries": max((s["divisors_cache_entries"] for s in sources), default=0),
        "arith.warm_sieve.limit": max((s["warm_sieve_limit"] for s in sources), default=0),
        "pairs.check_interlock.hit_ratio": (
            total("pairs.check_interlock", "hits") / interlock_calls if interlock_calls else 0.0
        ),
        "separability.chunk.count": len(chunks),
        "separability.chunk.busy_max_s": max((c["busy_s"] for c in chunks), default=0.0),
        "separability.chunk.busy_sum_s": chunk_sum,
        "separability.chunk_redundancy": chunk_sum / chunk_reference if chunk_reference else 0.0,
        "precision.iv_bits_max": max((s["iv_bits_max"] for s in sources), default=0),
    }
    for key in ("window", "odd", "tau_survivors", "checked", "hits"):
        m[f"separability.funnel.{key}"] = sum(c[key] for c in chunks)
    for name in names:
        if name in m or name.startswith("trace."):
            continue
        fn, _, stat = name.rpartition(".")
        m[name] = total(fn, stat)
    return m


def prerequisites() -> str | None:
    for path in (SPEC, SRC / "interlock" / "cli.py", answers.ORACLES_PATH, answers.GOLDEN_PATH):
        if not path.is_file():
            return f"missing {path.relative_to(ROOT)}: run from a checkout of the repository"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="interlock CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    missing = prerequisites()
    if missing:
        print(f"perfbench: {missing}", file=sys.stderr)
        return 2
    workload = WORKLOADS[opts.workload]
    golden = answers.load_golden()
    env = {**environment(), **host_state("start")}
    if opts.trace:
        metrics, tally, detail = traced_run(opts.workload, workload, golden)
    else:
        oracles = answers.load_oracles()
        metrics, tally, detail = timed_run(workload, opts.seed, opts.seconds, golden, oracles)
    env.update(host_state("end"))

    fail_frac = len(tally.failures) / tally.attempted
    report = {
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "commands": [" ".join(c) for c in workload.commands],
        "fail_frac": fail_frac,
        "failures": tally.failures,
        "environment": env,
        **detail,
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not tally.failures,
                "attempted": tally.attempted,
                "failed": len(tally.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
