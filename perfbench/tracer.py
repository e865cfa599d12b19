"""Run one interlock CLI command inside this process, traced or not.

    PYTHONPATH=src python3 perfbench/tracer.py [--trace] [--serial-pool]
        [--reference] -- --jsonl --jobs 1 census --max 60

The command runs through ``interlock.cli.run`` and its record is captured.
The result is one JSON object on stdout: the exit code, the CLI's stdout and
stderr, the seconds spent in ``cli.run`` and, with --trace, what the tracer
saw.

--trace wraps the public functions listed in LAYERS at every place they are
bound in the ``interlock`` modules (the import sites), in this process only.
Coarse functions get one span each (name, start, end, parent).  Functions
called millions of times get aggregated counters (calls, busy time), not
spans.  A span's self time is its duration minus the time of its child
spans and of the outermost counted calls made inside it.  Busy time is
inclusive: tau's busy time contains the factorize calls it makes.

--serial-pool replaces the CLI's process pool with an in-process executor
that runs the same tasks one after another, so a ``--jobs 2`` command keeps
its own chunk split but every chunk runs under the tracer.

--reference then times one call of the chunk scanner over the union of the
chunk windows, the whole-window cost that the chunk costs are compared with.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from importlib import import_module

perf = time.perf_counter

SPAN, COUNT = "span", "count"

# module -> function -> how it is traced.  A name missing from the package
# is skipped, and its metrics read 0.
LAYERS = {
    "cli": {"run": SPAN},
    "arith": {
        "warm_sieve": SPAN,
        "divisor_count_range": SPAN,
        "next_prime": SPAN,
        "tau": COUNT,
        "factorize": COUNT,
        "divisors": COUNT,
        "is_prime": COUNT,
        "divisors_from_factorization": COUNT,
    },
    "pairs": {"check_interlock": COUNT, "check_interlock_divisors": COUNT},
    "separability": {
        "find_partner": SPAN,
        "scan_range": SPAN,
        "pow2_scan_chunk": SPAN,
        "verify_pow2_nonseparable": SPAN,
        "merge_chunk_scans": SPAN,
        "assemble_pow2_report": SPAN,
    },
    "construction": {
        "build_pow2_partner": SPAN,
        "verify_construction": SPAN,
        "count_bounded_jumps": SPAN,
        "has_bounded_jumps": COUNT,
    },
    "primorials": {
        "enumerate_primorial_pairs": SPAN,
        "placement_consensus": SPAN,
        "forced_placement_chain": SPAN,
    },
    "precision": {"escalating": COUNT, "floor_exp": COUNT},
}

# The scanners the CLI runs once per chunk; each is called as
# f(subject, lo, hi, *rest) on the candidate window [lo, hi].
CHUNK_FUNCTIONS = ("separability.scan_range", "separability.pow2_scan_chunk")


def _chunk_funnel(name: str, args: tuple, result) -> dict:
    """Candidate funnel of one chunk scan, read from its arguments and result."""
    subject, lo, hi = args[:3]
    if name == "separability.pow2_scan_chunk":
        partners, odd, survivors = result
        return {"window": hi - lo + 1, "odd": odd, "tau_survivors": survivors}
    # scan_range returns no parity count; its parity filter keeps the odd
    # candidates when the subject is a power of two >= 4, else all of them.
    odd = len(range(lo | 1, hi + 1, 2)) if subject >= 4 and subject & (subject - 1) == 0 else hi - lo + 1
    return {"window": hi - lo + 1, "odd": odd, "tau_survivors": result.passed}


class SerialPool:
    """Stands in for ProcessPoolExecutor: runs every task here, in order."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        return map(fn, *iterables)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        # name -> [calls, busy_s, depth, hits]
        self.counters: dict[str, list] = {}
        self.chunk_calls: list[tuple] = []  # (name, original function, args)
        self.iv_bits_max = 0
        # Spans in progress: [span id, seconds of its traced children so far].
        self._stack: list[list] = [[None, 0.0]]
        # Counted calls in progress (an outermost one charges its time to
        # the innermost span).
        self._counted = [0]

    def _span(self, name: str, fn):
        stack, spans, counted = self._stack, self.spans, self._counted
        chunk = name in CHUNK_FUNCTIONS
        interlock = self.counters.setdefault("pairs.check_interlock", [0, 0.0, 0, 0])

        def wrapper(*args, **kwargs):
            rec = {"id": len(spans), "name": name, "parent": stack[-1][0]}
            spans.append(rec)
            if name == "arith.warm_sieve":
                rec["limit"] = args[0]
            checked, hits = interlock[0], interlock[3]
            in_counted = counted[0]
            frame = [rec["id"], 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if not in_counted:  # else the enclosing counted call holds it
                    stack[-1][1] += end - start
                rec.update(start=start, end=end, child_s=frame[1])
            if name == "arith.divisor_count_range":
                rec["entries"] = len(result)
            if chunk:
                self.chunk_calls.append((name, fn, args))
                rec.update(_chunk_funnel(name, args, result))
                rec.update(lo=args[1], hi=args[2], checked=interlock[0] - checked, hits=interlock[3] - hits)
            return result

        return wrapper

    def _count(self, name: str, fn):
        stack, counted = self._stack, self._counted
        c = self.counters.setdefault(name, [0, 0.0, 0, 0])
        count_hits = name == "pairs.check_interlock"

        def wrapper(*args, **kwargs):
            c[0] += 1
            if c[2]:  # a recursive call: already inside the outer one's time
                return fn(*args, **kwargs)
            c[2] = 1
            counted[0] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = perf() - start
                c[1] += busy
                c[2] = 0
                counted[0] -= 1
                if not counted[0]:
                    stack[-1][1] += busy
            if count_hits and result.verdict:
                c[3] += 1
            return result

        return wrapper

    def _watch_bits(self, escalating):
        """escalating(step, ...) calls step(iv) at each precision it tries;
        record the highest."""

        def wrapper(step, *args, **kwargs):
            def watched(iv):
                self.iv_bits_max = max(self.iv_bits_max, iv.prec)
                return step(iv)

            return escalating(watched, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "interlock" or n.startswith("interlock.")]
        for mod_name, functions in LAYERS.items():
            module = import_module(f"interlock.{mod_name}")
            for fn_name, kind in functions.items():
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                name = f"{mod_name}.{fn_name}"
                fn = self._watch_bits(original) if name == "precision.escalating" else original
                wrapper = self._span(name, fn) if kind == SPAN else self._count(name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def summary(self) -> dict:
        """Per-function totals, the chunk scans and the spans, as plain JSON."""
        functions: dict[str, dict] = {}
        for name, (calls, busy, _, hits) in self.counters.items():
            functions[name] = {"calls": calls, "busy_s": busy, "hits": hits}
        for rec in self.spans:
            f = functions.setdefault(rec["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            f["calls"] += 1
            f["busy_s"] += rec["end"] - rec["start"]
            f["self_s"] += rec["end"] - rec["start"] - rec["child_s"]
            if "entries" in rec:
                f["entries"] = f.get("entries", 0) + rec["entries"]
        arith = import_module("interlock.arith")
        cache_entries = sum(
            v.cache_info().currsize for v in vars(arith).values() if hasattr(v, "cache_info")
        )
        keys = ("window", "odd", "tau_survivors", "checked", "hits", "lo", "hi")
        return {
            "functions": functions,
            "chunks": [
                {"name": r["name"], "busy_s": r["end"] - r["start"], **{k: r[k] for k in keys}}
                for r in self.spans
                if r["name"] in CHUNK_FUNCTIONS
            ],
            "warm_sieve_limit": max((r["limit"] for r in self.spans if "limit" in r), default=0),
            "divisors_cache_entries": cache_entries,
            "iv_bits_max": self.iv_bits_max,
            "spans": [
                {
                    "id": r["id"],
                    "name": r["name"],
                    "parent": r["parent"],
                    "start": r["start"],
                    "end": r["end"],
                    "self_s": r["end"] - r["start"] - r["child_s"],
                }
                for r in self.spans
            ],
        }

    def reference_s(self) -> float | None:
        """Seconds for one scan of the union of the chunk windows."""
        if not self.chunk_calls:
            return None
        name, fn, args = self.chunk_calls[0]
        calls = [c for c in self.chunk_calls if c[0] == name]
        lo = min(c[2][1] for c in calls)
        hi = max(c[2][2] for c in calls)
        start = perf()
        fn(args[0], lo, hi, *args[3:])
        return perf() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--serial-pool", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    cli = import_module("interlock.cli")
    tracer = Tracer() if opts.trace else None
    if tracer is not None:
        tracer.install()
    if opts.serial_pool and hasattr(cli, "ProcessPoolExecutor"):
        cli.ProcessPoolExecutor = SerialPool

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf()
        try:
            code = cli.run(cli_args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = perf() - start

    result = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "elapsed_s": elapsed}
    if tracer is not None:
        result["trace"] = tracer.summary()
        if opts.reference:
            result["trace"]["reference_s"] = tracer.reference_s()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
