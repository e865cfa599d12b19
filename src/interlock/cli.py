"""Command-line surface.

Every invocation emits one JSON record {command, inputs, result, timing_ms,
version}: pretty-printed by default, one compact line with --jsonl.  Integers
that do not fit in a signed 64-bit word are emitted as decimal strings so no
downstream JSON tooling silently truncates them, at any length: arith's
decimal_text writes them past the interpreter's 4,300-digit str() limit, and
saved plans are read back by decimal_int.  Payloads are byte-identical
across --jobs settings (timing aside): the partners of 2^k are built in
process (separability.pow2_partners); a search that stops at its first
partner is one ascending scan at every --jobs; a report-all window scan is
range-partitioned and its chunks merged back in ascending order, and
parallel census batches are merged back in order of n.

Start-up is most of a small command's time, so every record is a
collections.namedtuple class: loading dataclasses takes about 8 ms
(inspect, dis, ast, tokenize) and each @dataclass 1.3 ms more.  decimal and
fractions are imported only by the values that need them, and the commands
that compare with logs and exponentials (construct, s-member, s-count) do
it in precision's integer enclosures, not in mpmath, which takes 35 ms or
more to load.  run builds the parser of the invoked subcommand alone
(_command_of), and the full one only for --help, --version, an unknown
command or an argv it cannot read the command from.  main, not run, freezes
the heap (gc.freeze) before it exits, so the interpreter's collections at
exit skip it.

primorial --table writes its human-readable table to stderr, so stdout
still holds the one record.

Exit codes: 0 success; 1 a valid negative answer (verdict false, no partner,
not a member); 2 usage or domain error, or an input too large for memory;
3 a comparison that precision's doubling ladder cannot decide by the
ceiling its operands set.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from itertools import chain

from . import __version__
from .arith import FACTOR_TABLE_CAP, PrecisionError, SearchBudgetError, decimal_int
from .arith import decimal_text
from .pairs import check_interlock
from .separability import (
    SearchConfig,
    census_batch,
    count_separable,
    find_partner,
    load_census_cache,
    merge_chunk_scans,
    result_to_record,
    scan_range,
    verify_pow2_nonseparable,
    write_census_cache,
    write_file_atomically,
    VERIFIED_RESIDUES,
)

# concurrent.futures.ProcessPoolExecutor, imported by _pool_map on first use.
ProcessPoolExecutor = None

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

# The smallest chunk _chunks cuts a window into.
_MIN_CHUNK = 512
# A window scan starts a pool only from this many entries.  A pool costs a
# CLI run about 60 ms, so on two cores it pays once a --jobs 1 scan takes
# over 120 ms: near 2^20 entries of a 2^k window (see CHANGES.md).
_MIN_POOL_WINDOW = 1 << 20
# A census starts a pool only from this many rows to compute: on two cores
# --jobs 2 ties --jobs 1 between 1,000 and 1,200 rows (see CHANGES.md).
_MIN_POOL_CENSUS = 1100


def _jsonify(value):
    """JSON-safe payloads: big ints to decimal strings, records to dicts,
    Fractions (told by a denominator, without importing fractions) to 'p/q'
    strings ('p' when q = 1), tuples to lists."""
    if isinstance(value, (bool, float)) or value is None:
        return value
    if isinstance(value, int):
        return value if _INT64_MIN <= value <= _INT64_MAX else decimal_text(value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, tuple) and hasattr(value, "_asdict"):  # a namedtuple
        return _jsonify(value._asdict())
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if hasattr(value, "denominator"):  # a Fraction
        return decimal_text(value)
    return str(value)


def _emit(record: dict, jsonl: bool, stream) -> None:
    stream.write(json.dumps(record, sort_keys=True, indent=None if jsonl else 2) + "\n")


def _chunks(lo: int, hi: int, jobs: int) -> list[tuple[int, int]]:
    """Deterministic split of [lo, hi] into at most 4*jobs pieces."""
    total = hi - lo + 1
    if total <= 0:
        return []
    pieces = max(1, min(4 * jobs, total // _MIN_CHUNK or 1))
    size = (total + pieces - 1) // pieces
    out = []
    start = lo
    while start <= hi:
        out.append((start, min(start + size - 1, hi)))
        start += size
    return out


def _workers(jobs: int) -> int:
    """jobs, capped at one worker process per CPU, the --jobs default."""
    return min(jobs, os.cpu_count() or 1)


def _pool_map(fn, tasks: list[tuple], jobs: int) -> list:
    """[fn(*task) for task in tasks], in order, over at most jobs worker
    processes: never more workers than tasks, nor than CPUs."""
    global ProcessPoolExecutor
    workers = min(_workers(jobs), len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def _window_scanner(jobs: int):
    """A scan(n, lo, hi, cfg, div_n=None) for find_partner and
    verify_pow2_nonseparable.  A first-hit search is one ascending scan_range
    call over the window, with n's divisor list div_n.  A report-all scan with
    jobs > 1 splits the window into chunks, at most four for each worker
    that runs, which run over a pool when the window has at least
    _MIN_POOL_WINDOW entries, else in this process."""

    def scan(n, lo, hi, cfg, div_n=None):
        windows = _chunks(lo, hi, _workers(jobs))
        if not cfg.report_all_partners or jobs <= 1 or len(windows) <= 1:
            return scan_range(n, lo, hi, cfg, div_n)
        workers = jobs if hi - lo + 1 >= _MIN_POOL_WINDOW else 1
        scans = _pool_map(scan_range, [(n, a, b, cfg) for a, b in windows], workers)
        return merge_chunk_scans(scans)

    return scan


# --- subcommand handlers: each returns (result_payload, exit_code) -----------


def _cmd_check(args):
    report = check_interlock(args.m, args.n)
    return report, EXIT_OK if report.verdict else EXIT_NEGATIVE


def _cmd_partner(args):
    cfg = SearchConfig(prune=not args.no_prune, report_all_partners=args.all)
    result = find_partner(args.n, cfg, _window_scanner(args.jobs), bound=args.bound)
    return result, EXIT_OK if result.separable else EXIT_NEGATIVE


def _cmd_census(args):
    if args.max < 1:
        raise ValueError(f"census: x must be >= 1, got {args.max}")
    if args.max > FACTOR_TABLE_CAP:  # past the census table, and days of work
        raise ValueError(f"census: x must be <= {FACTOR_TABLE_CAP}, got {args.max}")
    cfg = SearchConfig(prune=not args.no_prune, report_all_partners=args.all)
    # One read of the file: served unless --recompute, kept in the rewrite.
    stored = load_census_cache(args.cache, cfg) if args.cache else {}
    cached = {} if args.recompute else stored
    todo = [n for n in range(1, args.max + 1) if n not in cached]
    # One batch per worker, n dealt round-robin so every batch gets its share
    # of the large n; each batch shares one factor table across its scans.
    jobs = min(_workers(args.jobs), len(todo)) if len(todo) >= _MIN_POOL_CENSUS else 1
    batches = _pool_map(census_batch, [(todo[i::jobs], cfg) for i in range(jobs)], jobs)
    fresh = sorted(chain.from_iterable(batches), key=lambda r: r.n)
    served = [r for r in cached.values() if r.n <= args.max]
    if args.cache and fresh:
        stored.update((r.n, r) for r in fresh)
        write_census_cache(args.cache, stored.values(), cfg)
    rows = sorted(served + fresh, key=lambda r: r.n)
    payload = {
        "max": args.max,
        "separable_count": count_separable(rows),
        "separable_count_nondegenerate": count_separable(rows, include_degenerate=False),
        "from_cache": len(served),
        "computed": len(fresh),
        "rows": [result_to_record(r) for r in rows],
    }
    return payload, EXIT_OK


def _cmd_pow2(args):
    k = args.k
    if k < 0:
        raise ValueError(f"pow2: k must be >= 0, got {k}")
    if k > 2 and k % 12 in VERIFIED_RESIDUES:
        report = verify_pow2_nonseparable(k, _window_scanner(args.jobs))
        payload = {"mode": "exhaustive-verification", "report": report}
        return payload, EXIT_OK if report.confirmed else EXIT_NEGATIVE
    result = find_partner(1 << k)
    payload = {"mode": "partner-search", "result": result}
    return payload, EXIT_OK if result.separable else EXIT_NEGATIVE


def _cmd_construct(args):
    from .construction import build_pow2_partner, plan_from_dict
    from .construction import plan_to_dict, verify_construction
    if args.load:
        if args.k is not None or args.t is not None:
            raise ValueError("construct: give --k and --t, or --load PATH, not both")
        with open(args.load, "r", encoding="utf-8") as fh:
            plan = plan_from_dict(json.load(fh, parse_int=decimal_int))
    else:
        if args.k is None or args.t is None:
            raise ValueError("construct: provide --k and --t, or --load PATH")
        plan = build_pow2_partner(args.k, args.t, prime_search_bits=args.budget_bits)
    report = verify_construction(plan)
    saved = plan_to_dict(plan, report)
    if args.save:
        write_file_atomically(args.save, [json.dumps(saved, sort_keys=True, indent=2)])
    payload = {"plan": saved, "verification": report}
    return payload, EXIT_OK if report.verified else EXIT_NEGATIVE


def _cmd_s_member(args):
    from .construction import JumpParams, has_bounded_jumps
    params = JumpParams(args.t, args.C)
    check = has_bounded_jumps(args.n, params)
    payload = {
        "n": args.n,
        "threshold": params.describe(),
        "member": check.bounded,
        "witness": check.witness,
    }
    return payload, EXIT_OK if check.bounded else EXIT_NEGATIVE


def _cmd_s_count(args):
    from .construction import JumpParams, count_bounded_jumps
    params = JumpParams(args.t, args.C)
    count = count_bounded_jumps(args.max, params)
    payload = {"max": args.max, "threshold": params.describe(), "count": count}
    return payload, EXIT_OK


def _cmd_gaps(args):
    from .construction import gap_census, gap_ratio
    count = gap_census(args.x, args.y, args.z)
    payload = {
        "x": args.x,
        "y": args.y,
        "z": args.z,
        "count": count,
        "scaled_ratio": gap_ratio(args.x, args.y, args.z, count),
    }
    return payload, EXIT_OK


def _format_primorial_table(report, consensus: bool) -> str:
    lines = []
    for s in report.survivors:
        m_fac = "*".join(str(p) for p in s.m_primes) or "1"
        n_fac = "*".join(str(p) for p in s.n_primes) or "1"
        flag = "  [degenerate]" if s.degenerate else ""
        lines.append(f"m = {s.m} = {m_fac}   n = {s.n} = {n_fac}{flag}")
        if s.trace:
            lines.append("  merged: " + " < ".join(str(d) for d in s.trace))
    if not report.survivors:
        lines.append("no interlocking splits")
    if consensus:
        if report.consensus:
            lines.append(
                "consensus: "
                + "  ".join(f"{p}->{s}" for p, s in report.consensus.items())
            )
        if report.contradiction:
            c = report.contradiction
            lines.append(f"forced-chain contradiction: {c.reason}")
        if report.parity_certificate:
            pc = report.parity_certificate
            lines.append(
                f"parity certificate: every split has divisor-count gap >= "
                f"{pc.min_tau_gap} > {pc.required_max}"
            )
    return "\n".join(lines)


def _cmd_primorial(args):
    from .primorials import placement_consensus
    report = placement_consensus(args.k)
    if args.table:
        print(_format_primorial_table(report, args.consensus), file=sys.stderr)
    payload = {
        "k": args.k,
        "count": len(report.survivors),
        "splits": report.survivors,
    }
    if args.consensus:
        payload["consensus"] = report
    return payload, EXIT_OK


def _add_common_flags(p: argparse.ArgumentParser, top: bool = False) -> None:
    # Accepted both before and after the subcommand; the later occurrence
    # wins, and an absent subcommand-level flag never clobbers the global.
    p.add_argument(
        "--jsonl",
        action="store_true",
        default=False if top else argparse.SUPPRESS,
        help="one compact JSON line",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=(os.cpu_count() or 1) if top else argparse.SUPPRESS,
        help="worker processes for window scans and censuses (default and cap: one per CPU)",
    )


def _arg(*flags, **kwargs):
    return flags, kwargs


def _int(*flags, **kwargs):
    return flags, {"type": int, **kwargs}


def _flag(*flags, **kwargs):
    return flags, {"action": "store_true", **kwargs}


# Each subcommand: (help, its arguments as (flags, add_argument kwargs)); its
# handler is _cmd_<name>, with "-" as "_".
_COMMANDS = {
    "check": ("interlock verdict and merged trace", (_int("m"), _int("n"))),
    "partner": ("search the proven window for partners", (
        _int("n"),
        _flag("--all", help="report every partner"),
        _int("--bound", help="override the window top"),
        _flag("--no-prune", help="disable all pruning"),
    )),
    "census": ("separability of every n <= max", (
        _int("--max", required=True),
        _arg("--cache", help="JSONL cache path"),
        _flag("--recompute", help="ignore cached rows"),
        _flag("--no-prune"),
        _flag("--all", help="report every partner per n"),
    )),
    "pow2": ("2^k: exhaustive non-separability verification in the proven residue "
             "classes, partner search otherwise", (_int("--k", required=True),)),
    "construct": ("build and verify a 2^k partner plan", (
        _int("--k"), _int("--t"),
        _arg("--save", help="write plan JSON here"),
        _arg("--load", help="re-verify a saved plan"),
        _int("--budget-bits", default=1024, help="largest 2^bits allowed in the next-prime search"),
    )),
    "s-member": ("bounded-divisor-jump membership", (
        _int("n"), _int("--t"), _arg("--C", help="direct threshold (rational)"),
    )),
    "s-count": ("count members up to a bound", (
        _int("--max", required=True), _int("--t"), _arg("--C"),
    )),
    "gaps": ("count n <= x with no divisor in [y, z]", (
        _int("--x", required=True), _int("--y", required=True), _int("--z", required=True),
    )),
    "primorial": ("interlocking splits of the first k primes", (
        _int("--k", required=True),
        _flag("--consensus", help="per-prime placement consensus and forced chain"),
        _flag("--table", help="human-readable table on stderr"),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, or with a command, one that builds only that
    subcommand's parser: its usage line still names every subcommand, so its
    parses, usage errors and help for that command are the full parser's."""
    parser = argparse.ArgumentParser(
        prog="interlock",
        description="Interlocking divisor pairs: checks, searches, constructions.",
    )
    _add_common_flags(parser, top=True)
    parser.add_argument("--version", action="version", version=__version__)
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(fn=globals()["_cmd_" + name.replace("-", "_")])
    return parser


def _command_of(argv) -> str | None:
    """The subcommand argv names, if only --jsonl and --jobs N (or their
    abbreviations) come before it; else None, for the full parser (--help,
    --version, an unknown or missing command, anything unusual)."""
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("--js") and "--jsonl".startswith(token):
            continue
        if token.startswith("--jo") and "--jobs".startswith(token.partition("=")[0]):
            if "=" not in token and next(tokens, "-").startswith("-"):
                return None  # no value, or one argparse may not read as one
            continue
        return token if token in _COMMANDS else None
    return None


def _inputs_echo(args) -> dict:
    skip = {"fn", "command", "jsonl", "jobs"}
    return {k: _jsonify(v) for k, v in vars(args).items() if k not in skip}


def _error_kind(exc: Exception):
    """(error, exit code) of the record run emits for exc, or None to re-raise."""
    if isinstance(exc, PrecisionError):
        return "precision-indeterminate", EXIT_PRECISION
    if isinstance(exc, SearchBudgetError):
        return "budget-exceeded", EXIT_USAGE
    if isinstance(exc, (ValueError, OSError)):
        return "usage", EXIT_USAGE
    if isinstance(exc, MemoryError):
        return "out-of-memory", EXIT_USAGE
    return None


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(_command_of(argv)).parse_args(argv)
    started = time.perf_counter()
    stream = sys.stdout
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        result, code = args.fn(args)
        result = _jsonify(result)
    except Exception as exc:
        kind = _error_kind(exc)
        if kind is None:
            raise
        # str(MemoryError()) is empty: name the exception instead.
        result = {"error": kind[0], "message": str(exc) or type(exc).__name__}
        code, stream = kind[1], sys.stderr
    record = {
        "command": args.command,
        "inputs": _inputs_echo(args),
        "result": result,
        "timing_ms": round((time.perf_counter() - started) * 1000, 3),
        "version": __version__,
    }
    _emit(record, args.jsonl, stream)
    return code


def main() -> None:
    code = run()
    gc.freeze()  # after any pool has shut down and every file is closed
    sys.exit(code)


if __name__ == "__main__":
    main()
