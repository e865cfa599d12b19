"""Command-line surface.

Every invocation emits one JSON record {command, inputs, result, timing_ms,
version}: pretty-printed by default, one compact line with --jsonl.  Integers
that do not fit in a signed 64-bit word are emitted as decimal strings so no
downstream JSON tooling silently truncates them.  Payloads are byte-identical
across --jobs settings (timing aside): the partners of 2^k are built in
process (separability.pow2_partners); a search that stops at its first
partner is one ascending scan at every --jobs; a report-all window scan is
range-partitioned and its chunks merged back in ascending order, and
parallel census batches are merged back in order of n.

Start-up is most of a small command's time, so the records on this import
path are collections.namedtuple classes: dataclasses takes about 8 ms to
import (inspect, dis, ast, tokenize) and each @dataclass 1.3 ms more.
decimal and fractions are imported only by the values that need them.

Exit codes: 0 success; 1 a valid negative answer (verdict false, no partner,
not a member); 2 usage or domain error; 3 a comparison that the configured
precision cannot decide (see INTERLOCK_PRECISION_BITS).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import chain

from . import __version__
from .pairs import check_alternation, check_interlock
from .separability import (
    SearchBudgetError,
    SearchConfig,
    append_census_cache,
    census_batch,
    count_separable,
    find_partner,
    load_census_cache,
    merge_chunk_scans,
    result_to_record,
    scan_range,
    verify_pow2_nonseparable,
    VERIFIED_RESIDUES,
)

# concurrent.futures.ProcessPoolExecutor, imported by _pool_map on first use.
ProcessPoolExecutor = None

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

_INT64_MAX = (1 << 63) - 1

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
    Fractions to 'p/q' strings, tuples to lists.  A dataclass or a Fraction
    can only come from a module that has already imported its own."""
    if isinstance(value, (bool, float)) or value is None:
        return value
    if isinstance(value, int):
        if -_INT64_MAX <= value <= _INT64_MAX:
            return value
        from decimal import Decimal  # str() refuses ints past the digit limit
        return str(Decimal(value))
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, tuple) and hasattr(value, "_asdict"):  # a namedtuple
        return _jsonify(value._asdict())
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if hasattr(type(value), "__dataclass_fields__"):
        from dataclasses import asdict
        return _jsonify(asdict(value))
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        return f"{value.numerator}/{value.denominator}"
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


def _pool_map(fn, tasks: list[tuple], jobs: int) -> list:
    """[fn(*task) for task in tasks], in order, over at most jobs worker
    processes: never more workers than tasks."""
    global ProcessPoolExecutor
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(*task) for task in tasks]
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def _window_scanner(jobs: int):
    """A scan(n, lo, hi, cfg) for find_partner / verify_pow2_nonseparable.
    A first-hit search is one ascending scan_range call over the window.  A
    report-all scan with jobs > 1 splits the window into chunks, which run
    over a pool when the window has at least _MIN_POOL_WINDOW entries, else
    in this process."""

    def scan(n, lo, hi, cfg):
        windows = _chunks(lo, hi, jobs)
        if not cfg.report_all_partners or jobs <= 1 or len(windows) <= 1:
            return scan_range(n, lo, hi, cfg)
        workers = jobs if hi - lo + 1 >= _MIN_POOL_WINDOW else 1
        scans = _pool_map(scan_range, [(n, a, b, cfg) for a, b in windows], workers)
        return merge_chunk_scans(scans)

    return scan


# --- subcommand handlers: each returns (result_payload, exit_code) -----------


def _cmd_check(args):
    decide = check_alternation if args.alternation else check_interlock
    report = decide(args.m, args.n)
    return report, EXIT_OK if report.verdict else EXIT_NEGATIVE


def _cmd_partner(args):
    cfg = SearchConfig(
        bound_override=args.bound,
        prune=not args.no_prune,
        report_all_partners=args.all,
    )
    result = find_partner(args.n, cfg, _window_scanner(args.jobs))
    return result, EXIT_OK if result.separable else EXIT_NEGATIVE


def _cmd_census(args):
    if args.max < 1:
        raise ValueError(f"census: x must be >= 1, got {args.max}")
    cfg = SearchConfig(prune=not args.no_prune, report_all_partners=args.all)
    cached = load_census_cache(args.cache, cfg) if args.cache and not args.recompute else {}
    todo = [n for n in range(1, args.max + 1) if n not in cached]
    # One batch per worker, n dealt round-robin so every batch gets its share
    # of the large n; each batch shares one factor table across its scans.
    jobs = min(args.jobs, len(todo)) if len(todo) >= _MIN_POOL_CENSUS else 1
    batches = _pool_map(census_batch, [(todo[i::jobs], cfg) for i in range(jobs)], jobs)
    fresh = sorted(chain.from_iterable(batches), key=lambda r: r.n)
    if args.cache:
        append_census_cache(args.cache, fresh, cfg)
    served = [r for r in cached.values() if r.n <= args.max]
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
    scan = _window_scanner(args.jobs)
    if k > 2 and k % 12 in VERIFIED_RESIDUES:
        report = verify_pow2_nonseparable(k, scan)
        payload = {"mode": "exhaustive-verification", "report": report}
        return payload, EXIT_OK if report.confirmed else EXIT_NEGATIVE
    result = find_partner(1 << k, SearchConfig(), scan)
    payload = {"mode": "partner-search", "result": result}
    return payload, EXIT_OK if result.separable else EXIT_NEGATIVE


def _cmd_construct(args):
    from .construction import build_pow2_partner, plan_from_dict
    from .construction import plan_to_dict, verify_construction
    if args.load:
        with open(args.load, "r", encoding="utf-8") as fh:
            plan = plan_from_dict(json.load(fh))
    else:
        if args.k is None or args.t is None:
            raise ValueError("construct: provide --k and --t, or --load PATH")
        plan = build_pow2_partner(args.k, args.t, prime_search_bits=args.budget_bits)
    report = verify_construction(
        plan, direct_interlock=True if args.verify_direct else None
    )
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(plan_to_dict(plan), fh, sort_keys=True, indent=2)
    payload = {"plan": plan_to_dict(plan), "verification": report}
    return payload, EXIT_OK if report.verified else EXIT_NEGATIVE


def _params_from_args(args):
    from fractions import Fraction
    from .construction import JumpParams
    if (args.t is None) == (args.C is None):
        raise ValueError("provide exactly one of --t / --C")
    if args.t is not None:
        return JumpParams.from_t(args.t)
    try:
        value = Fraction(args.C)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--C must be a rational p/q with q != 0, got {args.C!r}") from None
    return JumpParams.from_override(value)


def _cmd_s_member(args):
    from .construction import has_bounded_jumps
    params = _params_from_args(args)
    check = has_bounded_jumps(args.n, params)
    payload = {
        "n": args.n,
        "threshold": params.describe(),
        "member": check.bounded,
        "witness": check.witness,
    }
    return payload, EXIT_OK if check.bounded else EXIT_NEGATIVE


def _cmd_s_count(args):
    from .construction import count_bounded_jumps
    params = _params_from_args(args)
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


def _format_primorial_table(splits, consensus_report) -> str:
    lines = []
    for s in splits:
        m_fac = "*".join(str(p) for p in s.m_primes) or "1"
        n_fac = "*".join(str(p) for p in s.n_primes) or "1"
        flag = "  [degenerate]" if s.degenerate else ""
        lines.append(f"m = {s.m} = {m_fac}   n = {s.n} = {n_fac}{flag}")
        if s.trace:
            lines.append("  merged: " + " < ".join(str(d) for d in s.trace))
    if not splits:
        lines.append("no interlocking splits")
    if consensus_report is not None:
        if consensus_report.consensus:
            lines.append(
                "consensus: "
                + "  ".join(f"{p}->{s}" for p, s in consensus_report.consensus.items())
            )
        if consensus_report.contradiction:
            c = consensus_report.contradiction
            lines.append(f"forced-chain contradiction: {c.reason}")
        if consensus_report.parity_certificate:
            pc = consensus_report.parity_certificate
            lines.append(
                f"parity certificate: every split has divisor-count gap >= "
                f"{pc.min_tau_gap} > {pc.required_max}"
            )
    return "\n".join(lines)


def _cmd_primorial(args):
    from .primorials import enumerate_primorial_pairs, placement_consensus
    if args.consensus:
        consensus_report = placement_consensus(args.k)
        splits = consensus_report.survivors
    else:
        consensus_report = None
        splits = enumerate_primorial_pairs(args.k)
    if args.table:
        print(_format_primorial_table(splits, consensus_report))
    payload = {
        "k": args.k,
        "count": len(splits),
        "splits": splits,
    }
    if consensus_report is not None:
        payload["consensus"] = consensus_report
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
        help="worker processes for range scans (default: all cores)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interlock",
        description="Interlocking divisor pairs: checks, searches, constructions.",
    )
    _add_common_flags(parser, top=True)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_common_flags(p)
        return p

    p = add_parser("check", help="interlock verdict and merged trace")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument(
        "--alternation",
        action="store_true",
        help="use the merge-alternation decider (coprime inputs)",
    )
    p.set_defaults(fn=_cmd_check)

    p = add_parser("partner", help="search the proven window for partners")
    p.add_argument("n", type=int)
    p.add_argument("--all", action="store_true", help="report every partner")
    p.add_argument("--bound", type=int, default=None, help="override the window top")
    p.add_argument("--no-prune", action="store_true", help="disable all pruning")
    p.set_defaults(fn=_cmd_partner)

    p = add_parser("census", help="separability of every n <= max")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--cache", type=str, default=None, help="JSONL cache path")
    p.add_argument("--recompute", action="store_true", help="ignore cached rows")
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--all", action="store_true", help="report every partner per n")
    p.set_defaults(fn=_cmd_census)

    p = add_parser(
        "pow2",
        help="2^k: exhaustive non-separability verification in the proven "
        "residue classes, partner search otherwise",
    )
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_pow2)

    p = add_parser("construct", help="build and verify a 2^k partner plan")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument(
        "--verify-direct",
        action="store_true",
        help="force the full interlock cross-check",
    )
    p.add_argument("--save", type=str, default=None, help="write plan JSON here")
    p.add_argument("--load", type=str, default=None, help="re-verify a saved plan")
    p.add_argument(
        "--budget-bits",
        type=int,
        default=1024,
        help="largest 2^bits allowed in the next-prime search",
    )
    p.set_defaults(fn=_cmd_construct)

    p = add_parser("s-member", help="bounded-divisor-jump membership")
    p.add_argument("n", type=int)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--C", type=str, default=None, help="direct threshold (rational)")
    p.set_defaults(fn=_cmd_s_member)

    p = add_parser("s-count", help="count members up to a bound")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--C", type=str, default=None)
    p.set_defaults(fn=_cmd_s_count)

    p = add_parser("gaps", help="count n <= x with no divisor in [y, z]")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.set_defaults(fn=_cmd_gaps)

    p = add_parser("primorial", help="interlocking splits of the first k primes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--consensus",
        action="store_true",
        help="per-prime placement consensus and forced chain",
    )
    p.add_argument("--table", action="store_true", help="human-readable table first")
    p.set_defaults(fn=_cmd_primorial)

    return parser


def _inputs_echo(args) -> dict:
    skip = {"fn", "command", "jsonl", "jobs"}
    return {k: _jsonify(v) for k, v in vars(args).items() if k not in skip}


def _error_kind(exc: Exception):
    """(error, exit code) of the record run emits for exc, or None to let it
    propagate.  The precision error is looked up only if its module is
    already imported: a module that was never imported cannot have raised."""
    precision = sys.modules.get(f"{__package__}.precision")
    if precision is not None and isinstance(exc, precision.PrecisionError):
        return "precision-indeterminate", EXIT_PRECISION
    if isinstance(exc, SearchBudgetError):
        return "budget-exceeded", EXIT_USAGE
    if isinstance(exc, (ValueError, OSError)):
        return "usage", EXIT_USAGE
    return None


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
        result = {"error": kind[0], "message": str(exc)}
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
    sys.exit(run())


if __name__ == "__main__":
    main()
