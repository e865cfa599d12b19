"""Separability: bounded exhaustive search for interlocking partners.

An integer n is separable when some m interlocks with it.  The search space
is finite.  For tau(n) >= 3 the top divisor gap (n/d2(n), n) of n must hold
a divisor of every partner, so every partner exceeds n/d2(n).  In any
interlocking pair the larger member L satisfies L < s * d2(L) (its top
divisor gap must be cut by a divisor of the smaller member s), and d2(L) is
itself below the third-smallest divisor of s.  Every partner of n with
tau(n) >= 3 therefore lies in [n/d2(n) + 1, n * d3(n)].  For n prime or 1
the fallback window [2, n^2] is used; those n are separable anyway through
vacuous pairs (any two distinct primes interlock degenerately) and are
reported with degenerate = True.

One scanner, scan_range, tests the candidates of a window in ascending
order and stops at the first partner unless every partner is asked for; a
report-all scan split into chunks is merged back by merge_chunk_scans,
which concatenates and sums.  Candidate pruning inside the window,
all of it on or off together through the one switch SearchConfig.prune
(off with the CLI's --no-prune):
  * tau filter: an interlocking pair with distinct smallest prime divisors
    has |tau(m) - tau(n)| <= 1, so only tau(m) in {tau(n)-1, tau(n),
    tau(n)+1} is tested.
  * parity filter (n = 2^k, k >= 2: the pow2 certificates and n = 4): an
    even partner would need 3 | m to cut the gap (2, 4), leaving consecutive
    divisors 2, 3 of m with no power of two between them; so only odd m is
    tested.  The tau filter then becomes position-aware: each gap
    (2^i, 2^(i+1)) of n holds exactly one divisor of an odd partner m, and
    at most one divisor of m exceeds 2^k, so tau(m) = k when m < 2^k and
    tau(m) = k + 1 when m > 2^k.
  * end-gap rules (tau(m), tau(n) >= 3): each gap of either member,
    lowest and top included, holds a divisor of the other.  With
    p < q the least divisors > 1 of n, pm the least prime of m and
    d3(m) = min(pm^2, m's second prime):
    1. pm != p, else n's gap (p, q) needs d3(m) < q and m's gap (p, d3(m))
       needs q < d3(m);
    2. n's largest divisor below m exceeds m/pm (m's top gap);
    3. m's largest divisor below n (m, or m/pm if m > n > m/pm) exceeds n/p;
    4. p < d3(m) if pm < p (p is n's least divisor above pm), and pm < q
       if p < pm (pm is m's least divisor above p).
All four prunings, and the window, are cross-validated against a
pruning-free oracle in the test suite rather than assumed.  A scan takes
tau and least primes from one of two sources, chosen by its caller.  A
census shares one arith.FactorTable across all its n: the tau filter reads
ascending per-tau lists of m, and least primes and factorizations come from
the table's least-prime chain.  A single partner window, a pow2
certificate window and any census window above the table's cap sieve tau
over their own candidates (arith.divisor_count_range) and find least
primes by trial division.  Either way the end-gap rules run from m's least
prime, and only the candidates that pass them are factorized into divisor
lists.

With pruning on, find_partner builds the partners of 2^k, k >= 3, instead
of scanning their window (pow2_partners).  By the parity and gap argument
above, an odd m interlocks with 2^k exactly when its divisors fill the
slots (2^(j-1), 2^j), j = 2..k, one each (bit length j), with at most one
more, m itself, above 2^k.  A depth-first search introduces m's divisors in
increasing order, each in a slot of its own, and hands every complete
placement to check_interlock.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import partial
from itertools import chain
from pathlib import Path

from .arith import FactorTable, divisor_count_range, divisors, factorize
from .arith import divisors_from_factorization, next_prime, smallest_prime_divisor
from .pairs import check_interlock

# Largest tau segment a scan sieves at once, in entries.
_SEGMENT_CAP = 1 << 16
# Nodes after which a 2^k slot search gives up; every least-partner search
# for k <= 61 visits at most 67,960 (see CHANGES.md).
POW2_SEARCH_BUDGET = 200_000


class SearchBudgetError(RuntimeError):
    """A search passed its budget; the message names the stage."""


class SearchConfig(
    namedtuple(
        "SearchConfig", "bound_override prune report_all_partners",
        defaults=(None, True, False),
    )
):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.bound_override is not None and self.bound_override < 2:
            raise ValueError("bound_override must be >= 2")
        return self


class SeparabilityResult(
    namedtuple(
        "SeparabilityResult",
        "n separable degenerate partners search_bound candidates_tested",
    )
):
    __slots__ = ()


class ChunkScan(namedtuple("ChunkScan", "partners passed")):
    """Result of scanning one candidate sub-range: the partners found, in
    ascending order, and how many candidates passed the tau/parity filters
    (for pow2_partners, its complete placements).
    (collections.namedtuple: typing.NamedTuple would import typing.)"""

    __slots__ = ()


def partner_search_bound(n: int) -> tuple[int, int]:
    """Window [lo, hi] that provably contains every partner of n:
    [n/d2(n) + 1, n * d3(n)] when tau(n) >= 3, [2, n^2] otherwise.  The
    containment claim is enforced by the bound-soundness test, not assumed
    here.
    """
    if n < 2:
        raise ValueError(f"partner_search_bound: n must be >= 2, got {n}")
    return partner_window(n, SearchConfig())[:2]


def _end_gaps_allow(m: int, n: int, div_n: tuple[int, ...], least_prime) -> bool:
    """False only when the end-gap rules of the module doc rule out (m, n),
    from n's divisor list div_n and least_prime(r), the least prime of r >= 2.
    m's second prime is looked up only for rule 4 with pm < p."""
    if len(div_n) < 3:  # tau(n) <= 2
        return True
    pm = least_prime(m)
    if pm == m:  # tau(m) <= 2
        return True
    p, q = div_n[1], div_n[2]
    top = m // pm
    below_n = m if m < n else top  # m's largest divisor below n, unless top >= n
    if pm == p or div_n[bisect_left(div_n, m) - 1] <= top or below_n <= n // p:
        return False  # rules 1, 2, 3
    if p < pm:
        return pm < q  # rule 4
    # rule 4, pm < p: p < d3(m) = min(pm^2 if pm^2 | m, m's second prime)
    rest = top
    if rest % pm == 0:
        if pm * pm <= p:
            return False
        while rest % pm == 0:
            rest //= pm
    return rest == 1 or p < least_prime(rest)


def _sieved_candidates(start: int, end: int, step: int, n: int, below, above):
    """The m in range(start, end + 1, step) with tau(m) in below (m < n) or
    above (m >= n), from a tau sieve over just those m."""
    taus = divisor_count_range(start, end, step)
    ms = range(start, end + 1, step)
    return [m for m, t in zip(ms, taus) if t in (below if m < n else above)]


def _table_candidates(table, start: int, end: int, step: int, n: int, below, above):
    """_sieved_candidates read from table's per-tau lists, which hold end."""
    runs = []
    for taus, a, b in ((below, start, min(end, n - 1)), (above, max(start, n), end)):
        for t in taus if a <= b else ():
            ms = table.by_tau.get(t, ())
            runs.append(ms[bisect_left(ms, a) : bisect_right(ms, b)])
    merged = sorted(chain.from_iterable(runs))
    return merged if step == 1 else [m for m in merged if m & 1]


def scan_range(
    n: int, lo: int, hi: int, cfg: SearchConfig, table: FactorTable | None = None
) -> ChunkScan:
    """Scan the candidates in [lo, hi] against n in ascending order.

    With cfg.report_all_partners the scan checks the whole range; otherwise
    it stops at the first partner.  The range is read in segments of 64,
    128, ... entries, at most _SEGMENT_CAP, so a first-hit scan reads little
    past its hit.
    tau and least primes come from table, which grows to hold each segment,
    or, without a table or above its cap, from a tau sieve over the
    segment's own candidates (odd m only when the parity filter is on) and
    trial division.  Pure but for the table's growth: safe to run per-chunk
    in parallel workers and merge with merge_chunk_scans.
    """
    div_n = divisors(n)
    tau_n = len(div_n)
    prune = cfg.prune
    odd_only = prune and n >= 4 and n & (n - 1) == 0
    skip_self = tau_n >= 3
    if odd_only:  # n = 2^k: tau(m) = k below n, k + 1 above (module doc)
        below, above = (tau_n - 1,), (tau_n,)
    else:
        below = above = (tau_n - 1, tau_n, tau_n + 1)

    partners: list[int] = []
    passed = 0
    step = 2 if odd_only else 1
    start, size = lo | (step - 1), 64  # odd_only: the first odd m >= lo
    while start <= hi:
        end = min(start + step * (size - 1), hi)
        if table is not None and table.cover(end):
            least_prime, factor = table.lpf.__getitem__, table.factorize
            candidates = partial(_table_candidates, table)
        else:
            least_prime, factor = smallest_prime_divisor, factorize
            candidates = _sieved_candidates
        if prune:
            ms = candidates(start, end, step, n, below, above)
        else:
            ms = range(start, end + 1, step)
        for m in ms:
            if skip_self and m == n:
                continue
            passed += 1
            if prune and not _end_gaps_allow(m, n, div_n, least_prime):
                continue
            fac = factor(m)
            if check_interlock(m, n, divisors_from_factorization(fac), div_n).verdict:
                partners.append(m)
                if not cfg.report_all_partners:
                    return ChunkScan((m,), passed)
        start, size = end + step, min(2 * size, _SEGMENT_CAP)
    return ChunkScan(tuple(partners), passed)


def merge_chunk_scans(chunks: list[ChunkScan]) -> ChunkScan:
    """One ChunkScan for the ascending disjoint chunks of a report-all scan:
    their partners in order and the sum of their tested counts."""
    partners = tuple(m for c in chunks for m in c.partners)
    return ChunkScan(partners, sum(c.passed for c in chunks))


def _placed(ds, used: int, k: int, top: int) -> int:
    """used, a bit per filled slot (bit s: a divisor of bit length s), with
    the slots of ds added; 0 if one of ds meets a filled slot, or lies above
    2^k but is not top, or is top above 2^k while a slot up to k stays empty."""
    for d in ds:
        s = d.bit_length()
        if used >> s & 1 or (s > k and d != top):
            return 0
        used |= 1 << s
    full = (2 << k) - 1
    return used if top.bit_length() <= k or used & full == full else 0


def _prime_intervals(ds, f: int, used: int, j: int, k: int, qmax: int):
    """[(a, b, placed)]: the runs [a, b] of q in slot j, up to qmax, on
    which every q*d (d in ds, f = max(ds)) keeps its slot, kept only where
    _placed admits those slots (placed is its result)."""
    lo, hi = (1 << (j - 1)) + 1, min((1 << j) - 1, qmax)
    if lo > hi:
        return []
    # q*d gains a bit at q = ceil(2^(j + bl(d) - 1) / d).
    cuts = {-(-(1 << (j + d.bit_length() - 1)) // d) for d in ds}
    edges = sorted({lo, hi + 1} | {t for t in cuts if lo < t <= hi})
    runs = []
    for a, b in zip(edges, edges[1:]):
        placed = _placed([a * d for d in ds], used, k, a * f)
        if placed:
            runs.append((a, b - 1, placed))
    return runs


def _divides(t: int, exps) -> bool:
    """Whether exponents E_i >= exps[i] exist with prod(E_i + 1) dividing t."""
    if not exps:
        return True
    return any(t % f == 0 and _divides(t // f, exps[1:]) for f in range(exps[0] + 1, t + 1))


def pow2_partners(k: int, hi: int, report_all: bool) -> ChunkScan:
    """The partners m <= hi of 2^k, k >= 3, from the slot search (module
    doc): every one with report_all, else the least.  passed counts the
    complete placements handed to check_interlock.

    A node holds the divisors ds of f, the product of the prime powers
    chosen so far, and the slots they fill.  The least divisor of m outside
    ds is a prime power, and it fills the first empty slot j: the next power
    of a chosen prime, or a new prime q in slot j, from the runs of
    _prime_intervals.  A branch is cut when its product passes hi (in
    least-partner mode, the least partner so far minus 1), or when its
    exponents E_i leave tau(m) = k or k + 1 out of reach: prod(E_i + 1) must
    divide it, which also keeps |ds| <= k + 1.  Past POW2_SEARCH_BUDGET
    nodes it raises SearchBudgetError.
    """
    n, cap = 1 << k, hi
    div_n = divisors(n)
    found: list[int] = []
    spent = tested = 0
    shapes: dict[tuple, bool] = {}

    def shaped(powers):
        exps = tuple(sorted((e for _, e in powers), reverse=True))
        if exps not in shapes:
            shapes[exps] = _divides(k, exps) or _divides(k + 1, exps)
        return shapes[exps]

    def visit(ds, f, used, powers):
        nonlocal cap, spent, tested
        spent += 1
        if spent > POW2_SEARCH_BUDGET:
            raise SearchBudgetError(
                f"pow2 partner search: k = {k} passed the budget of {POW2_SEARCH_BUDGET} nodes"
            )
        j = (~used & (used + 1)).bit_length() - 1  # the first empty slot
        if j > k:  # every slot up to 2^k is filled: m = f
            tested += 1
            if check_interlock(f, n, None, div_n).verdict:
                found.append(f)
                cap = cap if report_all else f - 1
            return
        for i, (p, e) in enumerate(powers):
            x = p ** (e + 1)
            if x.bit_length() != j or f * p > cap:
                continue
            raised = powers[:i] + ((p, e + 1),) + powers[i + 1 :]
            new = [x * d for d in ds if d % p]
            placed = shaped(raised) and _placed(new, used, k, f * p)
            if placed:
                visit(ds + new, f * p, placed, raised)
        if not shaped(powers + ((0, 1),)):  # with a new prime
            return
        for a, b, placed in _prime_intervals(ds, f, used, j, k, cap // f):
            q = next_prime(a - 1)
            while q <= b and q * f <= cap:
                visit(ds + [q * d for d in ds], q * f, placed, powers + ((q, 1),))
                q = next_prime(q)

    visit([1], 1, 0b11, ())  # bit 1: the divisor 1; bit 0 is no slot
    return ChunkScan(tuple(sorted(found) if report_all else found[-1:]), tested)


def partner_window(n: int, cfg: SearchConfig) -> tuple[int, int, bool]:
    """(lo, hi, degenerate) for the partner scan of n.

    n = 1 gets the empty window [2, 1], whatever the bound override: it is
    degenerate-separable by convention (it interlocks with every prime
    vacuously), so nothing needs scanning and the partner list stays empty.
    """
    if n < 1:
        raise ValueError(f"partner search: n must be >= 1, got {n}")
    if n == 1:
        return 2, 1, True
    divs = divisors(n)
    lo, hi = (n // divs[1] + 1, n * divs[2]) if len(divs) >= 3 else (2, n * n)
    if cfg.bound_override is not None:
        hi = cfg.bound_override
    return lo, hi, len(divs) <= 2


def find_partner(
    n: int, cfg: SearchConfig = SearchConfig(), scan=scan_range
) -> SeparabilityResult:
    """Ascending search for interlocking partners of n inside the proven
    window.  Returns the first partner unless cfg.report_all_partners; an
    exhausted window yields separable = False with the bound recorded.
    With cfg.prune, n = 2^k (k >= 3) takes the slot search pow2_partners up
    to the window's top, and candidates_tested counts its complete
    placements; every other n, and every n under --no-prune, takes
    scan(n, lo, hi, cfg) -> (partners, tested), the window scan.
    """
    lo, hi, degenerate = partner_window(n, cfg)
    if cfg.prune and n >= 8 and n & (n - 1) == 0:
        partners, tested = pow2_partners(n.bit_length() - 1, hi, cfg.report_all_partners)
    else:
        partners, tested = scan(n, lo, hi, cfg)
    return SeparabilityResult(
        n=n,
        separable=bool(partners) or degenerate,
        degenerate=degenerate,
        partners=partners,
        search_bound=hi,
        candidates_tested=tested,
    )


def census_batch(ns, cfg: SearchConfig = SearchConfig()) -> list[SeparabilityResult]:
    """find_partner(n, cfg) for each n of ns, in order, with every scan reading
    tau and least primes from one FactorTable."""
    scan = partial(scan_range, table=FactorTable())
    return [find_partner(n, cfg, scan) for n in ns]


def census(x: int, cfg: SearchConfig = SearchConfig()) -> list[SeparabilityResult]:
    """Separability results for every n <= x, ascending."""
    if x < 1:
        raise ValueError(f"census: x must be >= 1, got {x}")
    return census_batch(range(1, x + 1), cfg)


def count_separable(results, include_degenerate: bool = True) -> int:
    """A(x) over a result set; optionally excluding the degenerate rows
    (n = 1 and primes, separable only through vacuous pairs)."""
    return sum(
        1
        for r in results
        if r.separable and (include_degenerate or not r.degenerate)
    )


# --- census cache (JSON lines: a config header, then one row per n) ---------


def _cache_header(cfg: SearchConfig) -> str:
    """First line of a cache file.  Its rows are served only to a run with an
    equal header line: the same format tag and the same search config."""
    config = {"format": "interlock-census/1", "config": cfg._asdict()}
    return json.dumps(config, sort_keys=True)


def result_to_record(r: SeparabilityResult) -> dict:
    return {
        "n": r.n,
        "separable": r.separable,
        "degenerate": r.degenerate,
        "partners": list(r.partners),
        "bound": r.search_bound,
        "tested": r.candidates_tested,
    }


def record_to_result(rec: dict) -> SeparabilityResult:
    return SeparabilityResult(
        n=int(rec["n"]),
        separable=bool(rec["separable"]),
        degenerate=bool(rec["degenerate"]),
        partners=tuple(int(p) for p in rec["partners"]),
        search_bound=int(rec["bound"]),
        candidates_tested=int(rec["tested"]),
    )


def load_census_cache(
    path: str | Path, cfg: SearchConfig = SearchConfig()
) -> dict[int, SeparabilityResult]:
    """Rows cached under cfg.  A missing file, a file written under another
    config, one without a header (older code) or one with a row that does
    not parse gives an empty cache; the next write replaces the file."""
    path = Path(path)
    if not path.exists():
        return {}
    with path.open("r", encoding="utf-8") as fh:
        try:
            if fh.readline().strip() != _cache_header(cfg):
                return {}
            rows = [record_to_result(json.loads(line)) for line in fh if line.strip()]
        except (ValueError, KeyError, TypeError):  # a damaged file
            return {}
    return {r.n: r for r in rows}


def append_census_cache(
    path: str | Path, results, cfg: SearchConfig = SearchConfig()
) -> None:
    """Add rows to those cached under cfg (a row for the same n is replaced)
    and rewrite the file; rows of another config or of older code are
    dropped.  The file is written under a temporary name and moved into
    place, so a crash leaves either the old file or the complete new one."""
    path = Path(path)
    rows = load_census_cache(path, cfg)
    rows.update((r.n, r) for r in results)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        fh.write(_cache_header(cfg) + "\n")
        for r in rows.values():
            fh.write(json.dumps(result_to_record(r), sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# --- exhaustive non-separability verification for powers of two -------------

VERIFIED_RESIDUES = frozenset({1, 2, 9, 10})


class Pow2Report(
    namedtuple(
        "Pow2Report",
        "k n lo hi window_size odd_candidates tau_filtered partners confirmed",
    )
):
    """Exhaustion certificate for the non-separability of 2^k.

    The window (2^(k-1), 2^(k+2)) provably contains every possible partner:
    a partner must place a divisor strictly inside the top gap
    (2^(k-1), 2^k) of 2^k, so it exceeds 2^(k-1) (the general lower bound
    n/d2(n) + 1 of partner_search_bound); and the general search bound caps
    it below 2^k * d3(2^k) = 2^(k+2).  odd_candidates counts the odd m in the
    window; tau_filtered counts those that pass the position-aware tau
    filter (tau(m) = k below 2^k, k + 1 above).  confirmed = True means no
    candidate in the window interlocks with 2^k.
    """

    __slots__ = ()


def verify_pow2_nonseparable(k: int, scan=scan_range) -> Pow2Report:
    """Exhaustively confirm that 2^k has no interlocking partner.

    Only k > 2 with k = 1, 2, 9, 10 (mod 12) is accepted: those are the
    residue classes where non-separability is established; for other
    residues a partner may exist (e.g. 63 for k = 6), so exhaustion would
    be the wrong tool and find_partner should be used instead.
    scan(n, lo, hi, cfg) -> (partners, tested) runs the window scan.
    """
    if k <= 2 or k % 12 not in VERIFIED_RESIDUES:
        raise ValueError(
            f"verify_pow2_nonseparable: k = {k} is outside the verified classes; "
            "non-separability of 2^k is only established for k > 2 with "
            "k = 1, 2, 9, 10 (mod 12), and other residues may admit partners"
        )
    n = 1 << k
    lo, hi = (1 << (k - 1)) + 1, (1 << (k + 2)) - 1
    partners, tested = scan(n, lo, hi, SearchConfig(report_all_partners=True))
    return Pow2Report(
        k=k,
        n=n,
        lo=lo,
        hi=hi,
        window_size=hi - lo + 1,
        odd_candidates=len(range(lo | 1, hi + 1, 2)),
        tau_filtered=tested,
        partners=partners,
        confirmed=not partners,
    )
