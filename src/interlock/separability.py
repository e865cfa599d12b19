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
which concatenates and sums.  Candidate pruning inside the window, all of
it on or off together through SearchConfig.prune (off with --no-prune):
  * gap rule (tau(n) >= 3): every gap (a, b) of n's consecutive divisors
    above 1 holds a divisor of a partner, so only multiples of some c with
    a < c < b are tested, for one gap: an empty one (b = a + 1, as for
    every n with 6 | n), leaving n no partner and no candidate, else the one
    of least ratio b/a, whose multiples have density about ln(b/a).
  * alternation filter: the taus the lemma below allows; odd m for even n > 2.
  * end-gap rules (tau(m), tau(n) >= 3): each gap of either member,
    lowest and top included, holds a divisor of the other.  With p < q the
    least divisors > 1 of n, pm the least prime of m, d3(m) = min(pm^2, m's
    second prime):
    1. pm != p (gcd(m, n) = 1, by the lemma below);
    2. n's largest divisor below m exceeds m/pm (m's top gap);
    3. m's largest divisor below n (m, or m/pm if m > n > m/pm) exceeds n/p;
    4. p < d3(m) if pm < p (p is n's least divisor above pm), and pm < q
       if p < pm (pm is m's least divisor above p).
All three prunings, and the window, are cross-validated against a
pruning-free oracle in the test suite rather than assumed.

The alternation lemma.  Let tau(n) >= 3, m != n interlock with n, and p,
q, pm be as in the end-gap rules; divisors and gaps are those above 1.  Each
gap of n holds exactly one divisor of m (two would leave a gap of m with no
divisor of n inside), and each gap of m one of n.  No d > 1 divides both:
if d > p, the one divisor of m in n's gap just below d and d itself are
consecutive divisors of m whose gap holds no divisor of n; if d = p, so are
p and the one divisor of m in (p, q).  So gcd(m, n) = 1, the merged divisors
strictly alternate, and counting the two ends (m's comes first iff pm < p,
last iff m > n) gives tau(m) - tau(n) = [pm < p] + [m > n] - 1.  So below n
tau(m) is tau(n) - 1 or tau(n), above it tau(n) or tau(n) + 1, the second
only if pm < p, which no even n allows, and every partner of an even n is
odd: for n = 2^k, tau(m) = k below n and k + 1 above.  The same sets hold
for prime n, whose partners are the primes, n among them, and the r^2 with
r < n < r^2 (tau 3, above n); n = 2 scans even m too, for its partner 2.

A scan runs each segment through one pipeline: gap marks (_gap_marks) AND a
tau mask, bytes.translate of byte taus (255 for any tau >= 255, so at
tau(n) >= 254 every m of tau >= 255 passes on to the interlock test, which
by the lemma fails a wrong tau) -> a walk reading the survivors one at a
time with bytes.find, none past a first hit -> the end-gap rules, from m's
least prime -> m's divisor list -> pairs.check_interlock_divisors.  No rule
skips n: the gap rule never marks it, and unpruned, n fails against itself
for tau(n) >= 3 (its gap (d2, d3) holds no divisor of n).  A census shares one
arith.FactorTable across all its n: byte taus, least primes and a bounded
memo of divisor lists.  A lone partner window, a pow2 certificate window
and a census window past the table's cap sieve their own taus and
trial-divide for least primes; the census window still reads its divisor
lists from the memo.

With pruning on, find_partner builds the partners of 2^k, k >= 3, instead
of scanning their window (pow2_partners).  By the alternation lemma, an odd
m interlocks with 2^k exactly when its divisors fill the slots
(2^(j-1), 2^j), j = 2..k, one each (bit length j), with at most one more,
m itself, above 2^k.  A depth-first search introduces m's divisors in
increasing order, each in a slot of its own, and tests every complete
placement with check_interlock_divisors.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left
from collections import namedtuple
from functools import partial
from itertools import chain

from .arith import FACTOR_TABLE_CAP, FactorTable, SearchBudgetError, _tau_bytes, divisors
from .arith import next_prime, smallest_prime_divisor
from .pairs import check_interlock_divisors

# Largest tau segment a scan sieves at once, in entries.
_SEGMENT_CAP = 1 << 16
# Nodes after which a 2^k slot search gives up; every least-partner search
# for k <= 61 visits at most 67,960 (see CHANGES.md).
POW2_SEARCH_BUDGET = 200_000


SearchConfig = namedtuple("SearchConfig", "prune report_all_partners", defaults=(True, False))


class SeparabilityResult(
    namedtuple(
        "SeparabilityResult",
        "n separable degenerate partners search_bound candidates_tested",
    )
):
    __slots__ = ()


class ChunkScan(namedtuple("ChunkScan", "partners passed")):
    """Result of scanning one candidate sub-range: the partners found, in
    ascending order, and how many candidates passed the gap rule and the
    alternation filter (for pow2_partners, its complete placements).
    (collections.namedtuple: typing.NamedTuple would import typing.)"""

    __slots__ = ()


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


def _gap(div_n: tuple[int, ...]):
    """The gap (a, b) of n's divisors above 1 that the gap rule reads (module
    doc; the first on ties), from n's divisor list; None if tau(n) <= 2."""
    best = None
    for a, b in zip(div_n[1:], div_n[2:]):
        if b == a + 1:
            return a, b
        if best is None or b * best[0] < best[1] * a:
            best = a, b
    return best


def _gap_marks(start: int, end: int, step: int, a: int, b: int) -> bytearray:
    """A flag per m in range(start, end + 1, step) (odd start when step = 2):
    1 where some c with a < c < b divides m.  Each such m = c * e, and the
    marks are set with one slice per value of whichever factor, c or its
    cofactor e, takes fewer values on [start, end]; under step = 2 only odd
    c and e give odd m."""
    marks, odd = bytearray(len(range(start, end + 1, step))), step - 1
    cs, es = range(a + 1, b), range(-(-start // (b - 1)), end // (a + 1) + 1)
    xs, ys = sorted((cs, es), key=len)
    for x in range(xs.start | odd, xs.stop, step):
        y0, y1 = max(ys.start, -(-start // x)) | odd, min(ys.stop - 1, end // x)
        if y0 <= y1:
            ones = b"\x01" * len(range(y0, y1 + 1, step))
            marks[(x * y0 - start) // step : (x * y1 - start) // step + 1 : x] = ones
    return marks


def scan_range(
    n: int, lo: int, hi: int, cfg: SearchConfig, div_n=None, table: FactorTable | None = None
) -> ChunkScan:
    """Scan the candidates in [lo, hi] against n in ascending order.

    div_n is n's divisor list, built here when not given.  With
    cfg.report_all_partners the scan checks the whole range; otherwise it
    stops at the first partner.  A report-all scan reads segments of
    _SEGMENT_CAP entries; a first-hit scan reads 64, 128, ... entries, at
    most _SEGMENT_CAP, so it reads little past its hit.  tau and least
    primes come from table, which grows to hold each segment, or, without a
    table or above its cap, from a tau sieve over the segment's own
    candidates (odd m only, for even n > 2 under pruning) and trial
    division.  Divisor lists come from the table's memo in every segment,
    or from divisors without a table.  Pure but for the table's growth and
    memo: safe to run per-chunk in parallel workers and merge with
    merge_chunk_scans.
    """
    div_n = divisors(n) if div_n is None else div_n
    tau_n = len(div_n)
    prune = cfg.prune
    gap = _gap(div_n) if prune else None
    if gap and gap[1] == gap[0] + 1:  # an empty gap: n has no partner
        return ChunkScan((), 0)
    odd_only = prune and n > 2 and n % 2 == 0
    # the taus the alternation lemma (module doc) allows below n and above it,
    # and bytes.translate tables, 1 at each allowed byte tau
    below, above = (range(tau_n - 1 + up, tau_n + n % 2 + up) for up in (0, 1))
    keep = [(bytes(min(r.start, 255)) + b"\x01" * len(r) + bytes(256))[:256] for r in (below, above)]

    partners: list[int] = []
    passed = 0
    divisors_of = divisors if table is None else table.divisors
    step = 2 if odd_only else 1
    # odd_only: start at the first odd m >= lo; report-all: in whole segments
    start, size = lo | (step - 1), _SEGMENT_CAP if cfg.report_all_partners else 64
    while start <= hi:
        end = min(start + step * (size - 1), hi)
        if table is not None and table.cover(end):
            least_prime = table.lpf.__getitem__
            taus = table.tau_bytes[start : end + 1 : step]
        else:
            least_prime = smallest_prime_divisor
            taus = _tau_bytes(start, end, step) if prune else None
        if prune:  # the alternation filter's mask, ANDed with the gap rule's marks
            k = len(range(start, min(end + 1, n), step))  # the m below n
            mask = taus[:k].translate(keep[0]) + taus[k:].translate(keep[1])
            if gap:
                marks = int.from_bytes(_gap_marks(start, end, step, *gap), "little")
                mask = (int.from_bytes(mask, "little") & marks).to_bytes(len(mask), "little")
        else:
            mask = b"\x01" * len(range(start, end + 1, step))
        i = mask.find(1)  # the walk: one survivor at a time
        while i >= 0:
            m, i = start + step * i, mask.find(1, i + 1)
            passed += 1
            if prune and not _end_gaps_allow(m, n, div_n, least_prime):
                continue
            if check_interlock_divisors(divisors_of(m), div_n):
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
    complete placements, each tested with its sorted divisors.

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
    cap = hi
    div_n = tuple(1 << i for i in range(k + 1))
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
            if check_interlock_divisors(sorted(ds), div_n):
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


def partner_window(n: int, div_n=None, bound=None) -> tuple[int, int, bool]:
    """(lo, hi, degenerate) for the partner scan of n; div_n, if given, is n's divisors.

    [lo, hi] provably contains every partner of n >= 2: [n/d2(n) + 1,
    n * d3(n)] when tau(n) >= 3, [2, n^2] otherwise (degenerate).  The
    containment claim is enforced by the bound-soundness test, not assumed
    here.  A bound (at least 2) replaces hi.  n = 1 gets the empty window
    [2, 1], whatever the bound: it is degenerate-separable by convention
    (it interlocks with every prime vacuously), so nothing needs scanning
    and the partner list stays empty.
    """
    if bound is not None and bound < 2:
        raise ValueError(f"partner search: the bound must be >= 2, got {bound}")
    if n < 1:
        raise ValueError(f"partner search: n must be >= 1, got {n}")
    if n == 1:
        return 2, 1, True
    divs = divisors(n) if div_n is None else div_n
    lo, hi = (n // divs[1] + 1, n * divs[2]) if len(divs) >= 3 else (2, n * n)
    return lo, hi if bound is None else bound, len(divs) <= 2


def find_partner(
    n: int, cfg: SearchConfig = SearchConfig(), scan=scan_range, div_n=None, bound=None
) -> SeparabilityResult:
    """Ascending search for interlocking partners of n inside the proven
    window, or up to bound when given.  Returns the first partner unless
    cfg.report_all_partners; an exhausted window yields separable = False
    with the bound recorded.
    With cfg.prune, n = 2^k (k >= 3) takes the slot search pow2_partners up
    to the window's top, and candidates_tested counts its complete
    placements; every other n, and every n under --no-prune, takes
    scan(n, lo, hi, cfg, div_n) -> (partners, tested), the window scan,
    with n's divisor list div_n (built here if not given) for the window and the scan.
    """
    if div_n is None and n >= 1 and (bound is None or bound >= 2):  # else partner_window refuses
        div_n = divisors(n)
    lo, hi, degenerate = partner_window(n, div_n, bound)
    if cfg.prune and n >= 8 and n & (n - 1) == 0:
        partners, tested = pow2_partners(n.bit_length() - 1, hi, cfg.report_all_partners)
    else:
        partners, tested = scan(n, lo, hi, cfg, div_n)
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
    tau and least primes from one FactorTable, whose memo also gives every
    divisor list, n's among them."""
    table = FactorTable()
    scan = partial(scan_range, table=table)
    return [find_partner(n, cfg, scan, table.divisors(n)) for n in ns]


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
    path: str | os.PathLike, cfg: SearchConfig = SearchConfig()
) -> dict[int, SeparabilityResult]:
    """Rows cached under cfg.  A missing file, a file written under another
    config, one without a header (older code), or one with a row that does
    not parse gives an empty cache; so does a row whose n is below 1 or above
    FACTOR_TABLE_CAP (no census writes one, and n is not factorized), whose
    degenerate is not tau(n) <= 2, whose separable is not degenerate or a
    partner listed, whose bound is not the top of n's partner_window, or
    with a partner outside that window or not interlocking with n.  The next
    write replaces the file.  A row with no partner is served without a
    scan, so its n is not proven partnerless: no cheap check shows that n
    has none."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            if fh.readline().strip() != _cache_header(cfg):
                return {}
            rows = [record_to_result(json.loads(line)) for line in fh if line.strip()]
            for n, separable, degenerate, partners, bound, _ in rows:
                if not 1 <= n <= FACTOR_TABLE_CAP:
                    return {}
                div_n = divisors(n)
                lo, hi, window_degenerate = partner_window(n, div_n)
                if (degenerate != window_degenerate or bound != hi
                        or separable != (degenerate or bool(partners))
                        or not all(lo <= m <= hi
                                   and check_interlock_divisors(divisors(m), div_n)
                                   for m in partners)):
                    return {}
        except (ValueError, KeyError, TypeError):  # a damaged file
            return {}
    return {r.n: r for r in rows}


def write_file_atomically(path, chunks) -> None:
    """Write the text chunks to path under a temporary name, fsync it and
    move it into place, so a crash leaves either the old file or the
    complete new one, and an error leaves the old one and no temporary."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_census_cache(
    path: str | os.PathLike, rows, cfg: SearchConfig = SearchConfig()
) -> None:
    """Replace the file with exactly these rows under cfg's header, through
    write_file_atomically.  The file is not read: the caller merges in the
    cached rows worth keeping."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    records = (json.dumps(result_to_record(r), sort_keys=True) + "\n" for r in rows)
    write_file_atomically(path, chain([_cache_header(cfg) + "\n"], records))


# --- exhaustive non-separability verification for powers of two -------------

VERIFIED_RESIDUES = frozenset({1, 2, 9, 10})


class Pow2Report(
    namedtuple(
        "Pow2Report",
        "k n lo hi window_size odd_candidates tau_filtered partners confirmed",
    )
):
    """Exhaustion certificate for the non-separability of 2^k.

    The window (2^(k-1), 2^(k+2)) = (2^k / d2(2^k), 2^k * d3(2^k)) holds
    every possible partner (module doc).  odd_candidates counts the odd m in it;
    tau_filtered counts the multiples of 3 among them (the gap rule) that
    pass the alternation filter (tau(m) = k below 2^k, k + 1 above).
    confirmed = True means no candidate in the window interlocks.
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
