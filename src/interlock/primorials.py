"""Interlocking pairs whose product is a primorial.

A split of the first k primes into two disjoint sets gives m * n = P_k with
m, n squarefree and coprime.  Only the 2^(k-1) canonical splits are
considered (2 always on the m side; the mirrored pair is implied).  The
boundary behaviour: a unique nondegenerate split for each even k up to 8,
nothing at all from k = 9 on.

One depth-first search, run by placement_consensus, decides every k.  It
places the primes in ascending order, 2 on the m side, and drops a partial
assignment as soon as it has a gap between two certain divisors of one
side that no completion could separate; check_interlock runs only on
complete splits.  Every canonical split is thus either pruned or tested,
and `splits_scanned` counts all 2^(k-1) of them.  The search's path from
the root, while exactly one side survives at each prime, is the forced
chain the report carries: it explains why large k dies, ending in a forced
assignment that is itself contradictory (at k >= 9 the m side owns 23 and
26, and neither 24 nor 25 can divide a squarefree complement).  The chain
is computed mechanically from the partial assignments, not hard-coded.
For every k tried (up to 1,000) each prime was forced, so the search was a
single path of at most 9 primes; the code does not rely on that.
"""

from __future__ import annotations

from collections import namedtuple
from math import prod

from .arith import divisors_from_factorization, factorize, first_primes
from .pairs import check_interlock

# Definite-divisor gaps wider than this are not scanned during the search;
# the contradictions the chain needs all sit below ~30.
_GAP_SCAN_LIMIT = 64


class PrimorialSplit(
    namedtuple(
        "PrimorialSplit",
        "k m_primes n_primes m n interlocking degenerate trace",
        defaults=(None,),
    )
):
    __slots__ = ()


class ForcedStep(namedtuple("ForcedStep", "prime side reason")):
    """side is "m" or "n"."""

    __slots__ = ()


class ChainContradiction(namedtuple("ChainContradiction", "side lower upper reason")):
    __slots__ = ()


class ParityCertificate(namedtuple("ParityCertificate", "k min_tau_gap required_max")):
    """For odd k > 1 every split already fails the divisor-count relation:
    tau(m) and tau(n) are powers of two with odd exponent sum, so their
    difference is at least 2^((k-1)/2) > 1.  An interlocking pair allows
    gaps of at most required_max."""

    __slots__ = ()


class PlacementReport(
    namedtuple(
        "PlacementReport",
        "k splits_scanned survivors consensus forced_chain contradiction "
        "parity_certificate",
    )
):
    """consensus maps each prime to "m", "n" or "disagree" (None when no
    split survives)."""

    __slots__ = ()


def _squarefree_divisors(primes) -> tuple[int, ...]:
    return divisors_from_factorization([(p, 1) for p in primes])


# --- the pruned search -------------------------------------------------------


def _possible(c: int, assignment: dict[int, str], largest: int) -> bool:
    """Could c divide m or n in some completion of the partial assignment,
    whose primes are those up to largest?  It can divide one side iff it is
    squarefree, its primes are among them and none of them is assigned to
    the other side; so one of the two iff its primes are not on both sides."""
    fac = factorize(c)
    squarefree_in_range = all(e == 1 and p <= largest for p, e in fac)
    return squarefree_in_range and not {"m", "n"} <= {assignment.get(p) for p, _ in fac}


def _find_contradiction(
    assignment: dict[int, str], primes: tuple[int, ...]
) -> ChainContradiction | None:
    """A gap between two certain divisors of one side that no completion can
    separate: every integer strictly between is impossible as a divisor of
    either member (impossible for the own side makes the two divisors truly
    consecutive; impossible for the other side leaves the gap uncut).  Such
    a gap dooms every extension of the assignment."""
    for side in ("m", "n"):
        definite = _squarefree_divisors([p for p, s in assignment.items() if s == side])
        above_one = [d for d in definite if d > 1]
        for lo, hi in zip(above_one, above_one[1:]):
            if hi - lo > _GAP_SCAN_LIMIT:
                continue  # too wide to certify cheaply; stay silent
            if not any(_possible(c, assignment, primes[-1]) for c in range(lo + 1, hi)):
                return ChainContradiction(
                    side=side,
                    lower=lo,
                    upper=hi,
                    reason=(
                        f"{lo} and {hi} both divide {side} with nothing of "
                        f"either member possible strictly between them"
                    ),
                )
    return None


def placement_consensus(k: int) -> PlacementReport:
    """The canonical splits of P_k, by one depth-first search.

    At each prime both extensions go to _find_contradiction, and a side is
    dropped once it fires.  The report holds the interlocking complete
    splits sorted by m (degenerate ones flagged, not dropped; none at k = 0,
    whose trivial (1, 1) split has no canonical orientation), their
    per-prime consensus and the forced chain: the path from the root while
    exactly one side survives, each step naming the pruned side's gap.  When
    neither side survives on that path, the m side's contradiction ends it;
    when no split survives at odd k > 1, the parity certificate says why.
    """
    if k < 0:
        raise ValueError(f"primorial: k must be >= 0, got {k}")
    primes = first_primes(k)
    found: list[PrimorialSplit] = []
    chain = [ForcedStep(2, "m", "canonical orientation")] if k else []
    contradiction = None
    stack = [({2: "m"}, True)] if k else []  # (partial assignment, still on the chain)
    while stack:
        assignment, forced = stack.pop()
        if len(assignment) == k:
            m_side = tuple(p for p in primes if assignment[p] == "m")
            n_side = tuple(p for p in primes if assignment[p] == "n")
            m, n = prod(m_side), prod(n_side)
            report = check_interlock(
                m, n, _squarefree_divisors(m_side), _squarefree_divisors(n_side)
            )
            if report.verdict:
                found.append(
                    PrimorialSplit(
                        k=k,
                        m_primes=m_side,
                        n_primes=n_side,
                        m=m,
                        n=n,
                        interlocking=True,
                        degenerate=report.degenerate,
                        trace=report.trace,
                    )
                )
            continue
        p = primes[len(assignment)]
        contra = {s: _find_contradiction({**assignment, p: s}, primes) for s in "mn"}
        live = [s for s in "mn" if contra[s] is None]
        if forced and len(live) == 1:
            pruned = "n" if live[0] == "m" else "m"
            gap = contra[pruned]
            chain.append(
                ForcedStep(p, live[0], f"on {pruned}: gap ({gap.lower}, {gap.upper})")
            )
        elif forced and not live:
            chain.append(ForcedStep(p, "m", "both sides contradictory"))
            contradiction = contra["m"]
        stack += [({**assignment, p: s}, forced and len(live) == 1) for s in live]
    survivors = tuple(sorted(found, key=lambda s: s.m))

    consensus: dict[int, str] | None = None
    parity = None
    if survivors:
        consensus = {}
        for p in primes:
            sides = {("m" if p in s.m_primes else "n") for s in survivors}
            consensus[p] = sides.pop() if len(sides) == 1 else "disagree"
    elif k % 2 == 1 and k > 1:
        # Direct computation of min |tau(m) - tau(n)| over all splits.
        gap = min(abs((1 << a) - (1 << (k - a))) for a in range(k + 1))
        parity = ParityCertificate(k=k, min_tau_gap=gap, required_max=1)

    return PlacementReport(
        k=k,
        splits_scanned=1 << (k - 1) if k >= 1 else 0,
        survivors=survivors,
        consensus=consensus,
        forced_chain=tuple(chain),
        contradiction=contradiction,
        parity_certificate=parity,
    )
