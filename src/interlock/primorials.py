"""Interlocking pairs whose product is a primorial.

A split of the first k primes into two disjoint sets gives m * n = P_k with
m, n squarefree and coprime.  Only the 2^(k-1) canonical splits are
considered (2 always on the m side; the mirrored pair is implied).  The
boundary behaviour: a unique nondegenerate split for each even k up to 8,
nothing at all from k = 9 on.

One depth-first search decides every k.  It places the primes in ascending
order, 2 on the m side, and drops a partial assignment as soon as it has a
gap between two certain divisors of one side that no completion could
separate; check_interlock runs only on complete splits.  Every canonical
split is thus either pruned or tested, and `splits_scanned` counts all
2^(k-1) of them.  The search's path from the root, while exactly one side
survives at each prime, is the forced chain that placement_consensus
reports: it explains why large k dies, ending in a forced assignment that
is itself contradictory (at k >= 9 the m side owns 23 and 26, and neither
24 nor 25 can divide a squarefree complement).  The chain is computed
mechanically from the partial assignments, not hard-coded.  For every k
tried (up to 1,000) each prime was forced, so the search was a single path
of at most 9 primes; the code does not rely on that.
"""

from __future__ import annotations

from collections import namedtuple
from math import prod

from .arith import divisors_from_factorization, first_primes
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


def _parity_certificate(k: int) -> ParityCertificate:
    """Direct computation of min |tau(m) - tau(n)| over all splits."""
    gap = min(abs((1 << a) - (1 << (k - a))) for a in range(k + 1))
    return ParityCertificate(k=k, min_tau_gap=gap, required_max=1)


# --- the pruned search -------------------------------------------------------


def _possible_divisor(
    c: int, side: str, assignment: dict[int, str], primes: tuple[int, ...]
) -> bool:
    """Could c divide the `side` member in some completion of the partial
    assignment?  Needs c squarefree with all prime factors among the first k
    primes and none assigned to the other side."""
    for p in primes:  # ascending
        if p * p > c:
            break
        if c % p == 0:
            c //= p
            if c % p == 0:
                return False  # square factor
            placed = assignment.get(p)
            if placed is not None and placed != side:
                return False
    if c > 1:
        # remaining cofactor is prime; must be one of the first k primes
        if c not in primes:
            return False
        placed = assignment.get(c)
        if placed is not None and placed != side:
            return False
    return True


def _find_contradiction(
    assignment: dict[int, str], primes: tuple[int, ...]
) -> ChainContradiction | None:
    """A gap between two certain divisors of one side that no completion can
    separate: every integer strictly between is impossible as a divisor of
    either member (impossible for the own side makes the two divisors truly
    consecutive; impossible for the other side leaves the gap uncut).  Such
    a gap dooms every extension of the assignment."""
    other = {"m": "n", "n": "m"}
    for side in ("m", "n"):
        definite = _squarefree_divisors([p for p, s in assignment.items() if s == side])
        above_one = [d for d in definite if d > 1]
        for lo, hi in zip(above_one, above_one[1:]):
            if hi - lo > _GAP_SCAN_LIMIT:
                continue  # too wide to certify cheaply; stay silent
            doomed = True
            for c in range(lo + 1, hi):
                if _possible_divisor(c, side, assignment, primes) or _possible_divisor(
                    c, other[side], assignment, primes
                ):
                    doomed = False
                    break
            if doomed:
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


def _search(
    k: int,
) -> tuple[list[PrimorialSplit], tuple[ForcedStep, ...], ChainContradiction | None]:
    """Depth-first search over the canonical splits of P_k.

    At each prime both extensions go to _find_contradiction, and a side is
    dropped once it fires.  Returns the interlocking complete splits sorted
    by m, the forced chain (the path from the root while exactly one side
    survives, each step naming the pruned side's gap) and, when neither
    side survives on that path, the m side's contradiction.
    """
    if k < 0:
        raise ValueError(f"enumerate_primorial_pairs: k must be >= 0, got {k}")
    if k == 0:
        return [], (), None
    primes = first_primes(k)
    found: list[PrimorialSplit] = []
    chain = [ForcedStep(2, "m", "canonical orientation")]
    contradiction = None
    stack = [({2: "m"}, True)]  # (partial assignment, still on the chain)
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
    found.sort(key=lambda s: s.m)
    return found, tuple(chain), contradiction


def enumerate_primorial_pairs(k: int) -> list[PrimorialSplit]:
    """All interlocking canonical splits of P_k, sorted by m.

    k = 0 yields nothing: P_0 = 1 admits only the trivial (1, 1) split,
    which has no canonical orientation to report.  Splits that interlock
    only vacuously (a side that is 1 or a single prime) are returned with
    degenerate = True rather than dropped.
    """
    return _search(k)[0]


def placement_consensus(k: int) -> PlacementReport:
    """Per-prime placement consensus over the surviving splits, with the
    forced chain attached; for empty k the report carries an emptiness
    certificate (parity for odd k, the chain contradiction for even k)."""
    found, steps, contradiction = _search(k)
    survivors = tuple(found)

    consensus: dict[int, str] | None = None
    parity = None
    if survivors:
        consensus = {}
        for p in first_primes(k):
            sides = {("m" if p in s.m_primes else "n") for s in survivors}
            consensus[p] = sides.pop() if len(sides) == 1 else "disagree"
    elif k % 2 == 1 and k > 1:
        parity = _parity_certificate(k)

    return PlacementReport(
        k=k,
        splits_scanned=1 << (k - 1) if k >= 1 else 0,
        survivors=survivors,
        consensus=consensus,
        forced_chain=steps,
        contradiction=contradiction,
        parity_certificate=parity,
    )
