"""Interlocking pairs whose product is a primorial.

A split of the first k primes into two disjoint sets gives m * n = P_k with
m, n squarefree and coprime.  Enumeration runs over the 2^(k-1) canonical
splits (2 always on the m side; the mirrored pair is implied) and keeps the
interlocking ones.  The boundary behaviour: a unique nondegenerate split for
each even k up to 8, nothing at all from k = 9 on.

placement_consensus also replays the argument for why large k dies: with 2
on the m side, each next prime is forced to one side because the other side
creates a gap between two certain divisors that no completion could
separate, until the forced assignment itself becomes contradictory (at
k >= 9 the m side owns 23 and 26, and neither 24 nor 25 can divide a
squarefree complement).  The chain is computed mechanically from the partial
assignments, not hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .arith import first_primes
from .pairs import check_interlock

MAX_SPLIT_K = 14  # 2^13 splits with <= 2^14-entry divisor lists: desk scale

# Definite-divisor gaps wider than this are not scanned during forced
# placement; the contradictions the chain needs all sit below ~30.
_GAP_SCAN_LIMIT = 64


@dataclass(frozen=True)
class PrimorialSplit:
    k: int
    m_primes: tuple[int, ...]
    n_primes: tuple[int, ...]
    m: int
    n: int
    interlocking: bool
    degenerate: bool
    trace: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ForcedStep:
    prime: int
    side: str  # "m" | "n"
    reason: str


@dataclass(frozen=True)
class ChainContradiction:
    side: str
    lower: int
    upper: int
    reason: str


@dataclass(frozen=True)
class ParityCertificate:
    """For odd k > 1 every split already fails the divisor-count relation:
    tau(m) and tau(n) are powers of two with odd exponent sum, so their
    difference is at least 2^((k-1)/2) > 1."""

    k: int
    min_tau_gap: int
    required_max: int  # an interlocking pair allows gaps of at most this


@dataclass(frozen=True)
class PlacementReport:
    k: int
    splits_scanned: int
    survivors: tuple[PrimorialSplit, ...]
    consensus: dict[int, str] | None  # prime -> "m"/"n"/"disagree"
    forced_chain: tuple[ForcedStep, ...]
    contradiction: ChainContradiction | None
    parity_certificate: ParityCertificate | None


def _squarefree_divisors(primes) -> tuple[int, ...]:
    divs = [1]
    for p in primes:
        divs += [d * p for d in divs]
    divs.sort()
    return tuple(divs)


def enumerate_primorial_pairs(k: int) -> list[PrimorialSplit]:
    """All interlocking canonical splits of P_k, sorted by m.

    k = 0 yields nothing: P_0 = 1 admits only the trivial (1, 1) split,
    which has no canonical orientation to report.  Splits that interlock
    only vacuously (a side that is 1 or a single prime) are returned with
    degenerate = True rather than dropped.
    """
    if k < 0:
        raise ValueError(f"enumerate_primorial_pairs: k must be >= 0, got {k}")
    if k > MAX_SPLIT_K:
        raise ValueError(
            f"enumerate_primorial_pairs: k = {k} exceeds the desk-scale cap "
            f"{MAX_SPLIT_K} (2^(k-1) splits with 2^k-entry divisor lists)"
        )
    if k == 0:
        return []
    primes = first_primes(k)
    rest = primes[1:]
    found: list[PrimorialSplit] = []
    for mask in range(1 << (k - 1)):
        n_side = tuple(p for j, p in enumerate(rest) if mask >> j & 1)
        m_side = (2,) + tuple(p for j, p in enumerate(rest) if not mask >> j & 1)
        m = prod(m_side)
        n = prod(n_side)
        div_m = _squarefree_divisors(m_side)
        div_n = _squarefree_divisors(n_side)
        report = check_interlock(m, n, div_m, div_n)
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
    found.sort(key=lambda s: s.m)
    return found


def _parity_certificate(k: int) -> ParityCertificate:
    """Direct computation of min |tau(m) - tau(n)| over all splits."""
    gap = min(abs((1 << a) - (1 << (k - a))) for a in range(k + 1))
    return ParityCertificate(k=k, min_tau_gap=gap, required_max=1)


# --- forced placement chain ---------------------------------------------------


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


def forced_placement_chain(
    k: int,
) -> tuple[tuple[ForcedStep, ...], ChainContradiction | None]:
    """Replay the forced side-assignment of each prime in ascending order.

    A prime is forced to one side when placing it on the other side creates
    an unseparable certain gap.  The chain stops at the first prime that is
    not forced, or returns the contradiction that survives even the forced
    placement (which certifies that no split of P_k interlocks).
    """
    primes = first_primes(k)
    assignment: dict[int, str] = {2: "m"}
    steps: list[ForcedStep] = [ForcedStep(2, "m", "canonical orientation")]
    for p in primes[1:]:
        on_m = {**assignment, p: "m"}
        on_n = {**assignment, p: "n"}
        contra_m = _find_contradiction(on_m, primes)
        contra_n = _find_contradiction(on_n, primes)
        if contra_m and contra_n:
            steps.append(ForcedStep(p, "m", "both sides contradictory"))
            return tuple(steps), contra_m
        if contra_m:
            assignment[p] = "n"
            steps.append(
                ForcedStep(p, "n", f"on m: gap ({contra_m.lower}, {contra_m.upper})")
            )
        elif contra_n:
            assignment[p] = "m"
            steps.append(
                ForcedStep(p, "m", f"on n: gap ({contra_n.lower}, {contra_n.upper})")
            )
        else:
            return tuple(steps), None  # no longer forced; chain ends
        final = _find_contradiction(assignment, primes)
        if final is not None:
            return tuple(steps), final
    return tuple(steps), None


def placement_consensus(k: int) -> PlacementReport:
    """Per-prime placement consensus over the surviving splits, with the
    forced chain attached; for empty k the report carries an emptiness
    certificate (parity for odd k, the chain contradiction for even k)."""
    survivors = tuple(enumerate_primorial_pairs(k))
    primes = first_primes(k)
    steps, contradiction = forced_placement_chain(k) if k >= 1 else ((), None)

    consensus: dict[int, str] | None = None
    parity = None
    if survivors:
        consensus = {}
        for p in primes:
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
