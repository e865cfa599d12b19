"""Interlocking divisor pairs.

Two integers interlock when between every two consecutive divisors (both
above 1) of each lies a divisor of the other; an integer is separable when
it has such a partner.  This package decides interlocking, searches proven
finite windows for partners, constructs explicit partners for suitable
powers of two with exact verification, and enumerates the interlocking
splits of primorials.
"""

from .arith import (
    divisors,
    divisors_from_factorization,
    factorize,
    first_primes,
    is_prime,
    next_prime,
    primorial,
    smallest_prime_divisor,
    tau,
    warm_sieve,
)
from .construction import (
    ClaimDiagnostics,
    ConstructionPlan,
    ConstructionReport,
    CoverageReport,
    JumpConstant,
    JumpParams,
    MixedRadixDigits,
    SearchBudgetError,
    build_pow2_partner,
    count_bounded_jumps,
    gap_census,
    gap_ratio,
    has_bounded_jumps,
    interval_coverage_diagnostic,
    jump_constant,
    mixed_radix_compose,
    mixed_radix_decompose,
    plan_from_dict,
    plan_to_dict,
    verify_construction,
)
from .pairs import (
    GapWitness,
    InterlockReport,
    TauRelation,
    check_alternation,
    check_interlock,
    tau_relation,
)
from .precision import PrecisionError, precision_bits
from .primorials import (
    PlacementReport,
    PrimorialSplit,
    enumerate_primorial_pairs,
    placement_consensus,
)
from .separability import (
    Pow2Report,
    SearchConfig,
    SeparabilityResult,
    census,
    count_separable,
    find_partner,
    partner_search_bound,
    verify_pow2_nonseparable,
)

__version__ = "0.1.0"
