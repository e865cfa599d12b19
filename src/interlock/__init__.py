"""Interlocking divisor pairs.

Two integers interlock when between every two consecutive divisors (both
above 1) of each lies a divisor of the other; an integer is separable when
it has such a partner.  This package decides interlocking, searches proven
finite windows for partners, constructs explicit partners for suitable
powers of two with exact verification, and enumerates the interlocking
splits of primorials.

The names below are imported from their submodule on first use, so
``import interlock`` (or a CLI run) loads only the modules it needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names it exports here
_EXPORTS = {
    "arith": (
        "divisors divisors_from_factorization factorize first_primes is_prime next_prime "
        "primorial smallest_prime_divisor tau"
    ),
    "construction": (
        "ClaimDiagnostics ConstructionPlan ConstructionReport JumpParams build_pow2_partner "
        "count_bounded_jumps gap_census gap_ratio has_bounded_jumps plan_from_dict "
        "plan_to_dict verify_construction"
    ),
    "pairs": "GapWitness InterlockReport check_interlock",
    "precision": "PrecisionError",
    "primorials": (
        "PlacementReport PrimorialSplit enumerate_primorial_pairs placement_consensus"
    ),
    "separability": (
        "Pow2Report SearchBudgetError SearchConfig SeparabilityResult census "
        "count_separable find_partner partner_search_bound verify_pow2_nonseparable"
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
