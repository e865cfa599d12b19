"""Interlocking divisor pairs.

Two integers interlock when between every two consecutive divisors (both
above 1) of each lies a divisor of the other; an integer is separable when
it has such a partner.  Each name is imported from the module that holds it:

- pairs: check_interlock decides whether two integers interlock.
- separability: find_partner searches n's proven finite window,
  partner_window gives that window, census runs every n <= x, and
  verify_pow2_nonseparable certifies that 2^k has no partner.
- construction: build_pow2_partner builds an explicit partner of 2^k and
  verify_construction checks it exactly.
- primorials: placement_consensus lists the interlocking splits of the
  first k primes, with a certificate when there are none.
- cli: run is the command line, in process.
"""

__version__ = "0.1.0"
