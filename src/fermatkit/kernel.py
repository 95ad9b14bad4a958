"""Arbitrary-precision natural-number primitives.

Everything operates on plain Python ints restricted to non-negative
values; callers get a ValueError rather than a silently wrong answer
when a negative or otherwise out-of-domain value slips in. All results
are exact: no floating point anywhere.
"""

import math

from .primes import prime_factors


class Record:
    """Base of the namedtuple records: == holds only within one record type."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        return not self == other


def _check_nat(value, name):
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def modpow(base, exponent, modulus):
    """base**exponent mod modulus, reduced into [0, modulus)."""
    _check_nat(base, "base")
    _check_nat(exponent, "exponent")
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    return pow(base, exponent, modulus)


def isqrt(n):
    """floor(sqrt(n)); the result r satisfies r*r <= n < (r+1)*(r+1)."""
    _check_nat(n, "n")
    return math.isqrt(n)


def gcd(a, b):
    """Greatest common divisor; gcd(0, 0) == 0 by convention."""
    _check_nat(a, "a")
    _check_nat(b, "b")
    return math.gcd(a, b)


def digit_count(n):
    """Number of base-10 digits of n >= 1, by exact integer comparison.

    k starts at most floor(log10 n), as 1233 / 4096 < log10 2, and steps up.
    """
    if n < 1:
        raise ValueError(f"digit_count requires n >= 1, got {n}")
    k = (n.bit_length() - 1) * 1233 >> 12
    while 10 ** (k + 1) <= n:
        k += 1
    return k + 1


def divisors(n):
    """Divisors of n >= 1, ascending, from ``prime_factors(n)``; raises as it does."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    return expand_divisors(prime_factors(n) if n > 1 else ())


def expand_divisors(factors):
    """Divisors, ascending, of the product of p**e over the (p, e) pairs
    of a factorization."""
    found = [1]
    for p, e in factors:
        found += [d * p**k for k in range(1, e + 1) for d in found]
    return sorted(found)
