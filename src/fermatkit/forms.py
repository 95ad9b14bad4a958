"""Residue classes that confine the possible prime divisors of 2**q - 1.

A primitive prime divisor of 2**q - 1, one that divides no 2**d - 1 for
a proper divisor d of q, is 1 mod q (mod 2q when q is odd); for an odd
prime q every prime divisor is primitive. The quadratic character of 2
halves that class for every q but 4 mod 8: such a prime is +-1 mod 8
for odd q, 1 or 3 mod 8 for q = 2 mod 4, and for 8 | q it is 1 mod 8,
so 2 is a square mod it and it is 1 mod 2q.
"""

from collections import namedtuple

from .kernel import Record, modpow
from .primes import is_prime


class CandidateClass(Record, namedtuple(
        "CandidateClass", "modulus residues target_exponent")):
    """Admissible residues mod ``modulus`` for prime divisors of 2**q - 1."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, modulus, residues, target_exponent):
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if not residues:
            raise ValueError("residue set must be non-empty")
        if any(not 0 <= r < modulus for r in residues):
            raise ValueError("every residue must lie in [0, modulus)")
        return super().__new__(cls, modulus, residues, target_exponent)


def _check_odd_prime(q, who):
    if q == 2 or not is_prime(q):
        raise ValueError(f"{who} requires an odd prime, got {q}")


def third_proposition_class(q):
    """Divisors of 2**q - 1 (q an odd prime) are 1 mod 2q."""
    _check_odd_prime(q, "third_proposition_class")
    return CandidateClass(2 * q, frozenset({1}), q)


def generalized_class(q):
    """Primitive prime divisors of 2**q - 1 are 1 mod q (mod 2q for odd q).

    Applies to primes not dividing 2**d - 1 for any proper divisor d of
    q; discharging that hypothesis is the factoring pipeline's job.
    """
    if q < 2:
        raise ValueError(f"generalized_class requires q >= 2, got {q}")
    modulus = 2 * q if q % 2 == 1 else q
    return CandidateClass(modulus, frozenset({1}), q)


def qr2(q):
    """Whether 2 is a quadratic residue mod the odd prime q.

    Euler's criterion: 2**((q-1)/2) == 1 mod q. Equivalent to
    q mod 8 in {1, 7}.
    """
    _check_odd_prime(q, "qr2")
    return modpow(2, (q - 1) // 2, q) == 1


def primitive_class(q):
    """The class of the primitive prime divisors of 2**q - 1, q >= 2.

    2 has order q mod such a prime p, so q | p - 1 and p = 1 mod 2h, with
    h = q for odd q and h = q/2 otherwise. For odd q, 2 = (2**((q+1)/2))**2
    is a square mod p, so p = +-1 mod 8; for q = 2 mod 4, 2**h = -1 mod p
    with h odd, so -2 is a square and p = 1 or 3 mod 8. Then h is odd, and
    the members of [1, 8h) that are 1 mod 2h, 1, 1 + 2h, 1 + 4h and 1 + 6h,
    lie one in each odd class mod 8: the two in those classes are kept,
    two residues mod 8h. For q = 0 mod 8, p = 1 mod 8, so 2 is a square
    mod p, 2**((p-1)/2) = 1 and q | (p - 1)/2: the class is 1 mod 2q
    (Lucas's 1 mod 128 for 2**32 + 1). For q = 4 mod 8, where p may be
    5 mod 8, it is ``generalized_class(q)``.
    """
    if q < 2:
        raise ValueError(f"primitive_class requires q >= 2, got {q}")
    if q % 8 == 0:
        return CandidateClass(2 * q, frozenset({1}), q)
    if q % 4 == 0:
        return generalized_class(q)
    h, kept = (q, (1, 7)) if q % 2 else (q // 2, (1, 3))
    residues = frozenset(r for r in range(1, 8 * h, 2 * h) if r % 8 in kept)
    return CandidateClass(8 * h, residues, q)


def euler_refined_class(q):
    """Intersect 1 mod 2q with +-1 mod 8, for an odd prime q: two residues
    mod 8q, ``primitive_class(q)``."""
    _check_odd_prime(q, "euler_refined_class")
    return primitive_class(q)


def sophie_germain_divisor(p):
    """2p + 1 when it is prime and p == 3 mod 4 (then it divides 2**p - 1).

    Returns None when the criterion does not apply. The divisibility is
    re-verified before the divisor is handed back.
    """
    if not is_prime(p):
        raise ValueError(f"sophie_germain_divisor requires a prime, got {p}")
    if p % 4 != 3:
        return None
    q = 2 * p + 1
    if not is_prime(q):
        return None
    if modpow(2, p, q) != 1:
        raise AssertionError(f"criterion failed for p={p}: {q} does not divide")
    return q
