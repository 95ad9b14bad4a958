"""Prime generation and deterministic primality testing.

A single module-level sieve cache backs ``primes_up_to`` and ``is_prime``.
It grows on demand (doubling until sufficient) and is rebuilt as a fresh
list under a lock, so concurrent readers only ever see complete tables.
Primality is decided by trial division against sieve primes up to the
square root: everything in scope is small enough that no probabilistic
test is needed. ``class_primes`` is the one walk over the primes of a
residue class; it tests each member k*m + r and sieves nothing up front.
"""

import bisect
import itertools
import threading

from .kernel import isqrt


def _sieve_list(limit):
    """Sieve of Eratosthenes: list of all primes <= limit."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


_lock = threading.RLock()
_cached_limit = 0
_cached_primes = []


def primes_up_to(limit):
    """All primes <= limit, served from the shared doubling cache."""
    global _cached_limit, _cached_primes
    if limit < 2:
        return []
    with _lock:
        if limit > _cached_limit:
            target = max(limit, 2 * _cached_limit, 1 << 10)
            _cached_primes = _sieve_list(target)
            _cached_limit = target
        hi = bisect.bisect_right(_cached_primes, limit)
        return _cached_primes[:hi]


def is_prime(n):
    """True iff n is prime, by trial division up to isqrt(n)."""
    if n < 2:
        return False
    for p in primes_up_to(isqrt(n)):
        if n % p == 0:
            return False
    return True


def class_primes(classes, limit=None):
    """Primes p with p mod classes.modulus in classes.residues, ascending.

    Walks k*modulus + r for k = 0, 1, ... and each residue r in order,
    stopping past limit; with no limit the walk is unbounded.
    """
    if not classes.residues:
        raise ValueError("candidate class has an empty residue set")
    residues = sorted(classes.residues)
    for base in itertools.count(0, classes.modulus):
        for r in residues:
            c = base + r
            if limit is not None and c > limit:
                return
            if is_prime(c):
                yield c


def primes_in_classes(limit, classes):
    """Primes p <= limit with p mod classes.modulus in classes.residues."""
    return list(class_primes(classes, limit))
