"""Prime generation and deterministic primality testing.

A single module-level sieve cache backs ``primes_up_to``, ``is_prime``
and the class sieve. It grows on demand (doubling until sufficient) and
is rebuilt as a fresh list under a lock, so concurrent readers only ever
see complete tables. Primality is decided by trial division against
sieve primes up to the square root: everything in scope is small enough
that no probabilistic test is needed.

``class_primes`` is the one walk over the primes of a residue class. It
sieves each progression k*m + r along k in segments, striking the
members divisible by a cached prime up to the square root of the
segment's largest member, so no member is trial-divided.
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
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(itertools.compress(range(limit + 1), flags))


_lock = threading.RLock()
_cached_limit = 0
_cached_primes = []


def shared_primes(limit):
    """The shared prime list and how many of its primes are <= limit.

    The list is the cache itself, not a copy: callers read it and never
    mutate it. Growth replaces the list and never changes an old one, so
    the reference stays valid after the lock is released.
    """
    global _cached_limit, _cached_primes
    with _lock:
        if limit > max(_cached_limit, 1):
            target = max(limit, 2 * _cached_limit, 1 << 10)
            _cached_primes = _sieve_list(target)
            _cached_limit = target
        primes = _cached_primes
    return primes, bisect.bisect_right(primes, limit)


def primes_up_to(limit):
    """All primes <= limit, as a fresh list served from the shared cache."""
    primes, count = shared_primes(limit)
    return primes[:count]


def is_prime(n):
    """True iff n is prime, by trial division up to isqrt(n)."""
    if n < 2:
        return False
    primes, count = shared_primes(isqrt(n))
    for p in itertools.islice(primes, count):
        if n % p == 0:
            return False
    return True


def prime_factors(n):
    """Ascending (prime, multiplicity) pairs of n >= 2, by trial division.

    Tries the cached primes first; grows the sieve only while p*p <= the cofactor.
    """
    if n < 2:
        raise ValueError(f"prime_factors requires n >= 2, got {n}")
    factors = []
    tried = bound = 0
    while bound < isqrt(n):
        bound = max(2 * bound, _cached_limit, 1 << 10)
        primes, count = shared_primes(min(bound, isqrt(n)))
        for p in itertools.islice(primes, tried, count):
            if p * p > n:
                break
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                factors.append((p, e))
        tried = count
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


# k values per segment of the class sieve: the first segment is small so
# that a scan which stops early stays cheap, then each doubles up to the
# cap, which bounds the sieve's memory.
_FIRST_SEGMENT = 64
_MAX_SEGMENT = 1 << 16


def class_primes(classes, limit=None):
    """Primes p with p mod classes.modulus in classes.residues, ascending.

    Sieves the members k*modulus + r of every residue r along k, one
    segment of k values at a time, stopping past limit; with no limit
    the walk is unbounded.
    """
    if not classes.residues:
        raise ValueError("candidate class has an empty residue set")
    m = classes.modulus
    residues = sorted(classes.residues)
    # Per residue, one (step, root, k_min) per sieving prime p: the
    # members with k = root mod step and k >= k_min are multiples of p
    # other than p itself. When p | m every member is r mod p, so p
    # strikes all of them (step 1) if p | r, and none otherwise.
    plans = [[] for _ in residues]
    planned = 0
    k0, size = 0, _FIRST_SEGMENT
    while limit is None or k0 * m + residues[0] <= limit:
        if limit is not None:
            size = min(size, (limit - residues[0]) // m + 1 - k0)
        primes, count = shared_primes(isqrt((k0 + size - 1) * m + residues[-1]))
        for p in itertools.islice(primes, planned, count):
            inverse = pow(m, -1, p) if m % p else None
            for plan, r in zip(plans, residues):
                k_min = -((r - p * p) // m)  # first member >= p*p
                if inverse is not None:
                    plan.append((p, -r * inverse % p, k_min))
                elif r % p == 0:
                    plan.append((1, 0, k_min))
        planned = count

        survivors = sorted(
            itertools.chain.from_iterable(
                _sieve_segment(plan, m, r, k0, size)
                for plan, r in zip(plans, residues)
            )
        )
        for c in survivors:
            if limit is not None and c > limit:
                return
            yield c
        k0 += size
        size = min(2 * size, _MAX_SEGMENT)


def _sieve_segment(plan, m, r, k0, size):
    """Members k*m + r, k0 <= k < k0 + size, that no strike in plan hits.

    These are exactly the primes among them when plan covers every prime
    up to the square root of the largest member.
    """
    flags = bytearray([1]) * size
    if k0 == 0 and r < 2:
        flags[0] = 0
    for step, root, k_min in plan:
        lo = max(k0, k_min)
        start = lo + (root - lo) % step - k0
        if start < size:
            flags[start::step] = bytes(len(range(start, size, step)))
    first = k0 * m + r
    return itertools.compress(range(first, first + size * m, m), flags)


def primes_in_classes(limit, classes):
    """Primes p <= limit with p mod classes.modulus in classes.residues."""
    return list(class_primes(classes, limit))
