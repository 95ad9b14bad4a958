"""Prime generation and deterministic primality testing.

A single module-level sieve cache backs ``primes_up_to``,
``prime_factors`` and the class sieve. It grows on demand (doubling
until sufficient) and is rebuilt as a fresh list under a lock, so
concurrent readers only ever see complete tables. ``is_prime`` never
grows it: it looks n up in the cached primes when n is in range, and
otherwise runs strong probable-prime tests to the first 13 prime bases,
which decide primality exactly below PSI13 (Sorenson and Webster,
"Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).

``class_segments`` is the one walk over the primes of a residue class. It
sieves each progression k*m + r along k in segments, striking the
members divisible by a cached prime up to the square root of the
segment's largest member, so no member is trial-divided, and yields each
segment's primes as one ascending list. ``class_primes`` and
``primes_in_classes`` flatten it.
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


# The first 13 primes, and the least n that passes the strong test to all
# of them without being prime (Sorenson and Webster): below it the test
# is exact.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI13 = 3317044064679887385961981


def is_prime(n):
    """True iff n is prime, without growing the sieve.

    n up to the largest cached prime is looked up by bisection. Past it,
    n is divided by the 13 bases 2..41 and then, below PSI13, given the
    strong test to each base. n >= PSI13 without a factor <= 41 raises
    ValueError, since no base set here is proven exact for it.
    """
    primes = _cached_primes  # replaced, never mutated, by growth
    if primes and n <= primes[-1]:
        return primes[bisect.bisect_left(primes, n)] == n
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    if n >= PSI13:
        raise ValueError(
            f"is_prime is exact only below psi_13 = {PSI13}, got {n}"
        )
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
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


def class_segments(classes, limit=None):
    """Primes p with p mod classes.modulus in classes.residues, as ascending
    lists, one per sieve segment; together they ascend.

    Sieves the members k*modulus + r of every residue r along k, one
    segment of k values at a time, stopping past limit; with no limit
    the walk is unbounded. A segment may yield an empty list.
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
        if limit is not None and survivors and survivors[-1] > limit:
            yield survivors[: bisect.bisect_right(survivors, limit)]
            return
        yield survivors
        k0 += size
        size = min(2 * size, _MAX_SEGMENT)


def class_primes(classes, limit=None):
    """The primes of class_segments one at a time, ascending."""
    return itertools.chain.from_iterable(class_segments(classes, limit))


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
