import bisect
import functools
import itertools
import math
import signal

import pytest

# Seconds any one test may run, where the platform has SIGALRM; the
# slowest test, a class scan under tracemalloc, takes about 9 s on a
# 2-core host.
TIME_LIMIT = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TIME_LIMIT seconds, so a loop that stops
    advancing fails the test instead of hanging the run."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past its {TIME_LIMIT} s limit")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


@functools.cache
def _oracle_flags(bits):
    """Flags for 0 .. 2**bits - 1, 1 iff prime, by this file's own sieve of
    Eratosthenes."""
    limit = 1 << bits
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return flags


@functools.cache
def _oracle_primes(bits):
    """Primes below 2**bits, from this file's own sieve."""
    return list(itertools.compress(range(1 << bits), _oracle_flags(bits)))


@pytest.fixture
def oracle_primes():
    """Primes below 2**bits from this file's sieve, as a function of bits."""
    return _oracle_primes


def trial_division_is_prime(n):
    """The trial division is_prime used before the strong test, as its oracle.

    Divides n by every prime up to isqrt(n); the primes come from a sieve
    in this file, so nothing here depends on fermatkit.primes.
    """
    if n < 2:
        return False
    root = math.isqrt(n)
    primes = _oracle_primes(max(10, root.bit_length()))
    for p in itertools.islice(primes, bisect.bisect_right(primes, root)):
        if n % p == 0:
            return False
    return True


@pytest.fixture
def cold_sieve():
    """No trial-division table, neither a product of the primes below 2**k
    nor the block products, as import leaves them. The fixture's value,
    called, clears them again."""
    from fermatkit import primes

    def clear():
        primes._below.cache_clear()
        primes._blocks.cache_clear()

    clear()
    return clear


@pytest.fixture
def no_sieve(monkeypatch):
    """Fails the test at any sieve built from here on, before it is built:
    past the base sieve, built at import, a test of a bound then fails
    fast, not by exhausting memory, where the bound breaks."""
    from fermatkit import primes

    def refuse(limit):
        raise AssertionError(f"a sieve to {limit} was built")

    monkeypatch.setattr(primes, "_sieve", refuse)


@pytest.fixture
def sieved(monkeypatch):
    """The widths of the class-walk sieves made from here on, one per
    progression of a sieved segment: each starts as a newline per member,
    bytearray(b"\n") * width, where a segment read from the base flags is
    sliced from them."""
    from fermatkit import primes

    widths = []

    class Counted(bytearray):
        def __mul__(self, width):
            widths.append(width)
            return bytearray(self) * width

    monkeypatch.setattr(primes, "bytearray", Counted, raising=False)
    return widths


@pytest.fixture
def trial_division():
    return trial_division_is_prime


def trial_division_factors(n):
    """The per-prime loop prime_factors replaced, kept as its oracle.

    Ascending (prime, multiplicity) pairs of n >= 2: divides by each prime
    in turn until p*p exceeds the cofactor, which is then prime or 1. The
    primes come from this file's sieve, not from fermatkit.primes, doubled
    only while the stop lies past it.
    """
    factors, tried = [], 0
    for bits in itertools.count(10):
        primes = _oracle_primes(bits)
        for p in itertools.islice(primes, tried, None):
            if p * p > n:
                return tuple(factors + [(n, 1)] if n > 1 else factors)
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                factors.append((p, e))
        tried = len(primes)


@pytest.fixture
def factor_loop():
    return trial_division_factors


def trial_division_divisors(n):
    """The loop divisors replaced, kept as its oracle: the divisors of n >= 1
    in ascending order, from every d up to isqrt(n) that divides n, paired
    with n // d."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@pytest.fixture
def divisor_loop():
    return trial_division_divisors


# The largest flag table walk_class grows: past it, a walk as sparse as a
# class of modulus 2*10**6 to 10**9 trial-divides its few members instead.
_WALK_FLAG_BITS = 24


def walk_class(classes, limit=None):
    """The per-candidate walk the class sieve replaced, kept as its oracle.

    Ascending k*modulus + r for k = 0, 1, ... and each residue r; stops
    past limit. Each member's primality is its flag in this file's sieve,
    doubled as the walk passes its end, up to 2**_WALK_FLAG_BITS; past
    that, trial_division_is_prime decides it.
    """
    residues = sorted(classes.residues)
    bits = 10
    flags = _oracle_flags(bits)
    for base in itertools.count(0, classes.modulus):
        for r in residues:
            c = base + r
            if limit is not None and c > limit:
                return
            while c >= len(flags) and bits < _WALK_FLAG_BITS:
                bits += 1
                flags = _oracle_flags(bits)
            if flags[c] if c < len(flags) else trial_division_is_prime(c):
                yield c


@pytest.fixture
def class_walk():
    return walk_class


def refined_residues_scan(q):
    """The scan euler_refined_class replaced, kept as its oracle: the
    residues in [1, 8q) that are 1 mod 2q and +-1 mod 8, found by trying
    every one of them."""
    two_q = 2 * q
    return frozenset(
        r for r in range(1, 8 * q) if r % two_q == 1 and r % 8 in (1, 7)
    )


@pytest.fixture
def refined_scan():
    return refined_residues_scan


def lucas_lehmer_mod(p):
    """The Lucas-Lehmer loop that reduced by %, kept as the oracle of the
    shift-add reduction: whether 2**p - 1 is prime, primality of p by this
    file's trial division."""
    if p == 2:
        return True
    if not trial_division_is_prime(p):
        return False
    m = (1 << p) - 1
    s = 4
    for _ in range(p - 2):
        s = (s * s - 2) % m
    return s == 0


@pytest.fixture
def lucas_lehmer_loop():
    return lucas_lehmer_mod


def naive_order(base, m):
    """The linear loop order() replaced, kept as its oracle.

    Multiplies by the base once per step until the power is 1 mod m, so
    it costs the order itself; base and m must be coprime.
    """
    r = base % m
    k = 1
    while r != 1:
        r = r * base % m
        k += 1
    return k


@pytest.fixture
def order_loop():
    return naive_order
