"""Mersenne numbers, multiplicative orders, and the 1640 propositions.

``mersenne`` is the one place 2**n - 1 is built, and ``is_mersenne_prime``
(Lucas-Lehmer) the one place its primality is decided. The other
operations recompute a claimed divisibility fact and report whether it
holds, but the order checks of ``divisibility_conjecture_check`` and
``flt_sweep`` cannot report False: the order comes from p - 1 (ROADMAP
item 5 is the check that can fail). ``order`` reduces φ, from
``prime_factors`` alone, with an Euler check.
"""

from collections import namedtuple

from .kernel import Record, gcd
from .primes import _divide_out, is_prime, prime_factors, primes_up_to


class OrderRecord(Record, namedtuple("OrderRecord", "base modulus order")):
    """order is the least k >= 1 with modulus | base**k - 1."""

    __slots__ = ()


class SweepRecord(Record, namedtuple("SweepRecord", "checks counterexamples")):
    """checks counts the checks run; counterexamples lists the failed ones
    in sweep order, (p, a, None) where p does not divide a**(p-1) - 1 and
    (p, None, k) where the order k of 2 mod p does not divide p - 1."""

    __slots__ = ()


def mersenne(n):
    """The Mersenne number 2**n - 1 for n >= 1."""
    if n < 1:
        raise ValueError(f"mersenne requires exponent >= 1, got {n}")
    return (1 << n) - 1


def is_mersenne_prime(p):
    """Whether 2**p - 1 is prime, by the Lucas-Lehmer test.

    For an odd prime p, M_p is prime iff s_(p-2) == 0 mod M_p, where
    s_0 = 4 and s_(i+1) = s_i**2 - 2, reduced by shift and add (Crandall
    and Pomerance, Prime Numbers). M_2 = 3 is prime; a composite p
    gives a composite M_p (first proposition), and p < 2 gives no prime.
    """
    if p == 2:
        return True
    if not is_prime(p):
        return False
    m = mersenne(p)
    s = 4
    for _ in range(p - 2):
        s = _square_less_two(s, p, m)
    return s == 0


def _square_less_two(s, p, m):
    """s*s - 2 mod m = 2**p - 1, for 0 <= s < m, by shift and add."""
    x = s * s - 2
    x = (x & m) + (x >> p)  # 2**p = 1 mod m; x >> p = -1 at s = 0 or 1
    return x - m if x >= m else x


def order(base, modulus):
    """Multiplicative order of base mod modulus, by φ reduction with an Euler check.

    Requires base >= 2, modulus >= 3, gcd(base, modulus) == 1; without
    coprimality no power of the base is ever 1 mod the modulus. k starts at
    φ(modulus), from ``prime_factors(modulus)`` alone, is checked to be a
    multiple of the order (Euler), and loses each prime q of φ while
    base**(k/q) stays 1.
    """
    if base < 2:
        raise ValueError(f"order requires base >= 2, got {base}")
    if modulus < 3:
        raise ValueError(f"order requires modulus >= 3, got {modulus}")
    if gcd(base, modulus) != 1:
        raise ValueError(
            f"no exponent exists: gcd({base}, {modulus}) != 1"
        )
    k = 1
    for p, e in prime_factors(modulus):
        k *= p ** (e - 1) * (p - 1)
    if pow(base, k, modulus) != 1:
        raise AssertionError(f"Euler check fails: {base}**{k} mod {modulus} != 1")
    for q, _ in prime_factors(k):
        while k % q == 0 and pow(base, k // q, modulus) == 1:
            k //= q
    return OrderRecord(base, modulus, k)


def flt_check(p, a):
    """Whether p divides a**(p-1) - 1, for prime p not dividing a."""
    if not is_prime(p):
        raise ValueError(f"flt_check requires a prime p, got {p}")
    if a % p == 0:
        raise ValueError(f"flt_check requires p not dividing a ({p} | {a})")
    return pow(a, p - 1, p) == 1


def flt_sweep(max_p, bases):
    """The power-residue sweep over the primes p <= max_p, as a SweepRecord.

    The primes come from one ``primes_up_to(max_p)``, so none is tested
    again. Each base a that p does not divide is checked by one pow,
    p | a**(p-1) - 1 (Fermat, 1640), and each odd p by the order k of 2
    mod p, k | p - 1.
    """
    checks, counterexamples = 0, []
    for p in primes_up_to(max_p):
        tried = [a for a in bases if a % p]
        checks += len(tried)
        counterexamples += [(p, a, None) for a in tried if pow(a, p - 1, p) != 1]
        if p > 2:
            checks += 1
            k = order(2, p).order
            if (p - 1) % k:
                counterexamples.append((p, None, k))
    return SweepRecord(checks, tuple(counterexamples))


def divisibility_conjecture_check(p):
    """(k, holds): k = order of 2 mod p, holds = k divides p - 1.

    holds is True by construction, since ``order`` finds k by reducing
    p - 1; ROADMAP item 5 plans a check that can fail.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"requires an odd prime, got {p}")
    k = order(2, p).order
    return k, (p - 1) % k == 0


def exponent_progression(m, limit):
    """All n <= limit with m | 2**n - 1, by direct residue testing.

    m must be odd (and >= 3); m may be composite. The result equals the
    multiples of the order of 2 mod m, but is computed independently.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"requires an odd m >= 3, got {m}")
    if limit < 1:
        raise ValueError(f"requires limit >= 1, got {limit}")
    hits = []
    r = 2 % m
    for n in range(1, limit + 1):
        if r == 1:
            hits.append(n)
        r = r * 2 % m
    return hits


def second_proposition_check(p):
    """Whether 2p divides (2**p - 1) - 1, for an odd prime p.

    Also evaluates the equivalent form p | 2**(p-1) - 1 and insists the
    two agree before answering.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"requires an odd prime, got {p}")
    direct = (mersenne(p) - 1) % (2 * p) == 0
    alt = pow(2, p - 1, p) == 1
    if direct != alt:
        raise AssertionError(
            f"equivalent forms disagree for p={p}: {direct} vs {alt}"
        )
    return direct


def first_proposition_witness(n):
    """(d, M_d) witnessing that a composite exponent gives a composite value.

    d is n's least prime divisor: the least found by the gcds of
    ``prime_factors`` over the base primes up to isqrt(n), at most 65521,
    else the least prime of ``prime_factors(n)``, which runs only then. So
    it raises ValueError where ``prime_factors`` raises, as for 1000003
    times a prime past psi_13. 2**d - 1 then properly divides 2**n - 1.
    """
    if n >= 4:
        found = []
        _divide_out(n, found)
        d = found[0][0] if found else prime_factors(n)[0][0]
        if d < n:
            return d, mersenne(d)
    raise ValueError(f"requires a composite n >= 4, got {n}")
