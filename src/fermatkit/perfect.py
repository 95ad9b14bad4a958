"""Perfect numbers: aliquot sums, Euclid's construction, challenge scans.

Aliquot questions reduce to prime questions: the aliquot sum comes from
the factorization via the multiplicative sigma formula, and even perfect
numbers are enumerated through Euclid's pairing with Mersenne primes,
each decided by the Lucas-Lehmer test (``mersenne.is_mersenne_prime``).
A composite 2**p - 1 gets Fermat's witness, a prime q with 2**p = 1 mod q:
the first hit of ``factoring.class_scan``, the one walk over a class.
"""

from collections import namedtuple

from .factoring import CANDIDATE_HIT, class_scan
from .forms import euler_refined_class
from .kernel import Record, digit_count
from .mersenne import is_mersenne_prime, mersenne
from .primes import prime_factors, primes_up_to

MERSENNE_PRIME = "mersenne-prime"
IMPOSTER = "imposter"
UNRESOLVED = "unresolved"

# The largest witness frenicle_scan looks for by default. It lies past
# Cole's 193,707,721 for M67, so every p <= 100 keeps its witness, and it
# bounds the time of each scan: M101's least factor is 7.4e12.
FRENICLE_BUDGET = 1 << 28


class PerfectRecord(Record, namedtuple(
        "PerfectRecord", "exponent mersenne_prime perfect_number digits")):
    __slots__ = ()


class ExponentVerdict(Record, namedtuple(
        "ExponentVerdict", "exponent verdict witness digits", defaults=(None, None))):
    """verdict: MERSENNE_PRIME, IMPOSTER or UNRESOLVED; witness: for
    imposters, the least prime factor, found by the class scan within its
    budget; digits: of the paired perfect number, for primes."""

    __slots__ = ()


class ChallengeReport(Record, namedtuple(
        "ChallengeReport", "min_digits examined outcome", defaults=(None,))):
    """examined holds an ExponentVerdict per prime exponent, ascending."""

    __slots__ = ()


def aliquot_sum(n):
    """Sum of the proper divisors of n >= 1, via the sigma formula."""
    if n < 1:
        raise ValueError(f"aliquot_sum requires n >= 1, got {n}")
    if n == 1:
        return 0
    sigma = 1
    for p, e in prime_factors(n):
        sigma *= (p ** (e + 1) - 1) // (p - 1)
    return sigma - n


def is_perfect(n):
    """Whether n equals the sum of its proper divisors."""
    return aliquot_sum(n) == n


def euclid_perfect(n):
    """PerfectRecord for exponent n when 2**n - 1 is prime, else None."""
    if n < 2:
        raise ValueError(f"euclid_perfect requires n >= 2, got {n}")
    if not is_mersenne_prime(n):
        return None
    m = mersenne(n)
    perfect = m << (n - 1)
    return PerfectRecord(n, m, perfect, digit_count(perfect))


def enumerate_even_perfect(limit):
    """All even perfect numbers <= limit, via Euclid's construction."""
    found = []
    n = 2
    while True:
        perfect = mersenne(n) << (n - 1)
        if perfect > limit:
            break
        if is_mersenne_prime(n):
            found.append(perfect)
        n += 1
    return found


def frenicle_scan(min_digits, max_exponent, budget=FRENICLE_BUDGET):
    """Scan prime exponents for a perfect number with >= min_digits digits.

    Each prime p <= max_exponent is classified by the Lucas-Lehmer test
    as mersenne-prime (records the paired perfect number's digit count)
    or composite. A composite 2**p - 1 is an imposter when
    ``factoring.class_scan`` over its class (``euler_refined_class``)
    finds a prime factor up to budget: its first hit, the witness. Else it
    is unresolved (composite, no witness within budget). So the witness is
    the least prime factor only within budget. budget bounds the time of
    each scan, which holds at most one segment's misses, so it cannot be
    None.
    """
    if min_digits < 1:
        raise ValueError(f"min_digits must be >= 1, got {min_digits}")
    if max_exponent < 2:
        raise ValueError(f"max_exponent must be >= 2, got {max_exponent}")
    if budget is None or budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    examined = []
    outcome = None
    for p in primes_up_to(max_exponent):
        record = euclid_perfect(p)
        if record is not None:
            examined.append(ExponentVerdict(p, MERSENNE_PRIME, digits=record.digits))
            if outcome is None and record.digits >= min_digits:
                outcome = record
            continue
        scan = class_scan(mersenne(p), euler_refined_class(p), budget)
        witness = next((s.value for s in scan if s.rule == CANDIDATE_HIT), None)
        verdict = IMPOSTER if witness else UNRESOLVED
        examined.append(ExponentVerdict(p, verdict, witness=witness))
    return ChallengeReport(min_digits, tuple(examined), outcome)
