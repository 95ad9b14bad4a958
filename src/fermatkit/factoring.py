"""Factoring 2**n - 1 by divisor propagation plus restricted trial division.

The pipeline mirrors the 1640 method: primes of 2**d - 1 for proper
divisors d of n are divided out first (to full multiplicity), then the
remaining cofactor is divided only by the primes of its admissible
residue class, in increasing order, as the segmented class sieve
``primes.class_primes`` yields them, so no composite candidate is ever
tried. A cofactor that survives all candidates up to its square root is
prime. ``factor_nat`` is the independent plain-trial-division oracle.
"""

import threading
from collections import namedtuple

from .forms import euler_refined_class, generalized_class
from .kernel import Record, divisors, isqrt
from .mersenne import mersenne
from .primes import class_primes, is_prime, prime_factors

COMPLETE = "complete"
PARTIAL = "partial"

PROPAGATED = "propagated"
CANDIDATE_MISS = "candidate-miss"
CANDIDATE_HIT = "candidate-hit"
COFACTOR_PRIME = "cofactor-prime"
BUDGET_EXHAUSTED = "budget-exhausted"


class Factorization(Record, namedtuple(
        "Factorization", "value factors status unresolved_cofactor", defaults=(1,))):
    """factors: ((prime, multiplicity), ...) ascending; status: COMPLETE or
    PARTIAL, when unresolved_cofactor holds what is left of value."""

    __slots__ = ()

    def prime_multiset(self):
        """Primes with repetition, ascending."""
        return [p for p, e in self.factors for _ in range(e)]


class TraceStep(Record, namedtuple(
        "TraceStep", "rule value source multiplicity", defaults=(None, 0))):
    """One pipeline event.

    value is the prime divided out, the candidate tried, or the scan
    bound; source is the exponent d a propagated prime came from.
    """

    __slots__ = ()


class FactorTrace(Record, namedtuple("FactorTrace", "steps")):
    __slots__ = ()

    def candidates_tried(self):
        return [
            s.value
            for s in self.steps
            if s.rule in (CANDIDATE_MISS, CANDIDATE_HIT)
        ]

    def hits(self):
        return [s.value for s in self.steps if s.rule == CANDIDATE_HIT]


def factor_nat(n):
    """Complete factorization of n >= 2 by plain trial division."""
    return Factorization(n, prime_factors(n), COMPLETE)


_memo = {}
_memo_lock = threading.Lock()


def clear_cache():
    """Drop memoized factorizations (test isolation hook)."""
    with _memo_lock:
        _memo.clear()


def factor_mersenne(n, budget=None, refined=True):
    """Factor 2**n - 1; returns (Factorization, FactorTrace).

    budget caps the largest candidate value tried in the restricted
    scan (default: the square root of the running cofactor, i.e. run to
    completion). refined selects the quadratic-character classes for odd
    prime n; the plain 1-mod-2n class is used otherwise.
    """
    if n < 2:
        raise ValueError(f"factor_mersenne requires n >= 2, got {n}")
    key = (n, refined)
    if budget is None:
        with _memo_lock:
            if key in _memo:
                return _memo[key]
    elif budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    result = _factor_mersenne_uncached(n, budget, refined)
    if budget is None:
        with _memo_lock:
            _memo.setdefault(key, result)
    return result


def _factor_mersenne_uncached(n, budget, refined):
    value = mersenne(n)
    cofactor = value
    steps = []
    counts = {}

    # Inherited primes: every prime of 2**d - 1 for proper d | n divides
    # 2**n - 1. Keep the smallest d each prime came from.
    inherited = {}
    for d in divisors(n):
        if d == 1 or d == n:
            continue
        sub, _ = factor_mersenne(d, None, refined)
        for p, _e in sub.factors:
            inherited.setdefault(p, d)
    for p in sorted(inherited):
        e = 0
        while cofactor % p == 0:
            cofactor //= p
            e += 1
        counts[p] = e
        steps.append(TraceStep(PROPAGATED, p, source=inherited[p], multiplicity=e))

    status = COMPLETE
    if cofactor > 1:
        if refined and n % 2 == 1 and is_prime(n):
            cls = euler_refined_class(n)
        else:
            cls = generalized_class(n)
        limit = isqrt(cofactor)
        for c in class_primes(cls):
            if c > limit:
                # Every prime divisor of the primitive cofactor lies in
                # the class, so an exhausted scan proves primality.
                counts[cofactor] = 1
                steps.append(TraceStep(COFACTOR_PRIME, cofactor, multiplicity=1))
                cofactor = 1
                break
            if budget is not None and c > budget:
                status = PARTIAL
                steps.append(TraceStep(BUDGET_EXHAUSTED, budget))
                break
            if cofactor % c == 0:
                e = 0
                while cofactor % c == 0:
                    cofactor //= c
                    e += 1
                counts[c] = e
                steps.append(TraceStep(CANDIDATE_HIT, c, multiplicity=e))
                if cofactor == 1:
                    break
                limit = isqrt(cofactor)
            else:
                steps.append(TraceStep(CANDIDATE_MISS, c))

    factors = tuple(sorted((p, e) for p, e in counts.items()))
    fact = Factorization(value, factors, status, cofactor if status == PARTIAL else 1)
    return fact, FactorTrace(tuple(steps))


def verify(f):
    """Recheck a Factorization: product, factor primality, status flags.

    Each factor's primality is rechecked by ``is_prime``, a cache lookup
    or the 13-base strong test, so no sieve grows; a factor at or above
    ``primes.PSI13`` with no prime factor <= 41 raises ValueError.
    """
    product = f.unresolved_cofactor
    for p, e in f.factors:
        if e < 1 or not is_prime(p):
            return False
        product *= p**e
    if product != f.value:
        return False
    if list(f.factors) != sorted(f.factors):
        return False
    if f.status == COMPLETE:
        return f.unresolved_cofactor == 1
    if f.status == PARTIAL:
        return f.unresolved_cofactor > 1
    return False
