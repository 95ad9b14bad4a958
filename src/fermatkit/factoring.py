"""Factoring 2**n - 1 by primitive parts and restricted trial division.

A prime q of 2**n - 1 is primitive for one divisor d of n, the order of 2
mod q, and Fermat's theorem puts it in 1 mod d. So 2**n - 1 is the
product of the primitive parts of its divisors, and each part is divided
only by the primes of its admissible residue class, in increasing order,
so no composite candidate is ever tried. The scan, ``class_scan``, takes
them a segment at a time from the class sieve ``primes.class_segments``,
which it tells where it stops, and finds each segment's first divisor in
one pass; a part with no divisor up to its square root is prime, under
any budget. For n = 4h, h odd, Aurifeuille's identity first splits the
part by one gcd into two coprime halves, each scanned alone. The scan is
the library's one walk over a class: Frenicle's witness is its first
hit, and the M31 replay reads its trace.
``factor_nat`` wraps ``primes.prime_factors``.

The scan yields the trace, and the factors are read off its steps. It
keeps every candidate tried, but not one step per candidate: the scan
yields one MISS_RUN step per segment it misses through, so it holds at
most one segment's misses, and ``factor_mersenne`` joins adjacent runs,
so a trace holds O(hits) steps and its shape does not depend on where
segments end.
"""

import bisect
import functools
import itertools
import math
import operator
from collections import namedtuple

from .forms import generalized_class, primitive_class
from .kernel import Record, expand_divisors, isqrt
from .mersenne import mersenne
from .primes import class_segments, is_prime, prime_factors

COMPLETE = "complete"
PARTIAL = "partial"

PROPAGATED = "propagated"
ALGEBRAIC_SPLIT = "algebraic-split"
MISS_RUN = "candidate-miss-run"
CANDIDATE_MISS = "candidate-miss"  # how render writes each member of a run
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

    value is the prime divided out, the candidate that hit, the scan
    bound, for MISS_RUN the ascending tuple of the candidates missed in
    a row, or for ALGEBRAIC_SPLIT the pair of halves scanned in turn;
    source is the exponent d a propagated prime came from.
    """

    __slots__ = ()


class FactorTrace(Record, namedtuple("FactorTrace", "steps")):
    """The steps of one factor_mersenne call, in order. Runs are maximal,
    joined from the scan's runs per segment: no MISS_RUN step follows
    another, so equal scans give equal traces."""

    __slots__ = ()

    def candidates_tried(self):
        """Every candidate divided, run members and hits: ascending, or,
        after an ALGEBRAIC_SPLIT, ascending within each half's scan."""
        tried = []
        for s in self.steps:
            if s.rule == MISS_RUN:
                tried += s.value
            elif s.rule == CANDIDATE_HIT:
                tried.append(s.value)
        return tried

    def hits(self):
        return [s.value for s in self.steps if s.rule == CANDIDATE_HIT]


def factor_nat(n):
    """Complete factorization of n >= 2: gcd trial division by the primes
    up to 2**16, then the strong test, then Brent's rho."""
    return Factorization(n, prime_factors(n), COMPLETE)


def clear_cache():
    """Drop the cached factors of primitive parts (test isolation hook)."""
    _part.cache_clear()


def factor_mersenne(n, budget=None, refined=True):
    """Factor 2**n - 1; returns (Factorization, FactorTrace).

    2**n - 1 is the product of the primitive parts of the divisors of n.
    Each proper divisor d's part is scanned once per budget, through
    ``forms.primitive_class(d)`` whichever class n takes, and only its
    factors are cached. Each of its primes q becomes a PROPAGATED step
    with source d, the order of 2 mod q, and multiplicity e + v_q(n/d),
    by lifting the exponent. n's own part is scanned with its trace.

    budget caps the largest candidate value tried in every part's scan
    (default: the square root of the running cofactor, i.e. run to
    completion). refined scans n's part as the proper divisors' parts
    are scanned: through ``forms.primitive_class(n)``, halved by the
    quadratic character of 2 for every n but 4 mod 8, and for n = 4 mod 8
    as Aurifeuille's two halves when they split it (one ALGEBRAIC_SPLIT
    step, then each half's scan). Otherwise n's part is scanned whole
    through the plain class 1 mod n (mod 2n for odd n).
    """
    if n < 2:
        raise ValueError(f"factor_mersenne requires n >= 2, got {n}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    value = mersenne(n)
    # Ascending primes, each with its order d. v_q(n/d) = v_q(n), since
    # q = 1 mod d cannot divide d.
    lift = dict(prime_factors(n))
    found = sorted((q, d, e) for d in expand_divisors(lift.items())[1:-1]
                   for q, e in _part(d, budget))
    steps = [TraceStep(PROPAGATED, q, d, e + lift.get(q, 0)) for q, d, e in found]

    part = _primitive_part(n, lift)
    if part > 1:
        scan = (_refined_scan(n, part, budget) if refined
                else class_scan(part, generalized_class(n), budget))
        # The scan yields a run per segment; the trace joins adjacent runs,
        # extending one list, which is faster than chaining the tuples.
        for rule, run in itertools.groupby(scan, operator.attrgetter("rule")):
            run = list(run)
            if rule == MISS_RUN and len(run) > 1:
                run = [TraceStep(MISS_RUN, tuple(functools.reduce(
                    operator.iadd, (s.value for s in run), [])))]
            steps += run

    # Only the steps that divide something out carry a multiplicity.
    factors = tuple(sorted((s.value, s.multiplicity) for s in steps if s.multiplicity))
    left = value // math.prod(p**e for p, e in factors)
    fact = Factorization(value, factors, PARTIAL if left > 1 else COMPLETE, left)
    return fact, FactorTrace(tuple(steps))


def _primitive_part(n, primes):
    """Phi_n(2) / gcd(Phi_n(2), n): 2**n - 1 stripped, for each r of primes,
    the primes of n, of every prime of 2**(n/r) - 1 to its full multiplicity."""
    part = mersenne(n)
    for r in primes:
        while (g := math.gcd(part, mersenne(n // r))) > 1:
            part //= g
    return part


@functools.cache
def _part(d, budget):
    """The (prime, multiplicity) pairs that ``_refined_scan`` of d's
    primitive part finds within budget."""
    part = _primitive_part(d, dict(prime_factors(d)))
    steps = _refined_scan(d, part, budget) if part > 1 else ()
    return tuple((s.value, s.multiplicity) for s in steps if s.multiplicity)


def _refined_scan(n, part, budget):
    """class_scan of n's primitive part > 1 through ``primitive_class(n)``.

    For n = 4h, h odd, 2**(2h) + 1 = (2**h - 2**((h+1)/2) + 1) *
    (2**h + 2**((h+1)/2) + 1) (Aurifeuille), and the two factors are
    coprime: both are odd and they differ by a power of 2. The part
    divides the product, so its gcd with the first and the quotient are
    coprime halves; when both exceed 1 they are scanned in turn, after
    one ALGEBRAIC_SPLIT step.
    """
    cls = primitive_class(n)
    if n % 8 == 4:
        h = n // 4
        g = math.gcd(part, (1 << h) - (1 << (h + 1) // 2) + 1)
        if 1 < g < part:
            yield TraceStep(ALGEBRAIC_SPLIT, (g, part // g))
            yield from class_scan(g, cls, budget)
            part //= g
    yield from class_scan(part, cls, budget)


def class_scan(cofactor, cls, budget=None):
    """Divide cofactor by the primes of cls, ascending, yielding TraceSteps.

    Each segment is cut at stop = min(isqrt(cofactor), budget) and searched
    for its first divisor in one pass; the candidates before it, if any,
    are one MISS_RUN step, so the scan holds at most one segment's misses
    and a run of misses may span several steps.
    A segment read to its end sends stop to the walk, so the candidate
    past the stop that ends the scan seldom takes a segment more; how each
    segment is sieved and read is ``primes.class_segments``' to say.
    The last step is a CANDIDATE_HIT that leaves 1, COFACTOR_PRIME, or
    BUDGET_EXHAUSTED; a caller may stop reading at any step.
    """
    limit = isqrt(cofactor)
    segments = class_segments(cls)
    segment, i = next(segments), 0
    while True:
        stop = limit if budget is None else min(limit, budget)
        end = bisect.bisect_right(segment, stop, i)
        # The first divisor before the stop, else end: a sentinel 0 stands there.
        j = i + operator.indexOf(itertools.chain(
            map(cofactor.__mod__, itertools.islice(segment, i, end)), (0,)), 0)
        if j > i:
            yield TraceStep(MISS_RUN, tuple(segment[i:j]))
        if j == len(segment):
            segment, i = segments.send(stop), 0
            continue
        c = segment[j]
        if j == end:  # c is the first candidate past stop
            if c > limit:
                # Every prime divisor of the primitive cofactor lies in
                # the class, so an exhausted scan proves primality.
                yield TraceStep(COFACTOR_PRIME, cofactor, multiplicity=1)
            else:
                yield TraceStep(BUDGET_EXHAUSTED, budget)
            return
        e = 0
        while cofactor % c == 0:
            cofactor //= c
            e += 1
        yield TraceStep(CANDIDATE_HIT, c, multiplicity=e)
        if cofactor == 1:
            return
        limit = isqrt(cofactor)
        i = j + 1


def verify(f):
    """Recheck a Factorization: product, factor primality, status flags,
    strictly ascending primes, and none left in the unresolved cofactor.

    Each factor's primality is rechecked by ``is_prime``, a base flag or
    the strong test; a factor at or above ``primes.PSI13`` with no prime
    factor <= 41 raises ValueError.
    """
    product = f.unresolved_cofactor
    for p, e in f.factors:
        if e < 1 or not is_prime(p) or f.unresolved_cofactor % p == 0:
            return False
        product *= p**e
    if product != f.value:
        return False
    if any(p >= q for (p, _), (q, _) in itertools.pairwise(f.factors)):
        return False
    if f.status == COMPLETE:
        return f.unresolved_cofactor == 1
    if f.status == PARTIAL:
        return f.unresolved_cofactor > 1
    return False
