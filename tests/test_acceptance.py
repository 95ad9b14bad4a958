"""Acceptance suite: one test per criterion, printing a pass/fail line.

Every comparison is exact integer (or exact string) equality; there are
no tolerances to tune. Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import functools
import math

import numpy as np
import pytest

from fermatkit.factoring import factor_mersenne, factor_nat
from fermatkit.forms import sophie_germain_divisor
from fermatkit.mersenne import (
    divisibility_conjecture_check,
    exponent_progression,
    mersenne,
    order,
)
from fermatkit.perfect import (
    IMPOSTER,
    MERSENNE_PRIME,
    enumerate_even_perfect,
    euclid_perfect,
    frenicle_scan,
)
from fermatkit.primes import primes_up_to
from fermatkit.replay import replay_m23_to_m36, replay_m31, replay_m37, replay_table1


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {title}")
                raise
            print(f"PASS criterion {number}: {title}")

        return wrapper

    return decorate


@criterion(1, "Table 1 reproduction (21 factorizations, exact)")
def test_table1_reproduction():
    report = replay_table1()
    assert len(report.items) == 21
    assert report.overall, [i for i in report.items if not i.passed]


@criterion(2, "M23-M36 reproduction including M29 and M31 prime")
def test_m23_m36_reproduction():
    report = replay_m23_to_m36()
    by_label = {i.label: i for i in report.items}
    assert by_label["M29"].computed == "233·1103·2089"
    assert by_label["M31"].computed == "2147483647 (prime)"
    assert report.overall, [i for i in report.items if not i.passed]


@criterion(3, "M37: candidates 149 then 223, cofactor prime, 22 digits")
def test_m37_reproduction():
    fact, trace = factor_mersenne(37, refined=False)
    tried = trace.candidates_tried()
    assert tried[:2] == [149, 223]
    assert trace.hits() == [223]
    assert fact.factors == ((223, 1), (616318177, 1))
    report = replay_m37()
    assert report.overall, [i for i in report.items if not i.passed]


@criterion(4, "Euler's M31 scan: {1,63} mod 248, 4792 primes, 84 candidates")
def test_m31_reproduction():
    report = replay_m31()
    by_label = {i.label: i.computed for i in report.items}
    assert by_label["residue classes"] == "mod 248: 1, 63"
    assert by_label["primes below 46339"] == "4792"
    assert by_label["candidate count"] == "84"
    assert by_label["first candidate"] == "311"
    assert by_label["divisor hits"] == "0"
    assert by_label["perfect number"] == "2305843008139952128"
    assert by_label["perfect-number digits"] == "19"
    assert report.overall


@criterion(5, "Power-residue sweep: primes <= 10^4, bases 2..50")
def test_flt_sweep():
    counterexamples = []
    for p in primes_up_to(10**4):
        for a in range(2, 51):
            if a % p == 0:
                continue
            if pow(a, p - 1, p) != 1:
                counterexamples.append((p, a))
    assert counterexamples == []


@criterion(6, "Order-divisibility sweep: odd primes <= 10^5")
def test_divisibility_sweep():
    counterexamples = []
    for p in primes_up_to(10**5):
        if p == 2:
            continue
        k, holds = divisibility_conjecture_check(p)
        if not holds:
            counterexamples.append((p, k))
    assert counterexamples == []


@criterion(7, "Order/progression equivalence for all odd m <= 2001")
def test_progression_equivalence():
    for m in range(3, 2002, 2):
        k = order(2, m).order
        limit = 4 * k
        direct = exponent_progression(m, limit)
        assert direct == [k, 2 * k, 3 * k, 4 * k], m


@criterion(8, "Pipeline equals trial-division oracle for n in [2, 40]")
def test_factorizer_oracle_equivalence():
    for n in range(2, 41):
        pipeline, _ = factor_mersenne(n)
        oracle = factor_nat(mersenne(n))
        assert pipeline.status == "complete"
        assert pipeline.prime_multiset() == oracle.prime_multiset(), n


@criterion(9, "Even perfect numbers to 10^7 match the sigma sieve")
def test_even_perfect_numbers():
    limit = 10**7
    # sums[n] adds every d < n dividing n: each pair d, k >= 2 with
    # k*d <= limit once, by d for d <= s and by the multiplier k for d > s.
    s = math.isqrt(limit)
    sums = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, s + 1):
        sums[2 * d :: d] += d
    for k in range(2, limit // (s + 1) + 1):
        sums[k * (s + 1) : k * (limit // k) + 1 : k] += np.arange(
            s + 1, limit // k + 1
        )
    brute = [
        int(n)
        for n in np.nonzero(sums == np.arange(limit + 1, dtype=np.int64))[0]
        if n >= 2
    ]
    even_brute = [n for n in brute if n % 2 == 0]
    assert even_brute == [6, 28, 496, 8128]
    assert enumerate_even_perfect(limit) == even_brute
    assert euclid_perfect(5).perfect_number == 496


@criterion(10, "Sophie Germain criterion: known divisors and non-cases")
def test_sophie_germain_criterion():
    assert sophie_germain_divisor(3) == 7
    assert sophie_germain_divisor(11) == 23
    assert sophie_germain_divisor(23) == 47
    assert sophie_germain_divisor(83) == 167
    assert sophie_germain_divisor(131) == 263
    assert sophie_germain_divisor(13) is None
    assert sophie_germain_divisor(29) is None
    for p, q in [(3, 7), (11, 23), (23, 47), (83, 167), (131, 263)]:
        assert mersenne(p) % q == 0


@criterion(11, "Frenicle challenge: 31 near-miss at 19 digits, 37 imposter")
def test_frenicle_challenge():
    report = frenicle_scan(20, 37)
    assert report.outcome is None
    by_exponent = {v.exponent: v for v in report.examined}
    assert by_exponent[31].verdict == MERSENNE_PRIME
    assert by_exponent[31].digits == 19
    assert by_exponent[37].verdict == IMPOSTER
    assert by_exponent[37].witness == 223
