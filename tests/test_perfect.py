import math
import os
import random
import subprocess
import sys

import pytest

import fermatkit
from fermatkit.perfect import (
    FRENICLE_BUDGET,
    IMPOSTER,
    MERSENNE_PRIME,
    UNRESOLVED,
    aliquot_sum,
    enumerate_even_perfect,
    euclid_perfect,
    frenicle_scan,
    is_perfect,
)
from fermatkit.render import challenge_text


def brute_aliquot(n):
    return sum(d for d in range(1, n) if n % d == 0)


class TestAliquotSum:
    @pytest.mark.parametrize("n,expected", [(6, 6), (28, 28), (1, 0)])
    def test_known_values(self, n, expected):
        assert aliquot_sum(n) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            aliquot_sum(0)

    def test_matches_divisor_enumeration(self):
        for n in range(1, 10**4 + 1):
            assert aliquot_sum(n) == brute_aliquot(n)

    def test_matches_sigma_below_10_to_9(self, factor_loop):
        # The sweep's input shape: roots up to 31,622 reach the second gcd,
        # past the primes below 2**7, which n <= 10**4 < 2**14 never does.
        rng = random.Random(1640)
        for n in (rng.randrange(2, 10**9) for _ in range(1000)):
            sigma = math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in factor_loop(n))
            assert aliquot_sum(n) == sigma - n, n


class TestIsPerfect:
    def test_six(self):
        assert is_perfect(6)

    def test_496_with_brute_oracle(self):
        assert brute_aliquot(496) == 496
        assert is_perfect(496)

    def test_twelve_is_abundant_not_perfect(self):
        assert not is_perfect(12)


class TestEuclidPerfect:
    def test_third_perfect_number(self):
        record = euclid_perfect(5)
        assert record.perfect_number == 496
        assert record.mersenne_prime == 31
        assert brute_aliquot(496) == 496

    def test_nineteen_digit_record(self):
        record = euclid_perfect(31)
        assert record.perfect_number == 2305843008139952128
        assert record.digits == 19

    def test_composite_exponent_gives_nothing(self):
        assert euclid_perfect(11) is None

    def test_small_rejected(self):
        with pytest.raises(ValueError):
            euclid_perfect(1)

    def test_thirty_seven_digit_record(self):
        record = euclid_perfect(61)
        assert record.mersenne_prime == 2**61 - 1
        assert record.digits == 37

    @pytest.mark.parametrize("n,digits", [(4423, 2663), (9689, 5834)])
    def test_thousand_digit_records(self, n, digits):
        # 5834 digits is past the 4300-digit limit of int-to-str.
        assert euclid_perfect(n).digits == digits

    def test_records_are_perfect(self):
        for n in (2, 3, 5, 7, 13):
            record = euclid_perfect(n)
            assert record is not None
            assert is_perfect(record.perfect_number)


class TestEnumerateEvenPerfect:
    def test_four_below_ten_thousand(self):
        assert enumerate_even_perfect(10**4) == [6, 28, 496, 8128]

    def test_inclusive_bound(self):
        assert enumerate_even_perfect(28) == [6, 28]

    def test_below_smallest(self):
        assert enumerate_even_perfect(5) == []

    def test_nine_below_ten_to_the_forty(self):
        found = enumerate_even_perfect(10**40)
        assert len(found) == 9
        assert found[-1] == (2**61 - 1) << 60


class TestFrenicleScan:
    def test_trivial_challenge_met_by_six(self):
        report = frenicle_scan(1, 7)
        assert report.outcome is not None
        assert report.outcome.exponent == 2
        assert report.outcome.perfect_number == 6

    def test_twenty_digit_challenge_fails_at_37(self):
        report = frenicle_scan(20, 37)
        assert report.outcome is None
        by_exponent = {v.exponent: v for v in report.examined}
        assert by_exponent[31].verdict == MERSENNE_PRIME
        assert by_exponent[31].digits == 19
        assert by_exponent[37].verdict == IMPOSTER
        assert by_exponent[37].witness == 223

    def test_extended_scan_witnesses(self):
        report = frenicle_scan(20, 43)
        assert report.outcome is None
        by_exponent = {v.exponent: v for v in report.examined}
        assert by_exponent[41].witness == 13367
        assert by_exponent[43].witness == 431
        imposters = {
            v.exponent for v in report.examined if v.verdict == IMPOSTER
        }
        assert imposters == {11, 23, 29, 37, 41, 43}

    def test_exponents_are_exactly_primes_in_range(self):
        report = frenicle_scan(20, 43)
        assert [v.exponent for v in report.examined] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
        ]

    def test_budget_starvation_yields_unresolved(self):
        report = frenicle_scan(20, 37, budget=2)
        verdicts = {v.exponent: v.verdict for v in report.examined}
        # 2**37 - 1 has no candidate at or below 2, so nothing is learned.
        assert verdicts[37] == UNRESOLVED

    def test_budget_does_not_hide_mersenne_primes(self):
        # Primality is decided by Lucas-Lehmer; the budget only limits the
        # search for a witness of a composite 2**p - 1.
        report = frenicle_scan(20, 61, budget=10**4)
        verdicts = {v.exponent: v.verdict for v in report.examined}
        assert verdicts[31] == MERSENNE_PRIME
        assert verdicts[61] == MERSENNE_PRIME
        assert report.outcome.exponent == 61
        assert report.outcome.digits == 37

    def test_every_verdict_renders(self):
        text = "".join(challenge_text(frenicle_scan(20, 61, budget=10**4)))
        assert "exponent 31: mersenne-prime (perfect number has 19 digits)" in text
        assert "exponent 43: imposter (witness factor 431)" in text
        assert "exponent 59: unresolved (scan budget exhausted)" in text
        assert text.endswith("(37 digits, exponent 61)\n")

    def test_witnesses_are_least_factors_to_100(self):
        # Each imposter's witness is the least prime factor of 2**p - 1, by
        # sympy; M83's cofactor of 23 digits is never scanned, and M89 is
        # prime by Lucas-Lehmer.
        sympy = pytest.importorskip("sympy")
        report = frenicle_scan(20, 100)
        assert [v.exponent for v in report.examined] == list(sympy.primerange(2, 101))
        verdicts = {v.exponent: v.verdict for v in report.examined}
        assert verdicts[89] == MERSENNE_PRIME
        assert UNRESOLVED not in verdicts.values()
        for v in report.examined:
            if v.verdict == IMPOSTER:
                assert v.witness == min(sympy.factorint(2**v.exponent - 1)), v

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            frenicle_scan(0, 37)
        with pytest.raises(ValueError):
            frenicle_scan(1, 1)
        with pytest.raises(ValueError, match="budget"):
            frenicle_scan(20, 37, budget=0)
        # A scan's memory is bounded, but an unbounded one's time is not.
        with pytest.raises(ValueError, match="budget"):
            frenicle_scan(20, 37, budget=None)

    def test_witnesses_match_the_walk_to_400(self, oracle_primes):
        # The walk the class scan replaced, kept as its oracle: the least
        # prime q = 1 mod 2p, q <= budget, with 2**p = 1 mod q.
        budget = 10**6
        primes = [q for q in oracle_primes(20) if q <= budget]
        report = frenicle_scan(20, 400, budget)
        assert [v.exponent for v in report.examined] == [q for q in primes if q <= 400]
        for v in report.examined:
            if v.verdict == MERSENNE_PRIME:
                continue
            p = v.exponent
            witness = next((q for q in primes
                            if q % (2 * p) == 1 and pow(2, p, q) == 1), None)
            assert v.witness == witness, p
            assert v.verdict == (UNRESOLVED if witness is None else IMPOSTER), p

    def test_budget_boundary_is_inclusive(self):
        below = {v.exponent: v for v in frenicle_scan(20, 37, budget=222).examined}
        at = {v.exponent: v for v in frenicle_scan(20, 37, budget=223).examined}
        assert (below[37].verdict, below[37].witness) == (UNRESOLVED, None)
        assert (at[37].verdict, at[37].witness) == (IMPOSTER, 223)

    def test_default_budget_reaches_cole_and_stops_at_101(self):
        # Cole's 1903 factor of M67 lies within the default budget; M101's
        # least factor, about 7.4e12, lies past it.
        by_exponent = {v.exponent: v for v in frenicle_scan(20, 101).examined}
        assert (by_exponent[67].verdict, by_exponent[67].witness) == (IMPOSTER, 193707721)
        assert (by_exponent[101].verdict, by_exponent[101].witness) == (UNRESOLVED, None)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_default_budget_to_127_peaks_below_64_mib(self):
        # Three exponents to 127 end unresolved, each scan reading every
        # class prime up to the default budget, one segment at a time.
        unresolved, peak_kib = frenicle_peak(FRENICLE_BUDGET)
        assert unresolved == 3
        assert peak_kib / 1024 < 64

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_peak_does_not_grow_with_the_budget(self):
        # A scan holds at most one segment's misses, so 8x the default
        # budget walks 8x as far in the same memory. Holding every miss
        # until a hit, the scans peaked at 20 and 44 MiB.
        _, low = frenicle_peak(FRENICLE_BUDGET)
        _, high = frenicle_peak(8 * FRENICLE_BUDGET)
        assert (high - low) / 1024 < 4


def frenicle_peak(budget):
    """(unresolved exponents, peak KiB) of frenicle_scan(20, 127, budget),
    run in a process of its own. A wrapper waits for the scan alone, so
    RUSAGE_CHILDREN reads the scan's own peak."""
    src = os.path.dirname(os.path.dirname(fermatkit.__file__))
    scan = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from fermatkit.perfect import UNRESOLVED, frenicle_scan\n"
        f"report = frenicle_scan(20, 127, {budget})\n"
        "print(sum(v.verdict == UNRESOLVED for v in report.examined), flush=True)\n"
    )
    script = (
        "import resource, subprocess, sys\n"
        f"subprocess.run([sys.executable, '-c', {scan!r}], check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    unresolved, peak_kib = map(int, proc.stdout.split())
    return unresolved, peak_kib
