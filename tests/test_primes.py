import bisect
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import assume, given, strategies as st

from fermatkit import primes
from fermatkit.factoring import factor_mersenne
from fermatkit.forms import CandidateClass, euler_refined_class, generalized_class
from fermatkit.kernel import isqrt
from fermatkit.mersenne import is_mersenne_prime, mersenne, order
from fermatkit.primes import (
    class_segments,
    is_prime,
    prime_factors,
    primes_in_classes,
    primes_up_to,
)


def flatten_segments(classes, limit=None):
    """The primes of class_segments one at a time, ascending."""
    return itertools.chain.from_iterable(class_segments(classes, limit))


def brute_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, n))


@pytest.fixture
def no_flags(monkeypatch):
    """Empty flags and primes in place of the base sieve, so is_prime takes
    its strong-test path for every n, at any size. Trial division reads
    the same table, so only is_prime is called under it."""
    monkeypatch.setattr(primes, "_BASE", (b"", []))


def flags_to(monkeypatch, limit):
    """Class walks and primes_up_to read the base flags up to limit <= BASE
    alone, as if the base sieve ended there: a table that ends below 2**16
    puts the walks' cuts where a test needs them. is_prime and trial
    division still read the whole base sieve."""
    assert limit <= primes.BASE
    monkeypatch.setattr(primes, "BASE", limit)


def spy_split(monkeypatch):
    """The list of numbers _split is called on from here on."""
    calls = []
    split = primes._split
    monkeypatch.setattr(primes, "_split", lambda n: calls.append(n) or split(n))
    return calls


class TestSieve:
    def test_textbook_base_case(self):
        assert primes_up_to(10) == [2, 3, 5, 7]

    def test_prime_count_below_46339(self):
        assert len(primes_up_to(46338)) == 4792

    def test_count_up_to_30(self):
        assert len(primes_up_to(30)) == 10

    def test_strictly_increasing_and_prime(self):
        primes = primes_up_to(1000)
        assert primes == sorted(set(primes))
        assert all(brute_is_prime(p) for p in primes)

    def test_membership(self):
        primes = primes_up_to(100)
        assert 97 in primes
        assert 91 not in primes

    @pytest.mark.parametrize("limit", [*range(2, 301), 1 << 16])
    def test_odd_only_sieve_is_exact(self, oracle_primes, limit):
        # Flags and list from the odd flags alone, after 2, against this
        # suite's own sieve; limits 2 and 3 have no odd composite. A prime's
        # flag is 10, a newline, and every other flag 0.
        expected = [p for p in oracle_primes(17) if p <= limit]
        flags, found = primes._sieve(limit)
        assert found == expected
        members = set(expected)
        assert flags == bytearray(10 * (n in members) for n in range(limit + 1))

    def test_the_base_holds_pi_base_primes(self, oracle_primes):
        # The base sieve holds the pi(2**16) primes that prime_factors
        # tries; 65521 is the last, and a cofactor with no prime up to it
        # is prime below the square of the next.
        assert primes.BASE == 1 << 16
        assert len(primes._BASE[1]) == len(oracle_primes(16)) == 6542
        assert primes._BASE[1] == oracle_primes(16)
        assert primes_up_to(primes.BASE)[6541:] == [65521]
        assert primes._BASE_SQUARE == oracle_primes(17)[6542] ** 2 == 65537**2


class TestIsPrime:
    def test_complementary_factor(self):
        assert is_prime(616318177)

    def test_unit_is_not_prime(self):
        assert not is_prime(1)
        assert not is_prime(0)

    def test_six_digit_prime(self):
        assert is_prime(178481)

    def test_agrees_with_sieve_to_ten_thousand(self):
        members = set(primes_up_to(10**4))
        for n in range(10**4 + 1):
            assert is_prime(n) == (n in members)

    # No flags, and the base sieve's, to BASE = 2**16, which ends between
    # the primes 65521 and 65537: primes_up_to to a limit up to it sieves
    # nothing, and n past it takes the strong test.
    @pytest.mark.parametrize("growth,size", [((), 0)])
    def test_flag_table_edges(self, no_flags, no_sieve, trial_division, growth,
                              size):
        for limit in growth:
            primes_up_to(limit)
        assert len(primes._BASE[0]) == size
        for n in (-2, -1, 0, 1, size - 1, size, size + 1):
            assert is_prime(n) is trial_division(n), n

    @pytest.mark.parametrize("growth,size", [((2,), 65537), ((1030,), 65537)])
    def test_flag_table_edges_past_the_base(self, no_sieve, trial_division,
                                            growth, size):
        for limit in growth:
            primes_up_to(limit)
        assert len(primes._BASE[0]) == size
        for n in (-2, -1, 0, 1, 65521, 65537, size - 1, size, size + 1):
            assert is_prime(n) is trial_division(n), n


# psi_k: the least strong pseudoprime to the first k prime bases
# (psi_7 = psi_8 and psi_9 = psi_10 = psi_11).
PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
)

# psi_1 .. psi_13 as products of primes.
PSI_FACTORS = ((23, 89), (829, 1657), (2251, 11251), (151, 751, 28351),
               (6763, 10627, 29947), (1303, 16927, 157543),
               (10670053, 32010157), (10670053, 32010157),
               (149491, 747451, 34233211), (149491, 747451, 34233211),
               (149491, 747451, 34233211), (399165290221, 798330580441),
               (1287836182261, 2575672364521))
PSI = primes._PSI + (primes.PSI13,)


def strong_probable_prime(n, a):
    """Whether the odd n > 2 passes the strong test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x == 1:
        return True
    for _ in range(s):  # a**(d * 2**r) for r < s
        if x == n - 1:
            return True
        x = x * x % n
    return False


# Carmichael numbers: Fermat pseudoprimes to every coprime base. The
# last three have no prime factor <= 41, so only the strong test sees them.
CARMICHAEL = ((3, 11, 17), (7, 13, 19), (37, 73, 109),
              (43, 127, 211), (211, 421, 631), (271, 541, 811))


class TestStrongTest:
    @pytest.mark.parametrize("cache", ["cold", "warm"])
    def test_agrees_with_trial_division_to_200000(
        self, request, trial_division, cache
    ):
        # cold: no flags, so the strong test decides every n; warm: the base
        # flags decide n up to BASE, and the strong test the rest.
        if cache == "cold":
            request.getfixturevalue("no_flags")
        for n in range(-2, 2 * 10**5 + 1):
            assert is_prime(n) == trial_division(n), n

    def test_agrees_with_trial_division_below_10_to_12(
        self, no_flags, trial_division
    ):
        rng = random.Random(2017)
        for n in (rng.randrange(10**12) for _ in range(3000)):
            assert is_prime(n) == trial_division(n), n

    def test_every_prime_factor_of_m2_to_m64(self, request, trial_division):
        # Only M61 stays unresolved at this budget; it is prime, which
        # test_mersenne_numbers_below_psi13 checks by Lucas-Lehmer.
        factors = {}
        for n in range(2, 65):
            fact, _ = factor_mersenne(n, budget=1 << 22)
            factors.update((q, n) for q, _e in fact.factors)
            assert fact.unresolved_cofactor == (mersenne(61) if n == 61 else 1)
        request.getfixturevalue("no_flags")
        for q, n in sorted(factors.items()):
            assert is_prime(q) and trial_division(q), (n, q)

    def test_mersenne_numbers_below_psi13(self, no_flags):
        assert mersenne(81) < primes.PSI13 < mersenne(82)
        for n in range(2, 82):
            assert is_prime(mersenne(n)) == is_mersenne_prime(n), n

    @pytest.mark.parametrize("n", PSEUDOPRIMES)
    def test_strong_pseudoprimes_are_composite(self, no_flags, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("factors", CARMICHAEL)
    def test_carmichael_numbers_are_composite(self, no_flags, factors):
        n = 1
        for p in factors:
            n *= p
        assert all((n - 1) % (p - 1) == 0 for p in factors)  # Korselt
        assert not is_prime(n)

    def test_psi_table(self, oracle_primes, trial_division):
        # Each psi_k is composite and passes the strong test to the first
        # k primes. The least factors of psi_12 and psi_13 lie past 10**11,
        # out of trial division's reach, so each psi_k is shown composite
        # by its factors, each of them prime by trial division.
        bases = oracle_primes(6)[:13]
        assert list(PSI) == sorted(PSI) and PSI[-2] < primes.PSI13
        assert set(PSI[:-1]) == set(PSEUDOPRIMES)
        for k, (psi, factors) in enumerate(zip(PSI, PSI_FACTORS), 1):
            assert math.prod(factors) == psi and len(factors) > 1, k
            assert all(map(trial_division, factors)), k
            assert all(strong_probable_prime(psi, a) for a in bases[:k]), k

    def test_agrees_with_sympy_in_every_band(self, no_flags, oracle_primes):
        # 2,000 seeded n in each band [psi_(k-1), psi_k) with no prime
        # factor <= 41, so each reaches the strong test to k bases, and
        # each n within 2 of psi_k below PSI13.
        isprime = pytest.importorskip("sympy").isprime
        small = math.prod(oracle_primes(6)[:13])
        rng, low = random.Random(1993), 2
        for psi in PSI:
            if low < psi:
                tested = 0
                while tested < 2000:
                    n = rng.randrange(low, psi)
                    if math.gcd(n, small) == 1:
                        assert is_prime(n) == isprime(n), n
                        tested += 1
            for n in range(psi - 2, min(psi + 3, primes.PSI13)):
                assert is_prime(n) == isprime(n), n
            low = psi

    def test_bases_by_size(self, no_flags, monkeypatch):
        # The primes on each side of each psi_k: each takes the first j
        # bases, for the least j with n < psi_j, no more.
        sympy = pytest.importorskip("sympy")
        bases = []
        monkeypatch.setattr(primes, "pow",
                            lambda a, *rest: bases.append(a) or pow(a, *rest),
                            raising=False)
        for k, psi in enumerate(PSI, 1):
            for n in (sympy.prevprime(psi), sympy.nextprime(psi)):
                if n < primes.PSI13:
                    bases.clear()
                    assert is_prime(n)
                    want = next(j for j, bound in enumerate(PSI, 1) if n < bound)
                    assert bases == list(primes._BASES[:want]), (k, n)

    def test_never_sieves(self, cold_sieve, monkeypatch):
        def no_sieve(limit):
            raise AssertionError(f"is_prime sieved to {limit}")

        monkeypatch.setattr(primes, "_sieve", no_sieve)
        assert is_prime(2**61 - 1)
        assert not is_prime(3 * primes.PSI13)
        with pytest.raises(ValueError, match="psi_13"):
            is_prime(primes.PSI13)


# The last prime of one trial-division block of 32 and the first of the
# next: primes[31], primes[32], then blocks 2|3 and 3|4.
BLOCK_EDGES = ((131, 137), (311, 313), (503, 509))
LARGE_PRIME = 999999937
# n whose gcd with a block's product is composite, so the block is walked:
# in the first block (2..131), and in the second (137..311), which only
# the second gcd, past the primes below 2**7, reaches.
COMPOSITE_GCDS = (2 * 3 * 5 * 7 * 131**2, 3 * 5 * 7 * 11, 3 * 5 * 7 * 127,
                  3 * 5 * 7 * 131, 137 * 139 * 149, 137**2 * 311 * 1000003)
# n whose gcd with a block's product is one prime of multiplicity above 1.
PRIME_POWERS = (137**5, 131**3, 2**20 * 137, 311**4 * 313, 509**3 * 1000003)


def tables_built():
    """How far the trial-division tables reach: (the largest k with
    _below(k) built, or 0, whether the block products are built). Each
    _below(k) is built from _below(k - 1), so those built are 1 .. k."""
    return primes._below.cache_info().currsize, primes._blocks.cache_info().currsize == 1


def assert_tables_are_products(oracle_primes):
    """Each _below(k) built is the product of the oracle's primes below
    2**k, and the block products, if built, are 205, each the product of
    its 32 oracle primes, the last of them the 14 from 65,371. Reads only
    tables already built."""
    below, blocks = tables_built()
    for k in range(1, below + 1):
        assert primes._below(k) == math.prod(oracle_primes(k)), k
    assert tables_built() == (below, blocks)
    if blocks:
        base = oracle_primes(16)
        assert len(primes._blocks()) == 205 and base[32 * 204 :][0] == 65371
        for j, block in enumerate(primes._blocks()):
            assert block == math.prod(base[32 * j : 32 * (j + 1)]), j


@pytest.fixture(params=["cold", "warm"])
def sieve_state(request):
    """No trial-division table, as import leaves them, or all of them
    built: 2 * 65519 * 65521 takes _below(16), and its composite second
    gcd the block products."""
    request.getfixturevalue("cold_sieve")
    if request.param == "warm":
        prime_factors(2 * 65519 * 65521)
        assert tables_built() == (16, True)


class TestPrimeFactors:
    def test_matches_trial_division_to_200000(self, factor_loop):
        for n in range(2, 2 * 10**5 + 1):
            assert prime_factors(n) == factor_loop(n), n

    def test_matches_trial_division_below_10_to_12(self, cold_sieve, factor_loop):
        rng = random.Random(1640)
        for n in (rng.randrange(2, 10**12) for _ in range(2000)):
            assert prime_factors(n) == factor_loop(n), n

    def test_matches_trial_division_below_2_to_40(self, factor_loop):
        @given(st.integers(2, 2**40 - 1))
        def check(n):
            assert prime_factors(n) == factor_loop(n)

        check()

    @pytest.mark.parametrize("p,q", BLOCK_EDGES)
    def test_block_edges(self, factor_loop, p, q):
        # Times the prime 1000003, the stop lies past both blocks, so a
        # block holding p or q is tried by gcd before it is divided.
        assert primes_up_to(q)[-2:] == [p, q]
        for n in (p * p, p * q, q * q, p * p * 1000003, p * q * 1000003,
                  q * 1000003, 2 * p * p * q * 1013):
            assert prime_factors(n) == factor_loop(n), n

    # The last four are primes of the first block of 32.
    @pytest.mark.parametrize("n", [2**44, 3**27, 2 * LARGE_PRIME, LARGE_PRIME,
                                   2, 3, 127, 131])
    def test_named_cases(self, factor_loop, n):
        assert prime_factors(n) == factor_loop(n)

    @pytest.mark.parametrize("n", COMPOSITE_GCDS + PRIME_POWERS)
    def test_block_gcds(self, sieve_state, factor_loop, n):
        assert prime_factors(n) == factor_loop(n)

    @pytest.mark.parametrize("n", [509**2, 509 * 521, 1031 * 1033, LARGE_PRIME])
    def test_partial_last_block(self, sieve_state, factor_loop, n):
        # isqrt(n) lies inside a block of 32, whose primes past it the
        # second gcd tries too: 509 is the last prime up to the root of
        # 509**2 and 509 * 521, and 521 the cofactor past it.
        assert prime_factors(n) == factor_loop(n)
        assert len(primes_up_to(isqrt(n))) % 32

    def test_primes_past_the_sieve(self, cold_sieve, no_sieve, factor_loop,
                                   monkeypatch):
        # 65537, the first prime past the base sieve (BASE = 2**16), is left
        # as a cofactor; 65537 * 65539, 262147**2 and 65537 * LARGE_PRIME
        # stop past the sieve, and rho splits them, with no sieve built; in
        # 3 * (10**12 - 11) the cofactor is proven prime by the strong test,
        # with no split.
        split = spy_split(monkeypatch)
        for n, splits in ((2**16 * 65537, 0), (65537 * 65539, 1), (262147**2, 1),
                          (65537 * LARGE_PRIME, 1), (3 * (10**12 - 11), 0)):
            split.clear()
            assert prime_factors(n) == factor_loop(n), n
            assert len(split) == splits, n

    def test_smooth_times_prime_below_psi13(self, cold_sieve, no_sieve):
        # n = s * P, s 10**4-smooth and P prime, up to psi_13: the loop ends
        # at P once is_prime proves it, however far past the sieve its root
        # lies; prime_factors builds no sieve.
        # sympy's factorint is the oracle.
        sympy = pytest.importorskip("sympy")
        rng = random.Random(16)
        small = primes_up_to(10**4)
        for _ in range(200):
            s = math.prod(rng.choices(small, k=rng.randrange(0, 5)))
            top = min(10 ** rng.randrange(5, 26), (primes.PSI13 - 1) // s)
            n = s * sympy.prevprime(rng.randrange(10**4, top))
            assert prime_factors(n) == tuple(sorted(sympy.factorint(n).items())), n

    def test_sieve_stays_at_its_first_sieve(self, cold_sieve, no_sieve,
                                            monkeypatch):
        # Calls where the per-prime loop doubled the sieve to 2**18 and
        # 2**20 build none past the base sieve, to BASE. A cofactor that
        # is_prime proves, LARGE_PRIME or 10**12 - 11, is prime;
        # 65537 * 65539, 262147**2 and 999983**2 are split by rho.
        split = spy_split(monkeypatch)
        calls = [2**44, 65537 * 65539, 2 * LARGE_PRIME, 3**27, 262147**2,
                 10**12 - 11, 2**3 * 999983**2, LARGE_PRIME]
        for n in calls:
            prime_factors(n)
        assert split == [65537 * 65539, 262147**2, 999983**2]

    def test_products_past_the_first_sieve(self, cold_sieve, no_sieve,
                                           monkeypatch):
        # Products of 2 to 4 primes from 2**16 to 10**10, a prime power past
        # psi_13, the Fermat number 2**64 + 1 = 274177 * 67280421310721 and
        # M61 * 3**5, with no sieve past the base, to BASE: each piece
        # that neither the square of the primes tried nor is_prime shows
        # prime is split by rho. sympy's factorint is the oracle.
        sympy = pytest.importorskip("sympy")
        split = spy_split(monkeypatch)
        rng = random.Random(19)
        cases = [1000003**5, 2**64 + 1, (2**61 - 1) * 3**5]
        for _ in range(60):
            cases.append(math.prod(
                sympy.prevprime(rng.randrange(2**16 + 8, 10 ** rng.randrange(5, 11)))
                for _ in range(rng.randrange(2, 5))))
        for n in cases:
            split.clear()
            assert prime_factors(n) == tuple(sorted(sympy.factorint(n).items())), n
            assert split or n == (2**61 - 1) * 3**5, n

    @pytest.mark.parametrize("sieve", ["base", "lowered", "grown"])
    def test_matches_trial_division_at_the_ceiling(self, cold_sieve, monkeypatch,
                                                   factor_loop, sieve):
        # Squares and products of the primes on each side of BASE, and
        # 2**32 + k, near 65537**2, where a cofactor stops being prime
        # without a test: exact after primes_up_to(BASE), with MAX_SIEVE
        # lowered to 3000, below BASE, and after a sieve to 2**20 for one
        # call. Trial division reads the base sieve in each.
        if sieve == "lowered":
            monkeypatch.setattr(primes, "MAX_SIEVE", 3000)
        limit = {"base": primes.BASE, "lowered": 3000, "grown": 1 << 20}[sieve]
        primes_up_to(limit)
        cases = [65521**2, 65537**2, 65521 * 65537, 65537 * 65539,
                 65519 * 65521 * 65537, 2 * 65537**2, *range(2**32 - 40, 2**32 + 41)]
        for n in cases:
            assert prime_factors(n) == factor_loop(n), n
        assert len(primes._BASE[0]) == primes.BASE + 1

    def test_trial_division_stops_at_the_base(self, cold_sieve, monkeypatch,
                                              oracle_primes):
        # 2 * (10**17 + 3) tries the primes up to BASE alone, in _below(16),
        # the product of the 6,542 primes below 2**16, before the strong
        # test proves the cofactor prime; a table to 2**20 would hold
        # 82,025 primes. 2 is taken by its flag, so no block is walked.
        split = spy_split(monkeypatch)
        start = time.perf_counter()
        assert prime_factors(2 * (10**17 + 3)) == ((2, 1), (10**17 + 3, 1))
        assert time.perf_counter() - start < 1
        assert tables_built() == (16, False)
        assert primes._below(16) == math.prod(primes._BASE[1])
        assert split == []
        assert_tables_are_products(oracle_primes)

    def test_rho_parts_are_not_trial_divided(self, cold_sieve, monkeypatch):
        # Neither part of a split has a prime that was tried, so each goes
        # straight to is_prime, and on to _split if it is not proven prime.
        calls, divide_out = [], primes._divide_out
        monkeypatch.setattr(primes, "_divide_out",
                            lambda n, *rest: calls.append(n) or divide_out(n, *rest))
        split = spy_split(monkeypatch)
        assert prime_factors(1000003 * 1000033) == ((1000003, 1), (1000033, 1))
        assert calls == split == [1000003 * 1000033]
        calls.clear()
        assert prime_factors(65537**3 * 65539) == ((65537, 3), (65539, 1))
        assert calls == [65537**3 * 65539] and len(split) > 2

    @pytest.mark.parametrize("n", [2 * mersenne(89), mersenne(89) ** 2],
                             ids=["2*M89", "M89**2"])
    def test_past_the_rho_cap_raises(self, cold_sieve, n):
        # M89 is a prime past psi_13, which no test here proves: rho finds
        # no factor of it, or of its square, and stops at its step cap.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cannot factor"):
            prime_factors(n)
        assert time.perf_counter() - start < 5

    def test_only_prime_factors_builds_block_products(self, cold_sieve,
                                                      oracle_primes):
        primes_up_to(10**6)
        primes_in_classes(10**7, euler_refined_class(31))
        next(class_segments(generalized_class(61)))
        assert is_prime(10**12 - 11) and not is_prime(2 * LARGE_PRIME)
        assert tables_built() == (0, False)
        # The tables to 2**15 alone, as isqrt(LARGE_PRIME) = 31,622, and no
        # block products, as neither gcd shares a factor; the composite
        # second gcd of 137 * 139 builds them.
        prime_factors(LARGE_PRIME)
        assert tables_built() == (15, False)
        prime_factors(137 * 139)
        assert tables_built() == (15, True)
        assert_tables_are_products(oracle_primes)

    def test_threads_from_a_cold_cache(self, cold_sieve, factor_loop,
                                       oracle_primes):
        rng = random.Random(4)
        batches = [[rng.randrange(2, 10**12) for _ in range(100)] for _ in range(4)]
        results = [None] * len(batches)

        def work(k):
            results[k] = [prime_factors(n) for n in batches[k]]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for batch, result in zip(batches, results):
            assert result == [factor_loop(n) for n in batch]
        assert tables_built() == (16, True)
        assert_tables_are_products(oracle_primes)


# (level, j, end): the first (0) or last (1) prime of the run of 2**L
# blocks of 32 from block 1 + j*2**L; products across these runs check
# the block walk where runs of blocks meet.
TREE_EDGES = [(level, j, end) for level in range(5) for j in (1, 2, 3) for end in (0, 1)]


def tree_edge_prime(oracle_primes, level, j, end):
    width = 32 << level
    return oracle_primes(16)[32 + (j + end) * width - end]


def count_gcds(monkeypatch):
    """The list of math.gcd calls made from here on."""
    calls = []
    gcd = math.gcd
    monkeypatch.setattr(math, "gcd", lambda *a: calls.append(a) or gcd(*a))
    return calls


class TestProductTree:
    """prime_factors' two gcds over the base primes and its block walk; the
    class keeps the name of the product tree they replaced."""

    @pytest.mark.parametrize("level,j,end", TREE_EDGES)
    def test_node_edge_products(self, sieve_state, oracle_primes, factor_loop,
                                level, j, end):
        # p*q with p and q each the first or last prime of a run of 2**L
        # blocks, L = 0..4; times LARGE_PRIME the stop lies past both runs.
        p = tree_edge_prime(oracle_primes, level, j, end)
        for q in (tree_edge_prime(oracle_primes, *edge) for edge in TREE_EDGES):
            for n in (p * q, p * q * LARGE_PRIME):
                assert prime_factors(n) == factor_loop(n), (p, q)

    # Block ends from block 1 to block 107, which holds isqrt(LARGE_PRIME).
    @pytest.mark.parametrize("stop", [1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17,
                                      24, 32, 33, 48, 64, 65, 96, 106, 107])
    def test_stops_at_a_block_end(self, sieve_state, oracle_primes, trial_division,
                                  factor_loop, stop):
        # q is the last prime of block stop - 1 and r the next: isqrt(n) of
        # q*r, q*q and the least prime past q*q lies in that block, with a
        # hit at q or with none.
        q, r = oracle_primes(16)[32 * stop - 1 : 32 * stop + 1]
        past = next(n for n in itertools.count(q * q + 1) if trial_division(n))
        for n in (q * r, q * q, past, 2 * past, q * past):
            assert prime_factors(n) == factor_loop(n), n

    @pytest.mark.parametrize("k", range(7, 17))
    def test_roots_at_each_octave_edge(self, sieve_state, oracle_primes,
                                       factor_loop, k):
        # p and q are the primes nearest 2**k below and above it, so isqrt
        # of p*p lies below 2**k and of q*q above it: the second gcd's table
        # is _below(k) or _below(k + 1), up to k = 16, where q = 65537 lies
        # past the base. Times LARGE_PRIME the stop lies past both.
        found = oracle_primes(17)
        i = bisect.bisect_left(found, 1 << k)
        p, q = found[i - 1], found[i]
        for n in (p * p, p * q, q * q, p * q * LARGE_PRIME):
            assert prime_factors(n) == factor_loop(n), n

    def test_the_last_cached_prime(self, cold_sieve, no_sieve, factor_loop):
        # With the base sieve (BASE = 2**16), the next three stop at its
        # last prime, 65521; 65521 * 65537 finds 65521 among the base
        # primes, which drops its stop below the base.
        for n in (4, 65521**2, 65519 * 65521, 2 * 65521**2, 65521 * 65537):
            assert prime_factors(n) == factor_loop(n), n

    def test_two_primes_of_the_last_block(self, cold_sieve, monkeypatch):
        # The worst case for the block walk: the second gcd is 65519 * 65521,
        # both in the last of the 205 blocks, so it takes one gcd per block
        # after the two table gcds, 207 in all. The strong test then proves
        # the cofactor prime.
        calls = count_gcds(monkeypatch)
        n = 65519 * 65521 * (10**17 + 3)
        start = time.perf_counter()
        assert prime_factors(n) == ((65519, 1), (65521, 1), (10**17 + 3, 1))
        assert time.perf_counter() - start < 1
        assert len(calls) <= 207

    def test_a_prime_near_10_to_9_takes_2_gcds(self, monkeypatch):
        # 3,401 primes up to isqrt(LARGE_PRIME): one gcd with the primes
        # below 2**7, one with those below 2**15, and no block is walked.
        calls = count_gcds(monkeypatch)
        assert prime_factors(LARGE_PRIME) == ((LARGE_PRIME, 1),)
        assert len(calls) == 2

    def test_a_prime_near_10_to_12_takes_2_gcds(self, cold_sieve, monkeypatch):
        # The 6,542 base primes: one gcd with those below 2**7, one with
        # those below 2**16, and no block is walked.
        calls = count_gcds(monkeypatch)
        assert prime_factors(10**12 - 11) == ((10**12 - 11, 1),)
        assert len(calls) == 2

    def test_a_cached_prime_takes_no_gcd(self, cold_sieve, monkeypatch):
        # Its flag answers, as for each order(2, p) of the FLT sweep.
        calls = count_gcds(monkeypatch)
        assert prime_factors(49999) == ((49999, 1),)
        assert calls == []

    def test_one_table_below_2_to_14(self, cold_sieve, oracle_primes):
        # After the gcd with the primes below 2**7, n < 2**14 leaves a
        # cofactor whose root is below 2**7, so it takes no second gcd and
        # builds no table past _below(7); the first gcd's primes all lie in
        # block 0, so it builds no block products either. 131**2 builds
        # _below(8), and its second gcd, 131, is prime by its flag.
        for n in range(2, 2**14):
            prime_factors(n)
        assert tables_built() == (7, False)
        assert prime_factors(131**2) == ((131, 2),)
        assert tables_built() == (8, False)
        assert_tables_are_products(oracle_primes)

    def test_a_cold_order_builds_tables_to_2_to_10(self, cold_sieve,
                                                   oracle_primes):
        # order(2, 1000003) factors 1000003, whose root 1,000 is below
        # 2**10, and 1000002 = 2 * 3 * 166667: no table past _below(10),
        # and no block products, as 6 lies in block 0 and 166667 is prime.
        assert order(2, 1000003).order == 1000002
        assert tables_built() == (10, False)
        assert_tables_are_products(oracle_primes)

    def test_import_leaves_the_base_sieve_and_no_tree(self):
        # The state cold_sieve resets to: a fresh process holds the base
        # sieve, to BASE, and no trial-division table.
        src = os.path.dirname(os.path.dirname(primes.__file__))
        code = ("import fermatkit.primes as p;"
                " print(len(p._BASE[1]) == 6542, len(p._BASE[0]) - 1,"
                " p._below.cache_info().currsize + p._blocks.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert out.stdout == "True 65536 0\n"

    def test_each_table_is_built_once(self, cold_sieve):
        # One octave at a time, as far as a call needs, and the block
        # products whole at the first composite second gcd; later calls
        # read the same objects.
        prime_factors(LARGE_PRIME)
        assert tables_built() == (15, False)
        prime_factors(2 * 65519 * 65521)
        assert tables_built() == (16, True)
        table, blocks = primes._below(16), primes._blocks()
        for n in (10**12 - 11, 65521**2, 2 * (10**17 + 3), 6 * LARGE_PRIME):
            prime_factors(n)
            assert primes._below(16) is table and primes._blocks() is blocks, n
        assert primes._below.cache_info().misses == 16
        assert primes._blocks.cache_info().misses == 1


class TestPrimesInClasses:
    def test_refined_class_count_and_first(self):
        found = primes_in_classes(46339, euler_refined_class(31))
        assert len(found) == 84
        assert found[0] == 311

    def test_scan_bound_reading_does_not_matter(self):
        # 46339 is itself prime but not in the class, so <=46339 and
        # <46339 give the same candidates.
        cls = euler_refined_class(31)
        assert primes_in_classes(46339, cls) == primes_in_classes(46338, cls)

    def test_odd_primes(self):
        cls = CandidateClass(2, frozenset({1}), 2)
        assert primes_in_classes(10, cls) == [3, 5, 7]

    def test_empty_residues_rejected(self):
        class Empty:
            modulus = 8
            residues = frozenset()

        with pytest.raises(ValueError):
            primes_in_classes(100, Empty())

    def test_definitional_equivalence_with_sieve_filter(self):
        cls = euler_refined_class(31)
        expected = [p for p in primes_up_to(10**4) if p % 248 in (1, 63)]
        assert primes_in_classes(10**4, cls) == expected

    def test_matches_sieve_filter_for_every_small_class(self):
        # The sieve-then-filter rule the class walk replaced, as oracle.
        def sieve_filter(limit, cls):
            return [p for p in primes_up_to(limit) if p % cls.modulus in cls.residues]

        for q in range(2, 41):
            classes = [generalized_class(q)]
            if q % 2 == 1 and is_prime(q):
                classes.append(euler_refined_class(q))
            for cls in classes:
                assert primes_in_classes(10**4, cls) == sieve_filter(10**4, cls)

    def test_class_without_primes_is_empty(self):
        # Every member of 4 mod 8 is even and at least 4.
        assert primes_in_classes(10**4, CandidateClass(8, frozenset({4}), 2)) == []

    def test_members_stop_at_the_sieve_ceiling(self, monkeypatch):
        # (limit // modulus + 1) * residues members: up to MAX_SIEVE, here
        # lowered to 3000, the walk runs; one past it raises.
        odd, refined = CandidateClass(2, frozenset({1}), 2), euler_refined_class(31)
        found = primes_up_to(1500 * 248 - 1)
        monkeypatch.setattr(primes, "MAX_SIEVE", 3000)
        assert primes_in_classes(5999, odd) == [p for p in found if 2 < p <= 5999]
        assert primes_in_classes(1500 * 248 - 1, refined) == [
            p for p in found if p % 248 in (1, 63)]
        for limit, cls in ((6000, odd), (1500 * 248, refined)):
            with pytest.raises(ValueError,
                               match=f"stops at 3000 members, got limit {limit}$"):
                primes_in_classes(limit, cls)

    def test_ceiling_error_on_each_side_of_the_digit_cap(self):
        # str() of an int writes at most 4,300 digits by default: a limit
        # of 4,300 digits is printed, one of 4,301 named by its bit length.
        cls = generalized_class(3)
        for limit, shown in ((10**4300 - 1, f"limit {10**4300 - 1}"),
                             (10**4300, "a 14285-bit limit")):
            with pytest.raises(ValueError) as raised:
                primes_in_classes(limit, cls)
            assert str(raised.value) == f"a class walk stops at 16777216 members, got {shown}"

    def test_no_sieve_before_the_ceiling_raises(self, monkeypatch):
        # candidates --q 80 walks 1 mod 160 to isqrt(2**80 - 1), about 6.9e9
        # members: refused before a segment is read or a sieve is built.
        def never(*args):
            raise AssertionError(f"ran with {args}")

        for name in ("_sieve", "class_segments"):
            monkeypatch.setattr(primes, name, never)
        with pytest.raises(ValueError, match="stops at 16777216 members"):
            primes_in_classes(isqrt(mersenne(80)), generalized_class(80))


class TestClassPrimes:
    def test_unbounded_walk_continues_the_bounded_one(self):
        cls = euler_refined_class(31)
        walk = flatten_segments(cls)
        bounded = primes_in_classes(46339, cls)
        assert [next(walk) for _ in bounded] == bounded
        assert next(walk) > 46339

    def test_bound_is_inclusive(self):
        cls = generalized_class(11)
        assert primes_in_classes(23, cls) == [23]
        assert primes_in_classes(22, cls) == []

    def test_unbounded_sieve_matches_walk(self, class_walk):
        # 3,000 primes cross several segment boundaries for every q.
        for q in range(2, 129):
            classes = [generalized_class(q)]
            if q % 2 == 1 and is_prime(q):
                classes.append(euler_refined_class(q))
            for cls in classes:
                sieved = list(itertools.islice(flatten_segments(cls), 3000))
                assert sieved == list(itertools.islice(class_walk(cls), 3000)), cls

    def test_every_small_bound_matches_walk(self, class_walk):
        for q in (3, 5, 31):
            cls = euler_refined_class(q)
            for limit in range(301):
                assert primes_in_classes(limit, cls) == list(class_walk(cls, limit))

    @pytest.mark.parametrize(
        "modulus,residues",
        [(2, {0, 1}), (6, {2, 3, 5}), (9, {0, 3, 6}), (10, {1, 5})],
    )
    def test_residues_sharing_a_factor_with_the_modulus(
        self, class_walk, modulus, residues
    ):
        # Such a residue holds at most one prime, p | gcd(r, modulus)
        # itself; (2, {0, 1}) must still yield 2.
        cls = CandidateClass(modulus, frozenset(residues), 2)
        assert primes_in_classes(5000, cls) == list(class_walk(cls, 5000))

    def test_empty_residues_rejected(self):
        class Empty:
            modulus = 8
            residues = frozenset()

        with pytest.raises(ValueError):
            next(flatten_segments(Empty()))


class TestClassSegments:
    def test_segments_ascend_and_flatten_to_the_walk(self, class_walk):
        for q in (2, 11, 31, 37, 64):
            cls = generalized_class(q)
            segments = list(itertools.islice(class_segments(cls), 6))
            flat = list(itertools.chain.from_iterable(segments))
            assert flat == sorted(set(flat))
            assert flat == list(itertools.islice(class_walk(cls), len(flat)))

    def test_bounded_segments_stop_at_the_limit(self, class_walk):
        cls = euler_refined_class(31)
        for limit in (310, 311, 46339, 10**5):
            segments = list(class_segments(cls, limit))
            assert list(itertools.chain.from_iterable(segments)) == list(
                class_walk(cls, limit))

    def test_empty_residues_rejected(self):
        class Empty:
            modulus = 8
            residues = frozenset()

        with pytest.raises(ValueError):
            next(class_segments(Empty()))

    def test_a_walk_past_2_to_32_doubles_its_sieving_list(self, monkeypatch):
        # 1 mod 2*10**6 to 2*10**10: the square roots of the segments that
        # end at k = 4,672 and 10,000 pass BASE, at 96,671 and 141,421, so
        # the walk takes one list to 131,072, twice BASE, then one to
        # 262,144, twice that; sympy's isprime is the oracle.
        isprime = pytest.importorskip("sympy").isprime
        calls, primes_up_to = [], primes.primes_up_to
        monkeypatch.setattr(primes, "primes_up_to",
                            lambda limit: calls.append(limit) or primes_up_to(limit))
        cls = CandidateClass(2 * 10**6, frozenset({1}), 2)
        found = primes_in_classes(2 * 10**10, cls)
        assert found == [n for n in range(1, 2 * 10**10 + 1, 2 * 10**6) if isprime(n)]
        assert calls == [2 * primes.BASE, 4 * primes.BASE]

    def test_wide_modulus_stays_bounded(self, cold_sieve, class_walk):
        # Residues 1 and -1 mod 2*10**6: each segment sieves only their
        # members, two per k, not the 10**6 odd numbers per k that one
        # progression through both would cover.
        cls = CandidateClass(2 * 10**6, frozenset({1, 2 * 10**6 - 1}), 2)
        start = time.perf_counter()
        found = primes_in_classes(10**9, cls)
        assert time.perf_counter() - start < 10  # ~0.02 s; ~22 s as one
        assert found == list(class_walk(cls, 10**9))
        tracemalloc.start()
        try:
            assert primes_in_classes(10**9, cls) == found
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_the_read_holds_pieces_not_segments(self, monkeypatch):
        # 1 mod 116 to 10**7: 86,207 k values, past the 65,536-k cap, so
        # the last segment holds 48,767 members, a byte each. Only the
        # read's copy of a piece depends on the piece size, so the peak
        # above the list returned rises over a read of 1 KiB pieces by
        # about a piece: about 15 KiB for pieces of 2**14 bytes, and 47
        # KiB for pieces of 2**20, a whole segment (CPython 3.10 to 3.13).
        # The bound is two pieces of 2**14 bytes.
        cls = generalized_class(116)
        peaks = {}
        for piece in (1024, 1 << 20, primes._PIECE):
            monkeypatch.setattr(primes, "_PIECE", piece)
            tracemalloc.start()
            try:
                found = primes_in_classes(10**7, cls)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(found) == 11868
            peaks[piece] = peak - current
        bound = 2 * 2**14
        assert peaks[1 << 20] - peaks[1024] > bound  # a whole segment shows
        assert peaks[primes._PIECE] - peaks[1024] < bound

    def test_first_members_past_a_sieving_square(self, cold_sieve, class_walk):
        # Every member is past 2*2, and residue 10 past 3*3: their first
        # strike is at k = 0, in the first segment, never before it; 3's
        # first strike on residues 5, 6 and 8 is at k = 1.
        cls = CandidateClass(13, frozenset({5, 6, 8, 10}), 2)
        sieved = list(itertools.islice(flatten_segments(cls), 3000))
        assert sieved == list(itertools.islice(class_walk(cls), 3000))

    def test_stride_one_offsets_carry_across_segments(self, cold_sieve, class_walk):
        # 2 and 5 divide the modulus 100 and the residues 2 and 5, so each
        # strikes every member of its residue past itself, a stride-1 entry
        # carried from segment to segment.
        cls = CandidateClass(100, frozenset({2, 3, 5}), 2)
        segments, flat, read = class_segments(cls), [], 0
        while len(flat) < 1500:
            flat += next(segments)
            read += 1
        assert read >= 4  # k past 4,672: three segment boundaries crossed
        assert flat[:3] == [2, 3, 5]
        assert flat == list(itertools.islice(class_walk(cls), len(flat)))

    def test_many_residues_cross_every_segment_size(self, cold_sieve, oracle_primes):
        # The 48 units mod 210 and 7, which shares 7 with the modulus and
        # so takes stride-1 entries: to 10**6, k reaches 4,761, past the
        # segments of 64, 512 and 4,096 k values into the fourth. The first
        # sieve's flags give k < 312, so the second segment is cut there,
        # and the sieve starts inside it and crosses the next two ends.
        units = {r for r in range(210) if math.gcd(r, 210) == 1}
        cls = CandidateClass(210, frozenset(units | {7}), 2)
        segments = list(class_segments(cls, 10**6))
        assert (primes.BASE - 209) // 210 + 1 == 312
        assert len(segments) == 5
        assert all(segment == sorted(segment) for segment in segments)
        expected = [p for p in oracle_primes(20)
                    if p <= 10**6 and p % 210 in cls.residues]
        assert expected[:2] == [7, 11]
        assert list(itertools.chain.from_iterable(segments)) == expected

    def test_a_dense_class_sieves_one_progression(self, sieved, class_walk):
        # The 8 units mod 30 lie on the odd numbers 1 + 2j, s = 15 <= 2*8:
        # a sieved segment is one sieve of 15 bytes per k, the other 7 odd
        # offsets holes that are zeroed after the strikes. The flags end at
        # k = 2,184 and the limit 10**6 at 33,334, so five segments, the
        # last two sieved, each the walk's primes in its k values.
        units = frozenset(r for r in range(30) if math.gcd(r, 30) == 1)
        cls = CandidateClass(30, units, 2)
        segments = list(class_segments(cls, 10**6))
        ends = [0, 64, 576, 2184, 4672, 33334]
        walk = list(class_walk(cls, 10**6))
        assert segments == [[p for p in walk if a <= p // 30 < b]
                            for a, b in zip(ends, ends[1:])]
        assert sieved == [15 * (4672 - 2184), 15 * (33334 - 4672)]

    @pytest.mark.parametrize("cls,spans", [
        (CandidateClass(70000, frozenset(range(70000)), 2), [70000]),
        (CandidateClass(2 * 10**5, frozenset({1, 10**5 + 1}), 2), [2]),
        (CandidateClass(2 * 10**5, frozenset({0, 1, 10**5 + 3}), 2), [1, 1, 1])],
        ids=["all-mod-70000", "two-mod-2e5", "three-mod-2e5"])
    def test_sieves_from_k_0(self, sieved, class_walk, cls, spans):
        # A largest residue past BASE puts the first sieved segment at
        # k = 0, where a progression may start at 0 or 1, neither prime:
        # every integer (s = 70,000), 1 + 10**5 j (s = 2), or, with s
        # past twice the residues, 0, 1 and 100,003 mod 2*10**5 on their own.
        limit = 10**6 + 3
        assert primes_in_classes(limit, cls) == list(class_walk(cls, limit))
        assert sieved == [s * (limit // cls.modulus + 1) for s in spans]

    def test_one_sieve_per_segment_for_refined_127(self, no_sieve, sieved,
                                                    class_walk):
        # euler_refined_class(127): 1 and 255 mod 1016 lie on 1 + 254j, four
        # members per k. The flags end at k = 65, inside the second
        # segment; each segment past it is one sieve of 4 bytes per k, not
        # one per residue.
        cls = euler_refined_class(127)
        assert cls.residues == {1, 255} and (primes.BASE - 255) // 1016 + 1 == 65
        segments, flat, counts = class_segments(cls), [], []
        for _ in range(5):
            flat += next(segments)
            counts.append(len(sieved))
        assert counts == [0, 0, 1, 2, 3]
        ends = [65, *SEGMENT_ENDS[1:4]]
        assert sieved == [4 * (b - a) for a, b in zip(ends, ends[1:])]
        assert flat == list(itertools.islice(class_walk(cls), len(flat)))

    # Every residue mod 210 has a member up to BASE at k = 311, whose last
    # member is 65519, but only residues up to 16 at k = 312.
    @pytest.mark.parametrize("cls", [
        euler_refined_class(31), generalized_class(2),
        CandidateClass(210, frozenset(range(210)), 2)],
        ids=["refined-31", "generalized-2", "all-mod-210"])
    def test_walks_below_the_base_strike_nothing(self, no_sieve, sieved, class_walk,
                                                 monkeypatch, cls):
        # A walk to BASE reads every member from the base sieve's flags: it
        # builds no sieve, no sieving prime is planned, which would take an
        # inverse of the modulus, and no segment is sieved.
        inverses = []
        monkeypatch.setattr(primes, "pow",
                            lambda *a: inverses.append(a) or pow(*a), raising=False)
        limit = primes.BASE
        assert primes_in_classes(limit, cls) == list(class_walk(cls, limit))
        assert sieved == [] and inverses == []

    @pytest.mark.parametrize("cls", [euler_refined_class(61), generalized_class(116)],
                             ids=["refined-61", "generalized-116"])
    def test_limits_at_segment_boundaries(self, cold_sieve, class_walk, cls):
        # Segments of 64, 512, 4,096 and 32,768 k values end at k = 64,
        # 576, 4,672 and 37,440; a limit just below or at the first member
        # of the next segment ends the walk in one or the other.
        m, r0 = cls.modulus, min(cls.residues)
        bounds = [k * m + r0 + d for k in (64, 576, 4672, 37440) for d in (-1, 0)]
        walk = list(class_walk(cls, bounds[-1]))
        for limit in bounds:
            expected = walk[: bisect.bisect_right(walk, limit)]
            assert primes_in_classes(limit, cls) == expected, limit


# euler_refined_class(61): modulus 488, residues 1 and 367. Flags to
# k*488 + 367 hold every member up to k, and no further.
REFINED_61 = euler_refined_class(61)
STRIDE_ONE = (CandidateClass(2, frozenset({0, 1}), 2),
              CandidateClass(6, frozenset({2, 3, 5}), 2),
              CandidateClass(10, frozenset({1, 5}), 2))
# Where segments of 64, 512, 4,096, 32,768 and then 65,536 k values end.
SEGMENT_ENDS = list(itertools.accumulate([64, 512, 4096, 32768] + [65536] * 4))


class TestFlagPrefix:
    # (class, flags limit, walk limit), with the flags cut below BASE: the
    # k values whose members all have flags end inside the first segment
    # of 64 k values (at 10), at the end of the first (64) or, for 1 and
    # 99 mod 100, of the second (576), between the two residues of
    # k = 100, or past the walk's limit. For the stride-1 classes flags to
    # 1024 end them at k = 512, 170 and 102, in the second segment, and
    # flags to 10**4 + 7 at 5,004, 1,668 and 1,001.
    CUTS = [(REFINED_61, 5000, None), (REFINED_61, 63 * 488 + 367, None),
            (CandidateClass(100, frozenset({1, 99}), 2), 575 * 100 + 99, None),
            (REFINED_61, 100 * 488 + 100, None),
            (REFINED_61, 50000, 10**4), (REFINED_61, 50000, 10**6)]
    CUTS += [(cls, limit, None) for cls in STRIDE_ONE for limit in (1024, 10**4 + 7)]
    CUTS += [(cls, 10**4, 5000) for cls in STRIDE_ONE]

    @pytest.mark.parametrize("cls,sieve,limit", CUTS)
    def test_matches_the_walk(self, sieved, class_walk, monkeypatch, cls, sieve,
                              limit):
        flags_to(monkeypatch, sieve)
        self.check_walk(sieved, class_walk, cls, sieve, limit)

    @pytest.mark.parametrize("limit", [None, 10**4, 10**6])
    def test_matches_the_walk_from_the_base(self, sieved, class_walk, limit):
        self.check_walk(sieved, class_walk, REFINED_61, primes.BASE, limit)

    @staticmethod
    def check_walk(sieved, class_walk, cls, sieve, limit):
        bound = 4 * sieve if limit is None else limit
        walked = itertools.takewhile(lambda p: p <= bound, flatten_segments(cls, limit))
        assert list(walked) == list(class_walk(cls, bound))
        # Only a walk that passes the flags sieves a segment.
        assert (sieved == []) == (limit is not None and limit <= sieve)

    # The base flags, to BASE = 2**16, end each class's read at
    # (BASE - largest residue) // modulus + 1, placed by the modulus:
    # refined-61 at k = 134, in the second segment; generalized_class(1009),
    # 1 mod 2018, at 33, in the first; 1 mod 1040 at 64, the end of the
    # first; the stride-1 classes at 32,768, 10,922 and 6,554. The first
    # sieved segment then runs from there to its schedule's end, one
    # bytearray of s bytes per k for each progression: refined-61's two
    # residues lie on 1 + 122j, s = 4; (2, {0, 1}) and (6, {2, 3, 5}) on
    # every integer, s = 2 and 6; 1 and 5 mod 10 lie on 1 + 2j, s = 5 > 2*2,
    # so each is its own progression, s = 1, as a lone residue is.
    @pytest.mark.parametrize("cls,read,spans", [
        (REFINED_61, 134, [4]), (generalized_class(1009), 33, [1]),
        (generalized_class(1040), 64, [1]),
        *zip(STRIDE_ONE, (32768, 10922, 6554), ([2], [6], [1, 1]))],
        ids=["refined-61", "generalized-1009", "mod-1040", "stride-1-mod-2",
             "stride-1-mod-6", "stride-1-mod-10"])
    def test_cuts_by_modulus(self, no_sieve, sieved, class_walk, cls, read, spans):
        assert (primes.BASE - max(cls.residues)) // cls.modulus + 1 == read
        segments, flat = class_segments(cls), []
        while not sieved:
            flat += next(segments)
        end = next(e for e in SEGMENT_ENDS if e > read)
        assert sieved == [s * (end - read) for s in spans]
        assert max(p // cls.modulus for p in flat) < end
        assert flat == list(itertools.islice(class_walk(cls), len(flat)))

    # Sent stops below, at and past the last member with a flag, 133*488 +
    # 367: after the first segment, the next ends 64 k values past the
    # stop's k, 100, 133 or 200, at 165, 198 or 265, and is cut where the
    # flags end at k = 134. The first sieved segment then ends at k = 198,
    # 64 past the prefix, or at 265, so the first prime past the stop comes
    # from the segment that holds the stop: one sieve of 4 bytes per k, the
    # progression 1 + 122j that holds both residues.
    @pytest.mark.parametrize("stop,sieved_to", [
        (100 * 488 + 1, None), (133 * 488 + 367, 198), (200 * 488 + 1, 265)],
        ids=["below", "at", "past"])
    def test_sent_stops(self, no_sieve, sieved, class_walk, stop, sieved_to):
        segments = class_segments(REFINED_61)
        flat = next(segments)
        while flat[-1] <= stop:
            flat += segments.send(stop)
        assert flat == list(class_walk(REFINED_61, flat[-1]))
        assert len([p for p in flat if p > stop]) <= 2 * primes._FIRST_SEGMENT
        if sieved_to is None:
            assert sieved == []
        else:
            assert sieved == [4 * (sieved_to - 134)]


def test_inverts_the_modulus_once_per_prime(cold_sieve, monkeypatch):
    # Both residues share each sieving prime's inverse of the modulus
    # 2*10**6; 2 and 5 divide it and need none.
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(primes, "pow", counting_pow, raising=False)
    cls = CandidateClass(2 * 10**6, frozenset({1, 2 * 10**6 - 1}), 2)
    primes_in_classes(10**9, cls)
    assert len(calls) == len(primes_up_to(math.isqrt(10**9))) - 2 == 3399


@st.composite
def classes_with_stops(draw):
    modulus = draw(st.integers(2, 60))
    residues = draw(st.frozensets(st.integers(0, modulus - 1), min_size=1))
    limit = draw(st.none() | st.integers(0, 20_000))
    stops = draw(st.lists(st.integers(0, 20_000), max_size=6))
    return CandidateClass(modulus, residues, 2), limit, stops


def test_sent_stops_move_only_where_segments_end(cold_sieve, class_walk):
    # Send each stop after a segment, then walk on unsent: bounded walks
    # run out, unbounded ones go on past 20,000, and either way the
    # primes up to the bound are exactly the walk's.
    @given(classes_with_stops())
    def check(case):
        cls, limit, stops = case
        if limit is None:  # Dirichlet: then some residue holds endless primes
            assume(any(math.gcd(r, cls.modulus) == 1 for r in cls.residues))
        bound = 20_000 if limit is None else limit
        segments, flat, stops = class_segments(cls, limit), [], iter(stops)
        try:
            segment = next(segments)
            while not flat or flat[-1] <= bound:
                flat += segment
                segment = segments.send(next(stops, None))
        except StopIteration:
            pass
        assert flat == sorted(set(flat))
        assert [p for p in flat if p <= bound] == list(class_walk(cls, bound))

    check()


def test_the_sieve_stops_at_its_ceiling(monkeypatch):
    # Past MAX_SIEVE nothing is sieved, here with MAX_SIEVE lowered to 3000.
    with pytest.raises(ValueError, match="stops at"):
        primes_up_to(primes.MAX_SIEVE + 1)
    monkeypatch.setattr(primes, "MAX_SIEVE", 3000)
    assert primes_up_to(3000) == [p for p in range(3001) if brute_is_prime(p)]
    with pytest.raises(ValueError, match="stops at 3000, got 3001"):
        primes_up_to(3001)


def test_cache_growth_is_consistent():
    small = primes_up_to(100)
    large = primes_up_to(10**5)
    assert large[: len(small)] == small
    assert primes_up_to(100) == small


def test_smooth_numbers_leave_the_sieve_small(cold_sieve, no_sieve):
    # 2**44 loses its only prime at once, so nothing past the base sieve
    # (BASE = 2**16) is needed, not isqrt(2**44) = 4,194,304.
    assert prime_factors(2**44) == ((2, 44),)
    assert order(3, 2**44).order == 2**42
