import math
import random
import types

import pytest

import fermatkit
import fermatkit.mersenne as mersenne_module
from fermatkit import primes
from fermatkit.mersenne import (
    SweepRecord,
    divisibility_conjecture_check,
    exponent_progression,
    first_proposition_witness,
    flt_check,
    flt_sweep,
    is_mersenne_prime,
    mersenne,
    order,
    second_proposition_check,
)
from fermatkit.primes import PSI13


class TestMersenne:
    @pytest.mark.parametrize(
        "n,value", [(1, 1), (11, 2047), (37, 137438953471)]
    )
    def test_values(self, n, value):
        assert mersenne(n) == value

    def test_bit_length_equals_exponent(self):
        for n in range(1, 65):
            assert mersenne(n).bit_length() == n

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            mersenne(0)

    def test_package_attribute_is_the_module(self):
        assert isinstance(fermatkit.mersenne, types.ModuleType)
        assert fermatkit.mersenne.mersenne(5) == 31


class TestIsMersennePrime:
    def test_matches_trial_division(self, trial_division):
        for p in range(2, 41):
            assert is_mersenne_prime(p) == trial_division(mersenne(p)), p

    def test_exponents_up_to_1279(self):
        found = [p for p in range(1280) if is_mersenne_prime(p)]
        assert found == [2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279]

    def test_non_prime_exponents(self):
        for p in (-3, 0, 1, 4, 9, 11 * 11):
            assert not is_mersenne_prime(p)

    def test_matches_the_division_loop(self, lucas_lehmer_loop):
        for p in range(1280):
            assert is_mersenne_prime(p) == lucas_lehmer_loop(p), p

    @pytest.mark.parametrize("p", [521, 523, 607])
    def test_named_exponents_match_the_division_loop(self, lucas_lehmer_loop, p):
        assert is_mersenne_prime(p) == lucas_lehmer_loop(p)

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 31, 61, 89, 127])
    def test_reduction_edges(self, p):
        # s = 0 or 1 makes s*s - 2 negative, so x >> p is -1.
        m = mersenne(p)
        rng = random.Random(p)
        for s in (0, 1, 2, 3, m - 2, m - 1, *(rng.randrange(m) for _ in range(50))):
            assert mersenne_module._square_less_two(s, p, m) == (s * s - 2) % m, s

    def test_a_residue_of_m_reads_as_0(self):
        # Mod M_3 = 7, 3*3 - 2 = 7 and Lucas-Lehmer's 4*4 - 2 = 14 each sum
        # to (x & 7) + (x >> 3) = 7 = m, which must read as 0.
        assert mersenne_module._square_less_two(3, 3, 7) == 0
        assert mersenne_module._square_less_two(4, 3, 7) == 0
        assert is_mersenne_prime(3)


class TestOrder:
    @pytest.mark.parametrize(
        "modulus,expected", [(7, 3), (17, 8), (23, 11), (683, 22)]
    )
    def test_first_occurrence_exponents(self, modulus, expected):
        assert order(2, modulus).order == expected

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            order(2, 4)
        with pytest.raises(ValueError):
            order(6, 9)

    def test_agrees_with_exponent_scan(self):
        # Includes composite odd moduli.
        for m in range(3, 2001, 2):
            k = order(2, m).order
            scan = next(j for j in range(1, m + 1) if pow(2, j, m) == 1)
            assert k == scan

    def test_general_base(self):
        assert order(10, 7).order == 6
        assert order(4, 7).order == 3

    @pytest.mark.parametrize("base", [2, 3, 10])
    def test_matches_naive_order_to_3000(self, order_loop, base):
        # Every coprime modulus, so odd bases meet even moduli too.
        for m in range(3, 3001):
            if math.gcd(base, m) == 1:
                assert order(base, m).order == order_loop(base, m), m

    def test_matches_naive_order_on_large_moduli(self, order_loop):
        rng = random.Random(4)
        moduli = [rng.randrange(10**5 + 1, 10**6, 2) for _ in range(50)]
        for m in moduli:
            assert order(2, m).order == order_loop(2, m), m

    def test_prime_with_full_period(self):
        assert order(2, 1000003).order == 1000002

    @pytest.mark.parametrize(
        "base,modulus",
        [
            (2, 10**9 + 7),
            (3, 10**9 + 7),
            (2, 10**12 + 39),
            (10, 10**12 + 39),
            (2, 10**12 + 1),  # 73 * 137 * 99990001
            (3, 1000003 * 999983),
        ],
    )
    def test_beyond_any_loop(self, base, modulus):
        k = order(base, modulus).order
        assert pow(base, k, modulus) == 1
        for q in _prime_divisors(k):
            assert pow(base, k // q, modulus) != 1, q

    def test_prime_modulus_is_not_factored(self, monkeypatch, cold_sieve, no_sieve):
        # φ comes only from prime_factors(modulus), which stops on a prime
        # once the base sieve's primes are tried and is_prime proves it
        # below psi_13, so it is called on p and p - 1 alone, and no sieve
        # is built past the base, to BASE = 2**16. A composite, and any
        # modulus at or past psi_13, is factored too.
        calls, prime_factors = [], mersenne_module.prime_factors

        def counting_factors(n):
            calls.append(n)
            return prime_factors(n)

        monkeypatch.setattr(mersenne_module, "prime_factors", counting_factors)
        for p in (3, 683, 1000003, 10**9 + 7, 10**12 + 39, 2**61 - 1):
            cold_sieve()
            calls.clear()
            assert pow(2, order(2, p).order, p) == 1
            assert calls == [p, p - 1], p
        for m in (10**12 + 1, 3**60):
            calls.clear()
            order(2, m)
            assert calls[0] == m, m

    @pytest.mark.parametrize("modulus,k", [
        (100000000379, 50000000189),
        (10000000000000001963, 5000000000000000981),
    ])
    def test_safe_prime_leaves_the_first_sieve(self, cold_sieve, no_sieve,
                                               modulus, k):
        # Safe primes of 12 and 20 digits, modulus = 2 * prime + 1; k is
        # sympy's n_order. The prime cofactor's root lies past the base
        # sieve (BASE = 2**16), but is_prime proves it and no sieve is
        # built: one to that root would reach 262,144, or about 2 * 10**9.
        assert order(3, modulus).order == k

    def test_unchanged_for_odd_moduli_to_30000(self, factor_loop):
        # The least k with 2**k = 1 mod m: it divides φ(m), from the
        # oracle's factorization of m, and no k/q is an exponent.
        for m in range(3, 30000, 2):
            k = order(2, m).order
            phi = math.prod(p ** (e - 1) * (p - 1) for p, e in factor_loop(m))
            assert phi % k == 0 and pow(2, k, m) == 1, m
            for q, _ in factor_loop(k) if k > 1 else ():
                assert pow(2, k // q, m) != 1, m

    def test_euler_check_failure_raises(self, monkeypatch):
        # A wrong factorization of the modulus gives a wrong φ.
        monkeypatch.setattr(mersenne_module, "prime_factors", lambda n: ((n, 1),))
        with pytest.raises(AssertionError):
            order(2, 15)


def _prime_divisors(n):
    """Distinct primes of n, by trial division with every d up to sqrt(n)."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


class TestFltCheck:
    @pytest.mark.parametrize("p,a", [(31, 2), (3, 2), (8191, 2), (7, 10)])
    def test_holds(self, p, a):
        assert flt_check(p, a)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            flt_check(9, 2)

    def test_divisible_base_rejected(self):
        with pytest.raises(ValueError):
            flt_check(7, 14)


class TestDivisibilityConjecture:
    @pytest.mark.parametrize(
        "p,k", [(23, 11), (683, 22), (8191, 13)]
    )
    def test_known_orders(self, p, k):
        assert divisibility_conjecture_check(p) == (k, True)

    def test_rejects_even_or_composite(self):
        with pytest.raises(ValueError):
            divisibility_conjecture_check(2)
        with pytest.raises(ValueError):
            divisibility_conjecture_check(15)

    def test_fast_path_matches_naive_order(self, order_loop):
        from fermatkit.primes import primes_up_to

        for p in primes_up_to(2000):
            if p == 2:
                continue
            k, holds = divisibility_conjecture_check(p)
            assert holds
            assert k == order_loop(2, p)


class TestFltSweep:
    def test_matches_a_loop_over_the_oracle_primes(self, oracle_primes, factor_loop):
        # Past the base sieve, to 10**5, bases 2 and 3: the loop the CLI ran,
        # over this suite's own primes, with the order of 2 mod p reduced
        # from p - 1 by the oracle's factors of p - 1.
        checks, found = 0, []
        for p in (p for p in oracle_primes(17) if p <= 10**5):
            for a in (2, 3):
                if a % p:
                    checks += 1
                    if pow(a, p - 1, p) != 1:
                        found.append((p, a, None))
            if p > 2:
                k = p - 1
                for q, _ in factor_loop(p - 1):
                    while k % q == 0 and pow(2, k // q, p) == 1:
                        k //= q
                checks += 1
                if (p - 1) % k:
                    found.append((p, None, k))
        assert checks == 2 * 9592 - 2 + 9591
        assert flt_sweep(10**5, [2, 3]) == SweepRecord(checks, tuple(found))

    def test_no_primality_test_per_base(self, monkeypatch):
        # The primes come from the sieve: neither is_prime nor flt_check
        # runs, per base or per prime, past the base sieve too.
        calls = []
        for module, name in ((mersenne_module, "is_prime"), (primes, "is_prime"),
                             (mersenne_module, "flt_check"),
                             (mersenne_module, "divisibility_conjecture_check")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, fn=fn: calls.append(args) or fn(*args))
        sweep = flt_sweep(10**5, range(2, 51))
        assert sweep.counterexamples == () and sweep.checks > 49 * 9592
        assert calls == []

    def test_bases_that_p_divides_are_skipped(self):
        # p = 2 divides 0, 2 and 4 and p = 3 divides 0 and 3, so 3 is the
        # one base checked for 2, and 2 and 4 for 3, with 3's order check.
        assert flt_sweep(3, [0, 2, 3, 4]) == SweepRecord(1 + 2 + 1, ())
        assert flt_sweep(1, [2]) == SweepRecord(0, ())


class TestExponentProgression:
    def test_divisor_seven(self):
        assert exponent_progression(7, 22) == [3, 6, 9, 12, 15, 18, 21]

    def test_divisor_three(self):
        assert exponent_progression(3, 8) == [2, 4, 6, 8]

    def test_composite_modulus(self):
        # 2**6 - 1 = 63 = 9 * 7
        assert exponent_progression(9, 12) == [6, 12]

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            exponent_progression(8, 10)

    def test_equals_multiples_of_order(self):
        for m in range(3, 401, 2):
            k = order(2, m).order
            limit = 4 * k
            expected = list(range(k, limit + 1, k))
            assert exponent_progression(m, limit) == expected


class TestSecondProposition:
    @pytest.mark.parametrize("p", [3, 5, 37])
    def test_holds(self, p):
        assert second_proposition_check(p)

    def test_rejects_two_and_composites(self):
        with pytest.raises(ValueError):
            second_proposition_check(2)
        with pytest.raises(ValueError):
            second_proposition_check(9)

    def test_equivalence_of_forms(self):
        from fermatkit.primes import primes_up_to

        for p in primes_up_to(10**4):
            if p == 2:
                continue
            direct = (mersenne(p) - 1) % (2 * p) == 0
            alt = pow(2, p - 1, p) == 1
            assert direct == alt
            assert second_proposition_check(p) == direct


class TestFirstProposition:
    @pytest.mark.parametrize("n,d,factor", [(4, 2, 3), (22, 2, 3), (25, 5, 31)])
    def test_witnesses(self, n, d, factor):
        assert first_proposition_witness(n) == (d, factor)

    def test_witness_divides_properly(self):
        for n in range(4, 200):
            try:
                d, factor = first_proposition_witness(n)
            except ValueError:
                continue
            value = mersenne(n)
            assert n % d == 0 and 1 < d < n
            assert value % factor == 0 and 1 < factor < value

    def test_stops_at_the_least_divisor(self):
        # The first of the base primes' gcds finds 2; the witness needs n's
        # least prime alone, not its factorization or its divisors.
        assert first_proposition_witness(2**100) == (2, 3)

    def test_least_prime_matches_trial_division_to_30000(self, factor_loop):
        for n in range(4, 30001):
            (p, e), *rest = factor_loop(n)
            if e == 1 and not rest:  # n is prime
                continue
            assert first_proposition_witness(n) == (p, mersenne(p)), n

    def test_least_divisor_among_the_base_primes(self, cold_sieve):
        # 65521, the last base prime, is found by the base primes' gcds, so
        # prime_factors never meets M89, a prime past psi_13 it cannot prove.
        n = 65521 * mersenne(89)
        assert first_proposition_witness(n) == (65521, mersenne(65521))

    def test_large_least_divisor(self, cold_sieve):
        # No base prime, up to 65521, divides 1000003**2, so the least
        # divisor comes from prime_factors, whose rho splits the square
        # past the base sieve.
        assert first_proposition_witness(1000003**2) == (1000003, mersenne(1000003))

    def test_least_divisor_past_the_strong_test_bases(self, cold_sieve):
        # 43**16 is past psi_13 with no factor up to 41, where is_prime
        # raises; 43 is found among the base sieve's primes first.
        assert 43**16 > PSI13
        assert first_proposition_witness(43**16) == (43, mersenne(43))

    # The least divisor is the same whether the trial-division tables are
    # cold or built: 1000003**5 is split by rho, and 2*M89 is answered by 2
    # before M89, a prime past psi_13, is reached.
    @pytest.mark.parametrize("n,d", [(1000003**5, 1000003), (43**16, 43),
                                     (2**100, 2), (2 * mersenne(89), 2)],
                             ids=["1000003**5", "43**16", "2**100", "2*M89"])
    def test_cold_and_warm_sieves_agree(self, cold_sieve, n, d):
        cold = first_proposition_witness(n)
        primes.prime_factors(137 * 139 * (10**12 - 11))
        assert primes._below.cache_info().currsize == 16
        assert primes._blocks.cache_info().currsize == 1
        assert first_proposition_witness(n) == cold
        assert cold[0] == d and cold[1] == mersenne(d)

    def test_unfactorable_raises_cold_and_warm(self, cold_sieve):
        # No base prime, up to 65521, divides 1000003 * M89, and rho cannot
        # split M89, with the table of the primes below 2**16 cold or built.
        n = 1000003 * mersenne(89)
        with pytest.raises(ValueError, match="cannot factor"):
            first_proposition_witness(n)
        assert primes._below.cache_info().currsize == 16
        with pytest.raises(ValueError, match="cannot factor"):
            first_proposition_witness(n)

    def test_prime_and_small_rejected(self):
        with pytest.raises(ValueError):
            first_proposition_witness(7)
        with pytest.raises(ValueError):
            first_proposition_witness(3)


class TestGeometricSumDivisibility:
    def test_smaller_exponents_divide(self):
        for n in range(1, 65):
            big = mersenne(n)
            for d in range(1, n + 1):
                if n % d == 0:
                    assert big % mersenne(d) == 0


class TestLemma:
    def test_multiples_of_order_always_divide(self):
        for m in range(3, 2001, 2):
            k = order(2, m).order
            for j in range(1, 9):
                assert pow(2, j * k, m) == 1

    def test_only_multiples_divide(self):
        for m in range(3, 2001, 2):
            k = order(2, m).order
            hits = exponent_progression(m, 4 * k)
            assert hits == [k, 2 * k, 3 * k, 4 * k]
