import random

import pytest
from hypothesis import given, strategies as st

from fermatkit.kernel import digit_count, divisors, gcd, isqrt, modpow
from fermatkit.mersenne import mersenne


class TestModpow:
    def test_direct_computation(self):
        # 2**10 = 1024 = 93 * 11 + 1
        assert modpow(2, 10, 11) == 1

    @pytest.mark.parametrize("a,m", [(0, 2), (1, 2), (5, 7), (123456, 999)])
    def test_zero_exponent_is_one(self, a, m):
        assert modpow(a, 0, m) == 1

    def test_power_residue_instance(self):
        assert modpow(2, 36, 37) == 1

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            modpow(2, 3, 1)
        with pytest.raises(ValueError):
            modpow(2, 3, 0)

    def test_matches_repeated_multiplication_exhaustively(self):
        for m in range(2, 64):
            for a in range(64):
                r = 1
                for e in range(64):
                    assert modpow(a, e, m) == r
                    r = r * a % m

    @given(
        st.integers(min_value=0, max_value=10**30),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=10**20),
    )
    def test_result_in_range(self, a, e, m):
        r = modpow(a, e, m)
        assert 0 <= r < m


class TestIsqrt:
    def test_zero(self):
        assert isqrt(0) == 0

    def test_truncates_near_square(self):
        assert isqrt(2147483647) == 46340

    def test_eleven_digit_value(self):
        assert isqrt(137438953471) == 370727

    def test_bracketing_up_to_million(self):
        for n in range(10**6):
            r = isqrt(n)
            assert r * r <= n < (r + 1) * (r + 1)

    @given(st.integers(min_value=0, max_value=10**40))
    def test_bracketing_property(self, n):
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            isqrt(-1)


class TestGcd:
    def test_identity_with_zero(self):
        assert gcd(0, 7) == 7

    def test_coprime_pair(self):
        assert gcd(2, 683) == 1

    def test_common_divisors(self):
        assert gcd(12, 18) == 6

    def test_gcd_zero_zero(self):
        assert gcd(0, 0) == 0

    def test_divides_both_arguments(self):
        for a in range(500):
            for b in range(500):
                g = gcd(a, b)
                if g:
                    assert a % g == 0 and b % g == 0

    def test_every_common_divisor_divides_gcd(self):
        # d | a and d | b implies d | gcd(a, b); sweep by divisor.
        for d in range(1, 500):
            for a in range(d, 500, d):
                for b in range(d, 500, d):
                    assert gcd(a, b) % d == 0


class TestDigitCount:
    def test_nineteen_digits(self):
        assert digit_count(2305843008139952128) == 19

    def test_twenty_two_digits(self):
        assert digit_count(9444732965670570950656) == 22

    def test_smallest_input(self):
        assert digit_count(1) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            digit_count(0)

    @given(st.integers(min_value=1, max_value=10**50))
    def test_matches_string_length(self, n):
        assert digit_count(n) == len(str(n))

    def test_powers_of_ten_and_neighbours(self):
        # Past 4300 digits str() of an int raises, so no string is used.
        for k in range(1, 5001):
            power = 10**k
            assert digit_count(power - 1) == k
            assert digit_count(power) == k + 1
            assert digit_count(power + 1) == k + 1


class TestDivisors:
    def test_known_values(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
        assert divisors(13) == [1, 13]

    def test_matches_brute_force(self):
        for n in range(1, 300):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    def test_matches_trial_division_to_30000(self, divisor_loop):
        for n in range(1, 30001):
            assert divisors(n) == divisor_loop(n), n

    def test_matches_trial_division_below_10_to_9(self, divisor_loop):
        # The loop takes isqrt(n) steps, up to 31,622 here.
        rng = random.Random(61)
        for n in (rng.randrange(1, 10**9) for _ in range(100)):
            assert divisors(n) == divisor_loop(n), n

    def test_a_61_bit_prime(self):
        # Trying every d up to isqrt(2**61 - 1), about 1.5e9 of them, took
        # over 3 minutes on a 2-core host; the base primes' gcds leave a
        # prime that the strong test proves, below psi_13.
        assert divisors(2**61 - 1) == [1, 2**61 - 1]

    def test_unfactorable_raises(self):
        # M89 is a prime past psi_13, which prime_factors cannot prove.
        with pytest.raises(ValueError, match="cannot factor"):
            divisors(mersenne(89))
