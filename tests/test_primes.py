import itertools

import pytest

from fermatkit import primes
from fermatkit.forms import CandidateClass, euler_refined_class, generalized_class
from fermatkit.mersenne import order
from fermatkit.primes import (
    class_primes,
    is_prime,
    prime_factors,
    primes_in_classes,
    primes_up_to,
)


def brute_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, n))


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


class TestClassPrimes:
    def test_unbounded_walk_continues_the_bounded_one(self):
        cls = euler_refined_class(31)
        walk = class_primes(cls)
        bounded = primes_in_classes(46339, cls)
        assert [next(walk) for _ in bounded] == bounded
        assert next(walk) > 46339

    def test_bound_is_inclusive(self):
        cls = generalized_class(11)
        assert list(class_primes(cls, 23)) == [23]
        assert list(class_primes(cls, 22)) == []

    def test_unbounded_sieve_matches_walk(self, class_walk):
        # 3,000 primes cross several segment boundaries for every q.
        for q in range(2, 129):
            classes = [generalized_class(q)]
            if q % 2 == 1 and is_prime(q):
                classes.append(euler_refined_class(q))
            for cls in classes:
                sieved = list(itertools.islice(class_primes(cls), 3000))
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
            next(class_primes(Empty()))


def test_cache_growth_is_consistent():
    small = primes_up_to(100)
    large = primes_up_to(10**5)
    assert large[: len(small)] == small
    assert primes_up_to(100) == small


def test_smooth_numbers_leave_the_sieve_small(monkeypatch):
    # From a cold cache: 2**44 loses its only prime at once, so nothing
    # past the first sieve (1024) is needed, not isqrt(2**44) = 4,194,304.
    monkeypatch.setattr(primes, "_cached_limit", 0)
    monkeypatch.setattr(primes, "_cached_primes", [])
    assert prime_factors(2**44) == ((2, 44),)
    assert primes._cached_limit <= 1024
    assert order(3, 2**44).order == 2**42
    assert primes._cached_limit <= 1024
