import pytest

from fermatkit.factoring import factor_mersenne
from fermatkit.forms import (
    CandidateClass,
    euler_refined_class,
    generalized_class,
    primitive_class,
    qr2,
    sophie_germain_divisor,
    third_proposition_class,
)
from fermatkit.mersenne import mersenne
from fermatkit.primes import primes_up_to


class TestCandidateClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            CandidateClass(1, frozenset({0}), 2)
        with pytest.raises(ValueError):
            CandidateClass(6, frozenset(), 3)
        with pytest.raises(ValueError):
            CandidateClass(6, frozenset({6}), 3)


class TestThirdPropositionClass:
    @pytest.mark.parametrize("q,modulus", [(37, 74), (3, 6), (23, 46)])
    def test_modulus_and_residue(self, q, modulus):
        cls = third_proposition_class(q)
        assert cls.modulus == modulus
        assert cls.residues == frozenset({1})
        assert cls.target_exponent == q

    def test_rejects_non_odd_primes(self):
        with pytest.raises(ValueError):
            third_proposition_class(2)
        with pytest.raises(ValueError):
            third_proposition_class(15)


class TestGeneralizedClass:
    def test_odd_composite(self):
        assert generalized_class(25).modulus == 50

    def test_even(self):
        assert generalized_class(2).modulus == 2
        assert generalized_class(24).modulus == 24

    def test_odd_prime(self):
        assert generalized_class(11).modulus == 22

    def test_small_rejected(self):
        with pytest.raises(ValueError):
            generalized_class(1)


class TestQr2:
    @pytest.mark.parametrize("q,expected", [(7, True), (3, False), (17, True)])
    def test_known_values(self, q, expected):
        assert qr2(q) is expected

    def test_rejects_two_and_composites(self):
        with pytest.raises(ValueError):
            qr2(2)
        with pytest.raises(ValueError):
            qr2(9)

    def test_matches_mod_eight_rule(self):
        for q in primes_up_to(10**4):
            if q == 2:
                continue
            assert qr2(q) == (q % 8 in (1, 7))

    def test_matches_square_enumeration(self):
        for q in primes_up_to(200):
            if q == 2:
                continue
            squares = {x * x % q for x in range(1, q)}
            assert qr2(q) == (2 in squares)


class TestEulerRefinedClass:
    def test_m31_classes(self):
        cls = euler_refined_class(31)
        assert cls.modulus == 248
        assert cls.residues == frozenset({1, 63})

    def test_smallest_case(self):
        cls = euler_refined_class(3)
        assert cls.modulus == 24
        assert cls.residues == frozenset({1, 7})

    def test_m37_classes(self):
        cls = euler_refined_class(37)
        assert cls.modulus == 296
        assert cls.residues == frozenset({1, 223})

    def test_always_two_residues_including_one(self):
        for q in primes_up_to(1000):
            if q == 2:
                continue
            cls = euler_refined_class(q)
            assert len(cls.residues) == 2
            assert 1 in cls.residues
            for r in cls.residues:
                assert r % (2 * q) == 1
                assert r % 8 in (1, 7)

    def test_matches_the_scan_below_10_to_4(self, oracle_primes, refined_scan):
        for q in (q for q in oracle_primes(14)[1:] if q < 10**4):
            assert euler_refined_class(q).residues == refined_scan(q), q

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            euler_refined_class(15)


class TestPrimitiveClass:
    def test_two_residues_mod_8h_unless_0_mod_4(self):
        # h = n for odd n and n/2 for n = 2 mod 4: two of the four members
        # of [1, 8h) that are 1 mod 2h, 1 among them. For 8 | n the class
        # is 1 mod 2n, for n = 4 mod 8 the plain 1 mod n.
        for n in range(2, 1000):
            cls = primitive_class(n)
            assert cls.target_exponent == n
            if n % 8 == 0:
                assert (cls.modulus, cls.residues) == (2 * n, frozenset({1}))
                continue
            if n % 4 == 0:
                assert cls == generalized_class(n)
                continue
            h = n if n % 2 else n // 2
            assert cls.modulus == 8 * h
            assert len(cls.residues) == 2 and 1 in cls.residues
            assert all(r % (2 * h) == 1 for r in cls.residues)

    def test_every_primitive_prime_lies_in_the_class(self):
        # sympy factors Phi_n(2), which holds every prime of 2**n - 1 of
        # order n, and gives each prime's order of 2, the primes of order n
        # being the primitive ones. Every n <= 128 has one but 6
        # (Zsigmondy, 1892).
        sympy = pytest.importorskip("sympy")
        for n in range(2, 129):
            cls = primitive_class(n)
            primitive = [q for q in sympy.factorint(int(sympy.cyclotomic_poly(n, 2)))
                         if sympy.n_order(2, q) == n]
            assert primitive or n == 6
            for q in primitive:
                assert q % cls.modulus in cls.residues, (n, q)

    def test_odd_primes_get_the_refined_class(self):
        for q in primes_up_to(1000)[1:]:
            assert primitive_class(q) == euler_refined_class(q)

    def test_small_rejected(self):
        with pytest.raises(ValueError):
            primitive_class(1)


class TestSophieGermainDivisor:
    @pytest.mark.parametrize(
        "p,q", [(3, 7), (11, 23), (23, 47), (83, 167), (131, 263)]
    )
    def test_divisor_found(self, p, q):
        assert sophie_germain_divisor(p) == q

    @pytest.mark.parametrize("p", [13, 29, 7])
    def test_inapplicable(self, p):
        # 13, 29 are 1 mod 4; 15 = 2*7+1 is composite.
        assert sophie_germain_divisor(p) is None

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            sophie_germain_divisor(9)

    def test_divisor_divides_exactly(self):
        for p in primes_up_to(200):
            q = sophie_germain_divisor(p)
            if q is not None:
                assert mersenne(p) % q == 0


class TestClassSoundness:
    def test_all_factors_obey_third_proposition(self):
        for q in primes_up_to(31):
            if q == 2:
                continue
            fact, _ = factor_mersenne(q)
            for p, _e in fact.factors:
                assert p % (2 * q) == 1

    def test_all_factors_in_refined_class(self):
        for q in primes_up_to(31):
            if q == 2:
                continue
            cls = euler_refined_class(q)
            fact, _ = factor_mersenne(q)
            for p, _e in fact.factors:
                assert p % cls.modulus in cls.residues
