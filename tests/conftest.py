import itertools

import pytest

from fermatkit.primes import is_prime


def walk_class(classes, limit=None):
    """The per-candidate walk the class sieve replaced, kept as its oracle.

    Ascending k*modulus + r for k = 0, 1, ... and each residue r, with
    is_prime (trial division) on every member; stops past limit.
    """
    residues = sorted(classes.residues)
    for base in itertools.count(0, classes.modulus):
        for r in residues:
            c = base + r
            if limit is not None and c > limit:
                return
            if is_prime(c):
                yield c


@pytest.fixture
def class_walk():
    return walk_class


def naive_order(base, m):
    """The linear loop order() replaced, kept as its oracle.

    Multiplies by the base once per step until the power is 1 mod m, so
    it costs the order itself; base and m must be coprime.
    """
    r = base % m
    k = 1
    while r != 1:
        r = r * base % m
        k += 1
    return k


@pytest.fixture
def order_loop():
    return naive_order
