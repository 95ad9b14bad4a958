"""Independent checks of the workloads' outputs.

sympy decides primality, orders and divisor sums; numpy sieves the primes
below a factoring budget. Nothing here imports fermatkit. Every check
returns the number of failed operations, so a wrong answer counts
against ``failed`` instead of aborting the run. Verdicts are cached per
distinct output, because repeated jobs of one seed produce the same ones.
"""

import json
from functools import lru_cache
from math import prod

import numpy as np
from sympy import divisor_sigma, factorint, isprime, n_order, primerange

# Exponents of the Mersenne primes below 2**64, as historically known.
MERSENNE_PRIME_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31, 61)


@lru_cache(maxsize=None)
def _primes_to(limit):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags).astype(np.int64)


def has_prime_factor_up_to(m, limit):
    """Whether some prime p <= limit divides m (limit below 2**24)."""
    primes = _primes_to(limit)
    residues = np.zeros_like(primes)
    digits = []
    while m:
        m, digit = divmod(m, 1 << 16)
        digits.append(digit)
    for digit in reversed(digits):
        residues = (residues * (1 << 16) + digit) % primes
    return bool((residues == 0).any())


@lru_cache(maxsize=None)
def _factor_ok(n, factors, status, cofactor, verified, budget):
    value = (1 << n) - 1
    if not verified or list(factors) != sorted(set(factors)):
        return False
    for p, e in factors:
        if e < 1 or not isprime(p):
            return False
        if value % p**e or (value // p**e) % p == 0:
            return False
    if prod(p**e for p, e in factors) * cofactor != value:
        return False
    if status == "complete":
        return cofactor == 1
    if status == "partial":
        return cofactor > 1 and not has_prime_factor_up_to(cofactor, budget)
    return False


def check_factor(results, budget):
    failed = 0
    for r in results:
        factors = tuple(tuple(pe) for pe in r["factors"])
        if not _factor_ok(r["n"], factors, r["status"], r["cofactor"],
                          r["verified"], budget):
            failed += 1
    return failed


@lru_cache(maxsize=None)
def _order(m):
    return n_order(2, m)


@lru_cache(maxsize=None)
def _aliquot(n):
    return int(divisor_sigma(n)) - n


@lru_cache(maxsize=None)
def _expected_primes(limit):
    return list(primerange(2, limit + 1))


def check_sweep(results, flt_max_p, perfect_limit, frenicle_max_exponent):
    failed = 0
    flt = results["flt"]
    expected = _expected_primes(flt_max_p)
    failed += abs(len(flt) - len(expected))
    for (p, bad, k, holds), q in zip(flt, expected):
        if p != q or bad or not holds or (p > 2 and k != _order(p)):
            failed += 1
    for m, k in results["orders"]:
        failed += k != _order(m)
    for n, s in results["aliquots"]:
        failed += s != _aliquot(n)
    known = [((1 << p) - 1) << (p - 1) for p in MERSENNE_PRIME_EXPONENTS]
    failed += results["perfect"] != [x for x in known if x <= perfect_limit]
    failed += results["frenicle"] != _frenicle(frenicle_max_exponent)
    return failed


@lru_cache(maxsize=None)
def _frenicle_rows(max_exponent):
    rows = []
    for p in primerange(2, max_exponent + 1):
        m = (1 << p) - 1
        if isprime(m):
            rows.append([p, "mersenne-prime", None, len(str(m << (p - 1)))])
        else:
            rows.append([p, "imposter", min(factorint(m)), None])
    return rows


def _frenicle(max_exponent, min_digits=20):
    rows = _frenicle_rows(max_exponent)
    outcome = next((p for p, verdict, _w, digits in rows
                    if verdict == "mersenne-prime" and digits >= min_digits), None)
    return {"examined": rows, "outcome": outcome}


def _check_replay(stdout):
    docs = json.loads(stdout)
    scenarios = {"table1", "m23-m36", "m37", "m31"}
    return ({d["scenario"] for d in docs} == scenarios and len(docs) == 4
            and all(d["overall"] and all(i["pass"] for i in d["items"])
                    for d in docs))


def _check_factor_json(n, stdout):
    doc = json.loads(stdout)
    f = doc["factorization"]
    factors = [(int(x["p"]), int(x["e"])) for x in f["factors"]]
    return (doc["exponent"] == str(n) and f["status"] == "complete"
            and f["cofactor"] == "1" and int(f["value"]) == (1 << n) - 1
            and prod(p**e for p, e in factors) == (1 << n) - 1
            and all(isprime(p) for p, _ in factors))


def _check_order(m, stdout):
    return stdout == f"order of 2 mod {m} = {n_order(2, m)}\n"


def _check_candidates(q, limit, stdout):
    residues = sorted(r for r in range(1, 8 * q) if r % (2 * q) == 1 and r % 8 in (1, 7))
    found = [p for p in primerange(2, limit + 1) if p % (8 * q) in residues]
    lines = [f"class for M{q}: residues {', '.join(map(str, residues))} mod {8 * q}",
             f"{len(found)} candidate primes up to {limit}", *map(str, found)]
    return stdout == "\n".join(lines) + "\n"


def _check_perfect(min_digits, max_exponent, stdout):
    lines = []
    expected = _frenicle(max_exponent, min_digits)
    for p, verdict, witness, digits in expected["examined"]:
        detail = (f"perfect number has {digits} digits" if witness is None
                  else f"witness factor {witness}")
        lines.append(f"exponent {p}: {verdict} ({detail})")
    if expected["outcome"] is None:
        lines.append(f"no perfect number with at least {min_digits} digits")
    else:
        p = expected["outcome"]
        perfect = ((1 << p) - 1) << (p - 1)
        lines.append(f"found: {perfect} ({len(str(perfect))} digits, exponent {p})")
    return stdout == "\n".join(lines) + "\n"


def _check_verify_flt(max_p, bases, stdout):
    primes = _expected_primes(max_p)
    checks = sum(1 for p in primes for a in bases if a % p) + len(primes) - 1
    return stdout == f"{checks} checks, 0 counterexamples\n"


def _option(words, flag, default=None):
    return words[words.index(flag) + 1] if flag in words else default


def _cli_checker(command):
    words = command.split()
    name = words[0]
    if name == "replay" and words[1] == "all":
        return _check_replay
    if name == "factor":
        return lambda out: _check_factor_json(int(words[1]), out)
    if name == "order" and "--base" not in words:
        return lambda out: _check_order(int(words[1]), out)
    if name == "candidates" and "--refined" in words:
        q, limit = int(_option(words, "--q")), int(_option(words, "--limit"))
        return lambda out: _check_candidates(q, limit, out)
    if name == "perfect":
        min_digits = int(_option(words, "--min-digits", 20))
        max_exponent = int(_option(words, "--max-exponent", 37))
        return lambda out: _check_perfect(min_digits, max_exponent, out)
    if name == "verify-flt":
        max_p = int(_option(words, "--max-p"))
        bases = tuple(int(b) for b in _option(words, "--bases").split(","))
        return lambda out: _check_verify_flt(max_p, bases, out)
    raise ValueError(f"no oracle for command {command!r}")


@lru_cache(maxsize=None)
def _cli_ok(command, returncode, stdout):
    if returncode != 0:
        return False
    try:
        return bool(_cli_checker(command)(stdout))
    except (ValueError, KeyError, TypeError):
        return False


def check_cli(results):
    return sum(r["count"] for r in results
               if not _cli_ok(r["command"], r["returncode"], r["stdout"]))
