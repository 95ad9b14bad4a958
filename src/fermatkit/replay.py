"""Historical reproductions: recompute the 1640s results and diff them.

Expected values are embedded literal constants (the historically
reported factorizations, counts, and digit tallies), never recomputed,
so a regression in the pipeline cannot silently rewrite what the run is
checked against. It only recomputes and diffs; ``render`` writes the text.
Every scan is ``factor_mersenne``'s: the M31 candidates and hits are read
from its trace, not from a walk of this module's own.
"""

from collections import namedtuple

from .factoring import factor_mersenne
from .forms import euler_refined_class
from .kernel import Record, digit_count
from .mersenne import mersenne
from .primes import is_prime, primes_up_to
from .render import format_factorization, format_residues


class ReplayItem(Record, namedtuple("ReplayItem", "label computed expected passed")):
    __slots__ = ()


class ReplayReport(Record, namedtuple("ReplayReport", "scenario items")):
    __slots__ = ()

    @property
    def overall(self):
        return all(item.passed for item in self.items)


def _build_report(scenario, triples):
    items = tuple(
        ReplayItem(label, computed, expected, computed == expected)
        for label, computed, expected in triples
    )
    return ReplayReport(scenario, items)


# Factorizations of 2**n - 1 as historically reported, n = 2..22.
TABLE1_EXPECTED = {
    2: "3 (prime)",
    3: "7 (prime)",
    4: "3·5",
    5: "31 (prime)",
    6: "3^2·7",
    7: "127 (prime)",
    8: "3·5·17",
    9: "7·73",
    10: "3·11·31",
    11: "23·89",
    12: "3^2·5·7·13",
    13: "8191 (prime)",
    14: "3·43·127",
    15: "7·31·151",
    16: "3·5·17·257",
    17: "131071 (prime)",
    18: "3^3·7·19·73",
    19: "524287 (prime)",
    20: "3·5^2·11·31·41",
    21: "7^2·127·337",
    22: "3·23·89·683",
}

# The continuation beyond the table, n = 23..36.
M23_M36_EXPECTED = {
    23: "47·178481",
    24: "3^2·5·7·13·17·241",
    25: "31·601·1801",
    26: "3·2731·8191",
    27: "7·73·262657",
    28: "3·5·29·43·113·127",
    29: "233·1103·2089",
    30: "3^2·7·11·31·151·331",
    31: "2147483647 (prime)",
    32: "3·5·17·257·65537",
    33: "7·23·89·599479",
    34: "3·43691·131071",
    35: "31·71·127·122921",
    36: "3^3·5·7·13·19·37·73·109",
}


def _factorization_items(expected_by_exponent):
    triples = []
    for n, expected in sorted(expected_by_exponent.items()):
        fact, _trace = factor_mersenne(n)
        triples.append((f"M{n}", format_factorization(fact), expected))
    return triples


def replay_table1():
    return _build_report("table1", _factorization_items(TABLE1_EXPECTED))


def replay_m23_to_m36():
    return _build_report("m23-m36", _factorization_items(M23_M36_EXPECTED))


def replay_m37():
    """The 22-digit challenge: unrefined candidates 149 then 223 for M37."""
    fact, trace = factor_mersenne(37, refined=False)
    tried = trace.candidates_tried()
    hits = trace.hits()
    cofactor = 616318177
    perfect_candidate = mersenne(37) << 36
    triples = [
        ("first candidate", str(tried[0]) if tried else "none", "149"),
        ("divisor found", str(hits[0]) if hits else "none", "223"),
        ("factorization", format_factorization(fact), "223·616318177"),
        (
            "cofactor",
            "prime" if is_prime(cofactor) else "composite",
            "prime",
        ),
        (
            "perfect-candidate digits",
            str(digit_count(perfect_candidate)),
            "22",
        ),
    ]
    return _build_report("m37", triples)


def replay_m31():
    """Euler's scan: 84 refined candidates up to 46339, none divide M31."""
    m31 = mersenne(31)
    cls = euler_refined_class(31)
    residue_text = f"mod {cls.modulus}: {format_residues(cls)}"
    prime_count = len(primes_up_to(46338))
    # factor_mersenne scans the same class, by division, to isqrt(M31).
    _, trace = factor_mersenne(31)
    candidates = trace.candidates_tried()
    hits = trace.hits()
    # The scan divides; spot-check the first and last candidates through
    # the power residue as well.
    consistent = all(
        (m31 % c == 0) == (pow(2, 31, c) == 1)
        for c in (candidates[0], candidates[-1])
    )
    perfect = m31 << 30
    triples = [
        ("residue classes", residue_text, "mod 248: 1, 63"),
        ("primes below 46339", str(prime_count), "4792"),
        ("candidate count", str(len(candidates)), "84"),
        ("first candidate", str(candidates[0]), "311"),
        ("divisor hits", str(len(hits)), "0"),
        (
            "direct-division cross-check",
            "consistent" if consistent else "inconsistent",
            "consistent",
        ),
        ("verdict", "composite" if hits else "prime", "prime"),
        ("perfect number", str(perfect), "2305843008139952128"),
        ("perfect-number digits", str(digit_count(perfect)), "19"),
    ]
    return _build_report("m31", triples)


SCENARIOS = {
    "table1": replay_table1,
    "m23-m36": replay_m23_to_m36,
    "m37": replay_m37,
    "m31": replay_m31,
}


def replay_all():
    return [run() for run in SCENARIOS.values()]
