"""Semantics shared by every result record: repr, equality, hash, immutability.

Each record is built from its fields by keyword; the repr strings are the
ones the records have always printed, so a change of representation shows.
"""

import pytest

from fermatkit.factoring import FactorTrace, Factorization, TraceStep
from fermatkit.forms import CandidateClass
from fermatkit.mersenne import OrderRecord
from fermatkit.perfect import ChallengeReport, ExponentVerdict, PerfectRecord
from fermatkit.replay import ReplayItem, ReplayReport

HIT = TraceStep("candidate-hit", 23, multiplicity=1)
VERDICT = ExponentVerdict(7, "mersenne-prime", digits=4)
PERFECT = PerfectRecord(7, 127, 8128, 4)
ITEM = ReplayItem("cofactor", "prime", "prime", True)

# (type, fields by keyword, repr)
RECORDS = [
    (CandidateClass,
     {"modulus": 248, "residues": frozenset({1, 63}), "target_exponent": 31},
     "CandidateClass(modulus=248, residues=frozenset({1, 63}), target_exponent=31)"),
    (OrderRecord, {"base": 2, "modulus": 683, "order": 22},
     "OrderRecord(base=2, modulus=683, order=22)"),
    (Factorization,
     {"value": 2047, "factors": ((23, 1),), "status": "partial",
      "unresolved_cofactor": 89},
     "Factorization(value=2047, factors=((23, 1),), status='partial', "
     "unresolved_cofactor=89)"),
    (TraceStep,
     {"rule": "propagated", "value": 3, "source": 2, "multiplicity": 2},
     "TraceStep(rule='propagated', value=3, source=2, multiplicity=2)"),
    (FactorTrace, {"steps": (HIT,)},
     "FactorTrace(steps=(TraceStep(rule='candidate-hit', value=23, source=None, "
     "multiplicity=1),))"),
    (PerfectRecord,
     {"exponent": 7, "mersenne_prime": 127, "perfect_number": 8128, "digits": 4},
     "PerfectRecord(exponent=7, mersenne_prime=127, perfect_number=8128, digits=4)"),
    (ExponentVerdict,
     {"exponent": 11, "verdict": "imposter", "witness": 23, "digits": None},
     "ExponentVerdict(exponent=11, verdict='imposter', witness=23, digits=None)"),
    (ChallengeReport, {"min_digits": 4, "examined": (VERDICT,), "outcome": PERFECT},
     "ChallengeReport(min_digits=4, examined=(ExponentVerdict(exponent=7, "
     "verdict='mersenne-prime', witness=None, digits=4),), "
     "outcome=PerfectRecord(exponent=7, mersenne_prime=127, "
     "perfect_number=8128, digits=4))"),
    (ReplayItem,
     {"label": "cofactor", "computed": "prime", "expected": "prime", "passed": True},
     "ReplayItem(label='cofactor', computed='prime', expected='prime', passed=True)"),
    (ReplayReport, {"scenario": "m37", "items": (ITEM,)},
     "ReplayReport(scenario='m37', items=(ReplayItem(label='cofactor', "
     "computed='prime', expected='prime', passed=True),))"),
]
RECORD_IDS = [kind.__name__ for kind, _, _ in RECORDS]


@pytest.mark.parametrize("kind,fields,text", RECORDS, ids=RECORD_IDS)
class TestRecord:
    def test_repr(self, kind, fields, text):
        assert repr(kind(**fields)) == text

    def test_keyword_and_positional_agree(self, kind, fields, text):
        assert kind(**fields) == kind(*fields.values())
        assert not kind(**fields) != kind(*fields.values())

    def test_equal_records_hash_equal(self, kind, fields, text):
        a, b = kind(**fields), kind(*fields.values())
        assert hash(a) == hash(b)
        # The hash a frozen record has always had: that of its field tuple.
        assert hash(a) == hash(tuple(fields.values()))

    def test_never_equals_a_plain_tuple(self, kind, fields, text):
        record, plain = kind(**fields), tuple(fields.values())
        assert record != plain and plain != record
        assert not record == plain and not plain == record

    def test_fields_are_read_only(self, kind, fields, text):
        record = kind(**fields)
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.note = "extra"


@pytest.mark.parametrize("a,b", [
    (PerfectRecord(7, 127, 8128, 4), ExponentVerdict(7, 127, 8128, 4)),
    (TraceStep("x", 1, None, 0), ReplayItem("x", 1, None, 0)),
    (OrderRecord(2, 683, 22), ChallengeReport(2, 683, 22)),
])
def test_record_types_never_equal_each_other(a, b):
    assert a != b and b != a
    assert not a == b and not b == a


def test_defaults():
    assert TraceStep("x", 1) == TraceStep("x", 1, None, 0)
    assert TraceStep("x", 1) != ("x", 1, None, 0)
    assert Factorization(7, ((7, 1),), "complete").unresolved_cofactor == 1
    verdict = ExponentVerdict(3, "mersenne-prime")
    assert (verdict.witness, verdict.digits) == (None, None)
    assert ChallengeReport(20, ()).outcome is None


@pytest.mark.parametrize("fields,message", [
    ({"modulus": 1, "residues": frozenset({0}), "target_exponent": 2},
     "modulus must be >= 2, got 1"),
    ({"modulus": 6, "residues": frozenset(), "target_exponent": 3},
     "residue set must be non-empty"),
    ({"modulus": 6, "residues": frozenset({6}), "target_exponent": 3},
     r"every residue must lie in \[0, modulus\)"),
])
def test_candidate_class_rejects_bad_fields(fields, message):
    with pytest.raises(ValueError, match=message):
        CandidateClass(**fields)
    with pytest.raises(ValueError, match=message):
        CandidateClass(*fields.values())
    valid = CandidateClass(8, frozenset({1, 7}), 2)
    with pytest.raises(ValueError, match=message):
        valid._replace(**fields)
