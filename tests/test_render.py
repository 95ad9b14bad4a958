import json

import pytest

from fermatkit.factoring import FactorTrace, Factorization, TraceStep, factor_mersenne
from fermatkit.render import factor_json, factor_lines


def expected_json(n, fact, trace):
    """The whole document built as one dict and written by json.dumps."""
    entries = []
    for s in trace.steps:
        members = s.value if s.rule == "candidate-miss-run" else None
        if members is None:
            value = (list(map(str, s.value)) if s.rule == "algebraic-split"
                     else str(s.value))
            entries.append({"rule": s.rule, "value": value,
                            "source": None if s.source is None else str(s.source),
                            "multiplicity": str(s.multiplicity)})
        else:
            entries += [{"rule": "candidate-miss", "value": str(c), "source": None,
                         "multiplicity": "0"} for c in members]
    doc = {
        "exponent": str(n),
        "factorization": {
            "value": str(fact.value),
            "factors": [{"p": str(p), "e": str(e)} for p, e in fact.factors],
            "status": fact.status,
            "cofactor": str(fact.unresolved_cofactor),
        },
        "trace": entries,
    }
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("n,budget,refined", [
    (12, None, True),     # inherited only
    (37, None, False),    # miss run, hit, cofactor prime
    (37, 200, True),      # miss run, budget
    (44, None, True),     # inherited, split, cofactor prime twice
    (59, 10**4, True),    # miss run, hit, miss run, budget
    (64, None, True),     # inherited, hits
])
def test_streamed_json_equals_one_dumps(n, budget, refined):
    fact, trace = factor_mersenne(n, budget, refined)
    assert "".join(factor_json(n, fact, trace)) == expected_json(n, fact, trace)


def test_streamed_json_of_hand_built_traces():
    fact = Factorization(2047, ((23, 1), (89, 1)), "complete")
    traces = [
        FactorTrace(()),
        FactorTrace((TraceStep("candidate-miss-run", (5,)),)),
        FactorTrace((TraceStep("propagated", 3, source=2, multiplicity=2),
                     TraceStep("candidate-miss-run", (7, 11, 13)),
                     TraceStep("candidate-hit", 23, multiplicity=1),
                     TraceStep("cofactor-prime", 89, multiplicity=1))),
    ]
    for trace in traces:
        assert "".join(factor_json(11, fact, trace)) == expected_json(11, fact, trace)


def test_runs_are_written_one_line_per_miss():
    fact, trace = factor_mersenne(37, refined=False)
    lines = list(factor_lines(37, fact, trace))
    tried = [line for line in lines if line.startswith("  tried ")]
    assert tried == [f"  tried {c}: {'hit (multiplicity 1)' if c == 223 else 'miss'}\n"
                     for c in trace.candidates_tried()]
