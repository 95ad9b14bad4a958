"""Text and JSON forms of factorizations, factor traces, candidate classes,
challenge scans and replay reports: the one place they are written.

JSON forms write every number as a decimal string (values exceed 64 bits).
A factor trace or candidate list can run to a million lines, so its text
form yields lines for the caller to write as they are made. ``json`` is
imported only by the functions that write JSON, to keep it off CLI start-up.
"""

from .factoring import (
    BUDGET_EXHAUSTED,
    CANDIDATE_HIT,
    CANDIDATE_MISS,
    COFACTOR_PRIME,
    PARTIAL,
    PROPAGATED,
)
from .perfect import IMPOSTER, MERSENNE_PRIME, UNRESOLVED

_TRACE_TEXT = {
    PROPAGATED: "inherited {step.value} from exponent {step.source} "
    "(multiplicity {step.multiplicity})",
    CANDIDATE_MISS: "tried {step.value}: miss",
    CANDIDATE_HIT: "tried {step.value}: hit (multiplicity {step.multiplicity})",
    COFACTOR_PRIME: "cofactor {step.value} is prime (candidates exhausted)",
    BUDGET_EXHAUSTED: "scan stopped at budget {step.value}",
}

_VERDICT_TEXT = {
    MERSENNE_PRIME: "perfect number has {v.digits} digits",
    IMPOSTER: "witness factor {v.witness}",
    UNRESOLVED: "scan budget exhausted",
}


def format_factorization(f):
    """Ascending 'p^e·...' with exponent 1 elided; primes flagged as such."""
    if len(f.factors) == 1 and f.factors[0] == (f.value, 1):
        return f"{f.value} (prime)"
    parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in f.factors]
    if f.status == PARTIAL:
        parts.append(f"{f.unresolved_cofactor} (unresolved)")
    return "·".join(parts)


def format_residues(cls):
    """The residues of a candidate class, ascending and comma-separated."""
    return ", ".join(str(r) for r in sorted(cls.residues))


def factorization_to_dict(f):
    """JSON form with every number as a decimal string."""
    return {
        "value": str(f.value),
        "factors": [{"p": str(p), "e": str(e)} for p, e in f.factors],
        "status": f.status,
        "cofactor": str(f.unresolved_cofactor),
    }


def factor_lines(n, fact, trace):
    yield f"M{n} = {fact.value} = {format_factorization(fact)}\n"
    yield f"status: {fact.status}\n"
    for step in trace.steps:
        yield f"  {_TRACE_TEXT[step.rule].format(step=step)}\n"


def factor_json(n, fact, trace):
    import json
    steps = [{"rule": s.rule, "value": str(s.value),
              "source": None if s.source is None else str(s.source),
              "multiplicity": str(s.multiplicity)} for s in trace.steps]
    doc = {"exponent": str(n), "factorization": factorization_to_dict(fact),
           "trace": steps}
    return json.dumps(doc, indent=2)


def candidates_lines(q, cls, limit, found):
    yield f"class for M{q}: residues {format_residues(cls)} mod {cls.modulus}\n"
    yield f"{len(found)} candidate primes up to {limit}\n"
    yield from (f"{c}\n" for c in found)


def challenge_text(report):
    lines = [
        f"exponent {v.exponent}: {v.verdict} "
        f"({_VERDICT_TEXT[v.verdict].format(v=v)})"
        for v in report.examined
    ]
    out = report.outcome
    if out is None:
        lines.append(f"no perfect number with at least {report.min_digits} digits")
    else:
        lines.append(f"found: {out.perfect_number} ({out.digits} digits, "
                     f"exponent {out.exponent})")
    return "\n".join(lines)


def report_to_dict(report):
    items = [{"label": i.label, "computed": i.computed, "expected": i.expected,
              "pass": i.passed} for i in report.items]
    return {"scenario": report.scenario, "items": items, "overall": report.overall}


def render_report(report):
    lines = [f"scenario: {report.scenario}"]
    for item in report.items:
        mark = "pass" if item.passed else "FAIL"
        line = f"  [{mark}] {item.label}: {item.computed}"
        if not item.passed:
            line += f" (expected {item.expected})"
        lines.append(line)
    lines.append(f"overall: {'pass' if report.overall else 'FAIL'}")
    return "\n".join(lines)


def reports_json(reports):
    """One report as an object, several as a list."""
    import json
    docs = [report_to_dict(r) for r in reports]
    return json.dumps(docs[0] if len(docs) == 1 else docs, indent=2)
