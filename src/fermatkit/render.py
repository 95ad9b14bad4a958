"""Text and JSON forms of factorizations, factor traces, orders, the
``verify-flt`` sweep's lines, candidate classes, challenge scans and replay
reports: the one place they are written.

JSON forms write every number as a decimal string (values exceed 64 bits).
Every form the CLI writes is yielded as newline-terminated lines, or
pieces of them, for the caller to write as they are made: a factor trace
or candidate list can run to a million lines. A run of misses in a trace
is written as one candidate-miss line or entry per candidate. ``json`` is
imported only by the functions that write JSON, to keep it off CLI
start-up.
"""

from .factoring import (
    ALGEBRAIC_SPLIT,
    BUDGET_EXHAUSTED,
    CANDIDATE_HIT,
    CANDIDATE_MISS,
    COFACTOR_PRIME,
    MISS_RUN,
    PARTIAL,
    PROPAGATED,
    TraceStep,
)
from .perfect import IMPOSTER, MERSENNE_PRIME, UNRESOLVED

_TRACE_TEXT = {
    PROPAGATED: "inherited {step.value} from exponent {step.source} "
    "(multiplicity {step.multiplicity})",
    ALGEBRAIC_SPLIT: "split into {step.value[0]} and {step.value[1]} (Aurifeuille)",
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


def _written_steps(trace):
    """The trace's steps with each run of misses cut into one step per miss."""
    for step in trace.steps:
        if step.rule == MISS_RUN:
            for c in step.value:
                yield TraceStep(CANDIDATE_MISS, c)
        else:
            yield step


def factor_lines(n, fact, trace):
    yield f"M{n} = {fact.value} = {format_factorization(fact)}\n"
    yield f"status: {fact.status}\n"
    for step in _written_steps(trace):
        yield f"  {_TRACE_TEXT[step.rule].format(step=step)}\n"


def factor_json(n, fact, trace):
    """The document json.dumps(..., indent=2) would write, and a newline.

    The head comes from json.dumps; each trace entry from one template,
    which needs no escaping: rules are fixed names, every number is a
    decimal string, a split's value is the list of its two halves and a
    missing source is null.
    """
    import json
    head = json.dumps({"exponent": str(n), "factorization": factorization_to_dict(fact)},
                      indent=2)
    yield head[:-2] + ',\n  "trace": ['  # reopen the object before its "\n}"
    sep = "\n"
    for rule, value, source, multiplicity in _written_steps(trace):
        source = "null" if source is None else f'"{source}"'
        value = ('[\n        "{}",\n        "{}"\n      ]'.format(*value)
                 if rule == ALGEBRAIC_SPLIT else f'"{value}"')
        yield (f'{sep}    {{\n      "rule": "{rule}",\n      "value": {value},\n'
               f'      "source": {source},\n      "multiplicity": "{multiplicity}"\n    }}')
        sep = ",\n"
    yield "]\n}\n" if sep == "\n" else "\n  ]\n}\n"


def order_text(record):
    yield f"order of {record.base} mod {record.modulus} = {record.order}\n"


def sweep_lines(sweep):
    for p, a, k in sweep.counterexamples:
        if k is None:
            yield f"counterexample: p={p} a={a}\n"
        else:
            yield f"counterexample: order {k} of 2 mod {p} does not divide {p - 1}\n"
    yield f"{sweep.checks} checks, {len(sweep.counterexamples)} counterexamples\n"


def candidates_lines(q, cls, limit, found):
    yield f"class for M{q}: residues {format_residues(cls)} mod {cls.modulus}\n"
    yield f"{len(found)} candidate primes up to {limit}\n"
    yield from (f"{c}\n" for c in found)


def challenge_text(report):
    for v in report.examined:
        yield (f"exponent {v.exponent}: {v.verdict} "
               f"({_VERDICT_TEXT[v.verdict].format(v=v)})\n")
    out = report.outcome
    if out is None:
        yield f"no perfect number with at least {report.min_digits} digits\n"
    else:
        yield (f"found: {out.perfect_number} ({out.digits} digits, "
               f"exponent {out.exponent})\n")


def report_to_dict(report):
    items = [{"label": i.label, "computed": i.computed, "expected": i.expected,
              "pass": i.passed} for i in report.items]
    return {"scenario": report.scenario, "items": items, "overall": report.overall}


def render_report(reports):
    for report in reports:
        yield f"scenario: {report.scenario}\n"
        for item in report.items:
            mark = "pass" if item.passed else "FAIL"
            expected = "" if item.passed else f" (expected {item.expected})"
            yield f"  [{mark}] {item.label}: {item.computed}{expected}\n"
        yield f"overall: {'pass' if report.overall else 'FAIL'}\n"


def reports_json(reports):
    """One report as an object, several as a list, and a newline."""
    import json
    docs = [report_to_dict(r) for r in reports]
    yield json.dumps(docs[0] if len(docs) == 1 else docs, indent=2)
    yield "\n"
