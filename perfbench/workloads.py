"""Inputs and jobs of the three workloads, run inside a fresh worker.

Each job calls fermatkit's public functions, times each item (an
exponent, a sweep operation or a CLI invocation) and returns the raw
outputs; the orchestrator checks them afterwards against an independent
oracle, outside the timed region. Untraced jobs scale their times to the
reference speed of speed.py; traced jobs keep raw times.

The seed changes the order of the work or its samples, never its size.
"""

import json
import os
import random
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

import fermatkit as fk
from speed import Clock

FACTOR_BUDGET = 10**7
# M122's budget does not reach the unbudgeted recursive factor_mersenne(61),
# which alone takes about 226 s; it is left out for run length.
FACTOR_EXPONENTS = tuple(n for n in range(2, 129) if n != 122)

FLT_MAX_P = 5 * 10**4
FLT_BASES = tuple(range(2, 51))
ORDER_SAMPLES = 300
ORDER_BOUND = 10**6
# The order loop's cost is the order itself, which varies so much between
# random moduli that 300 fresh samples per seed change the job's size by
# about 15% (quartile spread of the summed orders). The moduli therefore
# come from one fixed draw, and the seed only changes their order.
ORDER_POOL_SEED = 1640
ALIQUOT_SAMPLES = 20_000
ALIQUOT_BOUND = 10**9
PERFECT_LIMIT = 10**28
FRENICLE_ARGS = (20, 59)

CLI_COMMANDS = (
    "replay all --json",
    "factor 37 --unrefined --json",
    "factor 59 --json",
    "order 683",
    "order 1000003",
    "candidates --q 31 --refined --limit 46339",
    "perfect --min-digits 20 --max-exponent 37",
    "verify-flt --max-p 2000 --bases 2,3,5",
)
# With eight equally frequent commands the slowest one (order 1000003)
# holds the top 12.5% of invocations, so the 90th percentile falls inside
# that one class rather than on the step below it.
CLI_ROUNDS = 13
CLI_CLIENT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_client.py")
CLIENT_TIMEOUT_S = 140


def make_inputs(workload, seed):
    rng = random.Random(seed)
    if workload == "factor":
        exponents = list(FACTOR_EXPONENTS)
        rng.shuffle(exponents)
        return {"exponents": exponents, "budget": FACTOR_BUDGET}
    if workload == "sweep":
        pool = random.Random(ORDER_POOL_SEED)
        moduli = [pool.randrange(3, ORDER_BOUND, 2) for _ in range(ORDER_SAMPLES)]
        rng.shuffle(moduli)
        numbers = [rng.randrange(1, ALIQUOT_BOUND) for _ in range(ALIQUOT_SAMPLES)]
        return {"moduli": moduli, "numbers": numbers}
    if workload == "cli":
        commands = [c for c in CLI_COMMANDS for _ in range(CLI_ROUNDS)]
        rng.shuffle(commands)
        return {"commands": commands}
    raise ValueError(f"unknown workload {workload!r}")


def _item(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _times(clock, latencies):
    return {"wall_s": clock.wall(), "raw_wall_s": clock.raw_wall(),
            "calibrations": clock.calibrations(), "latencies_s": latencies}


def run_factor(inputs, tracer=None):
    """Factor every exponent in seeded order, then verify in ascending order.

    verify's is_prime calls on the large factors set the shared sieve's
    growth, whose doubling steps, and so the peak RSS (49 to 83 MiB seen),
    depend on the order of those calls. Verifying in a fixed order keeps
    the seed from changing the job's memory size.
    """
    budget = inputs["budget"]
    factored, intervals = {}, {}
    clock = Clock(enabled=tracer is None)
    for n in inputs["exponents"]:
        clock.tick()
        t0 = perf_counter()
        with _item(tracer, f"factor {n}"):
            factored[n], _trace = fk.factor_mersenne(n, budget=budget)
        intervals[n] = [(t0, perf_counter())]
    verified = {}
    for n in sorted(factored):
        clock.tick()
        t0 = perf_counter()
        with _item(tracer, f"verify {n}"):
            verified[n] = fk.verify(factored[n])
        intervals[n].append((t0, perf_counter()))
    clock.stop()
    results = [{
        "n": n,
        "factors": [list(pe) for pe in fact.factors],
        "status": fact.status,
        "cofactor": fact.unresolved_cofactor,
        "verified": verified[n],
    } for n, fact in factored.items()]
    latencies = [sum(clock.scaled(*iv) for iv in ivs) for ivs in intervals.values()]
    return {**_times(clock, latencies), "results": results,
            "params": {"budget": budget}}


def run_sweep(inputs, tracer=None):
    intervals = []
    clock = Clock(enabled=tracer is None)

    with _item(tracer, "sweep flt"):
        flt = []
        for p in fk.primes_up_to(FLT_MAX_P):
            clock.tick()
            t0 = perf_counter()
            bad = [a for a in FLT_BASES if a % p and not fk.flt_check(p, a)]
            k, holds = fk.divisibility_conjecture_check(p) if p > 2 else (1, True)
            intervals.append((t0, perf_counter()))
            flt.append([p, bad, k, holds])

    with _item(tracer, "sweep order"):
        orders = []
        for m in inputs["moduli"]:
            clock.tick()
            t0 = perf_counter()
            record = fk.order(2, m)
            intervals.append((t0, perf_counter()))
            orders.append([m, record.order])

    with _item(tracer, "sweep aliquot"):
        aliquots = []
        for n in inputs["numbers"]:
            clock.tick()
            t0 = perf_counter()
            s = fk.aliquot_sum(n)
            intervals.append((t0, perf_counter()))
            aliquots.append([n, s])

    clock.tick()
    with _item(tracer, "sweep perfect"):
        t0 = perf_counter()
        perfect = fk.enumerate_even_perfect(PERFECT_LIMIT)
        intervals.append((t0, perf_counter()))

    clock.tick()
    with _item(tracer, "sweep frenicle"):
        t0 = perf_counter()
        report = fk.frenicle_scan(*FRENICLE_ARGS)
        intervals.append((t0, perf_counter()))

    clock.stop()
    outcome = report.outcome
    return {
        **_times(clock, [clock.scaled(*iv) for iv in intervals]),
        "results": {
            "flt": flt,
            "orders": orders,
            "aliquots": aliquots,
            "perfect": perfect,
            "frenicle": {
                "examined": [[e.exponent, e.verdict, e.witness, e.digits]
                             for e in report.examined],
                "outcome": None if outcome is None else outcome.exponent,
            },
        },
        "params": {"flt_max_p": FLT_MAX_P, "perfect_limit": PERFECT_LIMIT,
                   "frenicle_max_exponent": FRENICLE_ARGS[1]},
    }


def run_cli(inputs, tracer=None):
    """Hand the commands to cli_client.py, which runs the closed loop.

    With a tracer, each invocation becomes an item span and the children's
    aggregates are merged in; the client itself holds no tracer.
    """
    client = subprocess.run(
        [sys.executable, CLI_CLIENT, "0" if tracer is None else "1"],
        input=json.dumps(inputs["commands"]), stdout=subprocess.PIPE,
        text=True, check=True, timeout=CLIENT_TIMEOUT_S)
    result = json.loads(client.stdout)
    invocations = result.pop("invocations")
    if tracer is not None:
        child_times = {"import_s": 0.0, "main_s": 0.0, "main_self_s": 0.0}
        for command, t0, end, child in invocations:
            tracer.merge(child)
            for key in child_times:
                child_times[key] += child[key]
            own = end - t0 - child["import_s"] - child["main_s"]
            tracer.spans.append((command, t0, end, own))
        result["cli"] = child_times
    return result


JOBS = {"factor": run_factor, "sweep": run_sweep, "cli": run_cli}
