"""Tests of the benchmark's tracer, oracle and scaled clock.

Run from the root of the repository:
    PYTHONPATH=src python -m pytest -q perfbench/test_tracer.py
"""

import json
from pathlib import Path

import pytest

import fermatkit
from fermatkit import factoring

import oracle
import speed
from tracer import LAYERS, Tracer

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Filled in by run.py from the CLI children rather than by the tracer.
CLI_METRICS = {"cli.import_s", "cli.main_s", "cli.stdout_bytes"}


@pytest.fixture
def cold_memo():
    factoring.clear_cache()
    yield
    factoring.clear_cache()


def test_counts_agree_with_the_trace_on_m37(cold_memo):
    tracer = Tracer()
    with tracer.installed():
        fact, trace = fermatkit.factor_mersenne(37, refined=False)
    metrics = tracer.layer_metrics()
    assert len(trace.candidates_tried()) == 73
    assert trace.hits() == [223]
    assert metrics["factoring.candidates_tried"] == len(trace.candidates_tried())
    assert metrics["factoring.hit_ratio"] == 1 / 73
    assert metrics["factoring.trace_steps"] == len(trace.steps)
    assert metrics["factoring.factor_mersenne.calls"] == 1
    assert metrics["factoring.memo_hits"] == 0
    assert fact.factors == ((223, 1), (616318177, 1))


def test_memo_hits_are_counted(cold_memo):
    tracer = Tracer()
    with tracer.installed():
        first, _ = fermatkit.factor_mersenne(12)
        again, _ = fermatkit.factor_mersenne(12)
    assert again is first
    metrics = tracer.layer_metrics()
    # M12 recurses into M2, M3, M4 and M6, and M4 and M6 reach M2 and M3
    # again: nine calls on five distinct exponents, so four memo hits.
    assert metrics["factoring.factor_mersenne.calls"] == 9
    assert metrics["factoring.memo_hits"] == 4


def test_every_binding_is_wrapped_and_restored():
    import fermatkit.cli  # noqa: F401  (its bindings are wrapped too)

    tracer = Tracer()
    tracer.install()
    bindings = list(tracer.bindings)
    try:
        wrapped_at = {(m.__name__, attr) for m, attr, _ in bindings}
        for module in ("primes", "forms", "factoring", "mersenne", "perfect",
                       "replay"):
            assert (f"fermatkit.{module}", "is_prime") in wrapped_at
        assert ("fermatkit", "is_prime") in wrapped_at
        assert ("fermatkit.cli", "order") in wrapped_at
        assert ("fermatkit.mersenne", "order") in wrapped_at
        for module, attr, original in bindings:
            assert getattr(module, attr) is not original
            assert getattr(module, attr).__wrapped__ is original
    finally:
        tracer.restore()
    for module, attr, original in bindings:
        assert getattr(module, attr) is original
    assert tracer.bindings == []


def test_self_times_add_up_to_the_item_spans(cold_memo):
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("factor 36"):
            fact, _ = fermatkit.factor_mersenne(36, budget=10**4)
            assert fermatkit.verify(fact)
    (_name, start, end, own), = tracer.spans
    assert own >= 0
    assert end - start == pytest.approx(own + tracer.layers_self_s(), abs=1e-9)


def test_layer_metrics_cover_the_benchmark_list():
    names = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    assert names - CLI_METRICS <= set(Tracer().layer_metrics())
    assert {prefix for prefix, _, _ in LAYERS} >= {
        name.rsplit(".", 1)[0] for name in names
        if name.endswith((".calls", ".self_s"))}


def test_oracle_rejects_wrong_factorizations():
    value = (1 << 11) - 1  # 23 * 89
    good = {"n": 11, "factors": [[23, 1], [89, 1]], "status": "complete",
            "cofactor": 1, "verified": True}
    assert oracle.check_factor([good], 10**4) == 0
    wrong_multiplicity = dict(good, factors=[[23, 2]], cofactor=1)
    composite_factor = dict(good, factors=[[value, 1]])
    # A partial result whose cofactor still holds a prime below the budget.
    missed = dict(good, factors=[], status="partial", cofactor=value)
    assert oracle.check_factor([wrong_multiplicity, composite_factor, missed],
                               10**4) == 3
    assert oracle.check_factor([dict(missed)], 22) == 0


def test_clock_scales_stretches_and_leaves_out_calibrations():
    # A machine twice as slow as the reference: every stretch counts half.
    clock = speed.Clock(calibrate=lambda: 0.5, ref_s=0.25, interval_s=0.0)
    t0 = speed.perf_counter()
    sum(range(10**5))
    t1 = speed.perf_counter()
    clock.tick()
    clock.tick()
    clock.stop()
    assert clock.calibrations() == 4
    assert clock.scaled(t0, t1) == pytest.approx((t1 - t0) / 2)
    assert clock.wall() == pytest.approx(clock.raw_wall() / 2)
    assert t1 - t0 <= clock.raw_wall()


def test_disabled_clock_keeps_raw_times():
    clock = speed.Clock(enabled=False)
    t0 = speed.perf_counter()
    clock.tick()
    t1 = speed.perf_counter()
    clock.stop()
    assert clock.calibrations() == 2
    assert clock.scaled(t0, t1) == t1 - t0
    assert clock.wall() == clock.raw_wall()
