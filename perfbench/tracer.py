"""Aggregating tracer for fermatkit's layer functions.

``Tracer.install`` replaces each layer function at every module attribute
that binds it (``is_prime`` alone is bound in primes, forms, factoring,
mersenne, perfect, replay and the package), and ``restore`` puts the
originals back. Leaf calls run about 10^6 times per workload, so they are
kept as aggregates (calls, total time, self time) rather than one span
each; only the benchmark's items (an exponent, a sweep phase, a CLI
invocation) are recorded as spans.

Self time is a call's duration minus the time spent in traced calls it
made. The time a wrapper spends on its own bookkeeping lands in the self
time of its caller, so the overhead shows up, and is measured, as the
difference between a traced and an untraced run.
"""

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# (metric prefix, defining module, functions aggregated under the prefix)
LAYERS = (
    ("kernel.isqrt", "fermatkit.kernel", ("isqrt",)),
    ("kernel.divisors", "fermatkit.kernel", ("divisors",)),
    ("primes.is_prime", "fermatkit.primes", ("is_prime",)),
    ("primes.primes_up_to", "fermatkit.primes", ("primes_up_to",)),
    ("primes.primes_in_classes", "fermatkit.primes", ("primes_in_classes",)),
    ("forms.class", "fermatkit.forms",
     ("third_proposition_class", "generalized_class", "euler_refined_class")),
    # The package attribute ``fermatkit.mersenne`` is the function of that
    # name, so the module is reached through import_module.
    ("mersenne.order", "fermatkit.mersenne", ("order",)),
    ("mersenne.flt_check", "fermatkit.mersenne", ("flt_check",)),
    ("mersenne.divisibility_conjecture_check", "fermatkit.mersenne",
     ("divisibility_conjecture_check",)),
    ("factoring.factor_mersenne", "fermatkit.factoring", ("factor_mersenne",)),
    ("factoring.verify", "fermatkit.factoring", ("verify",)),
    ("factoring.factor_nat", "fermatkit.factoring", ("factor_nat",)),
    ("perfect.aliquot_sum", "fermatkit.perfect", ("aliquot_sum",)),
    ("perfect.enumerate_even_perfect", "fermatkit.perfect",
     ("enumerate_even_perfect",)),
    ("perfect.frenicle_scan", "fermatkit.perfect", ("frenicle_scan",)),
    ("replay.replay_all", "fermatkit.replay", ("replay_all",)),
)

COUNTERS = (
    "primes.is_prime.primes",
    "primes.primes_up_to.items_returned",
    "primes.max_limit",
    "factoring.memo_hits",
    "factoring.candidates_tried",
    "factoring.candidate_hits",
    "factoring.trace_steps",
)


def _memo_key(n, budget=None, refined=True):
    """The key factor_mersenne memoizes under, or None for a budgeted call."""
    return (n, refined) if budget is None else None


class Tracer:
    """Layer aggregates, item spans and counters of one process."""

    def __init__(self):
        self.stats = {}  # metric prefix -> [calls, total_s, self_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans = []  # (name, start_s, end_s, self_s), one per item
        self.bindings = []  # (module, attribute, original) replaced
        # Time spent in traced children of each open frame; the bottom
        # entry collects the duration of every top-level item.
        self._child = [0.0]
        # factor_mersenne results by memo key: returning the same object
        # again for the same key is a memo hit.
        self._memo_results = {}

    @contextmanager
    def span(self, name):
        """Record one item span around the block."""
        child = self._child
        child.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            inner = child.pop()
            child[-1] += end - start
            self.spans.append((name, start, end, end - start - inner))

    def _timed(self, name, fn, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child = self._child

        def traced(*args, **kwargs):
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child.pop()
                child[-1] += elapsed
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        counters = self.counters
        memo_results = self._memo_results

        def is_prime_after(result, _n):
            if result:
                counters["primes.is_prime.primes"] += 1

        def primes_up_to_after(result, limit):
            counters["primes.primes_up_to.items_returned"] += len(result)
            if limit > counters["primes.max_limit"]:
                counters["primes.max_limit"] = limit

        def factor_after(result, *args, **kwargs):
            key = _memo_key(*args, **kwargs)
            if key is not None and memo_results.get(key) is result:
                counters["factoring.memo_hits"] += 1
                return
            if key is not None:
                memo_results[key] = result
            trace = result[1]
            counters["factoring.trace_steps"] += len(trace.steps)
            counters["factoring.candidates_tried"] += len(trace.candidates_tried())
            counters["factoring.candidate_hits"] += len(trace.hits())

        return {
            "primes.is_prime": is_prime_after,
            "primes.primes_up_to": primes_up_to_after,
            "factoring.factor_mersenne": factor_after,
        }

    def install(self):
        """Wrap every layer function at each fermatkit attribute binding it."""
        if self.bindings:
            raise RuntimeError("tracer is already installed")
        hooks = self._hooks()
        # Keyed by id: functions compare by identity, and the originals
        # stay alive in their defining modules while this runs.
        wrappers = {}
        for name, module_name, functions in LAYERS:
            module = importlib.import_module(module_name)
            for function in functions:
                fn = getattr(module, function)
                wrappers[id(fn)] = self._timed(name, fn, hooks.get(name))
        modules = [
            module for module_name, module in sorted(sys.modules.items())
            if module_name == "fermatkit" or module_name.startswith("fermatkit.")
        ]
        for module in modules:
            for attribute, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attribute, wrapper)
                    self.bindings.append((module, attribute, value))

    def restore(self):
        """Put back every original the last install replaced."""
        for module, attribute, original in reversed(self.bindings):
            setattr(module, attribute, original)
        self.bindings = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def snapshot(self):
        """Aggregates as plain JSON data, for merging across processes."""
        return {"stats": self.stats, "counters": self.counters}

    def merge(self, snapshot):
        """Add another process's aggregates into this tracer's."""
        for name, (calls, total, self_s) in snapshot["stats"].items():
            stat = self.stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += total
            stat[2] += self_s
        for name, value in snapshot["counters"].items():
            if name == "primes.max_limit":
                self.counters[name] = max(self.counters[name], value)
            else:
                self.counters[name] += value

    def layers_self_s(self):
        return sum(stat[2] for stat in self.stats.values())

    def layer_metrics(self):
        """The per-layer metrics this tracer measures, as name -> value."""
        stats = {name: self.stats.get(name, [0, 0.0, 0.0]) for name, _, _ in LAYERS}
        counters = self.counters
        out = {}
        for name, (calls, _total, self_s) in stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        is_prime_calls = stats["primes.is_prime"][0]
        out["primes.is_prime.prime_ratio"] = (
            counters["primes.is_prime.primes"] / is_prime_calls
            if is_prime_calls else 0.0)
        out["primes.primes_up_to.items_returned"] = (
            counters["primes.primes_up_to.items_returned"])
        out["primes.max_limit"] = counters["primes.max_limit"]
        tried = counters["factoring.candidates_tried"]
        out["factoring.memo_hits"] = counters["factoring.memo_hits"]
        out["factoring.candidates_tried"] = tried
        out["factoring.hit_ratio"] = (
            counters["factoring.candidate_hits"] / tried if tried else 0.0)
        out["factoring.trace_steps"] = counters["factoring.trace_steps"]
        return out
