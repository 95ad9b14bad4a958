import itertools
import math
import sys
import threading
import tracemalloc

import pytest

from fermatkit import factoring, primes
from fermatkit.factoring import (
    ALGEBRAIC_SPLIT,
    BUDGET_EXHAUSTED,
    CANDIDATE_HIT,
    CANDIDATE_MISS,
    COFACTOR_PRIME,
    COMPLETE,
    MISS_RUN,
    PARTIAL,
    PROPAGATED,
    Factorization,
    FactorTrace,
    TraceStep,
    clear_cache,
    factor_mersenne,
    factor_nat,
    verify,
)
from fermatkit.forms import generalized_class, primitive_class
from fermatkit.kernel import isqrt
from fermatkit.mersenne import mersenne, order
from fermatkit.primes import prime_factors


class TestFactorNat:
    def test_first_imposter(self):
        assert factor_nat(2047).factors == ((23, 1), (89, 1))

    def test_prime_power(self):
        assert factor_nat(8).factors == ((2, 3),)

    def test_worked_quotient(self):
        assert factor_nat(1082401).factors == ((601, 1), (1801, 1))

    def test_prime_input(self):
        assert factor_nat(616318177).factors == ((616318177, 1),)

    def test_small_rejected(self):
        with pytest.raises(ValueError):
            factor_nat(1)

    def test_reconstructs_value(self):
        for n in range(2, 2000):
            fact = factor_nat(n)
            product = 1
            for p, e in fact.factors:
                product *= p**e
            assert product == n
            assert fact.status == COMPLETE


class TestFactorMersenne:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (2, ((3, 1),)),
            (25, ((31, 1), (601, 1), (1801, 1))),
            (29, ((233, 1), (1103, 1), (2089, 1))),
            (37, ((223, 1), (616318177, 1))),
        ],
    )
    def test_known_factorizations(self, n, expected):
        fact, _ = factor_mersenne(n)
        assert fact.factors == expected
        assert fact.status == COMPLETE

    def test_small_rejected(self):
        with pytest.raises(ValueError):
            factor_mersenne(1)

    def test_multiplicities(self):
        assert dict(factor_mersenne(6)[0].factors)[3] == 2
        assert dict(factor_mersenne(12)[0].factors)[3] == 2
        assert dict(factor_mersenne(18)[0].factors)[3] == 3
        assert dict(factor_mersenne(21)[0].factors)[7] == 2

    def test_oracle_equivalence_small(self):
        for n in range(2, 27):
            pipeline, _ = factor_mersenne(n)
            oracle = factor_nat(mersenne(n))
            assert pipeline.prime_multiset() == oracle.prime_multiset()

    def test_unrefined_matches_refined(self):
        for n in range(2, 27):
            refined, _ = factor_mersenne(n, refined=True)
            plain, _ = factor_mersenne(n, refined=False)
            assert refined.factors == plain.factors


    def test_refined_matches_unrefined_to_128(self, cold_memo):
        # The benchmark's exponents and M122, at its budget: the narrower
        # classes of composite n find the same factors and stop in the
        # same state, but for M116. Its part, of 57 bits, splits into
        # Aurifeuille's halves 107,367,629 and 536,903,681, each proven
        # prime inside the budget, where the whole part's scan stops short
        # of its square root; sympy gives the same primes.
        for n in range(2, 129):
            refined, _ = factor_mersenne(n, 10**7, refined=True)
            plain, _ = factor_mersenne(n, 10**7, refined=False)
            if n == 116:
                m116 = refined, plain
            else:
                assert refined == plain, n
        refined, plain = m116
        assert (refined.status, plain.status) == (COMPLETE, PARTIAL)
        factorint = pytest.importorskip("sympy").factorint
        assert dict(refined.factors) == factorint(mersenne(116))
        assert plain.unresolved_cofactor == 107367629 * 536903681
        assert plain.factors == tuple((p, e) for p, e in refined.factors
                                      if p not in (107367629, 536903681))


class TestTrace:
    def test_propagated_factors_have_dividing_order(self):
        # sympy's n_order is the oracle: a prime carried from a proper
        # divisor's part names the part of its order, and a hit of n's own
        # scan has order n.
        n_order = pytest.importorskip("sympy").n_order
        for n in range(2, 129):
            _, trace = factor_mersenne(n, 10**7)
            for step in trace.steps:
                if step.rule == PROPAGATED:
                    assert n_order(2, step.value) == step.source, (n, step)
                elif step.rule == CANDIDATE_HIT:
                    assert n_order(2, step.value) == n, (n, step)

    def test_primitive_part_is_the_cyclotomic_value_over_its_gcd(self):
        sympy = pytest.importorskip("sympy")
        for n in range(2, 257):
            phi = int(sympy.cyclotomic_poly(n, 2))
            part = factoring._primitive_part(n, dict(prime_factors(n)))
            assert part == phi // sympy.gcd(phi, n), n

    def test_aurifeuille_halves_are_coprime_and_make_the_part(self):
        # For n = 4h, h odd: the halves of Phi_n(2) over its gcd with n,
        # from sympy, both exceed 1 from n = 28 on; for 4, 12 and 20 the
        # first factor of 2**(2h) + 1, 1, 5 and 25, shares no prime with
        # the part, so there is no split.
        sympy = pytest.importorskip("sympy")
        for n in range(4, 257, 8):
            phi = int(sympy.cyclotomic_poly(n, 2))
            part = phi // math.gcd(phi, n)
            first = next(factoring._refined_scan(n, part, 1))
            if n in (4, 12, 20):
                assert first.rule != ALGEBRAIC_SPLIT, n
                continue
            assert first.rule == ALGEBRAIC_SPLIT, n
            low, high = first.value
            assert (low * high, math.gcd(low, high)) == (part, 1), n
            assert min(low, high) > 1, n

    def test_trivial_splits_keep_their_traces(self):
        assert factor_mersenne(4)[1].steps == (
            TraceStep(PROPAGATED, 3, 2, 1), TraceStep(COFACTOR_PRIME, 5, multiplicity=1))
        assert factor_mersenne(12)[1].steps == (
            TraceStep(PROPAGATED, 3, 2, 2), TraceStep(PROPAGATED, 5, 4, 1),
            TraceStep(PROPAGATED, 7, 3, 1), TraceStep(COFACTOR_PRIME, 13, multiplicity=1))

    def test_candidate_hits_are_primitive(self):
        for n in range(2, 41):
            _, trace = factor_mersenne(n)
            for step in trace.steps:
                if step.rule == CANDIDATE_HIT:
                    assert order(2, step.value).order == n

    def test_candidates_strictly_increasing(self):
        for n in range(2, 41):
            _, trace = factor_mersenne(n)
            tried = trace.candidates_tried()
            assert tried == sorted(set(tried))

    def test_replaying_divisions_reconstructs_value(self):
        for n in range(2, 41):
            fact, trace = factor_mersenne(n)
            product = fact.unresolved_cofactor
            for step in trace.steps:
                if step.rule in (PROPAGATED, CANDIDATE_HIT, COFACTOR_PRIME):
                    product *= step.value**step.multiplicity
            assert product == fact.value

    def test_candidates_lie_in_the_primitive_class(self):
        # Every n but 0 mod 4 scans two residues mod 8h, h = n or n/2:
        # M55's first candidate is 881, not 331 or 661, which are 1 mod 110
        # but 3 and 5 mod 8.
        assert factor_mersenne(55)[1].candidates_tried()[:2] == [881, 991]
        # For 8 | n, 1 mod 2n: F_5 = 2**32 + 1, M64's part, tries 257 and
        # then 641 (Lucas's 1 mod 128), not 193 first.
        _, trace = factor_mersenne(64)
        assert trace.candidates_tried()[:2] == [257, 641]
        assert trace.hits() == [641]
        for n in range(2, 71):
            cls = primitive_class(n)
            tried = factor_mersenne(n, budget=10**5)[1].candidates_tried()
            assert all(c % cls.modulus in cls.residues for c in tried), n

    def test_m37_unrefined_candidate_sequence(self):
        _, trace = factor_mersenne(37, refined=False)
        tried = trace.candidates_tried()
        assert tried[0] == 149
        assert tried[1] == 223
        assert trace.hits() == [223]

    def test_runs_are_maximal_and_ascending(self):
        for n in range(2, 65):
            for budget in (None, 10**3):
                for refined in (True, False):
                    _, trace = factor_mersenne(n, budget, refined)
                    rules = [s.rule for s in trace.steps]
                    assert (MISS_RUN, MISS_RUN) not in zip(rules, rules[1:])
                    # candidate-miss is only how render writes a run's members.
                    assert CANDIDATE_MISS not in rules
                    for s in trace.steps:
                        if s.rule == MISS_RUN:
                            assert type(s.value) is tuple and s.value
                            assert list(s.value) == sorted(set(s.value))

    def test_determinism(self):
        first = factor_mersenne(24)
        clear_cache()
        second = factor_mersenne(24)
        assert first == second


class TestBudget:
    def test_budget_below_first_hit_gives_partial(self):
        fact, trace = factor_mersenne(37, budget=200)
        assert fact.status == PARTIAL
        assert fact.factors == ()
        assert fact.unresolved_cofactor == mersenne(37)
        assert trace.steps[-1].rule == BUDGET_EXHAUSTED
        assert trace.steps[-1].value == 200

    def test_budget_at_hit_finds_factor_then_stops(self):
        fact, trace = factor_mersenne(37, budget=223)
        assert fact.status == PARTIAL
        assert fact.factors == ((223, 1),)
        assert fact.unresolved_cofactor == 616318177
        assert 223 in trace.hits()

    def test_generous_budget_completes(self):
        fact, _ = factor_mersenne(37, budget=10**6)
        assert fact.status == COMPLETE

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            factor_mersenne(5, budget=0)


class TestVerify:
    def test_mersenne_prime(self):
        fact, _ = factor_mersenne(31)
        assert verify(fact)
        assert fact.factors == ((2147483647, 1),)

    def test_trivial(self):
        assert verify(Factorization(6, ((2, 1), (3, 1)), COMPLETE))

    def test_pipeline_results_verify(self):
        for n in range(2, 41):
            assert verify(factor_mersenne(n)[0])

    def test_rejects_wrong_product(self):
        assert not verify(Factorization(6, ((2, 1),), COMPLETE))

    def test_rejects_composite_factor(self):
        assert not verify(Factorization(8, ((8, 1),), COMPLETE))

    def test_rejects_inconsistent_status(self):
        assert not verify(Factorization(12, ((2, 2),), COMPLETE, 3))
        assert not verify(Factorization(12, ((2, 2), (3, 1)), PARTIAL, 1))

    def test_rejects_descending_factors(self):
        assert not verify(Factorization(6, ((3, 1), (2, 1)), COMPLETE))

    def test_rejects_a_repeated_prime(self):
        assert not verify(Factorization(9, ((3, 1), (3, 1)), COMPLETE))

    def test_rejects_a_prime_left_in_the_cofactor(self):
        # The product is 36, but 3 divides it twice: its multiplicity is 2.
        assert not verify(Factorization(36, ((2, 2), (3, 1)), PARTIAL, 3))

    def test_rejects_an_unknown_status(self):
        assert not verify(Factorization(6, ((2, 1), (3, 1)), "unknown"))

    def test_partial_verifies(self):
        fact, _ = factor_mersenne(37, budget=223)
        assert verify(fact)


@pytest.fixture
def cold_memo():
    clear_cache()
    yield
    clear_cache()


class TestCompleteCache:
    # M60's ten proper divisors above 1 each have a cached part; M6's is 1,
    # since Phi_6(2) = 3 divides 6, so it is never scanned.
    DIVISORS = (2, 3, 4, 5, 6, 10, 12, 15, 20, 30)

    def test_threads_from_a_cold_cache(self, cold_memo):
        single = factor_mersenne(60)
        clear_cache()
        results = [None] * 4

        def work(k):
            results[k] = factor_mersenne(60)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [single] * 4
        # The parts' factors are cached, not M60's result or any trace.
        assert factoring._part.cache_info().currsize == 10

    def test_unrefined_recursion_uses_the_refined_class(self, cold_memo, monkeypatch):
        # A complete factorization has the same primes whichever class
        # found them, so the proper divisors' parts of an --unrefined call
        # are scanned once, through the refined class, and shared with
        # refined calls.
        calls, scan = [], factoring.class_scan

        def spy(cofactor, cls, budget=None):
            calls.append((cofactor, cls, budget))
            return scan(cofactor, cls, budget)

        monkeypatch.setattr(factoring, "class_scan", spy)
        def part(d):
            return factoring._primitive_part(d, dict(prime_factors(d)))

        plain, plain_trace = factor_mersenne(60, refined=False)
        assert calls == [(part(d), primitive_class(d), None)
                         for d in self.DIVISORS if d != 6] + [
                         (part(60), generalized_class(60), None)]
        # The refined call scans 60's own part as Aurifeuille's halves.
        refined, refined_trace = factor_mersenne(60)
        assert part(60) == 61 * 1321
        assert calls[10:] == [(61, primitive_class(60), None),
                              (1321, primitive_class(60), None)]
        assert plain == refined
        assert ([s for s in plain_trace.steps if s.rule == PROPAGATED]
                == [s for s in refined_trace.steps if s.rule == PROPAGATED])


class TestClassSieveScan:
    def test_a_hit_that_leaves_1_ends_the_scan(self):
        # 1093, a Wieferich prime, is 1 mod 364, and 1093**2 divides
        # 2**364 - 1: one hit leaves 1, with no cofactor-prime step after it.
        assert list(factoring.class_scan(1093**2, generalized_class(364))) == [
            TraceStep(CANDIDATE_HIT, 1093, multiplicity=2)]

    def test_sieved_scan_matches_walk(self, cold_memo, class_walk, monkeypatch):
        def run():
            clear_cache()
            return [
                factor_mersenne(n, budget=10**5, refined=refined)
                for n in range(2, 65)
                for refined in (True, False)
            ]

        def walk_batches(classes):
            # Batches of 1, 2, 3, 5, 8, ... candidates: equal traces show
            # that run boundaries do not depend on the segmentation.
            walk = class_walk(classes)
            size, after = 1, 2
            while batch := list(itertools.islice(walk, size)):
                yield batch
                size, after = after, size + after

        sieved = run()
        monkeypatch.setattr(factoring, "class_segments", walk_batches)
        assert run() == sieved

    def test_sieve_stops_where_the_scan_stops(self, cold_memo, sieved, monkeypatch):
        # The factor benchmark's job, from a cold memo and sieve. A scan
        # sends the sieve its stop, min(isqrt(cofactor), budget), so past
        # its first stop the sieve yields at most one _FIRST_SEGMENT
        # segment's members: 64 per residue. A hit that lowers the stop
        # inside a segment leaves the rest of it untried, so the surplus of
        # yielded over tried primes is bounded only for scans whose stop
        # no hit lowered. A segment that started a bytearray was sieved;
        # one that did not was read from the base sieve's flags. The job
        # makes 204 scans, each half of an Aurifeuille split its own. From
        # the base sieve, to BASE = 2**16, segments growing 8x sieve 124
        # segments and read 269; from flags to 1024 they sieve 231, and
        # with none read, 341; and ended at a stop's k, so that the prime
        # past it takes a segment more, they sieve 165. The exact count
        # keeps the schedule, the flag read, the base sieve's reach and the
        # segment's reach past the stop there.
        scan, segments, scans = factoring.class_scan, factoring.class_segments, []

        def counted_segments(classes):
            walk, stop = segments(classes), None
            while True:
                before = len(sieved)
                try:
                    segment = walk.send(stop)
                except StopIteration:
                    return
                scans[-1]["yielded"] += segment
                scans[-1]["sieved" if len(sieved) > before else "read"] += 1
                stop = yield segment

        def recorded_scan(cofactor, cls, budget=None):
            record = {"cls": cls, "yielded": [], "sieved": 0, "read": 0}
            scans.append(record)
            steps = list(scan(cofactor, cls, budget))
            trace = FactorTrace(tuple(steps))
            cap = isqrt(cofactor) if budget is None else budget
            record["first_stop"] = min(isqrt(cofactor), cap)
            for p in trace.hits():
                while cofactor % p == 0:
                    cofactor //= p
            record["last_stop"] = min(isqrt(cofactor), cap)
            record["tried"] = trace.candidates_tried()
            return steps

        monkeypatch.setattr(factoring, "class_segments", counted_segments)
        monkeypatch.setattr(factoring, "class_scan", recorded_scan)
        for n in range(2, 129):
            if n != 122:
                factor_mersenne(n, budget=10**7)
        assert len(scans) == 204
        assert sum(r["sieved"] for r in scans) == 124
        for r in scans:
            one_segment = primes._FIRST_SEGMENT * len(r["cls"].residues)
            past = [p for p in r["yielded"] if p > r["first_stop"]]
            assert len(past) <= one_segment, r["cls"]
            assert r["tried"] == r["yielded"][: len(r["tried"])]
            if r["last_stop"] == r["first_stop"]:
                surplus = len(r["yielded"]) - len(r["tried"])
                assert surplus <= one_segment, r["cls"]

    def test_traces_do_not_depend_on_the_sieve(self, cold_memo, monkeypatch):
        # With the flags cut to 1024 most scans sieve; with the base
        # sieve's, to BASE = 2**16, most read their first segments from
        # them.
        exponents = [n for n in range(2, 129) if n != 122]
        base = [factor_mersenne(n, budget=10**7) for n in exponents]
        clear_cache()
        monkeypatch.setattr(primes, "BASE", 1 << 10)
        assert [factor_mersenne(n, budget=10**7) for n in exponents] == base

    def test_the_scan_yields_a_run_per_segment(self, class_walk):
        # M61 has no factor below 10**7: the scan misses through five
        # segments, each its own run, and factor_mersenne joins them into
        # one, so its trace does not depend on where segments end.
        cls = primitive_class(61)
        steps = list(factoring.class_scan(mersenne(61), cls, 10**7))
        assert [s.rule for s in steps] == [MISS_RUN] * 5 + [BUDGET_EXHAUSTED]
        members = [c for s in steps[:-1] for c in s.value]
        assert len(members) == 5444
        assert members == list(class_walk(cls, 10**7))
        _, trace = factor_mersenne(61, 10**7)
        assert [s.rule for s in trace.steps] == [MISS_RUN, BUDGET_EXHAUSTED]
        assert list(trace.steps[0].value) == members

    def test_a_scan_holds_one_segment_of_misses(self):
        # M101's least factor, about 7.4e12, lies past 10**9: the scan walks
        # 254,044 class primes in 24 segments before its budget runs out.
        # Holding every miss until then, it peaked at 12.6 MiB. tracemalloc
        # makes the scan about 50x slower, some 9 s on a 2-core host.
        scan = factoring.class_scan(mersenne(101), primitive_class(101), 10**9)
        tracemalloc.start()
        try:
            last = next(s for s in scan if s.rule != MISS_RUN)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert last == TraceStep(BUDGET_EXHAUSTED, 10**9)
        assert peak < 4 << 20

    def test_m61_completes_unbudgeted(self, cold_memo):
        fact, trace = factor_mersenne(61)
        assert fact.status == COMPLETE
        assert fact.factors == ((mersenne(61), 1),)
        assert len(trace.candidates_tried()) == 629227
        assert trace.hits() == []
        # One run of every miss, then the proof: two steps.
        assert [s.rule for s in trace.steps] == [MISS_RUN, COFACTOR_PRIME]
        assert len(trace.steps[0].value) == 629227

    def test_m122_with_budget_returns(self, cold_memo):
        # The budget caps the scan of M61's part as it does M122's own:
        # below 10**7 neither has a factor, so only M2's 3 is found.
        fact, trace = factor_mersenne(122, budget=10**7)
        assert fact.status == PARTIAL
        assert fact.factors == ((3, 1),)
        assert fact.unresolved_cofactor == mersenne(61) * (2**61 + 1) // 3
        assert trace.steps[-1].rule == BUDGET_EXHAUSTED
