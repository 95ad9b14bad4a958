import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import fermatkit
from fermatkit.cli import main
from fermatkit.perfect import MERSENNE_PRIME, ChallengeReport, ExponentVerdict, euclid_perfect


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactor:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "factor", "11")
        assert code == 0
        assert "M11 = 2047 = 23·89" in out
        assert "status: complete" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "factor", "25", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["factorization"]["value"] == "33554431"
        assert [f["p"] for f in doc["factorization"]["factors"]] == [
            "31", "601", "1801",
        ]
        assert any(s["rule"] == "candidate-hit" for s in doc["trace"])

    def test_unrefined_trace_shows_149(self, capsys):
        code, out, _ = run(capsys, "factor", "37", "--unrefined")
        assert code == 0
        assert "tried 149: miss" in out
        assert "tried 223: hit" in out

    def test_budget_gives_partial(self, capsys):
        code, out, _ = run(capsys, "factor", "37", "--budget", "200")
        assert code == 0
        assert "status: partial" in out
        assert "scan stopped at budget 200" in out

    @pytest.mark.parametrize("n", [178, 166])
    def test_budget_caps_every_part(self, capsys, n):
        # The budget caps the scan of M89's or M83's part as it does
        # M_n's own: with none, either walk heads for the square root of
        # a cofactor past 10**22.
        start = time.perf_counter()
        code, out, _ = run(capsys, "factor", str(n), "--budget", "1000")
        assert time.perf_counter() - start < 10
        assert code == 0
        assert out.split("\n")[1] == "status: partial"

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(capsys, "factor", "1")
        assert code == 2
        assert "error" in err

    def test_value_past_the_digit_cap(self, capsys):
        # M14303 has 4,306 digits, past the 4,300 that str() of an int
        # writes by default: the command lifts the cap while it writes and
        # puts it back, so a later call in this process still has it.
        cap = sys.get_int_max_str_digits()
        value = 2**14303 - 1
        code, out, _ = run(capsys, "factor", "14303", "--budget", "10")
        assert sys.get_int_max_str_digits() == cap
        assert code == 0
        head = out.split("\n")[0]
        assert head.startswith("M14303 = ")
        digits = head[len("M14303 = "):].split(" ")[0]
        assert len(digits) == 4306 and digits.isdigit()
        assert int(digits[:100]) == value // 10**4206
        assert int(digits[-100:]) == value % 10**100
        code, out, _ = run(capsys, "factor", "14303", "--budget", "10", "--json")
        assert sys.get_int_max_str_digits() == cap
        assert code == 0
        digits = json.loads(out)["factorization"]["value"]
        assert len(digits) == 4306 and digits.isdigit()
        assert int(digits[-100:]) == value % 10**100


class TestOrder:
    def test_default_base(self, capsys):
        code, out, _ = run(capsys, "order", "683")
        assert code == 0
        assert "order of 2 mod 683 = 22" in out

    def test_custom_base(self, capsys):
        code, out, _ = run(capsys, "order", "7", "--base", "10")
        assert code == 0
        assert "order of 10 mod 7 = 6" in out

    def test_non_coprime_exits_2(self, capsys):
        code, _, err = run(capsys, "order", "4")
        assert code == 2
        assert "gcd" in err


class TestVerifyFlt:
    def test_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify-flt", "--max-p", "300")
        assert code == 0
        assert "0 counterexamples" in out

    def test_custom_bases(self, capsys):
        code, out, _ = run(
            capsys, "verify-flt", "--max-p", "100", "--bases", "2,3,5"
        )
        assert code == 0
        assert "0 counterexamples" in out

    def test_max_p_past_the_sieve_ceiling_exits_2(self, capsys):
        # The sieve refuses the limit before allocating its flags.
        code, out, err = run(capsys, "verify-flt", "--max-p", "100000000000")
        assert (code, out) == (2, "")
        assert err == "error: the prime sieve stops at 16777216, got 100000000000\n"

    # Primes 2, 3, 5 and 7 with bases 2 and 3: 6 power-residue checks (2
    # is skipped for p = 2, 3 for p = 3) and 3 order checks (p > 2). The
    # sweep in fermatkit.mersenne is stubbed at its pow and its order.
    def test_power_residue_counterexample_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(fermatkit.mersenne, "pow",
                            lambda *args: 4 if args == (3, 4, 5) else pow(*args),
                            raising=False)
        code, out, err = run(capsys, "verify-flt", "--max-p", "10", "--bases", "2,3")
        assert (code, out, err) == (
            1, "counterexample: p=5 a=3\n9 checks, 1 counterexamples\n", "")

    def test_order_counterexample_exits_1(self, capsys, monkeypatch):
        order = fermatkit.mersenne.order
        monkeypatch.setattr(fermatkit.mersenne, "order",
                            lambda a, m: order(a, m)._replace(order=4) if m == 7
                            else order(a, m))
        cap = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "verify-flt", "--max-p", "10", "--bases", "2,3")
        assert (code, out, err) == (
            1, "counterexample: order 4 of 2 mod 7 does not divide 6\n"
               "9 checks, 1 counterexamples\n", "")
        assert sys.get_int_max_str_digits() == cap


class TestCandidates:
    def test_refined_m31(self, capsys):
        code, out, _ = run(
            capsys, "candidates", "--q", "31", "--refined",
            "--limit", "46339",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert "residues 1, 63 mod 248" in lines[0]
        assert "84 candidate primes up to 46339" in lines[1]
        assert lines[2] == "311"

    # --refined lists primitive_class(q), the class factor scans, for every
    # q >= 2: for M15 the two residues of 1 mod 30 that are +-1 mod 8, for
    # M2 those 1 or 3 mod 8, for M64 1 mod 128.
    @pytest.mark.parametrize("q,residues,modulus,kept", [
        (15, "1, 31", 120, (1, 31)), (2, "1, 3", 8, (1, 3)), (64, "1", 128, (1,))])
    def test_refined_composite_and_two(self, capsys, oracle_primes, q, residues,
                                       modulus, kept):
        code, out, err = run(capsys, "candidates", "--q", str(q), "--refined",
                             "--limit", "1000")
        found = [p for p in oracle_primes(10) if p <= 1000 and p % modulus in kept]
        assert (code, err) == (0, "")
        assert out == (f"class for M{q}: residues {residues} mod {modulus}\n"
                       f"{len(found)} candidate primes up to 1000\n"
                       + "".join(f"{p}\n" for p in found))
        assert len(found) == {15: 8, 2: 81, 64: 3}[q]
        if q == 15:
            assert found == [31, 151, 241, 271, 601, 631, 751, 991]

    def test_unrefined_m37(self, capsys):
        code, out, _ = run(
            capsys, "candidates", "--q", "37", "--limit", "300"
        )
        assert code == 0
        assert "mod 74" in out
        assert "149" in out and "223" in out

    # The default limit, isqrt(2**q - 1), past 2**24 members: from q = 62
    # for 1 mod q (mod 2q for odd q), and from q = 67 for the refined class.
    @pytest.mark.parametrize("argv,limit", [
        (("--q", "80"), 2**40 - 1), (("--q", "62"), 2**31 - 1),
        (("--q", "67", "--refined"), 12148001999)])
    def test_walk_past_the_ceiling_exits_2(self, capsys, argv, limit):
        code, out, err = run(capsys, "candidates", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: a class walk stops at 16777216 members, got limit {limit}\n"

    def test_limit_past_the_digit_cap_exits_2(self, capsys):
        # isqrt(2**100000 - 1) = 2**50000 - 1 has 15,052 digits, past the
        # 4,300 that str() of an int writes by default: the limit is named
        # by its bit length. The cap is lifted only once a command has
        # run, and is back after the refusal.
        cap = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "candidates", "--q", "100000")
        assert (code, out) == (2, "")
        assert err == ("error: a class walk stops at 16777216 members,"
                       " got a 50000-bit limit\n")
        assert sys.get_int_max_str_digits() == cap

    def test_long_default_limit_is_refused_at_once(self, capsys):
        # isqrt(2**q - 1) takes time of order q**2, about 30 s for q = 10**7.
        # Past str()'s digit cap q alone decides the refusal, which names
        # the root's bit length, (q + 1) // 2, as it would the root's.
        start = time.perf_counter()
        code, out, err = run(capsys, "candidates", "--q", "10000000")
        assert time.perf_counter() - start < 10
        assert (code, out) == (2, "")
        assert err == ("error: a class walk stops at 16777216 members,"
                       " got a 5000000-bit limit\n")


class TestPerfect:
    def test_challenge_scan(self, capsys):
        code, out, _ = run(
            capsys, "perfect", "--min-digits", "20", "--max-exponent", "37"
        )
        assert code == 0
        assert "exponent 31: mersenne-prime" in out
        assert "exponent 37: imposter (witness factor 223)" in out
        assert "no perfect number with at least 20 digits" in out

    def test_satisfiable_challenge(self, capsys):
        code, out, _ = run(
            capsys, "perfect", "--min-digits", "1", "--max-exponent", "7"
        )
        assert code == 0
        assert "found: 6 (1 digits, exponent 2)" in out

    def test_perfect_number_past_the_digit_cap(self, capsys, monkeypatch):
        # The perfect number of M9689 has 5,834 digits, past the 4,300 that
        # str() of an int writes by default: main lifts the cap while it
        # writes and puts it back. The scan itself is stubbed; run whole,
        # it takes minutes.
        record = euclid_perfect(9689)
        report = ChallengeReport(4301, (ExponentVerdict(9689, MERSENNE_PRIME, digits=5834),),
                                 record)
        monkeypatch.setattr(fermatkit.cli, "frenicle_scan", lambda *args: report)
        cap = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "perfect", "--min-digits", "4301",
                             "--max-exponent", "9689")
        assert sys.get_int_max_str_digits() == cap
        assert (code, err) == (0, "")
        last = out.splitlines()[-1]
        assert last.startswith("found: ")
        assert last.endswith(" (5834 digits, exponent 9689)")
        digits = last[len("found: "):-len(" (5834 digits, exponent 9689)")]
        assert len(digits) == 5834 and digits.isdigit()
        sys.set_int_max_str_digits(0)
        try:
            assert int(digits) == record.perfect_number
        finally:
            sys.set_int_max_str_digits(cap)


class TestReplay:
    @pytest.mark.parametrize("scenario", ["table1", "m23-m36", "m37", "m31"])
    def test_each_scenario_passes(self, capsys, scenario):
        code, out, _ = run(capsys, "replay", scenario)
        assert code == 0
        assert out.strip().endswith("overall: pass")

    def test_all(self, capsys):
        code, out, _ = run(capsys, "replay", "all")
        assert code == 0
        assert out.count("overall: pass") == 4

    def test_json(self, capsys):
        code, out, _ = run(capsys, "replay", "m31", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["scenario"] == "m31"
        assert doc["overall"] is True
        labels = [item["label"] for item in doc["items"]]
        assert "candidate count" in labels

    def test_unknown_scenario_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["replay", "bogus"])
        assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _subprocess_env():
    """The environment with this checkout's fermatkit first on the path."""
    src = os.path.dirname(os.path.dirname(fermatkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _run_with_closed_stdout(*argv):
    # The read end is closed before the command starts, so its first
    # write to stdout fails with EPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "fermatkit.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_subprocess_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)


def test_closed_stdout_exits_141_quietly():
    proc = _run_with_closed_stdout("factor", "37", "--unrefined")
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_closed_stdout_exits_141_quietly_on_streamed_json():
    proc = _run_with_closed_stdout("factor", "37", "--unrefined", "--json")
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_factor_61_json_peaks_below_150_mib():
    # A wrapper waits for the command alone, so RUSAGE_CHILDREN reads the
    # command's own peak. The document is about 70 MB; streamed, neither
    # it nor one record per miss is ever held.
    script = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'fermatkit.cli', 'factor', '61',"
        " '--json'], stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=_subprocess_env(), timeout=120, check=True)
    assert int(proc.stdout) / 1024 < 150


def _candidates_peak(q):
    """Exit code, peak RSS in KiB and stderr of ``candidates --q q``."""
    # A wrapper waits for the command alone, so RUSAGE_CHILDREN reads the
    # command's own peak.
    script = (
        "import resource, subprocess, sys\n"
        "proc = subprocess.run([sys.executable, '-m', 'fermatkit.cli', 'candidates',"
        f" '--q', '{q}'], stderr=subprocess.PIPE, text=True)\n"
        "print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        "print(proc.stderr, end='')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=120, check=True)
    status, err = proc.stdout.split("\n", 1)
    code, peak = map(int, status.split())
    return code, peak, err


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_candidates_refuses_a_long_limit_below_128_mib():
    # q alone decides the refusal past str()'s digit cap: no limit is
    # formed, where the bound 1 << (q - 1) // 2 alone would be 62.5 MB,
    # so q = 10**9 peaks within a few MiB of q = 67, whose limit is.
    code, small, err = _candidates_peak(67)
    assert (code, err) == (2, "error: a class walk stops at 16777216 members,"
                              " got limit 12148001999\n")
    code, large, err = _candidates_peak(10**9)
    assert (code, err) == (2, "error: a class walk stops at 16777216 members,"
                              " got a 500000000-bit limit\n")
    assert large / 1024 < 128
    assert (large - small) / 1024 < 4


# Exact stdout of representative commands, so any change to a text or
# JSON form shows up as a diff rather than slipping past a substring check.
GOLDEN_STDOUT = {
    "factor 12": """\
M12 = 4095 = 3^2·5·7·13
status: complete
  inherited 3 from exponent 2 (multiplicity 2)
  inherited 5 from exponent 4 (multiplicity 1)
  inherited 7 from exponent 3 (multiplicity 1)
  cofactor 13 is prime (candidates exhausted)
""",
    "factor 60": """\
M60 = 1152921504606846975 = 3^2·5^2·7·11·13·31·41·61·151·331·1321
status: complete
  inherited 3 from exponent 2 (multiplicity 2)
  inherited 5 from exponent 4 (multiplicity 2)
  inherited 7 from exponent 3 (multiplicity 1)
  inherited 11 from exponent 10 (multiplicity 1)
  inherited 13 from exponent 12 (multiplicity 1)
  inherited 31 from exponent 5 (multiplicity 1)
  inherited 41 from exponent 20 (multiplicity 1)
  inherited 151 from exponent 15 (multiplicity 1)
  inherited 331 from exponent 30 (multiplicity 1)
  split into 61 and 1321 (Aurifeuille)
  cofactor 61 is prime (candidates exhausted)
  cofactor 1321 is prime (candidates exhausted)
""",
    "factor 36 --json": """\
{
  "exponent": "36",
  "factorization": {
    "value": "68719476735",
    "factors": [
      {
        "p": "3",
        "e": "3"
      },
      {
        "p": "5",
        "e": "1"
      },
      {
        "p": "7",
        "e": "1"
      },
      {
        "p": "13",
        "e": "1"
      },
      {
        "p": "19",
        "e": "1"
      },
      {
        "p": "37",
        "e": "1"
      },
      {
        "p": "73",
        "e": "1"
      },
      {
        "p": "109",
        "e": "1"
      }
    ],
    "status": "complete",
    "cofactor": "1"
  },
  "trace": [
    {
      "rule": "propagated",
      "value": "3",
      "source": "2",
      "multiplicity": "3"
    },
    {
      "rule": "propagated",
      "value": "5",
      "source": "4",
      "multiplicity": "1"
    },
    {
      "rule": "propagated",
      "value": "7",
      "source": "3",
      "multiplicity": "1"
    },
    {
      "rule": "propagated",
      "value": "13",
      "source": "12",
      "multiplicity": "1"
    },
    {
      "rule": "propagated",
      "value": "19",
      "source": "18",
      "multiplicity": "1"
    },
    {
      "rule": "propagated",
      "value": "73",
      "source": "9",
      "multiplicity": "1"
    },
    {
      "rule": "algebraic-split",
      "value": [
        "37",
        "109"
      ],
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "cofactor-prime",
      "value": "37",
      "source": null,
      "multiplicity": "1"
    },
    {
      "rule": "cofactor-prime",
      "value": "109",
      "source": null,
      "multiplicity": "1"
    }
  ]
}
""",
    "factor 11 --json": """\
{
  "exponent": "11",
  "factorization": {
    "value": "2047",
    "factors": [
      {
        "p": "23",
        "e": "1"
      },
      {
        "p": "89",
        "e": "1"
      }
    ],
    "status": "complete",
    "cofactor": "1"
  },
  "trace": [
    {
      "rule": "candidate-hit",
      "value": "23",
      "source": null,
      "multiplicity": "1"
    },
    {
      "rule": "cofactor-prime",
      "value": "89",
      "source": null,
      "multiplicity": "1"
    }
  ]
}
""",
    "factor 37 --budget 200": """\
M37 = 137438953471 = 137438953471 (unresolved)
status: partial
  scan stopped at budget 200
""",
    "replay m37": """\
scenario: m37
  [pass] first candidate: 149
  [pass] divisor found: 223
  [pass] factorization: 223·616318177
  [pass] cofactor: prime
  [pass] perfect-candidate digits: 22
overall: pass
""",
    "replay m37 --json": """\
{
  "scenario": "m37",
  "items": [
    {
      "label": "first candidate",
      "computed": "149",
      "expected": "149",
      "pass": true
    },
    {
      "label": "divisor found",
      "computed": "223",
      "expected": "223",
      "pass": true
    },
    {
      "label": "factorization",
      "computed": "223\\u00b7616318177",
      "expected": "223\\u00b7616318177",
      "pass": true
    },
    {
      "label": "cofactor",
      "computed": "prime",
      "expected": "prime",
      "pass": true
    },
    {
      "label": "perfect-candidate digits",
      "computed": "22",
      "expected": "22",
      "pass": true
    }
  ],
  "overall": true
}
""",
    "perfect --min-digits 20 --max-exponent 37": """\
exponent 2: mersenne-prime (perfect number has 1 digits)
exponent 3: mersenne-prime (perfect number has 2 digits)
exponent 5: mersenne-prime (perfect number has 3 digits)
exponent 7: mersenne-prime (perfect number has 4 digits)
exponent 11: imposter (witness factor 23)
exponent 13: mersenne-prime (perfect number has 8 digits)
exponent 17: mersenne-prime (perfect number has 10 digits)
exponent 19: mersenne-prime (perfect number has 12 digits)
exponent 23: imposter (witness factor 47)
exponent 29: imposter (witness factor 233)
exponent 31: mersenne-prime (perfect number has 19 digits)
exponent 37: imposter (witness factor 223)
no perfect number with at least 20 digits
""",
    "replay all --json": """\
[
  {
    "scenario": "table1",
    "items": [
      {
        "label": "M2",
        "computed": "3 (prime)",
        "expected": "3 (prime)",
        "pass": true
      },
      {
        "label": "M3",
        "computed": "7 (prime)",
        "expected": "7 (prime)",
        "pass": true
      },
      {
        "label": "M4",
        "computed": "3\\u00b75",
        "expected": "3\\u00b75",
        "pass": true
      },
      {
        "label": "M5",
        "computed": "31 (prime)",
        "expected": "31 (prime)",
        "pass": true
      },
      {
        "label": "M6",
        "computed": "3^2\\u00b77",
        "expected": "3^2\\u00b77",
        "pass": true
      },
      {
        "label": "M7",
        "computed": "127 (prime)",
        "expected": "127 (prime)",
        "pass": true
      },
      {
        "label": "M8",
        "computed": "3\\u00b75\\u00b717",
        "expected": "3\\u00b75\\u00b717",
        "pass": true
      },
      {
        "label": "M9",
        "computed": "7\\u00b773",
        "expected": "7\\u00b773",
        "pass": true
      },
      {
        "label": "M10",
        "computed": "3\\u00b711\\u00b731",
        "expected": "3\\u00b711\\u00b731",
        "pass": true
      },
      {
        "label": "M11",
        "computed": "23\\u00b789",
        "expected": "23\\u00b789",
        "pass": true
      },
      {
        "label": "M12",
        "computed": "3^2\\u00b75\\u00b77\\u00b713",
        "expected": "3^2\\u00b75\\u00b77\\u00b713",
        "pass": true
      },
      {
        "label": "M13",
        "computed": "8191 (prime)",
        "expected": "8191 (prime)",
        "pass": true
      },
      {
        "label": "M14",
        "computed": "3\\u00b743\\u00b7127",
        "expected": "3\\u00b743\\u00b7127",
        "pass": true
      },
      {
        "label": "M15",
        "computed": "7\\u00b731\\u00b7151",
        "expected": "7\\u00b731\\u00b7151",
        "pass": true
      },
      {
        "label": "M16",
        "computed": "3\\u00b75\\u00b717\\u00b7257",
        "expected": "3\\u00b75\\u00b717\\u00b7257",
        "pass": true
      },
      {
        "label": "M17",
        "computed": "131071 (prime)",
        "expected": "131071 (prime)",
        "pass": true
      },
      {
        "label": "M18",
        "computed": "3^3\\u00b77\\u00b719\\u00b773",
        "expected": "3^3\\u00b77\\u00b719\\u00b773",
        "pass": true
      },
      {
        "label": "M19",
        "computed": "524287 (prime)",
        "expected": "524287 (prime)",
        "pass": true
      },
      {
        "label": "M20",
        "computed": "3\\u00b75^2\\u00b711\\u00b731\\u00b741",
        "expected": "3\\u00b75^2\\u00b711\\u00b731\\u00b741",
        "pass": true
      },
      {
        "label": "M21",
        "computed": "7^2\\u00b7127\\u00b7337",
        "expected": "7^2\\u00b7127\\u00b7337",
        "pass": true
      },
      {
        "label": "M22",
        "computed": "3\\u00b723\\u00b789\\u00b7683",
        "expected": "3\\u00b723\\u00b789\\u00b7683",
        "pass": true
      }
    ],
    "overall": true
  },
  {
    "scenario": "m23-m36",
    "items": [
      {
        "label": "M23",
        "computed": "47\\u00b7178481",
        "expected": "47\\u00b7178481",
        "pass": true
      },
      {
        "label": "M24",
        "computed": "3^2\\u00b75\\u00b77\\u00b713\\u00b717\\u00b7241",
        "expected": "3^2\\u00b75\\u00b77\\u00b713\\u00b717\\u00b7241",
        "pass": true
      },
      {
        "label": "M25",
        "computed": "31\\u00b7601\\u00b71801",
        "expected": "31\\u00b7601\\u00b71801",
        "pass": true
      },
      {
        "label": "M26",
        "computed": "3\\u00b72731\\u00b78191",
        "expected": "3\\u00b72731\\u00b78191",
        "pass": true
      },
      {
        "label": "M27",
        "computed": "7\\u00b773\\u00b7262657",
        "expected": "7\\u00b773\\u00b7262657",
        "pass": true
      },
      {
        "label": "M28",
        "computed": "3\\u00b75\\u00b729\\u00b743\\u00b7113\\u00b7127",
        "expected": "3\\u00b75\\u00b729\\u00b743\\u00b7113\\u00b7127",
        "pass": true
      },
      {
        "label": "M29",
        "computed": "233\\u00b71103\\u00b72089",
        "expected": "233\\u00b71103\\u00b72089",
        "pass": true
      },
      {
        "label": "M30",
        "computed": "3^2\\u00b77\\u00b711\\u00b731\\u00b7151\\u00b7331",
        "expected": "3^2\\u00b77\\u00b711\\u00b731\\u00b7151\\u00b7331",
        "pass": true
      },
      {
        "label": "M31",
        "computed": "2147483647 (prime)",
        "expected": "2147483647 (prime)",
        "pass": true
      },
      {
        "label": "M32",
        "computed": "3\\u00b75\\u00b717\\u00b7257\\u00b765537",
        "expected": "3\\u00b75\\u00b717\\u00b7257\\u00b765537",
        "pass": true
      },
      {
        "label": "M33",
        "computed": "7\\u00b723\\u00b789\\u00b7599479",
        "expected": "7\\u00b723\\u00b789\\u00b7599479",
        "pass": true
      },
      {
        "label": "M34",
        "computed": "3\\u00b743691\\u00b7131071",
        "expected": "3\\u00b743691\\u00b7131071",
        "pass": true
      },
      {
        "label": "M35",
        "computed": "31\\u00b771\\u00b7127\\u00b7122921",
        "expected": "31\\u00b771\\u00b7127\\u00b7122921",
        "pass": true
      },
      {
        "label": "M36",
        "computed": "3^3\\u00b75\\u00b77\\u00b713\\u00b719\\u00b737\\u00b773\\u00b7109",
        "expected": "3^3\\u00b75\\u00b77\\u00b713\\u00b719\\u00b737\\u00b773\\u00b7109",
        "pass": true
      }
    ],
    "overall": true
  },
  {
    "scenario": "m37",
    "items": [
      {
        "label": "first candidate",
        "computed": "149",
        "expected": "149",
        "pass": true
      },
      {
        "label": "divisor found",
        "computed": "223",
        "expected": "223",
        "pass": true
      },
      {
        "label": "factorization",
        "computed": "223\\u00b7616318177",
        "expected": "223\\u00b7616318177",
        "pass": true
      },
      {
        "label": "cofactor",
        "computed": "prime",
        "expected": "prime",
        "pass": true
      },
      {
        "label": "perfect-candidate digits",
        "computed": "22",
        "expected": "22",
        "pass": true
      }
    ],
    "overall": true
  },
  {
    "scenario": "m31",
    "items": [
      {
        "label": "residue classes",
        "computed": "mod 248: 1, 63",
        "expected": "mod 248: 1, 63",
        "pass": true
      },
      {
        "label": "primes below 46339",
        "computed": "4792",
        "expected": "4792",
        "pass": true
      },
      {
        "label": "candidate count",
        "computed": "84",
        "expected": "84",
        "pass": true
      },
      {
        "label": "first candidate",
        "computed": "311",
        "expected": "311",
        "pass": true
      },
      {
        "label": "divisor hits",
        "computed": "0",
        "expected": "0",
        "pass": true
      },
      {
        "label": "direct-division cross-check",
        "computed": "consistent",
        "expected": "consistent",
        "pass": true
      },
      {
        "label": "verdict",
        "computed": "prime",
        "expected": "prime",
        "pass": true
      },
      {
        "label": "perfect number",
        "computed": "2305843008139952128",
        "expected": "2305843008139952128",
        "pass": true
      },
      {
        "label": "perfect-number digits",
        "computed": "19",
        "expected": "19",
        "pass": true
      }
    ],
    "overall": true
  }
]
""",
    "factor 37 --unrefined --json": """\
{
  "exponent": "37",
  "factorization": {
    "value": "137438953471",
    "factors": [
      {
        "p": "223",
        "e": "1"
      },
      {
        "p": "616318177",
        "e": "1"
      }
    ],
    "status": "complete",
    "cofactor": "1"
  },
  "trace": [
    {
      "rule": "candidate-miss",
      "value": "149",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-hit",
      "value": "223",
      "source": null,
      "multiplicity": "1"
    },
    {
      "rule": "candidate-miss",
      "value": "593",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "1259",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "1481",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "1777",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "1999",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "2221",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "2591",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "2887",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "3109",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "3257",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "3331",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "3701",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "3923",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "4219",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "4441",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "4663",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "5107",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "5477",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "6143",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "6217",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "6661",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "6883",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "7253",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "7549",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "7919",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "7993",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "8363",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "8807",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "9029",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "9103",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "9473",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "9547",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "9769",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "10139",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "10657",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "11027",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "11471",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "12211",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "12433",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "13099",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "13469",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "13691",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "13913",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "14431",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "14653",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "15319",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "15467",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "15541",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "16651",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "17021",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "17317",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "17539",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "17761",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "17909",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "18131",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "18353",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "18427",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "18797",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "19463",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "19759",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "20129",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "21017",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "21313",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "21683",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "21757",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "22349",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "22571",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "23311",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "23459",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "23977",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "candidate-miss",
      "value": "24421",
      "source": null,
      "multiplicity": "0"
    },
    {
      "rule": "cofactor-prime",
      "value": "616318177",
      "source": null,
      "multiplicity": "1"
    }
  ]
}
""",
    "order 683": """\
order of 2 mod 683 = 22
""",
    "order 1000003": """\
order of 2 mod 1000003 = 1000002
""",
    "candidates --q 31 --refined --limit 46339": """\
class for M31: residues 1, 63 mod 248
84 candidate primes up to 46339
311
1303
1489
2543
2729
2791
4217
5023
5209
5519
5953
6263
6449
7193
7937
8681
8929
9239
10169
11161
11471
11657
11719
12401
12959
14447
14633
15377
15439
16183
16369
16927
17609
18353
18911
19841
20089
20399
21143
21391
21577
22073
22817
23561
23623
25111
25793
26041
27281
27529
28087
29017
29327
29761
30071
30319
31063
31249
32303
33791
34039
34721
35279
35527
36209
36457
36767
37201
37511
39929
40177
40487
41231
41479
42223
42409
42719
42967
43649
43711
44207
44641
45137
45943
""",
    "verify-flt --max-p 2000 --bases 2,3,5": """\
1208 checks, 0 counterexamples
""",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert out == GOLDEN_STDOUT[command]


# Outputs too long to hold as text, pinned by byte length and sha256.
GOLDEN_DIGEST = {
    "factor 59 --json": (
        136270, "fd90b7b00c8446104cb003ed673e985391513d9324a0fd8c32128166f8b150d2"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN_DIGEST))
def test_golden_digest(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN_DIGEST[command]
