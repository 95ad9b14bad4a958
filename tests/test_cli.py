import json
import os
import subprocess
import sys

import pytest

import fermatkit
from fermatkit.cli import main


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

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(capsys, "factor", "1")
        assert code == 2
        assert "error" in err


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

    def test_unrefined_m37(self, capsys):
        code, out, _ = run(
            capsys, "candidates", "--q", "37", "--limit", "300"
        )
        assert code == 0
        assert "mod 74" in out
        assert "149" in out and "223" in out


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


def test_closed_stdout_exits_141_quietly():
    # The read end is closed before the command starts, so its first
    # write to stdout fails with EPIPE.
    src = os.path.dirname(os.path.dirname(fermatkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fermatkit.cli", "factor", "37", "--unrefined"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


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
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert out == GOLDEN_STDOUT[command]
