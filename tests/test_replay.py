from fermatkit.factoring import COMPLETE, PARTIAL, Factorization, clear_cache
from fermatkit.render import (
    factorization_to_dict,
    format_factorization,
    render_report,
    report_to_dict,
)
from fermatkit.replay import (
    M23_M36_EXPECTED,
    TABLE1_EXPECTED,
    _build_report,
    replay_all,
    replay_m23_to_m36,
    replay_m31,
    replay_m37,
    replay_table1,
)


class TestFormatFactorization:
    def test_exponent_elision(self):
        f = Factorization(4095, ((3, 2), (5, 1), (7, 1), (13, 1)), COMPLETE)
        assert format_factorization(f) == "3^2·5·7·13"

    def test_prime_rendering(self):
        f = Factorization(131071, ((131071, 1),), COMPLETE)
        assert format_factorization(f) == "131071 (prime)"

    def test_partial_rendering(self):
        f = Factorization(2047, ((23, 1),), PARTIAL, 89)
        assert format_factorization(f) == "23·89 (unresolved)"


class TestTable1:
    def test_all_items_pass(self):
        report = replay_table1()
        assert len(report.items) == 21
        assert report.overall
        for item in report.items:
            assert item.passed, item

    def test_selected_items(self):
        by_label = {i.label: i for i in replay_table1().items}
        assert by_label["M12"].computed == "3^2·5·7·13"
        assert by_label["M17"].computed == "131071 (prime)"
        assert by_label["M20"].computed == "3·5^2·11·31·41"


class TestM23ToM36:
    def test_all_items_pass(self):
        report = replay_m23_to_m36()
        assert len(report.items) == len(M23_M36_EXPECTED)
        assert report.overall

    def test_selected_items(self):
        by_label = {i.label: i for i in replay_m23_to_m36().items}
        assert by_label["M23"].computed == "47·178481"
        assert by_label["M29"].computed == "233·1103·2089"
        assert by_label["M31"].computed == "2147483647 (prime)"
        assert by_label["M32"].computed == "3·5·17·257·65537"
        assert by_label["M35"].computed == "31·71·127·122921"


class TestM37:
    def test_all_items_pass(self):
        report = replay_m37()
        assert report.overall
        by_label = {i.label: i for i in report.items}
        assert by_label["first candidate"].computed == "149"
        assert by_label["divisor found"].computed == "223"
        assert by_label["perfect-candidate digits"].computed == "22"


class TestM31:
    def test_all_items_pass(self):
        report = replay_m31()
        assert report.overall
        by_label = {i.label: i for i in report.items}
        assert by_label["residue classes"].computed == "mod 248: 1, 63"
        assert by_label["candidate count"].computed == "84"
        assert by_label["first candidate"].computed == "311"
        assert by_label["divisor hits"].computed == "0"
        assert by_label["perfect number"].computed == "2305843008139952128"


class TestDiffMachinery:
    def test_perturbed_expectation_flips_exactly_that_item(self):
        base = replay_table1()
        triples = [(i.label, i.computed, i.expected) for i in base.items]
        label, computed, _ = triples[4]
        triples[4] = (label, computed, "999 (prime)")
        perturbed = _build_report("table1", triples)
        assert not perturbed.overall
        flipped = [i.label for i in perturbed.items if not i.passed]
        assert flipped == [label]

    def test_overall_is_conjunction(self):
        report = _build_report(
            "demo", [("a", "1", "1"), ("b", "2", "3")]
        )
        assert not report.overall
        assert [i.passed for i in report.items] == [True, False]


class TestDeterminism:
    def test_reports_are_byte_identical_across_runs(self):
        first = "".join(render_report(replay_all()))
        clear_cache()
        second = "".join(render_report(replay_all()))
        assert first == second


class TestSerialization:
    def test_report_schema(self):
        doc = report_to_dict(replay_m37())
        assert set(doc) == {"scenario", "items", "overall"}
        assert doc["overall"] is True
        for item in doc["items"]:
            assert set(item) == {"label", "computed", "expected", "pass"}

    def test_factorization_numbers_are_decimal_strings(self):
        f = Factorization(2047, ((23, 1), (89, 1)), COMPLETE)
        doc = factorization_to_dict(f)
        assert doc == {
            "value": "2047",
            "factors": [{"p": "23", "e": "1"}, {"p": "89", "e": "1"}],
            "status": "complete",
            "cofactor": "1",
        }

    def test_render_marks_failures(self):
        report = _build_report("demo", [("x", "1", "2")])
        text = "".join(render_report([report]))
        assert "[FAIL] x: 1 (expected 2)" in text
        assert text.endswith("overall: FAIL\n")


def test_expected_tables_cover_contiguous_ranges():
    assert sorted(TABLE1_EXPECTED) == list(range(2, 23))
    assert sorted(M23_M36_EXPECTED) == list(range(23, 37))
