"""End-to-end tests for the command line front end and its file formats."""

import functools
import time

import pytest

from quasilines import cubic, divisors, fans, lattice, models
from quasilines.cli import main, run
from quasilines.report import parse, render

P2_FAN_DOC = """\
dim: 2
rays:
- 1 0
- 0 1
- -1 -1
cones:
- 0 1
- 1 2
- 0 2
"""

# P^2 without cone 0 2: a valid fan that does not cover the plane.
P2_OPEN_FAN_DOC = """\
dim: 2
rays:
- 1 0
- 0 1
- -1 -1
cones:
- 0 1
- 1 2
"""

# Three quadrants of the plane: a valid fan with 3 cone pairs that does not
# cover the plane.
THREE_QUADRANTS_DOC = """\
dim: 2
rays:
- 1 0
- 0 1
- -1 0
- 0 -1
cones:
- 0 1
- 1 2
- 2 3
"""

# A fan in dimension 3 whose cone 0 1 is 2-dimensional, of multiplicity 2.
LOWER_DIM_FAN_DOC = """\
dim: 3
rays:
- 1 0 0
- 1 2 0
- 0 0 1
- -1 -1 -1
cones:
- 0 1
- 2 3
"""


def structured(argv):
    code, text = run(list(argv) + ["--format", "structured"])
    return code, parse(text), text


class TestAppendix:
    def test_n2_report(self):
        code, doc, _ = structured(["appendix", "--n", "2"])
        assert code == 0
        assert doc["h0"] == 1
        assert doc["lattice-points"] == [(0, 0)]
        assert doc["quotient-multiplicities"] == (3, 3, 3)
        assert doc["cartier-on-projective"] is True
        assert doc["cartier-on-quotient"] is False
        assert doc["rational-solution"][0].denominator == 3

    def test_n4_report(self):
        code, doc, _ = structured(["appendix", "--n", "4"])
        assert code == 0
        assert doc["h0"] == 1
        assert doc["quotient-multiplicities"] == (5,) * 5

    def test_n1_is_usage_error(self):
        code, text = run(["appendix", "--n", "1", "--format", "structured"])
        assert code == 1
        assert "error" in text

    def test_determinism(self):
        _, _, first = structured(["appendix", "--n", "3"])
        _, _, second = structured(["appendix", "--n", "3"])
        assert first == second


class TestLemmaA2:
    def test_small_run(self):
        code, doc, _ = structured(["lemma-a2", "--n", "2", "--samples", "8"])
        assert code == 0
        assert doc["samples-cartier"] == 8
        assert doc["count-violations"] == 0
        assert doc["all-ok"] is True

    def test_zero_samples(self):
        code, doc, _ = structured(["lemma-a2", "--n", "2", "--samples", "0"])
        assert code == 0
        assert doc["samples-tested"] == 0

    def test_seeded_determinism(self):
        _, _, first = structured(["lemma-a2", "--n", "2", "--samples", "10", "--seed", "7"])
        _, _, second = structured(["lemma-a2", "--n", "2", "--samples", "10", "--seed", "7"])
        assert first == second

    def test_n4_run(self):
        code, doc, _ = structured(["lemma-a2", "--n", "4", "--samples", "5"])
        assert code == 0
        assert doc["samples-cartier"] == 5
        assert doc["base-section-count"] == 1
        assert doc["all-ok"] is True

    def test_n9_run(self):
        code, doc, _ = structured(["lemma-a2", "--n", "9", "--samples", "100"])
        assert code == 0
        assert doc["refined-smooth"] is True
        assert doc["samples-cartier"] == 100
        assert doc["all-ok"] is True

    def test_n11_run(self):
        # appendix and lemma-a2 share one bound, MAX_QUOTIENT_N = 12.
        code, doc, _ = structured(["lemma-a2", "--n", "11", "--samples", "20"])
        assert code == 0
        assert doc["refined-smooth"] is True
        assert doc["samples-cartier"] == 20
        assert doc["all-ok"] is True

    def test_n13_is_usage_error(self):
        code, doc, text = structured(["lemma-a2", "--n", "13"])
        assert code == 1
        assert doc["error"] == "usage"
        assert "between 2 and 12" in text


class TestBundle:
    def test_elm(self):
        code, doc, _ = structured(["bundle", "elm", "--type", "0,1,4"])
        assert code == 0
        assert doc["result"] == "0,1,3"

    def test_plan(self):
        code, doc, _ = structured(["bundle", "plan", "--type", "2,3"])
        assert code == 0
        assert doc["steps"] == 3
        assert doc["trajectory"][-1] == "1,1"

    def test_plan_not_ample_is_math_error(self):
        code, doc, _ = structured(["bundle", "plan", "--type", "0,2"])
        assert code == 2
        assert doc["error"] == "NotAmpleError"

    def test_rank_one_plan_and_elm(self):
        code, doc, _ = structured(["bundle", "plan", "--type", "3"])
        assert code == 0
        assert doc["trajectory"] == [3, 2, 1]
        code, doc, text = structured(["bundle", "elm", "--type", "3"])
        assert code == 1
        assert doc["error"] == "usage"
        assert "rank at least 2" in text

    def test_self_int(self):
        code, doc, _ = structured(["bundle", "self-int", "--type", "1,2,3"])
        assert code == 0
        assert doc["self-intersections"] == (-3, 0, 3)

    def test_recover(self):
        # Values starting with a dash need the --flag=value spelling.
        code, doc, _ = structured(["bundle", "recover", "--targets=-1,1", "--anchor", "1"])
        assert code == 0
        assert doc["result"] == "0,1"

    def test_recover_invalid_is_math_error(self):
        code, doc, _ = structured(["bundle", "recover", "--targets", "1,2", "--anchor", "0"])
        assert code == 2
        assert doc["error"] == "InvalidSplittingError"

    def test_cor17(self):
        code, doc, _ = structured(["bundle", "cor17", "--type", "2,2", "--d", "2", "--dimD", "4"])
        assert code == 0
        assert doc["rational-criterion"] is True

    def test_thm41(self):
        code, doc, _ = structured([
            "bundle", "thm41", "--d", "1", "--dimD", "3", "--n", "3", "--quasiline", "true",
        ])
        assert code == 0
        assert doc["strongly-rational-criterion"] is True

    def test_thm16(self):
        code, doc, _ = structured([
            "bundle", "thm16", "--type", "2,2", "--d", "2", "--dimD", "2",
        ])
        assert code == 0
        assert doc["applicable"] is True
        assert doc["reduced-type"] == "1,1"
        assert doc["target-dim"] == 1

    def test_thm16_inapplicable(self):
        code, doc, _ = structured([
            "bundle", "thm16", "--type", "1,2", "--d", "2", "--dimD", "5",
        ])
        assert code == 0
        assert doc["applicable"] is False

    def test_parse_error_position(self):
        code, text = run(["bundle", "elm", "--type", "2,x", "--format", "structured"])
        assert code == 1
        assert "position 2" in text


class TestCubic:
    def test_seed_zero(self):
        code, doc, _ = structured(["cubic", "--seed", "0"])
        assert code == 0
        assert doc["count"] == 6
        assert doc["e"] == 6
        assert doc["generic"] is True
        assert doc["resultant-degree"] == 6
        assert len(doc["resultant-coefficients"]) == 7

    def test_reducible_demo(self):
        code, doc, _ = structured(["cubic", "--demo", "reducible"])
        assert code == 2
        assert doc["error"] == "DegenerateError"

    def test_determinism(self):
        _, _, first = structured(["cubic", "--seed", "5"])
        _, _, second = structured(["cubic", "--seed", "5"])
        assert first == second


class TestModels:
    def test_builtin_cubic_conic(self):
        code, doc, _ = structured(["models", "cubic-conic"])
        assert code == 0
        # Free-text items tokenise: "b = 1" parses back as ('b', '=', 1).
        assert ("b", "=", 1) in doc["derived-fields"]
        assert ("g3", "=", True) in doc["derived-fields"]

    def test_builtin_toric_quotient(self):
        code, doc, _ = structured(["models", "toric-quotient", "--n", "3"])
        assert code == 0
        assert ("etilde", "=", 1) in doc["derived-fields"]
        assert ("g3", "=", False) in doc["derived-fields"]

    @pytest.mark.parametrize("name,n,code", [
        ("toric-quotient", "3", 0), ("pn-line", "4", 0), ("cubic-conic", "3", 1),
    ])
    def test_arity_seen_through_a_wrapper(self, monkeypatch, name, n, code):
        # A tracer rebinds each builtin to a functools.wraps wrapper taking
        # *args; --n must still apply exactly to the builders with a parameter.
        builder = models.BUILTIN_RECORDS[name]

        @functools.wraps(builder)
        def wrapper(*args, **kwargs):
            return builder(*args, **kwargs)

        monkeypatch.setitem(models.BUILTIN_RECORDS, name, wrapper)
        plain = run(["models", name, "--n", n])
        monkeypatch.setitem(models.BUILTIN_RECORDS, name, builder)
        assert plain == run(["models", name, "--n", n])
        assert plain[0] == code

    def test_contradiction_from_file(self, tmp_path):
        record = tmp_path / "bad.txt"
        record.write_text("e0: 2\ne: 1\n")
        code, doc, _ = structured(["models", "--file", str(record)])
        assert code == 2
        assert doc["contradiction-rule"] == "R2"

    def test_unknown_field(self, tmp_path):
        record = tmp_path / "bad.txt"
        record.write_text("mystery: 3\n")
        code, text = run(["models", "--file", str(record), "--format", "structured"])
        assert code == 1
        assert "mystery" in text


class TestFan:
    def test_validate_good(self, tmp_path):
        fan_file = tmp_path / "p2.txt"
        fan_file.write_text(P2_FAN_DOC)
        code, doc, _ = structured(["fan", "validate", str(fan_file)])
        assert code == 0
        assert doc["valid"] is True

    def test_validate_bad(self, tmp_path):
        fan_file = tmp_path / "bad.txt"
        fan_file.write_text("dim: 2\nrays:\n- 2 0\n- 0 1\ncones:\n- 0 1\n")
        code, doc, _ = structured(["fan", "validate", str(fan_file)])
        assert code == 0
        assert doc["valid"] is False
        assert any("primitive" in item for item in doc["violations"])

    def test_desingularize_roundtrip(self, tmp_path):
        fan_file = tmp_path / "quotient.txt"
        fan_file.write_text(
            "dim: 2\nrays:\n- 3 -2\n- 0 1\n- -3 1\ncones:\n- 0 1\n- 0 2\n- 1 2\n"
        )
        code, doc, text = structured(["fan", "desingularize", str(fan_file)])
        assert code == 0
        assert doc["smooth"] is True
        out_file = tmp_path / "smooth.txt"
        out_file.write_text(text)
        code2, doc2, _ = structured(["fan", "validate", str(out_file)])
        assert code2 == 0
        assert doc2["valid"] is True

    def test_cartier_failure_witness(self, tmp_path):
        fan_file = tmp_path / "quotient.txt"
        fan_file.write_text(
            "dim: 2\nrays:\n- 3 -2\n- 0 1\n- -3 1\ncones:\n- 0 1\n- 0 2\n- 1 2\n"
        )
        code, doc, _ = structured(["fan", "cartier", str(fan_file), "--values", "0,-1,0"])
        assert code == 0
        assert doc["cartier"] is False
        assert doc["rational-solution"] == (__import__("fractions").Fraction(-2, 3), -1)

    def test_h0_via_divisor_file(self, tmp_path):
        fan_file = tmp_path / "p2.txt"
        fan_file.write_text(P2_FAN_DOC)
        divisor = tmp_path / "hyperplane.txt"
        divisor.write_text("fan: p2.txt\nvalues: 0 0 -1\n")
        code, doc, _ = structured(["fan", "h0", "--divisor", str(divisor)])
        assert code == 0
        assert doc["h0"] == 3

    def test_h0_unbounded(self, tmp_path):
        fan_file = tmp_path / "half.txt"
        fan_file.write_text("dim: 2\nrays:\n- 1 0\n- 0 1\ncones:\n- 0 1\n")
        code, doc, _ = structured(["fan", "h0", str(fan_file), "--values", "0,0"])
        assert code == 2
        assert doc["error"] == "UnboundedPolyhedronError"

    def test_missing_file(self):
        code, text = run(["fan", "validate", "/nonexistent.txt", "--format", "structured"])
        assert code == 1


class TestLowerDimensionalCones:
    @pytest.mark.parametrize("subop,extra,expected", [
        ("validate", [], (
            "report: fan-validate\nseed: 0\ndim: 3\nray-count: 4\ncone-count: 2\n"
            "valid: true\nviolations: none\n"
        )),
        ("desingularize", [], (
            "report: fan-desingularize\nseed: 0\ndim: 3\nrays:\n- 1 0 0\n- 1 2 0\n"
            "- 0 0 1\n- -1 -1 -1\n- 1 1 0\ncones:\n- 0 4\n- 1 4\n- 2 3\n"
            "smooth: true\nadded-rays: 1\n"
        )),
        ("cartier", ["--values=0,1,0,0"], (
            "report: fan-cartier\nseed: 0\nvalues: 0 1 0 0\ncartier: false\n"
            "failing-cone: 0\nfailing-cone-rays: 0 1\nrational-solution: 0 1/2 0\n"
        )),
        ("cartier", ["--values=0,2,0,0"], (
            "report: fan-cartier\nseed: 0\nvalues: 0 2 0 0\ncartier: true\n"
            "cone-duals:\n- 0 1 0\n- 0 0 0\n"
        )),
        ("h0", ["--values=0,0,0,-1"], (
            "report: fan-h0\nseed: 0\nvalues: 0 0 0 -1\nconstraints:\n- 1 0 0 0\n"
            "- 1 2 0 0\n- 0 0 1 0\n- -1 -1 -1 -1\nlattice-points:\n- 0 0 0\n"
            "- 0 0 1\n- 0 1 0\n- 1 0 0\n- 2 -1 0\nsection-count: 5\nh0: 5\n"
        )),
    ])
    def test_report_bytes(self, tmp_path, subop, extra, expected):
        fan_file = tmp_path / "lower.txt"
        fan_file.write_text(LOWER_DIM_FAN_DOC)
        code, _, text = structured(["fan", subop, str(fan_file)] + extra)
        assert code == 0
        assert text == expected


class TestValidationPaths:
    # The plane covered twice: cones join consecutive rays 0 1, 1 2, ...,
    # 7 0.  Every facet pairs across opposite sides; only the covered-once
    # test fails, so the pairwise check decides and lists its violations.
    DOUBLE_COVER_DOC = (
        "dim: 2\nrays:\n- 1 0\n- 0 1\n- -1 0\n- 0 -1\n- 1 1\n- -1 1\n- -1 -1\n"
        "- 1 -1\ncones:\n- 0 1\n- 1 2\n- 2 3\n- 3 4\n- 4 5\n- 5 6\n- 6 7\n- 0 7\n"
    )

    @pytest.mark.parametrize("doc,expected", [
        (DOUBLE_COVER_DOC, (
            "report: fan-validate\nseed: 0\ndim: 2\nray-count: 8\ncone-count: 8\n"
            "valid: false\nviolations:\n"
            "- cones 0 and 3 do not meet in a common face\n"
            "- cones 0 and 4 do not meet in a common face\n"
            "- cones 1 and 4 do not meet in a common face\n"
            "- cones 1 and 5 do not meet in a common face\n"
            "- cones 2 and 5 do not meet in a common face\n"
            "- cones 2 and 6 do not meet in a common face\n"
            "- cones 3 and 6 do not meet in a common face\n"
            "- cones 3 and 7 do not meet in a common face\n"
        )),
        (P2_OPEN_FAN_DOC, (
            "report: fan-validate\nseed: 0\ndim: 2\nray-count: 3\ncone-count: 2\n"
            "valid: true\nviolations: none\n"
        )),
        ("dim: 2\nrays:\ncones:\n", (
            "report: fan-validate\nseed: 0\ndim: 2\nray-count: 0\ncone-count: 0\n"
            "valid: true\nviolations: none\n"
        )),
        ("dim: 2\nrays:\n- 1 0\n- 0 1 0\ncones:\n- 0 1\n", (
            "report: fan-validate\nseed: 0\ndim: 2\nray-count: 2\ncone-count: 1\n"
            "valid: false\nviolations:\n- ray 1 has wrong dimension\n"
        )),
        (P2_FAN_DOC + "- 0 1\n", (
            "report: fan-validate\nseed: 0\ndim: 2\nray-count: 3\ncone-count: 4\n"
            "valid: false\nviolations:\n- cone 3 repeats cone 0\n"
        )),
    ], ids=["double-cover", "not-complete", "no-cones", "wrong-length-ray",
            "repeated-cone"])
    def test_report_bytes(self, tmp_path, doc, expected):
        fan_file = tmp_path / "fan.txt"
        fan_file.write_text(doc)
        code, _, text = structured(["fan", "validate", str(fan_file)])
        assert code == 0
        assert text == expected

    def test_repeated_cone_is_not_desingularized(self, tmp_path):
        fan_file = tmp_path / "fan.txt"
        fan_file.write_text(P2_FAN_DOC + "- 0 1\n")
        code, _, text = structured(["fan", "desingularize", str(fan_file)])
        assert code == 1
        assert text == (
            "report: error\nerror: usage\ndetail: invalid fan: cone 3 repeats cone 0\n"
        )


class TestFourierMotzkinBudget:
    @pytest.mark.parametrize("subop,extra", [
        ("validate", []),
        ("h0", ["--values", "0,0,-1"]),
    ])
    def test_exceeded_budget_exits_2(self, tmp_path, monkeypatch, subop, extra):
        monkeypatch.setattr(lattice, "FM_ROW_BUDGET", 1)
        fan_file = tmp_path / "p2.txt"
        # The certificate accepts complete P^2 without FM, so validation
        # takes a fan that only the pairwise check can decide.
        fan_file.write_text(P2_OPEN_FAN_DOC if subop == "validate" else P2_FAN_DOC)
        code, doc, text = structured(["fan", subop, str(fan_file)] + extra)
        assert code == 2
        assert doc["error"] == "FourierMotzkinBudgetError"
        assert "FM_ROW_BUDGET = 1\n" in text

    def test_certified_fan_needs_no_budget(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lattice, "FM_ROW_BUDGET", 1)
        fan_file = tmp_path / "p2.txt"
        fan_file.write_text(P2_FAN_DOC)
        code, doc, _ = structured(["fan", "validate", str(fan_file)])
        assert code == 0
        assert doc["valid"] is True


class TestDesingularizationBudget:
    def test_exceeded_budget_exits_2(self, tmp_path, monkeypatch):
        # The n = 3 quotient fan needs 10 subdivisions.
        monkeypatch.setattr(fans, "DESINGULARIZATION_STEP_BUDGET", 1)
        _, big, _ = fans.cyclic_quotient_fans(3)
        fan_file = tmp_path / "quotient.txt"
        fan_file.write_text(
            "dim: 3\nrays:\n"
            + "".join("- " + " ".join(map(str, ray)) + "\n" for ray in big.rays)
            + "cones:\n"
            + "".join("- " + " ".join(map(str, cone)) + "\n" for cone in big.max_cones)
        )
        code, doc, text = structured(["fan", "desingularize", str(fan_file)])
        assert code == 2
        assert doc["error"] == "DesingularizationBudgetError"
        assert "DESINGULARIZATION_STEP_BUDGET = 1\n" in text

    def test_large_box_exits_2_before_listing_it(self, tmp_path):
        # The cone's box holds 99,999 points; listing and scoring them ran
        # for seconds before the step budget could stop it.
        fan_file = tmp_path / "wide.txt"
        fan_file.write_text("dim: 2\nrays:\n- 1 0\n- 1 100000\ncones:\n- 0 1\n")
        start = time.perf_counter()
        code, doc, text = structured(["fan", "desingularize", str(fan_file)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert doc["error"] == "DesingularizationBudgetError"
        assert text.endswith(
            "detail: desingularization target (0, 1) has multiplicity 100000, "
            "over the budget BOX_POINT_BUDGET = 10000\n"
        )

    def test_box_budget_bounds_the_multiplicity(self, tmp_path, monkeypatch):
        # P(1, 1, 2) has one cone of multiplicity 2.
        fan_file = tmp_path / "weighted.txt"
        fan_file.write_text(
            "dim: 2\nrays:\n- 1 0\n- 0 1\n- -1 -2\ncones:\n- 0 1\n- 1 2\n- 0 2\n"
        )
        monkeypatch.setattr(fans, "BOX_POINT_BUDGET", 2)
        assert structured(["fan", "desingularize", str(fan_file)])[0] == 0
        monkeypatch.setattr(fans, "BOX_POINT_BUDGET", 1)
        code, doc, text = structured(["fan", "desingularize", str(fan_file)])
        assert (code, doc["error"]) == (2, "DesingularizationBudgetError")
        assert text.endswith("BOX_POINT_BUDGET = 1\n")


class TestFanPairBudget:
    @pytest.mark.parametrize("fan_doc,budget,valid", [
        # The certificate rejects a fan that does not cover the plane, so
        # validation reaches the pairwise check.
        (THREE_QUADRANTS_DOC, 3, True),
        # The certificate accepts complete P^2 before any pair is counted.
        (P2_FAN_DOC, 1, True),
    ], ids=["at-the-budget", "certified"])
    def test_allowed(self, tmp_path, monkeypatch, fan_doc, budget, valid):
        monkeypatch.setattr(fans, "FAN_PAIR_BUDGET", budget)
        fan_file = tmp_path / "fan.txt"
        fan_file.write_text(fan_doc)
        code, doc, _ = structured(["fan", "validate", str(fan_file)])
        assert (code, doc["valid"]) == (0, valid)

    def test_exceeded_budget_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fans, "FAN_PAIR_BUDGET", 1)
        fan_file = tmp_path / "fan.txt"
        fan_file.write_text(THREE_QUADRANTS_DOC)
        code, doc, text = structured(["fan", "validate", str(fan_file)])
        assert (code, doc["error"]) == (2, "FanPairBudgetError")
        assert text.endswith("detail: pairwise fan validation needs 3 cone pairs, "
                             "over the budget FAN_PAIR_BUDGET = 1\n")


class TestLatticePointBudget:
    def test_exceeded_budget_exits_2(self, tmp_path, monkeypatch):
        # O(1) on P^2 has 3 sections.
        monkeypatch.setattr(divisors, "LATTICE_POINT_BUDGET", 1)
        fan_file = tmp_path / "p2.txt"
        fan_file.write_text(P2_FAN_DOC)
        code, doc, text = structured(["fan", "h0", str(fan_file), "--values", "0,0,-1"])
        assert (code, doc["error"]) == (2, "LatticePointBudgetError")
        # The first row u_0 = 0 already holds 2 points.
        assert text.endswith("detail: lattice-point enumeration reached 2 points, "
                             "over the budget LATTICE_POINT_BUDGET = 1\n")

    def test_count_at_the_budget_is_allowed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(divisors, "LATTICE_POINT_BUDGET", 3)
        fan_file = tmp_path / "p2.txt"
        fan_file.write_text(P2_FAN_DOC)
        code, doc, _ = structured(["fan", "h0", str(fan_file), "--values", "0,0,-1"])
        assert (code, doc["h0"]) == (0, 3)

    def test_scan_budget_counts_every_range(self, tmp_path, monkeypatch):
        # O(1) on P^2 scans u_0 in 0..1, then u_1 in 0..1 and 0..0: 5 values.
        fan_file = tmp_path / "p2.txt"
        fan_file.write_text(P2_FAN_DOC)
        argv = ["fan", "h0", str(fan_file), "--values", "0,0,-1"]
        monkeypatch.setattr(divisors, "LATTICE_SCAN_BUDGET", 5)
        code, doc, _ = structured(argv)
        assert (code, doc["h0"]) == (0, 3)
        monkeypatch.setattr(divisors, "LATTICE_SCAN_BUDGET", 4)
        code, doc, text = structured(argv)
        assert (code, doc["error"]) == (2, "LatticePointBudgetError")
        assert text.endswith("detail: lattice-point enumeration scanned 5 values, "
                             "over the budget LATTICE_SCAN_BUDGET = 4\n")

    def test_sparse_scan_exits_2_before_walking_it(self, tmp_path):
        # A valid fan whose sections polyhedron holds 3 points but spans
        # N + 2 values of u_0; at N = 10^6 the scan ran for seconds.
        n = 10**6
        fan_file = tmp_path / "thin.txt"
        fan_file.write_text(
            f"dim: 2\nrays:\n- -1 {n + 1}\n- 1 -{n}\n- 0 -1\ncones:\n- 0 1\n- 1 2\n- 0 2\n"
        )
        start = time.perf_counter()
        code, doc, text = structured(["fan", "h0", str(fan_file), "--values=0,0,-1"])
        assert time.perf_counter() - start < 1.0
        assert (code, doc["error"]) == (2, "LatticePointBudgetError")
        assert text.endswith("detail: lattice-point enumeration scanned 1000002 values, "
                             "over the budget LATTICE_SCAN_BUDGET = 1000000\n")


class TestCubicResampleBudget:
    def test_bound_zero_exhausts_the_budget(self):
        # At bound 0 every sample is the zero form, singular at the point.
        assert run(["cubic", "--bound", "0", "--format", "structured"]) == (2, (
            "report: error\nseed: 0\nerror: RetriesExhaustedError\n"
            "detail: no generic sample found for seed 0 within the budget "
            "CUBIC_RESAMPLE_BUDGET = 40 attempts\n"
        ))

    def test_budget_counts_attempts(self, monkeypatch):
        # Seed 0 at bound 1 finds its generic sample at attempt 1.
        code, doc, _ = structured(["cubic", "--bound", "1"])
        assert (code, doc["attempt"]) == (0, 1)
        monkeypatch.setattr(cubic, "CUBIC_RESAMPLE_BUDGET", 1)
        code, doc, text = structured(["cubic", "--bound", "1"])
        assert (code, doc["error"]) == (2, "RetriesExhaustedError")
        assert text.endswith("CUBIC_RESAMPLE_BUDGET = 1 attempts\n")


class TestKernelStore:
    @pytest.fixture(scope="class")
    def refinement_file(self, tmp_path_factory):
        smooth = fans.desingularize(fans.cyclic_quotient_fans(8)[1])
        assert len(smooth.max_cones) == 2700
        path = tmp_path_factory.mktemp("refined") / "refined8.txt"
        path.write_text(render([
            ("dim", smooth.dim), ("rays", list(smooth.rays)), ("cones", list(smooth.max_cones)),
        ]))
        return path, len(smooth.rays)

    @pytest.mark.parametrize("subop", ["desingularize", "cartier"])
    def test_one_inverse_per_cone(self, refinement_file, inverse_calls, subop):
        # Validation, desingularization, the smoothness check and the
        # Cartier certificate all read one kernel per cone from the fan.
        # Validation reads the cones in file order, and all but 69 of them
        # find a stored facet neighbour and take its kernel by one exchange.
        path, ray_count = refinement_file
        extra = ["--values", ",".join(["0"] * ray_count)] if subop == "cartier" else []
        code, doc, _ = structured(["fan", subop, str(path)] + extra)
        assert code == 0
        assert doc.get("smooth", doc.get("cartier")) is True
        assert len(inverse_calls) == 69

    def test_appendix_inverts_one_cone_per_fan(self, inverse_calls):
        # 13 cones in each of the two fans at n = 12, every two of them
        # facet neighbours: one inversion per fan, 12 exchanges each.
        code, _, _ = structured(["appendix", "--n", "12"])
        assert code == 0
        assert len(inverse_calls) == 2

    def test_toric_morphism_maps_each_source_ray_once(self, monkeypatch):
        sub, big, inclusion = fans.cyclic_quotient_fans(6)
        calls = []

        def counting(a, v):
            calls.append((a, v))
            return lattice.mat_vec(a, v)

        monkeypatch.setattr(fans, "mat_vec", counting)
        assert fans.is_toric_morphism(inclusion, sub, big)
        assert sorted(v for a, v in calls if a is inclusion) == sorted(sub.rays)


class TestMainAndOutput:
    def test_main_writes_stdout(self, capsys):
        assert main(["bundle", "elm", "--type", "0,2", "--format", "structured"]) == 0
        captured = capsys.readouterr()
        assert "result: 0,1" in captured.out

    def test_usage_errors_go_to_stderr(self, capsys):
        assert main(["appendix", "--n", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main([
            "bundle", "self-int", "--type", "0,1",
            "--format", "structured", "--out", str(target),
        ]) == 0
        assert capsys.readouterr().out == ""
        assert "self-intersections: -1 1" in target.read_text()

    def test_human_format_banner(self):
        code, text = run(["bundle", "elm", "--type", "0,2"])
        assert code == 0
        assert text.startswith("# quasilines bundle")
