"""Exit codes and reports of failing runs.

The class of an error decides the exit code: a ``UsageError`` exits 1, any
other ``QuasilinesError`` 2, and any other exception 3.  The golden corpus
pins the exit code and the exact report bytes of failing argvs, each run in
a directory holding ``FILES``.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasilines
from quasilines import cli, lattice
from quasilines.cli import main, run
from quasilines.errors import QuasilinesError
from quasilines.report import ParseError, parse

P2 = "dim: 2\nrays:\n- 1 0\n- 0 1\n- -1 -1\ncones:\n- 0 1\n- 1 2\n- 0 2\n"

FILES = {
    "p2.txt": P2,
    "open.txt": "dim: 2\nrays:\n- 1 0\n- 0 1\n- -1 -1\ncones:\n- 0 1\n- 1 2\n",
    "half.txt": "dim: 2\nrays:\n- 1 0\n- 0 1\ncones:\n- 0 1\n",
    "repeated.txt": P2 + "- 0 1\n",
    "novalues.txt": "fan: p2.txt\n",
    "noref.txt": "values: 0 0 -1\n",
    "badref.txt": "fan: missing.txt\nvalues: 0 0 -1\n",
    "shortvalues.txt": "fan: p2.txt\nvalues: 0 -1\n",
    "binary.bin": b"\xff\xfe\x00rays",
    "nocolon.txt": "dim 2\n",
    "orphan.txt": "- 1 0\n",
    "dupkey.txt": "dim: 2\ndim: 3\n",
    "emptykey.txt": ": 3\n",
    "nodim.txt": "rays:\n- 1 0\ncones:\n- 0\n",
    "nocones.txt": "dim: 1\nrays:\n- 1\n",
    "zerodim.txt": "dim: 0\nrays:\ncones:\n",
    "fracdim.txt": "dim: 3/2\nrays:\ncones:\n",
    "contradiction.txt": "e0: 2\ne: 1\n",
    "flagcontradiction.txt": "g3: false\ne: 1\n",
    "mystery.txt": "mystery: 3\n",
    "badflag.txt": "rational: 1\n",
    "badint.txt": "e: yes\n",
    "zeroint.txt": "e: 0\n",
    "boolint.txt": "e: true\n",
    # One cone of multiplicity 100000, over BOX_POINT_BUDGET.
    "widebox.txt": "dim: 2\nrays:\n- 1 0\n- 1 100000\ncones:\n- 0 1\n",
    # Three sections, but u_0 spans 1,000,002 values, over LATTICE_SCAN_BUDGET.
    "thin.txt": ("dim: 2\nrays:\n- -1 1000001\n- 1 -1000000\n- 0 -1\n"
                 "cones:\n- 0 1\n- 1 2\n- 0 2\n"),
    # A zero ray, a repeated ray, and four cones that each break a cone rule.
    "broken.txt": "dim: 2\nrays:\n- 1 0\n- 0 0\n- 1 0\ncones:\n- 0 1\n- 0 0\n- 0 1 2\n- 0 1\n",
    "sub": None,  # a directory
}


def _write_files(root, files):
    for name, content in files.items():
        path = root / name
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    _write_files(tmp_path, FILES)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _usage(detail):
    return f"report: error\nerror: usage\ndetail: {detail}\n"


# (id, argv, FM_ROW_BUDGET or 0 for the default, exit code, report bytes)
GOLDEN = [
    ("no-command", "", 0, 1,
     _usage("the following arguments are required: command")),
    ("unknown-command", "frobnicate", 0, 1,
     _usage("argument command: invalid choice: 'frobnicate' (choose from "
            "'appendix', 'lemma-a2', 'bundle', 'cubic', 'models', 'fan')")),
    ("unknown-option", "appendix --n 2 --bogus", 0, 1,
     _usage("unrecognized arguments: --bogus")),
    ("bad-seed", "cubic --seed x", 0, 1,
     _usage("argument --seed: invalid int value: 'x'")),
    ("appendix-missing-n", "appendix", 0, 1,
     _usage("the following arguments are required: --n")),
    ("appendix-n-not-int", "appendix --n two", 0, 1,
     _usage("argument --n: invalid int value: 'two'")),
    ("appendix-n-1", "appendix --n 1", 0, 1,
     _usage("--n must be between 2 and 12")),
    ("appendix-n-13", "appendix --n 13 --format structured", 0, 1,
     _usage("--n must be between 2 and 12")),
    ("lemma-n-13", "lemma-a2 --n 13", 0, 1,
     _usage("--n must be between 2 and 12")),
    ("lemma-n-1", "lemma-a2 --n 1 --format structured", 0, 1,
     _usage("--n must be between 2 and 12")),
    ("lemma-bad-samples", "lemma-a2 --n 2 --samples 1.5", 0, 1,
     _usage("argument --samples: invalid int value: '1.5'")),
    ("lemma-negative-samples", "lemma-a2 --n 2 --samples -5", 0, 1,
     _usage("the sample count must be non-negative")),
    ("bundle-unknown-op", "bundle flip --type 1,2", 0, 1,
     _usage("argument subop: invalid choice: 'flip' (choose from 'elm', 'plan', "
            "'self-int', 'recover', 'cor17', 'thm41', 'thm16', 'point')")),
    ("elm-missing-type", "bundle elm", 0, 1,
     _usage("--type is required for this operation")),
    ("elm-rank-one", "bundle elm --type 3", 0, 1,
     _usage("an elementary transform needs rank at least 2")),
    ("elm-bad-int", "bundle elm --type 2,x", 0, 1,
     _usage("--type: position 2: invalid integer 'x'")),
    ("elm-empty-type", "bundle elm --type ''", 0, 1,
     _usage("--type: position 1: invalid integer ''")),
    ("elm-fraction-type", "bundle elm --type 1,3/2", 0, 1,
     _usage("--type: position 2: invalid integer '3/2'")),
    ("plan-not-ample", "bundle plan --type 0,2", 0, 2,
     ("# quasilines bundle\nreport: error\nseed: 0\nerror: NotAmpleError\n"
      "detail: every exponent must be at least 1\n")),
    ("plan-budget", "bundle plan --type 1000000000", 0, 2,
     ("# quasilines bundle\nreport: error\nseed: 0\nerror: PlanBudgetError\n"
      "detail: the quasi-line plan needs 999999999 codimension-2 blow-ups, "
      "over the budget PLAN_STEP_BUDGET = 10000\n")),
    ("plan-not-ample-structured", "bundle plan --type 0,2 --format structured --seed 5", 0, 2,
     ("report: error\nseed: 5\nerror: NotAmpleError\n"
      "detail: every exponent must be at least 1\n")),
    ("recover-not-divisible", "bundle recover --targets 1,2 --anchor 0", 0, 2,
     ("# quasilines bundle\nreport: error\nseed: 0\n"
      "error: InvalidSplittingError\n"
      "detail: self-intersections must sum to zero\n")),
    ("recover-one-target", "bundle recover --targets 0 --anchor 0", 0, 2,
     ("# quasilines bundle\nreport: error\nseed: 0\n"
      "error: InvalidSplittingError\n"
      "detail: at least two targets are required\n")),
    ("recover-missing-anchor", "bundle recover --targets=-1,1", 0, 1,
     _usage("--anchor is required for this operation")),
    ("cor17-missing-dimd", "bundle cor17 --type 2,2 --d 2", 0, 1,
     _usage("--dimD is required for this operation")),
    ("cor17-wrong-rank", "bundle cor17 --type 2,2 --d 2 --dimD 4 --n 5", 0, 1,
     _usage("normal bundle rank must be n - 1")),
    ("cor17-n-1", "bundle cor17 --type 2 --d 1 --dimD 2 --n 1", 0, 1,
     _usage("ambient dimension must be at least 2")),
    ("thm41-missing-quasiline", "bundle thm41 --d 1 --dimD 3 --n 3", 0, 1,
     _usage("--quasiline is required for this operation")),
    ("thm41-bad-quasiline", "bundle thm41 --d 1 --dimD 3 --n 3 --quasiline maybe", 0, 1,
     _usage("argument --quasiline: invalid choice: 'maybe' (choose from 'true', "
            "'false')")),
    ("thm16-missing-d", "bundle thm16 --type 2,2", 0, 1,
     _usage("--d is required for this operation")),
    ("cubic-reducible", "cubic --demo reducible", 0, 2,
     ("# quasilines cubic\nreport: error\nseed: 0\nerror: DegenerateError\n"
      "detail: a restricted form vanishes identically\n")),
    ("cubic-reducible-structured", "cubic --demo reducible --format structured --seed 3", 0, 2,
     ("report: error\nseed: 3\nerror: DegenerateError\n"
      "detail: a restricted form vanishes identically\n")),
    ("cubic-bad-bound", "cubic --bound nine", 0, 1,
     _usage("argument --bound: invalid int value: 'nine'")),
    ("models-nothing", "models", 0, 1,
     _usage("provide a builtin record name or --file")),
    ("models-unknown-builtin", "models k3-surface", 0, 1,
     _usage("unknown builtin record 'k3-surface'; choose from cotangent-bundle, "
            "cubic-conic, pn-line, toric-quotient")),
    ("models-quotient-n-1", "models toric-quotient --n 1", 0, 1,
     _usage("the quotient family needs n >= 2")),
    ("models-cotangent-n-1", "models cotangent-bundle --n 1 --format structured", 0, 1,
     _usage("the cotangent family needs r >= 2")),
    ("models-contradiction", "models --file contradiction.txt", 0, 2,
     ("# quasilines models\nreport: models\nseed: 0\nrecord: contradiction\n"
      "input-fields:\n- e = 1\n- e0 = 2\nfirings:\n- R2 [e0 e] -> contradiction\n"
      "derived-fields: none\nconsistent: false\ncontradiction-rule: R2\n"
      "contradiction: R2: e0 = 2 exceeds e = 1\n")),
    ("models-contradiction-structured", "models --file contradiction.txt --format structured --seed 4", 0, 2,
     ("report: models\nseed: 4\nrecord: contradiction\ninput-fields:\n- e = 1\n"
      "- e0 = 2\nfirings:\n- R2 [e0 e] -> contradiction\nderived-fields: none\n"
      "consistent: false\ncontradiction-rule: R2\n"
      "contradiction: R2: e0 = 2 exceeds e = 1\n")),
    ("models-flag-contradiction", "models --file flagcontradiction.txt", 0, 2,
     ("# quasilines models\nreport: models\nseed: 0\nrecord: flagcontradiction\n"
      "input-fields:\n- e = 1\n- g3 = false\nfirings:\n- R2 [e] -> etilde = 1\n"
      "- R2 [e] -> e0 = 1\n- R1 [e etilde] -> b = 1\n- R4 [e] -> rational = true\n"
      "- R5 [e0] -> unirational = true\n- R6 [e] -> contradiction\n"
      "derived-fields:\n- b = 1\n- e0 = 1\n- etilde = 1\n- rational = true\n"
      "- unirational = true\nconsistent: false\ncontradiction-rule: R6\n"
      "contradiction: R6: g3 = false conflicts with derived g3 = true\n")),
    ("models-unknown-field", "models --file mystery.txt", 0, 1,
     _usage("unknown record field 'mystery'")),
    ("models-flag-not-bool", "models --file badflag.txt", 0, 1,
     _usage("record field 'rational' must be true or false")),
    ("models-int-not-int", "models --file badint.txt", 0, 1,
     _usage("record field 'e' must be an integer")),
    ("models-int-zero", "models --file zeroint.txt", 0, 1,
     _usage("e must be a positive integer")),
    ("models-int-bool", "models --file boolint.txt", 0, 1,
     _usage("record field 'e' must be an integer")),
    ("models-missing-file", "models --file missing.txt", 0, 1,
     _usage("[Errno 2] No such file or directory: 'missing.txt'")),
    ("models-binary-file", "models --file binary.bin", 0, 1,
     _usage("'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")),
    ("models-ill-formed", "models --file nocolon.txt", 0, 1,
     _usage("line 1: expected 'key: value', got 'dim 2'")),
    ("fan-unknown-op", "fan flip p2.txt", 0, 1,
     _usage("argument subop: invalid choice: 'flip' (choose from 'validate', "
            "'desingularize', 'cartier', 'h0')")),
    ("fan-no-file", "fan validate", 0, 1,
     _usage("a fan file is required")),
    ("fan-missing-file", "fan validate missing.txt", 0, 1,
     _usage("[Errno 2] No such file or directory: 'missing.txt'")),
    ("fan-binary-file", "fan validate binary.bin", 0, 1,
     _usage("'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")),
    ("fan-ill-formed", "fan validate nocolon.txt", 0, 1,
     _usage("line 1: expected 'key: value', got 'dim 2'")),
    ("fan-orphan-item", "fan validate orphan.txt", 0, 1,
     _usage("line 1: list item outside any list")),
    ("fan-duplicate-key", "fan validate dupkey.txt", 0, 1,
     _usage("line 2: duplicate key 'dim'")),
    ("fan-empty-key", "fan validate emptykey.txt", 0, 1,
     _usage("line 1: empty key")),
    ("fan-no-dim", "fan validate nodim.txt", 0, 1,
     _usage("fan document is missing the key 'dim'")),
    ("fan-no-cones", "fan desingularize nocones.txt", 0, 1,
     _usage("fan document is missing the key 'cones'")),
    ("fan-zero-dim", "fan validate zerodim.txt", 0, 1,
     _usage("fan dim must be a positive integer")),
    ("fan-fraction-dim", "fan validate fracdim.txt", 0, 1,
     _usage("fan dim must be a positive integer")),
    ("validate-violations", "fan validate broken.txt --format structured", 0, 0,
     ("report: fan-validate\nseed: 0\ndim: 2\nray-count: 3\ncone-count: 4\n"
      "valid: false\nviolations:\n- ray 1 is zero\n- rays 0 and 2 coincide\n"
      "- cone 0 is not simplicial\n- cone 1 repeats a ray index\n"
      "- cone 2 has more generators than the dimension\n- cone 3 repeats cone 0\n")),
    ("desingularize-box-budget", "fan desingularize widebox.txt", 0, 2,
     ("# quasilines fan\nreport: error\nseed: 0\n"
      "error: DesingularizationBudgetError\n"
      "detail: desingularization target (0, 1) has multiplicity 100000, "
      "over the budget BOX_POINT_BUDGET = 10000\n")),
    ("fan-repeated-cone", "fan desingularize repeated.txt", 0, 1,
     _usage("invalid fan: cone 3 repeats cone 0")),
    ("cartier-no-values", "fan cartier p2.txt", 0, 1,
     _usage("provide --values or --divisor")),
    ("cartier-short-values", "fan cartier p2.txt --values 0,0", 0, 1,
     _usage("2 values for 3 rays")),
    ("cartier-bad-values", "fan cartier p2.txt --values 0,x,0", 0, 1,
     _usage("--values: position 2: invalid integer 'x'")),
    ("h0-unbounded", "fan h0 half.txt --values 0,0", 0, 2,
     ("# quasilines fan\nreport: error\nseed: 0\n"
      "error: UnboundedPolyhedronError\n"
      "detail: recession direction exists along axis 0\n")),
    ("h0-unbounded-structured", "fan h0 half.txt --values 0,0 --format structured --seed 9", 0, 2,
     ("report: error\nseed: 9\nerror: UnboundedPolyhedronError\n"
      "detail: recession direction exists along axis 0\n")),
    ("h0-scan-budget", "fan h0 thin.txt --values=0,0,-1", 0, 2,
     ("# quasilines fan\nreport: error\nseed: 0\nerror: LatticePointBudgetError\n"
      "detail: lattice-point enumeration scanned 1000002 values, "
      "over the budget LATTICE_SCAN_BUDGET = 1000000\n")),
    ("h0-divisor-no-ref", "fan h0 --divisor noref.txt", 0, 1,
     _usage("divisor file does not reference a fan file")),
    ("h0-divisor-no-values", "fan h0 --divisor novalues.txt", 0, 1,
     _usage("divisor file has no values key")),
    ("h0-divisor-missing-fan", "fan h0 --divisor badref.txt", 0, 1,
     _usage("[Errno 2] No such file or directory: 'missing.txt'")),
    ("h0-divisor-short-values", "fan h0 --divisor shortvalues.txt", 0, 1,
     _usage("2 values for 3 rays")),
    ("h0-divisor-missing", "fan h0 --divisor missing.txt", 0, 1,
     _usage("[Errno 2] No such file or directory: 'missing.txt'")),
    ("h0-divisor-missing-with-fan", "fan cartier p2.txt --divisor missing.txt", 0, 1,
     _usage("[Errno 2] No such file or directory: 'missing.txt'")),
    ("h0-fm-budget", "fan h0 p2.txt --values 0,0,-1", 1, 2,
     ("# quasilines fan\nreport: error\nseed: 0\n"
      "error: FourierMotzkinBudgetError\n"
      "detail: Fourier-Motzkin elimination reached 2 rows, over the budget "
      "FM_ROW_BUDGET = 1\n")),
    ("validate-fm-budget", "fan validate open.txt --format structured", 1, 2,
     ("report: error\nseed: 0\nerror: FourierMotzkinBudgetError\n"
      "detail: Fourier-Motzkin elimination reached 2 rows, over the budget "
      "FM_ROW_BUDGET = 1\n")),
]


@pytest.mark.parametrize("argv,budget,code,expected", [case[1:] for case in GOLDEN],
                         ids=[case[0] for case in GOLDEN])
def test_golden_failure_report(workdir, monkeypatch, argv, budget, code, expected):
    if budget:
        monkeypatch.setattr(lattice, "FM_ROW_BUDGET", budget)
    assert run(shlex.split(argv)) == (code, expected)


class TestNonIntegerScalars:
    """Fractions, bools and strings in documents are rejected, not truncated."""

    @pytest.mark.parametrize("doc,argv,detail", [
        # Truncated to -1, this reported h0: 3.
        ("fan: p2.txt\nvalues: 0 0 -3/2\n", "fan h0 --divisor doc.txt",
         "values: invalid integer '-3/2'"),
        # Truncated to 0 0, this reported ray 0 as zero.
        ("dim: 2\nrays:\n- 1/2 0\n- 0 1\ncones:\n- 0 1\n", "fan validate doc.txt",
         "rays: invalid integer '1/2'"),
        # Truncated to 1 0, this reported cone 1 as a repeat of cone 0.
        ("dim: 2\nrays:\n- 1 0\n- 0 1\ncones:\n- 0 1\n- 1 2/3\n", "fan validate doc.txt",
         "cones: invalid integer '2/3'"),
        # Read as 1, this gave a Cartier report for the values 0 1 -1.
        ("fan: p2.txt\nvalues: 0 true -1\n", "fan cartier --divisor doc.txt",
         "values: invalid integer 'true'"),
        ("dim: 2\nrays:\n- one 0\ncones:\n- 0\n", "fan validate doc.txt",
         "rays: invalid integer 'one'"),
        ("dim: true\nrays:\n- 1\ncones:\n- 0\n", "fan validate doc.txt",
         "fan dim must be a positive integer"),
    ], ids=["fraction-value", "fraction-ray", "fraction-cone", "bool-value",
            "string-ray", "bool-dim"])
    def test_rejected_with_the_value(self, workdir, doc, argv, detail):
        (workdir / "doc.txt").write_text(doc)
        assert run(shlex.split(argv)) == (1, _usage(detail))


class TestRecordName:
    """The record name is text; a list, a number or a flag is rejected."""

    @pytest.mark.parametrize("doc", [
        # Printed as a "record:" list block before.
        "name:\n- a\n- b\ne: 6\n",
        # Printed as an empty "record:" block before.
        "name:\ne: 6\n",
        # Printed as "record: 1/2" before.
        "name: 2/4\ne: 6\n",
        # Printed as "record: 42" before.
        "name: 042\ne: 6\n",
        "name: true\ne: 6\n",
        "name: x 3\ne: 6\n",
    ], ids=["list", "empty", "fraction", "leading-zero", "bool", "mixed-words"])
    def test_non_text_name_rejected(self, workdir, doc):
        (workdir / "doc.txt").write_text(doc)
        assert run(["models", "--file", "doc.txt"]) == (
            1, _usage("record field 'name' must be text")
        )

    @pytest.mark.parametrize("doc,name", [
        ("name: my record\ne: 6\n", "my record"),
        ("name: cubic\ne: 6\n", "cubic"),
        ("e: 6\n", "doc"),
    ], ids=["words", "word", "file-stem"])
    def test_text_name_printed(self, workdir, doc, name):
        (workdir / "doc.txt").write_text(doc)
        code, out = run(["models", "--file", "doc.txt", "--format", "structured"])
        assert code == 0
        assert f"\nrecord: {name}\n" in out


class TestFileErrors:
    @pytest.mark.parametrize("argv,detail", [
        ("models --file sub", "[Errno 21] Is a directory: 'sub'"),
        ("fan validate sub", "[Errno 21] Is a directory: 'sub'"),
        ("fan h0 --divisor sub", "[Errno 21] Is a directory: 'sub'"),
        ("bundle elm --type 0,2 --out sub", "[Errno 21] Is a directory: 'sub'"),
        ("bundle elm --type 0,2 --out missing/report.txt",
         "[Errno 2] No such file or directory: 'missing/report.txt'"),
        # The write fails after a mathematical error was reported.
        ("cubic --demo reducible --out sub", "[Errno 21] Is a directory: 'sub'"),
    ], ids=["models-file-dir", "fan-file-dir", "divisor-dir", "out-dir",
            "out-missing-dir", "out-dir-after-math-error"])
    def test_usage_report_on_stderr(self, workdir, capsys, argv, detail):
        assert main(shlex.split(argv)) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", _usage(detail))

    def test_math_error_report_goes_to_out(self, workdir):
        assert run(["cubic", "--demo", "reducible", "--out", "r.txt"]) == (2, "")
        assert (workdir / "r.txt").read_text() == (
            "# quasilines cubic\nreport: error\nseed: 0\nerror: DegenerateError\n"
            "detail: a restricted form vanishes identically\n"
        )


class TestFormerlyHiddenDefects:
    """Inputs that reached a bare ValueError or TypeError in the program."""

    @pytest.mark.parametrize("argv", ["lemma-a2 --n 2 --bound=-1", "cubic --bound=-1"])
    def test_negative_coefficient_bound(self, argv):
        # Reported as "empty range for randrange() (1, 0, -1)" before.
        assert run(shlex.split(argv)) == (
            1, _usage("the coefficient bound must be non-negative")
        )

    @pytest.mark.parametrize("argv", [
        "lemma-a2 --n 2 --samples -5",
        "lemma-a2 --n 3 --samples=-1 --format structured",
    ])
    def test_negative_sample_count(self, capsys, argv):
        # Reported "samples-requested: -5" and "all-ok: true", exit 0, before.
        assert main(shlex.split(argv)) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", _usage("the sample count must be non-negative")
        )

    def test_builtin_without_parameter_rejects_n(self):
        assert run(["models", "cubic-conic", "--n", "3"]) == (
            1, _usage("--n does not apply to the builtin record 'cubic-conic'")
        )

    def test_fan_without_cones_is_already_smooth(self, workdir):
        # Reported as "max() arg is an empty sequence" before.
        (workdir / "empty.txt").write_text("dim: 2\nrays:\ncones:\n")
        assert run(["fan", "desingularize", "empty.txt", "--format", "structured"]) == (
            0, "report: fan-desingularize\nseed: 0\ndim: 2\nrays:\ncones:\n"
               "smooth: true\nadded-rays: 0\n"
        )


# Every error class of the package, with its exit code and its mixin.
ERROR_CLASSES = [
    ("errors", "UsageError", 1, ValueError),
    ("report", "ParseError", 1, ValueError),
    ("fans", "BadDimensionError", 1, ValueError),
    ("fans", "NotMaximalError", 1, ValueError),
    ("cubic", "DimensionMismatchError", 1, ValueError),
    ("errors", "QuasilinesError", 2, None),
    ("lattice", "ZeroVectorError", 2, ValueError),
    ("lattice", "InfiniteIndexError", 2, ValueError),
    ("lattice", "NoSolutionError", 2, ValueError),
    ("lattice", "FourierMotzkinBudgetError", 2, None),
    ("fans", "OutsideSupportError", 2, ValueError),
    ("fans", "DesingularizationBudgetError", 2, None),
    ("fans", "FanPairBudgetError", 2, None),
    ("divisors", "NotMorphismError", 2, ValueError),
    ("divisors", "NotCartierError", 2, ValueError),
    ("divisors", "UnboundedPolyhedronError", 2, None),
    ("divisors", "LatticePointBudgetError", 2, None),
    ("bundles", "InvalidSplittingError", 2, ValueError),
    ("bundles", "NotAmpleError", 2, ValueError),
    ("bundles", "InapplicableReductionError", 2, ValueError),
    ("bundles", "PlanBudgetError", 2, None),
    ("cubic", "ZeroPolynomialError", 2, ValueError),
    ("cubic", "NotOnHypersurfaceError", 2, ValueError),
    ("cubic", "SingularPointError", 2, ValueError),
    ("cubic", "DegenerateError", 2, ValueError),
    ("cubic", "RetriesExhaustedError", 2, RuntimeError),
]


def _package_modules():
    return [importlib.import_module(f"quasilines.{info.name}")
            for info in pkgutil.iter_modules(quasilines.__path__)]


def _exception_classes(module):
    return [obj for _, obj in inspect.getmembers(module, inspect.isclass)
            if issubclass(obj, BaseException) and obj.__module__ == module.__name__]


class TestErrorHierarchy:
    def test_every_package_exception_is_a_quasilines_error(self):
        found = [cls for module in _package_modules() for cls in _exception_classes(module)]
        assert found
        for cls in found:
            assert issubclass(cls, QuasilinesError), cls.__qualname__
        assert sorted(cls.__name__ for cls in found) == sorted(row[1] for row in ERROR_CLASSES)

    def test_no_module_lists_error_classes(self):
        # The class decides the exit code; a hand-kept tuple of classes
        # would be a second place that must agree with it.
        for module in _package_modules():
            for name, value in vars(module).items():
                if isinstance(value, (tuple, list, set, frozenset, dict)):
                    assert not any(
                        isinstance(item, type) and issubclass(item, BaseException)
                        for item in value
                    ), f"{module.__name__}.{name}"

    @pytest.mark.parametrize("module,name,code,mixin", ERROR_CLASSES,
                             ids=[row[1] for row in ERROR_CLASSES])
    def test_exit_code_of_class(self, monkeypatch, module, name, code, mixin):
        cls = getattr(importlib.import_module(f"quasilines.{module}"), name)
        if mixin is not None:
            assert issubclass(cls, mixin)
        error = cls(7, "boom") if cls is ParseError else cls("boom")

        def dispatch(args):
            raise error

        monkeypatch.setitem(cli._DISPATCH, "cubic", dispatch)
        expected = _usage(error) if code == 1 else (
            f"report: error\nseed: 5\nerror: {name}\ndetail: {error}\n"
        )
        assert run(["cubic", "--seed", "5", "--format", "structured"]) == (code, expected)


class TestInternalFailure:
    def test_unexpected_exception_exits_3(self, workdir, monkeypatch, capsys):
        def broken(fan):
            raise KeyError("cone")

        monkeypatch.setattr(cli, "validate_fan", broken)
        assert main(["fan", "validate", "p2.txt"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "report: error\nerror: internal\ndetail: KeyError: 'cone'\n"
        assert captured.err == ""

    def test_unrenderable_report_exits_3(self, monkeypatch):
        monkeypatch.setitem(cli._DISPATCH, "cubic", lambda args: ([("count", None)], 0))
        assert run(["cubic"]) == (
            3, "report: error\nerror: internal\ndetail: TypeError: cannot render None\n"
        )


# Scalars a document may hold that are not integers.
_WEIRD = st.sampled_from(["1/2", "-3/2", "2/2", "true", "false", "x", "1/0", ""])
_PATHS = ["doc.txt", "sub", "missing.txt", "binary.bin"]


@st.composite
def _document(draw, rows):
    """A document of integer rows, then corrupted: up to two tokens become
    non-integers and up to one key goes missing.  ``rows`` draws a dict
    from each key to its rows; a one-row value renders inline."""
    doc = {key: [[str(x) for x in row] for row in value]
           for key, value in draw(rows).items()}
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        key = draw(st.sampled_from(sorted(doc)))
        i, j = draw(st.integers(0, 5)), draw(st.integers(0, 3))
        if i < len(doc[key]) and j < len(doc[key][i]):
            doc[key][i][j] = draw(_WEIRD)
    doc.pop(draw(st.sampled_from([None] * 6 + sorted(doc))), None)
    return doc


def _render(doc):
    lines = []
    for key, rows in doc.items():
        if len(rows) == 1:
            lines.append(f"{key}: {' '.join(rows[0])}")
        else:
            lines += [f"{key}:"] + [f"- {' '.join(row)}" for row in rows]
    return "\n".join(lines) + "\n"


def _rows(width, low, high, count=st.integers(0, 5)):
    return count.flatmap(lambda n: st.lists(
        st.lists(st.integers(low, high), min_size=1, max_size=width), min_size=n, max_size=n))


# Valid fans: P^2, the quotient of P^2 by Z_3, a fan with a 2-dimensional
# cone in dimension 3, and a fan with no cones.
_FANS = [
    {"dim": [[2]], "rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [0, 2]]},
    {"dim": [[2]], "rays": [[3, -2], [0, 1], [-3, 1]], "cones": [[0, 1], [0, 2], [1, 2]]},
    {"dim": [[3]], "rays": [[1, 0, 0], [1, 2, 0], [0, 0, 1], [-1, -1, -1]],
     "cones": [[0, 1], [2, 3]]},
    {"dim": [[2]], "rays": [], "cones": []},
]
_FAN_DOC = _document(st.one_of(
    st.sampled_from(_FANS),
    st.integers(1, 3).flatmap(lambda dim: st.fixed_dictionaries({
        "dim": st.just([[dim]]),
        "rays": st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                         max_size=5),
        "cones": _rows(dim, 0, 4),
    })),
))
_DIVISOR_DOC = _document(st.fixed_dictionaries({
    "fan": st.sampled_from([[["fan.txt"]], [["fan.txt"]], [["missing.txt"]], [["sub"]]]),
    "values": st.one_of(
        st.lists(st.integers(-2, 2), min_size=0, max_size=5).map(lambda row: [row]),
        st.lists(st.lists(st.integers(-2, 2), min_size=1, max_size=1), max_size=5),
    ),
}))
_RECORD_DOC = st.dictionaries(
    st.sampled_from(["name", "dim", "e", "e0", "etilde", "b", "ex", "g3", "rational",
                     "provenance", "x"]),
    st.sampled_from(["1", "2", "3", "6", "0", "true", "false", "1/2", "y"]).map(lambda v: [[v]]),
)
_INT = st.integers(-2, 13).map(str)
_INTS = st.lists(st.integers(-2, 2).map(str), min_size=3, max_size=4)
_CSV = st.lists(st.one_of(st.integers(-2, 4).map(str), _WEIRD), min_size=1,
                max_size=4).map(",".join)


def _options(**values):
    """A few of the given options, each as one --name=value argument."""
    return st.fixed_dictionaries({}, optional=values).map(
        lambda chosen: [f"--{name}={value}" for name, value in chosen.items()]
    )


def _command(*words, **options):
    return st.tuples(*(st.sampled_from(w) if isinstance(w, list) else st.just([w])
                       for w in words), _options(**options)).map(
        lambda parts: [arg for part in parts
                       for arg in (part if isinstance(part, list) else [part])]
    )


_ARGV = st.one_of(
    _command("fan", ["validate", "desingularize", "cartier", "h0"],
             [["fan.txt"]] * 5 + [[]] + [[path] for path in _PATHS],
             values=st.one_of(_CSV, _INTS.map(",".join)), divisor=st.sampled_from(_PATHS)),
    _command("models", [[], ["pn-line"], ["cubic-conic"], ["toric-quotient"],
                        ["cotangent-bundle"], ["k3"]],
             n=_INT, file=st.sampled_from(["rec.txt", "rec.txt", *_PATHS])),
    _command("bundle", ["elm", "plan", "self-int", "recover", "cor17", "thm41", "thm16",
                        "point"],
             type=_CSV, targets=_CSV, anchor=_INT, d=_INT, dimD=_INT, n=_INT,
             quasiline=st.sampled_from(["true", "false", "maybe"])),
    _command("appendix", n=st.sampled_from(["1", "2", "3", "13", "x"])),
    _command("lemma-a2", n=st.sampled_from(["1", "2", "6", "x"]), samples=st.just("2"),
             bound=_INT),
    _command("cubic", seed=_INT, bound=st.sampled_from(["1", "9", "x"]),
             demo=st.sampled_from(["reducible", "other"])),
    st.lists(st.sampled_from(["fan", "models", "--n", "x", "--bogus", "-1", "--out", "-h",
                              "--help"]),
             max_size=4),
)
_COMMON = st.tuples(
    _options(format=st.sampled_from(["structured", "human"]), seed=_INT,
             out=st.sampled_from(["out.txt", "sub", "missing/out.txt"])),
    st.sampled_from([[]] * 8 + [["-h"], ["--help"]]),
).map(lambda parts: parts[0] + parts[1])


class TestNoTraceback:
    # Exit 3 marks a defect of the program, so no generated input may reach
    # it.  About a fifth of the argvs end in -h or --help, so 375 examples
    # keep about 300 that run a command.
    @settings(max_examples=375, deadline=None)
    @given(argv=_ARGV, common=_COMMON, fan=_FAN_DOC, divisor=_DIVISOR_DOC,
           record=_RECORD_DOC)
    def test_every_failure_has_an_exit_code(self, tmp_path_factory, argv, common,
                                            fan, divisor, record):
        root = tmp_path_factory.mktemp("run")
        _write_files(root, {"fan.txt": _render(fan), "doc.txt": _render(divisor),
                            "rec.txt": _render(record), "binary.bin": b"\xff\x00",
                            "sub": None})
        names = {"fan.txt", "rec.txt", "out.txt", "missing/out.txt", *_PATHS}
        argv = [str(root / arg) if arg in names else arg for arg in argv + common]
        argv = [f"{arg.partition('=')[0]}={root / arg.partition('=')[2]}"
                if arg.partition("=")[2] in names else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, out.getvalue())
        text = err.getvalue() if code == 1 else out.getvalue()
        assert (err.getvalue() == "") == (code != 1)
        if text.startswith("usage: quasilines"):
            assert code == 0  # help is text for people, not a report
        elif text:
            assert parse(text)["report"]
