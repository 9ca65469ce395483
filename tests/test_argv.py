"""The command line's argv scanner against the argparse parser it replaced.

``conftest.build_parser`` is the argparse parser the command line used
before; for every argv the scanner must give the same dests and values or
the same usage message.  Three deliberate changes are checked on their own:
-h/--help returns the usage text instead of exiting, a fan file that
follows the options is read as the fan file, and ``--flag=--`` gives the
text ``--``.
"""

import contextlib
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quasilines
from conftest import build_parser, fan_file_parser
from quasilines import argscan, cli
from quasilines.cli import help_text, main, parse_args, run
from quasilines.errors import UsageError

P2 = "dim: 2\nrays:\n- 1 0\n- 0 1\n- -1 -1\ncones:\n- 0 1\n- 1 2\n- 0 2\n"


def _command_of_usage(text):
    """The command a usage text is for, or None for the program's."""
    words = text.split("\n", 1)[0].split()
    return words[2] if words[2] in cli._COMMANDS else None


def oracle(parser, argv):
    """("ok", dests), ("usage", message) or ("help", command) from argparse."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "ok", vars(parser.parse_args(argv))
    except UsageError as exc:
        return "usage", str(exc)
    except SystemExit as exc:
        assert exc.code == 0
        return "help", _command_of_usage(out.getvalue())


def scanned(argv):
    """The same reading of ``argv`` from ``cli.parse_args``."""
    try:
        args = parse_args(argv)
    except UsageError as exc:
        return "usage", str(exc)
    if isinstance(args, str):
        return "help", _command_of_usage(args)
    return "ok", vars(args)


def _flags():
    flags = {"-h", "--help", *cli._COMMON}
    for _, _, options in cli._COMMANDS.values():
        flags.update(options)
    return sorted(flags)


FLAGS = _flags()
# Unique on some commands and ambiguous on others: --s is --seed on appendix
# but also --samples on lemma-a2, --d is exact on bundle, --f is --format or
# --file.
PREFIXES = ["--s", "--se", "--sa", "--f", "--fo", "--fi", "--o", "--b", "--t", "--ty",
            "--ta", "--a", "--d", "--di", "--dim", "--div", "--de", "--q", "--v", "--h",
            "--he", "--n"]
SUBOPS = sorted({choice for _, positionals, _ in cli._COMMANDS.values()
                 for _, choices, _ in positionals for choice in choices or ()})
VALUES = ["0", "3", "12", "-3", "-1,1", "1,2", "x", "structured", "human", "true",
          "reducible", "pn-line", "", "f.txt", "-2.5"]
TOKEN = st.one_of(
    st.sampled_from(list(cli._COMMANDS)),
    st.sampled_from(SUBOPS),
    st.sampled_from(FLAGS + PREFIXES),
    st.tuples(st.sampled_from(FLAGS + PREFIXES), st.sampled_from(VALUES)).map("=".join),
    st.sampled_from(VALUES),
    st.sampled_from(["--", "-", "-x", "--bogus", "-hh", "-hx", "-h=", "--=1", "a b"]),
)
ARGV = st.one_of(
    st.lists(TOKEN, max_size=8),
    st.tuples(st.lists(TOKEN, max_size=1), st.sampled_from(list(cli._COMMANDS)),
              st.lists(TOKEN, max_size=6)).map(lambda p: p[0] + [p[1]] + p[2]),
)


def _relocations(argv):
    """``argv`` with one string moved to just after a fan subop."""
    for s, word in enumerate(argv):
        if word in ("validate", "desingularize", "cartier", "h0"):
            for i in range(s + 2, len(argv)):
                yield argv[:s + 1] + [argv[i]] + argv[s + 1:i] + argv[i + 1:]


class TestAgainstArgparse:
    @settings(max_examples=600, deadline=None)
    @given(argv=ARGV)
    def test_same_reading_as_argparse(self, argv):
        got = scanned(argv)
        expected = oracle(build_parser(), argv)
        if got == expected:
            return
        # The one divergence: argparse took the optional fan file as absent
        # right after the subop and then rejected the file that followed.
        assert expected[0] == "usage"
        assert expected[1].startswith("unrecognized arguments: "), (argv, expected)
        assert "fan" in argv
        assert got == oracle(fan_file_parser(), argv), argv
        if "--" not in argv:
            assert any(oracle(build_parser(), moved) == got for moved in _relocations(argv))

    @pytest.mark.parametrize("argv,dests", [
        # --opt value and --opt=value; the last occurrence wins.
        ("cubic --seed 1 --seed=2 --bound=4", {"seed": 2, "bound": 4}),
        # A unique prefix names the flag.
        ("appendix --s 3 --n 2 --fo structured", {"seed": 3, "n": 2, "format": "structured"}),
        ("appendix --n=5 --s=4", {"seed": 4, "n": 5}),
        # --d is exact on bundle although --dimD starts with it.
        ("bundle cor17 --d 2 --di 4 --ty 2,2", {"d": 2, "dim_d": 4, "type_": "2,2"}),
        # A plain negative number is a value.
        ("bundle recover --anchor -3 --targets=-1,1", {"anchor": -3, "targets": "-1,1"}),
        ("lemma-a2 --n 2 --bound -1", {"bound": -1}),
        # -- ends the options.
        ("models -- pn-line", {"record": "pn-line"}),
        ("fan -- validate p2.txt", {"subop": "validate", "fanfile": "p2.txt"}),
        ("models --n 3 toric-quotient", {"record": "toric-quotient", "n": 3}),
    ])
    def test_pinned_readings(self, argv, dests):
        argv = shlex.split(argv)
        kind, got = scanned(argv)
        assert kind == "ok"
        assert {key: got[key] for key in dests} == dests
        assert oracle(build_parser(), argv) == (kind, got)

    @pytest.mark.parametrize("argv,message", [
        ("lemma-a2 --n 2 --s 3", "ambiguous option: --s could match --seed, --samples"),
        ("models --f x", "ambiguous option: --f could match --format, --file"),
        ("bundle recover --targets -1,1", "argument --targets: expected one argument"),
        ("cubic --seed", "argument --seed: expected one argument"),
        ("cubic --seed -- 3", "argument --seed: expected one argument"),
        ("-- cubic", "argument command: invalid choice: '--' (choose from 'appendix', "
                     "'lemma-a2', 'bundle', 'cubic', 'models', 'fan')"),
        ("cubic --demo=other", "argument --demo: invalid choice: 'other' (choose from "
                               "'reducible')"),
        ("cubic -hx", "argument -h/--help: ignored explicit argument 'x'"),
        ("cubic --help=x", "argument -h/--help: ignored explicit argument 'x'"),
        # Errors come in the order argparse finds them: an ambiguous flag
        # before any value, then values left to right, then missing
        # arguments, then strings nobody took.
        ("appendix --n x --bogus", "argument --n: invalid int value: 'x'"),
        ("lemma-a2 --n x --s 3", "ambiguous option: --s could match --seed, --samples"),
        ("appendix --bogus", "the following arguments are required: --n"),
        ("-x bundle", "the following arguments are required: subop"),
        ("-x appendix --n 2 y --bogus", "unrecognized arguments: -x y --bogus"),
        ("appendix --n 2 -1,1", "unrecognized arguments: -1,1"),
    ])
    def test_pinned_messages(self, argv, message):
        argv = shlex.split(argv)
        assert scanned(argv) == ("usage", message)
        assert oracle(build_parser(), argv) == ("usage", message)


class TestFanFileAfterOptions:
    """argparse read the optional fan file as absent right after the subop,
    so a file after the options exited 1 as an unrecognized argument."""

    @pytest.mark.parametrize("argv,moved", [
        ("fan h0 --values 0,0,-1 p2.txt", "fan h0 p2.txt --values 0,0,-1"),
        ("fan validate --format structured p2.txt", "fan validate p2.txt --format structured"),
        ("fan cartier --values=0,-1,0 p2.txt --seed 4", "fan cartier p2.txt --values=0,-1,0 --seed 4"),
    ])
    def test_same_report_as_file_first(self, tmp_path, monkeypatch, argv, moved):
        (tmp_path / "p2.txt").write_text(P2)
        monkeypatch.chdir(tmp_path)
        code, text = run(shlex.split(argv))
        assert code == 0
        assert (code, text) == run(shlex.split(moved))

    def test_second_stray_file_is_still_unrecognized(self):
        with pytest.raises(UsageError, match="^unrecognized arguments: b.txt$"):
            parse_args(["fan", "validate", "--seed", "1", "a.txt", "b.txt"])


class TestDashDashValue:
    """argparse dropped a --flag=-- value and stored an empty list, which
    crashed `appendix --n=--` with exit 3; the scanner reads the text --."""

    @pytest.mark.parametrize("argv,detail", [
        (["appendix", "--n=--"], "argument --n: invalid int value: '--'"),
        (["cubic", "--seed=--"], "argument --seed: invalid int value: '--'"),
        (["cubic", "--format=--"],
         "argument --format: invalid choice: '--' (choose from 'human', 'structured')"),
    ])
    def test_read_as_text(self, argv, detail):
        assert run(argv) == (1, f"report: error\nerror: usage\ndetail: {detail}\n")


class TestHelp:
    @pytest.mark.parametrize("argv,command", [
        (["-h"], None), (["--help"], None), (["--he", "cubic"], None),
        (["cubic", "-h"], "cubic"), (["bundle", "elm", "--type", "1,2", "--help"], "bundle"),
        (["fan", "-hh"], "fan"),
        # Help is taken before the missing --n is reported, as argparse did.
        (["appendix", "-h"], "appendix"),
    ])
    def test_run_returns_usage_with_exit_0(self, argv, command):
        assert run(argv) == (0, help_text(command))
        assert oracle(build_parser(), argv) == ("help", command)

    def test_usage_lists_the_table(self):
        top = help_text(None)
        assert top.startswith("usage: quasilines <command> [options]\n")
        assert all(f"\n  {name} " in top for name in cli._COMMANDS)
        for name, (summary, _, options) in cli._COMMANDS.items():
            text = help_text(name)
            assert text.startswith(f"usage: quasilines {name} ")
            assert summary in text
            assert all(f"\n  {flag} " in text for flag in [*cli._COMMON, *options])
        assert help_text("cubic") == (
            "usage: quasilines cubic [options]\n\n"
            "certified line count through a point of a cubic threefold\n\n"
            "options:\n"
            "  -h, --help                   show this help and exit\n"
            "  --seed INT                   default 0\n"
            "  --format {human,structured}  default human\n"
            "  --out STR\n"
            "  --bound INT                  default 9\n"
            "  --demo {reducible}\n"
        )
        assert help_text("fan").startswith(
            "usage: quasilines fan {validate,desingularize,cartier,h0} [fanfile] [options]\n")

    def test_error_before_help_wins(self):
        assert run(["appendix", "--n", "x", "-h"])[0] == 1

    def test_main_writes_usage_to_stdout(self, capsys):
        assert main(["cubic", "-h"]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (help_text("cubic"), "")


def test_import_loads_no_argparse():
    # Nor dataclasses and the modules it imports: the value classes derive
    # their methods from quasilines.frozen.
    src = str(Path(quasilines.__file__).parents[1])
    unwanted = {"argparse", "gettext", "dataclasses", "inspect", "ast", "dis", "tokenize"}
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import quasilines.cli; "
            f"print(sorted({unwanted!r} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


@settings(max_examples=2000, deadline=None)
@given(st.text(st.sampled_from("-.0179\n a\u0663\u00b2\u0b66"), max_size=6))
@example("3\n")
@example("3\n\n")
@example("1..2")
@example(".")
@example("\u0663.\u0b66")
@example("\u00b2")
def test_negative_number_is_the_parser_pattern(tail):
    # \d is Unicode category Nd (the Arabic-Indic three and the Oriya zero
    # here, but not the superscript two), and $ also matches before one
    # final newline.
    arg = "-" + tail
    expected = re.match(r"^-\d+$|^-\d*\.\d+$", arg) is not None
    assert argscan._negative_number(arg) == expected, arg
