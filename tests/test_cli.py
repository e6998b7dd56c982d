"""Command line driver: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from sjet import Chart, EVEN, Generator
from sjet.cli import main, run
from sjet.dsl import MAX_DIGITS, MAX_ORDER
from sjet.fields import RelationReport, RelationRow

DOC = """\
chart M (x: even, th: odd);
chart N (y: even);
params P (e1: odd, e2: odd);
morphism f : M -> N {
  y = x^2;
}
morphism g : N -> M {
  x = y;
  th = 0;
}
curve gamma on M params P order 2 {
  x = 1 + 2*t + t^2;
  th = e1*t;
}
field D on M order 1 parity odd {
  d/d x@0 = d.x@0;
  d/d th@0 = d.th@0;
  d/d x@1 = d.x@1;
  d/d th@1 = d.th@1;
}
field E on M order 1 parity even {
  d/d x@1 = x@1;
  d/d th@1 = th@1;
  d/d d.x@1 = d.x@1;
  d/d d.th@1 = d.th@1;
}
"""

BAD = """\
chart M (x: even, th: odd);
morphism f : M -> M { x = th; th = th; }
"""


@pytest.fixture
def doc_file(tmp_path):
    path = tmp_path / "doc.sman"
    path.write_text(DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.sman"
    path.write_text(BAD, encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_check_accepts_a_valid_document(self, doc_file):
        result = run(["check", doc_file])
        assert result.exit_code == 0
        assert "2 charts" in result.payload

    def test_check_rejects_a_parity_violation(self, bad_file):
        result = run(["check", bad_file])
        assert result.exit_code == 2
        assert any(
            "parity violation" in d.message for d in result.diagnostics
        )

    def test_missing_file(self):
        result = run(["check", "no-such-file.sman"])
        assert result.exit_code == 2

    def test_non_utf8_input_is_exit_two_with_the_byte_offset(self, tmp_path):
        path = tmp_path / "latin1.sman"
        path.write_bytes(b"chart M (x: even);\n# caf\xe9\n")
        result = run(["check", str(path)])
        assert result.exit_code == 2
        assert result.payload == ""
        (diagnostic,) = result.diagnostics
        assert "not valid UTF-8 at byte 24" in diagnostic.message

    def test_deep_nesting_is_exit_two(self, tmp_path):
        path = tmp_path / "deep.sman"
        body = "(" * 3000 + "x" + ")" * 3000
        path.write_text(
            f"chart M (x: even);\nmorphism f : M -> M {{ x = {body}; }}\n",
            encoding="utf-8",
        )
        result = run(["check", str(path)])
        assert result.exit_code == 2
        assert result.payload == ""
        assert "nested deeper than" in result.diagnostics[0].message

    @pytest.mark.parametrize(
        "body, where",
        [
            ("morphism f : M -> M {\n  x = x^1000000000;\n}", (3, 9)),
            ("field D on M order 3000 parity odd {\n  d/d x@0 = d.x@0;\n}", (2, 20)),
            pytest.param(
                f"morphism f : M -> M {{\n  x = {'1' * 5000}*x;\n}}",
                (3, 7),
                id="long-literal",
            ),
        ],
    )
    def test_limits_are_exit_two_at_the_number(self, tmp_path, body, where):
        path = tmp_path / "limit.sman"
        path.write_text(f"chart M (x: even);\n{body}\n", encoding="utf-8")
        result = run(["check", str(path)])
        assert result.exit_code == 2
        assert result.payload == ""
        (diagnostic,) = result.diagnostics
        assert "exceeds the limit" in diagnostic.message
        assert (diagnostic.line, diagnostic.column) == where

    def test_literal_at_the_digit_limit_parses(self, tmp_path):
        path = tmp_path / "digits.sman"
        literal = "1" * MAX_DIGITS + "/" + "3" * MAX_DIGITS
        path.write_text(
            f"chart M (x: even);\nmorphism f : M -> M {{ x = {literal}*x; }}\n",
            encoding="utf-8",
        )
        assert run(["check", str(path)]).exit_code == 0

    @pytest.mark.parametrize("fmt", ["text", "json", "latex"])
    def test_long_coefficient_in_the_output_is_exit_two(self, tmp_path, fmt):
        path = tmp_path / "digits.sman"
        path.write_text(
            "chart M (x: even);\n"
            f"morphism f : M -> M {{ x = ({'1' * 3000}*x)^2; }}\n",
            encoding="utf-8",
        )
        argv = ["prolong", str(path), "--morphism", "f", "--order", "0"]
        result = run(argv + ["--format", fmt])
        assert result.exit_code == 2
        assert result.payload == ""
        (diagnostic,) = result.diagnostics
        assert f"exceeds the limit of {MAX_DIGITS} digits" in diagnostic.message

    @pytest.mark.parametrize(
        "argv",
        [
            ["prolong", "--morphism", "f", "--order", "3000"],
            ["interchange", "--chart", "M", "--order", str(MAX_ORDER + 1)],
            ["jet", "--curve", "gamma", "--order", "3000"],
            ["homothety", "--chart", "M", "--order", "3000"],
            ["verify", "--suite", "relations", "--order", "3000"],
        ],
    )
    def test_order_option_past_the_limit_is_exit_two(self, doc_file, argv):
        result = run([argv[0], doc_file, *argv[1:]])
        assert result.exit_code == 2
        assert result.payload == ""
        (diagnostic,) = result.diagnostics
        assert f"exceeds the jet-order limit of {MAX_ORDER}" in diagnostic.message

    def test_unknown_subcommand(self, capsys):
        result = run(["frobnicate", "x.sman"])
        assert result.exit_code == 2
        assert capsys.readouterr() == ("", "")

    def test_unknown_flag(self, doc_file, capsys):
        result = run(["check", doc_file, "--nope"])
        assert result.exit_code == 2
        assert capsys.readouterr() == ("", "")

    def test_unknown_morphism_name(self, doc_file):
        result = run(["prolong", doc_file, "--morphism", "zz", "--order", "1"])
        assert result.exit_code == 2

    def test_verification_failure_is_exit_one(self, doc_file, monkeypatch):
        import sjet.cli as cli_module

        chart = Chart("FAKE", (Generator("fakex", EVEN),))
        failing = RelationReport(
            chart=chart,
            order=1,
            rows=(RelationRow(1, "d", "d", "0", False),),
        )
        monkeypatch.setattr(
            cli_module, "verify_relations", lambda chart, k: failing
        )
        result = run(
            ["verify", doc_file, "--suite", "relations", "--order", "1"]
        )
        assert result.exit_code == 1
        assert "FAILED" in result.payload

    @pytest.fixture
    def broken_check(self, monkeypatch):
        import sjet.cli as cli_module

        def boom(doc, args):
            raise ZeroDivisionError("a bug\nover two lines")

        monkeypatch.setitem(cli_module._COMMANDS, "check", boom)

    def test_internal_error_has_its_own_exit_code(self, doc_file, broken_check):
        from sjet.cli import EXIT_INTERNAL

        result = run(["check", doc_file])
        assert EXIT_INTERNAL not in (0, 1, 2)
        assert result.exit_code == EXIT_INTERNAL
        assert result.payload == ""
        (diagnostic,) = result.diagnostics
        assert diagnostic.message == (
            "internal error: ZeroDivisionError: a bug over two lines"
        )

    def test_internal_error_prints_one_line(
        self, doc_file, broken_check, capsys, monkeypatch
    ):
        from sjet.cli import EXIT_INTERNAL

        monkeypatch.delenv("SJET_DEBUG", raising=False)
        assert main(["check", doc_file]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: internal error: ZeroDivisionError: a bug over two lines"
        ]

    def test_internal_error_traceback_on_request(
        self, doc_file, broken_check, capsys, monkeypatch
    ):
        from sjet.cli import EXIT_INTERNAL

        monkeypatch.setenv("SJET_DEBUG", "1")
        assert main(["check", doc_file]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert "in boom" in err
        assert err.endswith(
            "error: internal error: ZeroDivisionError: a bug over two lines\n"
        )


USAGE_ERRORS = {
    "no command": [],
    "unknown command": ["frobnicate", "{doc}"],
    "option before the command": ["--format", "json", "check", "{doc}"],
    "unknown flag": ["check", "{doc}", "--nope"],
    "unknown short flag": ["pit", "{doc}", "--morphism", "f", "-x"],
    "missing required option": ["prolong", "{doc}", "--order", "1"],
    "value outside the choices": ["pit", "{doc}", "--morphism", "f", "--format", "xml"],
    "suite outside the choices": ["verify", "{doc}", "--suite", "all", "--order", "1"],
    "order not an integer": ["prolong", "{doc}", "--morphism", "f", "--order", "two"],
    "order with a fraction": ["prolong", "{doc}", "--morphism", "f", "--order=1/2"],
    "order with a Unicode digit": ["prolong", "{doc}", "--morphism", "f", "--order", "\u0663"],
    "order of 5000 digits": ["prolong", "{doc}", "--morphism", "f", "--order", "9" * 5000],
    "option with no value at the end": ["prolong", "{doc}", "--morphism", "f", "--order"],
    "option followed by an option": ["prolong", "{doc}", "--morphism", "--order", "1"],
    "no file": ["prolong", "--morphism", "f", "--order", "1"],
    "two files": ["check", "{doc}", "{doc}"],
}


class TestUsageErrors:
    @pytest.mark.parametrize("case", USAGE_ERRORS)
    def test_is_exit_two_with_one_usage_diagnostic(self, doc_file, case, capsys):
        argv = [arg.replace("{doc}", doc_file) for arg in USAGE_ERRORS[case]]
        result = run(argv)
        assert result.exit_code == 2
        assert result.payload == ""
        (diagnostic,) = result.diagnostics
        assert diagnostic.message.startswith("usage:")
        assert diagnostic.span is None
        assert capsys.readouterr() == ("", "")

    def test_ambiguous_prefix(self, doc_file, monkeypatch):
        import sjet.cli as cli_module

        about, options = cli_module._CLI["prolong"]
        orbit = cli_module._Option("orbit", "a second option starting with 'or'")
        monkeypatch.setitem(cli_module._CLI, "prolong", (about, options + (orbit,)))
        argv = ["prolong", doc_file, "--morphism", "f", "--or", "1", "--orbit", "x"]
        result = run(argv)
        assert result.exit_code == 2
        (diagnostic,) = result.diagnostics
        assert diagnostic.message.startswith("usage:")
        assert "--or is ambiguous" in diagnostic.message

    def test_module_entry_point_writes_the_usage_error_to_stderr(self, doc_file):
        done = subprocess.run(
            [sys.executable, "-m", "sjet.cli", "prolong", doc_file, "--order", "1"],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: usage: sjet prolong:")
        assert "--morphism is required" in done.stderr

    def test_negative_order_is_a_value(self, doc_file):
        result = run(["prolong", doc_file, "--morphism", "f", "--order", "-1"])
        assert result.exit_code == 2
        assert not result.diagnostics[0].message.startswith("usage:")


RATIONAL_OPTIONS = {
    "at": ["jet", "{doc}", "--curve", "gamma", "--order", "2", "--at"],
    "lambda": ["homothety", "{doc}", "--chart", "M", "--order", "1", "--lambda"],
}


class TestRationalOptions:
    """--at and --lambda take a document's literal -?DIGITS(/DIGITS)?, with at
    most MAX_DIGITS digits per part; anything else is a usage error."""

    def _run(self, doc_file, option, value):
        argv = [arg.replace("{doc}", doc_file) for arg in RATIONAL_OPTIONS[option]]
        return run(argv + [value, "--format", "json"])

    @pytest.mark.parametrize("option", RATIONAL_OPTIONS)
    @pytest.mark.parametrize(
        "value, problem",
        [
            ("1e5000", "expected a rational p/q"),
            ("1.5", "expected a rational p/q"),
            ("1_000", "expected a rational p/q"),
            (" 1/2", "expected a rational p/q"),
            ("1/0", "denominator zero"),
            ("1" * (MAX_DIGITS + 1), "exceeds the limit"),
            ("1/" + "3" * (MAX_DIGITS + 1), "exceeds the limit"),
        ],
        ids=["exponent", "decimal", "underscore", "space", "zero", "num", "den"],
    )
    def test_other_spellings_are_one_usage_line(self, doc_file, option, value, problem):
        result = self._run(doc_file, option, value)
        assert (result.exit_code, result.payload) == (2, "")
        (diagnostic,) = result.diagnostics
        command = RATIONAL_OPTIONS[option][0]
        assert diagnostic.message.startswith(f"usage: sjet {command}: --{option}: ")
        assert problem in diagnostic.message
        assert problem in diagnostic.message

    @pytest.mark.parametrize("value", ["0", "1", "1/2", "2/3", "-3", "5/7", "2/4"])
    def test_literals_are_echoed_as_before(self, doc_file, value):
        at = json.loads(self._run(doc_file, "at", value).payload)["inputs"]["at"]
        lam = self._run(doc_file, "lambda", value)
        assert lam.exit_code == 0
        assert at == ("1/2" if value == "2/4" else value)
        assert json.loads(lam.payload)["inputs"]["lambda"] == value

    def test_a_literal_at_the_digit_limit_is_read(self, doc_file):
        value = "1" * MAX_DIGITS + "/" + "3" * MAX_DIGITS
        result = self._run(doc_file, "lambda", value)
        assert (result.exit_code, result.diagnostics) == (0, ())


class TestHelp:
    @pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
    def test_top_level_lists_every_command(self, flag):
        result = run([flag])
        assert result.exit_code == 0
        assert result.diagnostics == ()
        listed = [line.split()[0] for line in result.payload.splitlines()[4:12]]
        assert listed == [
            "check", "prolong", "pit", "interchange",
            "jet", "bracket", "homothety", "verify",
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["prolong", "-h"],
            ["prolong", "--help"],
            ["prolong", "x.sman", "--morphism", "f", "-h"],
        ],
    )
    def test_command_lists_its_options(self, argv):
        result = run(argv)
        assert result.exit_code == 0
        assert result.payload.startswith("usage: sjet prolong FILE")
        options = [
            line.split()[0]
            for line in result.payload.splitlines()
            if line.startswith("  --")
        ]
        assert options == ["--morphism", "--order", "--format"]
        assert "text|json|latex" in result.payload

    def test_help_is_printed_to_stdout(self, capsys):
        assert main(["verify", "-h"]) == 0
        captured = capsys.readouterr()
        assert "relations|functorial|weights" in captured.out
        assert captured.err == ""


class TestSpellings:
    @pytest.mark.parametrize(
        "spelled",
        [
            ["--morphism=f", "--order=2", "--format=json"],
            ["--morph", "f", "--o", "2", "--f", "json"],
            ["--m=f", "--or=2", "--format", "json"],
        ],
    )
    def test_payload_is_byte_identical_to_the_full_spelling(self, doc_file, spelled):
        full = run(["prolong", doc_file, "--morphism", "f", "--order", "2",
                    "--format", "json"])
        assert full.exit_code == 0
        assert run(["prolong", doc_file, *spelled]) == full

    def test_file_may_come_before_between_or_after_the_options(self, doc_file):
        full = run(["jet", doc_file, "--curve", "gamma", "--order", "2", "--at", "1"])
        assert full.exit_code == 0
        for argv in (
            ["jet", "--curve", "gamma", doc_file, "--order", "2", "--at", "1"],
            ["jet", "--curve", "gamma", "--order", "2", "--at", "1", doc_file],
        ):
            assert run(argv) == full

    def test_later_option_wins(self, doc_file):
        once = run(["pit", doc_file, "--morphism", "f"])
        assert run(["pit", doc_file, "--morphism", "g", "--morphism", "f"]) == once


class TestAsciiSource:
    @pytest.mark.parametrize(
        "body, where",
        [("x = \u0663*x;", (3, 7)), ("x = \uff13*x;", (3, 7)), ("x = x\u2028;", (3, 8))],
    )
    def test_non_ascii_is_exit_two_at_the_character(self, tmp_path, body, where):
        path = tmp_path / "unicode.sman"
        path.write_text(
            f"chart M (x: even);\nmorphism f : M -> M {{\n  {body}\n}}\n",
            encoding="utf-8",
        )
        result = run(["check", str(path)])
        assert result.exit_code == 2
        assert result.payload == ""
        (diagnostic,) = result.diagnostics
        assert diagnostic.message.startswith("unexpected character")
        assert (diagnostic.line, diagnostic.column) == where


class TestCommands:
    def test_prolong_text(self, doc_file):
        result = run(
            ["prolong", doc_file, "--morphism", "f", "--order", "2"]
        )
        assert result.exit_code == 0
        lines = result.payload.splitlines()
        assert "y@1 = 2*x@0*x@1" in lines
        assert "y@2 = 2*x@0*x@2 + x@1^2" in lines

    def test_prolong_latex(self, doc_file):
        result = run(
            [
                "prolong",
                doc_file,
                "--morphism",
                "f",
                "--order",
                "2",
                "--format",
                "latex",
            ]
        )
        assert r"\ddot{y} = 2\,x\,\ddot{x} + \dot{x}^{2}" in result.payload

    def test_prolong_json_schema(self, doc_file):
        result = run(
            [
                "prolong",
                doc_file,
                "--morphism",
                "f",
                "--order",
                "1",
                "--format",
                "json",
            ]
        )
        data = json.loads(result.payload)
        assert set(data) == {"kind", "inputs", "result", "diagnostics"}
        assert data["kind"] == "prolong"
        assert data["result"]["y@1"] == "2*x@0*x@1"
        assert data["diagnostics"] == []

    def test_pit(self, doc_file):
        result = run(["pit", doc_file, "--morphism", "f"])
        assert result.exit_code == 0
        assert "d.y = 2*x*d.x" in result.payload.splitlines()

    def test_interchange(self, doc_file):
        result = run(["interchange", doc_file, "--chart", "M", "--order", "1"])
        assert result.exit_code == 0

    def test_jet(self, doc_file):
        result = run(
            ["jet", doc_file, "--curve", "gamma", "--order", "2", "--at", "1"]
        )
        assert result.exit_code == 0
        assert "x: (4, 4, 1)" in result.payload.splitlines()

    def test_bracket(self, doc_file):
        result = run(["bracket", doc_file, "--left", "E", "--right", "D"])
        assert result.exit_code == 0
        assert result.payload

    def test_bracket_latex_of_a_nonzero_field(self, tmp_path):
        path = tmp_path / "bracket.sman"
        path.write_text(
            "chart M (x: even, y: even, th: odd);\n"
            "field X on M parity even { d/d x = x^2 + y; d/d y = 1; }\n"
            "field Y on M parity even { d/d x = y; d/d th = x*th; }\n",
            encoding="utf-8",
        )
        argv = ["bracket", str(path), "--left", "X", "--right", "Y"]
        result = run(argv + ["--format", "latex"])
        assert (result.exit_code, result.diagnostics) == (0, ())
        assert result.payload == (
            r"\left(-2\,x\,y + 1\right)\,\frac{\partial}{\partial x} + "
            r"\left(x^{2}\,th + y\,th\right)\,\frac{\partial}{\partial th}"
        )
        text = run(argv).payload
        assert text == "d/d x = -2*x*y + 1\nd/d y = 0\nd/d th = x^2*th + y*th"

    def test_bracket_latex_of_a_vanishing_field(self, tmp_path):
        path = tmp_path / "bracket.sman"
        path.write_text(
            "chart M (x: even, th: odd);\n"
            "field X on M parity even { d/d x = x^2; d/d th = x*th; }\n",
            encoding="utf-8",
        )
        argv = ["bracket", str(path), "--left", "X", "--right", "X"]
        result = run(argv + ["--format", "latex"])
        assert (result.exit_code, result.diagnostics, result.payload) == (0, (), "0")

    def test_homothety_rational(self, doc_file):
        result = run(
            [
                "homothety",
                doc_file,
                "--chart",
                "M",
                "--order",
                "2",
                "--lambda",
                "1/2",
            ]
        )
        assert result.exit_code == 0
        assert "x@2 = 1/4*x@2" in result.payload.splitlines()

    def test_homothety_symbolic(self, doc_file):
        result = run(
            [
                "homothety",
                doc_file,
                "--chart",
                "M",
                "--order",
                "1",
                "--lambda",
                "symbolic",
            ]
        )
        assert result.exit_code == 0
        assert "x@1 = x@1*lambda" in result.payload.splitlines()
        assert "th@1 = lambda*th@1" in result.payload.splitlines()

    @pytest.mark.parametrize("suite", ["relations", "functorial", "weights"])
    def test_verify_suites_pass(self, doc_file, suite):
        result = run(
            ["verify", doc_file, "--suite", suite, "--order", "2"]
        )
        assert result.exit_code == 0
        assert result.payload.endswith("suite passed")


class TestOutputContract:
    def test_payloads_are_deterministic(self, doc_file):
        argv = [
            "prolong",
            doc_file,
            "--morphism",
            "f",
            "--order",
            "3",
            "--format",
            "json",
        ]
        assert run(argv).payload == run(argv).payload

    def test_payload_does_not_depend_on_earlier_commands(self, doc_file, bad_file):
        argv = ["prolong", doc_file, "--morphism", "f", "--order", "2"]
        alone = subprocess.run(
            [sys.executable, "-m", "sjet.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert alone.returncode == 0
        for earlier in (
            ["interchange", doc_file, "--chart", "M", "--order", "2"],
            ["verify", doc_file, "--suite", "relations", "--order", "2"],
            ["check", bad_file],
            ["prolong", doc_file, "--morphism", "g", "--order", "3"],
            argv,
        ):
            run(earlier)
        assert run(argv).payload + "\n" == alone.stdout

    def test_diagnostics_are_plain_by_default(self, bad_file, capsys, monkeypatch):
        monkeypatch.delenv("SJET_COLOR", raising=False)
        code = main(["check", bad_file])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "\x1b[" not in captured.err

    def test_diagnostics_colour_on_request(self, bad_file, capsys, monkeypatch):
        monkeypatch.setenv("SJET_COLOR", "1")
        code = main(["check", bad_file])
        captured = capsys.readouterr()
        assert code == 2
        assert "\x1b[31m" in captured.err

    def test_module_entry_point(self, doc_file):
        first = subprocess.run(
            [sys.executable, "-m", "sjet.cli", "check", doc_file],
            capture_output=True,
            text=True,
        )
        assert first.returncode == 0
        again = subprocess.run(
            [sys.executable, "-m", "sjet.cli", "check", doc_file],
            capture_output=True,
            text=True,
        )
        assert first.stdout == again.stdout


def _envelope(kind, inputs, result):
    return json.dumps(
        {"kind": kind, "inputs": inputs, "result": result, "diagnostics": []},
        indent=2,
    )


class TestFailingVerdicts:
    """The exact payloads of failed identities, each forced by replacing an
    engine function that the CLI calls; every one exits 1."""

    @pytest.fixture
    def cli_module(self):
        import sjet.cli as cli_module

        return cli_module

    def _both(self, argv):
        text = run(argv + ["--format", "text"])
        as_json = run(argv + ["--format", "json"])
        assert (text.exit_code, text.diagnostics) == (1, ())
        assert (as_json.exit_code, as_json.diagnostics) == (1, ())
        return text.payload, as_json.payload

    def test_interchange(self, doc_file, cli_module, monkeypatch):
        monkeypatch.setattr(cli_module, "compose", lambda outer, inner: inner)
        argv = ["interchange", doc_file, "--chart", "M", "--order", "1"]
        text, as_json = self._both(argv)
        names = ["x@0", "x@1", "th@0", "th@1", "d.x@0", "d.x@1", "d.th@0", "d.th@1"]
        renaming = "\n".join(f"{n} = {n}" for n in names)
        assert text == renaming + "\nmorphism f: FAILED"
        result = {
            "assignments": {n: n for n in names},
            "morphisms": [{"name": "f", "ok": False}],
        }
        assert as_json == _envelope("interchange", {"chart": "M", "order": 1}, result)

    def test_verify_relations(self, doc_file, cli_module, monkeypatch):
        rows = (
            RelationRow(1, "d", "d", "0", False),
            RelationRow(1, "d", "J", "0", True),
        )

        def verify_relations(chart, k):
            return RelationReport(chart, k, rows)

        monkeypatch.setattr(cli_module, "verify_relations", verify_relations)
        argv = ["verify", doc_file, "--suite", "relations", "--order", "1"]
        text, as_json = self._both(argv)
        assert text == (
            "M: [d,d] = 0 ... FAILED\n"
            "M: [d,J] = 0 ... ok\n"
            "N: [d,d] = 0 ... FAILED\n"
            "N: [d,J] = 0 ... ok\n"
            "suite FAILED"
        )
        checks = [
            {"chart": chart, "check": check, "block": 1, "ok": ok}
            for chart in "MN"
            for check, ok in (("[d,d] = 0", False), ("[d,J] = 0", True))
        ]
        inputs = {"suite": "relations", "order": 1}
        result = {"checks": checks, "passed": False}
        assert as_json == _envelope("verify", inputs, result)

    def test_verify_functorial(self, doc_file, cli_module, monkeypatch):
        # an unlifted chart makes both identity checks fail
        monkeypatch.setattr(cli_module, "prolong_chart", lambda chart, k: chart)
        argv = ["verify", doc_file, "--suite", "functorial", "--order", "1"]
        text, as_json = self._both(argv)
        assert text == (
            "M: lift of identity is identity ... FAILED\n"
            "N: lift of identity is identity ... FAILED\n"
            "lift of g o f is the composite of lifts ... ok\n"
            "lift of f o g is the composite of lifts ... ok\n"
            "suite FAILED"
        )
        checks = [
            {"chart": "M", "check": "lift of identity is identity", "ok": False},
            {"chart": "N", "check": "lift of identity is identity", "ok": False},
            {"check": "lift of g o f is the composite of lifts", "ok": True},
            {"check": "lift of f o g is the composite of lifts", "ok": True},
        ]
        inputs = {"suite": "functorial", "order": 1}
        result = {"checks": checks, "passed": False}
        assert as_json == _envelope("verify", inputs, result)

    def test_verify_weights(self, doc_file, cli_module, monkeypatch):
        real = cli_module.weight_report

        def weight_report(lifted):  # the lift of f fails, g keeps its real report
            if lifted.source.name == "T1(M)":
                return SimpleNamespace(valid=False)
            return real(lifted)

        monkeypatch.setattr(cli_module, "weight_report", weight_report)
        argv = ["verify", doc_file, "--suite", "weights", "--order", "1"]
        text, as_json = self._both(argv)
        check = "assignments are weight-homogeneous and triangular"
        assert text == f"f: {check} ... FAILED\ng: {check} ... ok\nsuite FAILED"
        checks = [
            {"morphism": "f", "check": check, "ok": False},
            {"morphism": "g", "check": check, "ok": True},
        ]
        inputs = {"suite": "weights", "order": 1}
        result = {"checks": checks, "passed": False}
        assert as_json == _envelope("verify", inputs, result)


LIFT = """\
chart M (x: even, y: even, a: odd, b: odd);
chart N (u: even, p: odd);
morphism f : M -> N { u = x^3*y + x*a*b + y^2; p = x^2*a + y*b; }
"""


def _entry(argv, patch="", **kwargs):
    """``sjet.cli.entry()`` in a child process, after the ``patch`` source."""
    source = (
        "import sys\nimport sjet.cli as cli\n"
        f"{patch}\nsys.argv = ['sjet', *{list(argv)!r}]\ncli.entry()\n"
    )
    # stdout block-buffered, as by default, so that a lost flush shows
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-c", source], env=env, **kwargs)


class TestExitPath:
    """The console entry flushes its output, keeps the exit code, and skips
    the interpreter's teardown; a closed stdout ends it with exit 141."""

    @pytest.fixture
    def lift_file(self, tmp_path):
        path = tmp_path / "lift.sman"
        path.write_text(LIFT, encoding="utf-8")
        return str(path)

    def test_a_large_payload_arrives_whole_in_a_pipe_and_a_file(
        self, lift_file, tmp_path
    ):
        argv = ["prolong", lift_file, "--morphism", "f", "--order", "20"]
        expected = (run(argv).payload + "\n").encode()
        assert len(expected) > 64 * 1024
        piped = _entry(argv, capture_output=True)
        assert (piped.returncode, piped.stdout, piped.stderr) == (0, expected, b"")
        out = tmp_path / "out.txt"
        with open(out, "wb") as sink:
            done = _entry(argv, stdout=sink, stderr=subprocess.PIPE)
        assert (done.returncode, done.stderr) == (0, b"")
        assert out.read_bytes() == expected

    def test_each_exit_code_keeps_its_output_and_diagnostics(self, doc_file, bad_file):
        ok = _entry(["check", doc_file], capture_output=True, text=True)
        assert (ok.returncode, ok.stderr) == (0, "")
        assert ok.stdout == run(["check", doc_file]).payload + "\n"

        failing = (
            "from sjet import Chart, EVEN, Generator\n"
            "from sjet.fields import RelationReport, RelationRow\n"
            "chart = Chart('FAKE', (Generator('fakex', EVEN),))\n"
            "row = RelationRow(1, 'd', 'd', '0', False)\n"
            "cli.verify_relations = lambda chart_, k: RelationReport(chart, 1, (row,))"
        )
        argv = ["verify", doc_file, "--suite", "relations", "--order", "1"]
        verdict = _entry(argv, failing, capture_output=True, text=True)
        assert (verdict.returncode, verdict.stderr) == (1, "")
        assert "FAILED" in verdict.stdout

        bad = _entry(["check", bad_file], capture_output=True, text=True)
        assert (bad.returncode, bad.stdout) == (2, "")
        assert bad.stderr.startswith("error: ") and bad.stderr.count("\n") == 1

        boom = (
            "def boom(doc, args):\n"
            "    raise ZeroDivisionError('a bug')\n"
            "cli._COMMANDS['check'] = boom"
        )
        bug = _entry(["check", doc_file], boom, capture_output=True, text=True)
        assert (bug.returncode, bug.stdout) == (3, "")
        assert bug.stderr == "error: internal error: ZeroDivisionError: a bug\n"

    @pytest.mark.parametrize("order", ["2", "20"])
    def test_a_closed_pipe_is_exit_141_without_a_traceback(self, lift_file, order):
        # order 2 fails at the final flush, order 20 already in print
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            argv = ["prolong", lift_file, "--morphism", "f", "--order", order]
            done = _entry(argv, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert done.returncode == 141
        assert done.stderr == b""

    def test_the_module_runs_the_entry(self, lift_file):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "sjet.cli", "prolong", lift_file,
                 "--morphism", "f", "--order", "2"],
                stdout=write_end,
                stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 141
        assert b"Traceback" not in done.stderr
