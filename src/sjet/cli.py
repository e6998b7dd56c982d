"""Command line interface.

Every command reads one document file, computes, and prints a deterministic
payload to stdout: each command computes a value and its verdict rows, and
_render writes them in the requested format. Exit codes: 0 on success, 1
only when a check of interchange or verify fails, 2 for any input or usage
error, 3 (EXIT_INTERNAL) for an internal error, that is a bug in sjet; it
prints one line, and its traceback too when SJET_DEBUG=1. Diagnostics go to
stderr; set SJET_COLOR=1 to colour them. Run as a program, a command whose
stdout was closed before its output was written exits with 141
(EXIT_BROKEN_PIPE).
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from .dsl import MAX_DIGITS, MAX_ORDER, Diagnostic, DslError, parse, rational_literal
from .errors import SjetError
from .fields import VectorField, bracket, verify_relations
from .geometry import compose, Jet, Morphism, jet_of_curve
from .grassmann import EVEN, Generator
from .latex import emit_latex
from .printer import (
    coordinate_rows,
    format_field,
    format_jet,
    format_morphism,
    format_polynomial,
)
from .prolongation import (
    antitangent_morphism,
    homothety,
    interchange,
    prolong_chart,
    prolong_morphism,
    weight_report,
)

EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it


class CommandResult(NamedTuple):
    exit_code: int
    payload: str = ""
    diagnostics: tuple[Diagnostic, ...] = ()


class _Option:
    __slots__ = ("name", "help", "default", "choices", "kind")

    def __init__(self, name, help, default=None, choices=(), kind=str):
        self.name, self.help, self.default = name, help, default
        self.choices, self.kind = choices, kind


_MORPHISM = _Option("morphism", "declared morphism name")
_CHART = _Option("chart", "declared chart name")
_CURVE = _Option("curve", "declared curve name")
_LEFT = _Option("left", "declared field name")
_RIGHT = _Option("right", "declared field name")
_ORDER = _Option("order", "jet order", kind=int)
_AT = _Option("at", "base time, a rational p/q", "0", kind=Fraction)
_LAMBDA = _Option("lambda", "a rational p/q, or 'symbolic'", "symbolic", kind=Fraction)
_SUITE = _Option("suite", "suite to run", None, ("relations", "functorial", "weights"))
_FORMAT = _Option("format", "output format", "text", ("text", "json", "latex"))
_NO_LATEX = _Option("format", "output format", "text", ("text", "json"))

# Per command: what it does, and its options; an option without a default is
# required. Every command also reads one FILE and takes -h or --help.
_CLI = {
    "check": ("parse and validate a document", ()),
    "prolong": ("lift a morphism to jet charts", (_MORPHISM, _ORDER, _FORMAT)),
    "pit": ("parity-reversed tangent lift of a morphism", (_MORPHISM, _FORMAT)),
    "interchange": ("check the interchange of both lifts", (_CHART, _ORDER, _NO_LATEX)),
    "jet": ("take the jet of a declared curve", (_CURVE, _ORDER, _AT, _FORMAT)),
    "bracket": ("superbracket of two declared fields", (_LEFT, _RIGHT, _FORMAT)),
    "homothety": ("rescale jet coordinates", (_CHART, _ORDER, _LAMBDA, _FORMAT)),
    "verify": ("run an identity suite over the document", (_SUITE, _ORDER, _NO_LATEX)),
}


def _help(command: str | None) -> CommandResult:
    """The help text: every command, or the options of one."""
    if command is None:
        head = "COMMAND FILE [--OPTION VALUE ...]"
        about = "Exact jet and lift calculus for charts with odd coordinates."
        rows = [(name, what) for name, (what, _) in _CLI.items()]
        rows.append(("", "run 'sjet COMMAND -h' for the options of one command"))
    else:
        head = f"{command} FILE [--OPTION VALUE ...]"
        about, options = _CLI[command]
        rows = [("FILE", "document to read (.sman)")]
        for o in options:
            when = "required" if o.default is None else f"default: {o.default}"
            value = "|".join(o.choices) or o.name.upper()
            rows.append((f"--{o.name} {value}", f"{o.help} ({when})"))
    lines = [f"usage: sjet {head}", "", about, ""]
    return CommandResult(0, "\n".join(lines + [f"  {a:<24} {b}" for a, b in rows]))


def _usage(command: str | None, problem: str) -> CommandResult:
    where = f"sjet {command}" if command else "sjet"
    message = f"usage: {where}: {problem} (see '{where} -h')"
    return CommandResult(2, "", (Diagnostic(message),))


def _parse_argv(argv: list[str]):
    """The command line as ``args``, or else the help text (exit 0) or a usage
    error (exit 2) as a CommandResult. An option is ``--name value`` or
    ``--name=value``, and ``name`` may be any unique prefix of its name."""
    command, *rest = argv or [""]
    if command == "-h" or len(command) > 2 and "--help".startswith(command):
        return _help(None)
    if command not in _CLI:
        return _usage(None, f"unknown command {command!r}" if command else "no command")
    options = {option.name: option for option in _CLI[command][1]}
    values = {}
    files = []
    rest = iter(rest)
    for arg in rest:
        if not arg.startswith("-"):
            files.append(arg)
            continue
        if arg == "-h":
            return _help(command)
        flag, given, value = arg.partition("=")
        names = [n for n in (*options, "help") if f"--{n}".startswith(flag)]
        if len(flag) < 3 or not names:
            return _usage(command, f"unknown option {flag}")
        if len(names) > 1:
            return _usage(command, f"{flag} is ambiguous: --{', --'.join(names)}")
        if names == ["help"]:
            return _help(command)
        option = options[names[0]]
        if not given:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                return _usage(command, f"--{option.name} expects a value")
        if option.choices and value not in option.choices:
            choices = ", ".join(option.choices)
            return _usage(command, f"--{option.name} must be one of {choices}")
        if option.kind is int:
            digits = value.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()) or len(digits) > MAX_DIGITS:
                problem = f"an integer of at most {MAX_DIGITS} digits"
                return _usage(command, f"--{option.name} expects {problem}")
            value = int(value)
        # a rational stays text, which JSON echoes; --lambda's default is a word
        if option.kind is Fraction and value != option.default:
            try:
                rational_literal(value)
            except ValueError as exc:
                return _usage(command, f"--{option.name}: {exc}")
        values[option.name] = value
    if len(files) != 1:
        return _usage(command, f"expected one FILE, found {len(files)}")
    for option in options.values():
        if option.name not in values:
            if option.default is None:
                return _usage(command, f"--{option.name} is required")
            values[option.name] = option.default
    return SimpleNamespace(command=command, file=files[0], **values)


def _lookup(table: dict, name: str, what: str):
    try:
        return table[name]
    except KeyError:
        raise SjetError(f"{what} '{name}' is not declared in the document") from None


# Each command returns what it computed and its verdict rows. The value is a
# Morphism, Jet or VectorField, the summary line of check, or None for verify;
# each row is a dict with an "ok" entry.


def _cmd_check(doc, args):
    counts = (
        f"{len(doc.charts)} charts, {len(doc.params)} parameter algebras, "
        f"{len(doc.morphisms)} morphisms, {len(doc.curves)} curves, "
        f"{len(doc.fields)} fields"
    )
    return f"ok: {counts}", ()


def _cmd_prolong(doc, args):
    phi = _lookup(doc.morphisms, args.morphism, "morphism")
    return prolong_morphism(phi, args.order), ()


def _cmd_pit(doc, args):
    phi = _lookup(doc.morphisms, args.morphism, "morphism")
    return antitangent_morphism(phi), ()


def _cmd_interchange(doc, args):
    chart = _lookup(doc.charts, args.chart, "chart")
    k = args.order
    renaming = interchange(chart, k)
    checks = []
    for name, phi in doc.morphisms.items():
        if phi.source is not chart:
            continue
        route_a = compose(
            interchange(phi.target, k),
            prolong_morphism(antitangent_morphism(phi), k),
        )
        route_b = compose(
            antitangent_morphism(prolong_morphism(phi, k)),
            renaming,
        )
        checks.append({"name": name, "ok": route_a == route_b})
    return renaming, checks


def _cmd_jet(doc, args):
    curve = _lookup(doc.curves, args.curve, "curve")
    return jet_of_curve(curve, args.order, Fraction(args.at)), ()


def _cmd_bracket(doc, args):
    left = _lookup(doc.fields, args.left, "field")
    right = _lookup(doc.fields, args.right, "field")
    return bracket(left, right), ()


def _cmd_homothety(doc, args):
    chart = _lookup(doc.charts, args.chart, "chart")
    jets = prolong_chart(chart, args.order)
    lam = getattr(args, "lambda")  # a Python keyword, so not an attribute name
    lam = Generator("lambda", EVEN) if lam == "symbolic" else Fraction(lam)
    return homothety(jets, lam), ()


def _suite_relations(doc, k):
    rows = []
    for name, chart in doc.charts.items():
        report = verify_relations(chart, k)
        for row in report.rows:
            rows.append(
                {
                    "chart": name,
                    "check": row.label,
                    "block": row.block,
                    "ok": row.ok,
                }
            )
    return rows


def _suite_functorial(doc, k):
    rows = []
    for name, chart in doc.charts.items():
        identity = Morphism.identity(chart)
        ok = prolong_morphism(identity, k) == Morphism.identity(
            prolong_chart(chart, k)
        )
        rows.append({"chart": name, "check": "lift of identity is identity", "ok": ok})
    names = list(doc.morphisms)
    for inner_name in names:
        for outer_name in names:
            psi = doc.morphisms[inner_name]
            phi = doc.morphisms[outer_name]
            if psi.target is not phi.source:
                continue
            lifted_composite = prolong_morphism(compose(phi, psi), k)
            composite_of_lifts = compose(
                prolong_morphism(phi, k), prolong_morphism(psi, k)
            )
            rows.append(
                {
                    "check": f"lift of {outer_name} o {inner_name} is the "
                    f"composite of lifts",
                    "ok": lifted_composite == composite_of_lifts,
                }
            )
    return rows


def _suite_weights(doc, k):
    rows = []
    for name, phi in doc.morphisms.items():
        report = weight_report(prolong_morphism(phi, k))
        rows.append(
            {
                "morphism": name,
                "check": "assignments are weight-homogeneous and triangular",
                "ok": report.valid,
            }
        )
    return rows


_SUITES = {
    "relations": _suite_relations,
    "functorial": _suite_functorial,
    "weights": _suite_weights,
}


def _cmd_verify(doc, args):
    return None, _SUITES[args.suite](doc, args.order)


_COMMANDS = {
    "check": _cmd_check,
    "prolong": _cmd_prolong,
    "pit": _cmd_pit,
    "interchange": _cmd_interchange,
    "jet": _cmd_jet,
    "bracket": _cmd_bracket,
    "homothety": _cmd_homothety,
    "verify": _cmd_verify,
}


def _text(value) -> str:
    """The text of a command's value. The printers are looked up in this
    module at each call, so a wrapper set on them here sees every render."""
    if isinstance(value, Morphism):
        return format_morphism(value)
    if isinstance(value, Jet):
        return format_jet(value)
    if isinstance(value, VectorField):
        return format_field(value)
    return value


def _verdict_line(row: dict) -> str:
    status = "ok" if row["ok"] else "FAILED"
    if "name" in row:  # a morphism of interchange
        return f"morphism {row['name']}: {status}"
    where = row.get("chart") or row.get("morphism")
    prefix = f"{where}: " if where else ""
    return f"{prefix}{row['check']} ... {status}"


def _render(args, value, checks) -> CommandResult:
    """A command's value and verdict rows written in the format of ``args``;
    exit 1 when a check failed."""
    fmt = getattr(args, "format", "text")
    code = 0 if all(row["ok"] for row in checks) else 1
    if fmt == "latex":
        return CommandResult(code, emit_latex(value))
    if fmt == "json":
        import json  # only JSON output pays for importing it

        if value is None:
            body = {"checks": checks, "passed": code == 0}
        else:
            body = dict(coordinate_rows(value, format_polynomial))
            if args.command == "interchange":
                body = {"assignments": body, "morphisms": checks}
        # the inputs are the options in table order; --at is echoed as the
        # rational it spells, every other option as typed
        options = (o.name for o in _CLI[args.command][1] if o.name != "format")
        inputs = {name: getattr(args, name) for name in options}
        if "at" in inputs:
            inputs["at"] = str(Fraction(inputs["at"]))
        payload = {
            "kind": args.command,
            "inputs": inputs,
            "result": body,
            "diagnostics": [],
        }
        return CommandResult(code, json.dumps(payload, indent=2))
    lines = [] if value is None else [_text(value)]
    lines += map(_verdict_line, checks)
    if value is None:
        lines.append("suite passed" if code == 0 else "suite FAILED")
    return CommandResult(code, "\n".join(lines))


def run(argv) -> CommandResult:
    """Execute one command line. Never raises: an error in the input gives
    exit 2, any other exception (a bug) exit EXIT_INTERNAL."""
    args = _parse_argv(list(argv))
    if isinstance(args, CommandResult):
        return args
    if getattr(args, "order", 0) > MAX_ORDER:
        message = f"--order {args.order} exceeds the jet-order limit of {MAX_ORDER}"
        return CommandResult(2, "", (Diagnostic(message),))
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        return CommandResult(2, "", (Diagnostic(str(exc)),))
    except UnicodeDecodeError as exc:
        message = f"{args.file}: not valid UTF-8 at byte {exc.start}: {exc.reason}"
        return CommandResult(2, "", (Diagnostic(message),))
    try:
        value, checks = _COMMANDS[args.command](parse(text), args)
        return _render(args, value, checks)
    except DslError as exc:
        return CommandResult(2, "", tuple(exc.diagnostics))
    except SjetError as exc:
        return CommandResult(2, "", (Diagnostic(str(exc)),))
    except Exception as exc:  # a bug in sjet, never a verdict on the input
        if os.environ.get("SJET_DEBUG", "0") == "1":
            import traceback

            traceback.print_exc()
        message = " ".join(f"internal error: {type(exc).__name__}: {exc}".split())
        return CommandResult(EXIT_INTERNAL, "", (Diagnostic(message),))


def _colour_enabled() -> bool:
    return os.environ.get("SJET_COLOR", "0") == "1"


def main(argv=None) -> int:
    result = run(argv if argv is not None else sys.argv[1:])
    if result.payload:
        print(result.payload)
    for diagnostic in result.diagnostics:
        message = str(diagnostic)
        if _colour_enabled():
            message = f"\x1b[31m{message}\x1b[0m"
        print(f"error: {message}", file=sys.stderr)
    return result.exit_code


def entry() -> None:
    """The console entry point: ``main()``, then an exit as soon as its output
    is flushed, skipping the interpreter's teardown, which a one-shot command
    does not need. A reader that closed stdout early gets nothing more, and
    the exit status is EXIT_BROKEN_PIPE."""
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        os._exit(EXIT_BROKEN_PIPE)
    os._exit(code)


if __name__ == "__main__":
    entry()
