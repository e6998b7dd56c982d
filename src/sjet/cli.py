"""Command line interface.

Every command reads one document file, computes, and prints a deterministic
payload to stdout. Exit codes: 0 on success, 1 only when a verification
suite reports a failed identity, 2 for any input or usage error, 3
(EXIT_INTERNAL) for an internal error, that is a bug in sjet; it prints one
line, and its traceback too when SJET_DEBUG=1. Diagnostics go to stderr; set
SJET_COLOR=1 to colour them.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .dsl import MAX_ORDER, Diagnostic, DslError, SourceSpan, parse
from .errors import SjetError
from .fields import VectorField, bracket, verify_relations
from .geometry import compose, Jet, Morphism, jet_of_curve
from .grassmann import EVEN, Generator
from .latex import emit_latex
from .printer import format_field, format_jet, format_morphism, format_polynomial
from .prolongation import (
    antitangent_morphism,
    homothety,
    interchange,
    prolong_chart,
    prolong_morphism,
    weight_report,
)

_NO_SPAN = SourceSpan(0, 0, 0, 0, 0, 0)

EXIT_INTERNAL = 3


class CommandResult(NamedTuple):
    exit_code: int
    payload: str = ""
    diagnostics: tuple[Diagnostic, ...] = ()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sjet",
        description="Exact jet and lift calculus for charts with odd coordinates.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def with_file(sub):
        sub.add_argument("file", help="document to read (.sman)")

    def with_format(sub, choices):
        sub.add_argument(
            "--format",
            choices=choices,
            default="text",
            help="output format (default: text)",
        )

    sub = commands.add_parser("check", help="parse and validate a document")
    with_file(sub)

    sub = commands.add_parser("prolong", help="lift a morphism to jet charts")
    with_file(sub)
    sub.add_argument("--morphism", required=True, help="declared morphism name")
    sub.add_argument("--order", required=True, type=int, help="jet order")
    with_format(sub, ("text", "json", "latex"))

    sub = commands.add_parser(
        "pit", help="lift a morphism to the parity-reversed tangent charts"
    )
    with_file(sub)
    sub.add_argument("--morphism", required=True, help="declared morphism name")
    with_format(sub, ("text", "json", "latex"))

    sub = commands.add_parser(
        "interchange",
        help="verify that both iterated lifts agree under the renaming",
    )
    with_file(sub)
    sub.add_argument("--chart", required=True, help="declared chart name")
    sub.add_argument("--order", required=True, type=int, help="jet order")
    with_format(sub, ("text", "json"))

    sub = commands.add_parser("jet", help="take the jet of a declared curve")
    with_file(sub)
    sub.add_argument("--curve", required=True, help="declared curve name")
    sub.add_argument("--order", required=True, type=int, help="jet order")
    sub.add_argument("--at", default="0", help="base time, a rational p/q")
    with_format(sub, ("text", "json", "latex"))

    sub = commands.add_parser("bracket", help="superbracket of two declared fields")
    with_file(sub)
    sub.add_argument("--left", required=True, help="declared field name")
    sub.add_argument("--right", required=True, help="declared field name")
    with_format(sub, ("text", "json", "latex"))

    sub = commands.add_parser(
        "homothety", help="rescaling of jet coordinates by powers of lambda"
    )
    with_file(sub)
    sub.add_argument("--chart", required=True, help="declared chart name")
    sub.add_argument("--order", required=True, type=int, help="jet order")
    sub.add_argument(
        "--lambda",
        dest="lam",
        default="symbolic",
        help="a rational p/q, or 'symbolic' for a formal parameter",
    )
    with_format(sub, ("text", "json", "latex"))

    sub = commands.add_parser("verify", help="run an identity suite over the document")
    with_file(sub)
    sub.add_argument(
        "--suite",
        required=True,
        choices=("relations", "functorial", "weights"),
        help="which identities to verify",
    )
    sub.add_argument("--order", required=True, type=int, help="jet order")
    with_format(sub, ("text", "json"))

    return parser


def _json_payload(kind: str, inputs: dict, result, diagnostics=()) -> str:
    import json  # only JSON output pays for importing it

    return json.dumps(
        {
            "kind": kind,
            "inputs": inputs,
            "result": result,
            "diagnostics": [
                {"message": d.message, "line": d.line, "column": d.column}
                for d in diagnostics
            ],
        },
        indent=2,
    )


def _morphism_strings(phi: Morphism) -> dict[str, str]:
    return {
        y.name: format_polynomial(phi.assignment[y])
        for y in phi.target.coordinates
    }


def _jet_strings(jet: Jet) -> dict[str, list[str]]:
    return {
        g.name: [format_polynomial(c) for c in jet.coefficients[g]]
        for g in jet.chart.coordinates
    }


def _field_strings(field: VectorField) -> dict[str, str]:
    return {g.name: format_polynomial(field.values[g]) for g in field.chart.coordinates}


def _lookup(table: dict, name: str, what: str):
    try:
        return table[name]
    except KeyError:
        raise SjetError(f"{what} '{name}' is not declared in the document") from None


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SjetError(f"{what} must be a rational number, got {text!r}") from None


def _emit(kind, args, inputs, value, json_result, text_fn) -> CommandResult:
    """``value`` in the requested ``--format``; ``json_result(value)`` is the
    JSON ``result`` and ``text_fn(value)`` the text payload."""
    if args.format == "json":
        return CommandResult(0, _json_payload(kind, inputs, json_result(value)))
    if args.format == "latex":
        return CommandResult(0, emit_latex(value))
    return CommandResult(0, text_fn(value))


def _cmd_check(doc, args) -> CommandResult:
    counts = (
        f"{len(doc.charts)} charts, {len(doc.params)} parameter algebras, "
        f"{len(doc.morphisms)} morphisms, {len(doc.curves)} curves, "
        f"{len(doc.fields)} fields"
    )
    return CommandResult(0, f"ok: {counts}")


def _cmd_prolong(doc, args) -> CommandResult:
    phi = _lookup(doc.morphisms, args.morphism, "morphism")
    lifted = prolong_morphism(phi, args.order)
    inputs = {"morphism": args.morphism, "order": args.order}
    return _emit("prolong", args, inputs, lifted, _morphism_strings, format_morphism)


def _cmd_pit(doc, args) -> CommandResult:
    phi = _lookup(doc.morphisms, args.morphism, "morphism")
    lifted = antitangent_morphism(phi)
    inputs = {"morphism": args.morphism}
    return _emit("pit", args, inputs, lifted, _morphism_strings, format_morphism)


def _cmd_interchange(doc, args) -> CommandResult:
    chart = _lookup(doc.charts, args.chart, "chart")
    k = args.order
    renaming = interchange(chart, k)
    rows = []
    ok_all = True
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
        ok = route_a == route_b
        ok_all = ok_all and ok
        rows.append((name, ok))
    inputs = {"chart": args.chart, "order": k}
    if args.format == "json":
        result = {
            "assignments": _morphism_strings(renaming),
            "morphisms": [{"name": n, "ok": ok} for n, ok in rows],
        }
        return CommandResult(
            0 if ok_all else 1, _json_payload("interchange", inputs, result)
        )
    lines = [format_morphism(renaming)]
    for name, ok in rows:
        lines.append(f"morphism {name}: {'ok' if ok else 'FAILED'}")
    return CommandResult(0 if ok_all else 1, "\n".join(lines))


def _cmd_jet(doc, args) -> CommandResult:
    curve = _lookup(doc.curves, args.curve, "curve")
    at = _parse_rational(args.at, "--at")
    jet = jet_of_curve(curve, args.order, at)
    inputs = {"curve": args.curve, "order": args.order, "at": str(at)}
    return _emit("jet", args, inputs, jet, _jet_strings, format_jet)


def _cmd_bracket(doc, args) -> CommandResult:
    left = _lookup(doc.fields, args.left, "field")
    right = _lookup(doc.fields, args.right, "field")
    result_field = bracket(left, right)
    inputs = {"left": args.left, "right": args.right}
    return _emit("bracket", args, inputs, result_field, _field_strings, format_field)


def _cmd_homothety(doc, args) -> CommandResult:
    chart = _lookup(doc.charts, args.chart, "chart")
    jets = prolong_chart(chart, args.order)
    if args.lam == "symbolic":
        lam = Generator("lambda", EVEN)
    else:
        lam = _parse_rational(args.lam, "--lambda")
    phi = homothety(jets, lam)
    inputs = {"chart": args.chart, "order": args.order, "lambda": args.lam}
    return _emit("homothety", args, inputs, phi, _morphism_strings, format_morphism)


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


def _cmd_verify(doc, args) -> CommandResult:
    k = args.order
    if args.suite == "relations":
        rows = _suite_relations(doc, k)
    elif args.suite == "functorial":
        rows = _suite_functorial(doc, k)
    else:
        rows = _suite_weights(doc, k)
    ok_all = all(row["ok"] for row in rows)
    inputs = {"suite": args.suite, "order": k}
    if args.format == "json":
        return CommandResult(
            0 if ok_all else 1,
            _json_payload("verify", inputs, {"checks": rows, "passed": ok_all}),
        )
    lines = []
    for row in rows:
        where = row.get("chart") or row.get("morphism")
        prefix = f"{where}: " if where else ""
        lines.append(f"{prefix}{row['check']} ... {'ok' if row['ok'] else 'FAILED'}")
    lines.append("suite passed" if ok_all else "suite FAILED")
    return CommandResult(0 if ok_all else 1, "\n".join(lines))


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


def run(argv) -> CommandResult:
    """Execute one command line. Never raises: an error in the input gives
    exit 2, any other exception (a bug) exit EXIT_INTERNAL."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return CommandResult(int(stop.code or 0))
    if getattr(args, "order", 0) > MAX_ORDER:
        message = f"--order {args.order} exceeds the jet-order limit of {MAX_ORDER}"
        return CommandResult(2, "", (Diagnostic(message, _NO_SPAN),))
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        return CommandResult(2, "", (Diagnostic(str(exc), _NO_SPAN),))
    except UnicodeDecodeError as exc:
        message = f"{args.file}: not valid UTF-8 at byte {exc.start}: {exc.reason}"
        return CommandResult(2, "", (Diagnostic(message, _NO_SPAN),))
    try:
        doc = parse(text)
        return _COMMANDS[args.command](doc, args)
    except DslError as exc:
        return CommandResult(2, "", tuple(exc.diagnostics))
    except SjetError as exc:
        return CommandResult(2, "", (Diagnostic(str(exc), _NO_SPAN),))
    except Exception as exc:  # a bug in sjet, never a verdict on the input
        if os.environ.get("SJET_DEBUG", "0") == "1":
            import traceback

            traceback.print_exc()
        message = " ".join(f"internal error: {type(exc).__name__}: {exc}".split())
        return CommandResult(EXIT_INTERNAL, "", (Diagnostic(message, _NO_SPAN),))


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


if __name__ == "__main__":
    sys.exit(main())
