"""LaTeX rendering with dotted derivative notation.

Jet coordinates print as x, \\dot{x}, \\ddot{x} and x^{(r)} for r >= 3;
differentials put a d in front. Term order matches the canonical text
printer, so LaTeX output is deterministic too.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fields import RelationReport, VectorField
from .geometry import Jet, Morphism
from .grassmann import SuperPolynomial
from .printer import render_terms

_NAME = re.compile(r"^(d\.)?(.+?)(?:@(\d+))?$")

_FIELD_SYMBOLS = {
    "d": "d",
    "Delta1": r"\Delta_1",
    "Delta2": r"\Delta_2",
    "Delta": r"\Delta",
    "J": "J",
    "0": "0",
}


def latex_name(name: str) -> str:
    match = _NAME.match(name)
    if match is None:
        return name
    differential, base, order = match.groups()
    if order is None or order == "0":
        body = base
    elif order == "1":
        body = rf"\dot{{{base}}}"
    elif order == "2":
        body = rf"\ddot{{{base}}}"
    else:
        body = rf"{base}^{{({order})}}"
    if differential:
        return f"d {body}"
    return body


def latex_scalar(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return rf"{sign}\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def latex_polynomial(p: SuperPolynomial) -> str:
    return render_terms(
        p, lambda g: latex_name(g.name), "{}^{{{}}}", latex_scalar, r"\,"
    )


def latex_morphism(phi: Morphism) -> str:
    lines = [
        f"{latex_name(y.name)} = {latex_polynomial(phi.assignment[y])}"
        for y in phi.target.coordinates
    ]
    return "\n".join(lines)


def latex_jet(jet: Jet) -> str:
    lines = []
    for g in jet.chart.coordinates:
        inner = ", ".join(latex_polynomial(c) for c in jet.coefficients[g])
        lines.append(rf"{latex_name(g.name)}\colon ({inner})")
    return "\n".join(lines)


def latex_field(field: VectorField) -> str:
    pieces = []
    for g in field.chart.coordinates:
        value = field.values[g]
        if value.is_zero():
            continue
        body = latex_polynomial(value)
        if " + " in body or " - " in body:
            body = rf"\left({body}\right)"
        pieces.append(rf"{body}\,\frac{{\partial}}{{\partial {latex_name(g.name)}}}")
    if not pieces:
        return "0"
    return " + ".join(pieces)


def latex_relation_report(report: RelationReport) -> str:
    lines = []
    for row in report.rows:
        left = _FIELD_SYMBOLS[row.left]
        right = _FIELD_SYMBOLS[row.right]
        if row.expected.startswith("-"):
            expected = "-" + _FIELD_SYMBOLS[row.expected[1:]]
        else:
            expected = _FIELD_SYMBOLS[row.expected]
        mark = r"\;\checkmark" if row.ok else r"\;\times"
        lines.append(f"[{left}, {right}] = {expected} {mark}")
    return "\n".join(lines)


def emit_latex(obj) -> str:
    """LaTeX for a morphism, jet, vector field or relation report."""
    if isinstance(obj, SuperPolynomial):
        return latex_polynomial(obj)
    if isinstance(obj, Morphism):
        return latex_morphism(obj)
    if isinstance(obj, Jet):
        return latex_jet(obj)
    if isinstance(obj, VectorField):
        return latex_field(obj)
    if isinstance(obj, RelationReport):
        return latex_relation_report(obj)
    raise TypeError(f"cannot emit LaTeX for values of type {type(obj).__name__}")
