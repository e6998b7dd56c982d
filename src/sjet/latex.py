"""LaTeX rendering with dotted derivative notation.

Jet coordinates print as x, \\dot{x}, \\ddot{x} and x^{(r)} for r >= 3;
differentials put a d in front. Term order matches the canonical text
printer, so LaTeX output is deterministic too.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fields import VectorField
from .geometry import Jet, Morphism
from .grassmann import SuperPolynomial
from .printer import coordinate_rows, render_terms

# with DOTALL every nonempty name matches, so every generator name does
_NAME = re.compile(r"^(d\.)?(.+?)(?:@(\d+))?$", re.DOTALL)


def latex_name(name: str) -> str:
    differential, base, order = _NAME.match(name).groups()
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


def latex_field(field: VectorField) -> str:
    pieces = []
    for name, body in coordinate_rows(field, latex_polynomial):
        if body == "0":  # only the zero polynomial renders as 0
            continue
        if " + " in body or " - " in body:
            body = rf"\left({body}\right)"
        pieces.append(rf"{body}\,\frac{{\partial}}{{\partial {latex_name(name)}}}")
    if not pieces:
        return "0"
    return " + ".join(pieces)


def emit_latex(obj) -> str:
    """LaTeX for a polynomial, morphism, jet or vector field."""
    if isinstance(obj, SuperPolynomial):
        return latex_polynomial(obj)
    if isinstance(obj, Morphism):
        rows = coordinate_rows(obj, latex_polynomial)
        return "\n".join(f"{latex_name(n)} = {v}" for n, v in rows)
    if isinstance(obj, Jet):
        rows = coordinate_rows(obj, latex_polynomial)
        return "\n".join(rf"{latex_name(n)}\colon ({', '.join(v)})" for n, v in rows)
    if isinstance(obj, VectorField):
        return latex_field(obj)
    raise TypeError(f"cannot emit LaTeX for values of type {type(obj).__name__}")
