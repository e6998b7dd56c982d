"""Deterministic canonical text rendering.

Terms are ordered by graded lexicographic comparison of the even exponent
vectors (higher total degree first, then earlier generators with higher
powers first) and, on ties, lexicographically by the odd factor tuple, the
shorter or earlier subset first. Identical inputs therefore always print as
identical text.
"""

from __future__ import annotations

from fractions import Fraction

from .dsl import MAX_DIGITS
from .errors import DomainError
from .fields import VectorField
from .geometry import Jet, Morphism, SCurve, SPoint
from .grassmann import Monomial, SuperPolynomial, TIME, TimeSeries


def _monomial_key(m: Monomial) -> tuple:
    """The sort key of a monomial in canonical term order.

    Even parts of equal degree never differ only in length, since one that
    extends another has the higher degree, so plain tuple order suffices.
    """
    even = tuple((g.index, -e) for g, e in m.even)
    return (-m.even_degree, even, tuple(g.index for g in m.odd))


def sorted_terms(p: SuperPolynomial) -> list[tuple[Monomial, Fraction]]:
    return sorted(p.items(), key=lambda item: _monomial_key(item[0]))


# The smallest numerator or denominator that has more than MAX_DIGITS digits.
_TOO_LONG = 10**MAX_DIGITS


def render_terms(p: SuperPolynomial, name, power: str, scalar, join: str) -> str:
    """Render p term by term in canonical order.

    ``name(g)`` spells a generator, ``power.format(body, e)`` an even factor
    with exponent e > 1, ``scalar(c)`` a positive coefficient, and ``join``
    separates the factors of one term. A unit coefficient is left out; the
    sign of each term is written in front of it. A coefficient whose
    numerator or denominator has more than MAX_DIGITS digits is a DomainError.
    """
    terms = sorted_terms(p)
    if not terms:
        return "0"
    pieces = []
    for i, (mono, coeff) in enumerate(terms):
        factors = [
            name(g) if e == 1 else power.format(name(g), e) for g, e in mono.even
        ]
        factors.extend(name(g) for g in mono.odd)
        magnitude = abs(coeff)
        if magnitude.numerator >= _TOO_LONG or magnitude.denominator >= _TOO_LONG:
            raise DomainError(f"a coefficient exceeds the limit of {MAX_DIGITS} digits")
        if not factors:
            body = scalar(magnitude)
        elif magnitude == 1:
            body = join.join(factors)
        else:
            body = join.join([scalar(magnitude)] + factors)
        if i == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces)


def format_polynomial(p: SuperPolynomial) -> str:
    return render_terms(p, lambda g: g.name, "{}^{}", str, "*")


def format_series(series: TimeSeries) -> str:
    """Render a series as a canonical polynomial in the time variable."""
    # coefficients never mention TIME, which is declared first, so t^r leads
    # the even part of each of their monomials and no two terms collide
    terms = {}
    for r, c in enumerate(series.coefficients):
        for m, coeff in c.items():
            terms[Monomial(((TIME, r),) + m.even if r else m.even, m.odd)] = coeff
    return format_polynomial(SuperPolynomial(terms))


def coordinate_rows(obj, render) -> list[tuple[str, object]]:
    """``(name, render(value))`` for each coordinate of ``obj``, in chart order.

    The coordinates are the target's of a Morphism and the chart's of an
    SPoint, SCurve, Jet or VectorField; a jet's value is the list of its
    rendered coefficients.
    """
    if isinstance(obj, Morphism):
        return [(g.name, render(obj.assignment[g])) for g in obj.target.coordinates]
    if isinstance(obj, Jet):
        return [
            (g.name, [render(c) for c in obj.coefficients[g]])
            for g in obj.chart.coordinates
        ]
    values = obj.components if isinstance(obj, SCurve) else obj.values
    return [(g.name, render(values[g])) for g in obj.chart.coordinates]


def format_morphism(obj) -> str:
    """One ``name = value`` line per coordinate of a Morphism or an SPoint."""
    return "\n".join(f"{n} = {v}" for n, v in coordinate_rows(obj, format_polynomial))


def format_jet(jet: Jet) -> str:
    rows = coordinate_rows(jet, format_polynomial)
    return "\n".join(f"{n}: ({', '.join(v)})" for n, v in rows)


def format_field(field: VectorField) -> str:
    rows = coordinate_rows(field, format_polynomial)
    return "\n".join(f"d/d {n} = {v}" for n, v in rows)


def print_canonical(obj) -> str:
    """Canonical text of any printable engine value."""
    from .dsl import Document, format_document

    if isinstance(obj, Document):
        return format_document(obj)
    if isinstance(obj, SuperPolynomial):
        return format_polynomial(obj)
    if isinstance(obj, TimeSeries):
        return format_series(obj)
    if isinstance(obj, (Morphism, SPoint)):
        return format_morphism(obj)
    if isinstance(obj, SCurve):
        return "\n".join(f"{n} = {v}" for n, v in coordinate_rows(obj, format_series))
    if isinstance(obj, Jet):
        return format_jet(obj)
    if isinstance(obj, VectorField):
        return format_field(obj)
    raise TypeError(f"cannot print values of type {type(obj).__name__}")
