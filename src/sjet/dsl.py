"""Surface syntax for charts, morphisms, curves and fields.

Grammar (ASCII source, "#" starts a line comment):

    document := decl* ;
    decl     := chart | params | morphism | curve | field ;
    chart    := "chart" IDENT "(" coord ("," coord)* ")" ";" ;
    coord    := IDENT ":" ("even" | "odd") ;
    params   := "params" IDENT "(" coord ("," coord)* ")" ";" ;
    morphism := "morphism" IDENT ":" IDENT "->" IDENT
                "{" (IDENT "=" expr ";")+ "}" ;
    curve    := "curve" IDENT "on" IDENT "params" IDENT "order" INT
                "{" (IDENT "=" expr ";")+ "}" ;
    field    := "field" IDENT "on" IDENT ("order" INT)? "parity"
                ("even" | "odd") "{" ("d/d" IDENT "=" expr ";")+ "}" ;

Expressions use "+", "-", "*", "^" with nonnegative integer powers,
rational literals "p/q", and parentheses; juxtaposition is not
multiplication. An expression may nest at most MAX_NESTING (100) levels of
"(" and unary "-", counted together; deeper input is a located error. An
exponent may be at most MAX_EXPONENT (1000) and a curve or field order at
most MAX_ORDER (100); a larger one is a located error at its number, and
so is a literal whose numerator or denominator has more than MAX_DIGITS
(4000) digits.
Curve components may use the reserved time variable "t". Morphism bodies
assign every target coordinate an expression over the source coordinates.
A field without "order" lives on its chart; with "order k" it lives on the
parity-reversed lift of the k-th jet chart, and coordinates missing from its
body get the value zero.

Expressions are normalised into canonical polynomials while parsing, and
every diagnostic carries a span into the source text.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from .errors import SjetError
from .geometry import Chart, Morphism, ParameterAlgebra, SCurve
from .fields import VectorField
from .grassmann import (
    EVEN,
    Generator,
    ODD,
    Parity,
    SuperPolynomial,
    TIME,
    TimeSeries,
    poly,
)
from .prolongation import AntitangentChart, antitangent_chart, prolong_chart


class SourceSpan(NamedTuple):
    start: int
    end: int
    line: int
    column: int
    end_line: int
    end_column: int


class Diagnostic(NamedTuple):
    """A message and where in the source it applies; ``span`` is None, and so
    are ``line`` and ``column``, for an error that has no place in the file."""

    message: str
    span: SourceSpan | None = None

    @property
    def line(self) -> int | None:
        return None if self.span is None else self.span.line

    @property
    def column(self) -> int | None:
        return None if self.span is None else self.span.column

    def __str__(self):
        if self.span is None:
            return self.message
        return f"{self.line}:{self.column}: {self.message}"


class DslError(SjetError):
    """A parse or validation failure, carrying located diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


# The token kinds of the grammar, all ASCII. A punctuation token's kind is
# its text; SKIP (whitespace and comments) makes no token.
_TOKEN = re.compile(
    r"""
      (?P<SKIP>\#[^\n]*|[ \t\n\r\f\v]+)
    | (?P<DDT>d/d)
    | (?P<ARROW>->)
    | (?P<NUMBER>[0-9]+(?:/[0-9]+)?)
    | (?P<IDENT>(?:d\.)?[A-Za-z_][A-Za-z0-9_]*(?:@[0-9]+)?)
    | (?P<PUNCT>[(){},;:=+\-*^|])
    """,
    re.VERBOSE,
)


_Token = tuple[str, str, int, int]  # kind, text, start and end offsets


def _newlines(text: str) -> list[int]:
    """The offsets of the line breaks of ``text``, in order."""
    return [match.start() for match in re.finditer("\n", text)]


def _span(newlines: list[int], start: int, end: int) -> SourceSpan:
    """The span from ``start`` to ``end`` in a text with line breaks at ``newlines``."""
    line = bisect_left(newlines, start)
    end_line = bisect_left(newlines, end, line)
    return SourceSpan(
        start, end,
        line + 1, start - (newlines[line - 1] if line else -1),
        end_line + 1, end - (newlines[end_line - 1] if end_line else -1),
    )


def _lex(text: str) -> Iterator[_Token]:
    """The ``(kind, text, start, end)`` tokens of ``text``, ending with EOF.

    Tokens are made as the parser asks for them, so an unexpected character
    is an error only once the parser reaches it, and an earlier parse error
    is the one reported.
    """
    pos = 0
    for match in _TOKEN.finditer(text):
        start, end = match.span()
        if start != pos:
            break
        pos = end
        kind = match.lastgroup
        if kind != "SKIP":
            snippet = match.group()
            yield (snippet if kind == "PUNCT" else kind, snippet, start, end)
    if pos != len(text):
        span = _span(_newlines(text), pos, pos + 1)
        raise DslError([Diagnostic(f"unexpected character {text[pos]!r}", span)])
    yield ("EOF", "", pos, pos)


class Document:
    """Parsed declarations, in source order, resolved to engine objects."""

    def __init__(self):
        self.declarations: list[tuple[str, str]] = []
        self.charts: dict[str, Chart] = {}
        self.params: dict[str, ParameterAlgebra] = {}
        self.morphisms: dict[str, Morphism] = {}
        self.curves: dict[str, SCurve] = {}
        self.fields: dict[str, VectorField] = {}
        self.spans: dict[tuple[str, str], SourceSpan] = {}


_RESERVED_TIME = "t"

# Per declaration keyword: what its name names, the Document table that
# holds it, and the _Parser method that reads the rest of it.
_DECLARATIONS = {
    "chart": ("chart", "charts", "parse_generators"),
    "params": ("parameter algebra", "params", "parse_generators"),
    "morphism": ("morphism", "morphisms", "parse_morphism"),
    "curve": ("curve", "curves", "parse_curve"),
    "field": ("field", "fields", "parse_field"),
}


# Levels of "(" and unary "-" in one expression. Each "(" costs five frames of
# this recursive-descent parser, so the limit keeps it far from Python's
# recursion limit.
MAX_NESTING = 100

# The largest exponent after "^", and the largest jet order of a curve, of a
# field and of the command line's --order. Each bounds the work and memory
# that one input can ask for: the output of a lift grows with the cube of the
# order (on 2 vCPUs with CPython 3.11, lifting y = x^3 + x takes 0.6 s at
# order 100 and 90 s at order 500).
MAX_EXPONENT = 1000
MAX_ORDER = 100

# The most decimal digits in the numerator or the denominator of a rational
# literal, and of a coefficient that the printer writes out: CPython refuses
# to convert an int of more than 4300 digits to or from text.
MAX_DIGITS = 4000

_RATIONAL = re.compile(r"-?([0-9]+)(?:/([0-9]+))?")


def rational_literal(text: str) -> Fraction:
    """The rational that ``text`` spells as ``-?DIGITS(/DIGITS)?``, in ASCII.

    This is the one check of a rational literal, in a document and in a
    command-line option. Any other spelling, a part of more than MAX_DIGITS
    digits and a zero denominator are each a ValueError that says which.
    """
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError("expected a rational p/q")
    if max(len(part) for part in match.groups("")) > MAX_DIGITS:
        raise ValueError(f"a rational literal exceeds the limit of {MAX_DIGITS} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("rational literal has denominator zero") from None


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.token = None  # the next token, once the lexer has made it
        self.end = 0  # where the last token taken ends
        self.newlines = _newlines(text)
        self.depth = 0  # open "(" and unary "-" in the current expression

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> _Token:
        token = self.token
        if token is None:
            token = self.token = next(self.tokens)
        return token

    def advance(self) -> _Token:
        token = self.peek()
        if token[0] != "EOF":
            self.token = None
            self.end = token[3]
        return token

    def fail(self, message: str, token: _Token):
        raise DslError([Diagnostic(message, _span(self.newlines, *token[2:]))])

    def enter(self, token: _Token):
        """Open one more level of nesting at ``token``; refuse past the limit."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(
                f"expression nested deeper than {MAX_NESTING} levels "
                "of '(' or unary '-'",
                token,
            )

    def expect(self, kind: str, what: str | None = None) -> _Token:
        token = self.peek()
        if token[0] != kind:
            expected = what or f"'{kind}'"
            found = token[1] or "end of input"
            self.fail(f"expected {expected}, found {found!r}", token)
        return self.advance()

    def expect_keyword(self, word: str) -> _Token:
        token = self.peek()
        if token[0] != "IDENT" or token[1] != word:
            found = token[1] or "end of input"
            self.fail(f"expected '{word}', found {found!r}", token)
        return self.advance()

    def bounded(self, token: _Token, limit: int, what: str) -> int:
        """The whole number that ``token`` spells; past ``limit`` a located error."""
        digits = token[1].lstrip("0") or "0"
        if len(digits) > len(str(limit)) or int(digits) > limit:
            self.fail(f"{what} exceeds the limit of {limit}", token)
        return int(digits)

    def expect_order(self) -> int:
        token = self.expect("NUMBER", "a nonnegative order")
        if "/" in token[1]:
            self.fail("the order must be an integer", token)
        return self.bounded(token, MAX_ORDER, "the jet order")

    def accept_keyword(self, word: str) -> bool:
        token = self.peek()
        if token[0] == "IDENT" and token[1] == word:
            self.advance()
            return True
        return False

    # -- document ---------------------------------------------------------

    def parse_document(self) -> Document:
        doc = Document()
        while self.peek()[0] != "EOF":
            keyword = self.advance()
            if keyword[0] != "IDENT":
                self.fail(f"expected a declaration, found {keyword[1]!r}", keyword)
            if keyword[1] not in _DECLARATIONS:
                self.fail(f"unknown declaration keyword {keyword[1]!r}", keyword)
            what, table, method = _DECLARATIONS[keyword[1]]
            name = self.expect("IDENT", f"a {what} name")
            if name[1] in getattr(doc, table):
                self.fail(f"duplicate {what} name '{name[1]}'", name)
            getattr(self, method)(doc, keyword, name[1])
        return doc

    def declare(self, doc: Document, keyword: _Token, name: str, where, build, *args):
        """Record ``build(*args)`` as the declaration that ``keyword`` opened.

        The engine constructor ``build`` makes every check; an error it raises
        is located at ``where[error.subject]``, the token where the name it is
        about was written, or else at the whole declaration.
        """
        whole = ("DECL", keyword[1], keyword[2], self.end)
        try:
            value = build(*args)
        except SjetError as exc:
            self.fail(str(exc), where.get(exc.subject, whole))
        getattr(doc, _DECLARATIONS[keyword[1]][1])[name] = value
        doc.declarations.append((keyword[1], name))
        doc.spans[(keyword[1], name)] = _span(self.newlines, *whole[2:])

    def expect_parity(self) -> Parity:
        token = self.expect("IDENT", "'even' or 'odd'")
        if token[1] not in ("even", "odd"):
            self.fail(f"expected 'even' or 'odd', found {token[1]!r}", token)
        return EVEN if token[1] == "even" else ODD

    def parse_generators(self, doc: Document, keyword: _Token, name: str):
        """The list of generators of a chart or of a parameter algebra."""
        self.expect("(")
        generators = []
        where = {}
        while True:
            token = self.expect("IDENT", "a coordinate name")
            text = token[1]
            if text == _RESERVED_TIME:
                self.fail("'t' is reserved for the time variable", token)
            if "@" in text or text.startswith("d."):
                self.fail(
                    f"declared names may not contain '@' or a 'd.' prefix: {text!r}",
                    token,
                )
            self.expect(":")
            generators.append(Generator(text, self.expect_parity()))
            where[text] = token
            token = self.advance()
            if token[0] == ")":
                break
            if token[0] != ",":
                self.fail(
                    f"expected ',' or ')', found {token[1] or 'end of input'!r}",
                    token,
                )
        self.expect(";")
        build = Chart if keyword[1] == "chart" else ParameterAlgebra
        self.declare(doc, keyword, name, where, build, name, tuple(generators))

    def lookup_chart(self, doc: Document, token: _Token) -> Chart:
        chart = doc.charts.get(token[1])
        if chart is None:
            self.fail(f"chart '{token[1]}' is not declared", token)
        return chart

    def parse_assignments(self, chart: Chart, resolver, ddt: bool = False):
        """Parse '{' ('d/d'? lhs '=' expr ';')+ '}' with a resolver for expr names.

        Every left-hand name must be a coordinate of ``chart``, assigned at
        most once. Returns the values by coordinate and, by name, the token
        of each left-hand name.
        """
        self.expect("{")
        values: dict[Generator, SuperPolynomial] = {}
        where: dict[str, _Token] = {}
        while True:
            token = self.peek()
            if token[0] == "}":
                if not values:
                    self.fail("a body needs at least one assignment", token)
                self.advance()
                return values, where
            if ddt:
                self.expect("DDT", "'d/d'")
            lhs = self.expect("IDENT", "a coordinate name")
            text = lhs[1]
            try:
                coordinate = chart.coordinate(text)
            except SjetError:
                self.fail(f"'{text}' is not a coordinate of chart '{chart.name}'", lhs)
            if text in where:
                self.fail(f"coordinate '{text}' is assigned twice", lhs)
            where[text] = lhs
            self.expect("=")
            values[coordinate] = self.parse_expr(resolver)
            self.expect(";")

    def parse_morphism(self, doc: Document, keyword: _Token, name: str):
        self.expect(":")
        source = self.lookup_chart(doc, self.expect("IDENT", "a source chart"))
        self.expect("ARROW", "'->'")
        target = self.lookup_chart(doc, self.expect("IDENT", "a target chart"))
        resolver = {g.name: g for g in source.coordinates}
        values, where = self.parse_assignments(target, resolver)
        self.declare(doc, keyword, name, where, Morphism, source, target, values)

    def parse_curve(self, doc: Document, keyword: _Token, name: str):
        self.expect_keyword("on")
        chart = self.lookup_chart(doc, self.expect("IDENT", "a chart name"))
        self.expect_keyword("params")
        params_token = self.expect("IDENT", "a parameter algebra name")
        params = doc.params.get(params_token[1])
        if params is None:
            self.fail(
                f"parameter algebra '{params_token[1]}' is not declared", params_token
            )
        self.expect_keyword("order")
        order = self.expect_order()
        resolver = {g.name: g for g in params.generators}
        resolver[_RESERVED_TIME] = TIME
        values, where = self.parse_assignments(chart, resolver)
        components = {
            g: TimeSeries.from_polynomial(value, order) for g, value in values.items()
        }
        self.declare(
            doc, keyword, name, where, SCurve, chart, params, order, components
        )

    def parse_field(self, doc: Document, keyword: _Token, name: str):
        self.expect_keyword("on")
        base = self.lookup_chart(doc, self.expect("IDENT", "a chart name"))
        order = self.expect_order() if self.accept_keyword("order") else None
        self.expect_keyword("parity")
        parity = self.expect_parity()
        if order is None:
            chart = base
        else:
            chart = antitangent_chart(prolong_chart(base, order))
        resolver = {g.name: g for g in chart.coordinates}
        values, where = self.parse_assignments(chart, resolver, ddt=True)
        self.declare(doc, keyword, name, where, VectorField, chart, parity, values)

    # -- expressions --------------------------------------------------------

    def parse_expr(self, resolver) -> SuperPolynomial:
        value = self.parse_term(resolver)
        while True:
            kind = self.peek()[0]
            if kind == "+":
                self.advance()
                value = value + self.parse_term(resolver)
            elif kind == "-":
                self.advance()
                value = value - self.parse_term(resolver)
            else:
                return value

    def parse_term(self, resolver) -> SuperPolynomial:
        value = self.parse_factor(resolver)
        while self.peek()[0] == "*":
            self.advance()
            value = value * self.parse_factor(resolver)
        return value

    def parse_factor(self, resolver) -> SuperPolynomial:
        token = self.peek()
        if token[0] == "-":
            self.advance()
            self.enter(token)
            value = -self.parse_factor(resolver)
            self.depth -= 1
            return value
        return self.parse_power(resolver)

    def parse_power(self, resolver) -> SuperPolynomial:
        value = self.parse_atom(resolver)
        while self.peek()[0] == "^":
            self.advance()
            exponent = self.expect("NUMBER", "a nonnegative integer power")
            if "/" in exponent[1]:
                self.fail("powers must be nonnegative integers", exponent)
            value = value ** self.bounded(exponent, MAX_EXPONENT, "the exponent")
        return value

    def parse_atom(self, resolver) -> SuperPolynomial:
        token = self.peek()
        kind, text = token[0], token[1]
        if kind == "NUMBER":
            self.advance()
            try:
                value = rational_literal(text)
            except ValueError as exc:
                self.fail(str(exc), token)
            return SuperPolynomial.scalar(value)
        if kind == "IDENT":
            self.advance()
            generator = resolver.get(text)
            if generator is None:
                self.fail(f"undeclared identifier '{text}'", token)
            return poly(generator)
        if kind == "(":
            self.advance()
            self.enter(token)
            value = self.parse_expr(resolver)
            self.expect(")")
            self.depth -= 1
            return value
        self.fail(f"expected an expression, found {text or 'end of input'!r}", token)


def parse(text: str) -> Document:
    """Parse a document, raising DslError with located diagnostics."""
    return _Parser(text).parse_document()


def format_document(doc: Document) -> str:
    """Canonical re-rendering of a document; parsing it back is the identity."""
    from .printer import coordinate_rows, format_polynomial, format_series

    def coord_list(generators) -> str:
        return ", ".join(f"{g.name}: {g.parity}" for g in generators)

    def body(head: str, rows, label: str = "") -> str:
        return "\n".join([head, *(f"  {label}{n} = {v};" for n, v in rows), "}"])

    blocks = []
    for kind, name in doc.declarations:
        if kind == "chart":
            chart = doc.charts[name]
            blocks.append(f"chart {name} ({coord_list(chart.coordinates)});")
        elif kind == "params":
            algebra = doc.params[name]
            blocks.append(f"params {name} ({coord_list(algebra.generators)});")
        elif kind == "morphism":
            phi = doc.morphisms[name]
            head = f"morphism {name} : {phi.source.name} -> {phi.target.name} {{"
            blocks.append(body(head, coordinate_rows(phi, format_polynomial)))
        elif kind == "curve":
            curve = doc.curves[name]
            head = (
                f"curve {name} on {curve.chart.name} params {curve.params.name} "
                f"order {curve.order} {{"
            )
            blocks.append(body(head, coordinate_rows(curve, format_series)))
        elif kind == "field":
            vf = doc.fields[name]
            on = vf.chart.name
            # a field declared with "order k" lives on PiT(Tk(base))
            if isinstance(vf.chart, AntitangentChart):
                on = f"{vf.chart.base.base.name} order {vf.chart.base.order}"
            head = f"field {name} on {on} parity {vf.parity} {{"
            rows = coordinate_rows(vf, format_polynomial)
            # only the zero polynomial renders as 0; an empty body cannot parse
            nonzero = [(n, v) for n, v in rows if v != "0"] or rows[:1]
            blocks.append(body(head, nonzero, "d/d "))
    return "\n".join(blocks) + ("\n" if blocks else "")
