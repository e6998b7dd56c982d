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
from .prolongation import antitangent_chart, prolong_chart


class SourceSpan(NamedTuple):
    start: int
    end: int
    line: int
    column: int
    end_line: int
    end_column: int

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        first, last = (self, other) if self.start <= other.start else (other, self)
        return SourceSpan(
            first.start, last.end, first.line, first.column,
            last.end_line, last.end_column,
        )


class Diagnostic(NamedTuple):
    message: str
    span: SourceSpan

    @property
    def line(self) -> int:
        return self.span.line

    @property
    def column(self) -> int:
        return self.span.column

    def __str__(self):
        return f"{self.line}:{self.column}: {self.message}"


class DslError(SjetError):
    """A parse or validation failure, carrying located diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


_TOKEN = re.compile(
    r"""
      (?P<COMMENT>\#[^\n]*)
    | (?P<WS>\s+)
    | (?P<DDT>d/d)
    | (?P<ARROW>->)
    | (?P<NUMBER>\d+(?:/\d+)?)
    | (?P<IDENT>(?:d\.)?[A-Za-z_][A-Za-z0-9_]*(?:@\d+)?)
    | (?P<PUNCT>[(){},;:=+\-*^|])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    text: str
    span: SourceSpan


def _lex(text: str) -> list[Token]:
    tokens = []
    pos = 0
    line = 1
    column = 1

    def advance(snippet: str):
        nonlocal line, column
        newlines = snippet.count("\n")
        if newlines:
            line += newlines
            column = len(snippet) - snippet.rfind("\n")
        else:
            column += len(snippet)

    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            span = SourceSpan(pos, pos + 1, line, column, line, column + 1)
            raise DslError([Diagnostic(f"unexpected character {text[pos]!r}", span)])
        kind = match.lastgroup
        snippet = match.group()
        start_line, start_column = line, column
        advance(snippet)
        if kind not in ("COMMENT", "WS"):
            span = SourceSpan(
                match.start(), match.end(), start_line, start_column, line, column
            )
            if kind == "PUNCT":
                kind = snippet
            tokens.append(Token(kind, snippet, span))
        pos = match.end()
    end_span = SourceSpan(len(text), len(text), line, column, line, column)
    tokens.append(Token("EOF", "", end_span))
    return tokens


class Document:
    """Parsed declarations, in source order, resolved to engine objects."""

    def __init__(self):
        self.declarations: list[tuple[str, str]] = []
        self.charts: dict[str, Chart] = {}
        self.params: dict[str, ParameterAlgebra] = {}
        self.morphisms: dict[str, Morphism] = {}
        self.curves: dict[str, SCurve] = {}
        self.fields: dict[str, VectorField] = {}
        self.field_orders: dict[str, int | None] = {}
        self.field_bases: dict[str, str] = {}
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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open "(" and unary "-" in the current expression

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def fail(self, message: str, span: SourceSpan):
        raise DslError([Diagnostic(message, span)])

    def enter(self, token: Token):
        """Open one more level of nesting at ``token``; refuse past the limit."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(
                f"expression nested deeper than {MAX_NESTING} levels "
                "of '(' or unary '-'",
                token.span,
            )

    def expect(self, kind: str, what: str | None = None) -> Token:
        token = self.peek()
        if token.kind != kind:
            expected = what or f"'{kind}'"
            found = token.text or "end of input"
            self.fail(f"expected {expected}, found {found!r}", token.span)
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        token = self.peek()
        if token.kind != "IDENT" or token.text != word:
            found = token.text or "end of input"
            self.fail(f"expected '{word}', found {found!r}", token.span)
        return self.advance()

    def bounded(self, token: Token, limit: int, what: str) -> int:
        """The whole number that ``token`` spells; past ``limit`` a located error."""
        digits = token.text.lstrip("0") or "0"
        if len(digits) > len(str(limit)) or int(digits) > limit:
            self.fail(f"{what} exceeds the limit of {limit}", token.span)
        return int(digits)

    def expect_order(self) -> int:
        token = self.expect("NUMBER", "a nonnegative order")
        if "/" in token.text:
            self.fail("the order must be an integer", token.span)
        return self.bounded(token, MAX_ORDER, "the jet order")

    def accept_keyword(self, word: str) -> bool:
        token = self.peek()
        if token.kind == "IDENT" and token.text == word:
            self.advance()
            return True
        return False

    # -- document ---------------------------------------------------------

    def parse_document(self) -> Document:
        doc = Document()
        while self.peek().kind != "EOF":
            keyword = self.advance()
            if keyword.kind != "IDENT":
                self.fail(
                    f"expected a declaration, found {keyword.text!r}", keyword.span
                )
            if keyword.text not in _DECLARATIONS:
                self.fail(
                    f"unknown declaration keyword {keyword.text!r}", keyword.span
                )
            what, table, method = _DECLARATIONS[keyword.text]
            name = self.expect("IDENT", f"a {what} name")
            if name.text in getattr(doc, table):
                self.fail(f"duplicate {what} name '{name.text}'", name.span)
            getattr(self, method)(doc, keyword, name.text)
        return doc

    def declare(self, doc: Document, keyword: Token, name: str, spans, build, *args):
        """Record ``build(*args)`` as the declaration that ``keyword`` opened.

        The engine constructor ``build`` makes every check; an error it raises
        is located at ``spans[error.subject]``, the span where the name it is
        about was written, or else at the whole declaration.
        """
        whole = keyword.span.merge(self.tokens[self.pos - 1].span)
        try:
            value = build(*args)
        except SjetError as exc:
            self.fail(str(exc), spans.get(exc.subject, whole))
        getattr(doc, _DECLARATIONS[keyword.text][1])[name] = value
        doc.declarations.append((keyword.text, name))
        doc.spans[(keyword.text, name)] = whole

    def expect_parity(self) -> Parity:
        token = self.expect("IDENT", "'even' or 'odd'")
        if token.text not in ("even", "odd"):
            self.fail(f"expected 'even' or 'odd', found {token.text!r}", token.span)
        return EVEN if token.text == "even" else ODD

    def parse_generators(self, doc: Document, keyword: Token, name: str):
        """The list of generators of a chart or of a parameter algebra."""
        self.expect("(")
        generators = []
        spans = {}
        while True:
            token = self.expect("IDENT", "a coordinate name")
            if token.text == _RESERVED_TIME:
                self.fail("'t' is reserved for the time variable", token.span)
            if "@" in token.text or token.text.startswith("d."):
                self.fail(
                    f"declared names may not contain '@' or a 'd.' prefix: "
                    f"{token.text!r}",
                    token.span,
                )
            self.expect(":")
            generators.append(Generator(token.text, self.expect_parity()))
            spans[token.text] = token.span
            token = self.advance()
            if token.kind == ")":
                break
            if token.kind != ",":
                self.fail(
                    f"expected ',' or ')', found {token.text or 'end of input'!r}",
                    token.span,
                )
        self.expect(";")
        build = Chart if keyword.text == "chart" else ParameterAlgebra
        self.declare(doc, keyword, name, spans, build, name, tuple(generators))

    def lookup_chart(self, doc: Document, token: Token) -> Chart:
        chart = doc.charts.get(token.text)
        if chart is None:
            self.fail(f"chart '{token.text}' is not declared", token.span)
        return chart

    def parse_assignments(self, chart: Chart, resolver, ddt: bool = False):
        """Parse '{' ('d/d'? lhs '=' expr ';')+ '}' with a resolver for expr names.

        Every left-hand name must be a coordinate of ``chart``, assigned at
        most once. Returns the values by coordinate and, by name, the span of
        each left-hand name.
        """
        self.expect("{")
        values: dict[Generator, SuperPolynomial] = {}
        spans: dict[str, SourceSpan] = {}
        while True:
            token = self.peek()
            if token.kind == "}":
                if not values:
                    self.fail("a body needs at least one assignment", token.span)
                self.advance()
                return values, spans
            if ddt:
                self.expect("DDT", "'d/d'")
            lhs = self.expect("IDENT", "a coordinate name")
            try:
                coordinate = chart.coordinate(lhs.text)
            except SjetError:
                self.fail(
                    f"'{lhs.text}' is not a coordinate of chart '{chart.name}'",
                    lhs.span,
                )
            if lhs.text in spans:
                self.fail(f"coordinate '{lhs.text}' is assigned twice", lhs.span)
            spans[lhs.text] = lhs.span
            self.expect("=")
            values[coordinate] = self.parse_expr(resolver)
            self.expect(";")

    def parse_morphism(self, doc: Document, keyword: Token, name: str):
        self.expect(":")
        source = self.lookup_chart(doc, self.expect("IDENT", "a source chart"))
        self.expect("ARROW", "'->'")
        target = self.lookup_chart(doc, self.expect("IDENT", "a target chart"))
        resolver = {g.name: g for g in source.coordinates}
        values, spans = self.parse_assignments(target, resolver)
        self.declare(doc, keyword, name, spans, Morphism, source, target, values)

    def parse_curve(self, doc: Document, keyword: Token, name: str):
        self.expect_keyword("on")
        chart = self.lookup_chart(doc, self.expect("IDENT", "a chart name"))
        self.expect_keyword("params")
        params_token = self.expect("IDENT", "a parameter algebra name")
        params = doc.params.get(params_token.text)
        if params is None:
            self.fail(
                f"parameter algebra '{params_token.text}' is not declared",
                params_token.span,
            )
        self.expect_keyword("order")
        order = self.expect_order()
        resolver = {g.name: g for g in params.generators}
        resolver[_RESERVED_TIME] = TIME
        values, spans = self.parse_assignments(chart, resolver)
        components = {
            g: TimeSeries.from_polynomial(value, order) for g, value in values.items()
        }
        self.declare(
            doc, keyword, name, spans, SCurve, chart, params, order, components
        )

    def parse_field(self, doc: Document, keyword: Token, name: str):
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
        values, spans = self.parse_assignments(chart, resolver, ddt=True)
        self.declare(doc, keyword, name, spans, VectorField, chart, parity, values)
        doc.field_orders[name] = order
        doc.field_bases[name] = base.name

    # -- expressions --------------------------------------------------------

    def parse_expr(self, resolver) -> SuperPolynomial:
        value = self.parse_term(resolver)
        while True:
            token = self.peek()
            if token.kind == "+":
                self.advance()
                value = value + self.parse_term(resolver)
            elif token.kind == "-":
                self.advance()
                value = value - self.parse_term(resolver)
            else:
                return value

    def parse_term(self, resolver) -> SuperPolynomial:
        value = self.parse_factor(resolver)
        while self.peek().kind == "*":
            self.advance()
            value = value * self.parse_factor(resolver)
        return value

    def parse_factor(self, resolver) -> SuperPolynomial:
        token = self.peek()
        if token.kind == "-":
            self.advance()
            self.enter(token)
            value = -self.parse_factor(resolver)
            self.depth -= 1
            return value
        return self.parse_power(resolver)

    def parse_power(self, resolver) -> SuperPolynomial:
        value = self.parse_atom(resolver)
        while self.peek().kind == "^":
            self.advance()
            exponent = self.expect("NUMBER", "a nonnegative integer power")
            if "/" in exponent.text:
                self.fail("powers must be nonnegative integers", exponent.span)
            value = value ** self.bounded(exponent, MAX_EXPONENT, "the exponent")
        return value

    def parse_atom(self, resolver) -> SuperPolynomial:
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            if max(map(len, token.text.split("/"))) > MAX_DIGITS:
                self.fail(
                    f"a rational literal exceeds the limit of {MAX_DIGITS} digits",
                    token.span,
                )
            try:
                value = Fraction(token.text)
            except ZeroDivisionError:
                self.fail("rational literal has denominator zero", token.span)
            return SuperPolynomial.scalar(value)
        if token.kind == "IDENT":
            self.advance()
            generator = resolver.get(token.text)
            if generator is None:
                self.fail(f"undeclared identifier '{token.text}'", token.span)
            return poly(generator)
        if token.kind == "(":
            self.advance()
            self.enter(token)
            value = self.parse_expr(resolver)
            self.expect(")")
            self.depth -= 1
            return value
        found = token.text or "end of input"
        self.fail(f"expected an expression, found {found!r}", token.span)


def parse(text: str) -> Document:
    """Parse a document, raising DslError with located diagnostics."""
    return _Parser(_lex(text)).parse_document()


def format_document(doc: Document) -> str:
    """Canonical re-rendering of a document; parsing it back is the identity."""
    from .printer import format_polynomial, format_series

    def coord_list(generators) -> str:
        return ", ".join(f"{g.name}: {g.parity}" for g in generators)

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
            lines = [f"morphism {name} : {phi.source.name} -> {phi.target.name} {{"]
            for g in phi.target.coordinates:
                lines.append(f"  {g.name} = {format_polynomial(phi.assignment[g])};")
            lines.append("}")
            blocks.append("\n".join(lines))
        elif kind == "curve":
            curve = doc.curves[name]
            lines = [
                f"curve {name} on {curve.chart.name} params {curve.params.name} "
                f"order {curve.order} {{"
            ]
            for g in curve.chart.coordinates:
                lines.append(f"  {g.name} = {format_series(curve.components[g])};")
            lines.append("}")
            blocks.append("\n".join(lines))
        elif kind == "field":
            vf = doc.fields[name]
            order = doc.field_orders[name]
            base = doc.field_bases[name]
            head = f"field {name} on {base}"
            if order is not None:
                head += f" order {order}"
            head += f" parity {vf.parity} {{"
            lines = [head]
            nonzero = [g for g in vf.chart.coordinates if not vf.values[g].is_zero()]
            if not nonzero:
                nonzero = [vf.chart.coordinates[0]]
            for g in nonzero:
                lines.append(f"  d/d {g.name} = {format_polynomial(vf.values[g])};")
            lines.append("}")
            blocks.append("\n".join(lines))
    return "\n".join(blocks) + ("\n" if blocks else "")
