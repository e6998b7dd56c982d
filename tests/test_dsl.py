"""Surface syntax, diagnostics, canonical printing and LaTeX output."""

import re
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from sjet import (
    Chart,
    DslError,
    EVEN,
    Generator,
    Morphism,
    ODD,
    ParameterAlgebra,
    SCurve,
    SPoint,
    TimeSeries,
    antitangent_chart,
    emit_latex,
    format_document,
    jet_of_curve,
    normalize,
    parse,
    poly,
    print_canonical,
    prolong_chart,
    prolong_morphism,
    verify_relations,
)
from sjet.cli import run
from sjet.dsl import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_ORDER,
    Diagnostic,
    SourceSpan,
    _lex,
    _newlines,
    _span,
)
from sjet.printer import sorted_terms
from support import oracle_lex, rand_document_text, rand_monomial, seeded


class TestParsing:
    def test_single_chart(self):
        doc = parse("chart M (x: even, th: odd);")
        assert doc.charts["M"].dimension == (1, 1)

    def test_morphism_bodies_become_polynomials(self):
        doc = parse(
            "chart M (x: even, th: odd);\n"
            "morphism f : M -> M { x = x^2; th = x*th; }"
        )
        chart = doc.charts["M"]
        x = chart.coordinate("x")
        th = chart.coordinate("th")
        f = doc.morphisms["f"]
        assert f.assignment[x] == poly(x) ** 2
        assert f.assignment[th] == poly(x) * poly(th)

    def test_odd_factors_normalise_while_parsing(self):
        doc = parse(
            "chart M (a: odd, b: odd);\n"
            "morphism f : M -> M { a = 0; b = 0; }\n"
            "field D on M parity odd { d/d a = b*a; }"
        )
        chart = doc.charts["M"]
        a = chart.coordinate("a")
        b = chart.coordinate("b")
        assert doc.fields["D"].values[a] == -(poly(a) * poly(b))

    def test_curves_read_the_time_variable(self):
        doc = parse(
            "chart M (x: even);\n"
            "params P (e1: odd, e2: odd);\n"
            "curve g on M params P order 2 {\n"
            "  x = 1 + 2*t + e1*e2*t^2;\n"
            "}"
        )
        curve = doc.curves["g"]
        x = doc.charts["M"].coordinate("x")
        e1 = doc.params["P"].generators[0]
        e2 = doc.params["P"].generators[1]
        series = curve.components[x]
        assert series.coefficients[1] == 2 * poly(e1) ** 0
        assert series.coefficients[2] == poly(e1) * poly(e2)

    def test_fields_with_order_live_on_the_double_lift(self):
        doc = parse(
            "chart M (x: even);\n"
            "field D on M order 1 parity odd {\n"
            "  d/d x@0 = d.x@0;\n"
            "}"
        )
        field = doc.fields["D"]
        expected_chart = antitangent_chart(
            prolong_chart(doc.charts["M"], 1)
        )
        assert field.chart is expected_chart
        x1 = expected_chart.coordinate("x@1")
        assert field.values[x1].is_zero()

    def test_comments_and_whitespace_are_skipped(self):
        doc = parse("# heading\nchart M (x: even); # trailing\n")
        assert "M" in doc.charts


class TestDiagnostics:
    def _diag(self, text):
        with pytest.raises(DslError) as exc:
            parse(text)
        return exc.value.diagnostics[0]

    def test_parity_violation_points_at_the_expression(self):
        d = self._diag(
            "chart M (x: even, th: odd);\n"
            "morphism g : M -> M { x = th; th = th; }"
        )
        assert "parity violation" in d.message
        assert d.line == 2
        assert d.column == 23

    def test_missing_assignment_is_reported(self):
        d = self._diag(
            "chart M (x: even, th: odd);\n"
            "chart N (y: even, xi: odd);\n"
            "morphism f : M -> N { y = x; }"
        )
        assert "assigns nothing" in d.message
        assert "xi" in d.message

    def test_undeclared_identifier(self):
        d = self._diag("chart M (x: even);\nmorphism f : M -> M { x = z; }")
        assert "undeclared identifier 'z'" in d.message
        assert (d.line, d.column) == (2, 27)

    def test_time_variable_is_reserved(self):
        d = self._diag("chart M (t: even);")
        assert "reserved" in d.message

    def test_time_variable_is_undeclared_outside_curves(self):
        d = self._diag("chart M (x: even);\nmorphism f : M -> M { x = t; }")
        assert "undeclared identifier 't'" in d.message

    def test_generated_name_shapes_are_rejected(self):
        assert "may not contain" in self._diag("chart M (x@1: even);").message
        assert "may not contain" in self._diag("chart M (d.x: even);").message

    def test_zero_denominator(self):
        d = self._diag("chart M (x: even);\nmorphism f : M -> M { x = 1/0; }")
        assert "denominator zero" in d.message

    def test_duplicate_names_per_kind(self):
        d = self._diag("chart M (x: even);\nchart M (y: even);")
        assert "duplicate chart name" in d.message

    def test_unexpected_character(self):
        d = self._diag("chart M (x: even) $;")
        assert "unexpected character" in d.message

    @pytest.mark.parametrize(
        "body, where",
        [
            ("  x = \u0663*x;", (3, 7)),  # ARABIC-INDIC DIGIT THREE
            ("  x = \uff13*x;", (3, 7)),  # FULLWIDTH DIGIT THREE
            ("  x = x\u2028;", (3, 8)),  # LINE SEPARATOR
            ("  x = x\u00a0+ x;", (3, 8)),  # NO-BREAK SPACE
            ("  x = x\u00e9;", (3, 8)),  # LATIN SMALL LETTER E WITH ACUTE
        ],
    )
    def test_source_is_ascii(self, body, where):
        d = self._diag(f"chart M (x: even);\nmorphism f : M -> M {{\n{body}\n}}\n")
        assert d.message.startswith("unexpected character")
        assert (d.line, d.column) == where
        assert d.span.end == d.span.start + 1

    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("-", "")])
    def test_nesting_past_the_limit_is_located(self, opener, closer):
        head = "chart M (x: even);\nmorphism f : M -> M { x = "
        text = head + opener * 3000 + "x" + closer * 3000 + "; }"
        d = self._diag(text)
        assert f"nested deeper than {MAX_NESTING} levels" in d.message
        assert d.span.start == len(head) + MAX_NESTING
        assert (d.line, d.column) == (2, 27 + MAX_NESTING)

    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("-", "")])
    def test_nesting_at_the_limit_parses(self, opener, closer):
        body = opener * MAX_NESTING + "x" + closer * MAX_NESTING
        doc = parse(f"chart M (x: even);\nmorphism f : M -> M {{ x = {body}; }}")
        (x,) = doc.charts["M"].coordinates
        assert doc.morphisms["f"].assignment[x] == poly(x)

    def test_exponent_past_the_limit_is_located(self):
        d = self._diag(
            "chart M (x: even);\nmorphism f : M -> M {\n  x = x^1000000000;\n}"
        )
        assert f"the exponent exceeds the limit of {MAX_EXPONENT}" in d.message
        assert (d.line, d.column) == (3, 9)
        assert d.span.end - d.span.start == len("1000000000")

    def test_exponent_at_the_limit_parses(self):
        head = "chart M (x: even);\nmorphism f : M -> M { x = x^"
        doc = parse(f"{head}{MAX_EXPONENT}; }}")
        (x,) = doc.charts["M"].coordinates
        assert doc.morphisms["f"].assignment[x] == poly(x) ** MAX_EXPONENT
        d = self._diag(f"{head}{MAX_EXPONENT + 1}; }}")
        assert "exceeds the limit" in d.message

    def test_exponent_with_thousands_of_digits_is_located(self):
        head = "chart M (x: even);\nmorphism f : M -> M { x = x^"
        d = self._diag(head + "9" * 5000 + "; }")
        assert "the exponent exceeds the limit" in d.message

    def test_field_order_past_the_limit_is_located(self):
        d = self._diag(
            "chart M (x: even);\n"
            "field D on M order 3000 parity odd { d/d x@0 = d.x@0; }"
        )
        assert f"the jet order exceeds the limit of {MAX_ORDER}" in d.message
        assert (d.line, d.column) == (2, 20)

    def test_curve_order_past_the_limit_is_located(self):
        d = self._diag(
            "chart M (x: even);\nparams P (s: even);\n"
            f"curve g on M params P order {MAX_ORDER + 1} {{ x = t; }}"
        )
        assert f"the jet order exceeds the limit of {MAX_ORDER}" in d.message
        assert (d.line, d.column) == (3, 29)

    def test_order_at_the_limit_parses(self):
        doc = parse(
            "chart M (x: even);\nparams P (s: even);\n"
            f"curve g on M params P order {MAX_ORDER} {{ x = s*t; }}"
        )
        assert doc.curves["g"].order == MAX_ORDER

    def test_spans_sit_inside_the_source(self):
        text = "chart M (x: even);\nmorphism f : M -> M { x = z; }"
        with pytest.raises(DslError) as exc:
            parse(text)
        span = exc.value.diagnostics[0].span
        assert 0 <= span.start < span.end <= len(text)


# Documents with exactly one error each, and where it is reported; the
# morphism parity violation is pinned by TestDiagnostics above.
LOCATED_ERRORS = {
    "morphism missing a coordinate": (
        "chart M (x: even, th: odd);\nchart N (y: even, xi: odd);\n"
        "morphism f : M -> N { y = x; }",
        ("assigns nothing to", "coordinate 'xi'"), (3, 1),
    ),
    "morphism coordinate assigned twice": (
        "chart M (x: even, th: odd);\nmorphism g : M -> M { x = x; x = x; th = th; }",
        ("assigned twice",), (2, 30),
    ),
    "left-hand name not a coordinate": (
        "chart M (x: even, th: odd);\nmorphism g : M -> M { z = x; th = th; }",
        ("'z' is not a coordinate of chart 'M'",), (2, 23),
    ),
    "duplicate coordinate": (
        "chart M (x: even, y: odd, x: odd);",
        ("duplicate coordinate name 'x'",), (1, 27),
    ),
    "duplicate parameter": (
        "params P (s: even, s: odd);",
        ("duplicate parameter name 's'",), (1, 20),
    ),
    "curve coefficient parity": (
        "chart M (x: even);\nparams P (e: odd);\n"
        "curve g on M params P order 1 {\n  x = e*t;\n}",
        ("parity violation",), (4, 3),
    ),
    "curve missing a coordinate": (
        "chart M (x: even, th: odd);\nparams P (s: even);\n"
        "curve g on M params P order 1 { x = s*t; }",
        ("assigns nothing to", "coordinate 'th'"), (3, 1),
    ),
    "field parity": (
        "chart M (x: even);\nfield D on M parity odd {\n  d/d x = x;\n}",
        ("parity violation",), (3, 7),
    ),
    "field coordinate assigned twice": (
        "chart M (x: even);\nfield D on M parity even { d/d x = x; d/d x = x; }",
        ("assigned twice",), (2, 43),
    ),
    "lifted field parity": (
        "chart M (x: even);\nfield D on M order 1 parity odd { d/d x@1 = x@0; }",
        ("parity violation",), (2, 39),
    ),
    "rational field order": (
        "chart M (x: even);\nfield D on M order 1/2 parity even { d/d x = x; }",
        ("the order must be an integer",), (2, 20),
    ),
    "missing comma": (
        "chart M (x: even y: odd);",
        ("expected ',' or ')', found 'y'",), (1, 18),
    ),
    "unknown parity": (
        "chart M (x: big);",
        ("expected 'even' or 'odd', found 'big'",), (1, 13),
    ),
    "undeclared target chart": (
        "chart M (x: even);\nmorphism f : M -> Q { x = x; }",
        ("chart 'Q' is not declared",), (2, 19),
    ),
    "empty body": (
        "chart M (x: even);\nmorphism f : M -> M { }",
        ("a body needs at least one assignment",), (2, 23),
    ),
    "rational exponent": (
        "chart M (x: even);\nmorphism f : M -> M { x = x^1/2; }",
        ("powers must be nonnegative integers",), (2, 29),
    ),
}


class TestDiagnosticLocations:
    @pytest.mark.parametrize("case", LOCATED_ERRORS)
    def test_each_error_is_located(self, case):
        text, messages, where = LOCATED_ERRORS[case]
        with pytest.raises(DslError) as exc:
            parse(text)
        (d,) = exc.value.diagnostics
        for message in messages:
            assert message in d.message
        assert (d.line, d.column) == where

    @pytest.mark.parametrize("case", LOCATED_ERRORS)
    def test_each_error_is_exit_two_at_its_location(self, case, tmp_path):
        text, messages, where = LOCATED_ERRORS[case]
        path = tmp_path / "bad.sman"
        path.write_text(text, encoding="utf-8")
        result = run(["check", str(path)])
        assert (result.exit_code, result.payload) == (2, "")
        (d,) = result.diagnostics
        for message in messages:
            assert message in d.message
        assert (d.line, d.column) == where

    def test_parameters_colliding_with_coordinates_are_located(self):
        text = (
            "chart M (x: even);\nparams P (x: even);\n"
            "curve g on M params P order 0 { x = x; }"
        )
        with pytest.raises(DslError) as exc:
            parse(text)
        (d,) = exc.value.diagnostics
        assert "collide" in d.message
        assert (d.line, d.column) == (3, 1)


def _mixed_signs():
    """-3/2*x^2*th + y - 1 + 1/3*x*y with x, th, y declared in that order."""
    x = Generator("x", EVEN)
    th = Generator("th", ODD)
    y = Generator("y", EVEN)
    return (
        -Fraction(3, 2) * poly(x) ** 2 * poly(th)
        + poly(y)
        - 1
        + Fraction(1, 3) * poly(x) * poly(y)
    )


def _compare_monomials(a, b) -> int:
    """The canonical term order written as a comparator: the reference for
    the printer's sort key."""
    da, db = a.even_degree, b.even_degree
    if da != db:
        return -1 if da > db else 1
    ia = ib = 0
    ea, eb = a.even, b.even
    while ia < len(ea) and ib < len(eb):
        (ga, xa), (gb, xb) = ea[ia], eb[ib]
        if ga.index != gb.index:
            return -1 if ga.index < gb.index else 1
        if xa != xb:
            return -1 if xa > xb else 1
        ia += 1
        ib += 1
    if ia < len(ea):
        return -1
    if ib < len(eb):
        return 1
    oa = tuple(g.index for g in a.odd)
    ob = tuple(g.index for g in b.odd)
    if oa == ob:
        return 0
    return -1 if oa < ob else 1


class TestCanonicalPrinting:
    def test_normalised_sign_is_printed(self):
        th1 = Generator("th1", ODD)
        th2 = Generator("th2", ODD)
        assert print_canonical(normalize([(1, [th2, th1])])) == "-th1*th2"
        assert print_canonical(_mixed_signs()) == "-3/2*x^2*th + 1/3*x*y + y - 1"

    def test_jet_coordinate_naming(self):
        chart = Chart("PR", (Generator("x", EVEN),))
        lifted = prolong_chart(chart, 2)
        x = chart.coordinate("x")
        assert print_canonical(poly(lifted.jet(x, 2))) == "x@2"

    def test_term_order_matches_the_comparator(self):
        rng = seeded(11)
        gens = [Generator(f"k{i}", EVEN if i < 3 else ODD) for i in range(6)]
        rng.shuffle(gens)  # declaration order differs from list order
        for _ in range(60):
            raw = [
                (rng.randint(1, 5), rand_monomial(rng, gens, max_even_power=3))
                for _ in range(rng.randint(0, 12))
            ]
            p = normalize(raw)
            key = cmp_to_key(_compare_monomials)
            expect = sorted(p.items(), key=lambda item: key(item[0]))
            assert sorted_terms(p) == expect

    def test_round_trip_is_the_identity_on_canonical_text(self):
        text = (
            "chart M (x: even, th: odd);\n"
            "params P (eta: odd);\n"
            "morphism f : M -> M {\n"
            "  x = x^2;\n"
            "  th = x*th;\n"
            "}\n"
            "curve g on M params P order 1 {\n"
            "  x = 2;\n"
            "  th = t*eta;\n"
            "}\n"
        )
        canonical = format_document(parse(text))
        assert format_document(parse(canonical)) == canonical

    def test_random_documents_are_fixed_points_after_one_round(self):
        rng = seeded(3)
        for _ in range(40):
            text = rand_document_text(rng)
            canonical = format_document(parse(text))
            assert format_document(parse(canonical)) == canonical


PRINTED = """\
chart M (x: even, th: odd);
params P (e: odd, s: even);
morphism f : M -> M {
  x = x^2 - 1/2;
  th = x*th;
}
curve gamma on M params P order 2 {
  x = -t^2*s + 2*t + 1;
  th = t*e;
}
field A on M parity odd {
  d/d x = th;
}
field B on M order 0 parity even {
  d/d d.th@0 = x@0*d.th@0;
}
field C on M order 1 parity odd {
  d/d x@1 = d.x@0;
  d/d th@0 = x@0 - 3;
}
"""


class TestCanonicalBytes:
    """The exact text that ``print_canonical`` writes for each engine value."""

    @pytest.fixture
    def doc(self):
        return parse(PRINTED)

    def test_document(self, doc):
        # a field keeps its base chart and its order, also an order of 0
        assert print_canonical(doc) == PRINTED

    def test_series_and_curve(self, doc):
        gamma = doc.curves["gamma"]
        x = doc.charts["M"].coordinate("x")
        assert print_canonical(gamma.components[x]) == "-t^2*s + 2*t + 1"
        assert print_canonical(gamma) == "x = -t^2*s + 2*t + 1\nth = t*e"

    def test_point(self, doc):
        chart, params = doc.charts["M"], doc.params["P"]
        x, th = chart.coordinates
        e, s = params.generators
        point = SPoint(
            chart, params, {x: poly(s) ** 2 - Fraction(2, 3), th: poly(e) * poly(s)}
        )
        assert print_canonical(point) == "x = s^2 - 2/3\nth = s*e"

    def test_jet(self, doc):
        jet = jet_of_curve(doc.curves["gamma"], 2, Fraction(1, 2))
        assert print_canonical(jet) == (
            "x: (-1/4*s + 2, -s + 2, -s)\nth: (1/2*e, e, 0)"
        )

    def test_field(self, doc):
        assert print_canonical(doc.fields["C"]) == "\n".join(
            [
                "d/d x@0 = 0",
                "d/d x@1 = d.x@0",
                "d/d th@0 = x@0 - 3",
                "d/d th@1 = 0",
                "d/d d.x@0 = 0",
                "d/d d.x@1 = 0",
                "d/d d.th@0 = 0",
                "d/d d.th@1 = 0",
            ]
        )


class _ReferenceToken(NamedTuple):
    kind: str
    text: str
    span: SourceSpan


_REFERENCE_TOKEN = re.compile(
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


def _reference_lex(text):
    """The lexer that tracked line and column per token, as it was before
    tokens became offsets: the oracle for the offsets and the line table."""
    tokens = []
    pos = 0
    line = 1
    column = 1

    def advance(snippet):
        nonlocal line, column
        newlines = snippet.count("\n")
        if newlines:
            line += newlines
            column = len(snippet) - snippet.rfind("\n")
        else:
            column += len(snippet)

    while pos < len(text):
        match = _REFERENCE_TOKEN.match(text, pos)
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
            tokens.append(_ReferenceToken(kind, snippet, span))
        pos = match.end()
    end_span = SourceSpan(len(text), len(text), line, column, line, column)
    tokens.append(_ReferenceToken("EOF", "", end_span))
    return tokens


def _readme_document():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Document language", 1)[1]
    return section.split("```\n", 2)[1]


def _layouts(text):
    """``text`` as written, with CRLF line ends, with tabs, and with comments."""
    yield text
    yield text.replace("\n", "\r\n")
    yield text.replace("  ", "\t").replace(" ", " \t ")
    yield "# head\n" + text.replace(";\n", "; # note ; x = 1\n") + "\n# tail"


class TestLexer:
    def _agree(self, text):
        expected = _reference_lex(text)
        newlines = _newlines(text)
        tokens = _lex(text)
        assert [(k, t, _span(newlines, a, b)) for k, t, a, b in tokens] == [
            (token.kind, token.text, token.span) for token in expected
        ]
        if expected[-1].span.start == 0:
            return
        doc = parse(text)
        by_start = {token.span.start: token for token in expected}
        by_end = {token.span.end: token for token in expected}
        for (kind, name), span in doc.spans.items():
            first, last = by_start[span.start], by_end[span.end]
            assert first.text == kind
            assert span == SourceSpan(
                span.start, span.end, first.span.line, first.span.column,
                last.span.end_line, last.span.end_column,
            )

    def test_random_documents(self):
        rng = seeded(11)
        for _ in range(60):
            for text in _layouts(rand_document_text(rng)):
                self._agree(text)

    def test_readme_document(self):
        for text in _layouts(_readme_document()):
            self._agree(text)

    @pytest.mark.parametrize(
        "text",
        ["", "\n\n", "# only a comment", "chart M (x: even);", " \t\r\n# c\r\nchart"],
    )
    def test_edges(self, text):
        assert [(k, t, _span(_newlines(text), a, b)) for k, t, a, b in _lex(text)] == [
            tuple(token) for token in _reference_lex(text)
        ]

    @pytest.mark.parametrize(
        "text",
        [
            "chart M (x: even) $;",
            "chart M (x: even);\r\n\tmorphism f : M -> M { x = x ! 2; }",
            "# a comment\n\n  chart M (x: even); %",
            "chart M (x: even);\nmorphism f : M -> M { x = x; }\n?",
        ],
    )
    def test_unexpected_character_is_located_as_before(self, text):
        with pytest.raises(DslError) as expected:
            _reference_lex(text)
        with pytest.raises(DslError) as found:
            parse(text)
        assert found.value.diagnostics == expected.value.diagnostics


class TestPulledTokens:
    """The parser pulls tokens from the lexer one at a time."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.text(alphabet="ab_x01@./d->(){},;:=+*^|# \t\n$!é", max_size=60))
    def test_tokens_match_the_whole_list_lexer(self, text):
        try:
            expected = oracle_lex(text)
        except DslError as exc:
            with pytest.raises(DslError) as found:
                list(_lex(text))
            assert found.value.diagnostics == exc.diagnostics
        else:
            assert list(_lex(text)) == expected

    def test_deep_input_is_refused_before_the_rest_is_lexed(self):
        text = "chart M (x: even);\nmorphism f : M -> M { x = " + "(" * 3000
        with pytest.raises(DslError) as found:
            parse(text + "x" + ")" * 3000 + "; }\n$")
        (diagnostic,) = found.value.diagnostics
        assert "nested deeper than" in diagnostic.message
        assert (diagnostic.line, diagnostic.column) == (2, 127)

    @pytest.mark.parametrize(
        "text, message, where",
        [
            ("chart M (x: even) junk; $", "expected ';', found 'junk'", (1, 19)),
            ("chart M (x: $) junk;", "unexpected character '$'", (1, 13)),
        ],
    )
    def test_the_earlier_of_two_errors_is_reported(self, text, message, where):
        with pytest.raises(DslError) as found:
            parse(text)
        (diagnostic,) = found.value.diagnostics
        assert (diagnostic.message, (diagnostic.line, diagnostic.column)) == (
            message,
            where,
        )


class TestLatex:
    def _square(self):
        src = Chart("LM", (Generator("x", EVEN),))
        tgt = Chart("LN", (Generator("y", EVEN),))
        x = src.coordinate("x")
        y = tgt.coordinate("y")
        return Morphism(src, tgt, {y: poly(x) ** 2})

    def test_first_order_lift_uses_dotted_notation(self):
        lifted = prolong_morphism(self._square(), 1)
        assert r"\dot{y} = 2\,x\,\dot{x}" in emit_latex(lifted).splitlines()

    def test_second_order_lift(self):
        lifted = prolong_morphism(self._square(), 2)
        lines = emit_latex(lifted).splitlines()
        assert r"\ddot{y} = 2\,x\,\ddot{x} + \dot{x}^{2}" in lines

    def test_high_orders_use_parenthesised_superscripts(self):
        chart = Chart("LH", (Generator("x", EVEN),))
        lifted = prolong_chart(chart, 3)
        x = chart.coordinate("x")
        assert emit_latex(poly(lifted.jet(x, 3))) == "x^{(3)}"

    def test_differentials_use_the_d_prefix(self):
        chart = Chart("LD", (Generator("x", EVEN),))
        reversed_chart = antitangent_chart(chart)
        dx = reversed_chart.differential_of(chart.coordinate("x"))
        assert emit_latex(poly(dx)) == "d x"

    def test_jet_coefficient_tuple(self):
        chart = Chart("LJ", (Generator("x", EVEN),))
        x = chart.coordinate("x")
        params = ParameterAlgebra("LP", ())
        gamma = SCurve(chart, params, 2, {x: TimeSeries([1, 2, 1])})
        jet = jet_of_curve(gamma, 2)
        assert "(1, 2, 1)" in emit_latex(jet)

    def test_field_parenthesises_sums_and_skips_zeros(self):
        field = parse(PRINTED).fields["C"]
        assert emit_latex(field) == (
            r"d x\,\frac{\partial}{\partial \dot{x}} + "
            r"\left(x - 3\right)\,\frac{\partial}{\partial th}"
        )

    def test_relation_reports_are_spelled_only_by_the_cli(self):
        report = verify_relations(Chart("LR", (Generator("x", EVEN),)), 1)
        with pytest.raises(TypeError, match="RelationReport"):
            emit_latex(report)
        with pytest.raises(TypeError, match="RelationReport"):
            print_canonical(report)

    def test_fraction_coefficients(self):
        chart = Chart("LC", (Generator("x", EVEN),))
        x = chart.coordinate("x")
        assert emit_latex(Fraction(1, 2) * poly(x)) == r"\tfrac{1}{2}\,x"
        assert emit_latex(_mixed_signs()) == (
            r"-\tfrac{3}{2}\,x^{2}\,th + \tfrac{1}{3}\,x\,y + y - 1"
        )
