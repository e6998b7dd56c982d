"""Independent oracles and seeded random generators shared by the tests.

Everything here deliberately avoids the engine's own shortcuts: signs come
from a literal bubble sort, series composition goes through plain polynomial
arithmetic in the time variable with explicit factorials, and the order-2
lift is spelled out as the classical first and second chain rules. The
evaluation, the parity-reversed lift and the lexer that the engine replaced
are kept as oracles too: term by term on rational coefficients, as a sum
over ``partial``, and as one token list made before parsing.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from sjet import (
    Chart,
    EVEN,
    Generator,
    Morphism,
    ODD,
    ParameterAlgebra,
    SCurve,
    SuperPolynomial,
    TIME,
    TimeSeries,
    antitangent_chart,
    const,
    normalize,
    partial,
    poly,
    prolong_chart,
    substitute,
)
from sjet.dsl import _TOKEN, Diagnostic, DslError, _newlines, _span

_fresh = itertools.count()


def bubble_sign(factors):
    """Sign of sorting odd factors by declaration index; 0 on a repeat."""
    indices = [g.index for g in factors]
    sign = 1
    n = len(indices)
    for _ in range(n):
        for j in range(n - 1):
            if indices[j] > indices[j + 1]:
                indices[j], indices[j + 1] = indices[j + 1], indices[j]
                sign = -sign
    for a, b in zip(indices, indices[1:]):
        if a == b:
            return 0
    return sign


def rebuild(p, keep):
    """Reassemble a polynomial from the monomials selected by ``keep``."""
    terms = []
    for mono, coeff in p.items():
        if not keep(mono):
            continue
        factors = []
        for g, e in mono.even:
            factors.extend([g] * e)
        factors.extend(mono.odd)
        terms.append((coeff, factors))
    return normalize(terms)


def parity_part(p, parity):
    return rebuild(p, lambda mono: mono.parity == parity)


def drop_time(p):
    return rebuild(p, lambda mono: all(g is not TIME for g, _ in mono.even))


def oracle_series_compose(f, series):
    """Compose through plain polynomial arithmetic in the time generator.

    Writes each series as an honest polynomial in t, substitutes, then reads
    jet coefficients back by repeated differentiation at t = 0 with an
    explicit 1/r! factor.
    """
    orders = {s.order for s in series.values()}
    order = orders.pop() if orders else 0
    images = {}
    for g, s in series.items():
        image = const(0)
        for r, c in enumerate(s.coefficients):
            image = image + c * poly(TIME) ** r
        images[g] = image
    current = substitute(f, images)
    coeffs = []
    for r in range(order + 1):
        coeffs.append(Fraction(1, math.factorial(r)) * drop_time(current))
        current = partial(current, TIME)
    return TimeSeries(coeffs)


def oracle_evaluate(f, images, one):
    """f at ``images`` on rational coefficients, one term at a time.

    ``one`` is the unit of the images' ring (a polynomial or a series). Each
    term multiplies its factors in canonical order, an even power as repeated
    factors, and is scaled by its coefficient before it joins the sum.
    """
    total = one * 0
    for mono, coeff in f.items():
        term = one
        for g, e in mono.even:
            for _ in range(e):
                term = term * images[g]
        for g in mono.odd:
            term = term * images[g]
        total = total + term * coeff
    return total


def oracle_antitangent_morphism(phi):
    """The parity-reversed lift as sum(d.x * partial(f, x)), one partial and
    one product per source coordinate."""
    source = antitangent_chart(phi.source)
    target = antitangent_chart(phi.target)
    assignment = {}
    for y in phi.target.coordinates:
        f = phi.assignment[y]
        assignment[y] = f
        total = SuperPolynomial()
        for x in phi.source.coordinates:
            total = total + poly(source.differential_of(x)) * partial(f, x)
        assignment[target.differential_of(y)] = total
    return Morphism(source, target, assignment)


def oracle_lex(text):
    """The whole token list of ``text``, made before any parsing starts, as
    the lexer did before the parser pulled its tokens one at a time."""
    tokens = []
    pos = 0
    for match in _TOKEN.finditer(text):
        start, end = match.span()
        if start != pos:
            break
        pos = end
        kind = match.lastgroup
        if kind != "SKIP":
            snippet = match.group()
            tokens.append((snippet if kind == "PUNCT" else kind, snippet, start, end))
    if pos != len(text):
        span = _span(_newlines(text), pos, pos + 1)
        raise DslError([Diagnostic(f"unexpected character {text[pos]!r}", span)])
    tokens.append(("EOF", "", pos, pos))
    return tokens


def oracle_prolong_k2(phi):
    """Order-2 lift assembled from the displayed first/second chain rules.

    first@A  = sum_B  B@1 * (d phi_A / d B) at the base point
    second@A = sum_B  B@2 * (d phi_A / d B)
             + 1/2 * sum over ordered pairs (B, C) of
               B@1 * C@1 * (d^2 phi_A / dC dB)
    with velocity factors multiplied on the left in that order.
    """
    src, tgt = phi.source, phi.target
    big = prolong_chart(src, 2)
    big_t = prolong_chart(tgt, 2)
    sub0 = {g: poly(big.jet(g, 0)) for g in src.coordinates}
    assignment = {}
    for y in tgt.coordinates:
        f = phi.assignment[y]
        first = const(0)
        second = const(0)
        for b in src.coordinates:
            db = substitute(partial(f, b), sub0)
            first = first + poly(big.jet(b, 1)) * db
            second = second + poly(big.jet(b, 2)) * db
        quad = const(0)
        for b in src.coordinates:
            for c in src.coordinates:
                dcb = substitute(partial(partial(f, b), c), sub0)
                quad = quad + poly(big.jet(b, 1)) * poly(big.jet(c, 1)) * dcb
        assignment[big_t.jet(y, 0)] = substitute(f, sub0)
        assignment[big_t.jet(y, 1)] = first
        assignment[big_t.jet(y, 2)] = second + Fraction(1, 2) * quad
    return Morphism(big, big_t, assignment)


# ---------------------------------------------------------------------------
# seeded random model builders


def rand_scalar(rng, zero_ok=True):
    num = rng.randint(-4, 4)
    if not zero_ok and num == 0:
        num = 1
    return Fraction(num, rng.choice((1, 1, 1, 2, 3)))


def rand_monomial(rng, gens, max_even_power=2, parity=None):
    evens = [g for g in gens if g.parity == EVEN]
    odds = [g for g in gens if g.parity == ODD]
    factors = []
    for g in evens:
        factors.extend([g] * rng.randint(0, max_even_power))
    sizes = [
        s
        for s in range(len(odds) + 1)
        if parity is None or s % 2 == int(parity)
    ]
    if not sizes:
        return None
    factors.extend(rng.sample(odds, rng.choice(sizes)))
    return factors


def rand_poly(rng, gens, parity=None, max_terms=3, max_even_power=2):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        factors = rand_monomial(rng, gens, max_even_power, parity)
        if factors is None:
            continue
        terms.append((rand_scalar(rng), factors))
    return normalize(terms)


def rand_chart(rng, max_even=2, max_odd=2, min_total=1):
    n = rng.randint(0, max_even)
    m = rng.randint(0, max_odd)
    if n + m < min_total:
        n = min_total - m
    tag = next(_fresh)
    coords = tuple(
        Generator(f"x{j}c{tag}", EVEN) for j in range(n)
    ) + tuple(Generator(f"q{j}c{tag}", ODD) for j in range(m))
    return Chart(f"C{tag}", coords)


def rand_morphism(rng, source, target, max_terms=3, max_even_power=2):
    assignment = {
        y: rand_poly(
            rng,
            source.coordinates,
            parity=y.parity,
            max_terms=max_terms,
            max_even_power=max_even_power,
        )
        for y in target.coordinates
    }
    return Morphism(source, target, assignment)


def rand_params(rng, max_even=1, max_odd=2):
    tag = next(_fresh)
    n = rng.randint(0, max_even)
    m = rng.randint(1, max_odd)
    gens = tuple(
        Generator(f"s{j}p{tag}", EVEN) for j in range(n)
    ) + tuple(Generator(f"e{j}p{tag}", ODD) for j in range(m))
    return ParameterAlgebra(f"P{tag}", gens)


def rand_series(rng, pgens, order, parity, max_terms=2):
    return TimeSeries(
        [
            rand_poly(rng, pgens, parity=parity, max_terms=max_terms)
            for _ in range(order + 1)
        ]
    )


def rand_curve(rng, chart, params, order, max_terms=2):
    components = {
        g: rand_series(rng, params.generators, order, g.parity, max_terms)
        for g in chart.coordinates
    }
    return SCurve(chart, params, order, components)


# ---------------------------------------------------------------------------
# random document text for round-trip checks


def _expr_text(rng, evens, odds, parity, time_power=0):
    """Random parseable expression over named coordinates.

    evens/odds are name lists; parity constrains each term's odd factor
    count. Odd names may appear in shuffled order on purpose so the parser's
    normalisation gets exercised.
    """
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for name in evens:
            p = rng.randint(0, 2)
            if p == 1:
                factors.append(name)
            elif p == 2:
                factors.append(f"{name}^2")
        sizes = [
            s
            for s in range(len(odds) + 1)
            if parity is None or s % 2 == int(parity)
        ]
        if not sizes:
            continue
        chosen = rng.sample(odds, rng.choice(sizes))
        rng.shuffle(chosen)
        factors.extend(chosen)
        if time_power:
            j = rng.randint(0, time_power)
            if j == 1:
                factors.insert(0, "t")
            elif j > 1:
                factors.insert(0, f"t^{j}")
        coeff = rand_scalar(rng)
        if coeff == 0:
            continue
        body = "*".join(factors)
        mag = -coeff if coeff < 0 else coeff
        if not body:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}*{body}"
        if not terms:
            terms.append(piece if coeff > 0 else f"-{piece}")
        else:
            terms.append(f"{' + ' if coeff > 0 else ' - '}{piece}")
    if not terms:
        return "0"
    return "".join(terms)


def rand_document_text(rng):
    lines = []
    charts = []
    for i in range(rng.randint(1, 3)):
        n = rng.randint(0, 2)
        m = rng.randint(0, 2)
        if n + m == 0:
            n = 1
        coords = [(f"x{j}", EVEN) for j in range(n)]
        coords += [(f"w{j}", ODD) for j in range(m)]
        decl = ", ".join(
            f"{c}: {'even' if p == EVEN else 'odd'}" for c, p in coords
        )
        name = f"M{i}"
        lines.append(f"chart {name} ({decl});")
        charts.append((name, coords))

    pn = rng.randint(0, 1)
    pm = rng.randint(1, 2)
    pcoords = [(f"s{j}", EVEN) for j in range(pn)]
    pcoords += [(f"e{j}", ODD) for j in range(pm)]
    decl = ", ".join(
        f"{c}: {'even' if p == EVEN else 'odd'}" for c, p in pcoords
    )
    lines.append(f"params P0 ({decl});")

    for i in range(rng.randint(0, 2)):
        src_name, src = rng.choice(charts)
        tgt_name, tgt = rng.choice(charts)
        evens = [c for c, p in src if p == EVEN]
        odds = [c for c, p in src if p == ODD]
        lines.append(f"morphism f{i} : {src_name} -> {tgt_name} {{")
        for c, p in tgt:
            lines.append(f"  {c} = {_expr_text(rng, evens, odds, p)};")
        lines.append("}")

    if rng.random() < 0.8:
        chart_name, coords = rng.choice(charts)
        order = rng.randint(0, 2)
        evens = [c for c, p in pcoords if p == EVEN]
        odds = [c for c, p in pcoords if p == ODD]
        lines.append(
            f"curve g0 on {chart_name} params P0 order {order} {{"
        )
        for c, p in coords:
            lines.append(
                f"  {c} = {_expr_text(rng, evens, odds, p, time_power=order)};"
            )
        lines.append("}")

    if rng.random() < 0.8:
        chart_name, coords = rng.choice(charts)
        fparity = rng.choice((EVEN, ODD))
        order = rng.choice((None, 0, 1, 2))
        if order is None:
            fchart = list(coords)
            head = f"field F0 on {chart_name} parity"
        else:
            fchart = []
            for c, p in coords:
                for r in range(order + 1):
                    fchart.append((f"{c}@{r}", p))
            for c, p in coords:
                for r in range(order + 1):
                    fchart.append((f"d.{c}@{r}", p + ODD))
            head = f"field F0 on {chart_name} order {order} parity"
        lines.append(f"{head} {'even' if fparity == EVEN else 'odd'} {{")
        evens = [c for c, p in fchart if p == EVEN]
        odds = [c for c, p in fchart if p == ODD]
        rows = 0
        for c, p in fchart:
            if rng.random() < 0.4:
                continue
            lines.append(
                f"  d/d {c} = {_expr_text(rng, evens, odds, p + fparity)};"
            )
            rows += 1
        if rows == 0:
            c, p = fchart[0]
            lines.append(
                f"  d/d {c} = {_expr_text(rng, evens, odds, p + fparity)};"
            )
        lines.append("}")

    return "\n".join(lines) + "\n"


def seeded(seed):
    return random.Random(seed)
