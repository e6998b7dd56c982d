"""End-to-end acceptance suite.

One test per acceptance criterion, in order. Each prints a single
``ACCEPTANCE nn PASS/FAIL`` line to the live terminal so the gate can be
read straight off a verbose run. Every comparison is exact: canonical
forms over rational coefficients, no tolerances anywhere. Criteria with
a runtime budget assert it with a wall-clock bound.
"""

import itertools
import time
from contextlib import contextmanager

from sjet import (
    Chart,
    EVEN,
    Generator,
    Jet,
    Morphism,
    ODD,
    SCurve,
    TimeSeries,
    antitangent_chart,
    antitangent_morphism,
    canonical_fields,
    compose,
    const,
    contact_equal,
    format_document,
    homothety,
    interchange,
    jet_of_curve,
    parse,
    partial,
    poly,
    product_morphism,
    product_prolong_identification,
    project,
    prolong_chart,
    prolong_morphism,
    reparameterise,
    series_compose,
    substitute,
    verify_relations,
    weight_report,
    zero_section,
)
from support import (
    oracle_prolong_k2,
    rand_chart,
    rand_curve,
    rand_document_text,
    rand_morphism,
    rand_params,
    rand_poly,
    rand_scalar,
    seeded,
)


@contextmanager
def criterion(capsys, number, description, budget=None):
    start = time.perf_counter()
    try:
        yield
        if budget is not None:
            elapsed = time.perf_counter() - start
            assert elapsed < budget, (
                f"runtime {elapsed:.2f}s exceeds the {budget}s budget"
            )
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number:02d} PASS: {description}")


def _sized_chart(n, m, tag):
    gens = tuple(Generator(f"ae{i}{tag}", EVEN) for i in range(n))
    gens += tuple(Generator(f"ao{i}{tag}", ODD) for i in range(m))
    return Chart(f"ACC{tag}", gens)


def test_criterion_01_second_order_chain_rule(capsys):
    desc = "50 random second-order lifts match the chain-rule oracle"
    with criterion(capsys, 1, desc, budget=10.0):
        rng = seeded(1001)
        for _ in range(50):
            src = rand_chart(rng)
            tgt = rand_chart(rng)
            phi = rand_morphism(rng, src, tgt)
            assert prolong_morphism(phi, 2) == oracle_prolong_k2(phi)


def test_criterion_02_relation_suite(capsys):
    desc = "canonical-field bracket table holds on every (n|m), k = 1..4"
    with criterion(capsys, 2, desc, budget=30.0):
        rows_seen = 0
        for n, m in itertools.product(range(3), range(3)):
            if n == 0 and m == 0:
                continue
            chart = _sized_chart(n, m, f"r{n}{m}")
            for k in range(1, 5):
                report = verify_relations(chart, k)
                assert report.all_pass, (n, m, k)
                assert len(report.rows) == 13
                rows_seen += len(report.rows)
        assert rows_seen == 8 * 4 * 13


def test_criterion_03_functoriality_and_products(capsys):
    desc = "lifting respects composition and pair morphisms (105 instances)"
    with criterion(capsys, 3, desc, budget=30.0):
        rng = seeded(1003)
        for i in range(60):
            a, b, c = rand_chart(rng), rand_chart(rng), rand_chart(rng)
            psi = rand_morphism(rng, a, b)
            phi = rand_morphism(rng, b, c)
            k = i % 4
            assert prolong_morphism(compose(phi, psi), k) == compose(
                prolong_morphism(phi, k), prolong_morphism(psi, k)
            )
        for i in range(45):
            a, a2 = rand_chart(rng), rand_chart(rng)
            b, b2 = rand_chart(rng), rand_chart(rng)
            phi = rand_morphism(rng, a, a2)
            psi = rand_morphism(rng, b, b2)
            k = i % 4
            pair = product_morphism(phi, psi)
            route_a = compose(
                product_prolong_identification(a2, b2, k),
                prolong_morphism(pair, k),
            )
            route_b = compose(
                product_morphism(
                    prolong_morphism(phi, k), prolong_morphism(psi, k)
                ),
                product_prolong_identification(a, b, k),
            )
            assert route_a == route_b


def test_criterion_04_dimension_and_grading(capsys):
    desc = "lifted dimensions are ((k+1)n|(k+1)m); assignments are graded"
    with criterion(capsys, 4, desc, budget=10.0):
        for n, m in itertools.product(range(3), range(3)):
            if n == 0 and m == 0:
                continue
            chart = _sized_chart(n, m, f"d{n}{m}")
            for k in range(4):
                assert prolong_chart(chart, k).dimension == (
                    (k + 1) * n,
                    (k + 1) * m,
                )
        rng = seeded(1004)
        for i in range(25):
            phi = rand_morphism(rng, rand_chart(rng), rand_chart(rng))
            k = i % 4
            lifted = prolong_morphism(phi, k)
            assert weight_report(lifted).valid
            for y in phi.target.coordinates:
                for r in range(k + 1):
                    value = lifted.assignment[lifted.target.jet(y, r)]
                    for mono, _ in value.items():
                        factors = [g for g, _ in mono.even] + list(mono.odd)
                        weight = sum(g.weight * p for g, p in mono.even)
                        weight += sum(g.weight for g in mono.odd)
                        assert weight == r
                        assert all(g.weight <= r for g in factors)


def test_criterion_05_homothety(capsys):
    desc = "scalings form a semigroup; zero scale projects; weights generate"
    with criterion(capsys, 5, desc, budget=5.0):
        chart = _sized_chart(1, 1, "h")
        lifted = prolong_chart(chart, 3)
        lam = Generator("acclam", EVEN)
        mu = Generator("accmu", EVEN)
        assert compose(
            homothety(lifted, lam), homothety(lifted, mu)
        ) == homothety(lifted, poly(lam) * poly(mu))
        assert homothety(lifted, 0) == compose(
            zero_section(lifted), project(lifted, 0)
        )
        fields = canonical_fields(chart, 2)
        scaled = homothety(fields.chart, lam)
        at_one = {lam: const(1)}
        at_one.update({g: poly(g) for g in fields.chart.coordinates})
        for g in fields.chart.coordinates:
            derivative = substitute(partial(scaled.assignment[g], lam), at_one)
            assert derivative == fields.delta2.apply(poly(g))


def test_criterion_06_jet_naturality(capsys):
    desc = "jets commute with parameter substitution (110 random pairs)"
    with criterion(capsys, 6, desc):
        rng = seeded(1006)
        for i in range(110):
            chart = rand_chart(rng)
            params = rand_params(rng)
            params2 = rand_params(rng)
            k = i % 4
            base = i % 2
            gamma = rand_curve(rng, chart, params, k)
            sigma = {
                g: rand_poly(rng, params2.generators, parity=g.parity)
                for g in params.generators
            }
            moved = reparameterise(gamma, sigma, params2)
            left = jet_of_curve(moved, k, at=base)
            source = jet_of_curve(gamma, k, at=base)
            right = Jet(
                chart,
                k,
                {
                    g: tuple(
                        substitute(c, sigma) for c in source.coefficients[g]
                    )
                    for g in chart.coordinates
                },
            )
            assert left == right


def test_criterion_07_contact_criterion(capsys):
    desc = "curves in k-th order contact agree on jets of all functions"
    with criterion(capsys, 7, desc):
        rng = seeded(1007)
        checked = 0
        for pair in range(10):
            chart = rand_chart(rng)
            params = rand_params(rng)
            k = pair % 4
            gamma = rand_curve(rng, chart, params, k + 1)
            bumps = {
                g: rand_poly(rng, params.generators, parity=g.parity)
                for g in chart.coordinates
            }
            if all(value.is_zero() for value in bumps.values()):
                g0 = chart.coordinates[0]
                if g0.parity is EVEN:
                    bumps[g0] = const(1)
                else:
                    odd = next(
                        p for p in params.generators if p.parity is ODD
                    )
                    bumps[g0] = poly(odd)
            components = {}
            for g in chart.coordinates:
                coeffs = list(gamma.components[g].coefficients)
                coeffs[k + 1] = coeffs[k + 1] + bumps[g]
                components[g] = TimeSeries(coeffs)
            delta = SCurve(chart, params, k + 1, components)
            assert contact_equal(gamma, delta, k)
            assert not contact_equal(gamma, delta, k + 1)
            for _ in range(6):
                f = rand_poly(
                    rng,
                    chart.coordinates,
                    max_terms=4,
                    max_even_power=3,
                )
                through_gamma = series_compose(f, gamma.components)
                through_delta = series_compose(f, delta.components)
                assert through_gamma.truncate(k) == through_delta.truncate(k)
                checked += 1
        assert checked >= 50


def test_criterion_08_interchange(capsys):
    desc = "jet lift and parity-reversed lift interchange naturally, k <= 3"
    with criterion(capsys, 8, desc):
        rng = seeded(1008)
        for i in range(20):
            src = rand_chart(rng)
            tgt = rand_chart(rng)
            phi = rand_morphism(rng, src, tgt)
            k = i % 4
            route_a = compose(
                interchange(tgt, k),
                prolong_morphism(antitangent_morphism(phi), k),
            )
            route_b = compose(
                antitangent_morphism(prolong_morphism(phi, k)),
                interchange(src, k),
            )
            assert route_a == route_b


def test_criterion_09_single_odd_parameter_degeneration(capsys):
    desc = "on a one-odd-parameter locus the odd velocities move through w"
    with criterion(capsys, 9, desc):
        rng = seeded(1009)
        x = Generator("degx", EVEN)
        th = tuple(Generator(f"degth{i}", ODD) for i in range(3))
        source = Chart("DEGS", (x,) + th)
        xp = Generator("degxp", EVEN)
        thp = tuple(Generator(f"degthp{i}", ODD) for i in range(3))
        target = Chart("DEGT", (xp,) + thp)

        tau = Generator("degtau", ODD)
        s = Generator("degs", EVEN)
        sdot = Generator("degsd", EVEN)
        u = tuple(Generator(f"degu{i}", EVEN) for i in range(3))
        v = tuple(Generator(f"degv{i}", EVEN) for i in range(3))
        at_s = {x: poly(s)}

        def poly_in_x(degree, force_nonzero=False):
            value = const(0)
            for d in range(degree + 1):
                value = value + rand_scalar(rng) * poly(x) ** d
            if force_nonzero:
                value = value + poly(x) ** degree + const(1)
            return value

        for trial in range(5):
            f0 = poly_in_x(2, force_nonzero=True)
            f12 = poly_in_x(1, force_nonzero=True)
            w = {
                (j, i): poly_in_x(1, force_nonzero=(i == j))
                for j in range(3)
                for i in range(3)
            }
            rho = tuple(poly_in_x(1, force_nonzero=True) for _ in range(3))

            def assignment_for(f12_part, rho_parts):
                out = {xp: f0 + f12_part * poly(th[0]) * poly(th[1])}
                for j in range(3):
                    value = const(0)
                    for i in range(3):
                        value = value + w[(j, i)] * poly(th[i])
                    value = value + (
                        rho_parts[j]
                        * poly(th[0])
                        * poly(th[1])
                        * poly(th[2])
                    )
                    out[thp[j]] = value
                return out

            phi = Morphism(source, target, assignment_for(f12, rho))
            stripped = Morphism(
                source,
                target,
                assignment_for(const(0), (const(0),) * 3),
            )
            lifted = prolong_morphism(phi, 1)
            lifted_stripped = prolong_morphism(stripped, 1)
            assert lifted != lifted_stripped

            src_t = prolong_chart(source, 1)
            tgt_t = prolong_chart(target, 1)
            locus = {
                src_t.jet(x, 0): poly(s),
                src_t.jet(x, 1): poly(sdot),
            }
            for i in range(3):
                locus[src_t.jet(th[i], 0)] = poly(tau) * poly(u[i])
                locus[src_t.jet(th[i], 1)] = poly(tau) * poly(v[i])

            f0_prime = substitute(partial(f0, x), at_s)
            got_x0 = substitute(
                lifted.assignment[tgt_t.jet(xp, 0)], locus
            )
            got_x1 = substitute(
                lifted.assignment[tgt_t.jet(xp, 1)], locus
            )
            assert got_x0 == substitute(f0, at_s)
            assert got_x1 == poly(sdot) * f0_prime

            for j in range(3):
                value = lifted.assignment[tgt_t.jet(thp[j], 1)]
                got = substitute(value, locus)
                expected = const(0)
                for i in range(3):
                    w_at_s = substitute(w[(j, i)], at_s)
                    w_prime = substitute(partial(w[(j, i)], x), at_s)
                    expected = expected + poly(tau) * (
                        poly(v[i]) * w_at_s
                        + poly(sdot) * poly(u[i]) * w_prime
                    )
                assert got == expected
                plain = substitute(
                    lifted_stripped.assignment[tgt_t.jet(thp[j], 1)], locus
                )
                assert got == plain

        # constant transition coefficients: the lifted odd velocity is
        # exactly the w-image of the odd velocity, as a polynomial identity
        w_const = {
            (j, i): rand_scalar(rng, zero_ok=False)
            for j in range(3)
            for i in range(3)
        }
        assignment = {xp: poly_in_x(2) + poly_in_x(1) * poly(th[0]) * poly(th[1])}
        for j in range(3):
            value = const(0)
            for i in range(3):
                value = value + w_const[(j, i)] * poly(th[i])
            assignment[thp[j]] = value
        phi = Morphism(source, target, assignment)
        lifted = prolong_morphism(phi, 1)
        src_t = prolong_chart(source, 1)
        tgt_t = prolong_chart(target, 1)
        for j in range(3):
            expected = const(0)
            for i in range(3):
                expected = expected + w_const[(j, i)] * poly(
                    src_t.jet(th[i], 1)
                )
            assert lifted.assignment[tgt_t.jet(thp[j], 1)] == expected


def test_criterion_10_round_trip(capsys):
    desc = "canonical printing is a parse fixed point on 200 documents"
    with criterion(capsys, 10, desc, budget=5.0):
        rng = seeded(1010)
        for _ in range(200):
            text = rand_document_text(rng)
            canonical = format_document(parse(text))
            assert format_document(parse(canonical)) == canonical
