"""Jet-chart lifts, parity-reversed lifts, rescalings and products."""

import gc
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from sjet import (
    Chart,
    DomainError,
    EVEN,
    Generator,
    Morphism,
    ODD,
    ParityError,
    antitangent_chart,
    antitangent_morphism,
    compose,
    const,
    homothety,
    interchange,
    parse,
    poly,
    print_canonical,
    product_chart,
    product_morphism,
    product_prolong_identification,
    project,
    prolong_chart,
    prolong_morphism,
    weight_report,
    zero_section,
)
from support import (
    oracle_antitangent_morphism,
    oracle_prolong_k2,
    rand_chart,
    rand_morphism,
    rand_params,
    rand_poly,
    seeded,
)

X = Generator("px", EVEN)
TH = Generator("pth", ODD)
M = Chart("PM", (X, TH))

Y = Generator("py", EVEN)
XI = Generator("pxi", ODD)
N = Chart("PN", (Y, XI))

def _square():
    src = Chart("SQ1", (Generator("sx", EVEN),))
    tgt = Chart("SQ2", (Generator("sy", EVEN),))
    sx = src.coordinate("sx")
    sy = tgt.coordinate("sy")
    return Morphism(src, tgt, {sy: poly(sx) ** 2})


def _odd_product():
    src = Chart("OP1", (Generator("ox", EVEN), Generator("oth", ODD)))
    tgt = Chart("OP2", (Generator("oxi", ODD),))
    ox = src.coordinate("ox")
    oth = src.coordinate("oth")
    oxi = tgt.coordinate("oxi")
    return Morphism(src, tgt, {oxi: poly(ox) * poly(oth)})


class TestChartLifts:
    def test_one_one_chart_at_order_two(self):
        assert prolong_chart(M, 2).dimension == (3, 3)

    def test_order_zero_mirrors_the_base(self):
        lifted = prolong_chart(M, 0)
        assert lifted.dimension == M.dimension
        assert [g.parity for g in lifted.coordinates] == [
            g.parity for g in M.coordinates
        ]

    def test_two_zero_chart_at_order_one(self):
        flat = Chart("F2", (Generator("fa", EVEN), Generator("fb", EVEN)))
        assert prolong_chart(flat, 1).dimension == (4, 0)

    def test_negative_order_is_rejected(self):
        with pytest.raises(DomainError):
            prolong_chart(M, -1)

    def test_jet_coordinates_carry_their_order_as_weight(self):
        lifted = prolong_chart(M, 3)
        for g in M.coordinates:
            for r in range(4):
                jet = lifted.jet(g, r)
                assert jet.weight == r
                assert jet.parity == g.parity

    def test_repeated_lifts_are_the_same_chart(self):
        assert prolong_chart(M, 2) is prolong_chart(M, 2)

    def test_lifts_are_freed_with_their_chart(self):
        def cycles(n):
            for _ in range(n):
                chart = Chart("L", (Generator("lx", EVEN), Generator("lth", ODD)))
                antitangent_chart(prolong_chart(chart, 3))
                product_chart(chart, chart)

        tracemalloc.start()
        try:
            cycles(1000)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            cycles(1000)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 500_000


class TestMorphismLifts:
    def test_square_map_at_order_two(self):
        phi = _square()
        lifted = prolong_morphism(phi, 2)
        src = prolong_chart(phi.source, 2)
        tgt = prolong_chart(phi.target, 2)
        sx = phi.source.coordinate("sx")
        sy = phi.target.coordinate("sy")
        x0, x1, x2 = (poly(src.jet(sx, r)) for r in range(3))
        assert lifted.assignment[tgt.jet(sy, 0)] == x0 ** 2
        assert lifted.assignment[tgt.jet(sy, 1)] == 2 * x0 * x1
        assert lifted.assignment[tgt.jet(sy, 2)] == 2 * x0 * x2 + x1 ** 2

    def test_even_odd_product_at_order_one(self):
        phi = _odd_product()
        lifted = prolong_morphism(phi, 1)
        src = prolong_chart(phi.source, 1)
        tgt = prolong_chart(phi.target, 1)
        ox = phi.source.coordinate("ox")
        oth = phi.source.coordinate("oth")
        oxi = phi.target.coordinate("oxi")
        x0, x1 = (poly(src.jet(ox, r)) for r in range(2))
        t0, t1 = (poly(src.jet(oth, r)) for r in range(2))
        assert lifted.assignment[tgt.jet(oxi, 0)] == x0 * t0
        assert lifted.assignment[tgt.jet(oxi, 1)] == x1 * t0 + x0 * t1

    def test_parity_violations_are_rejected(self):
        with pytest.raises(ParityError):
            bad = Morphism(M, N, {Y: poly(TH), XI: poly(TH)})
            prolong_morphism(bad, 1)

    def test_order_two_battery_against_the_chain_rule_oracle(self):
        rng = seeded(37)
        for _ in range(10):
            src = rand_chart(rng)
            tgt = rand_chart(rng)
            phi = rand_morphism(rng, src, tgt)
            assert prolong_morphism(phi, 2) == oracle_prolong_k2(phi)


class TestProjectionTower:
    def test_projection_to_the_top_is_the_identity(self):
        lifted = prolong_chart(M, 2)
        assert project(lifted, 2) == Morphism.identity(lifted)

    def test_projection_to_the_base_keeps_order_zero(self):
        lifted = prolong_chart(M, 2)
        base0 = prolong_chart(M, 0)
        pi = project(lifted, 0)
        assert pi.target is base0
        assert pi.assignment[base0.jet(X, 0)] == poly(lifted.jet(X, 0))

    def test_out_of_range_projection_is_rejected(self):
        lifted = prolong_chart(M, 2)
        with pytest.raises(DomainError):
            project(lifted, 3)

    def test_projections_commute_with_lifted_morphisms(self):
        rng = seeded(41)
        for _ in range(15):
            src = rand_chart(rng)
            tgt = rand_chart(rng)
            phi = rand_morphism(rng, src, tgt)
            k = rng.randint(1, 3)
            l = rng.randint(0, k)
            via_target = compose(
                project(prolong_chart(tgt, k), l), prolong_morphism(phi, k)
            )
            via_source = compose(
                prolong_morphism(phi, l), project(prolong_chart(src, k), l)
            )
            assert via_target == via_source

    def test_projections_compose_down_the_tower(self):
        lifted = prolong_chart(M, 3)
        mid = prolong_chart(M, 2)
        assert compose(project(mid, 1), project(lifted, 2)) == project(
            lifted, 1
        )

    def test_zero_section_splits_the_projection(self):
        lifted = prolong_chart(M, 2)
        section = zero_section(lifted)
        assert compose(project(lifted, 0), section) == Morphism.identity(
            prolong_chart(M, 0)
        )


class TestParityReversedLifts:
    def test_differentials_flip_parity_and_keep_weight(self):
        reversed_chart = antitangent_chart(M)
        dx = reversed_chart.differential_of(X)
        dth = reversed_chart.differential_of(TH)
        assert dx.parity == ODD
        assert dth.parity == EVEN
        assert dx.weight == 0
        assert reversed_chart.dimension == (2, 2)

    def test_classical_differential_of_a_square(self):
        phi = _square()
        lifted = antitangent_morphism(phi)
        rsrc = antitangent_chart(phi.source)
        rtgt = antitangent_chart(phi.target)
        sx = phi.source.coordinate("sx")
        sy = phi.target.coordinate("sy")
        dx = rsrc.differential_of(sx)
        dy = rtgt.differential_of(sy)
        assert lifted.assignment[sy] == poly(sx) ** 2
        assert lifted.assignment[dy] == 2 * poly(sx) * poly(dx)

    def test_graded_leibniz_differential_of_an_even_odd_product(self):
        phi = _odd_product()
        lifted = antitangent_morphism(phi)
        rsrc = antitangent_chart(phi.source)
        rtgt = antitangent_chart(phi.target)
        ox = phi.source.coordinate("ox")
        oth = phi.source.coordinate("oth")
        oxi = phi.target.coordinate("oxi")
        dx = rsrc.differential_of(ox)
        dth = rsrc.differential_of(oth)
        dxi = rtgt.differential_of(oxi)
        assert lifted.assignment[dxi] == poly(dx) * poly(oth) + poly(
            ox
        ) * poly(dth)

    def test_odd_rich_lift_matches_the_sum_over_partials(self):
        x, y = Generator("ox1", EVEN), Generator("oy1", EVEN)
        a, b = Generator("oa1", ODD), Generator("ob1", ODD)
        u, p = Generator("ou1", EVEN), Generator("op1", ODD)
        src = Chart("OR1", (x, y, a, b))
        tgt = Chart("OR2", (u, p))
        u_image = poly(x) ** 3 * poly(y) + Fraction(1, 2) * poly(x) * poly(a) * poly(b)
        p_image = poly(x) ** 2 * poly(a) - poly(y) * poly(b)
        phi = Morphism(src, tgt, {u: u_image, p: p_image})
        lifted = antitangent_morphism(phi)
        assert lifted == oracle_antitangent_morphism(phi)
        d = antitangent_chart(src).differential_of
        dp = antitangent_chart(tgt).differential_of(p)
        # d.x is odd and comes from the left, past the odd a
        assert lifted.assignment[dp] == (
            2 * poly(d(x)) * poly(x) * poly(a)
            + poly(x) ** 2 * poly(d(a))
            - poly(d(y)) * poly(b)
            - poly(y) * poly(d(b))
        )

    def test_lift_text_pins_the_odd_signs(self):
        # d.y = sum(d.x * left partial); a and b are declared before d.x and
        # d.y, so d.x*a = -a*d.x and the derivative in b passes a
        doc = parse(
            "chart M (x: even, y: even, a: odd, b: odd);\n"
            "chart N (u: even, p: odd);\n"
            "morphism f : M -> N { u = x^3*y + x*a*b + y^2; p = x^2*a + y*b; }"
        )
        text = print_canonical(antitangent_morphism(doc.morphisms["f"]))
        assert text.splitlines() == [
            "u = x^3*y + y^2 + x*a*b",
            "p = x^2*a + y*b",
            "d.u = x^3*d.y + 3*x^2*y*d.x + x*d.a*b - x*d.b*a + 2*y*d.y + a*b*d.x",
            "d.p = x^2*d.a + y*d.b - 2*x*a*d.x - b*d.y",
        ]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_one_pass_lift_matches_the_sum_over_partials(self, seed):
        # rational coefficients; adjoined parameters are generators with no
        # differential, so constants
        rng = seeded(seed)
        a = rand_chart(rng, max_even=3, max_odd=3)
        b = rand_chart(rng)
        gens = a.coordinates + rand_params(rng).generators
        assignment = {
            y: rand_poly(rng, gens, parity=y.parity, max_terms=4)
            for y in b.coordinates
        }
        phi = Morphism(a, b, assignment)
        assert antitangent_morphism(phi) == oracle_antitangent_morphism(phi)

    def test_functoriality_of_the_parity_reversed_lift(self):
        rng = seeded(43)
        for _ in range(10):
            a = rand_chart(rng)
            b = rand_chart(rng)
            c = rand_chart(rng)
            psi = rand_morphism(rng, a, b)
            phi = rand_morphism(rng, b, c)
            assert antitangent_morphism(compose(phi, psi)) == compose(
                antitangent_morphism(phi), antitangent_morphism(psi)
            )


class TestInterchange:
    def test_renaming_matches_coordinates_structurally(self):
        flat = Chart("IX", (Generator("ix", EVEN),))
        ix = flat.coordinate("ix")
        swap = interchange(flat, 1)
        outer = swap.target
        assert swap.source.dimension == outer.dimension == (2, 2)
        inner_jets = prolong_chart(flat, 1)
        dx0 = outer.differential_of(inner_jets.jet(ix, 0))
        assert swap.assignment[dx0] == poly(
            swap.source.coordinate(dx0.name)
        )

    def test_both_routes_agree_on_the_square_map(self):
        phi = _square()
        route_a = compose(
            interchange(phi.target, 1),
            prolong_morphism(antitangent_morphism(phi), 1),
        )
        route_b = compose(
            antitangent_morphism(prolong_morphism(phi, 1)),
            interchange(phi.source, 1),
        )
        assert route_a == route_b
        tgt_jets = prolong_chart(phi.target, 1)
        sy = phi.target.coordinate("sy")
        sx = phi.source.coordinate("sx")
        dy1 = antitangent_chart(tgt_jets).differential_of(tgt_jets.jet(sy, 1))
        inner = prolong_chart(antitangent_chart(phi.source), 1)
        dsx = antitangent_chart(phi.source).differential_of(sx)
        x0 = poly(inner.jet(sx, 0))
        x1 = poly(inner.jet(sx, 1))
        dx0 = poly(inner.jet(dsx, 0))
        dx1 = poly(inner.jet(dsx, 1))
        assert route_a.assignment[dy1] == 2 * x1 * dx0 + 2 * x0 * dx1

    def test_identity_morphism_gives_equal_routes(self):
        ident = Morphism.identity(M)
        route_a = compose(
            interchange(M, 2),
            prolong_morphism(antitangent_morphism(ident), 2),
        )
        route_b = compose(
            antitangent_morphism(prolong_morphism(ident, 2)),
            interchange(M, 2),
        )
        assert route_a == route_b

    def test_random_battery(self):
        rng = seeded(53)
        for _ in range(12):
            src = rand_chart(rng)
            tgt = rand_chart(rng)
            phi = rand_morphism(rng, src, tgt)
            k = rng.randint(0, 2)
            route_a = compose(
                interchange(tgt, k),
                prolong_morphism(antitangent_morphism(phi), k),
            )
            route_b = compose(
                antitangent_morphism(prolong_morphism(phi, k)),
                interchange(src, k),
            )
            assert route_a == route_b


class TestHomothety:
    def test_symbolic_scale_acts_by_weight(self):
        lam = Generator("hlam", EVEN)
        lifted = prolong_chart(M, 2)
        h = homothety(lifted, lam)
        assert h.assignment[lifted.jet(X, 2)] == poly(lam) ** 2 * poly(
            lifted.jet(X, 2)
        )
        assert h.assignment[lifted.jet(X, 0)] == poly(lifted.jet(X, 0))

    def test_zero_scale_is_section_after_projection(self):
        lifted = prolong_chart(M, 2)
        assert homothety(lifted, 0) == compose(
            zero_section(lifted), project(lifted, 0)
        )

    def test_unit_scale_is_the_identity(self):
        lifted = prolong_chart(M, 2)
        assert homothety(lifted, 1) == Morphism.identity(lifted)

    def test_odd_scale_is_rejected(self):
        lifted = prolong_chart(M, 1)
        eta = Generator("heta", ODD)
        with pytest.raises(ParityError):
            homothety(lifted, eta)

    def test_semigroup_law_with_symbolic_scales(self):
        lam = Generator("hlam2", EVEN)
        mu = Generator("hmu2", EVEN)
        lifted = prolong_chart(M, 3)
        left = compose(homothety(lifted, lam), homothety(lifted, mu))
        right = homothety(lifted, poly(lam) * poly(mu))
        assert left == right

    def test_rational_scale(self):
        lifted = prolong_chart(M, 2)
        h = homothety(lifted, Fraction(1, 2))
        assert h.assignment[lifted.jet(X, 2)] == Fraction(1, 4) * poly(
            lifted.jet(X, 2)
        )

    def test_parity_reversed_lift_holds_an_adjoined_scale_constant(self):
        lam = Generator("hlam4", EVEN)
        lifted = prolong_chart(M, 1)
        h = homothety(lifted, lam)
        lift = antitangent_morphism(h)
        assert lift == oracle_antitangent_morphism(h)
        d = antitangent_chart(lifted).differential_of
        # lam is no coordinate of the chart: it has no differential
        assert lift.assignment[d(lifted.jet(X, 1))] == poly(lam) * poly(
            d(lifted.jet(X, 1))
        )
        assert lift.assignment[d(lifted.jet(TH, 0))] == poly(d(lifted.jet(TH, 0)))

    def test_lifted_morphisms_commute_with_rescaling(self):
        rng = seeded(59)
        lam = Generator("hlam3", EVEN)
        for _ in range(10):
            src = rand_chart(rng)
            tgt = rand_chart(rng)
            phi = rand_morphism(rng, src, tgt)
            k = rng.randint(1, 3)
            lifted = prolong_morphism(phi, k)
            left = compose(lifted, homothety(prolong_chart(src, k), lam))
            right = compose(homothety(prolong_chart(tgt, k), lam), lifted)
            assert left == right


class TestProducts:
    def test_dimension_is_additive(self):
        a = Chart("PA", (Generator("pa", EVEN),))
        b = Chart("PB", (Generator("pb", ODD),))
        prod = product_chart(a, b)
        assert prod.dimension == (1, 1)

    def test_coordinates_are_prefixed_by_chart_names(self):
        a = Chart("PA2", (Generator("u", EVEN),))
        b = Chart("PB2", (Generator("u", ODD),))
        prod = product_chart(a, b)
        names = [g.name for g in prod.coordinates]
        assert names == ["PA2_u", "PB2_u"]

    def test_pair_morphism_lift_equals_lifted_pair(self):
        phi = _square()
        src_b = Chart("PS", (Generator("pth2", ODD),))
        tgt_b = Chart("PT", (Generator("pxi2", ODD),))
        pth = src_b.coordinate("pth2")
        pxi = tgt_b.coordinate("pxi2")
        psi = Morphism(src_b, tgt_b, {pxi: poly(pth)})
        k = 1
        pair = product_morphism(phi, psi)
        route_a = compose(
            product_prolong_identification(phi.target, tgt_b, k),
            prolong_morphism(pair, k),
        )
        route_b = compose(
            product_morphism(
                prolong_morphism(phi, k), prolong_morphism(psi, k)
            ),
            product_prolong_identification(phi.source, src_b, k),
        )
        assert route_a == route_b

    def test_random_pair_battery(self):
        rng = seeded(61)
        for _ in range(10):
            a, a2 = rand_chart(rng), rand_chart(rng)
            b, b2 = rand_chart(rng), rand_chart(rng)
            phi = rand_morphism(rng, a, a2)
            psi = rand_morphism(rng, b, b2)
            k = rng.randint(0, 2)
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


class TestWeights:
    def test_lifted_assignments_are_weight_homogeneous_and_triangular(self):
        rng = seeded(67)
        for _ in range(12):
            src = rand_chart(rng)
            tgt = rand_chart(rng)
            phi = rand_morphism(rng, src, tgt)
            k = rng.randint(1, 3)
            report = weight_report(prolong_morphism(phi, k))
            assert report.valid

    def test_report_flags_inhomogeneous_assignments(self):
        lifted = prolong_chart(M, 1)
        bad = Morphism(
            lifted,
            lifted,
            {
                g: poly(lifted.jet(X, 0))
                if g.parity == EVEN
                else poly(g)
                for g in lifted.coordinates
            },
        )
        report = weight_report(bad)
        assert not report.valid
