"""Charts, morphisms, parameterised curves, jets and contact."""

import pytest

from sjet import (
    AlgebraError,
    Chart,
    ComparisonError,
    CompositionError,
    CoverageError,
    EVEN,
    Generator,
    Jet,
    Morphism,
    ODD,
    OrderError,
    ParameterAlgebra,
    ParityError,
    SCurve,
    SPoint,
    TimeSeries,
    compose,
    const,
    contact_equal,
    evaluate_function,
    jet_of_curve,
    poly,
    reparameterise,
    series_compose,
    substitute,
)
from support import (
    rand_chart,
    rand_curve,
    rand_morphism,
    rand_params,
    rand_poly,
    rand_series,
    seeded,
)

X = Generator("gx", EVEN)
TH = Generator("gth", ODD)
M = Chart("M", (X, TH))

Y = Generator("gy", EVEN)
XI = Generator("gxi", ODD)
N = Chart("N", (Y, XI))


class TestCharts:
    def test_dimension_counts_parities(self):
        assert M.dimension == (1, 1)

    def test_coordinate_names_must_be_unique(self):
        from sjet import DeclarationError

        with pytest.raises(DeclarationError):
            Chart("bad", (Generator("a", EVEN), Generator("a", ODD)))

    def test_lookup_by_name(self):
        assert M.coordinate("gx") is X


class TestMorphisms:
    def test_identity_is_a_left_and_right_unit(self):
        phi = Morphism(M, N, {Y: poly(X) ** 2, XI: poly(X) * poly(TH)})
        assert compose(Morphism.identity(N), phi) == phi
        assert compose(phi, Morphism.identity(M)) == phi

    def test_composition_substitutes(self):
        phi = Morphism(M, M, {X: poly(X) ** 2, TH: poly(TH)})
        psi = Morphism(M, M, {X: poly(X) + const(1), TH: poly(TH)})
        got = compose(phi, psi)
        assert got.assignment[X] == poly(X) ** 2 + 2 * poly(X) + const(1)

    def test_composition_with_coordinatewise_identity(self):
        phi = Morphism(M, N, {Y: poly(X), XI: poly(X) * poly(TH)})
        psi = Morphism(M, M, {X: poly(X), TH: poly(TH)})
        assert compose(phi, psi).assignment[XI] == poly(X) * poly(TH)

    def test_composition_is_associative_on_random_triples(self):
        rng = seeded(11)
        for _ in range(25):
            a = rand_chart(rng)
            b = rand_chart(rng)
            c = rand_chart(rng)
            d = rand_chart(rng)
            chi = rand_morphism(rng, a, b)
            psi = rand_morphism(rng, b, c)
            phi = rand_morphism(rng, c, d)
            assert compose(compose(phi, psi), chi) == compose(
                phi, compose(psi, chi)
            )

    def test_composition_needs_the_charts_to_line_up(self):
        phi = Morphism(M, N, {Y: poly(X), XI: poly(TH)})
        with pytest.raises(CompositionError, match="^cannot compose: 'N' is not 'M'$"):
            compose(phi, phi)

    def test_missing_target_coordinate_is_rejected(self):
        with pytest.raises(CoverageError):
            Morphism(M, N, {Y: poly(X)})

    def test_unknown_target_coordinate_is_rejected(self):
        with pytest.raises(AlgebraError, match="not a coordinate of chart 'N'") as exc:
            Morphism(M, N, {Y: poly(X), XI: poly(TH), X: poly(X)})
        assert exc.value.subject == X.name

    def test_validation_flags_parity_violations(self):
        good = Morphism(M, N, {Y: poly(X) + const(2), XI: poly(TH)})
        assert good.assignment[XI] == poly(TH)
        with pytest.raises(ParityError, match="parity violation") as exc:
            Morphism(M, N, {Y: poly(TH), XI: poly(TH)})
        assert exc.value.subject == Y.name

    def test_validation_accepts_mixed_degree_odd_values(self):
        t1 = Generator("vt1", ODD)
        t2 = Generator("vt2", ODD)
        t3 = Generator("vt3", ODD)
        src = Chart("V", (Generator("vx", EVEN), t1, t2, t3))
        vx = src.coordinate("vx")
        value = poly(vx) * poly(t1) + poly(t1) * poly(t2) * poly(t3)
        tgt = Chart("W", (Generator("wxi", ODD),))
        xi = tgt.coordinate("wxi")
        phi = Morphism(src, tgt, {xi: value})
        assert phi.assignment[xi] == value


class TestPointsAndEvaluation:
    def test_coordinate_value_is_returned(self):
        s = Generator("ps", EVEN)
        params = ParameterAlgebra("P", (s,))
        chart = Chart("L", (Generator("lx", EVEN),))
        lx = chart.coordinate("lx")
        pt = SPoint(chart, params, {lx: poly(s)})
        assert evaluate_function(poly(lx), pt) == poly(s)

    def test_odd_pair_evaluates_to_odd_pair(self):
        e1 = Generator("pe1", ODD)
        e2 = Generator("pe2", ODD)
        params = ParameterAlgebra("P2", (e1, e2))
        pt = SPoint(M, params, {X: const(0), TH: poly(e1)})
        f = poly(TH)
        assert evaluate_function(f, pt) == poly(e1)

    def test_quadratic_plus_odd_pair_at_a_fat_point(self):
        e1 = Generator("qe1", ODD)
        e2 = Generator("qe2", ODD)
        params = ParameterAlgebra("P3", (e1, e2))
        t1 = Generator("qt1", ODD)
        t2 = Generator("qt2", ODD)
        chart = Chart("Q", (Generator("qx", EVEN), t1, t2))
        qx = chart.coordinate("qx")
        pt = SPoint(
            chart,
            params,
            {
                qx: const(1) + poly(e1) * poly(e2),
                t1: poly(e1),
                t2: poly(e2),
            },
        )
        f = poly(qx) ** 2 + poly(t1) * poly(t2)
        assert evaluate_function(f, pt) == const(1) + 3 * poly(e1) * poly(e2)

    def test_evaluation_is_multiplicative(self):
        rng = seeded(31)
        for _ in range(25):
            chart = rand_chart(rng)
            params = rand_params(rng)
            values = {
                g: rand_poly(rng, params.generators, parity=g.parity)
                for g in chart.coordinates
            }
            pt = SPoint(chart, params, values)
            f = rand_poly(rng, chart.coordinates)
            g = rand_poly(rng, chart.coordinates)
            assert evaluate_function(f * g, pt) == evaluate_function(
                f, pt
            ) * evaluate_function(g, pt)

    def test_point_parity_mismatch_is_rejected(self):
        e = Generator("xe", ODD)
        params = ParameterAlgebra("P4", (e,))
        with pytest.raises(ParityError):
            SPoint(M, params, {X: poly(e), TH: poly(e)})

    def test_point_unknown_coordinate_is_rejected(self):
        e = Generator("xu", ODD)
        params = ParameterAlgebra("P5", (e,))
        with pytest.raises(AlgebraError) as exc:
            SPoint(M, params, {X: const(0), TH: poly(e), Y: const(1)})
        assert exc.value.subject == Y.name

    def test_point_value_with_a_foreign_generator_is_rejected(self):
        e, stray = Generator("xf", ODD), Generator("xstray", ODD)
        params = ParameterAlgebra("P6", (e,))
        message = "^value on 'gth' uses generators outside 'P6': xstray$"
        with pytest.raises(AlgebraError, match=message) as exc:
            SPoint(M, params, {X: const(0), TH: poly(stray)})
        assert exc.value.subject == TH.name


def _one_even_curve(series):
    s0 = Generator("cs0", EVEN)
    eta = Generator("ceta", ODD)
    zeta = Generator("czeta", ODD)
    params = ParameterAlgebra("CP", (s0, eta, zeta))
    chart = Chart("C1", (Generator("cx", EVEN),))
    cx = chart.coordinate("cx")
    return chart, cx, params, (s0, eta, zeta), series


class TestJets:
    def test_coefficients_are_read_off_at_zero(self):
        s0 = Generator("js0", EVEN)
        eta = Generator("jeta", ODD)
        zeta = Generator("jzeta", ODD)
        params = ParameterAlgebra("JP", (s0, eta, zeta))
        chart = Chart("J1", (Generator("jx", EVEN),))
        jx = chart.coordinate("jx")
        gamma = SCurve(
            chart,
            params,
            1,
            {jx: TimeSeries([poly(s0), poly(eta) * poly(zeta)])},
        )
        jet = jet_of_curve(gamma, 1)
        assert jet.coefficient(jx, 0) == poly(s0)
        assert jet.coefficient(jx, 1) == poly(eta) * poly(zeta)

    def test_low_coefficients_of_a_cubic_vanish(self):
        params = ParameterAlgebra("JP2", ())
        chart = Chart("J2", (Generator("jx2", EVEN),))
        jx = chart.coordinate("jx2")
        gamma = SCurve(chart, params, 3, {jx: TimeSeries([0, 0, 0, 1])})
        jet = jet_of_curve(gamma, 2)
        assert jet.coefficients[jx] == (const(0), const(0), const(0))

    def test_reexpansion_about_one(self):
        params = ParameterAlgebra("JP3", ())
        chart = Chart("J3", (Generator("jx3", EVEN),))
        jx = chart.coordinate("jx3")
        gamma = SCurve(chart, params, 2, {jx: TimeSeries([1, 2, 1])})
        jet = jet_of_curve(gamma, 2, at=1)
        assert jet.coefficients[jx] == (const(4), const(4), const(1))

    def test_shift_agrees_with_polynomial_recentering(self):
        rng = seeded(47)
        for _ in range(30):
            chart = rand_chart(rng, max_odd=1)
            params = rand_params(rng)
            order = rng.randint(0, 3)
            gamma = rand_curve(rng, chart, params, order)
            t0 = rng.randint(-2, 2)
            jet = jet_of_curve(gamma, order, at=t0)
            for g in chart.coordinates:
                shifted = gamma.components[g].shift(t0)
                assert jet.coefficients[g] == shifted.coefficients

    def test_order_above_storage_is_rejected(self):
        params = ParameterAlgebra("JP4", ())
        chart = Chart("J4", (Generator("jx4", EVEN),))
        jx = chart.coordinate("jx4")
        gamma = SCurve(chart, params, 1, {jx: TimeSeries([0, 1])})
        with pytest.raises(OrderError):
            jet_of_curve(gamma, 2)

    def test_unknown_coordinate_is_rejected(self):
        params = ParameterAlgebra("JP5", ())
        chart = Chart("J5", (Generator("jx5", EVEN),))
        jx = chart.coordinate("jx5")
        with pytest.raises(AlgebraError) as exc:
            SCurve(chart, params, 0, {jx: TimeSeries([1]), X: TimeSeries([1])})
        assert exc.value.subject == X.name
        with pytest.raises(AlgebraError) as exc:
            Jet(chart, 0, {jx: (const(1),), X: (const(1),)})
        assert exc.value.subject == X.name

    def test_curve_value_with_a_foreign_generator_is_rejected(self):
        stray = Generator("jstray", EVEN)
        params = ParameterAlgebra("JP7", ())
        chart = Chart("J7", (Generator("jx7", EVEN),))
        jx = chart.coordinate("jx7")
        message = "^value on 'jx7' uses generators outside 'JP7': jstray$"
        with pytest.raises(AlgebraError, match=message) as exc:
            SCurve(chart, params, 1, {jx: TimeSeries([1, poly(stray)])})
        assert exc.value.subject == "jx7"

    def test_curve_orders_are_checked(self):
        params = ParameterAlgebra("JP8", ())
        chart = Chart("J8", (Generator("jx8", EVEN),))
        jx = chart.coordinate("jx8")
        message = "^curve order must be nonnegative, got -1$"
        with pytest.raises(OrderError, match=message):
            SCurve(chart, params, -1, {jx: TimeSeries([1])})
        message = "^component 'jx8' has order 1, expected 2$"
        with pytest.raises(OrderError, match=message) as exc:
            SCurve(chart, params, 2, {jx: TimeSeries([1, 0])})
        assert exc.value.subject == "jx8"

    def test_jet_entry_length_is_checked(self):
        chart = Chart("J9", (Generator("jx9", EVEN),))
        jx = chart.coordinate("jx9")
        message = "^jet entry for 'jx9' has 1 coefficients, expected 2$"
        with pytest.raises(OrderError, match=message) as exc:
            Jet(chart, 1, {jx: (const(1),)})
        assert exc.value.subject == "jx9"

    def test_jet_entry_parity_is_checked(self):
        chart = Chart("J6", (Generator("jx6", EVEN), Generator("jth6", ODD)))
        jx, jth = chart.coordinates
        good = Jet(chart, 1, {jx: (const(1), const(0)), jth: (const(0), poly(jth))})
        assert good.coefficient(jth, 1) == poly(jth)
        with pytest.raises(ParityError, match="parity violation") as exc:
            Jet(chart, 1, {jx: (const(1), poly(jth)), jth: (const(0), poly(jth))})
        assert exc.value.subject == "jx6"


class TestContact:
    def _pair(self):
        params = ParameterAlgebra("KP", ())
        chart = Chart("K1", (Generator("kx", EVEN),))
        kx = chart.coordinate("kx")
        gamma = SCurve(chart, params, 2, {kx: TimeSeries([0, 1, 0])})
        delta = SCurve(chart, params, 2, {kx: TimeSeries([0, 1, 1])})
        return chart, kx, gamma, delta

    def test_reflexive(self):
        _, _, gamma, _ = self._pair()
        assert contact_equal(gamma, gamma, 2)

    def test_agreement_to_first_but_not_second_order(self):
        _, _, gamma, delta = self._pair()
        assert contact_equal(gamma, delta, 1)
        assert not contact_equal(gamma, delta, 2)

    def test_chart_mismatch_is_rejected(self):
        _, _, gamma, _ = self._pair()
        params = ParameterAlgebra("KP2", ())
        other = Chart("K2", (Generator("kx2", EVEN),))
        kx2 = other.coordinate("kx2")
        sigma = SCurve(other, params, 2, {kx2: TimeSeries([0, 1, 0])})
        with pytest.raises(ComparisonError):
            contact_equal(gamma, sigma, 1)

    def test_equivalence_relation_on_random_curves(self):
        rng = seeded(13)
        for _ in range(20):
            chart = rand_chart(rng)
            params = rand_params(rng)
            order = rng.randint(1, 3)
            k = rng.randint(0, order - 1)
            gamma = rand_curve(rng, chart, params, order)
            # delta shares everything up to k, deviates above
            comps = {}
            for g in chart.coordinates:
                coeffs = list(gamma.components[g].coefficients)
                for r in range(k + 1, order + 1):
                    coeffs[r] = rand_poly(
                        rng, params.generators, parity=g.parity
                    )
                comps[g] = TimeSeries(coeffs)
            delta = SCurve(chart, params, order, comps)
            assert contact_equal(gamma, delta, k)
            assert contact_equal(delta, gamma, k)

    def test_matching_jets_give_matching_function_jets(self):
        rng = seeded(17)
        chart = rand_chart(rng, min_total=2)
        params = rand_params(rng)
        order = 3
        k = 2
        gamma = rand_curve(rng, chart, params, order)
        comps = {}
        for g in chart.coordinates:
            coeffs = list(gamma.components[g].coefficients)
            coeffs[order] = rand_poly(rng, params.generators, parity=g.parity)
            comps[g] = TimeSeries(coeffs)
        delta = SCurve(chart, params, order, comps)
        assert contact_equal(gamma, delta, k)
        for _ in range(50):
            f = rand_poly(
                rng, chart.coordinates, max_terms=4, max_even_power=3
            )
            through_gamma = series_compose(f, gamma.components).truncate(k)
            through_delta = series_compose(f, delta.components).truncate(k)
            assert through_gamma == through_delta


class TestReparameterisation:
    def test_identity_substitution_keeps_the_curve(self):
        rng = seeded(19)
        chart = rand_chart(rng)
        params = rand_params(rng)
        gamma = rand_curve(rng, chart, params, 2)
        sigma = {g: poly(g) for g in params.generators}
        assert reparameterise(gamma, sigma, params) == gamma

    def test_linear_odd_substitution(self):
        eta = Generator("re", ODD)
        params = ParameterAlgebra("RP", (eta,))
        e1 = Generator("re1", ODD)
        e2 = Generator("re2", ODD)
        params2 = ParameterAlgebra("RP2", (e1, e2))
        chart = Chart("R1", (Generator("rth", ODD),))
        rth = chart.coordinate("rth")
        gamma = SCurve(chart, params, 1, {rth: TimeSeries([0, poly(eta)])})
        got = reparameterise(
            gamma, {eta: poly(e1) + poly(e2)}, params2
        )
        assert got.components[rth] == TimeSeries(
            [0, poly(e1) + poly(e2)]
        )

    def test_parity_violating_substitution_is_rejected(self):
        eta = Generator("re3", ODD)
        params = ParameterAlgebra("RP3", (eta,))
        chart = Chart("R2", (Generator("rth2", ODD),))
        rth = chart.coordinate("rth2")
        gamma = SCurve(chart, params, 0, {rth: TimeSeries([poly(eta)])})
        s = Generator("rs", EVEN)
        params2 = ParameterAlgebra("RP4", (s,))
        with pytest.raises(ParityError):
            reparameterise(gamma, {eta: poly(s)}, params2)

    def test_jets_commute_with_parameter_substitution(self):
        rng = seeded(23)
        for _ in range(30):
            chart = rand_chart(rng)
            params = rand_params(rng)
            params2 = rand_params(rng)
            order = rng.randint(0, 3)
            gamma = rand_curve(rng, chart, params, order)
            sigma = {
                g: rand_poly(rng, params2.generators, parity=g.parity)
                for g in params.generators
            }
            moved = reparameterise(gamma, sigma, params2)
            left = jet_of_curve(moved, order)
            right = Jet(
                chart,
                order,
                {
                    g: tuple(
                        substitute(c, sigma)
                        for c in jet_of_curve(gamma, order).coefficients[g]
                    )
                    for g in chart.coordinates
                },
            )
            assert left == right
