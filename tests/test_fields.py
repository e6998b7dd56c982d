"""Graded derivations, superbrackets and the canonical field relations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sjet import (
    AlgebraError,
    Chart,
    DomainError,
    EVEN,
    Generator,
    ODD,
    ParityError,
    VectorField,
    bracket,
    canonical_fields,
    const,
    homothety,
    normalize,
    partial,
    poly,
    prolong_chart,
    substitute,
    verify_relations,
    weight_field,
)
from sjet.grassmann import _derive_into, _settled, derivation
from support import parity_part, rand_chart, rand_poly, seeded

X = Generator("fx", EVEN)
TH = Generator("fth", ODD)
M = Chart("FM", (X, TH))


def rand_field(rng, chart, parity):
    values = {
        g: rand_poly(rng, chart.coordinates, parity=parity + g.parity)
        for g in chart.coordinates
    }
    return VectorField(chart, parity, values)


def sum_over_partials(f, values):
    """The sum over the generators g with a value of values[g] * partial(f, g)."""
    total = const(0)
    for g, value in values.items():
        total = total + value * partial(f, g)
    return total


class TestApply:
    def test_weight_field_scales_second_jets_by_two(self):
        lifted = prolong_chart(M, 2)
        delta = weight_field(lifted)
        x2 = poly(lifted.jet(X, 2))
        assert delta.apply(x2) == 2 * x2

    def test_euler_field_counts_degree(self):
        chart = Chart("FE", (Generator("fex", EVEN),))
        fex = chart.coordinate("fex")
        euler = VectorField(chart, EVEN, {fex: poly(fex)})
        assert euler.apply(poly(fex) ** 3) == 3 * poly(fex) ** 3

    def test_differential_of_a_squared_jet_coordinate(self):
        fields = canonical_fields(M, 1)
        chart = fields.chart
        x0 = chart.coordinate("fx@0")
        dx0 = chart.coordinate("d.fx@0")
        assert fields.d.apply(poly(x0) ** 2) == 2 * poly(x0) * poly(dx0)

    def test_foreign_function_is_rejected(self):
        chart = Chart("FF", (Generator("ffx", EVEN),))
        ffx = chart.coordinate("ffx")
        field = VectorField(chart, EVEN, {ffx: const(1)})
        message = "function uses generators outside 'FF': fth, fx"
        with pytest.raises(AlgebraError, match=f"^{message}$"):
            field.apply(poly(X) * poly(TH) + poly(ffx))

    def test_apply_matches_the_dense_sum_over_the_chart(self):
        rng = seeded(97)
        for trial in range(40):
            chart = rand_chart(rng)
            if trial % 2:
                # declaration order differs from chart order
                chart = Chart(f"{chart.name}r", chart.coordinates[::-1])
            field = rand_field(rng, chart, rng.choice((EVEN, ODD)))
            f = rand_poly(rng, chart.coordinates, max_terms=4)
            assert field.apply(f) == sum_over_partials(f, field.values)

    def test_apply_of_a_sparse_field_on_a_lifted_chart(self):
        fields = canonical_fields(M, 3)
        rng = seeded(101)
        for _ in range(10):
            f = rand_poly(rng, fields.chart.coordinates, max_terms=4)
            for field in fields.by_name().values():
                assert field.apply(f) == sum_over_partials(f, field.values)

    def test_multi_term_odd_values_with_a_repeated_factor(self):
        x, a, b = Generator("dx", EVEN), Generator("da", ODD), Generator("db", ODD)
        chart = Chart("FD", (x, a, b))
        # d/d x of x*a is a, and (3/2*a + b) * a = b*a = -a*b since a*a = 0;
        # the values on a and b default to zero
        field = VectorField(chart, ODD, {x: Fraction(3, 2) * poly(a) + poly(b)})
        f = poly(x) * poly(a)
        assert field.apply(f) == -(poly(a) * poly(b))
        assert field.apply(f) == sum_over_partials(f, field.values)

    def test_graded_leibniz_on_random_products(self):
        rng = seeded(71)
        for _ in range(40):
            chart = rand_chart(rng)
            p = rng.choice((EVEN, ODD))
            field = rand_field(rng, chart, p)
            f = rand_poly(rng, chart.coordinates)
            g = rand_poly(rng, chart.coordinates)
            for fp in (EVEN, ODD):
                part = parity_part(f, fp)
                sign = -1 if (p == ODD and fp == ODD) else 1
                assert field.apply(part * g) == field.apply(
                    part
                ) * g + sign * (part * field.apply(g))


class TestDerivation:
    """``derivation`` against the sum over ``partial``, the reference."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_derivation_matches_the_sum_over_partials(self, seed):
        rng = seeded(seed)
        chart = rand_chart(rng, max_even=3, max_odd=3)
        gens = chart.coordinates
        # values of any parity, many with several odd terms over the same
        # odd generators as f, rational coefficients, and some generators
        # of f with no value at all
        values = {
            g: rand_poly(rng, gens, parity=rng.choice((EVEN, ODD, None)), max_terms=4)
            for g in gens
            if rng.random() < 0.7
        }
        f = rand_poly(rng, gens, max_terms=4)
        expected = sum_over_partials(f, values)
        assert derivation(f, values) == expected
        scale = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        sums = {}
        _derive_into(sums, f, values, scale)
        assert _settled(sums) == scale * expected

    def test_a_generator_with_no_value_is_a_constant(self):
        x, a = Generator("cx", EVEN), Generator("ca", ODD)
        f = Fraction(1, 3) * poly(x) ** 2 * poly(a)
        assert derivation(f, {x: poly(a)}) == 0
        assert derivation(f, {a: const(1)}) == Fraction(1, 3) * poly(x) ** 2
        assert derivation(f, {}) == 0


class TestVectorFieldConstruction:
    def test_value_parity_must_match(self):
        with pytest.raises(ParityError):
            VectorField(M, EVEN, {X: poly(TH)})

    def test_foreign_coordinate_is_rejected(self):
        with pytest.raises(AlgebraError):
            VectorField(M, EVEN, {Generator("alien", EVEN): const(1)})

    def test_value_with_a_foreign_generator_is_rejected(self):
        stray = Generator("fstray", EVEN)
        message = "^value on 'fx' uses generators outside 'FM': fstray$"
        with pytest.raises(AlgebraError, match=message) as exc:
            VectorField(M, EVEN, {X: poly(stray)})
        assert exc.value.subject == X.name

    def test_missing_coordinates_default_to_zero(self):
        field = VectorField(M, ODD, {X: poly(TH)})
        assert field.values[TH].is_zero()


class TestBracket:
    def test_self_bracket_of_the_differential_vanishes(self):
        fields = canonical_fields(M, 2)
        assert bracket(fields.d, fields.d).is_zero()

    def test_differential_degree_field_normalises_the_differential(self):
        fields = canonical_fields(M, 2)
        assert bracket(fields.delta1, fields.d) == fields.d

    def test_even_self_bracket_vanishes(self):
        rng = seeded(73)
        chart = rand_chart(rng)
        field = rand_field(rng, chart, EVEN)
        assert bracket(field, field).is_zero()

    def test_jet_weight_against_shift_on_first_jets(self):
        fields = canonical_fields(M, 1)
        chart = fields.chart
        x1 = chart.coordinate("fx@1")
        dx0 = chart.coordinate("d.fx@0")
        got = bracket(fields.delta2, fields.J)
        assert got.values[x1] == -poly(dx0)
        assert fields.J.values[x1] == poly(dx0)

    def test_bracket_matches_the_commutator_of_applications(self):
        rng = seeded(103)
        for _ in range(25):
            chart = rand_chart(rng)
            pa = rng.choice((EVEN, ODD))
            pb = rng.choice((EVEN, ODD))
            a = rand_field(rng, chart, pa)
            b = rand_field(rng, chart, pb)
            sign = -1 if (pa == ODD and pb == ODD) else 1
            got = bracket(a, b)
            assert got.parity is pa + pb
            assert set(got.values) == set(chart.coordinates)
            for g in chart.coordinates:
                expected = a.apply(b.values[g]) - sign * b.apply(a.values[g])
                assert got.values[g] == expected

    def test_chart_mismatch_is_rejected(self):
        other = Chart("FO", (Generator("fox", EVEN),))
        fox = other.coordinate("fox")
        a = VectorField(M, EVEN, {X: poly(X)})
        b = VectorField(other, EVEN, {fox: poly(fox)})
        with pytest.raises(AlgebraError):
            bracket(a, b)

    def test_graded_antisymmetry(self):
        rng = seeded(79)
        for _ in range(25):
            chart = rand_chart(rng)
            pa = rng.choice((EVEN, ODD))
            pb = rng.choice((EVEN, ODD))
            a = rand_field(rng, chart, pa)
            b = rand_field(rng, chart, pb)
            sign = -1 if (pa == ODD and pb == ODD) else 1
            assert bracket(a, b) == (-sign) * bracket(b, a)

    def test_graded_jacobi_identity(self):
        rng = seeded(83)
        for _ in range(15):
            chart = rand_chart(rng)
            pa = rng.choice((EVEN, ODD))
            pb = rng.choice((EVEN, ODD))
            pc = rng.choice((EVEN, ODD))
            a = rand_field(rng, chart, pa)
            b = rand_field(rng, chart, pb)
            c = rand_field(rng, chart, pc)
            sign = -1 if (pa == ODD and pb == ODD) else 1
            left = bracket(a, bracket(b, c))
            right = bracket(bracket(a, b), c) + sign * bracket(
                b, bracket(a, c)
            )
            assert left == right


class TestCanonicalFields:
    def test_differential_values_on_a_line(self):
        line = Chart("FL", (Generator("flx", EVEN),))
        fields = canonical_fields(line, 1)
        chart = fields.chart
        x0 = chart.coordinate("flx@0")
        x1 = chart.coordinate("flx@1")
        dx0 = chart.coordinate("d.flx@0")
        dx1 = chart.coordinate("d.flx@1")
        assert fields.d.values[x0] == poly(dx0)
        assert fields.d.values[x1] == poly(dx1)
        assert fields.d.values[dx0].is_zero()
        assert fields.d.values[dx1].is_zero()

    def test_shift_moves_only_first_jets_down(self):
        line = Chart("FL2", (Generator("fl2x", EVEN),))
        fields = canonical_fields(line, 1)
        chart = fields.chart
        x0 = chart.coordinate("fl2x@0")
        x1 = chart.coordinate("fl2x@1")
        dx0 = chart.coordinate("d.fl2x@0")
        assert fields.J.values[x1] == poly(dx0)
        zero_on = [g for g in chart.coordinates if g is not x1]
        assert all(fields.J.values[g].is_zero() for g in zero_on)

    def test_jet_weight_ignores_order_zero(self):
        fields = canonical_fields(M, 1)
        x0 = fields.chart.coordinate("fx@0")
        assert fields.delta2.values[x0].is_zero()

    def test_total_weight_is_the_sum(self):
        fields = canonical_fields(M, 2)
        assert fields.delta == fields.delta1 + fields.delta2

    def test_negative_order_is_rejected(self):
        with pytest.raises(DomainError):
            canonical_fields(M, -1)


class TestEigenvalues:
    def test_jet_weight_eigenvalue_on_jet_monomials(self):
        rng = seeded(89)
        fields = canonical_fields(M, 3)
        chart = fields.chart
        jet_gens = [g for g in chart.coordinates if not g.name.startswith("d.")]
        for _ in range(30):
            factors = []
            for g in jet_gens:
                if g.parity == EVEN:
                    factors.extend([g] * rng.randint(0, 2))
                elif rng.random() < 0.4:
                    factors.append(g)
            mono = normalize([(1, factors)])
            if mono.is_zero():
                continue
            weight = sum(g.weight for g in factors)
            assert fields.delta2.apply(mono) == weight * mono

    def test_differential_degree_eigenvalue(self):
        fields = canonical_fields(M, 2)
        chart = fields.chart
        x1 = chart.coordinate("fx@1")
        dx2 = chart.coordinate("d.fx@2")
        dth0 = chart.coordinate("d.fth@0")
        f = poly(x1) * poly(dx2) * poly(dth0)
        assert fields.delta1.apply(f) == 2 * f

    def test_jet_weight_is_the_symbolic_scale_derivative(self):
        lam = Generator("flam", EVEN)
        lifted = prolong_chart(M, 2)
        h = homothety(lifted, lam)
        at_one = {lam: const(1)}
        at_one.update({g: poly(g) for g in lifted.coordinates})
        delta = weight_field(lifted)
        for g in lifted.coordinates:
            derivative = substitute(partial(h.assignment[g], lam), at_one)
            assert derivative == delta.apply(poly(g))


class TestRelationSuite:
    def test_line_at_first_order(self):
        line = Chart("FR1", (Generator("fr1x", EVEN),))
        report = verify_relations(line, 1)
        assert report.all_pass
        assert len(report.rows) == 13

    def test_two_two_chart_at_third_order(self):
        chart = Chart(
            "FR2",
            (
                Generator("fr2a", EVEN),
                Generator("fr2b", EVEN),
                Generator("fr2p", ODD),
                Generator("fr2q", ODD),
            ),
        )
        assert verify_relations(chart, 3).all_pass

    def test_purely_odd_chart(self):
        chart = Chart("FR3", (Generator("fr3p", ODD),))
        assert verify_relations(chart, 2).all_pass

    def test_order_zero_is_rejected(self):
        with pytest.raises(DomainError):
            verify_relations(M, 0)
