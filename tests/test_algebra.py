"""Canonical-form arithmetic, derivatives, substitution and series."""

import copy
import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from sjet import (
    DeclarationError,
    DomainError,
    EVEN,
    Generator,
    Monomial,
    ODD,
    OrderError,
    ParityError,
    CoverageError,
    TIME,
    TimeSeries,
    const,
    normalize,
    partial,
    poly,
    print_canonical,
    series_compose,
    substitute,
)
from support import (
    bubble_sign,
    oracle_evaluate,
    oracle_series_compose,
    parity_part,
    rand_chart,
    rand_monomial,
    rand_params,
    rand_poly,
    rand_series,
    seeded,
)

X = Generator("x", EVEN)
TH1 = Generator("th1", ODD)
TH2 = Generator("th2", ODD)
TH3 = Generator("th3", ODD)

# a separate pool for property tests
HA = Generator("ha", EVEN)
HB = Generator("hb", EVEN)
HP = Generator("hp", ODD)
HQ = Generator("hq", ODD)
HR = Generator("hr", ODD)
POOL = (HA, HB, HP, HQ, HR)

KA = Generator("ka", EVEN)
KB = Generator("kb", EVEN)
KP = Generator("kp", ODD)
KQ = Generator("kq", ODD)
KR = Generator("kr", ODD)
POOL2 = (KA, KB, KP, KQ, KR)

coeffs = st.integers(-4, 4).map(Fraction)
factor_lists = st.lists(st.sampled_from(POOL), max_size=5)
raw_terms = st.lists(st.tuples(coeffs, factor_lists), max_size=4)
polys = raw_terms.map(normalize)

factor_lists2 = st.lists(st.sampled_from(POOL2), max_size=4)
raw_terms2 = st.lists(st.tuples(coeffs, factor_lists2), max_size=3)
polys2 = raw_terms2.map(normalize)

parities = st.sampled_from((EVEN, ODD))


@st.composite
def homogeneous(draw):
    parity = draw(parities)
    return parity_part(draw(polys), parity), parity


@st.composite
def substitutions(draw):
    return {g: parity_part(draw(polys2), g.parity) for g in POOL}


class TestCanonicalForm:
    def test_swapping_two_odd_factors_flips_the_sign(self):
        assert normalize([(1, [TH2, TH1])]) == -(poly(TH1) * poly(TH2))
        assert print_canonical(normalize([(1, [TH2, TH1])])) == "-th1*th2"

    def test_repeated_odd_factor_vanishes(self):
        assert normalize([(1, [TH1, TH1])]).is_zero()

    def test_three_factor_reordering_uses_the_transposition_sign(self):
        got = normalize([(1, [TH3, TH1, TH2])])
        expect = poly(TH1) * poly(TH2) * poly(TH3)
        assert got == expect
        assert bubble_sign([TH3, TH1, TH2]) == 1

    def test_random_odd_words_match_the_bubble_sort_oracle(self):
        rng = seeded(7)
        odds = (TH1, TH2, TH3, HP, HQ, HR)
        for _ in range(300):
            word = [rng.choice(odds) for _ in range(rng.randint(0, 5))]
            sign = bubble_sign(word)
            sorted_word = sorted(set(word), key=lambda g: g.index)
            expect = normalize([(sign, sorted_word)]) if sign else const(0)
            assert normalize([(1, word)]) == expect

    def test_scope_rejects_foreign_generators(self):
        with pytest.raises(DeclarationError):
            normalize([(1, [X, TH1])], scope=[X])

    def test_zero_coefficients_are_dropped(self):
        p = normalize([(1, [X]), (-1, [X])])
        assert p.is_zero()
        assert not p.terms


class TestProducts:
    def test_odd_generators_anticommute(self):
        assert poly(TH1) * poly(TH2) == normalize([(1, [TH1, TH2])])
        assert poly(TH2) * poly(TH1) == normalize([(-1, [TH1, TH2])])

    def test_square_of_one_plus_odd_pair(self):
        p = const(1) + poly(TH1) * poly(TH2)
        assert p * p == const(1) + 2 * poly(TH1) * poly(TH2)

    def test_even_generator_commutes(self):
        p = poly(X) * (poly(X) + poly(TH1) * poly(TH2))
        assert p == poly(X) ** 2 + poly(X) * poly(TH1) * poly(TH2)

    def test_negative_power_is_rejected(self):
        with pytest.raises(DomainError):
            poly(X) ** -1


fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 7))
fraction_polys = st.lists(st.tuples(fractions, factor_lists), max_size=5).map(
    normalize
)
power_bases = st.one_of(
    fraction_polys,
    fraction_polys.map(lambda p: parity_part(p, ODD)),
    fractions.map(const),
    st.just(const(0)),
)


def _repeated_product(p, n):
    result = const(1)
    for _ in range(n):
        result = result * p
    return result


class TestPowers:
    @settings(max_examples=200, deadline=None)
    @given(power_bases, st.integers(0, 8))
    def test_power_equals_the_repeated_product(self, p, n):
        got = p**n
        assert got == _repeated_product(p, n)
        _assert_stored_exactly(got)

    def test_binomial_coefficients(self):
        p = (1 + poly(X)) ** 400
        assert len(p.terms) == 401
        for mono, c in p.items():
            assert type(c) is int
            assert c == math.comb(400, mono.even_degree)

    def test_fractional_binomial(self):
        p = (Fraction(1, 2) + Fraction(2, 3) * poly(X)) ** 5
        for mono, c in p.items():
            k = mono.even_degree
            half, two_thirds = Fraction(1, 2), Fraction(2, 3)
            assert c == math.comb(5, k) * half ** (5 - k) * two_thirds**k

    def test_one_term_power_scales_the_exponents(self):
        (mono,) = (poly(X) ** (10**9)).terms
        assert mono.even == ((X, 10**9),)
        assert (Fraction(-2, 3) * poly(X) ** 2) ** 3 == Fraction(-8, 27) * poly(X) ** 6
        assert (poly(X) * poly(TH1) * poly(TH2)) ** 2 == 0
        assert (poly(TH1) + poly(TH2)) ** 2 == 0

    @pytest.mark.parametrize(
        "nilpotent",
        [poly(X) * poly(TH1) * poly(TH2), poly(TH1)],
        ids=["even term with odd factors", "odd term"],
    )
    def test_a_nilpotent_term_enters_the_cube_once(self, nilpotent):
        p = 1 + poly(X) + nilpotent
        assert p**3 == _repeated_product(p, 3)
        assert p**3 == (1 + poly(X)) ** 3 + 3 * (1 + poly(X)) ** 2 * nilpotent

    @pytest.mark.parametrize("exponent", [-1, 1.0, 2.5, Fraction(1, 2), "2", None])
    def test_bad_exponents_are_rejected(self, exponent):
        with pytest.raises(DomainError):
            (1 + poly(X)) ** exponent
        with pytest.raises(DomainError):
            poly(X) ** exponent


class TestDerivatives:
    def test_leftmost_odd_factor(self):
        assert partial(poly(TH1) * poly(TH2), TH1) == poly(TH2)

    def test_odd_factor_behind_one_other(self):
        assert partial(poly(TH1) * poly(TH2), TH2) == -poly(TH1)

    def test_even_differentiation(self):
        assert partial(poly(X) ** 2 * poly(TH1), X) == 2 * poly(X) * poly(TH1)

    def test_derivative_in_an_absent_generator_is_zero(self):
        assert partial(poly(X), TH1).is_zero()


class TestSubstitution:
    def test_even_shift_by_an_odd_pair(self):
        image = substitute(poly(X) ** 2, {X: poly(X) + poly(TH1) * poly(TH2)})
        assert image == poly(X) ** 2 + 2 * poly(X) * poly(TH1) * poly(TH2)

    def test_identity_substitution(self):
        assert substitute(poly(TH1), {TH1: poly(TH1)}) == poly(TH1)

    def test_evaluation_with_an_odd_parameter(self):
        eta = Generator("eta", ODD)
        image = substitute(poly(X) * poly(TH1), {X: const(1), TH1: poly(eta)})
        assert image == poly(eta)

    def test_parity_mismatch_is_rejected(self):
        with pytest.raises(ParityError):
            substitute(poly(X), {X: poly(TH1)})

    def test_series_coefficient_parity_is_checked_where_read(self):
        mixed = TimeSeries([0, poly(X) + poly(TH1)])
        with pytest.raises(ParityError, match="'th2'") as exc:
            series_compose(poly(X) * poly(TH2), {X: TimeSeries([1, 0]), TH2: mixed})
        assert exc.value.subject == "th2"
        # an image that f does not read is not checked
        got = series_compose(poly(X), {X: TimeSeries([1, 2]), TH2: mixed})
        assert got == TimeSeries([1, 2])

    def test_missing_generator_is_rejected(self):
        with pytest.raises(CoverageError):
            substitute(poly(X) * poly(TH1), {X: poly(X)})
        y = Generator("y", EVEN)
        with pytest.raises(CoverageError, match="no series for generator 'y'"):
            series_compose(poly(X) * poly(y), {X: TimeSeries([0, 1])})


def _rational_image(rng, gens, parity):
    """A random image of the given parity over ``gens``, divided by 1 to 6."""
    return rand_poly(rng, gens, parity=parity, max_terms=3) * Fraction(
        1, rng.randint(1, 6)
    )


class TestIntegerNumerators:
    """Evaluation on integer numerators against the term-by-term oracle."""

    def test_rational_images_are_divided_out_once(self):
        u = Generator("u_num", EVEN)
        f = Fraction(3, 2) * poly(X) ** 2 * poly(TH1) + Fraction(1, 3) * poly(X) + 5
        x_image = Fraction(1, 2) + Fraction(2, 3) * poly(u)
        th_image = Fraction(1, 4) * poly(TH2) - Fraction(1, 5) * poly(u) * poly(TH3)
        expected = (
            Fraction(3, 2) * x_image * x_image * th_image
            + Fraction(1, 3) * x_image
            + 5
        )
        got = substitute(f, {X: x_image, TH1: th_image})
        assert got == expected
        _assert_stored_exactly(got)
        series = {
            X: TimeSeries([Fraction(1, 2), Fraction(2, 3) * poly(u), Fraction(1, 7)]),
            TH1: TimeSeries([th_image, 0, Fraction(1, 3) * poly(TH2)]),
        }
        got = series_compose(f, series)
        assert got == oracle_evaluate(f, series, TimeSeries.constant(1, 2))
        assert got[0] == substitute(f, {X: const(Fraction(1, 2)), TH1: th_image})

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_substitute_matches_the_fraction_oracle(self, seed):
        rng = seeded(seed)
        f = rand_poly(rng, POOL, max_terms=4)
        images = {h: _rational_image(rng, POOL2, h.parity) for h in POOL}
        got = substitute(f, images)
        assert got == oracle_evaluate(f, images, const(1))
        _assert_stored_exactly(got)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_series_compose_matches_the_fraction_oracle(self, seed):
        rng = seeded(seed)
        order = rng.randint(0, 3)
        pgens = rand_params(rng).generators
        f = rand_poly(rng, POOL, max_terms=4)
        series = {
            h: rand_series(rng, pgens, order, h.parity) * Fraction(1, rng.randint(1, 6))
            for h in POOL
        }
        got = series_compose(f, series)
        assert got == oracle_evaluate(f, series, TimeSeries.constant(1, order))
        for c in got.coefficients:
            _assert_stored_exactly(c)


class TestTimeSeries:
    def test_coefficients_may_not_contain_the_time_variable(self):
        with pytest.raises(DeclarationError):
            TimeSeries([poly(TIME)])
        with pytest.raises(DeclarationError):
            TimeSeries([1, poly(X) * poly(TIME) ** 2])
        with pytest.raises(DeclarationError):
            TimeSeries([1, poly(X)]) * poly(TIME)

    def test_from_polynomial_truncates_high_powers(self):
        cubic = poly(TIME) ** 3
        assert TimeSeries.from_polynomial(cubic, 2) == TimeSeries([0, 0, 0])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_from_polynomial_round_trips_up_to_its_order(self, seed):
        # when p has t-degree at most k, sum(s[r] * t^r) == p
        rng = seeded(seed)
        p = rand_poly(rng, (TIME,) + POOL, max_terms=6, max_even_power=3)
        degree = max((e for m in p.terms for g, e in m.even if g is TIME), default=0)
        order = degree + rng.randint(0, 2)
        series = TimeSeries.from_polynomial(p, order)
        assert series.order == order
        t = poly(TIME)
        assert sum((c * t**r for r, c in enumerate(series.coefficients)), const(0)) == p

    def test_shift_reexpands_binomially(self):
        series = TimeSeries([1, 2, 1])
        assert series.shift(1) == TimeSeries([4, 4, 1])

    def test_truncated_product(self):
        a = TimeSeries([1, 1])
        assert a * a == TimeSeries([1, 2])

    def test_truncate_only_cuts_down(self):
        series = TimeSeries([1, 2, 3])
        assert series.truncate(0) == TimeSeries([1])
        assert series.truncate(2) == series
        for order in (-1, 3):
            message = f"^a series of order 2 cannot be truncated to {order}$"
            with pytest.raises(OrderError, match=message):
                series.truncate(order)


class TestSeriesComposition:
    def test_square_of_a_linear_series(self):
        x0 = Generator("x0p", EVEN)
        v0 = Generator("v0p", EVEN)
        series = {X: TimeSeries([poly(x0), poly(v0), 0])}
        got = series_compose(poly(X) ** 2, series)
        assert got == TimeSeries(
            [poly(x0) ** 2, 2 * poly(x0) * poly(v0), poly(v0) ** 2]
        )

    def test_coordinate_function_returns_the_series(self):
        series = TimeSeries([1, 2, 3])
        assert series_compose(poly(X), {X: series}) == series

    def test_even_odd_product_series(self):
        eta = Generator("eta2", ODD)
        series = {
            X: TimeSeries([0, 1]),
            TH1: TimeSeries([poly(eta), 0]),
        }
        got = series_compose(poly(X) * poly(TH1), series)
        assert got == TimeSeries([0, poly(eta)])

    def test_order_mismatch_is_rejected(self):
        with pytest.raises(OrderError):
            series_compose(
                poly(X) + poly(TH1),
                {X: TimeSeries([0, 1]), TH1: TimeSeries([0])},
            )

    def test_battery_against_the_differentiation_oracle(self):
        rng = seeded(101)
        for _ in range(40):
            chart = rand_chart(rng)
            order = rng.randint(0, 3)
            pgens = rand_params(rng).generators
            series = {
                g: rand_series(rng, pgens, order, g.parity)
                for g in chart.coordinates
            }
            f = rand_poly(rng, chart.coordinates, max_terms=4)
            assert series_compose(f, series) == oracle_series_compose(
                f, series
            )


class TestAlgebraLaws:
    @settings(max_examples=80, deadline=None)
    @given(homogeneous(), homogeneous())
    def test_supercommutativity(self, fp, gp):
        f, pf = fp
        g, pg = gp
        sign = -1 if (pf == ODD and pg == ODD) else 1
        assert f * g == sign * (g * f)

    @settings(max_examples=60, deadline=None)
    @given(polys, polys, polys)
    def test_associativity_and_distributivity(self, f, g, h):
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=80, deadline=None)
    @given(homogeneous(), polys, st.sampled_from(POOL))
    def test_left_derivative_satisfies_graded_leibniz(self, fp, g, v):
        f, pf = fp
        sign = -1 if (v.parity == ODD and pf == ODD) else 1
        assert partial(f * g, v) == partial(f, v) * g + sign * (
            f * partial(g, v)
        )

    @settings(max_examples=60, deadline=None)
    @given(polys)
    def test_odd_part_squares_to_zero(self, f):
        odd = parity_part(f, ODD)
        assert (odd * odd).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(polys, polys, substitutions())
    def test_substitution_is_a_homomorphism(self, f, g, sigma):
        assert substitute(f * g, sigma) == substitute(f, sigma) * substitute(
            g, sigma
        )
        assert substitute(f + g, sigma) == substitute(f, sigma) + substitute(
            g, sigma
        )

    def test_substitutions_compose(self):
        rng = seeded(55)
        for _ in range(30):
            f = rand_poly(rng, POOL, max_terms=4)
            sigma = {
                g: parity_part(rand_poly(rng, POOL2, max_terms=3), g.parity)
                for g in POOL
            }
            tau = {
                g: parity_part(rand_poly(rng, POOL, max_terms=3), g.parity)
                for g in POOL2
            }
            composed = {g: substitute(sigma[g], tau) for g in POOL}
            assert substitute(substitute(f, sigma), tau) == substitute(
                f, composed
            )

    def test_monomial_parity_counts_odd_factors(self):
        rng = seeded(90)
        for _ in range(50):
            factors = rand_monomial(rng, POOL)
            p = normalize([(1, factors)])
            if p.is_zero():
                continue
            odd_count = sum(1 for g in factors if g.parity == ODD)
            parity = ODD if odd_count % 2 else EVEN
            (mono,) = p.terms
            assert mono.parity == parity
            assert p.is_homogeneous(parity)
            assert not p.is_homogeneous(parity + ODD)


def _assert_stored_exactly(p):
    """Every coefficient is an int when whole, else a proper Fraction; no bools."""
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_whole_coefficients_are_stored_as_int(self, seed):
        rng = seeded(seed)
        f = rand_poly(rng, POOL, max_terms=4)
        g = rand_poly(rng, POOL, max_terms=4)
        sigma = {
            h: parity_part(rand_poly(rng, POOL2, max_terms=3), h.parity)
            for h in POOL
        }
        pgens = rand_params(rng).generators
        series = {h: rand_series(rng, pgens, 2, h.parity) for h in POOL}
        results = [f + g, f + f, f - g, f * g, 2 * f, f**3]
        results += [partial(f, v) for v in POOL]
        results.append(substitute(f, sigma))
        results += series_compose(f, series).coefficients
        for p in [f, g, *results]:
            _assert_stored_exactly(p)

    def test_bools_are_stored_as_int(self):
        for p in (const(True), normalize([(True, [X])]), poly(X) * True):
            _assert_stored_exactly(p)
            assert type(p.coefficient(next(iter(p.terms)))) is int

    @settings(max_examples=80, deadline=None)
    @given(raw_terms, raw_terms)
    def test_product_matches_normalising_the_concatenated_factors(self, a, b):
        joined = [(ca * cb, fa + fb) for ca, fa in a for cb, fb in b]
        assert normalize(a) * normalize(b) == normalize(joined)

    def test_monomials_are_read_only_pairs(self):
        even, odd = ((HA, 2), (HB, 1)), (HP, HQ)
        m = Monomial(even, odd)
        assert m == Monomial(even=even, odd=odd) == (even, odd)
        assert hash(m) == hash(Monomial(tuple(list(even)), tuple(list(odd))))
        assert (m.even, m.odd) == tuple(m) == (even, odd)
        assert Monomial() == Monomial((), ()) == ((), ())
        assert repr(m) == f"Monomial(even={even!r}, odd={odd!r})"
        twin = copy.copy(m)
        assert type(twin) is Monomial and twin == m
        for name in ("even", "odd"):
            with pytest.raises(AttributeError):
                setattr(m, name, ())
            with pytest.raises(AttributeError):
                delattr(m, name)
        with pytest.raises(AttributeError):
            m.weight = 3
        with pytest.raises(AttributeError):
            m.anything = 0
        assert (m.even, m.odd) == (even, odd)

    def test_monomials_are_values(self):
        direct = Monomial(((HA, 2),), (HP, HQ))
        (by_product,) = (poly(HQ) * poly(HA) * poly(HP) * poly(HA)).terms
        (by_normalize,) = normalize([(1, [HQ, HA, HP, HA])]).terms
        (by_partial,) = partial(poly(HA) ** 3 * poly(HP) * poly(HQ), HA).terms
        for other in (by_product, by_normalize, by_partial):
            assert other == direct
            assert hash(other) == hash(direct)
        assert direct != Monomial(((HA, 2),), (HP,))
        assert {direct: 1} == {by_product: 1}
        with pytest.raises(AttributeError):
            direct.even = ()
        with pytest.raises(AttributeError):
            direct._hash = 0
        with pytest.raises(AttributeError):
            del direct.odd
