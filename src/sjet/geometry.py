"""Charts, parameter algebras, morphisms, curves and their jets.

A chart is an ordered list of coordinate generators; a morphism between
charts is recorded by its pullback, assigning to every target coordinate a
polynomial over the source coordinates. Curves are families of points
parameterised by an auxiliary algebra: each coordinate gets a truncated time
series whose coefficients live over the parameters. The jet of a curve at a
time is the tuple of series coefficients re-expanded about that time.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import (
    ComparisonError,
    CompositionError,
    CoverageError,
    DeclarationError,
    OrderError,
    ParityError,
)
from .grassmann import (
    EVEN,
    Generator,
    Scalar,
    SuperPolynomial,
    TimeSeries,
    _Frozen,
    _as_polynomial,
    poly,
    substitute,
)


def _check_unique_names(kind: str, generators):
    seen = {}
    for g in generators:
        if g.name in seen:
            raise DeclarationError(f"duplicate {kind} name '{g.name}'", g.name)
        seen[g.name] = g
    return seen


class Chart(_Frozen):
    """An ordered coordinate system of even and odd generators, equal only to itself.

    ``_lifts`` keeps the charts lifted from this one (see ``prolong_chart``)."""

    __slots__ = ("name", "coordinates", "_by_name", "_coord_set", "_lifts")

    def __init__(self, name: str, coordinates: tuple[Generator, ...]):
        self._freeze(
            name=name,
            coordinates=coordinates,
            _by_name=_check_unique_names("coordinate", coordinates),
            _coord_set=frozenset(coordinates),
            _lifts={},
        )

    @property
    def dimension(self) -> tuple[int, int]:
        n = sum(1 for g in self.coordinates if g.parity is EVEN)
        return n, len(self.coordinates) - n

    def coordinate(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise DeclarationError(
                f"chart '{self.name}' has no coordinate '{name}'", name
            ) from None

    def __contains__(self, g: Generator) -> bool:
        return g in self._coord_set

    def __iter__(self):
        return iter(self.coordinates)

    def __repr__(self):
        n, m = self.dimension
        return f"Chart({self.name!r}, dim=({n}|{m}))"


class ParameterAlgebra(_Frozen):
    """Auxiliary generators that parameterise points and curves."""

    __slots__ = ("name", "generators", "_gen_set")

    def __init__(self, name: str, generators: tuple[Generator, ...]):
        _check_unique_names("parameter", generators)
        self._freeze(name=name, generators=generators, _gen_set=frozenset(generators))

    def __contains__(self, g: Generator) -> bool:
        return g in self._gen_set

    def __iter__(self):
        return iter(self.generators)

    def __repr__(self):
        return f"ParameterAlgebra({self.name!r}, {len(self.generators)} generators)"


def foreign_names(p: SuperPolynomial, allowed) -> str:
    """The sorted, comma-separated names of generators of p not in ``allowed``.

    ``allowed`` is a chart or a parameter algebra; the result is empty when p
    uses only its generators.
    """
    return ", ".join(sorted(g.name for g in p.generators() if g not in allowed))


def _check_disjoint(chart: Chart, params: ParameterAlgebra):
    shared = {g.name for g in chart.coordinates} & {
        g.name for g in params.generators
    }
    if shared:
        raise DeclarationError(
            f"parameter names collide with coordinates of '{chart.name}': "
            + ", ".join(sorted(shared))
        )


class Morphism:
    """A chart map recorded by its pullback on coordinates.

    ``assignment[y]`` is the polynomial over the source coordinates that the
    target coordinate y pulls back to. Generators that are neither source
    coordinates nor assigned by a composition partner are treated as
    constants, which is how adjoined parameters ride along. Every
    assignment must be homogeneous of its coordinate's parity.
    """

    __slots__ = ("source", "target", "assignment")

    def __init__(
        self,
        source: Chart,
        target: Chart,
        assignment: Mapping[Generator, SuperPolynomial | Scalar],
    ):
        values: dict[Generator, SuperPolynomial] = {}
        for y in target.coordinates:
            if y not in assignment:
                raise CoverageError(
                    f"morphism assigns nothing to target coordinate '{y.name}'",
                    y.name,
                )
            p = _as_polynomial(assignment[y])
            if p is NotImplemented:
                raise TypeError("morphism assignments must be polynomials")
            if not p.is_homogeneous(y.parity):
                raise ParityError(
                    f"parity violation: '{y.name}' is {y.parity} but its "
                    f"pullback is not",
                    y.name,
                )
            values[y] = p
        self.source = source
        self.target = target
        self.assignment = values

    @classmethod
    def identity(cls, chart: Chart) -> "Morphism":
        return cls(chart, chart, {g: poly(g) for g in chart.coordinates})

    def pullback(self, f: SuperPolynomial) -> SuperPolynomial:
        """Pull a polynomial over the target back to the source."""
        for g in f.generators():
            if g not in self.assignment:
                raise CoverageError(
                    f"'{g.name}' is not a coordinate of chart '{self.target.name}'"
                )
        return substitute(f, self.assignment)

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.source is other.source
            and self.target is other.target
            and self.assignment == other.assignment
        )

    def __repr__(self):
        return f"Morphism({self.source.name!r} -> {self.target.name!r})"


def compose(phi: Morphism, psi: Morphism) -> Morphism:
    """The composite phi after psi, recorded on pullbacks.

    The target chart of psi must be the source chart of phi. Generators in
    phi's assignments that are not coordinates of that chart (adjoined
    parameters) pass through unchanged.
    """
    if psi.target is not phi.source:
        raise CompositionError(
            f"cannot compose: '{psi.target.name}' is not '{phi.source.name}'"
        )
    assignment = {}
    sigma = dict(psi.assignment)
    for y, f in phi.assignment.items():
        for g in f.generators():
            if g not in sigma:
                sigma[g] = poly(g)
        assignment[y] = substitute(f, sigma)
    return Morphism(psi.source, phi.target, assignment)


class SPoint:
    """A parameterised point: coordinates valued in a parameter algebra."""

    __slots__ = ("chart", "params", "values")

    def __init__(
        self,
        chart: Chart,
        params: ParameterAlgebra,
        values: Mapping[Generator, SuperPolynomial | Scalar],
    ):
        _check_disjoint(chart, params)
        out: dict[Generator, SuperPolynomial] = {}
        for g in chart.coordinates:
            if g not in values:
                raise CoverageError(
                    f"point assigns nothing to coordinate '{g.name}'", g.name
                )
            p = _as_polynomial(values[g])
            if p is NotImplemented:
                raise TypeError("point values must be polynomials")
            if not p.is_homogeneous(g.parity):
                raise ParityError(
                    f"value of '{g.name}' must be homogeneous of parity {g.parity}",
                    g.name,
                )
            names = foreign_names(p, params)
            if names:
                raise DeclarationError(
                    f"value of '{g.name}' uses generators outside '{params.name}': "
                    f"{names}",
                    g.name,
                )
            out[g] = p
        self.chart = chart
        self.params = params
        self.values = out

    def __eq__(self, other):
        if not isinstance(other, SPoint):
            return NotImplemented
        return (
            self.chart is other.chart
            and self.params is other.params
            and self.values == other.values
        )

    def __repr__(self):
        return f"SPoint(chart={self.chart.name!r}, params={self.params.name!r})"


class SCurve:
    """A parameterised curve: one truncated time series per coordinate."""

    __slots__ = ("chart", "params", "order", "components")

    def __init__(
        self,
        chart: Chart,
        params: ParameterAlgebra,
        order: int,
        components: Mapping[Generator, TimeSeries],
    ):
        if order < 0:
            raise OrderError(f"curve order must be nonnegative, got {order}")
        _check_disjoint(chart, params)
        out: dict[Generator, TimeSeries] = {}
        for g in chart.coordinates:
            if g not in components:
                raise CoverageError(
                    f"curve assigns nothing to coordinate '{g.name}'", g.name
                )
            series = components[g]
            if series.order != order:
                raise OrderError(
                    f"component '{g.name}' has order {series.order}, expected {order}",
                    g.name,
                )
            for r, c in enumerate(series.coefficients):
                if not c.is_homogeneous(g.parity):
                    raise ParityError(
                        f"parity violation: coefficient {r} of '{g.name}' must "
                        f"be homogeneous of parity {g.parity}",
                        g.name,
                    )
                names = foreign_names(c, params)
                if names:
                    raise DeclarationError(
                        f"component '{g.name}' uses generators outside "
                        f"'{params.name}': {names}",
                        g.name,
                    )
            out[g] = series
        self.chart = chart
        self.params = params
        self.order = order
        self.components = out

    def __eq__(self, other):
        if not isinstance(other, SCurve):
            return NotImplemented
        return (
            self.chart is other.chart
            and self.params is other.params
            and self.order == other.order
            and self.components == other.components
        )

    def __repr__(self):
        return (
            f"SCurve(chart={self.chart.name!r}, params={self.params.name!r}, "
            f"order={self.order})"
        )


class Jet:
    """Per coordinate, the first k+1 series coefficients of a curve.

    Entry r is 1/r! times the r-th time derivative at the base time.
    """

    __slots__ = ("chart", "order", "coefficients")

    def __init__(
        self,
        chart: Chart,
        order: int,
        coefficients: Mapping[Generator, tuple[SuperPolynomial, ...]],
    ):
        out: dict[Generator, tuple[SuperPolynomial, ...]] = {}
        for g in chart.coordinates:
            if g not in coefficients:
                raise CoverageError(f"jet assigns nothing to coordinate '{g.name}'")
            entry = tuple(coefficients[g])
            if len(entry) != order + 1:
                raise OrderError(
                    f"jet entry for '{g.name}' has {len(entry)} coefficients, "
                    f"expected {order + 1}"
                )
            out[g] = entry
        self.chart = chart
        self.order = order
        self.coefficients = out

    def coefficient(self, coordinate: Generator, r: int) -> SuperPolynomial:
        return self.coefficients[coordinate][r]

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (
            self.chart is other.chart
            and self.order == other.order
            and self.coefficients == other.coefficients
        )

    def __repr__(self):
        return f"Jet(chart={self.chart.name!r}, order={self.order})"


def jet_of_curve(curve: SCurve, k: int, at: Scalar = 0) -> Jet:
    """The k-th order jet of a curve at time ``at``.

    Requires k at most the stored order of the curve. A nonzero base time
    re-expands every component about it first.
    """
    if k < 0:
        raise OrderError(f"jet order must be nonnegative, got {k}")
    if k > curve.order:
        raise OrderError(
            f"jet order {k} exceeds the stored curve order {curve.order}"
        )
    at = Fraction(at)
    coefficients = {
        g: curve.components[g].shift(at).truncate(k).coefficients
        for g in curve.chart.coordinates
    }
    return Jet(curve.chart, k, coefficients)


def contact_equal(gamma: SCurve, delta: SCurve, k: int) -> bool:
    """Whether two curves agree to k-th order at time zero."""
    if gamma.chart is not delta.chart:
        raise ComparisonError("curves live on different charts")
    if gamma.params is not delta.params:
        raise ComparisonError("curves use different parameter algebras")
    return jet_of_curve(gamma, k) == jet_of_curve(delta, k)


def reparameterise(
    curve: SCurve,
    mapping: Mapping[Generator, SuperPolynomial],
    params: ParameterAlgebra,
) -> SCurve:
    """Substitute new parameter values into every series coefficient."""
    for g, value in mapping.items():
        if not value.is_homogeneous(g.parity):
            raise ParityError(
                f"replacement for '{g.name}' must be homogeneous of parity {g.parity}"
            )
    components = {}
    for g, series in curve.components.items():
        components[g] = TimeSeries(
            [substitute(c, mapping) for c in series.coefficients]
        )
    return SCurve(curve.chart, params, curve.order, components)


def evaluate_function(f: SuperPolynomial, point: SPoint) -> SuperPolynomial:
    """Evaluate a chart function at a parameterised point."""
    for g in f.generators():
        if g not in point.chart:
            raise CoverageError(
                f"'{g.name}' is not a coordinate of chart '{point.chart.name}'"
            )
    return substitute(f, point.values)
