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
    AlgebraError,
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
    Parity,
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

    It has at least one coordinate. ``_lifts`` keeps the charts lifted from
    this one (see ``prolong_chart``); ``lift`` sets a lifted chart's slots."""

    __slots__ = ("name", "coordinates", "_by_name", "_coord_set", "_lifts")

    def __init__(self, name: str, coordinates: tuple[Generator, ...], **lift):
        if not coordinates:
            raise DeclarationError(f"chart '{name}' needs at least one coordinate")
        self._freeze(
            name=name,
            coordinates=coordinates,
            _by_name=_check_unique_names("coordinate", coordinates),
            _coord_set=frozenset(coordinates),
            _lifts={},
            **lift,
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

    def __repr__(self):
        n, m = self.dimension
        return f"{type(self).__name__}({self.name!r}, dim=({n}|{m}))"


class ParameterAlgebra(_Frozen):
    """Auxiliary generators that parameterise points and curves."""

    __slots__ = ("name", "generators", "_gen_set")

    def __init__(self, name: str, generators: tuple[Generator, ...]):
        _check_unique_names("parameter", generators)
        self._freeze(name=name, generators=generators, _gen_set=frozenset(generators))

    def __contains__(self, g: Generator) -> bool:
        return g in self._gen_set

    def __repr__(self):
        return f"ParameterAlgebra({self.name!r}, {len(self.generators)} generators)"


def foreign_names(p: SuperPolynomial, allowed) -> str:
    """The sorted, comma-separated names of generators of p not in ``allowed``.

    ``allowed`` is a chart or a parameter algebra; the result is empty when p
    uses only its generators.
    """
    return ", ".join(sorted(g.name for g in p.generators() if g not in allowed))


def values_on(
    chart: Chart,
    values: Mapping,
    offset: Parity = EVEN,
    allowed=None,
    default=None,
    split=None,
) -> dict:
    """The value on every coordinate of ``chart``, each checked once.

    This is the one check of ``Morphism``, ``SPoint``, ``SCurve``, ``Jet``
    and ``VectorField``. A key that is not a coordinate of the chart is an
    ``AlgebraError``; a coordinate with no value takes ``default``, or is a
    ``CoverageError`` when there is none. A value is a polynomial or a
    scalar, or, with ``split``, a series or jet entry that ``split`` turns
    into its polynomials and that is kept as given. Each polynomial must be
    homogeneous of parity ``offset`` plus the coordinate's (``ParityError``)
    and, when ``allowed`` is given, use only its generators
    (``AlgebraError``). Every error names the coordinate in ``subject``.
    """
    for g in values:
        if g not in chart:
            raise AlgebraError(
                f"'{g.name}' is not a coordinate of chart '{chart.name}'", g.name
            )
    out = {}
    for g in chart.coordinates:
        value = values.get(g, default)
        if value is None:
            raise CoverageError(
                f"the map assigns nothing to coordinate '{g.name}'", g.name
            )
        if split is None:
            value = _as_polynomial(value)
            if value is NotImplemented:
                raise TypeError(f"the value on '{g.name}' must be a polynomial")
        parity = offset + g.parity
        for p in (value,) if split is None else split(value):
            if not p.is_homogeneous(parity):
                raise ParityError(
                    f"parity violation: value on '{g.name}' must be homogeneous "
                    f"of parity {parity}",
                    g.name,
                )
            names = "" if allowed is None else foreign_names(p, allowed)
            if names:
                raise AlgebraError(
                    f"value on '{g.name}' uses generators outside "
                    f"'{allowed.name}': {names}",
                    g.name,
                )
        out[g] = value
    return out


def _check_disjoint(chart: Chart, params: ParameterAlgebra):
    shared = {g.name for g in chart.coordinates} & {
        g.name for g in params.generators
    }
    if shared:
        raise DeclarationError(
            f"parameter names collide with coordinates of '{chart.name}': "
            + ", ".join(sorted(shared))
        )


class _Value:
    """Base of Morphism, SPoint, SCurve, Jet and VectorField: two values are
    equal when they are of one type with equal attributes, where a chart or a
    parameter algebra is equal only to itself. Values are not hashable."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in type(self).__slots__)


class Morphism(_Value):
    """A chart map recorded by its pullback on coordinates.

    ``assignment[y]`` is the polynomial over the source coordinates that the
    target coordinate y pulls back to. A generator that is not a source
    coordinate is an adjoined parameter: every operation on morphisms holds
    it constant (see ``held``). Every assignment must be homogeneous of its
    coordinate's parity.
    """

    __slots__ = ("source", "target", "assignment")

    def __init__(
        self,
        source: Chart,
        target: Chart,
        assignment: Mapping[Generator, SuperPolynomial | Scalar],
    ):
        self.source = source
        self.target = target
        self.assignment = values_on(target, assignment)

    @classmethod
    def identity(cls, chart: Chart) -> "Morphism":
        return cls(chart, chart, {g: poly(g) for g in chart.coordinates})

    def __repr__(self):
        return f"Morphism({self.source.name!r} -> {self.target.name!r})"


def held(images: Mapping, polynomials, constant) -> dict:
    """``images`` plus ``constant(g)`` for each generator of ``polynomials``
    with no image: the one rule that holds adjoined parameters constant."""
    out = dict(images)
    for p in polynomials:
        for g in p.generators():
            if g not in out:
                out[g] = constant(g)
    return out


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
    sigma = held(psi.assignment, phi.assignment.values(), poly)
    assignment = {y: substitute(f, sigma) for y, f in phi.assignment.items()}
    return Morphism(psi.source, phi.target, assignment)


class SPoint(_Value):
    """A parameterised point: coordinates valued in a parameter algebra."""

    __slots__ = ("chart", "params", "values")

    def __init__(
        self,
        chart: Chart,
        params: ParameterAlgebra,
        values: Mapping[Generator, SuperPolynomial | Scalar],
    ):
        _check_disjoint(chart, params)
        self.chart = chart
        self.params = params
        self.values = values_on(chart, values, allowed=params)

    def __repr__(self):
        return f"SPoint(chart={self.chart.name!r}, params={self.params.name!r})"


class SCurve(_Value):
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
        split = TimeSeries.coefficients.fget
        out = values_on(chart, components, allowed=params, split=split)
        for g, series in out.items():
            if series.order != order:
                raise OrderError(
                    f"component '{g.name}' has order {series.order}, expected {order}",
                    g.name,
                )
        self.chart = chart
        self.params = params
        self.order = order
        self.components = out

    def __repr__(self):
        return (
            f"SCurve(chart={self.chart.name!r}, params={self.params.name!r}, "
            f"order={self.order})"
        )


class Jet(_Value):
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
        entries = {g: tuple(entry) for g, entry in coefficients.items()}
        out = values_on(chart, entries, split=tuple)
        for g, entry in out.items():
            if len(entry) != order + 1:
                raise OrderError(
                    f"jet entry for '{g.name}' has {len(entry)} coefficients, "
                    f"expected {order + 1}",
                    g.name,
                )
        self.chart = chart
        self.order = order
        self.coefficients = out

    def coefficient(self, coordinate: Generator, r: int) -> SuperPolynomial:
        return self.coefficients[coordinate][r]

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
    components = {}
    for g, series in curve.components.items():
        components[g] = TimeSeries(
            [substitute(c, mapping) for c in series.coefficients]
        )
    return SCurve(curve.chart, params, curve.order, components)


def evaluate_function(f: SuperPolynomial, point: SPoint) -> SuperPolynomial:
    """Evaluate a chart function at a parameterised point."""
    return substitute(f, point.values)
