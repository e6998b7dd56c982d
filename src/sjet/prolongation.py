"""Higher tangent lifts, parity-reversed tangent lifts, and their interplay.

The k-th tangent lift of a chart adjoins jet coordinates "x@r" for r = 0..k,
one block per base coordinate, each of the base coordinate's parity and of
weight r. A morphism lifts by feeding the generic curve sum(x@r t^r) through
its pullback and reading off coefficients of t^r; because jet coordinates
already carry the 1/r! normalisation, no factorials appear.

The parity-reversed tangent lift adjoins one differential "d.x" per
coordinate, with flipped parity and the same weight. Its morphism lift sends
d.y to sum(d.x * left-partial of the pullback), differentials on the left.

Combining the two in either order gives charts whose coordinates match up
by the renaming "(d.x)@r" <-> "d.(x@r)"; both spell the same name, and the
interchange morphism realises the identification.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from typing import Mapping, NamedTuple, Union

from .errors import DomainError, ParityError
from .geometry import Chart, Morphism
from .grassmann import (
    Generator,
    Parity,
    Scalar,
    SuperPolynomial,
    TimeSeries,
    _as_polynomial,
    derivation,
    partial,  # unused here; bench/spans.py traces prolongation.partial
    poly,
    series_compose,
    substitute,
)


class ProlongedChart(Chart):
    """Chart of k-th order jets over a base chart."""

    __slots__ = ("base", "order", "_jets")

    def __init__(self, name, coordinates, base: Chart, order: int, jets: dict):
        super().__init__(name, coordinates)
        self._freeze(base=base, order=order, _jets=jets)

    def jet(self, base_coordinate: Generator, r: int) -> Generator:
        """The jet coordinate of a base coordinate at order r."""
        return self._jets[(base_coordinate, r)]

    def __repr__(self):
        n, m = self.dimension
        return f"ProlongedChart({self.name!r}, order={self.order}, dim=({n}|{m}))"


class AntitangentChart(Chart):
    """Chart extended by one parity-flipped differential per coordinate."""

    __slots__ = ("base", "_differentials")

    def __init__(self, name, coordinates, base: Chart, differentials: dict):
        super().__init__(name, coordinates)
        self._freeze(base=base, _differentials=differentials)

    def differential_of(self, base_coordinate: Generator) -> Generator:
        return self._differentials[base_coordinate]

    @property
    def differentials(self) -> tuple[Generator, ...]:
        return self.coordinates[len(self.base.coordinates) :]

    def __repr__(self):
        n, m = self.dimension
        return f"AntitangentChart({self.name!r}, dim=({n}|{m}))"


def _kept_with_base(build):
    """Make ``build(chart, *rest)`` return, for equal arguments, the chart it
    built first, kept in ``chart._lifts`` for as long as ``chart`` lives."""
    @wraps(build)
    def lift(chart: Chart, *rest):
        key = (build.__name__, *rest)
        if key not in chart._lifts:
            chart._lifts[key] = build(chart, *rest)
        return chart._lifts[key]

    return lift


@_kept_with_base
def prolong_chart(chart: Chart, k: int) -> ProlongedChart:
    """The chart of k-th order jet coordinates over ``chart``.

    Repeated calls with the same arguments return the identical chart, so
    lifted morphisms stay composable.
    """
    if k < 0:
        raise DomainError(f"jet order must be nonnegative, got {k}")
    coordinates = []
    jets = {}
    for g in chart.coordinates:
        for r in range(k + 1):
            jet = Generator(f"{g.name}@{r}", g.parity, weight=r)
            coordinates.append(jet)
            jets[(g, r)] = jet
    return ProlongedChart(f"T{k}({chart.name})", tuple(coordinates), chart, k, jets)


@_kept_with_base
def antitangent_chart(chart: Chart) -> AntitangentChart:
    """Adjoin one parity-flipped differential to every coordinate."""
    differentials = {}
    coords = list(chart.coordinates)
    for g in chart.coordinates:
        d = Generator(f"d.{g.name}", g.parity + Parity.ODD, weight=g.weight)
        differentials[g] = d
        coords.append(d)
    return AntitangentChart(f"PiT({chart.name})", tuple(coords), chart, differentials)


def prolong_morphism(phi: Morphism, k: int) -> Morphism:
    """Lift a morphism to k-th order jet charts.

    The lift substitutes the generic curve sum(x@r t^r) into each pullback
    and assigns the coefficient of t^r to y@r.
    """
    source = prolong_chart(phi.source, k)
    target = prolong_chart(phi.target, k)
    generic = {
        g: TimeSeries([poly(source.jet(g, r)) for r in range(k + 1)])
        for g in phi.source.coordinates
    }
    assignment = {}
    for y in phi.target.coordinates:
        series = series_compose(phi.assignment[y], generic)
        for r in range(k + 1):
            assignment[target.jet(y, r)] = series[r]
    return Morphism(source, target, assignment)


def project(chart: ProlongedChart, l: int) -> Morphism:
    """The truncation map from k-th order jets down to l-th order jets."""
    if not 0 <= l <= chart.order:
        raise DomainError(
            f"projection order must lie in 0..{chart.order}, got {l}"
        )
    lower = prolong_chart(chart.base, l)
    assignment = {
        lower.jet(g, r): poly(chart.jet(g, r))
        for g in chart.base.coordinates
        for r in range(l + 1)
    }
    return Morphism(chart, lower, assignment)


def zero_section(chart: ProlongedChart) -> Morphism:
    """The inclusion of order-zero jets with all higher coordinates zero."""
    lowest = prolong_chart(chart.base, 0)
    assignment = {}
    for g in chart.base.coordinates:
        assignment[chart.jet(g, 0)] = poly(lowest.jet(g, 0))
        for r in range(1, chart.order + 1):
            assignment[chart.jet(g, r)] = SuperPolynomial.zero()
    return Morphism(lowest, chart, assignment)


def antitangent_morphism(phi: Morphism) -> Morphism:
    """Lift a morphism to the parity-reversed tangent charts.

    Base coordinates keep their pullbacks; the differential of a target
    coordinate pulls back to sum(d.x * left-partial), differentials on the
    left.
    """
    source = antitangent_chart(phi.source)
    target = antitangent_chart(phi.target)
    # generators outside the source chart (adjoined parameters) are constants
    d = {x: poly(source.differential_of(x)) for x in phi.source.coordinates}
    assignment = {}
    for y in phi.target.coordinates:
        f = phi.assignment[y]
        assignment[y] = f
        assignment[target.differential_of(y)] = derivation(f, d)
    return Morphism(source, target, assignment)


def interchange(chart: Chart, k: int) -> Morphism:
    """The coordinate renaming between the two iterated lifts.

    Maps k-th order jets of the parity-reversed lift to the parity-reversed
    lift of the k-th order jets, matching "(d.x)@r" with "d.(x@r)".
    """
    lifted = antitangent_chart(chart)
    source = prolong_chart(lifted, k)
    target = antitangent_chart(prolong_chart(chart, k))
    assignment = {}
    for g in chart.coordinates:
        for r in range(k + 1):
            jet = target.base.jet(g, r)
            assignment[jet] = poly(source.jet(g, r))
            assignment[target.differential_of(jet)] = poly(
                source.jet(lifted.differential_of(g), r)
            )
    return Morphism(source, target, assignment)


LambdaLike = Union[Scalar, Generator, SuperPolynomial]


def homothety(chart: ProlongedChart, lam: LambdaLike) -> Morphism:
    """Rescale each jet coordinate of weight r by the r-th power of lam.

    lam may be an exact rational, an even generator adjoined as a symbolic
    parameter, or any even polynomial (products of parameters included).
    """
    if isinstance(lam, Generator):
        factor = poly(lam)
    else:
        factor = _as_polynomial(lam)
        if factor is NotImplemented:
            raise TypeError(
                "homothety factor must be rational, generator or polynomial"
            )
    if not factor.is_homogeneous(Parity.EVEN):
        raise ParityError("homothety factor must be even")
    powers = {w: factor ** w for w in {g.weight for g in chart.coordinates}}
    assignment = {g: powers[g.weight] * poly(g) for g in chart.coordinates}
    return Morphism(chart, chart, assignment)


class ProductChart(Chart):
    """Chart with one renamed coordinate block per factor."""

    __slots__ = ("left", "right", "_left_map", "_right_map")

    def __init__(self, name, coordinates, left, right, left_map, right_map):
        super().__init__(name, coordinates)
        self._freeze(left=left, right=right, _left_map=left_map, _right_map=right_map)

    def from_left(self, g: Generator) -> Generator:
        return self._left_map[g]

    def from_right(self, g: Generator) -> Generator:
        return self._right_map[g]

    def __repr__(self):
        n, m = self.dimension
        return f"ProductChart({self.name!r}, dim=({n}|{m}))"


@_kept_with_base
def product_chart(left: Chart, right: Chart) -> ProductChart:
    """The product chart, coordinates renamed with factor prefixes."""
    lp, rp = left.name, right.name
    if lp == rp:
        lp, rp = f"{lp}1", f"{rp}2"
    coords = []
    left_map = {}
    right_map = {}
    for g in left.coordinates:
        renamed = Generator(f"{lp}_{g.name}", g.parity, weight=g.weight)
        left_map[g] = renamed
        coords.append(renamed)
    for g in right.coordinates:
        renamed = Generator(f"{rp}_{g.name}", g.parity, weight=g.weight)
        right_map[g] = renamed
        coords.append(renamed)
    return ProductChart(
        f"{left.name}x{right.name}", tuple(coords), left, right, left_map, right_map
    )


def product_morphism(phi: Morphism, psi: Morphism) -> Morphism:
    """The pair morphism acting factorwise on product charts."""
    source = product_chart(phi.source, psi.source)
    target = product_chart(phi.target, psi.target)
    rename_left = {g: poly(source.from_left(g)) for g in phi.source.coordinates}
    rename_right = {g: poly(source.from_right(g)) for g in psi.source.coordinates}
    assignment = {}
    for y in phi.target.coordinates:
        assignment[target.from_left(y)] = substitute(phi.assignment[y], rename_left)
    for y in psi.target.coordinates:
        assignment[target.from_right(y)] = substitute(psi.assignment[y], rename_right)
    return Morphism(source, target, assignment)


def product_prolong_identification(left: Chart, right: Chart, k: int) -> Morphism:
    """Canonical identification of jets of a product with products of jets.

    The morphism goes from the k-th lift of the product chart to the product
    of the k-th lifts, matching jet coordinates block by block.
    """
    source = prolong_chart(product_chart(left, right), k)
    target = product_chart(prolong_chart(left, k), prolong_chart(right, k))
    assignment = {}
    for g in left.coordinates:
        for r in range(k + 1):
            assignment[target.from_left(prolong_chart(left, k).jet(g, r))] = poly(
                source.jet(product_chart(left, right).from_left(g), r)
            )
    for g in right.coordinates:
        for r in range(k + 1):
            assignment[target.from_right(prolong_chart(right, k).jet(g, r))] = poly(
                source.jet(product_chart(left, right).from_right(g), r)
            )
    return Morphism(source, target, assignment)


class WeightCheck(NamedTuple):
    coordinate: Generator
    homogeneous: bool
    triangular: bool

    @property
    def ok(self) -> bool:
        return self.homogeneous and self.triangular


class WeightReport(NamedTuple):
    rows: tuple[WeightCheck, ...]

    @property
    def valid(self) -> bool:
        return all(row.ok for row in self.rows)


def weight_report(phi: Morphism) -> WeightReport:
    """Weight homogeneity and triangularity of a lifted morphism.

    The assignment of a jet coordinate of weight r must be weight-homogeneous
    of weight r and must only involve jet coordinates of order at most r.
    """
    rows = []
    for y in phi.target.coordinates:
        p = phi.assignment[y]
        homogeneous = all(m.weight == y.weight for m, _ in p.items())
        triangular = all(m.max_factor_weight() <= y.weight for m, _ in p.items())
        rows.append(WeightCheck(y, homogeneous, triangular))
    return WeightReport(tuple(rows))
