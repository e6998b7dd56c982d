"""Graded vector fields, the superbracket, and the canonical fields.

A vector field is a graded derivation recorded by its values on chart
coordinates: X(f) = sum over coordinates of value * left-partial. The
superbracket of two homogeneous fields is the graded commutator

    [X, Y] = X Y - (-1)^(|X||Y|) Y X,

again a derivation, of parity |X| + |Y|.

On the parity-reversed lift of a k-th order jet chart live five canonical
fields: the odd total differential d, the even counters of differential
degree and of jet weight, their sum, and the odd shift J that lowers jet
order into differentials. Their pairwise brackets close on a small table,
which verify_relations recomputes exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .errors import AlgebraError, DomainError, ParityError
from .geometry import Chart, _Value, foreign_names, values_on
from .grassmann import (
    EVEN,
    Generator,
    ODD,
    Parity,
    Scalar,
    SuperPolynomial,
    _derive_into,
    _settled,
    derivation,
    partial,  # unused here; bench/spans.py traces fields.partial
    poly,
)
from .prolongation import antitangent_chart, prolong_chart


class VectorField(_Value):
    """A graded derivation on a chart, stored by its coordinate values.

    Missing coordinates default to zero. Every stored value must be
    homogeneous of parity |X| + |coordinate| and may only use coordinates of
    the chart.
    """

    __slots__ = ("chart", "parity", "values")

    def __init__(
        self,
        chart: Chart,
        parity: Parity,
        values: Mapping[Generator, SuperPolynomial | Scalar],
    ):
        self.chart = chart
        self.parity = parity = Parity(parity)
        self.values = values_on(
            chart, values, parity, allowed=chart, default=SuperPolynomial()
        )

    @classmethod
    def _trusted(cls, chart, parity, values) -> "VectorField":
        """A field from values known to be valid, one per chart coordinate;
        ``bracket`` builds its results here, skipping the constructor's checks."""
        out = object.__new__(cls)
        out.chart, out.parity, out.values = chart, parity, values
        return out

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        """Evaluate the derivation on a chart function."""
        names = foreign_names(f, self.chart)
        if names:
            raise AlgebraError(
                f"function uses generators outside '{self.chart.name}': {names}"
            )
        return derivation(f, self.values)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values.values())

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        if self.chart is not other.chart:
            raise AlgebraError("cannot add fields on different charts")
        if self.parity is not other.parity:
            raise ParityError("cannot add fields of different parities")
        return VectorField(
            self.chart,
            self.parity,
            {g: self.values[g] + other.values[g] for g in self.chart.coordinates},
        )

    def __neg__(self):
        return VectorField(
            self.chart,
            self.parity,
            {g: -v for g, v in self.values.items()},
        )

    def __rmul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return VectorField(
            self.chart,
            self.parity,
            {g: v * scalar for g, v in self.values.items()},
        )

    def __repr__(self):
        return f"VectorField(chart={self.chart.name!r}, parity={self.parity})"


def bracket(X: VectorField, Y: VectorField) -> VectorField:
    """The superbracket [X, Y] = XY - (-1)^(|X||Y|) YX."""
    if X.chart is not Y.chart:
        raise AlgebraError("cannot bracket fields on different charts")
    koszul = -1 if (X.parity is ODD and Y.parity is ODD) else 1
    values = {}
    for g in X.chart.coordinates:
        sums: dict = {}
        _derive_into(sums, Y.values[g], X.values)
        _derive_into(sums, X.values[g], Y.values, -koszul)
        values[g] = _settled(sums)
    # the bracket of two valid fields is valid: no re-validation
    return VectorField._trusted(X.chart, X.parity + Y.parity, values)


def weight_field(chart: Chart) -> VectorField:
    """The even field multiplying each coordinate by its weight."""
    return VectorField(
        chart,
        EVEN,
        {g: Fraction(g.weight) * poly(g) for g in chart.coordinates},
    )


class CanonicalFields(NamedTuple):
    """The five canonical fields on the parity-reversed k-th jet lift."""

    chart: Chart
    order: int
    d: VectorField
    delta1: VectorField
    delta2: VectorField
    delta: VectorField
    J: VectorField

    def by_name(self) -> dict[str, VectorField]:
        return {
            "d": self.d,
            "Delta1": self.delta1,
            "Delta2": self.delta2,
            "Delta": self.delta,
            "J": self.J,
        }


def canonical_fields(chart: Chart, k: int) -> CanonicalFields:
    """Construct d, the two counters, their sum, and J at jet order k.

    All five live on the parity-reversed lift of the k-th jet chart of
    ``chart``. J is identically zero at k = 0.
    """
    jets = prolong_chart(chart, k)
    ambient = antitangent_chart(jets)

    d_values = {g: poly(ambient.differential_of(g)) for g in jets.coordinates}
    d = VectorField(ambient, ODD, d_values)

    delta1 = VectorField(
        ambient,
        EVEN,
        {dg: poly(dg) for dg in ambient.differentials},
    )
    delta2 = weight_field(ambient)
    delta = delta1 + delta2

    j_values = {}
    for g in chart.coordinates:
        for r in range(k):
            j_values[jets.jet(g, r + 1)] = poly(
                ambient.differential_of(jets.jet(g, r))
            )
    J = VectorField(ambient, ODD, j_values)

    return CanonicalFields(ambient, k, d, delta1, delta2, delta, J)


class RelationRow(NamedTuple):
    """One bracket identity: [left, right] compared against an expected field."""

    block: int
    left: str
    right: str
    expected: str
    ok: bool

    @property
    def label(self) -> str:
        return f"[{self.left},{self.right}] = {self.expected}"


class RelationReport(NamedTuple):
    chart: Chart
    order: int
    rows: tuple[RelationRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(row.ok for row in self.rows)


# The three displayed blocks of the bracket table. Some identities repeat
# across blocks; each displayed row is recomputed independently.
RELATION_TABLE = (
    (1, "d", "d", "0"),
    (1, "Delta1", "Delta2", "0"),
    (1, "Delta1", "d", "d"),
    (1, "Delta2", "d", "0"),
    (2, "J", "J", "0"),
    (2, "Delta1", "J", "J"),
    (2, "Delta2", "J", "-J"),
    (2, "d", "J", "0"),
    (3, "d", "d", "0"),
    (3, "Delta", "d", "d"),
    (3, "Delta", "J", "0"),
    (3, "d", "J", "0"),
    (3, "J", "J", "0"),
)


def verify_relations(chart: Chart, k: int) -> RelationReport:
    """Recompute every displayed bracket identity of the canonical fields."""
    if k < 1:
        raise DomainError(f"the relation table needs jet order >= 1, got {k}")
    fields = canonical_fields(chart, k)
    named = fields.by_name()
    rows = []
    for block, left, right, expected in RELATION_TABLE:
        result = bracket(named[left], named[right])
        if expected == "0":
            ok = result.is_zero()
        elif expected.startswith("-"):
            ok = result == -named[expected[1:]]
        else:
            ok = result == named[expected]
        rows.append(RelationRow(block, left, right, expected, ok))
    return RelationReport(fields.chart, k, tuple(rows))
