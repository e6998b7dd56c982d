"""Value records and identity types: equality, hashing and immutability."""

import copy
import subprocess
import sys

import pytest

from sjet import (
    Chart,
    EVEN,
    Generator,
    Jet,
    Morphism,
    ODD,
    ParameterAlgebra,
    SCurve,
    SPoint,
    TimeSeries,
    VectorField,
    antitangent_chart,
    canonical_fields,
    poly,
    product_chart,
    prolong_chart,
)
from sjet.cli import CommandResult
from sjet.dsl import Diagnostic, Document, SourceSpan
from sjet.fields import RelationReport, RelationRow
from sjet.prolongation import WeightCheck, WeightReport

GX = Generator("tx", EVEN)
GTH = Generator("tth", ODD)
BASE = Chart("TB", (GX, GTH))
SPAN = SourceSpan(0, 3, 1, 1, 1, 4)


def record_pairs():
    """Two separately built, equal instances of every value record."""
    fields = canonical_fields(BASE, 1)

    def build():
        row = RelationRow(1, "d", "d", "0", True)
        weight = WeightCheck(GX, True, False)
        return [
            SourceSpan(0, 3, 1, 1, 1, 4),
            Diagnostic("boom", SPAN),
            weight,
            WeightReport((weight,)),
            row,
            RelationReport(BASE, 1, (row,)),
            CommandResult(2, "", (Diagnostic("boom", SPAN),)),
            type(fields)(*fields),
        ]

    return list(zip(build(), build()))


def identity_objects():
    return [
        Generator("same", EVEN),
        BASE,
        ParameterAlgebra("TP", (Generator("te", ODD),)),
        prolong_chart(BASE, 2),
        antitangent_chart(BASE),
        product_chart(BASE, BASE),
    ]


class TestValueRecords:
    @pytest.mark.parametrize(
        "a, b", record_pairs(), ids=lambda r: type(r).__name__
    )
    def test_equal_by_value(self, a, b):
        assert a is not b
        assert a == b
        assert not (a != b)

    @pytest.mark.parametrize(
        "a, b",
        [pair for pair in record_pairs() if type(pair[0]).__name__ != "CanonicalFields"],
        ids=lambda r: type(r).__name__,
    )
    def test_hash_equal_by_value(self, a, b):
        # CanonicalFields holds vector fields, which are not hashable
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize(
        "a, b", record_pairs(), ids=lambda r: type(r).__name__
    )
    def test_attributes_are_read_only(self, a, b):
        name = type(a)._fields[0]
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            a.unknown = 1

    def test_different_values_are_unequal(self):
        assert SourceSpan(0, 3, 1, 1, 1, 4) != SourceSpan(0, 3, 1, 1, 1, 5)
        assert Diagnostic("boom", SPAN) != Diagnostic("bang", SPAN)
        assert RelationRow(1, "d", "d", "0", True) != RelationRow(
            1, "d", "d", "0", False
        )

    def test_methods_and_properties_survive(self):
        later = SourceSpan(5, 9, 2, 1, 2, 5)
        assert str(Diagnostic("boom", later)) == "2:1: boom"
        nowhere = Diagnostic("boom")
        assert (nowhere.span, nowhere.line, nowhere.column) == (None, None, None)
        assert str(nowhere) == "boom"
        assert RelationRow(2, "J", "J", "0", True).label == "[J,J] = 0"
        assert not WeightCheck(GX, True, False).ok
        assert not WeightReport((WeightCheck(GX, True, False),)).valid

    def test_command_result_defaults_are_immutable(self):
        result = CommandResult(0)
        assert result.payload == ""
        assert result.diagnostics == ()
        assert isinstance(result.diagnostics, tuple)


OTHER = Chart("TO", (GX, GTH))
PARAMS = ParameterAlgebra("TP2", (Generator("tp", ODD),))


def value_builders():
    """Per value type: a builder of fresh, equal instances, and per attribute
    a value that differs from the one the builder gives."""
    (p,) = PARAMS.generators
    morphism = lambda: Morphism(BASE, BASE, {GX: poly(GX) ** 2, GTH: poly(GTH)})
    point = lambda: SPoint(BASE, PARAMS, {GX: 1, GTH: poly(p)})
    series = lambda: {GX: TimeSeries([1, 2]), GTH: TimeSeries([poly(p), 0])}
    curve = lambda: SCurve(BASE, PARAMS, 1, series())

    def jet():
        one, zero = poly(GX) ** 0, poly(GX) * 0
        return Jet(BASE, 1, {GX: (one, 2 * one), GTH: (zero, poly(GTH))})

    field = lambda: VectorField(BASE, ODD, {GX: poly(GTH)})
    return [
        (morphism, {"source": OTHER, "target": OTHER, "assignment": {GX: 1}}),
        (point, {"chart": OTHER, "params": ParameterAlgebra("TP3", ()),
                 "values": {GX: 2}}),
        (curve, {"chart": OTHER, "params": ParameterAlgebra("TP4", ()),
                 "order": 2, "components": {}}),
        (jet, {"chart": OTHER, "order": 2, "coefficients": {}}),
        (field, {"chart": OTHER, "parity": EVEN, "values": {GX: 0}}),
    ]


VALUE_TYPES = ["Morphism", "SPoint", "SCurve", "Jet", "VectorField"]


class TestValueEquality:
    """Morphism, SPoint, SCurve, Jet and VectorField: equal when of one type,
    on the same chart objects, with equal other attributes."""

    @pytest.mark.parametrize("build, changes", value_builders(), ids=VALUE_TYPES)
    def test_separately_built_instances_are_equal(self, build, changes):
        a, b = build(), build()
        assert a is not b
        assert a == b
        assert not (a != b)

    @pytest.mark.parametrize("build, changes", value_builders(), ids=VALUE_TYPES)
    def test_each_attribute_takes_part(self, build, changes):
        a = build()
        assert set(changes) == set(type(a).__slots__)
        for name, other in changes.items():
            b = copy.copy(a)
            setattr(b, name, other)
            assert a != b, name
            assert b != a, name

    @pytest.mark.parametrize("build, changes", value_builders(), ids=VALUE_TYPES)
    def test_no_equality_with_other_types_and_no_hash(self, build, changes):
        a = build()
        assert not (a == 1)
        assert a != 1
        with pytest.raises(TypeError):
            hash(a)


class TestIdentityTypes:
    def test_same_names_are_distinct(self):
        a, b = Generator("twin", EVEN), Generator("twin", EVEN)
        assert a != b
        assert len({a, b}) == 2
        assert Chart("TC", (a,)) != Chart("TC", (a,))
        assert ParameterAlgebra("TQ", (a,)) != ParameterAlgebra("TQ", (a,))
        assert poly(a) != poly(b)

    def test_lifted_charts_are_cached_by_identity(self):
        assert prolong_chart(BASE, 2) is prolong_chart(BASE, 2)
        assert antitangent_chart(BASE) is antitangent_chart(BASE)
        assert product_chart(BASE, BASE) is product_chart(BASE, BASE)

    @pytest.mark.parametrize(
        "obj", identity_objects(), ids=lambda o: type(o).__name__
    )
    def test_attributes_are_read_only(self, obj):
        with pytest.raises(AttributeError, match="immutable"):
            obj.name = "other"
        with pytest.raises(AttributeError, match="immutable"):
            del obj.name
        with pytest.raises(AttributeError):
            obj.unknown = 1

    def test_generators_keep_declaration_order(self):
        first = Generator("tfirst", ODD)
        second = Generator("tsecond", ODD, weight=3)
        assert first.index < second.index
        assert second.weight == 3
        assert repr(second) == "Generator('tsecond', odd)"

    def test_the_declaration_counter_is_the_only_index(self):
        with pytest.raises(TypeError, match="index"):
            Generator("tindexed", ODD, index=0)
        a, b = Generator("tanti1", ODD), Generator("tanti2", ODD)
        assert (poly(a) * poly(b) + poly(b) * poly(a)).is_zero()

    def test_lifted_chart_lookups(self):
        jets = prolong_chart(BASE, 2)
        assert jets.base is BASE and jets.order == 2
        assert jets.jet(GX, 2).name == "tx@2"
        lifted = antitangent_chart(BASE)
        assert lifted.differential_of(GTH).parity is EVEN
        assert lifted.differentials == lifted.coordinates[2:]
        product = product_chart(BASE, BASE)
        assert product.from_right(GX).name == "TB2_tx"


CHART_REPRS = {
    "Chart": (lambda: BASE, "Chart('TB', dim=(1|1))"),
    "ProlongedChart": (
        lambda: prolong_chart(BASE, 2),
        "ProlongedChart('T2(TB)', dim=(3|3))",
    ),
    "AntitangentChart": (
        lambda: antitangent_chart(BASE),
        "AntitangentChart('PiT(TB)', dim=(2|2))",
    ),
    "ProductChart": (
        lambda: product_chart(BASE, BASE),
        "ProductChart('TBxTB', dim=(2|2))",
    ),
}

VALUE_REPRS = [
    "Morphism('TB' -> 'TB')",
    "SPoint(chart='TB', params='TP2')",
    "SCurve(chart='TB', params='TP2', order=1)",
    "Jet(chart='TB', order=1)",
    "VectorField(chart='TB', parity=odd)",
]


class TestReprs:
    @pytest.mark.parametrize("build, text", CHART_REPRS.values(), ids=CHART_REPRS)
    def test_charts_show_their_class_name_and_dimension(self, build, text):
        assert repr(build()) == text

    def test_polynomials_series_and_parameters_show_their_content(self):
        p = poly(GX) ** 2 * poly(GTH) - 1
        assert repr(p) == "SuperPolynomial('tx^2*tth - 1')"
        assert repr(TimeSeries([1, poly(GX)])) == "TimeSeries([1, tx])"
        assert repr(PARAMS) == "ParameterAlgebra('TP2', 1 generators)"

    @pytest.mark.parametrize(
        "builder, text",
        zip((build for build, _ in value_builders()), VALUE_REPRS),
        ids=VALUE_TYPES,
    )
    def test_values_show_their_charts(self, builder, text):
        assert repr(builder()) == text


def test_documents_do_not_share_containers():
    first, second = Document(), Document()
    first.charts["M"] = BASE
    assert second.charts == {}
    assert first.declarations is not second.declarations


def test_importing_the_cli_loads_no_code_generation_modules():
    unwanted = {"dataclasses", "inspect", "argparse", "gettext", "json"}
    probe = f"import sys, sjet.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
