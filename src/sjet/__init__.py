"""Exact symbolic calculus for charts with even and odd coordinates.

The package computes with canonical-form polynomials over exact rationals:
odd generators anticommute and square to zero. On top of the algebra sit
charts, morphisms recorded by pullbacks, parameterised curves with their
jets, higher tangent lifts, parity-reversed tangent lifts, graded vector
fields with the superbracket, a small surface syntax, and a command line
tool.
"""

from .errors import (
    AlgebraError,
    ComparisonError,
    CompositionError,
    CoverageError,
    DeclarationError,
    DomainError,
    OrderError,
    ParityError,
    SjetError,
)
from .grassmann import (
    EVEN,
    Generator,
    Monomial,
    ODD,
    Parity,
    SuperPolynomial,
    TIME,
    TimeSeries,
    const,
    normalize,
    partial,
    poly,
    series_compose,
    substitute,
)
from .geometry import (
    Chart,
    Jet,
    Morphism,
    ParameterAlgebra,
    SCurve,
    SPoint,
    compose,
    contact_equal,
    evaluate_function,
    jet_of_curve,
    reparameterise,
)
from .prolongation import (
    AntitangentChart,
    ProductChart,
    ProlongedChart,
    antitangent_chart,
    antitangent_morphism,
    homothety,
    interchange,
    product_chart,
    product_morphism,
    product_prolong_identification,
    project,
    prolong_chart,
    prolong_morphism,
    weight_report,
    zero_section,
)
from .fields import (
    CanonicalFields,
    RelationReport,
    VectorField,
    bracket,
    canonical_fields,
    verify_relations,
    weight_field,
)
from .dsl import Diagnostic, Document, DslError, SourceSpan, parse
from .printer import format_document, print_canonical
from .latex import emit_latex

__version__ = "0.1.0"
