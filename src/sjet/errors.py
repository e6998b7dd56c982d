"""Exception hierarchy for the engine."""


class SjetError(Exception):
    """Base class for every error raised by the engine.

    ``subject`` is the name of the one coordinate or generator an error is
    about, or None; the surface syntax uses it to point at that name.
    """

    def __init__(self, message: str = "", subject: str | None = None):
        super().__init__(message)
        self.subject = subject


class DeclarationError(SjetError):
    """A symbol was used outside the scope it was declared in."""


class AlgebraError(SjetError):
    """Operands live over incompatible charts or coordinate algebras."""


class ParityError(SjetError):
    """A Grassmann parity constraint was violated."""


class CoverageError(SjetError):
    """A substitution, point or morphism is missing a required assignment."""


class OrderError(SjetError):
    """Truncation orders disagree or exceed what is stored."""


class DomainError(SjetError):
    """An integer argument lies outside its allowed range."""


class CompositionError(SjetError):
    """The charts of two morphisms do not line up for composition."""


class ComparisonError(SjetError):
    """Two objects cannot be compared (different chart or parameters)."""
