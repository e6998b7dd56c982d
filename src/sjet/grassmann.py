"""Exact supercommutative polynomial arithmetic with canonical forms.

Everything here is immutable and exact: coefficients are rational numbers,
two values are equal precisely when their canonical forms coincide, and no
floating point ever enters. Odd generators anticommute and square to zero.
A canonical monomial keeps its odd factors in declaration order; reordering
signs are absorbed into the coefficient, one sign per adjacent transposition
of two odd factors. Even generators commute with everything.

Derivatives with respect to odd generators use the left convention: the
generator is moved to the front of the monomial, picking up one sign per odd
factor it passes, and is then removed.

Truncated time series represent components of curves: polynomials in a
single distinguished even time variable, cut off above a fixed order. Their
coefficients never mention the time variable itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    CoverageError,
    DeclarationError,
    DomainError,
    OrderError,
    ParityError,
)

Scalar = Union[int, Fraction]


class Parity(IntEnum):
    EVEN = 0
    ODD = 1

    def __add__(self, other):
        return Parity((int(self) + int(other)) % 2)

    __radd__ = __add__

    def __str__(self):
        return "even" if self is Parity.EVEN else "odd"


EVEN = Parity.EVEN
ODD = Parity.ODD

_declaration_counter = itertools.count()


@dataclass(frozen=True, eq=False, repr=False)
class Generator:
    """A named symbol with a fixed parity and an integer weight.

    Generators compare by identity: declaring the same name twice gives two
    distinct symbols. The global declaration index fixes the canonical order
    of odd factors inside monomials, so canonical forms never depend on the
    order in which terms were written down.
    """

    name: str
    parity: Parity
    weight: int = 0
    index: int = field(default_factory=lambda: next(_declaration_counter))

    def __post_init__(self):
        if not self.name:
            raise DeclarationError("generator name must be nonempty")

    def __repr__(self):
        return f"Generator({self.name!r}, {self.parity})"


# The distinguished even time variable used by curve components. It is
# declared first, at import time, so its position in canonical forms is the
# same in every process.
TIME = Generator("t", EVEN)


@dataclass(frozen=True)
class Monomial:
    """A canonical monomial.

    ``even`` holds (generator, exponent) pairs sorted by declaration index
    with exponents >= 1; ``odd`` holds distinct odd generators in strictly
    increasing declaration order.
    """

    even: tuple[tuple[Generator, int], ...] = ()
    odd: tuple[Generator, ...] = ()

    @property
    def parity(self) -> Parity:
        return Parity(len(self.odd) % 2)

    @property
    def even_degree(self) -> int:
        return sum(e for _, e in self.even)

    @property
    def degree(self) -> int:
        return self.even_degree + len(self.odd)

    @property
    def weight(self) -> int:
        w = sum(g.weight * e for g, e in self.even)
        return w + sum(g.weight for g in self.odd)

    def max_factor_weight(self) -> int:
        weights = [g.weight for g, _ in self.even] + [g.weight for g in self.odd]
        return max(weights, default=0)

    def generators(self):
        for g, _ in self.even:
            yield g
        yield from self.odd


_EMPTY_MONOMIAL = Monomial()


def _sort_odd(factors: Sequence[Generator]):
    """Canonical order and sign of an odd factor sequence.

    Returns (sign, tuple) where sign is 0 if a factor repeats (its square
    vanishes). Sorting is by declaration index; the sign flips once per
    adjacent transposition.
    """
    gens = list(factors)
    sign = 1
    for i in range(1, len(gens)):
        j = i
        while j > 0 and gens[j - 1].index > gens[j].index:
            gens[j - 1], gens[j] = gens[j], gens[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(gens, gens[1:]):
        if a is b:
            return 0, None
    return sign, tuple(gens)


def _merge_odd(a: tuple[Generator, ...], b: tuple[Generator, ...]):
    """Merge two canonical odd tuples, counting transpositions."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        ga, gb = a[i], b[j]
        if ga is gb:
            return 0, None
        if ga.index < gb.index:
            out.append(ga)
            i += 1
        else:
            # gb jumps over the remaining factors of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(gb)
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def _mul_monomials(a: Monomial, b: Monomial):
    sign, odd = _merge_odd(a.odd, b.odd)
    if sign == 0:
        return 0, None
    if not a.even:
        even = b.even
    elif not b.even:
        even = a.even
    else:
        exps: dict[Generator, int] = {g: e for g, e in a.even}
        for g, e in b.even:
            exps[g] = exps.get(g, 0) + e
        even = tuple(sorted(exps.items(), key=lambda ge: ge[0].index))
    return sign, Monomial(even, odd)


def _coerce_scalar(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class SuperPolynomial:
    """An element of the free supercommutative algebra over the rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        data: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = _coerce_scalar(coeff)
                if c:
                    data[mono] = c
        self._terms = data

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "SuperPolynomial":
        return cls()

    @classmethod
    def scalar(cls, value: Scalar) -> "SuperPolynomial":
        return cls({_EMPTY_MONOMIAL: _coerce_scalar(value)})

    @classmethod
    def one(cls) -> "SuperPolynomial":
        return cls.scalar(1)

    @classmethod
    def generator(cls, g: Generator) -> "SuperPolynomial":
        if g.parity is ODD:
            return cls({Monomial(odd=(g,)): Fraction(1)})
        return cls({Monomial(even=((g, 1),)): Fraction(1)})

    # -- inspection ------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def generators(self) -> set[Generator]:
        out: set[Generator] = set()
        for mono in self._terms:
            out.update(mono.generators())
        return out

    def homogeneous_parity(self):
        """The common parity of all terms, or None if mixed. Zero is even."""
        parities = {m.parity for m in self._terms}
        if not parities:
            return EVEN
        if len(parities) > 1:
            return None
        return parities.pop()

    def is_homogeneous(self, parity: Parity) -> bool:
        return all(m.parity is parity for m in self._terms)

    # -- arithmetic -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, SuperPolynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == SuperPolynomial.scalar(other)._terms
        return NotImplemented

    def __bool__(self):
        return bool(self._terms)

    def __pos__(self):
        return self

    def __neg__(self):
        return SuperPolynomial({m: -c for m, c in self._terms.items()})

    def __add__(self, other):
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = data.get(mono, Fraction(0)) + coeff
            if acc:
                data[mono] = acc
            else:
                data.pop(mono, None)
        out = SuperPolynomial()
        out._terms = data
        return out

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce_scalar(other)
            if not c:
                return SuperPolynomial()
            out = SuperPolynomial()
            out._terms = {m: k * c for m, k in self._terms.items()}
            return out
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        data: dict[Monomial, Fraction] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                sign, mono = _mul_monomials(ma, mb)
                if sign == 0:
                    continue
                acc = data.get(mono, Fraction(0)) + ca * cb * sign
                if acc:
                    data[mono] = acc
                else:
                    data.pop(mono, None)
        out = SuperPolynomial()
        out._terms = data
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise DomainError(
                f"powers need a nonnegative integer exponent, got {exponent!r}"
            )
        result = SuperPolynomial.one()
        for _ in range(exponent):
            result = result * self
        return result

    def __repr__(self):
        from .printer import format_polynomial

        return f"SuperPolynomial({format_polynomial(self)!r})"


def _as_polynomial(value):
    if isinstance(value, SuperPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return SuperPolynomial.scalar(value)
    return NotImplemented


def poly(g: Generator) -> SuperPolynomial:
    """The generator g as a polynomial."""
    return SuperPolynomial.generator(g)


def const(value: Scalar) -> SuperPolynomial:
    return SuperPolynomial.scalar(value)


def normalize(
    raw_terms: Iterable[tuple[Scalar, Sequence[Generator]]],
    scope: Iterable[Generator] | None = None,
) -> SuperPolynomial:
    """Canonical form of a sum of coefficient–factor-sequence terms.

    Factors may be listed in any order and mix parities freely. Odd factors
    are sorted into declaration order with the accumulated sign; a repeated
    odd factor kills the term. When ``scope`` is given, factors outside it
    are rejected.
    """
    allowed = None if scope is None else set(scope)
    data: dict[Monomial, Fraction] = {}
    for coeff, factors in raw_terms:
        c = _coerce_scalar(coeff)
        if not c:
            continue
        evens: dict[Generator, int] = {}
        odds: list[Generator] = []
        for g in factors:
            if allowed is not None and g not in allowed:
                raise DeclarationError(f"generator '{g.name}' is not declared here")
            if g.parity is ODD:
                odds.append(g)
            else:
                evens[g] = evens.get(g, 0) + 1
        sign, odd = _sort_odd(odds)
        if sign == 0:
            continue
        mono = Monomial(
            tuple(sorted(evens.items(), key=lambda ge: ge[0].index)),
            odd,
        )
        acc = data.get(mono, Fraction(0)) + c * sign
        if acc:
            data[mono] = acc
        else:
            data.pop(mono, None)
    out = SuperPolynomial()
    out._terms = data
    return out


def partial(f: SuperPolynomial, v: Generator) -> SuperPolynomial:
    """Left partial derivative of f with respect to the generator v."""
    data: dict[Monomial, Fraction] = {}
    if v.parity is EVEN:
        for mono, coeff in f.items():
            for pos, (g, e) in enumerate(mono.even):
                if g is v:
                    if e == 1:
                        even = mono.even[:pos] + mono.even[pos + 1 :]
                    else:
                        even = (
                            mono.even[:pos]
                            + ((g, e - 1),)
                            + mono.even[pos + 1 :]
                        )
                    new = Monomial(even, mono.odd)
                    acc = data.get(new, Fraction(0)) + coeff * e
                    if acc:
                        data[new] = acc
                    else:
                        data.pop(new, None)
                    break
    else:
        for mono, coeff in f.items():
            for pos, g in enumerate(mono.odd):
                if g is v:
                    # moving v to the front passes pos odd factors
                    sign = -1 if pos % 2 else 1
                    new = Monomial(mono.even, mono.odd[:pos] + mono.odd[pos + 1 :])
                    acc = data.get(new, Fraction(0)) + coeff * sign
                    if acc:
                        data[new] = acc
                    else:
                        data.pop(new, None)
                    break
    out = SuperPolynomial()
    out._terms = data
    return out


def _evaluate(f: SuperPolynomial, image, one):
    """The value of f with every generator g replaced by ``image(g)``.

    Works in any ring whose elements add, multiply and scale by rationals:
    ``SuperPolynomial`` for substitution, ``TimeSeries`` for composition with
    series; ``one`` is that ring's unit. Factors are multiplied in canonical
    monomial order, and powers of each even image are computed once.
    """
    powers: dict[Generator, list] = {}
    result = one * 0
    for mono, coeff in f.items():
        term = one * coeff
        for g, e in mono.even:
            base = image(g)
            cache = powers.setdefault(g, [one])
            while len(cache) <= e:
                cache.append(cache[-1] * base)
            term = term * cache[e]
        for g in mono.odd:
            term = term * image(g)
        result = result + term
    return result


def substitute(
    f: SuperPolynomial,
    assignment: Mapping[Generator, SuperPolynomial],
) -> SuperPolynomial:
    """Apply the parity-preserving substitution homomorphism to f.

    Every generator appearing in f must be assigned a polynomial of its own
    parity. Factors are multiplied in canonical monomial order, so the result
    is independent of how f was originally written down.
    """
    checked: set[Generator] = set()

    def image(g: Generator) -> SuperPolynomial:
        try:
            value = assignment[g]
        except KeyError:
            raise CoverageError(f"no assignment for generator '{g.name}'") from None
        if g not in checked:
            if not value.is_homogeneous(g.parity):
                raise ParityError(
                    f"assignment for '{g.name}' must be homogeneous of parity {g.parity}"
                )
            checked.add(g)
        return value

    return _evaluate(f, image, SuperPolynomial.one())


class TimeSeries:
    """A truncated power series in the distinguished even time variable.

    ``coefficients[r]`` multiplies t**r. Coefficients are polynomials that
    never mention the time variable themselves; the jet of a curve reads off
    exactly these coefficients, so coefficient r already carries the 1/r!
    of the r-th derivative.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Sequence[SuperPolynomial | Scalar]):
        coeffs = []
        for c in coefficients:
            p = _as_polynomial(c)
            if p is NotImplemented:
                raise TypeError("series coefficients must be polynomials or rationals")
            coeffs.append(p)
        if not coeffs:
            raise OrderError("a series needs at least its constant coefficient")
        for p in coeffs:
            if TIME in p.generators():
                raise DeclarationError(
                    "series coefficients must not mention the time variable"
                )
        self._coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, order: int) -> "TimeSeries":
        return cls([SuperPolynomial.zero()] * (order + 1))

    @classmethod
    def constant(cls, value: SuperPolynomial | Scalar, order: int) -> "TimeSeries":
        coeffs = [value] + [SuperPolynomial.zero()] * order
        return cls(coeffs)

    @classmethod
    def from_polynomial(cls, p: SuperPolynomial, order: int) -> "TimeSeries":
        """Split a polynomial in the time variable into series coefficients.

        Powers of t above the order are truncated away.
        """
        coeffs = [SuperPolynomial.zero() for _ in range(order + 1)]
        for mono, coeff in p.items():
            degree = 0
            rest = mono.even
            for pos, (g, e) in enumerate(mono.even):
                if g is TIME:
                    degree = e
                    rest = mono.even[:pos] + mono.even[pos + 1 :]
                    break
            if degree > order:
                continue
            coeffs[degree] = coeffs[degree] + SuperPolynomial(
                {Monomial(rest, mono.odd): coeff}
            )
        return cls(coeffs)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[SuperPolynomial, ...]:
        return self._coeffs

    def __getitem__(self, r: int) -> SuperPolynomial:
        return self._coeffs[r]

    def __eq__(self, other):
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        from .printer import format_polynomial

        inner = ", ".join(format_polynomial(c) for c in self._coeffs)
        return f"TimeSeries([{inner}])"

    def _require_same_order(self, other: "TimeSeries"):
        if self.order != other.order:
            raise OrderError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if not isinstance(other, TimeSeries):
            return NotImplemented
        self._require_same_order(other)
        return TimeSeries([a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __neg__(self):
        return TimeSeries([-c for c in self._coeffs])

    def __sub__(self, other):
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TimeSeries([c * other for c in self._coeffs])
        if isinstance(other, SuperPolynomial):
            return TimeSeries([other * c for c in self._coeffs])
        if not isinstance(other, TimeSeries):
            return NotImplemented
        self._require_same_order(other)
        k = self.order
        coeffs = [SuperPolynomial.zero() for _ in range(k + 1)]
        for i, a in enumerate(self._coeffs):
            if a.is_zero():
                continue
            for j in range(k + 1 - i):
                b = other._coeffs[j]
                if b.is_zero():
                    continue
                coeffs[i + j] = coeffs[i + j] + a * b
        return TimeSeries(coeffs)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, SuperPolynomial)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise DomainError(
                f"powers need a nonnegative integer exponent, got {exponent!r}"
            )
        result = TimeSeries.constant(1, self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def shift(self, t0: Scalar) -> "TimeSeries":
        """Re-expand the series about t0, i.e. substitute t -> t + t0."""
        t0 = _coerce_scalar(t0)
        if not t0:
            return self
        k = self.order
        coeffs = []
        for r in range(k + 1):
            acc = SuperPolynomial.zero()
            for s in range(r, k + 1):
                acc = acc + self._coeffs[s] * (math.comb(s, r) * t0 ** (s - r))
            coeffs.append(acc)
        return TimeSeries(coeffs)

    def truncate(self, order: int) -> "TimeSeries":
        if order < 0:
            raise OrderError(f"series order must be nonnegative, got {order!r}")
        if order >= self.order:
            if order == self.order:
                return self
            return TimeSeries(
                list(self._coeffs)
                + [SuperPolynomial.zero()] * (order - self.order)
            )
        return TimeSeries(self._coeffs[: order + 1])


def series_compose(
    f: SuperPolynomial,
    series: Mapping[Generator, TimeSeries],
) -> TimeSeries:
    """Substitute truncated series for the generators of f.

    All series must share one truncation order and each coefficient must be
    homogeneous of its generator's parity, so the composite is again a valid
    series of the same order.
    """
    orders = {s.order for s in series.values()}
    if len(orders) > 1:
        raise OrderError(f"series orders disagree: {sorted(orders)}")
    if orders:
        k = orders.pop()
    else:
        k = 0
    for g, s in series.items():
        for c in s.coefficients:
            if not c.is_homogeneous(g.parity):
                raise ParityError(
                    f"series for '{g.name}' must have coefficients of parity {g.parity}"
                )

    def image(g: Generator) -> TimeSeries:
        try:
            return series[g]
        except KeyError:
            raise CoverageError(f"no series for generator '{g.name}'") from None

    return _evaluate(f, image, TimeSeries.constant(1, k))
