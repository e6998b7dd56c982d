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

import functools
import itertools
import math
import operator
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
        return ODD if (int(self) + int(other)) % 2 else EVEN

    def __str__(self):
        return "even" if self is Parity.EVEN else "odd"


EVEN = Parity.EVEN
ODD = Parity.ODD

_declaration_counter = itertools.count()


class _Frozen:
    """Base of slotted classes whose attributes are set once, in ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(
            f"{type(self).__name__} is immutable; cannot change {name!r}"
        )

    __delattr__ = __setattr__

    def _freeze(self, **attributes):
        """Set each attribute once, bypassing the refusing ``__setattr__``."""
        for name, value in attributes.items():
            object.__setattr__(self, name, value)


class Generator(_Frozen):
    """A named symbol with a fixed parity and an integer weight.

    Generators compare by identity: declaring the same name twice gives two
    distinct symbols. The global declaration index fixes the canonical order
    of odd factors inside monomials, so canonical forms never depend on the
    order in which terms were written down. The parity is stored as a
    ``Parity``; a value that is not 0 or 1 is a ``ValueError``.
    """

    __slots__ = ("name", "parity", "weight", "index")

    def __init__(self, name: str, parity: Parity, weight: int = 0):
        if not name:
            raise DeclarationError("generator name must be nonempty")
        index = next(_declaration_counter)
        self._freeze(name=name, parity=Parity(parity), weight=weight, index=index)

    def __repr__(self):
        return f"Generator({self.name!r}, {self.parity})"


# The distinguished even time variable used by curve components. It is
# declared first, at import time, so its position in canonical forms is the
# same in every process.
TIME = Generator("t", EVEN)


class Monomial(tuple):
    """A canonical monomial: the immutable pair ``(even, odd)``.

    ``even`` holds (generator, exponent) pairs sorted by declaration index
    with exponents >= 1; ``odd`` holds distinct odd generators in strictly
    increasing declaration order. Equality and hash are the tuple's, computed
    in C, because every arithmetic step looks monomials up in term dicts.
    """

    __slots__ = ()

    def __new__(cls, even: tuple = (), odd: tuple = ()):
        return tuple.__new__(cls, (even, odd))

    def __getnewargs__(self):
        return tuple(self)

    even = property(operator.itemgetter(0))
    odd = property(operator.itemgetter(1))

    def __repr__(self):
        return f"Monomial(even={self.even!r}, odd={self.odd!r})"

    @property
    def parity(self) -> Parity:
        return ODD if len(self.odd) % 2 else EVEN

    @property
    def even_degree(self) -> int:
        return sum(e for _, e in self.even)

    @property
    def weight(self) -> int:
        w = sum(g.weight * e for g, e in self.even)
        return w + sum(g.weight for g in self.odd)

    def generators(self):
        for g, _ in self.even:
            yield g
        yield from self.odd


# Monomial(even, odd) as _new_monomial((even, odd)), without a Python-level
# call: the kernel's inner loops build every product through it.
_new_monomial = functools.partial(tuple.__new__, Monomial)

_EMPTY_MONOMIAL = Monomial()


def _merge_odd(a: tuple[Generator, ...], b: tuple[Generator, ...]):
    """Merge two canonical odd tuples, counting transpositions."""
    if not a:
        return 1, b
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


def _merge_even(a, b):
    """Merge two canonical even parts, adding the exponents of shared generators."""
    if not a:
        return b
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (ga, ea), (gb, eb) = a[i], b[j]
        if ga is gb:
            out.append((ga, ea + eb))
            i += 1
            j += 1
        elif ga.index < gb.index:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _coerce_scalar(value) -> Scalar:
    """``value`` as a stored coefficient: ``int`` when whole, else ``Fraction``."""
    if isinstance(value, int):
        return int(value)  # also turns a bool into a plain int
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _settled(sums: dict) -> "SuperPolynomial":
    """The polynomial of raw coefficient sums: zeros dropped, whole sums as int."""
    out = SuperPolynomial.__new__(SuperPolynomial)
    out._terms = {
        m: c.numerator if c.denominator == 1 else c for m, c in sums.items() if c
    }
    return out


def _product_into(sums: dict, terms_a, terms_b) -> None:
    """Add the product of each term of ``terms_a`` with each term of
    ``terms_b``, a's factors on the left, into the raw coefficient sums.

    The terms are ``((even, odd), coefficient)`` pairs. This is the one loop
    that multiplies terms: products, series products, powers and the
    derivation all run it.
    """
    get = sums.get
    for (ea, oa), ca in terms_a:
        for (eb, ob), cb in terms_b:
            if oa and ob:
                sign, odd = _merge_odd(oa, ob)
                if not sign:
                    continue
            else:
                sign, odd = 1, oa or ob
            even = _merge_even(ea, eb) if ea and eb else ea or eb
            mono = _new_monomial((even, odd))
            if sign > 0:
                sums[mono] = get(mono, 0) + ca * cb
            else:
                sums[mono] = get(mono, 0) - ca * cb


def _mul_into(sums: list[dict], a, b, scale: Scalar = 1) -> None:
    """Add scale * a * b into the raw coefficient sums, in place.

    ``a``, ``b`` and ``sums`` are coefficient sequences of truncated series
    (a polynomial is the sequence of length one); powers of t past the end of
    ``sums`` are dropped. ``_settled`` turns each sum into a polynomial.
    """
    k = len(sums)
    for i, pa in enumerate(a):
        if not pa._terms:
            continue
        terms_a = (
            pa._terms.items()
            if scale == 1
            else [(m, c * scale) for m, c in pa._terms.items()]
        )
        for j in range(k - i):
            terms_b = b[j]._terms.items()
            if terms_b:
                _product_into(sums[i + j], terms_a, terms_b)


class SuperPolynomial:
    """An element of the free supercommutative algebra over the rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        data: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                c = _coerce_scalar(coeff)
                if c:
                    data[mono] = c
        self._terms = data

    # -- inspection ------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, int | Fraction]:
        """A copy of the term dict. Each coefficient is nonzero and stored as
        ``int`` when whole, as ``Fraction`` otherwise."""
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def coefficient(self, mono: Monomial) -> int | Fraction:
        """The coefficient of ``mono``: ``int`` when whole, else ``Fraction``;
        0 when ``mono`` is absent."""
        return self._terms.get(mono, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def generators(self) -> set[Generator]:
        out: set[Generator] = set()
        for mono in self._terms:
            out.update(mono.generators())
        return out

    def is_homogeneous(self, parity: Parity) -> bool:
        return all(len(m.odd) % 2 == parity for m in self._terms)

    # -- arithmetic -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, SuperPolynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == const(other)._terms
        return NotImplemented

    def __bool__(self):
        return bool(self._terms)

    def __neg__(self):
        return SuperPolynomial({m: -c for m, c in self._terms.items()})

    def __add__(self, other):
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        get = data.get
        for mono, coeff in other._terms.items():
            data[mono] = get(mono, 0) + coeff
        return _settled(data)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SuperPolynomial):
            sums: list[dict] = [{}]
            _mul_into(sums, (self,), (other,))
            return _settled(sums[0])
        if isinstance(other, (int, Fraction)):
            c = _coerce_scalar(other)
            return _settled({m: k * c for m, k in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int):
        """The power by the multinomial theorem, on integer numerators.

        With p = E + O split into its even and odd terms, E is central and
        O*O = 0, so p**n = E**n + n * E**(n-1) * O. The powers of E are built
        one term at a time by the binomial theorem, and the common
        denominator D of the coefficients is divided out once, as D**n.
        """
        if not isinstance(exponent, int) or exponent < 0:
            raise DomainError(
                f"powers need a nonnegative integer exponent, got {exponent!r}"
            )
        n = exponent
        if n == 0:
            return const(1)
        if len(self._terms) == 1:
            ((mono, c),) = self._terms.items()
            if mono.odd and n > 1:
                return SuperPolynomial()
            even = tuple((g, e * n) for g, e in mono.even)
            return _settled({Monomial(even, mono.odd): c**n})
        d = math.lcm(*(c.denominator for c in self._terms.values()))
        even_terms, odd_terms = [], {}
        for mono, c in self._terms.items():
            numerator = c.numerator * (d // c.denominator)
            if mono.parity is ODD:
                odd_terms[mono] = numerator
            else:
                even_terms.append((mono, numerator))
        top = n - 1 if odd_terms else n
        # levels[j]: the j-th power of the even terms added so far, with
        # numerators scaled by d**j; levels above ``reach`` are still empty
        levels: list[dict] = [{_EMPTY_MONOMIAL: 1}] + [{} for _ in range(n)]
        reach = 0
        for i, (mono, c) in enumerate(even_terms):
            # the last term fills only the levels that the result reads
            lowest = top if i == len(even_terms) - 1 else 1
            most = 1 if mono.odd else n  # a monomial with odd factors squares to 0
            powers = [(1, _EMPTY_MONOMIAL)]
            for _ in range(most):
                ck, mk = powers[-1]
                powers.append(
                    (ck * c, Monomial(_merge_even(mk.even, mono.even), mono.odd))
                )
            for j in range(min(n, reach + most), lowest - 1, -1):
                for k in range(max(1, j - reach), min(j, most) + 1):
                    ck, mk = powers[k]
                    term = ((mk, math.comb(j, k) * ck),)
                    _product_into(levels[j], term, levels[j - k].items())
            reach = min(n, reach + most)
        sums = levels[n]
        if odd_terms:
            head, tail = SuperPolynomial(levels[n - 1]), SuperPolynomial(odd_terms)
            _mul_into([sums], (head,), (tail,), n)
        if d > 1:
            scale = d**n
            sums = {m: Fraction(v, scale) for m, v in sums.items() if v}
        return _settled(sums)

    def __repr__(self):
        from .printer import format_polynomial

        return f"SuperPolynomial({format_polynomial(self)!r})"


def _as_polynomial(value):
    if isinstance(value, SuperPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return const(value)
    return NotImplemented


def poly(g: Generator) -> SuperPolynomial:
    """The generator g as a polynomial."""
    if g.parity is ODD:
        return SuperPolynomial({Monomial(odd=(g,)): 1})
    return SuperPolynomial({Monomial(even=((g, 1),)): 1})


def const(value: Scalar) -> SuperPolynomial:
    """The scalar ``value`` as a polynomial; 0 gives ``SuperPolynomial()``."""
    return SuperPolynomial({_EMPTY_MONOMIAL: value})


def normalize(
    raw_terms: Iterable[tuple[Scalar, Sequence[Generator]]],
    scope: Iterable[Generator] | None = None,
) -> SuperPolynomial:
    """Canonical form of a sum of coefficient–factor-sequence terms.

    Factors may be listed in any order and mix parities freely. Odd factors
    are merged into declaration order one at a time, with the accumulated
    sign; a repeated odd factor kills the term. When ``scope`` is given,
    factors outside it are rejected.
    """
    allowed = None if scope is None else set(scope)
    data: dict[Monomial, Scalar] = {}
    get = data.get
    for coeff, factors in raw_terms:
        c = _coerce_scalar(coeff)
        if not c:
            continue
        evens: dict[Generator, int] = {}
        sign, odd = 1, ()
        for g in factors:
            if allowed is not None and g not in allowed:
                raise DeclarationError(f"generator '{g.name}' is not declared here")
            if g.parity is ODD:
                s, odd = _merge_odd(odd, (g,))
                sign *= s
            else:
                evens[g] = evens.get(g, 0) + 1
        if not sign:
            continue
        mono = Monomial(
            tuple(sorted(evens.items(), key=lambda ge: ge[0].index)),
            odd,
        )
        data[mono] = get(mono, 0) + c * sign
    return _settled(data)


def _even_partial(even: tuple, pos: int, c: Scalar) -> tuple[tuple, Scalar]:
    """The left partial of the term c * even in its factor at pos: the
    remaining even part and coefficient."""
    x, e = even[pos]
    if e == 1:
        return even[:pos] + even[pos + 1 :], c * e
    return even[:pos] + ((x, e - 1),) + even[pos + 1 :], c * e


def _odd_partial(odd: tuple, pos: int, c: Scalar) -> tuple[tuple, Scalar]:
    """The left partial of the term c * odd in its factor at pos: the
    remaining odd part and coefficient."""
    # moving the factor to the front passes pos odd factors
    return odd[:pos] + odd[pos + 1 :], -c if pos % 2 else c


def partial(f: SuperPolynomial, v: Generator) -> SuperPolynomial:
    """Left partial derivative of f with respect to the generator v."""
    # distinct monomials have distinct derivatives, so nothing accumulates
    data: dict[Monomial, Scalar] = {}
    if v.parity is EVEN:
        for (even, odd), c in f._terms.items():
            for pos, (g, _) in enumerate(even):
                if g is v:
                    rest, c = _even_partial(even, pos, c)
                    data[_new_monomial((rest, odd))] = c
                    break
    else:
        for (even, odd), c in f._terms.items():
            for pos, g in enumerate(odd):
                if g is v:
                    rest, c = _odd_partial(odd, pos, c)
                    data[_new_monomial((even, rest))] = c
                    break
    return _settled(data)


def _derive_into(
    sums: dict, f: SuperPolynomial, values: Mapping, scale: Scalar = 1
) -> None:
    """Add scale * (the sum over the generators x of f of values[x] times the
    left partial of f in x) into the raw coefficient sums, values on the left.

    One walk over the terms of f; a generator with no value is a constant.
    This is the one derivation: ``VectorField.apply``, ``bracket`` and the
    parity-reversed lift all call it.
    """
    value = values.get
    terms = (
        f._terms.items()
        if scale == 1
        else [(m, c * scale) for m, c in f._terms.items()]
    )
    for (even, odd), coeff in terms:
        for pos, (x, _) in enumerate(even):
            v = value(x)
            if v is not None and v._terms:
                rest, c = _even_partial(even, pos, coeff)
                _product_into(sums, v._terms.items(), (((rest, odd), c),))
        for pos, x in enumerate(odd):
            v = value(x)
            if v is not None and v._terms:
                rest, c = _odd_partial(odd, pos, coeff)
                _product_into(sums, v._terms.items(), (((even, rest), c),))


def derivation(f: SuperPolynomial, values: Mapping) -> SuperPolynomial:
    """The sum over the generators x of f of values[x] times the left partial
    of f in x, values on the left (see ``_derive_into``)."""
    sums: dict[Monomial, Scalar] = {}
    _derive_into(sums, f, values)
    return _settled(sums)


def _evaluate(f: SuperPolynomial, images: Mapping, one):
    """The value of f with every generator g replaced by ``images[g]``.

    The images live in the ring of ``one``, its unit: ``SuperPolynomial`` for
    substitution, ``TimeSeries`` for composition with series. Each image is
    checked once, the first time f reads it: it must be there
    (``CoverageError``) and be homogeneous of its generator's parity, every
    coefficient of a series too (``ParityError``); images that f does not
    read are not looked at. Factors are multiplied in canonical monomial
    order, powers of each even image are computed once, and each term's last
    product is added straight into the running sums.

    The sums are integers. f is scaled by D, the lcm of its denominators, and
    each image g, when it is read, by d_g, the lcm of its own. With B the
    product of d_g ** (the highest exponent of g in f), the term c * m adds
    c * D * B / prod(d_g ** e) times the product of its scaled images, and
    each sum is divided by D * B once, at the end.
    """
    series = isinstance(one, TimeSeries)
    what = "series" if series else "assignment"

    def parts(x):
        return x._coeffs if series else (x,)

    # powers[g]: the powers of g's scaled image computed so far, from the 0th;
    # scales[g]: d_g, the number g's image was scaled by
    powers: dict[Generator, list] = {}
    scales: dict[Generator, int] = {}

    def read(g: Generator) -> None:
        try:
            value = images[g]
        except KeyError:
            message = f"no {what} for generator '{g.name}'"
            raise CoverageError(message, g.name) from None
        if not all(p.is_homogeneous(g.parity) for p in parts(value)):
            raise ParityError(
                f"{what} for '{g.name}' must be homogeneous of parity {g.parity}",
                g.name,
            )
        d = math.lcm(*(c.denominator for p in parts(value) for c in p._terms.values()))
        powers[g] = [one, value * d if d > 1 else value]
        scales[g] = d

    # read the images in the order f first uses them; top[g]: g's highest exponent
    top: dict[Generator, int] = {}
    for even, odd in f._terms:
        for g, e in even:
            if g not in powers:
                read(g)
            if e > top.get(g, 0):
                top[g] = e
        for g in odd:
            if g not in powers:
                read(g)
            top[g] = 1
    denominator = math.lcm(*(c.denominator for c in f._terms.values()))
    common = math.prod(scales[g] ** e for g, e in top.items())

    sums: list[dict] = [{} for _ in parts(one)]
    for (even, odd), coeff in f._terms.items():
        weight = coeff.numerator * (denominator // coeff.denominator) * common
        factors = []
        for g, e in even:
            cache = powers[g]
            while len(cache) <= e:
                cache.append(cache[-1] * cache[1])
            factors.append(cache[e])
            weight //= scales[g] ** e
        for g in odd:
            factors.append(powers[g][1])
            weight //= scales[g]
        *head, last = factors or (one,)
        term = functools.reduce(operator.mul, head) if head else one
        _mul_into(sums, parts(term), parts(last), weight)
    divisor = denominator * common
    if divisor > 1:
        for d in sums:
            for m, v in d.items():
                d[m] = Fraction(v, divisor) if v % divisor else v // divisor
    values = [_settled(d) for d in sums]
    return TimeSeries._trusted(values) if series else values[0]


def substitute(
    f: SuperPolynomial,
    assignment: Mapping[Generator, SuperPolynomial],
) -> SuperPolynomial:
    """Apply the parity-preserving substitution homomorphism to f.

    Every generator appearing in f must be assigned a polynomial of its own
    parity. Factors are multiplied in canonical monomial order, so the result
    is independent of how f was originally written down.
    """
    return _evaluate(f, assignment, const(1))


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
    def _trusted(cls, coefficients: Iterable[SuperPolynomial]) -> "TimeSeries":
        """A series from polynomials known to be free of the time variable;
        arithmetic builds its results here, skipping the constructor's scan."""
        out = object.__new__(cls)
        out._coeffs = tuple(coefficients)
        return out

    @classmethod
    def constant(cls, value: SuperPolynomial | Scalar, order: int) -> "TimeSeries":
        coeffs = [value] + [SuperPolynomial()] * order
        return cls(coeffs)

    @classmethod
    def from_polynomial(cls, p: SuperPolynomial, order: int) -> "TimeSeries":
        """Split a polynomial in the time variable into series coefficients.

        Powers of t above the order are truncated away.
        """
        # distinct monomials split into distinct (degree, rest) pairs, so
        # nothing accumulates
        sums: list[dict] = [{} for _ in range(order + 1)]
        for (even, odd), coeff in p.items():
            degree = 0
            rest = even
            for pos, (g, e) in enumerate(even):
                if g is TIME:
                    degree = e
                    rest = even[:pos] + even[pos + 1 :]
                    break
            if degree <= order:
                sums[degree][_new_monomial((rest, odd))] = coeff
        return cls(map(_settled, sums))

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
        return TimeSeries._trusted(a + b for a, b in zip(self._coeffs, other._coeffs))

    def __mul__(self, other):
        if isinstance(other, TimeSeries):
            self._require_same_order(other)
            sums: list[dict] = [{} for _ in self._coeffs]
            _mul_into(sums, self._coeffs, other._coeffs)
            return TimeSeries._trusted(map(_settled, sums))
        if isinstance(other, SuperPolynomial):
            # the public constructor checks that other brings in no t
            return TimeSeries([other * c for c in self._coeffs])
        if isinstance(other, (int, Fraction)):
            return TimeSeries._trusted(c * other for c in self._coeffs)
        return NotImplemented

    def shift(self, t0: Scalar) -> "TimeSeries":
        """Re-expand the series about t0, i.e. substitute t -> t + t0."""
        t0 = _coerce_scalar(t0)
        if not t0:
            return self
        k = self.order
        coeffs = []
        for r in range(k + 1):
            sums: dict[Monomial, Scalar] = {}
            get = sums.get
            for s in range(r, k + 1):
                scale = math.comb(s, r) * t0 ** (s - r)
                for m, c in self._coeffs[s]._terms.items():
                    sums[m] = get(m, 0) + c * scale
            coeffs.append(_settled(sums))
        return TimeSeries._trusted(coeffs)

    def truncate(self, order: int) -> "TimeSeries":
        """The series cut off above t**order, for 0 <= order <= self.order."""
        if not 0 <= order <= self.order:
            raise OrderError(
                f"a series of order {self.order} cannot be truncated to {order!r}"
            )
        return TimeSeries._trusted(self._coeffs[: order + 1])


def series_compose(
    f: SuperPolynomial,
    series: Mapping[Generator, TimeSeries],
) -> TimeSeries:
    """Substitute truncated series for the generators of f.

    All series must share one truncation order, and each coefficient of a
    series that f reads must be homogeneous of its generator's parity, so the
    composite is again a valid series of the same order.
    """
    orders = {s.order for s in series.values()}
    if len(orders) > 1:
        raise OrderError(f"series orders disagree: {sorted(orders)}")
    k = orders.pop() if orders else 0
    return _evaluate(f, series, TimeSeries.constant(1, k))
