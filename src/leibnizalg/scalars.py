"""Exact scalar arithmetic: rationals and sparse multivariate polynomials.

Every coefficient in this package is a Poly: a finite sum of monomials in
named parameters with Fraction coefficients. Constants are the degenerate
case whose only monomial is the unit monomial. There is no floating point
anywhere and no factorization, GCD or elimination machinery; normalization
is limited to removing rational content and fixing a sign.

Conventions fixed here and used everywhere else:

* A monomial is a tuple of (name, exponent) pairs, sorted by name, with
  all exponents positive. The unit monomial is ().
* Monomials are totally ordered by graded lexicographic order: first by
  total degree, ties broken by comparing exponents along the parameter
  names in ascending string order (a larger exponent on an earlier name
  wins). Under this order a proper divisor is always smaller.
* The canonical term order of a polynomial is ascending, so constants and
  low-degree terms print first: `l - a*l`, `1 + 2*a + a^2`.
* primitive_terms, which extract_constraints runs on each residual
  coordinate, divides integer terms by their gcd and makes the coefficient
  of the first monomial in canonical (ascending) order positive.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from math import gcd

from .errors import MissingParameterError

Mono = tuple[tuple[str, int], ...]

UNIT_MONO: Mono = ()


def mono_mul(a: Mono, b: Mono) -> Mono:
    """Product of two monomials: merge name-sorted exponent lists."""
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


@functools.lru_cache(maxsize=1 << 12)
def MONO_KEY(m: Mono) -> tuple:
    """Sort key for the canonical graded lexicographic monomial order.

    Total degree first; ties go to the exponents along the names in
    ascending string order, a larger exponent on an earlier name sorting
    later. So the key holds the (name, exponent) pairs with each name keyed
    by its negated code points and a final 1, which reverses string order.
    Memoized in a bounded cache.
    """
    return mono_degree(m), tuple((tuple([-ord(ch) for ch in name]) + (1,), e) for name, e in m)


def mono_packing(names: Iterable[str], top: int) -> tuple[Callable[[Mono], int], Callable[[int], Mono]]:
    """(pack, unpack) between monomials in names and ints.

    pack gives each name an exponent field w = (2*top).bit_length() bits
    wide, the first name in string order in the most significant field, and
    puts the total degree above all the fields. For monomials whose
    exponents are at most top, pack(a) + pack(b) == pack(mono_mul(a, b)),
    since no field of the product exceeds 2*top, and integer order is
    MONO_KEY order. unpack(pack(m)) == m; it visits only the nonzero fields.
    """
    ordered = sorted(names)
    w = (2 * top).bit_length()
    shift = {name: w * s for s, name in enumerate(reversed(ordered))}
    field_of = ordered[::-1]
    degree_shift = w * len(ordered)
    fields = (1 << degree_shift) - 1

    def pack(m: Mono) -> int:
        packed = mono_degree(m) << degree_shift
        for name, e in m:
            packed += e << shift[name]
        return packed

    def unpack(packed: int) -> Mono:
        rest = packed & fields
        out = []
        while rest:
            s = (rest.bit_length() - 1) // w
            e = rest >> (w * s)
            rest -= e << (w * s)
            out.append((field_of[s], e))
        return tuple(out)

    return pack, unpack


def mono_str(m: Mono) -> str:
    """Render a monomial: factors in ascending name order, `^` for powers."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in m)


def format_term(coeff: Fraction, mono: Mono, symbol: str | None = None) -> tuple[int, str]:
    """Render one term as (sign, body) with the sign split off.

    body never starts with a minus; the caller joins terms with ` + ` and
    ` - `. symbol, when given, is a basis symbol appended as a last factor.
    The coefficient is read as its numerator and denominator, so the text
    takes only int operations.
    """
    num, den = coeff.numerator, coeff.denominator
    sign = 1
    if num < 0:
        sign, num = -1, -num
    factors = []
    if num != 1 or den != 1 or (not mono and symbol is None):
        try:
            factors.append(str(num) if den == 1 else f"{num}/{den}")
        except ValueError:  # past the interpreter's int-to-str digit limit
            factors.append(_digits(num) if den == 1 else f"{_digits(num)}/{_digits(den)}")
    if mono:
        factors.append(mono_str(mono))
    if symbol is not None:
        factors.append(symbol)
    return sign, "*".join(factors)


def _digits(n: int) -> str:
    """The decimal digits of a nonnegative int of any size, exactly: 500-digit
    chunks, each under every digit limit sys.set_int_max_str_digits admits."""
    chunks = []
    while n >= 10**500:
        n, low = divmod(n, 10**500)
        chunks.append(f"{low:0500d}")
    return str(n) + "".join(reversed(chunks))


def _join_terms(parts: Iterable[tuple[int, str]]) -> str:
    out: list[str] = []
    for sign, body in parts:
        if not out:
            out.append(body if sign > 0 else f"-{body}")
        else:
            out.append(f" + {body}" if sign > 0 else f" - {body}")
    return "".join(out) if out else "0"


class Poly:
    """Immutable sparse polynomial: dict from monomial to nonzero Fraction."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[Mono, Fraction]):
        # terms is trusted to be canonical: no zero coefficients.
        self.terms = terms
        self._hash: int | None = None

    @classmethod
    def const(cls, value: Fraction | int) -> "Poly":
        v = Fraction(value)
        return cls({UNIT_MONO: v}) if v else cls({})

    @classmethod
    def param(cls, name: str) -> "Poly":
        return cls({((name, 1),): _F1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or self.terms.keys() == {UNIT_MONO}

    def constant_value(self) -> Fraction:
        if not self.terms:
            return _F0
        if self.terms.keys() == {UNIT_MONO}:
            return self.terms[UNIT_MONO]
        raise MissingParameterError(
            f"polynomial {self} is not constant; parameters {sorted(self.parameters())} are unbound"
        )

    def parameters(self) -> set[str]:
        names: set[str] = set()
        for mono in self.terms:
            for name, _ in mono:
                names.add(name)
        return names

    def evaluate(self, assignment: Mapping[str, Fraction | int]) -> Fraction:
        """Substitute every parameter; raises if one is missing."""
        total = _F0
        for mono, coeff in self.terms.items():
            value = coeff
            for name, e in mono:
                if name not in assignment:
                    raise MissingParameterError(f"no value for parameter {name}")
                value *= Fraction(assignment[name]) ** e
            total += value
        return total

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        """Terms in canonical ascending graded-lex order."""
        terms = self.terms
        return [(mono, terms[mono]) for mono in sorted(terms, key=MONO_KEY)]

    def _coerce(self, other: Coeffish) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return None

    def __add__(self, other: Coeffish) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self.terms)
        for mono, coeff in o.terms.items():
            c = acc.get(mono, _F0) + coeff
            if c:
                acc[mono] = c
            else:
                del acc[mono]
        return Poly(acc)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({mono: -coeff for mono, coeff in self.terms.items()})

    def __sub__(self, other: Coeffish) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Coeffish) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: Coeffish) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.terms or not o.terms:
            return ZERO
        acc: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                mono = mono_mul(m1, m2)
                c = acc.get(mono, _F0) + c1 * c2
                if c:
                    acc[mono] = c
                else:
                    del acc[mono]
        return Poly(acc)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            if self.is_constant():
                # constants hash like their Fraction value, matching __eq__
                self._hash = hash(self.constant_value())
            else:
                self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __str__(self) -> str:
        return _join_terms(format_term(c, m) for m, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Poly({self})"


_F0 = Fraction(0)
_F1 = Fraction(1)

ZERO = Poly({})
ONE = Poly({UNIT_MONO: _F1})

Coeffish = Poly | Fraction | int


def as_poly(value: Coeffish) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly.const(value)


def primitive_terms(terms: Mapping[object, int], lead: object) -> dict:
    """Integer terms divided by their gcd, the sign fixed so that the
    coefficient of the lead monomial (the first in canonical ascending term
    order) is positive. terms holds no zero coefficient and is not empty."""
    g = gcd(*terms.values())
    if terms[lead] < 0:
        g = -g
    return {mono: c // g for mono, c in terms.items()}


def poly_sort_key(p: Poly):
    """Canonical order on polynomials: term count, then the terms in
    canonical order. ConstraintSet holds its members in this order."""
    terms = p.sorted_terms()
    return (len(terms), tuple((MONO_KEY(m), c) for m, c in terms))
