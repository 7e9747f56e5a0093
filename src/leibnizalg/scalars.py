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
* normalize_primitive divides by the rational content and flips the sign
  so that the first coefficient in canonical (ascending) order is positive.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

from .errors import MissingParameterError

Mono = tuple[tuple[str, int], ...]
Rat = Fraction
Coeffish = Union["Poly", Fraction, int]

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


def mono_cmp(a: Mono, b: Mono) -> int:
    """Graded lexicographic comparison, ascending parameter names."""
    da, db = mono_degree(a), mono_degree(b)
    if da != db:
        return -1 if da < db else 1
    ea, eb = dict(a), dict(b)
    for name in sorted(set(ea) | set(eb)):
        xa, xb = ea.get(name, 0), eb.get(name, 0)
        if xa != xb:
            return 1 if xa > xb else -1
    return 0


MONO_KEY = functools.cmp_to_key(mono_cmp)


def mono_str(m: Mono) -> str:
    """Render a monomial: factors in ascending name order, `^` for powers."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in m)


def format_term(coeff: Fraction, mono: Mono, symbol: str | None = None) -> tuple[int, str]:
    """Render one term as (sign, body) with the sign split off.

    body never starts with a minus; the caller joins terms with ` + ` and
    ` - `. symbol, when given, is a basis symbol appended as a last factor.
    """
    sign = -1 if coeff < 0 else 1
    c = abs(coeff)
    factors = []
    if c != 1 or (not mono and symbol is None):
        factors.append(str(c))
    if mono:
        factors.append(mono_str(mono))
    if symbol is not None:
        factors.append(symbol)
    return sign, "*".join(factors)


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
    def from_terms(cls, items: Iterable[tuple[Mono, Fraction]]) -> "Poly":
        acc: dict[Mono, Fraction] = {}
        for mono, coeff in items:
            c = acc.get(mono, _F0) + coeff
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        return cls(acc)

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

    def substitute(self, assignment: Mapping[str, Fraction | int]) -> "Poly":
        """Substitute a subset of parameters, keeping the rest symbolic."""
        acc: dict[Mono, Fraction] = {}
        for mono, coeff in self.terms.items():
            value = coeff
            rest: list[tuple[str, int]] = []
            for name, e in mono:
                if name in assignment:
                    value *= Fraction(assignment[name]) ** e
                else:
                    rest.append((name, e))
            if value:
                key = tuple(rest)
                c = acc.get(key, _F0) + value
                if c:
                    acc[key] = c
                else:
                    acc.pop(key, None)
        return Poly(acc)

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        """Terms in canonical ascending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: MONO_KEY(t[0]))

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


def as_poly(value: Coeffish) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly.const(value)


def primitive_terms(terms: Mapping[Mono, int]) -> dict[Mono, int]:
    """Integer terms divided by their gcd, the sign fixed so that the first
    coefficient in canonical (ascending) term order is positive. terms holds
    no zero coefficient and is not empty."""
    g = gcd(*terms.values())
    if terms[min(terms, key=MONO_KEY)] < 0:
        g = -g
    return {mono: c // g for mono, c in terms.items()}


def normalize_primitive(p: Poly) -> Poly:
    """Divide by the rational content and fix the sign.

    The result has integer coefficients with gcd 1 and a positive first
    coefficient in canonical (ascending) term order. Raises on zero.
    """
    if not p:
        raise ValueError("cannot normalize the zero polynomial")
    d = lcm(*(c.denominator for c in p.terms.values()))
    scaled = {mono: c.numerator * (d // c.denominator) for mono, c in p.terms.items()}
    return Poly({mono: Fraction(c) for mono, c in primitive_terms(scaled).items()})


def poly_sort_key(p: Poly):
    """Deterministic order on polynomials, used to print constraint sets."""
    terms = p.sorted_terms()
    return (len(terms), tuple((MONO_KEY(m), c) for m, c in terms))
