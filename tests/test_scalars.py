from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import pytest
from hypothesis import given, strategies as st

from leibnizalg import MissingParameterError, ONE, Poly, ZERO, as_poly
from leibnizalg.scalars import (
    MONO_KEY, format_term, mono_mul, mono_packing, mono_str, poly_sort_key, primitive_terms,
)

from conftest import mono_cmp

A = Poly.param("a")
B = Poly.param("b")
LAM = Poly.param("l")


def test_constants_behave_like_fractions():
    assert Poly.const(2) + Poly.const(Fraction(1, 2)) == Fraction(5, 2)
    assert Poly.const(3) * Poly.const(Fraction(1, 3)) == 1
    assert Poly.const(0) == ZERO
    assert not ZERO
    assert ONE.is_constant() and ONE.constant_value() == 1


def test_parametric_arithmetic():
    p = (A + 1) * (A - 1)
    assert p == A * A - 1
    assert str(p) == "-1 + a^2"
    assert (A - A) == ZERO
    assert 2 * A - A == A
    assert -(A - B) == B - A


def test_mixed_scalar_operands():
    assert A + 1 == 1 + A
    assert A - Fraction(1, 2) == -(Fraction(1, 2) - A)
    assert Fraction(2, 3) * A == A * Fraction(2, 3)


def test_constant_value_requires_constant():
    with pytest.raises(MissingParameterError):
        A.constant_value()


def test_evaluate_names_missing_parameter():
    p = A * B + LAM
    with pytest.raises(MissingParameterError, match="b"):
        p.evaluate({"a": 1, "l": 0})
    assert p.evaluate({"a": 2, "b": Fraction(1, 2), "l": -1}) == 0


def test_canonical_string_is_ascending():
    # constants first, then by degree; inside a degree, grlex with earlier
    # names taking precedence, so b^2 < a*b < a^2
    p = A * B - 3 * A + ONE + B * B
    assert str(p) == "1 - 3*a + b^2 + a*b"
    assert str(ZERO) == "0"
    assert str(-A) == "-a"


def test_mono_order_graded_lex():
    a = (("a", 1),)
    b = (("b", 1),)
    ab = mono_mul(a, b)
    aa = mono_mul(a, a)
    assert mono_cmp((), a) < 0  # lower degree first
    assert mono_cmp(b, a) < 0  # same degree: weight on early names sorts later
    assert mono_cmp(ab, aa) < 0  # a*b before a^2
    assert sorted([ab, (), aa, b], key=MONO_KEY) == [(), b, ab, aa]


def int_terms(p):
    """The terms of a Poly with integer coefficients, as primitive_terms takes them."""
    return {mono: int(c) for mono, c in p.terms.items()}


def as_poly_terms(terms):
    """The Poly with these integer terms."""
    return Poly({mono: Fraction(c) for mono, c in terms.items()})


def test_normalize_primitive_spec_example():
    # primitive_terms on -3*l + 3*a*l, led by l, the first monomial in canonical order
    lead = (("l", 1),)
    got = primitive_terms(int_terms(-3 * LAM + 3 * LAM * A), lead)
    assert as_poly_terms(got) == LAM - LAM * A
    assert str(as_poly_terms(got)) == "l - a*l"


def test_normalize_primitive_properties():
    terms = int_terms(6 * A * B - 4 * B)
    lead = (("b", 1),)
    # content 2 comes out; the lead monomial (b) gets the positive sign
    n = primitive_terms(terms, lead)
    assert n == int_terms(2 * B - 3 * A * B)
    assert str(as_poly_terms(n)) == "2*b - 3*a*b"
    assert primitive_terms(n, lead) == n
    assert primitive_terms({mono: -7 * c for mono, c in terms.items()}, lead) == n


def test_poly_sort_key_is_deterministic():
    polys = [A + B, B, A, ONE, A * B]
    once = sorted(polys, key=poly_sort_key)
    again = sorted(list(reversed(polys)), key=poly_sort_key)
    assert once == again


names = st.sampled_from(("a", "b", "l", "mu"))
coeffs = st.integers(min_value=-9, max_value=9)


@st.composite
def polys(draw):
    total = ZERO
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        term = Poly.const(draw(coeffs))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            term = term * Poly.param(draw(names))
        total = total + term
    return total


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p
    assert p - p == ZERO


@given(polys(), polys(), st.fixed_dictionaries({n: coeffs for n in ("a", "b", "l", "mu")}))
def test_evaluate_is_a_homomorphism(p, q, point):
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


@given(polys(), st.integers(min_value=1, max_value=40))
def test_normalize_kills_scale(p, num):
    if p == ZERO:
        return
    terms = int_terms(p)
    lead = min(terms, key=MONO_KEY)
    prim = primitive_terms(terms, lead)
    assert gcd(*prim.values()) == 1 and prim[lead] > 0
    assert primitive_terms(prim, lead) == prim
    for scale in (num, -num):
        assert primitive_terms({mono: scale * c for mono, c in terms.items()}, lead) == prim


# names with many shared prefixes ("a" < "a0" < "a_" < "ab" < "b"), the case
# a key on reversed names could get wrong
prefix_names = st.text(alphabet="ab0_Z", min_size=1, max_size=3)
monomials = st.dictionaries(prefix_names, st.integers(min_value=1, max_value=3), max_size=4).map(
    lambda exps: tuple(sorted(exps.items()))
)


@given(monomials, monomials)
def test_mono_key_orders_as_mono_cmp(a, b):
    sign = mono_cmp(a, b)
    assert (MONO_KEY(a) < MONO_KEY(b)) == (sign < 0)
    assert (MONO_KEY(a) == MONO_KEY(b)) == (sign == 0) == (a == b)


@given(st.lists(monomials, max_size=12))
def test_mono_key_sorts_as_cmp_to_key(monos):
    assert sorted(monos, key=MONO_KEY) == sorted(monos, key=cmp_to_key(mono_cmp))


# packed monomials: more than 64 names sharing prefixes, so that a packed
# monomial outgrows a machine word; top is the largest exponent packed
PACK_NAMES = sorted({head + tail for head in ("a", "a_", "ab", "b", "Z") for tail in (
    "", "0", "1", "_1", "a", "b", "_", "a0", "b1", "Za", "00", "ab", "1a", "_b", "a_1",
)})
packable = st.sampled_from((1, 2, 3, 4, 7, 8)).flatmap(lambda top: st.tuples(st.just(top), st.lists(
    st.dictionaries(st.sampled_from(PACK_NAMES), st.integers(min_value=1, max_value=top), max_size=5).map(
        lambda exps: tuple(sorted(exps.items()))
    ),
    min_size=1, max_size=8,
)))


@given(packable)
def test_packing_keeps_order_products_and_monomials(case):
    top, monos = case
    assert len(PACK_NAMES) > 64
    pack, unpack = mono_packing(reversed(PACK_NAMES), top)
    assert pack(((PACK_NAMES[-1], 1),)).bit_length() > 64
    assert sorted(monos, key=pack) == sorted(monos, key=MONO_KEY)
    for a in monos:
        assert unpack(pack(a)) == a
        for b in monos:
            assert (pack(a) < pack(b)) == (MONO_KEY(a) < MONO_KEY(b))
            assert pack(a) + pack(b) == pack(mono_mul(a, b))
            assert unpack(pack(a) + pack(b)) == mono_mul(a, b)


def test_packing_without_parameters():
    pack, unpack = mono_packing((), 0)
    assert pack(()) == 0 and unpack(0) == ()


# format_term as it stood before it read numerator and denominator, through
# Fraction comparison, abs and str


def ref_format_term(coeff, mono, symbol=None):
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


term_coefficients = st.one_of(
    st.sampled_from((Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(-2))),
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30).filter(bool).map(Fraction),
    st.builds(Fraction, st.integers(min_value=-(10 ** 30), max_value=10 ** 30).filter(bool),
              st.integers(min_value=1, max_value=10 ** 30)),
    st.fractions().filter(bool),
)


@given(term_coefficients, st.one_of(st.just(()), monomials), st.one_of(st.none(), st.sampled_from(("x0", "e", "y2"))))
def test_format_term_matches_reference(coeff, mono, symbol):
    assert format_term(coeff, mono, symbol) == ref_format_term(coeff, mono, symbol)


def test_format_term_prints_past_the_digit_limit():
    # more digits than str() gives under any limit sys.set_int_max_str_digits admits
    n = 3**20000 + 1  # 9,543 digits
    sign, body = format_term(Fraction(-n, 7), ())
    num, den = body.split("/")
    assert (sign, den, len(num)) == (-1, "7", 9543)
    chunks = [int(num[i:i + 500]) for i in range(0, len(num), 500)]  # each under the limit
    value = 0
    for i, chunk in enumerate(chunks):
        width = min(500, len(num) - 500 * i)
        value = value * 10**width + chunk
    assert value == n
